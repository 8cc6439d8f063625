//! Command-line arguments.

use std::fmt;

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadName {
    /// Figure 6 at `Scale::Huge` on a 1-thread sweep runner.
    Fig6Huge,
    /// A seeded 16×64 synthetic pipeline under a Poisson stream.
    OpenPipeline,
    /// A closed loop of TCP clients against a live `lams_serve`.
    ServeMix,
    /// Figure 6 at `Scale::Small` under `fcfs:20` and `windowed:20:256`.
    BusContended,
}

impl WorkloadName {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [WorkloadName; 4] = [
        WorkloadName::Fig6Huge,
        WorkloadName::OpenPipeline,
        WorkloadName::ServeMix,
        WorkloadName::BusContended,
    ];

    /// The name used on the command line.
    pub fn as_str(self) -> &'static str {
        match self {
            WorkloadName::Fig6Huge => "fig6-huge",
            WorkloadName::OpenPipeline => "open-pipeline",
            WorkloadName::ServeMix => "serve-mix",
            WorkloadName::BusContended => "bus-contended",
        }
    }
}

impl fmt::Display for WorkloadName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One invocation's arguments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Args {
    /// Workload to run.
    pub workload: WorkloadName,
    /// Input seed.
    pub seed: u64,
    /// Seconds of measurement.
    pub seconds: u64,
    /// Traced (per-layer) run instead of the end-to-end run.
    pub trace: bool,
    /// Only time one set-up and print its seconds: the fresh process a
    /// run starts for each of its later `setup_s` samples.
    pub setup_only: bool,
}

/// The usage line printed with every argument error.
pub const USAGE: &str =
    "usage: perfbench --workload fig6-huge|open-pipeline|serve-mix|bus-contended \
--seed N --seconds N --trace 0|1 [--setup-only]";

/// Parses `--workload W --seed N --seconds N --trace 0|1` and an
/// optional `--setup-only`: every flag at most once, in any order.
pub fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut setup_only = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--setup-only" {
            if setup_only {
                return Err(format!("{flag} given twice"));
            }
            setup_only = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let slot_taken = match flag.as_str() {
            "--workload" => {
                let w = WorkloadName::ALL
                    .into_iter()
                    .find(|w| w.as_str() == value)
                    .ok_or_else(|| format!("unknown workload '{value}'"))?;
                workload.replace(w).is_some()
            }
            "--seed" => {
                let s = value.parse::<u64>().map_err(|_| {
                    format!("malformed seed '{value}' (expected an unsigned integer)")
                })?;
                seed.replace(s).is_some()
            }
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .ok()
                    .filter(|s| (1..=600).contains(s))
                    .ok_or_else(|| format!("malformed seconds '{value}' (expected 1..=600)"))?;
                seconds.replace(s).is_some()
            }
            "--trace" => {
                let t = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("malformed trace '{value}' (expected 0 or 1)")),
                };
                trace.replace(t).is_some()
            }
            other => return Err(format!("unknown flag '{other}'")),
        };
        if slot_taken {
            return Err(format!("{flag} given twice"));
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        setup_only,
    })
}
