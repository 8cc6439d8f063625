//! `perfbench --workload W --seed N --seconds N --trace 0|1`
//!
//! Prints a human-readable report on stderr and, as the last line of
//! stdout, one JSON object `{"correct", "attempted", "failed",
//! "metrics"}`: the end-to-end metrics of `BENCHMARK.json` with
//! `--trace 0`, its per-layer metrics with `--trace 1`. Every value
//! measured, and in traced runs a Chrome trace-event file of the spans,
//! is also written under `perfbench/out/`. A failed output check exits
//! 1 and a usage error 2, neither printing a result line.
//!
//! With `--setup-only` it instead times one set-up, as a fresh process
//! does it, and prints `<seconds> <digest>`: a run starts such a process
//! for each of its later `setup_s` samples.

use std::fmt::Write as _;
use std::path::Path;

use lams_perfbench::spans::{chrome_trace, json_str};
use lams_perfbench::{cli, run, serve};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = cli::parse(&argv).unwrap_or_else(|e| {
        eprintln!("error: {e}\n{}", cli::USAGE);
        std::process::exit(2);
    });
    let fail = |e: String| -> ! {
        eprintln!("perfbench {} seed {}: {e}", args.workload, args.seed);
        std::process::exit(1);
    };
    if args.setup_only {
        let daemon = serve::daemon_path().unwrap_or_else(|e| fail(e));
        let (secs, digest) = run::setup_only(&args, &daemon).unwrap_or_else(|e| fail(e));
        println!("{secs} {digest:016x}");
        return;
    }
    // Every workload builds the daemon first, so whichever run comes
    // first in a fresh checkout pays for the build outside any timing.
    let daemon = serve::build_daemon().unwrap_or_else(|e| fail(e));
    let result = run::run(&args, &daemon).unwrap_or_else(|e| fail(e));

    let tag = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    eprintln!(
        "perfbench {} seed {} ({} s, trace {})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut values = String::new();
    for (name, v) in &result.values {
        eprintln!("  {name:<34} {v}");
        if !values.is_empty() {
            values.push_str(", ");
        }
        let _ = write!(values, "{}: {v}", json_str(name));
    }
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let meta = vec![
        ("workload", args.workload.to_string()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
    ];
    let mut files = vec![(
        format!("{tag}.json"),
        format!(
            "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"values\": {{{values}}}}}\n",
            json_str(args.workload.as_str()),
            args.seed,
            args.seconds,
            args.trace
        ),
    )];
    if !result.tracers.is_empty() {
        let tracers: Vec<(&str, &lams_perfbench::spans::Tracer)> =
            result.tracers.iter().map(|(n, t)| (*n, t)).collect();
        files.push((format!("{tag}.trace.json"), chrome_trace(&tracers, &meta)));
    }
    let written = std::fs::create_dir_all(&out_dir).and_then(|()| {
        files
            .iter()
            .try_for_each(|(name, body)| std::fs::write(out_dir.join(name), body))
    });
    if let Err(e) = written {
        fail(format!("cannot write {}: {e}", out_dir.display()));
    }
    println!("{}", result.output.to_json());
}
