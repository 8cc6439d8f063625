//! The three batch workloads — Figure 6 at `Scale::Huge`, an open-system
//! synthetic pipeline, Figure 6 at `Scale::Small` under bus contention —
//! as one plan shape: phases of applications, each run under all four
//! policies against a fresh artifact memo per phase.

use std::sync::Arc;
use std::time::Instant;

use lams_core::{
    ArrivalConfig, ArrivalPlan, ArtifactCache, Experiment, MemoStats, PolicyKind, RunResult,
    ScenarioMatrix, SweepRunner,
};
use lams_layout::Layout;
use lams_mpsoc::{BusConfig, MachineConfig};
use lams_workloads::{suite, synthetic_app, AppSpec, Scale, SyntheticConfig, Workload};

use crate::goldens::fnv;
use crate::spans::Tracer;

/// One fig6 invocation's worth of work: `apps` × all four policies on
/// `machine`, sharing one fresh [`ArtifactCache`].
#[derive(Debug, Clone)]
pub struct Phase {
    /// Span wrapping the phase in traced runs (`bus.matrix.fcfs`, …).
    pub span: Option<&'static str>,
    /// Machine every job runs on.
    pub machine: MachineConfig,
    /// Open-system arrival stream, if any.
    pub arrivals: Option<ArrivalConfig>,
    /// Applications, one bar group each.
    pub apps: Vec<AppSpec>,
}

/// A batch workload: the phases of one unit and the RS seed.
#[derive(Debug, Clone)]
pub struct BatchPlan {
    /// RS seed of every experiment.
    pub seed: u64,
    /// Phases, run in order.
    pub phases: Vec<Phase>,
}

/// Shape of the open-system pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenConfig {
    /// `synthetic_app` seed. Fixed per configuration: the LSM ladder's
    /// candidate count depends on the application, so a per-run
    /// application would make run time vary with the seed by more than
    /// the benchmark's bounds.
    pub app_seed: u64,
    /// Pipeline stages.
    pub stages: usize,
    /// Processes per stage.
    pub procs_per_stage: usize,
    /// Grid dimension.
    pub dim: i64,
    /// Offered load in thousandths.
    pub load_milli: u64,
}

impl OpenConfig {
    /// The benchmark's pipeline: 16 stages × 32 processes at load 0.9.
    /// Not 64 per stage: the larger working set made run time follow the
    /// host's memory contention about twice as closely, and not 16,
    /// which simulates no LSM candidate.
    pub const BENCH: OpenConfig = OpenConfig {
        app_seed: 0xC0FFEE,
        stages: 16,
        procs_per_stage: 32,
        dim: 128,
        load_milli: 900,
    };

    /// The application.
    pub fn app(&self) -> AppSpec {
        synthetic_app(SyntheticConfig {
            seed: self.app_seed,
            stages: self.stages,
            procs_per_stage: self.procs_per_stage,
            dim: self.dim,
            max_halo: 2,
        })
    }

    /// The Poisson admission stream for run seed `seed`.
    pub fn arrivals(&self, seed: u64) -> ArrivalConfig {
        ArrivalConfig::poisson(self.load_milli, seed)
    }
}

impl BatchPlan {
    /// Figure 6: the six suite applications at `scale`.
    pub fn fig6(scale: Scale, seed: u64) -> Self {
        BatchPlan {
            seed,
            phases: vec![Phase {
                span: None,
                machine: MachineConfig::paper_default(),
                arrivals: None,
                apps: suite::all(scale),
            }],
        }
    }

    /// Figure 6 at `scale`, once under `fcfs:20` and once under
    /// `windowed:20:256`.
    pub fn bus_contended(scale: Scale, seed: u64) -> Self {
        let modes = [
            ("bus.matrix.fcfs", BusConfig::fcfs(20)),
            ("bus.matrix.windowed", BusConfig::windowed(20, 256)),
        ];
        BatchPlan {
            seed,
            phases: modes
                .into_iter()
                .map(|(span, bus)| Phase {
                    span: Some(span),
                    machine: MachineConfig::paper_default().with_bus(bus),
                    arrivals: None,
                    apps: suite::all(scale),
                })
                .collect(),
        }
    }

    /// The synthetic pipeline admitted by a Poisson stream seeded with
    /// `seed`, which also sets the RS seed.
    pub fn open_pipeline(config: OpenConfig, seed: u64) -> Self {
        BatchPlan {
            seed,
            phases: vec![Phase {
                span: None,
                machine: MachineConfig::paper_default(),
                arrivals: Some(config.arrivals(seed)),
                apps: vec![config.app()],
            }],
        }
    }

    /// Scenario jobs (application × policy) in one unit.
    pub fn jobs_per_unit(&self) -> usize {
        self.phases.iter().map(|p| p.apps.len()).sum::<usize>() * PolicyKind::ALL.len()
    }
}

/// The simulated outcome of one unit. Equal units are bit-identical
/// simulations; `digest` covers every job's result.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UnitResult {
    /// Per-job result fingerprints, in job order.
    pub jobs: Vec<u64>,
    /// Σ makespan of the LS and LSM runs (the paper's task completion
    /// time).
    pub sim_makespan: u64,
    /// Σ sojourn p99 of the LS and LSM runs (open-system runs only).
    pub sojourn_p99: u64,
    /// Σ cache accesses over every run.
    pub accesses: u64,
    /// Σ cache misses over every run.
    pub misses: u64,
    /// Σ conflict misses over every run.
    pub conflict_misses: u64,
    /// Σ core busy cycles over every run.
    pub busy_cycles: u64,
    /// Σ cycles cores waited for the bus over every run.
    pub bus_wait_cycles: u64,
}

impl UnitResult {
    /// Folds in one job's result.
    pub fn add(&mut self, kind: PolicyKind, r: &RunResult) {
        let c = &r.machine.cache;
        let sojourn = r.arrivals.as_ref().map_or(0, |m| m.sojourn.p99);
        self.jobs.push(fnv([
            kind as u64,
            r.makespan_cycles,
            c.hits,
            c.misses,
            c.conflict_misses,
            r.machine.total_busy_cycles,
            r.machine.total_bus_wait_cycles,
            sojourn,
        ]));
        if matches!(kind, PolicyKind::Locality | PolicyKind::LocalityMap) {
            self.sim_makespan += r.makespan_cycles;
            self.sojourn_p99 += sojourn;
        }
        self.accesses += c.accesses();
        self.misses += c.misses;
        self.conflict_misses += c.conflict_misses;
        self.busy_cycles += r.machine.total_busy_cycles;
        self.bus_wait_cycles += r.machine.total_bus_wait_cycles;
    }

    /// One number over every job's result.
    pub fn digest(&self) -> u64 {
        fnv(self.jobs.iter().copied())
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn experiment(plan: &BatchPlan, phase: &Phase, workload: Workload) -> Experiment {
    Experiment::for_workload(workload, phase.machine).with_seed(plan.seed)
}

/// Runs one unit the way `fig6 --threads 1` does: every job goes through
/// [`ScenarioMatrix::run_with_memo`] on a 1-thread [`SweepRunner`],
/// sharing one fresh memo per phase. Each job is submitted as its own
/// one-job matrix so its latency can be observed; each job's host ms is
/// appended to `latencies`.
///
/// # Errors
///
/// Any workload-build or engine error.
pub fn run_unit(plan: &BatchPlan, latencies: &mut Vec<f64>) -> Result<UnitResult, String> {
    let runner = SweepRunner::new(1);
    let mut out = UnitResult::default();
    for phase in &plan.phases {
        let memo = ArtifactCache::shared();
        for app in &phase.apps {
            let workload =
                Workload::single(app.clone()).map_err(|e| format!("{}: {e}", app.name))?;
            let mut exp = experiment(plan, phase, workload);
            if let Some(a) = phase.arrivals {
                exp = exp.with_arrivals(a);
            }
            // The workload caches its content fingerprints; fill them
            // before cloning so the four one-job matrices share them, as
            // the four jobs of one `push_all` group do.
            let w = exp.workload();
            w.fingerprint();
            if let Some(p) = w.process_ids().next() {
                w.process_fingerprint(p);
            }
            for &kind in PolicyKind::ALL {
                let mut matrix = ScenarioMatrix::new();
                matrix.push(app.name.clone(), exp.clone(), kind);
                let t = Instant::now();
                let reports = matrix
                    .run_with_memo(&runner, &memo)
                    .map_err(|e| format!("{}/{kind}: {e}", app.name))?;
                latencies.push(ms_since(t));
                out.add(kind, &reports[0].outcomes()[0].result);
            }
        }
    }
    Ok(out)
}

/// Counters a traced unit reads at layer boundaries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UnitCounts {
    /// Σ trace ops of every workload built.
    pub trace_ops: u64,
    /// Ops simulated by the RS, RRS and LS runs.
    pub simulated_ops: u64,
    /// LS-result memo misses during the LSM ladders.
    pub candidates_simulated: u64,
    /// Memo counters summed over the unit's phases.
    pub memo: MemoStats,
}

/// The same unit as [`run_unit`], decomposed into one call per layer,
/// each wrapped in a span:
///
/// * `workloads.build` — [`Workload::single`];
/// * `workloads.compile` — a cold [`ArtifactCache::programs`];
/// * `sharing.build` — a cold [`ArtifactCache::sharing`];
/// * `arrivals.plan` — [`ArrivalPlan::generate`] (open system only);
/// * `engine.simulate.{rs,rrs,ls}` — [`Experiment::run`] with warm
///   programs;
/// * `engine.simulate.pilot` — the batch LS pilot an open-system LSM
///   maps from;
/// * `lsm.ladder` — [`Experiment::run_lsm`] with the pilot memoized.
///
/// Results must equal [`run_unit`]'s job for job.
///
/// # Errors
///
/// Any workload-build or engine error.
pub fn run_unit_traced(
    plan: &BatchPlan,
    tr: &mut Tracer,
    unit: u64,
) -> Result<(UnitResult, UnitCounts), String> {
    const SIMULATE: [(PolicyKind, &str); 3] = [
        (PolicyKind::Random, "engine.simulate.rs"),
        (PolicyKind::RoundRobin, "engine.simulate.rrs"),
        (PolicyKind::Locality, "engine.simulate.ls"),
    ];
    tr.set_unit(unit);
    let root = tr.enter("unit", format!("unit {unit}"));
    let mut out = UnitResult::default();
    let mut counts = UnitCounts::default();
    for phase in &plan.phases {
        let phase_span = phase.span.map(|name| tr.enter(name, ""));
        let memo = ArtifactCache::shared();
        for app in &phase.apps {
            let label = app.name.as_str();
            let workload = tr
                .time("workloads.build", label, || Workload::single(app.clone()))
                .map_err(|e| format!("{label}: {e}"))?;
            let base = experiment(plan, phase, workload).with_memo(Arc::clone(&memo));
            let w = base.workload();
            let linear = Layout::linear(w.arrays());
            tr.time("workloads.compile", label, || memo.programs(w, &linear));
            tr.time("sharing.build", label, || memo.sharing(w));
            let ops = w.total_trace_ops();
            counts.trace_ops += ops;
            let (exp, batch) = match phase.arrivals {
                Some(a) => {
                    let service: Vec<u64> = w.process_ids().map(|p| w.trace_len(p)).collect();
                    let cores = phase.machine.num_cores;
                    tr.time("arrivals.plan", label, || {
                        ArrivalPlan::generate(a, &service, cores)
                    });
                    (base.clone().with_arrivals(a), Some(base))
                }
                None => (base, None),
            };
            for (kind, span) in SIMULATE {
                let r = tr
                    .time(span, label, || exp.run(kind))
                    .map_err(|e| format!("{label}/{kind}: {e}"))?;
                counts.simulated_ops += ops;
                out.add(kind, &r);
            }
            if let Some(batch) = batch {
                tr.time("engine.simulate.pilot", label, || {
                    batch.run(PolicyKind::Locality)
                })
                .map_err(|e| format!("{label}/pilot: {e}"))?;
            }
            let before = memo.stats().pilot_misses;
            let (r, _) = tr
                .time("lsm.ladder", label, || exp.run_lsm())
                .map_err(|e| format!("{label}/LSM: {e}"))?;
            counts.candidates_simulated += memo.stats().pilot_misses - before;
            out.add(PolicyKind::LocalityMap, &r);
        }
        if let Some(id) = phase_span {
            tr.exit(id);
        }
        let s = memo.stats();
        let m = &mut counts.memo;
        m.program_hits += s.program_hits;
        m.program_misses += s.program_misses;
        m.per_process_hits += s.per_process_hits;
        m.per_process_misses += s.per_process_misses;
        m.sharing_hits += s.sharing_hits;
        m.sharing_misses += s.sharing_misses;
        m.pilot_hits += s.pilot_hits;
        m.pilot_misses += s.pilot_misses;
        m.weight_hits += s.weight_hits;
        m.weight_misses += s.weight_misses;
        m.evictions += s.evictions;
    }
    tr.exit(root);
    Ok((out, counts))
}

/// Host ms of the whole plan as one [`ScenarioMatrix`] (as `fig6`
/// builds it) on a `threads`-thread runner with a fresh memo.
///
/// # Errors
///
/// Any engine error.
pub fn matrix_ms(plan: &BatchPlan, threads: usize) -> Result<f64, String> {
    let t = Instant::now();
    for phase in &plan.phases {
        let mut matrix = ScenarioMatrix::new();
        for app in &phase.apps {
            let workload =
                Workload::single(app.clone()).map_err(|e| format!("{}: {e}", app.name))?;
            let mut exp = experiment(plan, phase, workload);
            if let Some(a) = phase.arrivals {
                exp = exp.with_arrivals(a);
            }
            matrix.push_all(&app.name, &exp, PolicyKind::ALL);
        }
        matrix
            .run_with_memo(&SweepRunner::new(threads), &ArtifactCache::shared())
            .map_err(|e| e.to_string())?;
    }
    Ok(ms_since(t))
}
