//! Drives one invocation: set-up (goldens and warm-up, repeated in fresh
//! processes), the measured window, output checks, and in traced runs
//! the per-layer split.

use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lams_core::{ArtifactCache, EvictionPolicy, RunResult};
use lams_serve::{execute_work, Request, Work};
use lams_workloads::{suite, Workload};

use crate::batch::{self, BatchPlan, OpenConfig, UnitCounts, UnitResult};
use crate::cli::{Args, WorkloadName};
use crate::goldens::{self, fnv};
use crate::host;
use crate::report::{Output, Values, END_TO_END, PER_LAYER};
use crate::serve::{self, Answer, Conn, Daemon, RequestStream, Scenario, CACHE_CAPACITY};
use crate::spans::Tracer;
use crate::stats::{best_per_key, median, Dist, Reply, Tally};

/// Set-up samples per run; `setup_s` is their median. The first is the
/// run's own set-up, the others fresh `--setup-only` processes.
pub const SETUP_REPS: usize = 9;
/// Requests each serve-mix connection sends per round.
pub const ROUND: usize = 8;

/// What one invocation produced.
#[derive(Debug)]
pub struct Run {
    /// The result line.
    pub output: Output,
    /// Every value measured, end-to-end and per-layer, for the report.
    pub values: Values,
    /// Tracers (named) of a traced run.
    pub tracers: Vec<(&'static str, Tracer)>,
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs `args.workload`; `daemon` is the `lams_serve` binary
/// ([`serve::build_daemon`]).
///
/// # Errors
///
/// Any failed output check (golden drift, non-repeatable units, a
/// reply that disagrees with the in-process result) or a transport or
/// engine error. No metrics are reported then.
pub fn run(args: &Args, daemon: &Path) -> Result<Run, String> {
    // Host calibration first, so the sweep efficiency can use it.
    let mut values = Values::new();
    values.insert("host.nproc", host::nproc() as f64);
    values.insert("host.effective_parallelism", host::effective_parallelism());
    values.insert("setup.samples", SETUP_REPS as f64);
    let mut run = match plan(args.workload, args.seed) {
        Some(plan) => batch_run(args, &plan, values),
        None => serve_run(args, daemon, values),
    }?;
    let (table, required) = if args.trace {
        (&PER_LAYER[..], false)
    } else {
        (&END_TO_END[..], true)
    };
    run.output.metrics = Output::select(&run.values, table, required);
    Ok(run)
}

/// The batch plan of `workload`; `None` for `serve-mix`.
fn plan(workload: WorkloadName, seed: u64) -> Option<BatchPlan> {
    match workload {
        WorkloadName::Fig6Huge => Some(BatchPlan::fig6(lams_workloads::Scale::Huge, seed)),
        WorkloadName::OpenPipeline => Some(BatchPlan::open_pipeline(OpenConfig::BENCH, seed)),
        WorkloadName::BusContended => {
            // Not Large: at Large and Paper the unit time followed the
            // host's memory contention several times as closely.
            Some(BatchPlan::bus_contended(lams_workloads::Scale::Small, seed))
        }
        WorkloadName::ServeMix => None,
    }
}

/// `--setup-only`: one set-up as a fresh process does it. Returns its
/// seconds and the digest of what it simulated ([`UnitResult::digest`]
/// of the warm-up unit, or [`warm_digest`] of the warm-up pass).
///
/// # Errors
///
/// A drifted golden, a failed warm-up request or a transport error.
pub fn setup_only(args: &Args, daemon: &Path) -> Result<(f64, u64), String> {
    match plan(args.workload, args.seed) {
        Some(plan) => {
            let (secs, unit) = batch_setup(&plan)?;
            Ok((secs, unit.digest()))
        }
        None => {
            let pool = serve::pool(args.seed);
            let (secs, live) = serve_setup(daemon, &pool, host::nproc())?;
            drop(live.conns);
            live.daemon.shutdown()?;
            Ok((secs, warm_digest(&live.warm)))
        }
    }
}

/// One set-up in a fresh process (this binary with `--setup-only`): its
/// seconds, once its digest matched `reference`.
fn setup_in_child(args: &Args, reference: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", args.workload.as_str()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", "0", "--setup-only"])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a set-up process: {e}"))?;
    if !out.status.success() {
        return Err(format!("set-up process failed: {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let (secs, digest) = text
        .trim()
        .split_once(' ')
        .and_then(|(s, d)| Some((s.parse::<f64>().ok()?, u64::from_str_radix(d, 16).ok()?)))
        .ok_or_else(|| format!("set-up process printed {text:?}"))?;
    if digest != reference {
        return Err(format!(
            "a set-up process simulated different results (digest 0x{digest:016x}, this run 0x{reference:016x})"
        ));
    }
    Ok(secs)
}

/// Runs `op` until `window` of measured time has passed. At evenly
/// spaced points of measured time the clock pauses while a set-up runs
/// in a fresh process, until `setups` holds [`SETUP_REPS`] samples: the
/// host's speed drifts for tens of seconds at a time, and set-ups taken
/// back to back would all land in one phase of it.
fn measure(
    args: &Args,
    reference: u64,
    window: Duration,
    setups: &mut Vec<f64>,
    mut op: impl FnMut() -> Result<(), String>,
) -> Result<(), String> {
    let spacing = window / SETUP_REPS as u32;
    let start = Instant::now();
    let mut paused = Duration::ZERO;
    loop {
        op()?;
        let measured = start.elapsed() - paused;
        if setups.len() < SETUP_REPS && measured >= spacing * setups.len() as u32 {
            let t = Instant::now();
            setups.push(setup_in_child(args, reference)?);
            paused += t.elapsed();
        }
        if measured >= window {
            break;
        }
    }
    while setups.len() < SETUP_REPS {
        setups.push(setup_in_child(args, reference)?);
    }
    Ok(())
}

fn check_same(reference: &UnitResult, unit: &UnitResult, what: &str) -> Result<(), String> {
    if reference == unit {
        Ok(())
    } else {
        Err(format!(
            "{what} simulated different results (digest 0x{:016x}, first unit 0x{:016x})",
            unit.digest(),
            reference.digest()
        ))
    }
}

/// The timing metrics of a measured window. `units` are unit times
/// (ms); `ops` pairs each operation's key (below `keys`) with its
/// latency (ms, infinite when it failed).
///
/// The gated metrics are best-case times: the fastest unit, and the
/// median and tail over operations of each operation's fastest run (an
/// operation that failed in any run reads infinite). On a host whose
/// speed drifts with its neighbours' load for tens of seconds at a
/// time, medians of raw samples spread across runs by more than any
/// usable bound, while best times repeat. They cannot see slowness that
/// hits only some runs of an operation; the raw median, tail and
/// throughput are reported alongside, ungated, as `e2e.raw_*`.
fn insert_timings(values: &mut Values, units: &[f64], ops: &[(usize, f64)], keys: usize) {
    let best = Dist::of(&best_per_key(ops.iter().copied(), keys));
    let raw = Dist::of(&ops.iter().map(|&(_, t)| t).collect::<Vec<_>>());
    let fastest = units.iter().copied().fold(f64::INFINITY, f64::min);
    values.insert("run_ms_min", fastest);
    values.insert("op_best_ms_p50", best.p50);
    values.insert("op_best_ms_tail", best.tail);
    values.insert("e2e.operations", best.n as f64);
    values.insert("e2e.tail_percentile", best.tail_pct);
    values.insert("e2e.unit_samples", units.len() as f64);
    values.insert("e2e.latency_samples", raw.n as f64);
    values.insert("e2e.raw_run_ms_p50", median(units));
    let answered = ops.iter().filter(|(_, t)| t.is_finite()).count();
    values.insert(
        "e2e.raw_req_per_s",
        answered as f64 * 1e3 / units.iter().sum::<f64>(),
    );
    values.insert("e2e.raw_latency_ms_p50", raw.p50);
    values.insert("e2e.raw_latency_ms_tail", raw.tail);
    values.insert("e2e.raw_tail_percentile", raw.tail_pct);
}

/// One batch set-up: the goldens and one untimed warm-up unit.
fn batch_setup(plan: &BatchPlan) -> Result<(f64, UnitResult), String> {
    let t = Instant::now();
    goldens::check()?;
    let unit = batch::run_unit(plan, &mut Vec::new())?;
    Ok((secs(t), unit))
}

fn batch_run(args: &Args, plan: &BatchPlan, mut values: Values) -> Result<Run, String> {
    let (first, reference) = batch_setup(plan)?;
    let mut setups = vec![first];

    // A traced run alternates untraced and traced units, so both see
    // the same host conditions.
    let mut tracer = args.trace.then(Tracer::new);
    let mut counts = UnitCounts::default();
    let mut units = Vec::new();
    let mut lat = Vec::new();
    let window = Duration::from_secs(args.seconds);
    measure(args, reference.digest(), window, &mut setups, || {
        let t = Instant::now();
        let unit = batch::run_unit(plan, &mut lat)?;
        units.push(ms(t.elapsed()));
        check_same(&reference, &unit, "a measured unit")?;
        if let Some(tr) = tracer.as_mut() {
            let (unit, c) = batch::run_unit_traced(plan, tr, units.len() as u64)?;
            counts = c;
            check_same(&reference, &unit, "a traced unit")?;
        }
        Ok(())
    })?;
    let jobs_per_unit = plan.jobs_per_unit();
    let jobs = (units.len() * jobs_per_unit) as u64;
    let run_ms_p50 = median(&units);
    let ops: Vec<(usize, f64)> = lat
        .iter()
        .enumerate()
        .map(|(i, &t)| (i % jobs_per_unit, t))
        .collect();

    values.insert("setup_s", median(&setups));
    insert_timings(&mut values, &units, &ops, jobs_per_unit);
    values.insert(
        "peak_rss_mb",
        host::peak_rss_mb(None).ok_or("cannot read peak RSS")?,
    );
    values.insert("sim_makespan_cycles", reference.sim_makespan as f64);
    values.insert("error_rate", 0.0);
    let output = Output {
        correct: true,
        attempted: jobs,
        failed: 0,
        metrics: Vec::new(),
    };
    let mut tracers = Vec::new();
    if let Some(tr) = tracer {
        batch_layers(&mut values, &tr, &counts, &reference, run_ms_p50);
        if args.workload == WorkloadName::Fig6Huge {
            sweep_layers(&mut values, plan)?;
        }
        tracers.push(("traced units", tr));
    }
    Ok(Run {
        output,
        values,
        tracers,
    })
}

fn batch_layers(
    values: &mut Values,
    tr: &Tracer,
    counts: &UnitCounts,
    unit: &UnitResult,
    run_ms_p50: f64,
) {
    const SELF: [(&str, &str); 9] = [
        ("workloads.build", "workloads.build_ms"),
        ("workloads.compile", "workloads.compile_ms"),
        ("sharing.build", "sharing.build_ms"),
        ("engine.simulate.rs", "engine.simulate_ms.rs"),
        ("engine.simulate.rrs", "engine.simulate_ms.rrs"),
        ("engine.simulate.ls", "engine.simulate_ms.ls"),
        ("engine.simulate.pilot", "engine.simulate_ms.pilot"),
        ("lsm.ladder", "lsm.ladder_ms"),
        ("arrivals.plan", "arrivals.plan_ms"),
    ];
    for (span, metric) in SELF {
        values.insert(metric, median(&tr.self_ms_per_unit(span)));
    }
    for (span, metric) in [
        ("bus.matrix.fcfs", "bus.matrix_ms.fcfs"),
        ("bus.matrix.windowed", "bus.matrix_ms.windowed"),
    ] {
        values.insert(metric, median(&tr.total_ms_per_unit(span)));
    }
    // Simulated Mop/s of the RS, RRS and LS runs, per unit.
    let simulate: Vec<Vec<f64>> = [
        "engine.simulate.rs",
        "engine.simulate.rrs",
        "engine.simulate.ls",
    ]
    .iter()
    .map(|s| tr.self_ms_per_unit(s))
    .collect();
    let mops: Vec<f64> = (0..simulate[0].len())
        .map(|u| counts.simulated_ops as f64 / simulate.iter().map(|v| v[u]).sum::<f64>() / 1e3)
        .collect();
    values.insert("engine.sim_mops_per_s", median(&mops));
    values.insert("workloads.trace_ops", counts.trace_ops as f64);
    values.insert(
        "lsm.candidates_simulated",
        counts.candidates_simulated as f64,
    );
    insert_memo(
        values,
        counts.memo.hits(),
        counts.memo.misses(),
        counts.memo.evictions,
    );
    insert_mpsoc(values, unit);
    values.insert("arrivals.sim_sojourn_p99_cycles", unit.sojourn_p99 as f64);
    let attributed = median(&tr.attributed_ms_per_unit(&[]));
    values.insert("unattributed_ms", run_ms_p50 - attributed);
    let traced = median(&tr.total_ms_per_unit("unit"));
    values.insert("trace.overhead_ratio", traced / run_ms_p50);
}

fn insert_memo(values: &mut Values, hits: u64, misses: u64, evictions: u64) {
    values.insert("memo.hits", hits as f64);
    values.insert("memo.misses", misses as f64);
    let lookups = hits + misses;
    values.insert(
        "memo.hit_ratio",
        if lookups == 0 {
            0.0
        } else {
            hits as f64 / lookups as f64
        },
    );
    values.insert("memo.evictions", evictions as f64);
}

fn insert_mpsoc(values: &mut Values, unit: &UnitResult) {
    values.insert(
        "mpsoc.cache_miss_ratio",
        unit.misses as f64 / unit.accesses.max(1) as f64,
    );
    values.insert("mpsoc.conflict_misses", unit.conflict_misses as f64);
    values.insert("mpsoc.busy_cycles", unit.busy_cycles as f64);
    values.insert("mpsoc.bus_wait_cycles", unit.bus_wait_cycles as f64);
}

/// The whole matrix at `nproc` threads against 1 thread, alternating,
/// two pairs.
fn sweep_layers(values: &mut Values, plan: &BatchPlan) -> Result<(), String> {
    let n = host::nproc();
    let mut one = Vec::new();
    let mut all = Vec::new();
    for _ in 0..2 {
        one.push(batch::matrix_ms(plan, 1)?);
        all.push(batch::matrix_ms(plan, n)?);
    }
    let speedup = median(&one) / median(&all);
    values.insert("sweep.speedup_nproc", speedup);
    values.insert(
        "sweep.efficiency",
        speedup / values["host.effective_parallelism"],
    );
    Ok(())
}

/// The pool indices dealt round-robin across `conns` connections.
fn deal(
    indices: impl Iterator<Item = usize>,
    conns: usize,
    prefix: &str,
) -> Vec<Vec<(usize, String)>> {
    let mut out = vec![Vec::new(); conns];
    for (k, i) in indices.enumerate() {
        out[k % conns].push((i, format!("{prefix}{k}")));
    }
    out
}

/// In-process [`Experiment`](lams_core::Experiment) results per pool
/// scenario — what the daemon must answer — computed on first use.
struct Expected<'a> {
    pool: &'a [Scenario],
    memo: Arc<ArtifactCache>,
    results: Vec<Option<RunResult>>,
}

impl<'a> Expected<'a> {
    fn new(pool: &'a [Scenario]) -> Self {
        Expected {
            pool,
            memo: ArtifactCache::shared(),
            results: vec![None; pool.len()],
        }
    }

    fn makespan(&mut self, scenario: usize) -> Result<u64, String> {
        if self.results[scenario].is_none() {
            self.results[scenario] = Some(self.pool[scenario].expected(&self.memo)?);
        }
        Ok(self.results[scenario]
            .as_ref()
            .expect("computed above")
            .makespan_cycles)
    }
}

/// Checks every `ok` answer's id and makespan against the in-process
/// result of its scenario.
fn verify(answers: &[Answer], expected: &mut Expected) -> Result<(), String> {
    for a in answers {
        match &a.reply {
            Reply::Ok { id, .. } if *id != a.id => {
                return Err(format!("reply id {id} answers request {}", a.id));
            }
            Reply::Ok { .. } => {
                let want = expected.makespan(a.scenario)?;
                let got = a.reply.u64_field("makespan");
                if got != Some(want) {
                    return Err(format!(
                        "request {} ({}) answered makespan {got:?}, in-process {want}",
                        a.id,
                        expected.pool[a.scenario].line("-")
                    ));
                }
            }
            Reply::Failed { .. } => {}
        }
    }
    Ok(())
}

fn rtt_ms(answers: &[Answer]) -> Vec<f64> {
    answers
        .iter()
        .map(|a| {
            if a.reply.is_ok() {
                ms(a.span.1 - a.span.0)
            } else {
                f64::INFINITY
            }
        })
        .collect()
}

/// A started daemon, its client connections, and the answers of the
/// warm-up pass over the pool.
struct Live {
    daemon: Daemon,
    conns: Vec<Conn>,
    warm: Vec<Answer>,
}

/// One serve-mix set-up: the goldens, daemon start, `clients`
/// connections and a warm-up pass over the whole pool, every request of
/// which must succeed.
fn serve_setup(bin: &Path, pool: &[Scenario], clients: usize) -> Result<(f64, Live), String> {
    let t = Instant::now();
    goldens::check()?;
    let daemon = Daemon::start(bin, CACHE_CAPACITY)?;
    let mut conns = (0..clients)
        .map(|_| Conn::connect(daemon.addr()))
        .collect::<Result<Vec<_>, _>>()?;
    let warm = serve::closed_loop(&mut conns, pool, deal(0..pool.len(), clients, "w"))?;
    let secs = secs(t);
    let warm: Vec<Answer> = warm.into_iter().flatten().collect();
    if let Some(bad) = warm.iter().find(|a| !a.reply.is_ok()) {
        return Err(format!(
            "warm-up request {} failed: {:?}",
            bad.id, bad.reply
        ));
    }
    Ok((
        secs,
        Live {
            daemon,
            conns,
            warm,
        },
    ))
}

/// The warm-up pass's makespans, in pool order, as one number.
fn warm_digest(warm: &[Answer]) -> u64 {
    let mut makespans: Vec<(usize, u64)> = warm
        .iter()
        .map(|a| (a.scenario, a.reply.u64_field("makespan").unwrap_or(0)))
        .collect();
    makespans.sort_unstable();
    fnv(makespans.into_iter().map(|(_, m)| m))
}

/// Share of `answers` whose scenario an earlier one in the list already
/// requested: the exact repeats the request stream produced.
fn repeat_share(answers: &[Answer], pool_len: usize) -> f64 {
    let mut seen = vec![false; pool_len];
    let repeats = answers
        .iter()
        .filter(|a| std::mem::replace(&mut seen[a.scenario], true))
        .count();
    repeats as f64 / answers.len().max(1) as f64
}

fn serve_run(args: &Args, bin: &Path, mut values: Values) -> Result<Run, String> {
    let pool = serve::pool(args.seed);
    let clients = host::nproc();
    let mut expected = Expected::new(&pool);
    let (first, live) = serve_setup(bin, &pool, clients)?;
    let Live {
        daemon,
        mut conns,
        warm,
    } = live;
    verify(&warm, &mut expected)?;
    let sim_makespan: u64 = warm
        .iter()
        .filter(|a| pool[a.scenario].is_base_locality())
        .map(|a| a.reply.u64_field("makespan").unwrap_or(0))
        .sum();
    let mut setups = vec![first];

    // Rounds of ROUND requests per connection. A traced run records
    // every round as spans — a `serve.round` root with one `serve.rtt`
    // child per request — taken from the same clock readings, so the
    // TCP rounds are the same work traced or not.
    let total = Duration::from_secs(args.seconds);
    let window = if args.trace { total / 2 } else { total };
    let mut stream = RequestStream::new(args.seed, pool.len());
    let mut tcp = args.trace.then(Tracer::new);
    let mut rounds = Vec::new();
    let mut answers = Vec::new();
    let before = conns[0].stats()?;
    let mut r = 0u64;
    measure(args, warm_digest(&warm), window, &mut setups, || {
        let requests = (0..clients)
            .map(|c| {
                (0..ROUND)
                    .map(|k| (stream.next_index(), format!("r{r}c{c}k{k}")))
                    .collect()
            })
            .collect();
        let t = Instant::now();
        let per_conn = serve::closed_loop(&mut conns, &pool, requests)?;
        let end = Instant::now();
        rounds.push(ms(end - t));
        if let Some(tr) = tcp.as_mut() {
            tr.set_unit(r);
            let root = tr.push("serve.round", (t, end), None, 0, format!("round {r}"));
            for (c, list) in per_conn.iter().enumerate() {
                for a in list {
                    tr.push("serve.rtt", a.span, Some(root), c as u64 + 1, a.id.clone());
                }
            }
        }
        answers.extend(per_conn.into_iter().flatten());
        r += 1;
        Ok(())
    })?;
    let after = conns[0].stats()?;
    let mut tally = Tally::default();
    for a in &answers {
        tally.record(a.reply.is_ok());
    }
    let lat = rtt_ms(&answers);
    let lat_p50 = median(&lat);
    let ops: Vec<(usize, f64)> = answers.iter().map(|a| a.scenario).zip(lat).collect();

    values.insert("setup_s", median(&setups));
    insert_timings(&mut values, &rounds, &ops, pool.len());
    values.insert("sim_makespan_cycles", sim_makespan as f64);
    values.insert("error_rate", tally.error_rate());
    let delta =
        |k: &str| -> u64 { after.u64_field(k).unwrap_or(0) - before.u64_field(k).unwrap_or(0) };
    insert_memo(
        &mut values,
        delta("hits"),
        delta("misses"),
        delta("evictions"),
    );
    values.insert("serve.shed", delta("shed") as f64);
    values.insert("serve.pool_scenarios", pool.len() as f64);
    values.insert("serve.repeat_share", repeat_share(&answers, pool.len()));
    values.insert(
        "peak_rss_mb",
        host::peak_rss_mb(daemon.pid()).ok_or("cannot read the daemon's peak RSS")?,
    );
    drop(conns);
    daemon.shutdown()?;
    verify(&answers, &mut expected)?;

    let mut tracers = Vec::new();
    if let Some(tcp) = tcp {
        tracers.push(("tcp client", tcp));
        let inproc = in_process_layers(&mut values, &answers, total / 2, &mut expected)?;
        let attributed = median(&inproc.attributed_ms_per_unit(&["workloads.build"]));
        values.insert("unattributed_ms", lat_p50 - attributed);
        let execute = values["serve.execute_ms_p50"];
        values.insert("serve.rtt_over_execute", lat_p50 / execute);
        tracers.push(("in-process execute_work", inproc));
    }
    Ok(Run {
        output: Output {
            correct: true,
            attempted: tally.attempted,
            failed: tally.failed,
            metrics: Vec::new(),
        },
        values,
        tracers,
    })
}

/// Replays the measured request lines in process, through the same
/// parse → execute path the daemon runs, against an identically bounded
/// cache warmed by the same pass. Even requests are traced: spans
/// `serve.parse` ([`Request::parse`]) and `serve.execute`
/// ([`execute_work`]), plus `workloads.build` — a separate
/// [`Workload::single`] of the request's application, contained in
/// `serve.execute` and therefore left out of the attributed sum. Odd
/// requests run parse and execute untimed by spans, so
/// `trace.overhead_ratio` compares the two.
fn in_process_layers(
    values: &mut Values,
    answers: &[Answer],
    budget: Duration,
    expected: &mut Expected,
) -> Result<Tracer, String> {
    let pool = expected.pool;
    let cache = Arc::new(ArtifactCache::bounded(CACHE_CAPACITY, EvictionPolicy::Lru));
    let parse = |line: &str| -> Result<Work, String> {
        match Request::parse(line) {
            Ok(Some(Request::Run(r))) => Ok(Work::Run(r)),
            other => Err(format!("request {line:?} parsed as {other:?}")),
        }
    };
    for (i, s) in pool.iter().enumerate() {
        execute_work(&parse(&s.line(&format!("w{i}")))?, None, &cache);
    }
    let mut tr = Tracer::new();
    let mut traced_ms = Vec::new();
    let mut untraced_ms = Vec::new();
    let t = Instant::now();
    for (i, a) in answers.iter().enumerate() {
        if i > 1 && t.elapsed() >= budget {
            break;
        }
        let s = &pool[a.scenario];
        let line = s.line(&a.id);
        let start = Instant::now();
        let response = if i % 2 == 0 {
            tr.set_unit(i as u64);
            let root = tr.enter("serve.request", a.id.clone());
            let work = tr.time("serve.parse", &a.id, || parse(&line))?;
            let response = tr.time("serve.execute", &a.id, || execute_work(&work, None, &cache));
            traced_ms.push(ms(start.elapsed()));
            let scale = lams_serve::scale_from_str(s.scale).ok_or("unknown scale")?;
            let app = suite::by_name(s.app, scale).ok_or("unknown app")?;
            let built = tr.time("workloads.build", &a.id, || Workload::single(app));
            tr.exit(root);
            built.map_err(|e| e.to_string())?;
            response
        } else {
            let response = execute_work(&parse(&line)?, None, &cache);
            untraced_ms.push(ms(start.elapsed()));
            response
        };
        let want = expected.makespan(a.scenario)?;
        let reply = Reply::parse(&response.to_string());
        if reply.u64_field("makespan") != Some(want) {
            return Err(format!(
                "in-process execute_work answered {reply:?} for {line}, expected makespan {want}"
            ));
        }
    }
    let per_request = |name: &str| median(&tr.self_ms_per_unit(name));
    values.insert("serve.parse_us", per_request("serve.parse") * 1e3);
    values.insert("serve.execute_ms_p50", per_request("serve.execute"));
    values.insert("workloads.build_ms", per_request("workloads.build"));
    values.insert(
        "trace.overhead_ratio",
        median(&traced_ms) / median(&untraced_ms),
    );
    // Simulator counters over the pool's scenarios, each once. Folded in
    // as RS runs so only the cache and core counters count: the LS/LSM
    // makespan sum is `sim_makespan_cycles`'s job.
    let mut unit = UnitResult::default();
    for r in expected.results.iter().flatten() {
        unit.add(lams_core::PolicyKind::Random, r);
    }
    insert_mpsoc(values, &unit);
    Ok(tr)
}
