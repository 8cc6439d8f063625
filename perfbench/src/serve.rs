//! The `serve-mix` workload's pieces: the seeded scenario pool and
//! request stream, the `lams_serve` daemon process, and closed-loop TCP
//! clients.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lams_core::{ArrivalConfig, ArtifactCache, Experiment, RunResult};
use lams_mpsoc::MachineConfig;
use lams_serve::protocol::bus_from_str;
use lams_serve::{policy_from_str, scale_from_str};
use lams_workloads::suite;

use crate::rng::SplitMix64;
use crate::stats::Reply;

const APPS: [&str; 6] = ["med-im04", "mxm", "radar", "shape", "track", "usonic"];
const POLICIES: [&str; 4] = ["rs", "rrs", "ls", "lsm"];
const SCALES: [&str; 2] = ["tiny", "small"];
const BUSES: [&str; 2] = ["fcfs:20", "windowed:20:256"];

/// Seed variants of base scenarios in a pool.
const SEED_VARIANTS: usize = 8;
/// `bus=` variants of Tiny base scenarios in a pool.
const BUS_VARIANTS: usize = 3;
/// `arrivals=` variants of Tiny base scenarios in a pool.
const ARRIVAL_VARIANTS: usize = 3;
/// Scenarios in a stream's hot set (requested again and again).
const HOT: usize = 8;

/// Entry bound of the daemon's LRU artifact cache: a pool fills about
/// 720 entries unbounded, so the mix both hits (about half its lookups)
/// and evicts.
pub const CACHE_CAPACITY: usize = 400;

/// One `run` request's scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scenario {
    /// Suite application.
    pub app: &'static str,
    /// `tiny` or `small`.
    pub scale: &'static str,
    /// `rs`, `rrs`, `ls` or `lsm`.
    pub policy: &'static str,
    /// `seed=` (RS seed), when given.
    pub seed: Option<u64>,
    /// `bus=` spec, when given.
    pub bus: Option<&'static str>,
    /// `arrivals=` spec, when given.
    pub arrivals: Option<String>,
}

impl Scenario {
    /// The request line (no terminator).
    pub fn line(&self, id: &str) -> String {
        let mut line = format!(
            "run id={id} app={} scale={} policy={}",
            self.app, self.scale, self.policy
        );
        if let Some(s) = self.seed {
            line += &format!(" seed={s}");
        }
        if let Some(b) = self.bus {
            line += &format!(" bus={b}");
        }
        if let Some(a) = &self.arrivals {
            line += &format!(" arrivals={a}");
        }
        line
    }

    /// A plain LS or LSM scenario: its makespan is part of
    /// `sim_makespan_cycles`.
    pub fn is_base_locality(&self) -> bool {
        matches!(self.policy, "ls" | "lsm")
            && self.seed.is_none()
            && self.bus.is_none()
            && self.arrivals.is_none()
    }

    /// The in-process [`Experiment`] result for this scenario — what
    /// the daemon must answer.
    ///
    /// # Errors
    ///
    /// Unknown names or an engine error.
    pub fn expected(&self, memo: &Arc<ArtifactCache>) -> Result<RunResult, String> {
        let scale = scale_from_str(self.scale).ok_or("unknown scale")?;
        let policy = policy_from_str(self.policy).ok_or("unknown policy")?;
        let app = suite::by_name(self.app, scale).ok_or("unknown app")?;
        let mut machine = MachineConfig::paper_default();
        if let Some(b) = self.bus {
            machine = machine.with_bus(bus_from_str(b).ok_or("bad bus")?);
        }
        let mut exp = Experiment::isolated(&app, machine).with_memo(Arc::clone(memo));
        if let Some(s) = self.seed {
            exp = exp.with_seed(s);
        }
        if let Some(a) = &self.arrivals {
            exp = exp.with_arrivals(ArrivalConfig::parse(a)?);
        }
        exp.run(policy).map_err(|e| e.to_string())
    }
}

/// The seeded scenario pool: every app × policy × {tiny, small}, plus
/// seeded variants that differ only in `seed=`, and a minority that
/// carry `bus=` or `arrivals=`.
pub fn pool(seed: u64) -> Vec<Scenario> {
    let mut rng = SplitMix64::new(seed ^ 0x5EED_0F5E_12E5);
    let mut pool = Vec::new();
    for app in APPS {
        for scale in SCALES {
            for policy in POLICIES {
                pool.push(Scenario {
                    app,
                    scale,
                    policy,
                    seed: None,
                    bus: None,
                    arrivals: None,
                });
            }
        }
    }
    let base = pool.len() as u64;
    let tiny = |rng: &mut SplitMix64| -> usize {
        // Base scenarios are laid out app-major, then scale, then policy.
        let app = rng.below(APPS.len() as u64) as usize;
        let policy = rng.below(POLICIES.len() as u64) as usize;
        app * SCALES.len() * POLICIES.len() + policy
    };
    let mut extra = Vec::new();
    for _ in 0..SEED_VARIANTS {
        let mut s = pool[rng.below(base) as usize].clone();
        s.seed = Some(1 + rng.below(1_000_000));
        extra.push(s);
    }
    for _ in 0..BUS_VARIANTS {
        let mut s = pool[tiny(&mut rng)].clone();
        s.bus = Some(BUSES[rng.below(BUSES.len() as u64) as usize]);
        extra.push(s);
    }
    for _ in 0..ARRIVAL_VARIANTS {
        let mut s = pool[tiny(&mut rng)].clone();
        s.arrivals = Some(format!("poisson:0.9:{}", rng.below(1000)));
        extra.push(s);
    }
    for s in extra {
        if !pool.contains(&s) {
            pool.push(s);
        }
    }
    pool
}

/// The seeded request stream over a pool: half the draws come from a
/// small hot set (exact repeats), half uniformly from the whole pool.
#[derive(Debug, Clone)]
pub struct RequestStream {
    rng: SplitMix64,
    hot: Vec<usize>,
    len: usize,
}

impl RequestStream {
    /// A stream over a pool of `len` scenarios.
    pub fn new(seed: u64, len: usize) -> Self {
        let mut rng = SplitMix64::new(seed ^ 0x0005_7EA4);
        let hot = (0..HOT).map(|_| rng.below(len as u64) as usize).collect();
        RequestStream { rng, hot, len }
    }

    /// The next scenario index.
    pub fn next_index(&mut self) -> usize {
        if self.rng.below(2) == 0 {
            self.hot[self.rng.below(HOT as u64) as usize]
        } else {
            self.rng.below(self.len as u64) as usize
        }
    }
}

fn repo_root() -> Result<&'static Path, String> {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .ok_or_else(|| "benchmark directory has no parent".to_string())
}

/// Builds `lams_serve` from the repository's own manifest (a no-op when
/// it is fresh) and returns the binary's path.
///
/// # Errors
///
/// The build failed.
pub fn build_daemon() -> Result<PathBuf, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let status = Command::new(cargo)
        .args(["build", "--release", "--quiet", "-p", "lams-serve"])
        .args(["--bin", "lams_serve", "--manifest-path"])
        .arg(repo_root()?.join("Cargo.toml"))
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building lams_serve failed: {status}"));
    }
    daemon_path()
}

/// Where [`build_daemon`] puts `lams_serve`.
///
/// # Errors
///
/// The working directory cannot be read.
pub fn daemon_path() -> Result<PathBuf, String> {
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => std::env::current_dir()
            .map_err(|e| e.to_string())?
            .join(dir),
        None => repo_root()?.join("target"),
    };
    Ok(target.join("release").join("lams_serve"))
}

/// A running `lams_serve --tcp` process; killed and reaped on drop if
/// it was not shut down.
#[derive(Debug)]
pub struct Daemon {
    child: Option<Child>,
    addr: SocketAddr,
}

impl Daemon {
    /// Starts the daemon with default workers and queue and an LRU
    /// cache of `capacity` entries, and waits for its listening line.
    ///
    /// # Errors
    ///
    /// Spawn failure or a malformed listening line.
    pub fn start(bin: &Path, capacity: usize) -> Result<Daemon, String> {
        let mut child = Command::new(bin)
            .args(["--tcp", "127.0.0.1:0", "--cache-policy", "lru"])
            .args(["--cache-capacity", &capacity.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().ok_or("daemon stdout not piped")?;
        // Owning the child before the first fallible read means every
        // early return below still kills and reaps it.
        let mut daemon = Daemon {
            child: Some(child),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| format!("daemon stdout: {e}"))?;
        daemon.addr = line
            .trim()
            .strip_prefix("listening addr=")
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("unexpected daemon greeting {line:?}"))?;
        Ok(daemon)
    }

    /// The daemon's address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The daemon's process id.
    pub fn pid(&self) -> Option<u32> {
        self.child.as_ref().map(Child::id)
    }

    /// Sends `shutdown` on a fresh connection (every client connection
    /// must already be closed) and waits up to ten seconds for the
    /// process to exit, killing it after that.
    ///
    /// # Errors
    ///
    /// The daemon did not exit cleanly.
    pub fn shutdown(mut self) -> Result<(), String> {
        let reply = Conn::connect(self.addr).and_then(|mut c| c.call("shutdown id=bye"));
        let mut child = self.child.take().ok_or("daemon already reaped")?;
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match child.try_wait() {
                Ok(Some(status)) if status.success() && reply.is_ok() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}: {reply:?}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("daemon did not exit after shutdown".to_string());
                }
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// One client connection: whole request lines out, reply lines in.
#[derive(Debug)]
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    /// Connects to `addr`.
    ///
    /// # Errors
    ///
    /// Socket errors.
    pub fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Sends one request line in a single write and reads its reply.
    ///
    /// # Errors
    ///
    /// Socket errors or a closed connection.
    pub fn call(&mut self, line: &str) -> Result<String, String> {
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        self.writer
            .write_all(&bytes)
            .map_err(|e| format!("send: {e}"))?;
        let mut reply = String::new();
        let n = self
            .reader
            .read_line(&mut reply)
            .map_err(|e| format!("receive: {e}"))?;
        if n == 0 {
            return Err("connection closed by daemon".to_string());
        }
        Ok(reply.trim_end().to_string())
    }

    /// The daemon's `stats` counters.
    ///
    /// # Errors
    ///
    /// Socket errors or an `err` reply.
    pub fn stats(&mut self) -> Result<Reply, String> {
        let reply = Reply::parse(&self.call("stats id=stats")?);
        if reply.is_ok() {
            Ok(reply)
        } else {
            Err(format!("stats failed: {reply:?}"))
        }
    }
}

/// One answered request.
#[derive(Debug, Clone)]
pub struct Answer {
    /// Index into the pool.
    pub scenario: usize,
    /// Request id sent.
    pub id: String,
    /// The classified reply.
    pub reply: Reply,
    /// When the request was written and when its reply was read.
    pub span: (Instant, Instant),
}

/// Sends each connection its requests `(pool index, id)` in order, each
/// only after the previous reply (a closed loop per connection), the
/// connections in parallel.
///
/// # Errors
///
/// Transport errors (an `err` reply is an answer, not an error).
pub fn closed_loop(
    conns: &mut [Conn],
    pool: &[Scenario],
    requests: Vec<Vec<(usize, String)>>,
) -> Result<Vec<Vec<Answer>>, String> {
    std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(requests)
            .map(|(conn, reqs)| {
                s.spawn(move || -> Result<Vec<Answer>, String> {
                    let mut out = Vec::with_capacity(reqs.len());
                    for (scenario, id) in reqs {
                        let line = pool[scenario].line(&id);
                        let start = Instant::now();
                        let reply = Reply::parse(&conn.call(&line)?);
                        out.push(Answer {
                            scenario,
                            id,
                            reply,
                            span: (start, Instant::now()),
                        });
                    }
                    Ok(out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "client thread panicked".to_string())?)
            .collect()
    })
}
