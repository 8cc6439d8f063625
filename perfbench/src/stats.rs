//! Percentiles, the tail rule and failure accounting.

/// Nearest-rank percentile of an ascending-sorted, non-empty slice.
/// `pct_milli` is the percentile in thousandths of a percent point
/// (`50_000` = p50, `99_900` = p99.9): the value at rank
/// `ceil(pct / 100 * n)`, clamped to `1..=n`.
pub fn nearest_rank(sorted: &[f64], pct_milli: u64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let n = sorted.len() as u64;
    let rank = (pct_milli * n).div_ceil(100_000).clamp(1, n);
    sorted[(rank - 1) as usize]
}

/// The highest percentile (in thousandths) that leaves at least ten
/// samples strictly beyond its nearest rank, among p99.9, p99, p98, …,
/// p50. `None` when even p50 leaves fewer than ten (`n < 20`).
pub fn tail_percentile_milli(n: usize) -> Option<u64> {
    let n = n as u64;
    std::iter::once(99_900)
        .chain((50..=99).rev().map(|p| p * 1000))
        .find(|&p| {
            let rank = (p * n).div_ceil(100_000).max(1);
            n >= rank + 10
        })
}

/// Median and tail of one timing, with its sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dist {
    /// Samples measured.
    pub n: usize,
    /// Nearest-rank median.
    pub p50: f64,
    /// Value at [`Dist::tail_pct`].
    pub tail: f64,
    /// The tail percentile: the highest with at least ten samples
    /// beyond it, or 100 (the maximum) when there are fewer than 20
    /// samples.
    pub tail_pct: f64,
}

impl Dist {
    /// Summarises `samples` (any order; non-finite values — failed
    /// operations — sort last, so they count against the tail).
    pub fn of(samples: &[f64]) -> Dist {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let (tail, tail_pct) = match tail_percentile_milli(sorted.len()) {
            Some(p) => (nearest_rank(&sorted, p), p as f64 / 1000.0),
            None => (*sorted.last().expect("non-empty sample"), 100.0),
        };
        Dist {
            n: sorted.len(),
            p50: nearest_rank(&sorted, 50_000),
            tail,
            tail_pct,
        }
    }
}

/// Each operation's best (lowest) time, or infinity if it failed in
/// any sample, so a failure always counts. `samples` pairs an operation
/// key below `keys` — a job's position in its unit, or a scenario's
/// index in the pool — with one measured time (infinite when it
/// failed); keys never sampled are left out. Contention on a shared
/// host only ever slows an operation, so its best time is the
/// reproducible one.
pub fn best_per_key(samples: impl IntoIterator<Item = (usize, f64)>, keys: usize) -> Vec<f64> {
    let mut best = vec![f64::NAN; keys];
    for (k, t) in samples {
        best[k] = match best[k] {
            // NaN marks "unsampled": `min` would keep it, so replace it.
            b if b.is_nan() => t,
            // A failure in any sample sticks.
            b if b.is_infinite() || t.is_infinite() => f64::INFINITY,
            b => b.min(t),
        };
    }
    best.into_iter().filter(|t| !t.is_nan()).collect()
}

/// Nearest-rank median of a non-empty sample.
pub fn median(samples: &[f64]) -> f64 {
    Dist::of(samples).p50
}

/// Attempted and failed operations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations the benchmark issued.
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
}

impl Tally {
    /// Records one operation's outcome.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// `failed / attempted`; 0 when nothing was attempted.
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// A `lams-serve` reply line, classified.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// `ok id=… key=value …`.
    Ok {
        /// Echoed request id.
        id: String,
        /// The remaining `key=value` fields, in order.
        fields: Vec<(String, String)>,
    },
    /// `err id=… code=…` (including `busy` shedding) or an unreadable
    /// line: the operation failed.
    Failed {
        /// Echoed request id, when the line carried one.
        id: Option<String>,
        /// The error code, or `unparseable`.
        code: String,
    },
}

impl Reply {
    /// Classifies one reply line (terminator stripped).
    pub fn parse(line: &str) -> Reply {
        let mut tokens = line.split_ascii_whitespace();
        let verb = tokens.next().unwrap_or("");
        let mut id = None;
        let mut fields = Vec::new();
        for token in tokens {
            let Some((k, v)) = token.split_once('=') else {
                continue;
            };
            if k == "id" && id.is_none() {
                id = Some(v.to_string());
            } else {
                fields.push((k.to_string(), v.to_string()));
            }
        }
        match (verb, id) {
            ("ok", Some(id)) => Reply::Ok { id, fields },
            ("err", id) => {
                let code = fields
                    .iter()
                    .find(|(k, _)| k == "code")
                    .map_or("unknown", |(_, v)| v.as_str())
                    .to_string();
                Reply::Failed { id, code }
            }
            (_, id) => Reply::Failed {
                id,
                code: "unparseable".to_string(),
            },
        }
    }

    /// Whether the operation succeeded.
    pub fn is_ok(&self) -> bool {
        matches!(self, Reply::Ok { .. })
    }

    /// Integer field `key` of an `ok` reply.
    pub fn u64_field(&self, key: &str) -> Option<u64> {
        match self {
            Reply::Ok { fields, .. } => fields
                .iter()
                .find(|(k, _)| k == key)
                .and_then(|(_, v)| v.parse().ok()),
            Reply::Failed { .. } => None,
        }
    }
}
