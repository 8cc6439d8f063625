//! The LAMS benchmark: four workloads driven through LAMS's public entry
//! points — Figure 6 sweeps, an open-system run and `lams_serve`
//! requests over TCP — with end-to-end metrics, output checks and a
//! traced run that splits each end-to-end number into per-layer parts.
//! `BENCHMARK.json` at the repository root records why each workload
//! exists and which end-to-end metric each layer metric should move.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod cli;
pub mod goldens;
pub mod host;
pub mod report;
pub mod rng;
pub mod run;
pub mod serve;
pub mod spans;
pub mod stats;
