//! The three pinned goldens, recomputed through public entry points.

use lams_core::{
    ArrivalConfig, ArrivalPlan, ArtifactCache, Experiment, PolicyKind, ScenarioMatrix, SweepRunner,
};
use lams_mpsoc::{BusConfig, MachineConfig};
use lams_workloads::{suite, Scale, Workload};

/// fig6 Tiny makespan checksum (RS/RRS/LS, RS seed 12345).
pub const FIG6_TINY: u64 = 0xd7f2_a86d_a3cb_3e3d;
/// The same grid with a `windowed:20:256` bus.
pub const BUS_TINY: u64 = 0xe822_b756_b2a7_a793;
/// `poisson:0.8:42` arrival plan over Shape Tiny on 8 cores.
pub const ARRIVAL_PLAN: u64 = 0xb7e9_f9d6_092b_7ee7;

/// FNV-1a over a stream of `u64`s (little-endian bytes).
pub fn fnv(values: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for v in values {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

fn tiny_grid_checksum(machine: MachineConfig) -> Result<u64, String> {
    let kinds = [
        PolicyKind::Random,
        PolicyKind::RoundRobin,
        PolicyKind::Locality,
    ];
    let mut matrix = ScenarioMatrix::new();
    for app in suite::all(Scale::Tiny) {
        let exp = Experiment::isolated(&app, machine).with_seed(12345);
        matrix.push_all(&app.name, &exp, &kinds);
    }
    let reports = matrix
        .run_with_memo(&SweepRunner::sequential(), &ArtifactCache::shared())
        .map_err(|e| format!("golden grid failed: {e}"))?;
    Ok(fnv(reports.iter().flat_map(|r| {
        r.outcomes().iter().map(|o| o.result.makespan_cycles)
    })))
}

fn expect(what: &str, got: u64, want: u64) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "{what} golden drifted: got 0x{got:016x}, pinned 0x{want:016x}"
        ))
    }
}

/// Recomputes all three goldens; the first mismatch is an error.
pub fn check() -> Result<(), String> {
    let machine = MachineConfig::paper_default();
    expect("fig6 Tiny", tiny_grid_checksum(machine)?, FIG6_TINY)?;
    let bus = machine.with_bus(BusConfig::windowed(20, 256));
    expect("bus-mode", tiny_grid_checksum(bus)?, BUS_TINY)?;
    let w = Workload::single(suite::shape(Scale::Tiny)).map_err(|e| e.to_string())?;
    let service: Vec<u64> = w.process_ids().map(|p| w.trace_len(p)).collect();
    let plan = ArrivalPlan::generate(ArrivalConfig::poisson(800, 42), &service, 8);
    expect("arrival-plan", plan.checksum(), ARRIVAL_PLAN)
}
