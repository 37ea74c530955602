//! The steady-state zero-allocation gate: once a warmup run has grown
//! every lazily-sized structure (the inflight arena pool, event-wheel
//! buckets, steering tables), the untraced hot loop must allocate
//! **zero** bytes per simulated cycle, for every workload under every
//! Figure-4 scheme, and for every workload's multi-lane run that steers
//! all of them at once, with and without per-lane site tables.
//!
//! Methodology: heap traffic of a run is `constant per-run setup +
//! per-cycle cost × cycles`. After warmup at the *longer* limit, a run
//! capped at `L` retired instructions and a run capped at `2L` must
//! therefore count **exactly equal** allocation events — any per-cycle
//! allocation shows up as a difference that scales with the cap, while
//! the constant setup (simulator construction, scheme tables, the
//! pooled arena lease) cancels.
//!
//! This file holds exactly one `#[test]` on purpose: the counting
//! allocator's counters are process-global, and a concurrently running
//! sibling test would bleed its allocations into the measurement
//! window.

use fua::sim::{MachineConfig, Simulator, SteeringConfig};
use fua::steer::SteeringKind;

#[global_allocator]
static COUNTING: fua::obs::CountingAlloc = fua::obs::CountingAlloc;

const LIMIT: u64 = 2_000;

/// One full run of `w` under `kind` on the untraced engine, as the
/// sweeps run it. Builds the scheme inside the measurement window so
/// the (constant) table construction cancels between the two runs.
fn run(w: &fua::workloads::Workload, kind: SteeringKind, limit: u64) -> u64 {
    let scheme = SteeringConfig::paper_scheme(kind, true);
    let mut sim = Simulator::new(MachineConfig::paper_default(), scheme);
    sim.run_program(&w.program, limit)
        .unwrap_or_else(|e| panic!("workload {} faulted under {kind:?}: {e}", w.name))
        .cycles
}

/// One timing pass of `w` steering every Figure-4 scheme, with and
/// without the hardware swap, as lanes — how the sweeps run it. The
/// lanes are built inside the measurement window, like [`run`]'s scheme.
/// With `site_tables`, every lane also counts its charges per static
/// site, as the attribution commands run it.
fn run_lanes(w: &fua::workloads::Workload, limit: u64, site_tables: bool) -> u64 {
    let lanes = SteeringKind::FIGURE4
        .iter()
        .flat_map(|&kind| [false, true].map(|hw| SteeringConfig::paper_scheme(kind, hw)))
        .collect();
    let mut sim = Simulator::with_lanes(MachineConfig::paper_default(), lanes);
    if site_tables {
        sim = sim.with_site_tables();
    }
    let results = sim
        .run_program_lanes(&w.program, limit)
        .unwrap_or_else(|e| panic!("workload {} faulted with lanes: {e}", w.name));
    if site_tables {
        assert!(
            sim.site_table(0)
                .is_some_and(|t| t.sites().next().is_some()),
            "workload {}: the site table counted nothing",
            w.name
        );
    }
    results[0].cycles
}

/// Allocation events performed by `run`.
fn allocs_of(w: &fua::workloads::Workload, run: impl FnOnce() -> u64) -> u64 {
    let before = fua::obs::alloc_snapshot();
    let cycles = run();
    let delta = fua::obs::alloc_snapshot().delta(&before);
    assert!(cycles > 0, "workload {} simulated no cycles", w.name);
    delta.allocs
}

/// Allocation events performed by one run.
fn measured_allocs(w: &fua::workloads::Workload, kind: SteeringKind, limit: u64) -> u64 {
    allocs_of(w, || run(w, kind, limit))
}

#[test]
fn the_steady_state_hot_loop_allocates_nothing_per_cycle() {
    assert!(
        !fua::obs::counting_allocator_active() || fua::obs::alloc_snapshot().allocs > 0,
        "sanity: the counting allocator reports consistently"
    );
    // The harness itself proves the wrapper is installed: loading the
    // workloads below allocates, flipping the active flag.
    let workloads = fua::workloads::all(1);
    assert!(
        fua::obs::counting_allocator_active(),
        "the counting allocator must be installed in this test binary"
    );

    let mut checked = 0u32;
    for w in &workloads {
        for kind in SteeringKind::FIGURE4 {
            // Warmup at the longer limit amortises every structure that
            // grows with run length, so neither measured run resizes.
            run(w, kind, 2 * LIMIT);
            let short = measured_allocs(w, kind, LIMIT);
            let long = measured_allocs(w, kind, 2 * LIMIT);
            assert_eq!(
                short,
                long,
                "workload {} under {kind:?}: a {}-instruction run allocated {} event(s), \
                 a {}-instruction run {} — the difference is per-cycle allocation \
                 in the steady-state hot loop",
                w.name,
                LIMIT,
                short,
                2 * LIMIT,
                long
            );
            checked += 1;
        }
        // The same for a multi-lane run: steering every issue group in
        // the extra lanes, and counting every charge in the lanes' site
        // tables, must allocate nothing per cycle either.
        for site_tables in [false, true] {
            run_lanes(w, 2 * LIMIT, site_tables);
            let short = allocs_of(w, || run_lanes(w, LIMIT, site_tables));
            let long = allocs_of(w, || run_lanes(w, 2 * LIMIT, site_tables));
            assert_eq!(
                short,
                long,
                "workload {} with 12 steering lanes (site tables: {site_tables}): a \
                 {}-instruction run allocated {} event(s), a {}-instruction run {} — the \
                 difference is per-cycle allocation in the extra steering lanes",
                w.name,
                LIMIT,
                short,
                2 * LIMIT,
                long
            );
            checked += 1;
        }
    }
    assert_eq!(
        checked,
        workloads.len() as u32 * (SteeringKind::FIGURE4.len() as u32 + 2),
        "every workload x scheme cell, and every workload's multi-lane runs with and \
         without site tables, must be gated"
    );
}
