//! Integration: the data-layout-rewritten hot loop must be observably
//! indistinguishable from the original pointer-chasing engine.
//!
//! [`ReferenceSimulator`] is a frozen copy of the pre-rewrite pipeline
//! (per-instruction `Entry` structs in a `VecDeque`, linear window scans,
//! dependency checks that chase producer entries). [`Simulator`] is the
//! struct-of-arrays rewrite (ring-buffer slots, age-indexed ready
//! bitmasks, a completion wheel, consumer wakeup lists). This test pins
//! the rewrite to the reference engine at full trace granularity: for
//! every bundled workload, across every paper steering scheme with and
//! without the hardware/multiplier swap rules, both engines must emit the
//! *identical* event stream — same cycles, same issue order, same steer
//! decisions, same swap events, same per-slot stall attribution — and
//! agree on every architectural counter.
//!
//! Comparing the full [`VecSink`] streams subsumes weaker checks
//! (retirement stream, ledger, stall digest) because every one of those
//! is derived from the events; the [`StallSink`] digest is compared too
//! so a failure prints a readable per-site diff instead of a giant
//! event-vector dump.
//!
//! The lane tests pin the other half of the engine: one timing pass that
//! steers many configurations ([`Simulator::with_lanes`]) must give every
//! lane exactly the result of its own single-lane run.

use fua::isa::Program;
use fua::sim::{MachineConfig, ReferenceSimulator, SimResult, Simulator, SteeringConfig};
use fua::steer::SteeringKind;
use fua::swap::{CompilerSwapPass, MultiplierSwapRule};
use fua::trace::{StallSink, TraceEvent, VecSink};
use fua::workloads::all;

// Coverage here comes from the scheme × workload sweep, not trace
// length; 15k instructions wraps the ROB ring and the completion wheel
// hundreds of times while keeping the full sweep affordable in debug
// builds.
const LIMIT: u64 = 15_000;

/// Every steering configuration exercised by the equivalence sweep:
/// the unmodified baseline, plus each Figure-4 scheme with the hardware
/// swap both off and on, plus one multiplier-swap variant (value-based
/// swapping takes a different code path from the case-based rules).
fn schemes() -> Vec<(String, SteeringConfig)> {
    let mut out = vec![("original".to_string(), SteeringConfig::original())];
    for kind in SteeringKind::FIGURE4 {
        for hw_swap in [false, true] {
            out.push((
                format!("{kind:?}/hw_swap={hw_swap}"),
                SteeringConfig::paper_scheme(kind, hw_swap),
            ));
        }
    }
    out.push((
        "Lut{2}/hw_swap+mul_swap".to_string(),
        SteeringConfig::paper_scheme(SteeringKind::Lut { slots: 2 }, true)
            .with_multiplier_swap(MultiplierSwapRule::new()),
    ));
    out
}

/// Runs one engine over one workload, returning the full event stream,
/// the stall digest and the scalar outcome.
type Outcome = (Vec<TraceEvent>, StallSink, fua::sim::SimResult);

fn run_new(
    config: &MachineConfig,
    steering: SteeringConfig,
    w: &fua::workloads::Workload,
) -> Outcome {
    let sink = (VecSink::new(), StallSink::new());
    let mut sim = Simulator::with_sink(config.clone(), steering, sink);
    let result = sim
        .run_program(&w.program, LIMIT)
        .unwrap_or_else(|e| panic!("{}: rewrite faulted: {e}", w.name));
    let (events, stalls) = sim.into_sink();
    (events.events, stalls, result)
}

fn run_reference(
    config: &MachineConfig,
    steering: SteeringConfig,
    w: &fua::workloads::Workload,
) -> Outcome {
    let sink = (VecSink::new(), StallSink::new());
    let mut sim = ReferenceSimulator::with_sink(config.clone(), steering, sink);
    let result = sim
        .run_program(&w.program, LIMIT)
        .unwrap_or_else(|e| panic!("{}: reference faulted: {e}", w.name));
    let (events, stalls) = sim.into_sink();
    (events.events, stalls, result)
}

fn assert_equivalent(tag: &str, new: &Outcome, reference: &Outcome) {
    let (new_events, new_stalls, new_result) = new;
    let (ref_events, ref_stalls, ref_result) = reference;

    // Scalar outcomes first: cheapest to read when something diverges.
    assert_eq!(new_result.cycles, ref_result.cycles, "{tag}: cycles");
    assert_eq!(new_result.retired, ref_result.retired, "{tag}: retired");
    assert_eq!(new_result.halted, ref_result.halted, "{tag}: halted");
    assert_eq!(new_result.ledger, ref_result.ledger, "{tag}: energy ledger");
    assert_eq!(
        new_result.bit_patterns, ref_result.bit_patterns,
        "{tag}: issued bit patterns"
    );
    assert_eq!(
        new_result.booth_energy.map(f64::to_bits),
        ref_result.booth_energy.map(f64::to_bits),
        "{tag}: Booth energy"
    );
    assert_eq!(new_result.swaps, ref_result.swaps, "{tag}: swap counters");
    assert_eq!(
        new_result.branches, ref_result.branches,
        "{tag}: branch stats"
    );
    assert_eq!(new_result.cache, ref_result.cache, "{tag}: cache stats");

    // Stall digest: exact per-(reason, case, class) slot counts.
    assert_eq!(
        new_stalls.sites(),
        ref_stalls.sites(),
        "{tag}: stall digest sites"
    );
    assert_eq!(
        new_stalls.total_slots(),
        ref_stalls.total_slots(),
        "{tag}: stall slot total"
    );

    // The full event stream, element by element so a divergence reports
    // its position and both variants rather than dumping two vectors.
    assert_eq!(
        new_events.len(),
        ref_events.len(),
        "{tag}: event stream length"
    );
    for (i, (a, b)) in new_events.iter().zip(ref_events.iter()).enumerate() {
        assert_eq!(a, b, "{tag}: event streams diverge at index {i}");
    }
}

#[test]
fn rewrite_matches_reference_for_every_workload_and_scheme() {
    let config = MachineConfig::paper_default();
    for w in all(1) {
        for (name, _) in schemes() {
            // `SteeringConfig` is not `Clone` (it boxes policies), so
            // rebuild the scheme fresh for each engine.
            let find = |schemes: Vec<(String, SteeringConfig)>| {
                schemes
                    .into_iter()
                    .find(|(n, _)| *n == name)
                    .expect("scheme list is stable")
                    .1
            };
            let new = run_new(&config, find(schemes()), &w);
            let reference = run_reference(&config, find(schemes()), &w);
            assert_equivalent(&format!("{}/{name}", w.name), &new, &reference);
        }
    }
}

#[test]
fn rewrite_matches_reference_on_a_narrow_machine() {
    // A 2-wide machine with a tiny window forces every structural stall
    // (RobFull, RsFull, skid-buffer pressure) that the paper machine's
    // generous window rarely exhibits.
    let mut config = MachineConfig::paper_default();
    config.fetch_width = 2;
    config.commit_width = 2;
    config.rob_size = 8;
    config.rs_entries = 2;
    config.mem_ports = 1;
    for w in all(1) {
        let new = run_new(
            &config,
            SteeringConfig::paper_scheme(SteeringKind::Lut { slots: 2 }, true),
            &w,
        );
        let reference = run_reference(
            &config,
            SteeringConfig::paper_scheme(SteeringKind::Lut { slots: 2 }, true),
            &w,
        );
        assert_equivalent(&format!("{}/narrow", w.name), &new, &reference);
    }
}

#[test]
fn rewrite_matches_reference_in_order() {
    // In-order issue takes the other select_ready branch (the bitmask
    // scan must stop at the first non-ready head, not skip past it).
    let mut config = MachineConfig::paper_default();
    config.in_order_issue = true;
    for w in all(1) {
        let new = run_new(&config, SteeringConfig::original(), &w);
        let reference = run_reference(&config, SteeringConfig::original(), &w);
        assert_equivalent(&format!("{}/in_order", w.name), &new, &reference);
    }
}

/// The lanes of the Figure-4 sweep (every scheme with and without the
/// hardware swap), plus a multiplier-swap lane.
fn lane_schemes() -> Vec<SteeringConfig> {
    let mut out: Vec<SteeringConfig> = SteeringKind::FIGURE4
        .iter()
        .flat_map(|&kind| [false, true].map(|hw| SteeringConfig::paper_scheme(kind, hw)))
        .collect();
    out.push(
        SteeringConfig::paper_scheme(SteeringKind::Lut { slots: 2 }, true)
            .with_multiplier_swap(MultiplierSwapRule::new()),
    );
    out
}

fn assert_same_result(tag: &str, lane: &SimResult, single: &SimResult) {
    assert_eq!(lane.cycles, single.cycles, "{tag}: cycles");
    assert_eq!(lane.retired, single.retired, "{tag}: retired");
    assert_eq!(lane.halted, single.halted, "{tag}: halted");
    assert_eq!(lane.ledger, single.ledger, "{tag}: energy ledger");
    assert_eq!(
        lane.bit_patterns, single.bit_patterns,
        "{tag}: bit patterns"
    );
    assert_eq!(lane.swaps, single.swaps, "{tag}: swap counters");
    assert_eq!(
        lane.booth_energy.map(f64::to_bits),
        single.booth_energy.map(f64::to_bits),
        "{tag}: Booth energy"
    );
    assert_eq!(lane.occupancy, single.occupancy, "{tag}: occupancy");
    assert_eq!(lane.branches, single.branches, "{tag}: branch stats");
    assert_eq!(lane.cache, single.cache, "{tag}: cache stats");
}

/// Runs `program` once with every lane of [`lane_schemes`] and checks
/// each lane against a separate single-lane run of its configuration.
fn assert_lanes_match(tag: &str, config: &MachineConfig, program: &Program) {
    let lanes = Simulator::with_lanes(config.clone(), lane_schemes())
        .run_program_lanes(program, LIMIT)
        .unwrap_or_else(|e| panic!("{tag}: multi-lane run faulted: {e}"));
    assert_eq!(
        lanes.len(),
        lane_schemes().len(),
        "{tag}: one result per lane"
    );
    for (i, (lane, scheme)) in lanes.iter().zip(lane_schemes()).enumerate() {
        let single = Simulator::new(config.clone(), scheme)
            .run_program(program, LIMIT)
            .unwrap_or_else(|e| panic!("{tag}: single run faulted: {e}"));
        assert_same_result(&format!("{tag}/lane {i}"), lane, &single);
    }
}

#[test]
fn every_lane_matches_its_own_run_for_every_workload_and_program_variant() {
    let config = MachineConfig::paper_default();
    for w in all(1) {
        let swapped = CompilerSwapPass::with_limit(LIMIT)
            .run(&w.program)
            .unwrap_or_else(|e| panic!("{}: swap pass faulted: {e}", w.name))
            .program;
        assert_lanes_match(&format!("{}/original", w.name), &config, &w.program);
        assert_lanes_match(&format!("{}/compiler-swapped", w.name), &config, &swapped);
    }
}

#[test]
fn every_lane_matches_its_own_run_on_narrow_and_in_order_machines() {
    let mut narrow = MachineConfig::paper_default();
    narrow.fetch_width = 2;
    narrow.commit_width = 2;
    narrow.rob_size = 8;
    narrow.rs_entries = 2;
    narrow.mem_ports = 1;
    let mut in_order = MachineConfig::paper_default();
    in_order.in_order_issue = true;
    for w in all(1) {
        assert_lanes_match(&format!("{}/narrow", w.name), &narrow, &w.program);
        assert_lanes_match(&format!("{}/in_order", w.name), &in_order, &w.program);
    }
}
