//! Integration: energy attribution must be an *exact partition* — the
//! per-site switched-bit sums must reproduce the final `EnergyLedger`
//! bit-for-bit for every steering scheme × swap variant, attaching the
//! sink must not perturb the simulation, the lanes' site tables must
//! equal the trace sink's partition, and the parallel path must be
//! byte-identical to the serial one.

use fua::attr::{
    attribute_lanes, attribute_suite, attribute_workload, AttributionDiff, AttributionSink,
    EnergyAttribution, Scheme,
};
use fua::exec::Jobs;
use fua::isa::FuClass;
use fua::power::EnergyLedger;
use fua::sim::{Simulator, SteeringConfig};
use fua::steer::SteeringKind;
use fua::workloads::Workload;

const LIMIT: u64 = 10_000;

fn workload(name: &str) -> Workload {
    fua::workloads::by_name(name, 1).expect("bundled workload")
}

/// One integer and one floating-point workload exercise all four FU
/// classes (the FP programs still run integer address arithmetic).
fn sample_pair() -> [Workload; 2] {
    [workload("compress"), workload("turb3d")]
}

#[test]
fn attribution_is_an_exact_partition_for_every_scheme_and_swap() {
    for kind in SteeringKind::FIGURE4 {
        for hw_swap in [false, true] {
            for w in sample_pair() {
                let mut sim = Simulator::with_sink(
                    fua::sim::MachineConfig::paper_default(),
                    SteeringConfig::paper_scheme(kind, hw_swap),
                    AttributionSink::new(),
                );
                let result = sim.run_program(&w.program, LIMIT).expect("runs");
                let sink = sim.into_sink();

                // The site map is a partition of the run: re-summing it
                // must reproduce the simulator's own ledger exactly.
                assert_eq!(
                    sink.ledger(),
                    result.ledger,
                    "{kind:?} hw_swap={hw_swap} {}: site sums vs ledger",
                    w.name
                );

                // Provenance must be well-formed: every site points at a
                // real static instruction inside a real basic block.
                let profile =
                    EnergyAttribution::build(w.name, &format!("{kind:?}"), &w.program, &sink);
                assert_eq!(profile.ledger(), result.ledger);
                for row in profile.rows() {
                    assert!(
                        (row.key.pc as usize) < w.program.len(),
                        "{kind:?} hw_swap={hw_swap} {}: pc{} out of program range",
                        w.name,
                        row.key.pc
                    );
                    assert!(
                        row.block.is_some(),
                        "{kind:?} hw_swap={hw_swap} {}: pc{} resolved to no basic block",
                        w.name,
                        row.key.pc
                    );
                    assert_ne!(row.opcode, "?");
                }

                // The per-pc, per-case and per-module views are each a
                // re-grouping of the same partition.
                let total: u64 = result.ledger.total_switched_bits();
                assert_eq!(profile.pc_bits().values().sum::<u64>(), total);
                let by_case: u64 = FuClass::ALL
                    .iter()
                    .map(|c| profile.case_bits(*c).iter().sum::<u64>())
                    .sum();
                assert_eq!(by_case, total);
                let by_module: u64 = FuClass::ALL
                    .iter()
                    .map(|c| profile.module_bits(*c).iter().sum::<u64>())
                    .sum();
                assert_eq!(by_module, total);
            }
        }
    }
}

/// Every configuration the attribution commands and Figure 4 steer:
/// the named schemes, then each Figure-4 policy without and with the
/// hardware swap.
fn every_configuration() -> Vec<(SteeringConfig, String)> {
    let named = Scheme::ALL
        .iter()
        .map(|s| (s.config(), s.label().to_string()));
    let figure4 = SteeringKind::FIGURE4.iter().flat_map(|&kind| {
        [false, true].map(|hw_swap| {
            (
                SteeringConfig::paper_scheme(kind, hw_swap),
                format!("{kind:?} hw_swap={hw_swap}"),
            )
        })
    });
    named.chain(figure4).collect()
}

#[test]
fn lane_site_tables_equal_the_trace_sink_partition() {
    // Every configuration steers one multi-lane pass per workload; each
    // lane must attribute exactly what a traced single run does.
    const LANE_LIMIT: u64 = 4_000;
    for w in fua::workloads::all(1) {
        let configs = every_configuration();
        let lanes = attribute_lanes(
            &w,
            configs.iter().map(|(c, label)| (c.clone(), label.as_str())),
            LANE_LIMIT,
        );
        assert_eq!(lanes.len(), configs.len(), "{}: one run per lane", w.name);
        for (lane, (config, label)) in lanes.iter().zip(configs) {
            let mut sim = Simulator::with_sink(
                fua::sim::MachineConfig::paper_default(),
                config,
                AttributionSink::new(),
            );
            let result = sim.run_program(&w.program, LANE_LIMIT).expect("runs");
            let traced = EnergyAttribution::build(w.name, &label, &w.program, sim.sink());
            // Same rows (pc, class, module, case, bits, ops), block
            // provenance and labels.
            assert_eq!(lane.attribution, traced, "{} {label}", w.name);
            assert_eq!(lane.result, result, "{} {label}: SimResult", w.name);
            assert!(lane.exact(), "{} {label}: lane not exact", w.name);
        }
    }
}

#[test]
fn profiled_run_is_cycle_identical_to_an_unprofiled_one() {
    for scheme in Scheme::ALL {
        for w in sample_pair() {
            let mut bare =
                Simulator::new(fua::sim::MachineConfig::paper_default(), scheme.config());
            let baseline = bare.run_program(&w.program, LIMIT).expect("runs");

            let run = attribute_workload(&w, scheme, LIMIT);
            assert_eq!(run.result.cycles, baseline.cycles, "{scheme:?} {}", w.name);
            assert_eq!(
                run.result.retired, baseline.retired,
                "{scheme:?} {}",
                w.name
            );
            assert_eq!(run.result.ledger, baseline.ledger, "{scheme:?} {}", w.name);
            assert!(run.exact(), "{scheme:?} {}: attribution not exact", w.name);
        }
    }
}

#[test]
fn parallel_attribution_is_byte_identical_to_serial() {
    let workloads = fua::workloads::all(1);
    for scheme in [Scheme::Naive, Scheme::Lut4] {
        let serial = attribute_suite(&workloads, scheme, LIMIT, Jobs::serial());
        let parallel = attribute_suite(&workloads, scheme, LIMIT, Jobs::new(4).expect("positive"));
        let render = |runs: &[fua::attr::AttributedRun]| {
            let mut flame = String::new();
            let mut json = String::new();
            for r in runs {
                flame.push_str(&r.attribution.collapsed_stacks());
                json.push_str(&r.attribution.to_json().pretty());
                json.push('\n');
            }
            (flame, json)
        };
        assert_eq!(
            render(&serial),
            render(&parallel),
            "{scheme:?}: jobs 4 vs 1"
        );
    }
}

#[test]
fn differential_attribution_of_identical_runs_is_zero() {
    for w in sample_pair() {
        let a = attribute_workload(&w, Scheme::Lut4, LIMIT);
        let b = attribute_workload(&w, Scheme::Lut4, LIMIT);
        let diff = AttributionDiff::between(&a.attribution, &b.attribution);
        assert!(diff.is_zero(), "{}: self-diff must be zero", w.name);
        assert_eq!(diff.total_delta(), 0);
        assert!(diff.movers.is_empty());
    }
}

#[test]
fn differential_attribution_reconciles_with_the_ledgers() {
    for w in sample_pair() {
        let a = attribute_workload(&w, Scheme::Naive, LIMIT);
        let b = attribute_workload(&w, Scheme::Lut4, LIMIT);
        let diff = AttributionDiff::between(&a.attribution, &b.attribution);

        let total = |l: &EnergyLedger| l.total_switched_bits();
        assert_eq!(diff.total_a, total(&a.result.ledger));
        assert_eq!(diff.total_b, total(&b.result.ledger));
        assert_eq!(
            diff.total_delta(),
            diff.total_b as i128 - diff.total_a as i128
        );

        // The movers decompose the total delta exactly.
        let mover_sum: i128 = diff.movers.iter().map(|m| m.delta).sum();
        assert_eq!(mover_sum, diff.total_delta(), "{}: movers", w.name);

        // And so do the per-class module/case splits.
        let class_sum: i128 = diff
            .classes
            .iter()
            .map(|c| c.module_delta.iter().sum::<i128>())
            .sum();
        assert_eq!(class_sum, diff.total_delta(), "{}: module split", w.name);
        let case_sum: i128 = diff
            .classes
            .iter()
            .map(|c| c.case_delta.iter().sum::<i128>())
            .sum();
        assert_eq!(case_sum, diff.total_delta(), "{}: case split", w.name);
    }
}

#[test]
fn flamegraph_weights_sum_to_the_ledger() {
    for w in sample_pair() {
        let run = attribute_workload(&w, Scheme::Lut4, LIMIT);
        let total: u64 = run.result.ledger.total_switched_bits();
        let mut sum = 0u64;
        for line in run.attribution.collapsed_stacks().lines() {
            let (frames, weight) = line.rsplit_once(' ').expect("collapsed-stack line");
            assert!(frames.starts_with(&format!("{};", w.name)));
            assert_eq!(frames.split(';').count(), 3, "workload;block;pc frames");
            sum += weight.parse::<u64>().expect("integer weight");
        }
        assert_eq!(sum, total, "{}: flame weights vs ledger", w.name);
    }
}
