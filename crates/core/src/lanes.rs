//! Schedule once, steer many: the sweep runner behind Figure 4, the
//! headline and the chip estimate.
//!
//! Steering only picks which identical module runs an op the scheduler
//! has already chosen to issue, so every steering configuration measured
//! on one program shares one timing pass (DESIGN.md §13). A sweep is a
//! list of [`Pass`]es, each a program variant with the lanes measured on
//! it; every (pass, workload) pair is one cell, fanned out with
//! `fua-exec`.

use fua_exec::{map_indexed_timed, ExecReport, Jobs};
use fua_isa::FuClass;
use fua_power::EnergyLedger;
use fua_sim::{Simulator, SteeringConfig};
use fua_steer::SteeringKind;
use fua_swap::CompilerSwapPass;
use fua_workloads::Workload;

use crate::{ExperimentConfig, SuiteProfile};

/// A program variant and the steering lanes measured on it.
pub(crate) struct Pass {
    /// Whether the cell first rewrites the program with the
    /// profile-guided compiler swap pass.
    pub compiler_swapped: bool,
    /// One configuration per lane, built once per sweep and cloned into
    /// every cell.
    pub lanes: Vec<SteeringConfig>,
}

/// Runs every workload under every pass, one timing pass per (pass,
/// workload) cell, and returns per pass and lane the energy ledger summed
/// over the workloads **in suite order**, so the result is identical for
/// any worker count.
///
/// # Panics
///
/// Panics if a workload faults.
pub(crate) fn run_passes(
    config: &ExperimentConfig,
    workloads: &[Workload],
    passes: &[Pass],
    jobs: Jobs,
) -> (Vec<Vec<EnergyLedger>>, ExecReport) {
    let cells: Vec<(usize, usize)> = (0..passes.len())
        .flat_map(|p| (0..workloads.len()).map(move |w| (p, w)))
        .collect();
    let (ledgers, report) = map_indexed_timed(jobs, &cells, |_, &(p, w)| {
        let pass = &passes[p];
        let workload = &workloads[w];
        let swapped;
        let program = if pass.compiler_swapped {
            swapped = CompilerSwapPass::with_limit(config.inst_limit)
                .run(&workload.program)
                .unwrap_or_else(|e| panic!("swap pass on {} faulted: {e}", workload.name))
                .program;
            &swapped
        } else {
            &workload.program
        };
        let mut sim = Simulator::with_lanes(config.machine.clone(), pass.lanes.clone());
        sim.run_program_lanes(program, config.inst_limit)
            .unwrap_or_else(|e| panic!("workload {} faulted: {e}", workload.name))
            .into_iter()
            .map(|result| result.ledger)
            .collect::<Vec<_>>()
    });
    let totals = passes
        .iter()
        .enumerate()
        .map(|(p, pass)| {
            let mut totals = vec![EnergyLedger::new(); pass.lanes.len()];
            for cell in &ledgers[p * workloads.len()..(p + 1) * workloads.len()] {
                for (total, ledger) in totals.iter_mut().zip(cell) {
                    total.merge(ledger);
                }
            }
            totals
        })
        .collect();
    (totals, report)
}

/// Builds a scheme from the suite's *measured* statistics, as the paper's
/// authors did from their profiling runs.
pub(crate) fn measured_scheme(
    config: &ExperimentConfig,
    profile: &SuiteProfile,
    kind: SteeringKind,
    hw_swap: bool,
) -> SteeringConfig {
    SteeringConfig::from_profiles_with_occupancy(
        kind,
        hw_swap,
        &profile.case_profile(FuClass::IntAlu),
        &profile.case_profile(FuClass::FpAlu),
        &profile.ialu_occupancy.distribution(),
        &profile.fpau_occupancy.distribution(),
        config.machine.modules(FuClass::IntAlu),
        config.machine.modules(FuClass::FpAlu),
    )
}

/// Percentage reduction of `class`'s switched bits against `baseline`
/// (0 when the baseline switched nothing).
pub(crate) fn reduction_pct(ledger: &EnergyLedger, baseline: &EnergyLedger, class: FuClass) -> f64 {
    let base_bits = baseline.switched_bits(class);
    if base_bits == 0 {
        0.0
    } else {
        100.0 * (1.0 - ledger.switched_bits(class) as f64 / base_bits as f64)
    }
}
