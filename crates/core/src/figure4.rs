//! Figure 4: energy reduction per steering scheme and swap variant.

use fua_exec::{ExecReport, Jobs};
use fua_isa::FuClass;
use fua_power::EnergyLedger;
use fua_sim::SteeringConfig;
use fua_stats::TextTable;
use fua_steer::SteeringKind;
use fua_workloads::{Workload, WorkloadArena};

use crate::lanes::{measured_scheme, reduction_pct, run_passes, Pass};
use crate::{profile_suite, ExperimentConfig, SuiteProfile, Unit};

/// The three stacked bars of each Figure-4 column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwapVariant {
    /// Base: steering only, no operand swapping anywhere.
    Base,
    /// Base + the hardware swap rule (cost-based swap for the Ham
    /// schemes).
    Hardware,
    /// Base + hardware + the profile-guided compiler swap pass.
    HardwareCompiler,
}

impl SwapVariant {
    /// All variants, in the paper's stacking order.
    pub const ALL: [SwapVariant; 3] = [
        SwapVariant::Base,
        SwapVariant::Hardware,
        SwapVariant::HardwareCompiler,
    ];
}

/// One Figure-4 column: a steering scheme with its swap variants, as
/// percentage energy reduction relative to Original/Base. The paper's
/// figure stacks three bars; `compiler_only_pct` adds the variant the
/// paper describes but does not plot ("'Base + Compiler Swapping' (not
/// shown) is nearly as effective as 'Base + Hardware + Compiler'").
#[derive(Debug, Clone, PartialEq)]
pub struct Figure4Row {
    /// The scheme label ("Full Ham", "4-bit LUT", ...).
    pub scheme: String,
    /// Reduction with no swapping (percent).
    pub base_pct: f64,
    /// Reduction with hardware swapping (percent).
    pub hardware_pct: f64,
    /// Reduction with hardware + compiler swapping (percent).
    pub hardware_compiler_pct: f64,
    /// Reduction with compiler swapping only (percent) — the paper's
    /// unplotted variant.
    pub compiler_only_pct: f64,
}

/// A regenerated Figure 4(a) or 4(b).
#[derive(Debug, Clone)]
pub struct Figure4 {
    /// Which unit the figure measures.
    pub unit: Unit,
    /// One row per scheme, in the paper's bar order.
    pub rows: Vec<Figure4Row>,
    /// Total baseline switched bits (denominator of every percentage).
    pub baseline_switched_bits: u64,
}

impl Figure4 {
    /// Renders the figure as a text table.
    pub fn render(&self) -> String {
        let mut t = TextTable::new([
            "scheme",
            "base %",
            "+hw swap %",
            "+hw+compiler %",
            "+compiler only %",
        ]);
        for r in &self.rows {
            t.push_row([
                r.scheme.clone(),
                format!("{:.1}", r.base_pct),
                format!("{:.1}", r.hardware_pct),
                format!("{:.1}", r.hardware_compiler_pct),
                format!("{:.1}", r.compiler_only_pct),
            ]);
        }
        format!(
            "Figure 4({}): {} energy reduction vs Original (baseline {} switched bits)\n{t}",
            match self.unit {
                Unit::Ialu => "a",
                Unit::Fpau => "b",
            },
            self.unit,
            self.baseline_switched_bits
        )
    }

    /// The row for a scheme, if present.
    pub fn row(&self, scheme: &str) -> Option<&Figure4Row> {
        self.rows.iter().find(|r| r.scheme == scheme)
    }
}

fn workloads_for(unit: Unit, arena: &WorkloadArena) -> &[Workload] {
    match unit {
        Unit::Ialu => arena.integer(),
        Unit::Fpau => arena.floating_point(),
    }
}

/// Regenerates Figure 4(a) (`Unit::Ialu`) or 4(b) (`Unit::Fpau`):
/// profiles the suite, builds every scheme from the *measured* statistics
/// (as the paper's authors did from their profiling runs), and measures
/// switched bits per scheme × swap variant.
pub fn figure4(unit: Unit, config: &ExperimentConfig) -> Figure4 {
    figure4_with_profile(unit, config, &profile_suite(config))
}

/// As [`figure4`], fanning the sweep's cells out across `jobs` workers.
pub fn figure4_jobs(unit: Unit, config: &ExperimentConfig, jobs: Jobs) -> Figure4 {
    let arena = WorkloadArena::build(config.scale);
    let (profile, _) = crate::profile_suite_jobs(config, &arena, jobs);
    figure4_with_profile_jobs(unit, config, &arena, &profile, jobs).0
}

/// As [`figure4`], reusing an already-measured [`SuiteProfile`] — the
/// profiling pass runs the whole suite, so callers producing both
/// figures (e.g. the `fua-report` bench ledger) should profile once and
/// share it.
pub fn figure4_with_profile(
    unit: Unit,
    config: &ExperimentConfig,
    profile: &SuiteProfile,
) -> Figure4 {
    let arena = WorkloadArena::build(config.scale);
    figure4_with_profile_jobs(unit, config, &arena, profile, Jobs::serial()).0
}

/// The parallel core of the figure. Each workload runs twice, once as
/// written and once compiler-swapped, and each run is one timing pass
/// that steers one lane per (scheme × hardware swap): 2 passes of 12
/// lanes instead of 24 separate simulations. The schemes' tables are
/// synthesised once per sweep. Per-lane ledgers are folded **in workload
/// order**, so the figure is identical to the serial one regardless of
/// worker count or scheduling.
///
/// # Panics
///
/// Panics if a workload faults or the arena's scale differs from the
/// configuration's.
pub fn figure4_with_profile_jobs(
    unit: Unit,
    config: &ExperimentConfig,
    arena: &WorkloadArena,
    profile: &SuiteProfile,
    jobs: Jobs,
) -> (Figure4, ExecReport) {
    assert_eq!(
        arena.scale(),
        config.scale,
        "arena scale must match the experiment configuration"
    );
    let class = unit.fu_class();

    // One lane per scheme with and without the hardware swap, built once
    // and run on the programs as written and compiler-swapped. Original
    // without the swap on the programs as written is the baseline (the
    // denominator).
    let specs: Vec<(SteeringKind, bool)> = SteeringKind::FIGURE4
        .iter()
        .flat_map(|&kind| [(kind, false), (kind, true)])
        .collect();
    let lanes: Vec<SteeringConfig> = specs
        .iter()
        .map(|&(kind, hw_swap)| measured_scheme(config, profile, kind, hw_swap))
        .collect();
    let passes = [false, true].map(|compiler_swapped| Pass {
        compiler_swapped,
        lanes: lanes.clone(),
    });
    let (ledgers, report) = run_passes(config, workloads_for(unit, arena), &passes, jobs);

    let ledger = |compiler_swapped: bool, kind: SteeringKind, hw_swap: bool| {
        let lane = specs.iter().position(|&s| s == (kind, hw_swap));
        &ledgers[compiler_swapped as usize][lane.expect("every scheme has a lane")]
    };
    let baseline = ledger(false, SteeringKind::Original, false);
    let pct = |l: &EnergyLedger| reduction_pct(l, baseline, class);
    let rows = SteeringKind::FIGURE4
        .iter()
        .map(|&kind| Figure4Row {
            scheme: kind.to_string(),
            base_pct: pct(ledger(false, kind, false)),
            hardware_pct: pct(ledger(false, kind, true)),
            hardware_compiler_pct: pct(ledger(true, kind, true)),
            compiler_only_pct: pct(ledger(true, kind, false)),
        })
        .collect();

    (
        Figure4 {
            unit,
            rows,
            baseline_switched_bits: baseline.switched_bits(class),
        },
        report,
    )
}

/// The paper's headline numbers: IALU/FPAU reduction with the
/// recommended 4-bit LUT + hardware swapping, and the IALU gain with
/// compiler swapping added (paper: ≈17%, ≈18%, ≈26%).
#[derive(Debug, Clone, Copy)]
pub struct Headline {
    /// IALU reduction, 4-bit LUT + hardware swap (percent).
    pub ialu_pct: f64,
    /// FPAU reduction, 4-bit LUT + hardware swap (percent).
    pub fpau_pct: f64,
    /// IALU reduction, 4-bit LUT + hardware + compiler swap (percent).
    pub ialu_compiler_pct: f64,
}

/// Computes the headline numbers (one shared profiling pass).
pub fn headline(config: &ExperimentConfig) -> Headline {
    headline_jobs(config, Jobs::serial())
}

/// As [`headline`], fanning the profiling pass and the sweep cells out
/// across `jobs` workers. Only the lanes the headline prints are run: the
/// Original baseline and the 4-bit LUT with hardware swapping on each
/// unit's programs as written, and the same LUT on the compiler-swapped
/// integer programs. The numbers are bit-identical to
/// [`headline_from`] over both full figures, for any worker count.
pub fn headline_jobs(config: &ExperimentConfig, jobs: Jobs) -> Headline {
    let arena = WorkloadArena::build(config.scale);
    let (profile, _) = crate::profile_suite_jobs(config, &arena, jobs);
    let baseline = measured_scheme(config, &profile, SteeringKind::Original, false);
    let lut4 = measured_scheme(config, &profile, SteeringKind::Lut { slots: 2 }, true);
    let plain = || Pass {
        compiler_swapped: false,
        lanes: vec![baseline.clone(), lut4.clone()],
    };
    let ialu_passes = [
        plain(),
        Pass {
            compiler_swapped: true,
            lanes: vec![lut4.clone()],
        },
    ];
    let (ialu, _) = run_passes(config, arena.integer(), &ialu_passes, jobs);
    let (fpau, _) = run_passes(config, arena.floating_point(), &[plain()], jobs);
    Headline {
        ialu_pct: reduction_pct(&ialu[0][1], &ialu[0][0], FuClass::IntAlu),
        fpau_pct: reduction_pct(&fpau[0][1], &fpau[0][0], FuClass::FpAlu),
        ialu_compiler_pct: reduction_pct(&ialu[1][0], &ialu[0][0], FuClass::IntAlu),
    }
}

/// Derives the headline numbers from already-computed figures (`a` must
/// be the IALU figure, `b` the FPAU one).
///
/// # Panics
///
/// Panics if either figure lacks the "4-bit LUT" scheme row.
pub fn headline_from(a: &Figure4, b: &Figure4) -> Headline {
    let lut_a = a.row("4-bit LUT").expect("scheme present");
    let lut_b = b.row("4-bit LUT").expect("scheme present");
    Headline {
        ialu_pct: lut_a.hardware_pct,
        fpau_pct: lut_b.hardware_pct,
        ialu_compiler_pct: lut_a.hardware_compiler_pct,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure4_shape_holds_at_small_scale() {
        let fig = figure4(Unit::Ialu, &ExperimentConfig::quick());
        assert_eq!(fig.rows.len(), 6);
        let get = |name: &str| fig.row(name).expect("row exists").hardware_pct;
        let full = get("Full Ham");
        let one_bit = get("1-bit Ham");
        let lut4 = get("4-bit LUT");
        let original = fig.row("Original").expect("row").base_pct;
        assert!(full > 0.0, "Full Ham must save energy, got {full:.1}%");
        assert!(
            full + 1e-9 >= one_bit,
            "Full Ham ({full:.1}%) should bound 1-bit Ham ({one_bit:.1}%)"
        );
        assert!(lut4 > 0.0, "4-bit LUT must save energy, got {lut4:.1}%");
        assert!(original.abs() < 1e-9, "Original/Base is the zero point");
        let render = fig.render();
        assert!(render.contains("Figure 4(a)"));
    }

    #[test]
    fn parallel_figure_is_bit_identical_to_serial() {
        let config = ExperimentConfig {
            inst_limit: 1_500,
            ..ExperimentConfig::quick()
        };
        let serial = figure4(Unit::Fpau, &config);
        let parallel = figure4_jobs(Unit::Fpau, &config, Jobs::new(3).unwrap());
        assert_eq!(
            serial.baseline_switched_bits,
            parallel.baseline_switched_bits
        );
        // Exact float equality on purpose: the parallel fold must follow
        // the serial merge order, so every percentage is bit-identical.
        assert_eq!(serial.rows, parallel.rows);
    }
}
