//! The ablation probe: re-runs the timing model over traces the VM has
//! already produced, adding one piece at a time — Original steering,
//! then each steering policy, then each trace sink — so each layer's
//! cost reads as a difference between two otherwise identical runs.
//!
//! Every variant of a kernel must retire the same count, and every
//! scheme must produce the same energy ledger as an untraced
//! `run_program` of the same program: a row never times a different
//! program.

use std::hint::black_box;
use std::time::Instant;

use fua::analysis::{estimate_transitions, SwapModel};
use fua::attr::{AttributionSink, CriticalPath};
use fua::isa::{FuClass, Word};
use fua::power::{steering_cost, EnergyLedger};
use fua::sim::{MachineConfig, SimResult, Simulator, SteeringConfig};
use fua::steer::SteeringKind;
use fua::swap::CompilerSwapPass;
use fua::trace::{DepSink, NullSink, StallSink, TraceSink, WindowedSink};
use fua::vm::{DynOp, FuOp, Vm};
use fua::workloads::Workload;

/// A steering variant of the probe: metric name and scheme.
struct Variant {
    metric: &'static str,
    kind: SteeringKind,
    hw_swap: bool,
}

/// The steering variants, each timed against Original.
const STEERING: [Variant; 5] = [
    Variant {
        metric: "steer.fullham.ns_per_cycle",
        kind: SteeringKind::FullHam,
        hw_swap: true,
    },
    Variant {
        metric: "steer.onebitham.ns_per_cycle",
        kind: SteeringKind::OneBitHam,
        hw_swap: true,
    },
    Variant {
        metric: "steer.lut8.ns_per_cycle",
        kind: SteeringKind::Lut { slots: 4 },
        hw_swap: true,
    },
    Variant {
        metric: "steer.lut4.ns_per_cycle",
        kind: SteeringKind::Lut { slots: 2 },
        hw_swap: true,
    },
    Variant {
        metric: "steer.lut2.ns_per_cycle",
        kind: SteeringKind::Lut { slots: 1 },
        hw_swap: true,
    },
];

const LUT4: SteeringKind = SteeringKind::Lut { slots: 2 };
/// Index of the 4-bit LUT + hardware swap variant in [`STEERING`].
const LUT4_HW: usize = 3;

/// One kernel, prepared once: its program and the VM's trace of it.
pub struct Kernel<'w> {
    workload: &'w Workload,
    ops: Vec<DynOp>,
    /// The IALU/FPAU operand stream, in retirement order.
    alu_ops: Vec<FuOp>,
}

/// Interprets every kernel once to the limit and keeps its trace.
pub fn prepare(workloads: &[Workload], limit: u64) -> Result<Vec<Kernel<'_>>, String> {
    workloads
        .iter()
        .map(|w| {
            let trace = Vm::new(&w.program)
                .run(limit)
                .map_err(|e| format!("{} faulted in the VM: {e}", w.name))?;
            let alu_ops = trace
                .ops
                .iter()
                .filter_map(|op| op.fu)
                .filter(|fu| matches!(fu.class, FuClass::IntAlu | FuClass::FpAlu))
                .collect();
            Ok(Kernel {
                workload: w,
                ops: trace.ops,
                alu_ops,
            })
        })
        .collect()
}

/// Times `run_trace` alone (construction excluded) and returns the
/// result and the sink.
fn timed_run<S: TraceSink>(
    machine: &MachineConfig,
    steering: SteeringConfig,
    sink: S,
    ops: &[DynOp],
) -> (u64, SimResult, S) {
    let mut sim = Simulator::with_sink(machine.clone(), steering, sink);
    let start = Instant::now();
    let result = sim.run_trace(black_box(ops));
    let nanos = start.elapsed().as_nanos() as u64;
    (nanos, result, sim.into_sink())
}

/// Summed nanoseconds and counts of one probe round.
#[derive(Debug, Default, Clone)]
pub struct Round {
    vm_ns: u64,
    original_ns: u64,
    steering_ns: [u64; STEERING.len()],
    lut4_no_swap_ns: u64,
    null_sink_ns: u64,
    windowed_ns: u64,
    stall_ns: u64,
    dep_ns: u64,
    attr_ns: u64,
    critical_path_ns: u64,
    swap_pass_ns: u64,
    estimate_ns: u64,
    power_ns: u64,
    power_ops: u64,
    cycles: u64,
    retired: u64,
}

/// The untraced reference: each scheme's ledger and retired count from
/// a plain `run_program`, computed once per kernel.
pub struct Reference {
    per_kernel: Vec<Vec<(u64, EnergyLedger)>>,
}

/// Every scheme the probe runs, in the order [`Reference`] stores them.
fn schemes() -> Vec<SteeringConfig> {
    let mut v = vec![SteeringConfig::original()];
    v.extend(
        STEERING
            .iter()
            .map(|s| SteeringConfig::paper_scheme(s.kind, s.hw_swap)),
    );
    v.push(SteeringConfig::paper_scheme(LUT4, false));
    v
}

/// Runs every scheme of the probe through `run_program` (VM and timing
/// model together, no sink) for the equality checks.
pub fn reference(
    kernels: &[Kernel],
    machine: &MachineConfig,
    limit: u64,
) -> Result<Reference, String> {
    let per_kernel = kernels
        .iter()
        .map(|k| {
            schemes()
                .into_iter()
                .map(|steering| {
                    let r = Simulator::new(machine.clone(), steering)
                        .run_program(&k.workload.program, limit)
                        .map_err(|e| format!("{} faulted: {e}", k.workload.name))?;
                    Ok((r.retired, r.ledger))
                })
                .collect::<Result<Vec<_>, String>>()
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Reference { per_kernel })
}

/// One probe round over every kernel. Returns the round's sums, or the
/// first kernel whose variants disagree.
pub fn round(
    kernels: &[Kernel],
    reference: &Reference,
    machine: &MachineConfig,
    limit: u64,
    window_cycles: u64,
) -> Result<Round, String> {
    let mut r = Round::default();
    for (k, want) in kernels.iter().zip(&reference.per_kernel) {
        let name = k.workload.name;
        let mismatch = |what: &str| format!("{name}: {what} differs from the untraced run");
        let check = |what: &str, res: &SimResult, scheme: usize| {
            if (res.retired, res.ledger) != want[scheme] || res.retired != k.ops.len() as u64 {
                return Err(mismatch(what));
            }
            Ok(())
        };

        // VM alone, to the limit, into a no-op sink.
        let mut vm = Vm::new(&k.workload.program);
        let start = Instant::now();
        vm.run_with(limit, |op| {
            black_box(op);
        })
        .map_err(|e| format!("{name} faulted in the VM: {e}"))?;
        r.vm_ns += start.elapsed().as_nanos() as u64;
        if vm.retired() != k.ops.len() as u64 {
            return Err(mismatch("VM retirement"));
        }

        // Timing model under Original steering, then each policy.
        let (ns, base, _) = timed_run(machine, SteeringConfig::original(), NullSink, &k.ops);
        check("Original", &base, 0)?;
        r.original_ns += ns;
        r.cycles += base.cycles;
        r.retired += base.retired;
        for (i, v) in STEERING.iter().enumerate() {
            let (ns, res, _) = timed_run(
                machine,
                SteeringConfig::paper_scheme(v.kind, v.hw_swap),
                NullSink,
                &k.ops,
            );
            check(v.metric, &res, i + 1)?;
            r.steering_ns[i] += ns;
        }
        let lut4_index = STEERING.len() + 1;
        let (ns, res, _) = timed_run(
            machine,
            SteeringConfig::paper_scheme(LUT4, false),
            NullSink,
            &k.ops,
        );
        check("4-bit LUT without hardware swap", &res, lut4_index)?;
        r.lut4_no_swap_ns += ns;

        // Each sink under the 4-bit LUT + hardware swap, against a
        // NullSink run of the same scheme.
        let lut4 = || SteeringConfig::paper_scheme(LUT4, true);
        let (ns, res, _) = timed_run(machine, lut4(), NullSink, &k.ops);
        check("NullSink run", &res, LUT4_HW + 1)?;
        r.null_sink_ns += ns;
        let (ns, res, _) = timed_run(machine, lut4(), WindowedSink::new(window_cycles), &k.ops);
        check("WindowedSink run", &res, LUT4_HW + 1)?;
        r.windowed_ns += ns;
        let (ns, res, _) = timed_run(machine, lut4(), StallSink::new(), &k.ops);
        check("StallSink run", &res, LUT4_HW + 1)?;
        r.stall_ns += ns;
        let (ns, res, deps) = timed_run(machine, lut4(), DepSink::new(), &k.ops);
        check("DepSink run", &res, LUT4_HW + 1)?;
        r.dep_ns += ns;
        let (ns, res, attr) = timed_run(machine, lut4(), AttributionSink::new(), &k.ops);
        check("AttributionSink run", &res, LUT4_HW + 1)?;
        if attr.ledger() != res.ledger {
            return Err(mismatch("the attribution sink's ledger"));
        }
        r.attr_ns += ns;

        let start = Instant::now();
        black_box(CriticalPath::extract(&k.workload.program, &deps));
        r.critical_path_ns += start.elapsed().as_nanos() as u64;

        let start = Instant::now();
        let swapped = CompilerSwapPass::with_limit(limit)
            .run(&k.workload.program)
            .map_err(|e| format!("{name}: compiler swap pass faulted: {e}"))?;
        r.swap_pass_ns += start.elapsed().as_nanos() as u64;
        black_box(swapped);

        let start = Instant::now();
        black_box(estimate_transitions(&k.workload.program, SwapModel::Either));
        r.estimate_ns += start.elapsed().as_nanos() as u64;

        r.power_ns += time_steering_cost(&k.alu_ops);
        r.power_ops += k.alu_ops.len() as u64;
    }
    Ok(r)
}

/// Charges the operand stream to one module per class with swapping
/// allowed, the way a cost-based policy evaluates a candidate.
fn time_steering_cost(ops: &[FuOp]) -> u64 {
    let mut prev: [Option<(Word, Word)>; 2] = [None, None];
    let mut total = 0u64;
    let start = Instant::now();
    for op in black_box(ops) {
        let slot = usize::from(op.class == FuClass::FpAlu);
        let (cost, swapped) = steering_cost(prev[slot], op, true);
        total += u64::from(cost);
        prev[slot] = Some(if swapped {
            (op.op2, op.op1)
        } else {
            (op.op1, op.op2)
        });
    }
    black_box(total);
    start.elapsed().as_nanos() as u64
}

/// The probe's per-layer rows from one round: (metric, value).
pub fn rows(r: &Round) -> Vec<(&'static str, f64)> {
    let per_cycle = |ns: u64| ns as f64 / r.cycles.max(1) as f64;
    let minus = |a: u64, b: u64| per_cycle(a) - per_cycle(b);
    let mut v = vec![
        ("vm.ns_per_inst", r.vm_ns as f64 / r.retired.max(1) as f64),
        ("sim.ns_per_cycle", per_cycle(r.original_ns)),
        ("sim.cycles", r.cycles as f64),
        ("sim.retired", r.retired as f64),
    ];
    for (variant, &ns) in STEERING.iter().zip(&r.steering_ns) {
        v.push((variant.metric, minus(ns, r.original_ns)));
    }
    v.extend([
        (
            "steer.hw_swap.ns_per_cycle",
            minus(r.steering_ns[LUT4_HW], r.lut4_no_swap_ns),
        ),
        ("swap.compiler_pass_s", r.swap_pass_ns as f64 / 1e9),
        (
            "power.ns_per_op",
            r.power_ns as f64 / r.power_ops.max(1) as f64,
        ),
        (
            "trace.windowed.ns_per_cycle",
            minus(r.windowed_ns, r.null_sink_ns),
        ),
        (
            "trace.stall.ns_per_cycle",
            minus(r.stall_ns, r.null_sink_ns),
        ),
        ("trace.dep.ns_per_cycle", minus(r.dep_ns, r.null_sink_ns)),
        ("attr.sink.ns_per_cycle", minus(r.attr_ns, r.null_sink_ns)),
        ("attr.critical_path_s", r.critical_path_ns as f64 / 1e9),
        ("analysis.estimate_s", r.estimate_ns as f64 / 1e9),
    ]);
    v
}
