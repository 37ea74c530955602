//! Steering lanes: the module-selection half of the issue stage.
//!
//! The timing half of issue (select, latency, cache access, completion
//! wheel) never reads which module an op lands on, so one timing pass
//! can feed any number of steering configurations. A [`SteerLane`] holds
//! everything that does depend on the choice: the [`SteeringConfig`],
//! each module's input latches, the [`EnergyLedger`], the issued bit
//! patterns, the swap counters, the Booth energy and, when asked for, a
//! [`SiteTable`] of its charges. Lane 0 steers inline every cycle and
//! drives the trace events; further lanes steer the same issue group
//! right after it, untraced. DESIGN.md §13 gives the independence
//! argument, `docs/PERFORMANCE.md` the measurements.

use std::time::Instant;

use fua_isa::{Case, FuClass};
use fua_power::booth::{nonzero_booth_digits, significand, BoothModel};
use fua_power::{EnergyLedger, ModulePorts};
use fua_stats::BitPatternProfiler;
use fua_steer::ModuleChoice;
use fua_vm::FuOp;

use crate::{MachineConfig, PhaseProfiler, SimPhase, SiteTable, SteeringConfig, SwapStats};

/// What steering needs of one issued op besides its operands: their
/// pre-decoded case bits, their ones fractions (computed once for every
/// lane's bit-pattern profiler), whether the opcode is a multiply
/// (multiplier swap rule, Booth model) and its static PC (site tables).
#[derive(Debug, Clone, Copy)]
pub(crate) struct OpMeta {
    /// `Word::ones_fraction` of OP1 and OP2 as dispatched.
    pub ones: [f64; 2],
    pub pc: u32,
    pub case_bits: u8,
    pub is_mul: bool,
}

// The PC fits in the padding the ones fractions leave.
const _: () = assert!(std::mem::size_of::<OpMeta>() == 24);

/// One issue group as steering sees it: each op's operands as
/// dispatched (before any swap) and its [`OpMeta`], in two parallel
/// arrays so a policy can read the operands as one slice.
#[derive(Debug, Default)]
pub(crate) struct IssueGroup {
    pub fus: Vec<FuOp>,
    pub meta: Vec<OpMeta>,
}

impl IssueGroup {
    pub fn clear(&mut self) {
        self.fus.clear();
        self.meta.clear();
    }

    pub fn push(&mut self, fu: FuOp, meta: OpMeta) {
        self.fus.push(fu);
        self.meta.push(meta);
    }
}

/// One lane's decision for one op of a group, as the trace reports it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Steered {
    /// Target module.
    pub module: u8,
    /// Whether a static rule (hardware or multiplier) swapped the
    /// operands before the policy ran.
    pub pre_swap: bool,
    /// Whether the policy swapped the operands.
    pub policy_swap: bool,
    /// The case the policy saw (after the static rules).
    pub steer_case: u8,
    /// Switched input bits charged to the module.
    pub bits: u32,
}

/// The steering state of one configuration over one run.
pub(crate) struct SteerLane {
    steering: SteeringConfig,
    booth: BoothModel,
    modules: [usize; 4],
    ports: [Vec<ModulePorts>; 4],
    pub ledger: EnergyLedger,
    pub booth_energy: [f64; 4],
    pub bit_patterns: Vec<BitPatternProfiler>,
    pub swaps: SwapStats,
    /// The lane's charges per static site, when the run attributes them.
    pub sites: Option<SiteTable>,
    // Per-group working memory, sized once so steering never allocates.
    ops: Vec<FuOp>,
    case_bits: Vec<u8>,
    choices: Vec<ModuleChoice>,
}

impl SteerLane {
    pub fn new(config: &MachineConfig, steering: SteeringConfig) -> Self {
        let modules = FuClass::ALL.map(|c| config.modules(c));
        let widest = modules.iter().copied().max().unwrap_or(1);
        SteerLane {
            steering,
            booth: BoothModel::new(),
            modules,
            ports: modules.map(|m| vec![ModulePorts::new(); m]),
            ledger: EnergyLedger::new(),
            booth_energy: [0.0; 4],
            bit_patterns: vec![BitPatternProfiler::new(); 4],
            swaps: SwapStats::default(),
            sites: None,
            ops: Vec::with_capacity(widest),
            case_bits: Vec::with_capacity(widest),
            choices: Vec::with_capacity(widest),
        }
    }

    /// Steers one issue group of `class` (at most 64 ops, one per
    /// module): applies the static swap rules, asks the policy for
    /// modules, then latches and charges each op. With `out`, writes one
    /// [`Steered`] per op there (cleared first) for the trace. The policy
    /// solve is charged to [`SimPhase::Steer`].
    pub fn steer<P: PhaseProfiler>(
        &mut self,
        class: FuClass,
        fus: &[FuOp],
        meta: &[OpMeta],
        mut out: Option<&mut Vec<Steered>>,
        profiler: &mut P,
    ) {
        let ci = class.index();
        let case_bits = &mut self.case_bits;
        case_bits.clear();
        case_bits.extend(meta.iter().map(|m| m.case_bits));

        // The static swap rules, on a copy of the operands (the group is
        // shared with the other lanes). The case bits track each op
        // through every swap, so no operand word is re-inspected here.
        let hw_rule = self.steering.swap_rule(class).copied();
        let mul_rule = match class {
            FuClass::IntMul | FuClass::FpMul => self.steering.multiplier_swap,
            _ => None,
        };
        let mut pre_swapped = 0u64;
        let ops: &[FuOp] = if hw_rule.is_none() && mul_rule.is_none() {
            fus
        } else {
            self.ops.clear();
            self.ops.extend_from_slice(fus);
            let ops = &mut self.ops;
            if let Some(rule) = hw_rule {
                let target = rule.case().index() as u8;
                for i in 0..ops.len() {
                    if ops[i].commutative && case_bits[i] == target {
                        ops[i] = ops[i].swapped();
                        case_bits[i] = Case::swap_index(case_bits[i]);
                        self.swaps.rule_swaps += 1;
                        pre_swapped |= 1 << i;
                    }
                }
            }
            if let Some(rule) = mul_rule {
                for i in 0..ops.len() {
                    if meta[i].is_mul && rule.apply(&mut ops[i]) {
                        case_bits[i] = Case::swap_index(case_bits[i]);
                        self.swaps.multiplier_swaps += 1;
                        pre_swapped |= 1 << i;
                    }
                }
            }
            ops
        };

        // Steer: duplicated classes consult the policy, single-module
        // classes trivially use module 0.
        let modules = self.modules[ci];
        let choices = &mut self.choices;
        choices.clear();
        if modules > 1 {
            let policy = self
                .steering
                .policy_mut(class)
                .expect("duplicated classes have a policy");
            if P::ENABLED {
                let start = Instant::now();
                policy.assign_into(ops, &self.ports[ci], choices);
                profiler.add(SimPhase::Steer, start.elapsed());
            } else {
                policy.assign_into(ops, &self.ports[ci], choices);
            }
        } else {
            choices.extend(ops.iter().map(|_| ModuleChoice {
                module: 0,
                swap: false,
            }));
        }
        if cfg!(debug_assertions) {
            fua_steer::validate_choices(ops, modules, choices);
        }

        // Latch and charge.
        if let Some(out) = out.as_deref_mut() {
            out.clear();
        }
        for (i, &choice) in choices.iter().enumerate() {
            let mut op = ops[i];
            if choice.swap {
                debug_assert!(op.commutative);
                op = op.swapped();
                self.swaps.policy_swaps += 1;
            }
            let bits = self.ports[ci][choice.module].latch(op.op1, op.op2);
            self.ledger.charge(class, bits);
            if let Some(sites) = &mut self.sites {
                // The site the trace's energy event names: the case is
                // the one the policy saw, before its own swap.
                sites.charge(meta[i].pc, ci, choice.module, case_bits[i], bits);
            }
            // The bit patterns of the op as issued: swapped operands swap
            // their ones fractions and case bits too.
            let ones = if op.op1 == fus[i].op1 {
                meta[i].ones
            } else {
                [meta[i].ones[1], meta[i].ones[0]]
            };
            let issued_case = if choice.swap {
                Case::swap_index(case_bits[i])
            } else {
                case_bits[i]
            };
            self.bit_patterns[ci].record_parts(
                Case::from_index_masked(issued_case),
                op.commutative,
                ones,
            );
            if meta[i].is_mul {
                // Booth activity model (extension; see DESIGN.md).
                let (recoded, width) = significand(op.op2);
                self.booth_energy[ci] += self.booth.pp_weight
                    * nonzero_booth_digits(recoded, width) as f64
                    * op.op1.power_width() as f64
                    + self.booth.sw_weight * bits as f64;
            }
            if let Some(out) = out.as_deref_mut() {
                out.push(Steered {
                    module: choice.module as u8,
                    pre_swap: pre_swapped >> i & 1 == 1,
                    policy_swap: choice.swap,
                    steer_case: case_bits[i],
                    bits,
                });
            }
        }
    }
}
