//! The steering-policy trait and the FCFS baseline.

use fua_power::ModulePorts;
use fua_vm::FuOp;

/// One steering decision: which module an instruction issues to and
/// whether its operand ports are exchanged on the way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModuleChoice {
    /// Target module index.
    pub module: usize,
    /// Whether the crossbar swaps the two operands.
    pub swap: bool,
}

/// A per-cycle instruction→module assignment strategy.
///
/// The engine guarantees `ops.len() <= modules.len()`; implementations
/// must return exactly one [`ModuleChoice`] per instruction, with distinct
/// module indices, and may only set `swap` for commutative operations.
/// Policies are plain data (`Send + Sync`), so a sweep can share one
/// built scheme across its workers and clone it per run.
pub trait SteeringPolicy: Send + Sync {
    /// A short name for reports ("Original", "4-bit LUT", ...).
    fn name(&self) -> &str;

    /// Assigns this cycle's ready instructions to modules, writing
    /// exactly one choice per instruction into `out` (cleared first).
    ///
    /// This is the hot-loop entry point: the engine passes a buffer it
    /// reuses every cycle, and implementations keep their own working
    /// memory across calls, so steady-state issue performs **zero**
    /// heap allocations (the allocation gate enforces this for every
    /// workload × scheme).
    fn assign_into(&mut self, ops: &[FuOp], modules: &[ModulePorts], out: &mut Vec<ModuleChoice>);

    /// A boxed copy of this policy, so a sweep can build a scheme (and
    /// synthesise its tables) once and hand every run its own copy.
    fn boxed_clone(&self) -> Box<dyn SteeringPolicy>;

    /// Allocating convenience wrapper around
    /// [`assign_into`](Self::assign_into) for one-shot callers (tests,
    /// the Figure-1 example).
    fn assign(&mut self, ops: &[FuOp], modules: &[ModulePorts]) -> Vec<ModuleChoice> {
        let mut out = Vec::with_capacity(ops.len());
        self.assign_into(ops, modules, &mut out);
        out
    }
}

/// The paper's *Original* strategy: instructions are placed on modules in
/// arrival order, exactly as a first-come-first-serve Tomasulo router
/// would, with no power awareness and no swapping.
///
/// See the crate-level example.
#[derive(Debug, Clone, Copy, Default)]
pub struct FcfsPolicy;

impl FcfsPolicy {
    /// Creates the baseline policy.
    pub fn new() -> Self {
        FcfsPolicy
    }
}

impl SteeringPolicy for FcfsPolicy {
    fn name(&self) -> &str {
        "Original"
    }

    fn assign_into(&mut self, ops: &[FuOp], modules: &[ModulePorts], out: &mut Vec<ModuleChoice>) {
        debug_assert!(ops.len() <= modules.len());
        out.clear();
        out.extend((0..ops.len()).map(|i| ModuleChoice {
            module: i,
            swap: false,
        }));
    }

    fn boxed_clone(&self) -> Box<dyn SteeringPolicy> {
        Box::new(*self)
    }
}

/// Checks a policy's output invariants — one choice per instruction,
/// distinct in-range modules, swaps only on commutative operations.
/// The engine calls this in debug builds; tests use it directly.
/// Allocation-free (a bitmask tracks used modules), so the engine's
/// debug-build call sites stay invisible to the allocation gate.
///
/// # Panics
///
/// Panics when any invariant is violated, or when `modules > 64` (real
/// configurations duplicate a module a handful of times).
pub fn validate_choices(ops: &[FuOp], modules: usize, choices: &[ModuleChoice]) {
    assert_eq!(choices.len(), ops.len(), "one choice per instruction");
    assert!(modules <= 64, "module bitmask covers the configuration");
    let mut seen = 0u64;
    for (op, c) in ops.iter().zip(choices) {
        assert!(c.module < modules, "module index in range");
        assert!(
            seen & (1 << c.module) == 0,
            "modules are assigned at most once"
        );
        seen |= 1 << c.module;
        assert!(!c.swap || op.commutative, "swap only commutative ops");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fua_isa::{FuClass, Word};

    fn op(a: i32, b: i32) -> FuOp {
        FuOp {
            class: FuClass::IntAlu,
            op1: Word::int(a),
            op2: Word::int(b),
            commutative: true,
        }
    }

    #[test]
    fn fcfs_assigns_in_order() {
        let ops = [op(1, 2), op(3, 4), op(5, 6)];
        let modules = vec![ModulePorts::new(); 4];
        let mut p = FcfsPolicy::new();
        let choices = p.assign(&ops, &modules);
        validate_choices(&ops, modules.len(), &choices);
        assert_eq!(
            choices.iter().map(|c| c.module).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
    }

    #[test]
    fn fcfs_never_swaps() {
        let ops = [op(1, 2)];
        let modules = vec![ModulePorts::new(); 1];
        let choices = FcfsPolicy::new().assign(&ops, &modules);
        assert!(!choices[0].swap);
    }
}
