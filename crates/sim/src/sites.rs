//! Dense per-site charge tables: the energy-attribution partition a
//! steering lane can keep for itself, without a trace sink.
//!
//! A traced run reports every charge as a `TraceEvent::Energy` and
//! lets a sink bucket it by (pc, class, module, case). A lane that owns
//! a [`SiteTable`] counts the same charges itself, in the same place it
//! charges its [`EnergyLedger`](fua_power::EnergyLedger), so an untraced
//! multi-lane run attributes every lane's energy in one timing pass.
//! DESIGN.md §13 gives the argument that both paths see the same
//! charges.

use fua_isa::{Case, FuClass};

use crate::MachineConfig;

/// One static charge site: the issuing PC plus where the charge landed
/// (FU class and module) and the information-bit case that steered it.
///
/// The ordering is derived, so a `BTreeMap` keyed by `SiteKey` iterates
/// in a deterministic (pc, class, module, case) order regardless of the
/// order charges arrived in — the property the parallel merge and every
/// rendered report rely on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SiteKey {
    /// Static program counter (instruction index) of the issuing
    /// instruction.
    pub pc: u32,
    /// The FU class charged.
    pub class: FuClass,
    /// The module whose input latches toggled.
    pub module: u8,
    /// The instruction's information-bit case at steering time.
    pub case: Case,
}

/// Accumulated charges for one [`SiteKey`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SiteStat {
    /// Switched input bits charged at this site.
    pub bits: u64,
    /// Operations issued from this site.
    pub ops: u64,
}

/// Switched bits and operations per [`SiteKey`] of one lane's run, in
/// one flat array: a row per static PC, and within it a cell per
/// (class, module, case) the machine can charge. Charging is one
/// indexed add, and [`sites`](SiteTable::sites) walks the cells in
/// [`SiteKey`] order, so the table converts to a key-ordered map
/// without sorting.
///
/// The simulator sizes the table once per run from the program length,
/// so charging never allocates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteTable {
    modules: [usize; 4],
    /// Offset of each class's first cell within a PC row.
    base: [usize; 4],
    /// Cells per PC row: four cases per module of every class.
    stride: usize,
    cells: Vec<SiteStat>,
}

impl SiteTable {
    /// An empty table for the modules of `config`; `reset` sizes it.
    pub(crate) fn new(config: &MachineConfig) -> Self {
        let modules = FuClass::ALL.map(|c| config.modules(c));
        let mut base = [0; 4];
        let mut stride = 0;
        for (ci, &m) in modules.iter().enumerate() {
            base[ci] = stride;
            stride += m * Case::ALL.len();
        }
        SiteTable {
            modules,
            base,
            stride,
            cells: Vec::new(),
        }
    }

    /// Clears the table and sizes it for PCs `0..pcs`.
    pub(crate) fn reset(&mut self, pcs: usize) {
        self.cells.clear();
        self.cells.resize(pcs * self.stride, SiteStat::default());
    }

    /// Counts one op from `pc` charged `bits` on `module` of class
    /// `ci`, steered as case index `case`.
    #[inline]
    pub(crate) fn charge(&mut self, pc: u32, ci: usize, module: usize, case: u8, bits: u32) {
        debug_assert!(module < self.modules[ci]);
        let cell = &mut self.cells[pc as usize * self.stride
            + self.base[ci]
            + module * Case::ALL.len()
            + (case & 3) as usize];
        cell.bits += bits as u64;
        cell.ops += 1;
    }

    /// Every charged site with its totals, in [`SiteKey`] order.
    pub fn sites(&self) -> impl Iterator<Item = (SiteKey, SiteStat)> + '_ {
        self.cells
            .chunks_exact(self.stride)
            .enumerate()
            .flat_map(move |(pc, row)| {
                FuClass::ALL.into_iter().flat_map(move |class| {
                    let ci = class.index();
                    (0..self.modules[ci]).flat_map(move |module| {
                        Case::ALL.into_iter().filter_map(move |case| {
                            let cell = row[self.base[ci] + module * Case::ALL.len() + case.index()];
                            (cell.ops > 0).then_some((
                                SiteKey {
                                    pc: pc as u32,
                                    class,
                                    module: module as u8,
                                    case,
                                },
                                cell,
                            ))
                        })
                    })
                })
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sites_come_out_in_key_order_with_their_totals() {
        let mut table = SiteTable::new(&MachineConfig::paper_default());
        table.reset(4);
        table.charge(3, FuClass::FpAlu.index(), 2, 1, 5);
        table.charge(0, FuClass::IntAlu.index(), 3, 3, 7);
        table.charge(3, FuClass::IntAlu.index(), 0, 0, 0);
        table.charge(3, FuClass::FpAlu.index(), 2, 1, 4);
        let sites: Vec<_> = table.sites().collect();
        let keys: Vec<_> = sites.iter().map(|(k, _)| *k).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        assert_eq!(sites.len(), 3, "a zero-bit charge is still a site");
        assert_eq!(
            sites[2],
            (
                SiteKey {
                    pc: 3,
                    class: FuClass::FpAlu,
                    module: 2,
                    case: Case::C01
                },
                SiteStat { bits: 9, ops: 2 }
            )
        );
        table.reset(2);
        assert_eq!(table.sites().count(), 0, "reset clears every cell");
    }
}
