//! The attribution sink: folds [`TraceEvent::Energy`] provenance into
//! per-site switched-bit counters.

use std::collections::BTreeMap;

use fua_power::EnergyLedger;
use fua_sim::{SiteKey, SiteStat, SiteTable};
use fua_trace::{TraceEvent, TraceSink};

fn add(into: &mut SiteStat, other: SiteStat) {
    into.bits += other.bits;
    into.ops += other.ops;
}

/// A [`TraceSink`] that partitions the energy ledger by static site.
///
/// Every [`TraceEvent::Energy`] is counted in exactly one [`SiteKey`]
/// bucket, so the column sums reproduce the simulator's own
/// [`EnergyLedger`] bit-for-bit — see [`ledger`](AttributionSink::ledger).
/// All other events are ignored. [`merge`](AttributionSink::merge) is
/// associative and key-ordered, so per-workload sinks merged in
/// workload-index order equal one sink threaded through a serial run.
///
/// An untraced run builds the same sink from a steering lane's
/// [`SiteTable`], which counts the same charges per site (`From`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AttributionSink {
    sites: BTreeMap<SiteKey, SiteStat>,
}

impl AttributionSink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The per-site stats, in (pc, class, module, case) order.
    pub fn sites(&self) -> impl Iterator<Item = (&SiteKey, &SiteStat)> {
        self.sites.iter()
    }

    /// Distinct charge sites recorded.
    pub fn site_count(&self) -> usize {
        self.sites.len()
    }

    /// Whether no charges have been recorded.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// Folds another sink's sites into this one (key-wise addition).
    pub fn merge(&mut self, other: &AttributionSink) {
        for (key, stat) in &other.sites {
            add(self.sites.entry(*key).or_default(), *stat);
        }
    }

    /// Per-class switched-bit totals across all sites.
    pub fn switched_totals(&self) -> [u64; 4] {
        let mut totals = [0u64; 4];
        for (key, stat) in &self.sites {
            totals[key.class.index()] += stat.bits;
        }
        totals
    }

    /// Per-class operation totals across all sites.
    pub fn ops_totals(&self) -> [u64; 4] {
        let mut totals = [0u64; 4];
        for (key, stat) in &self.sites {
            totals[key.class.index()] += stat.ops;
        }
        totals
    }

    /// Reassembles the site partition into an [`EnergyLedger`]. For a
    /// sink that observed a whole run, this equals the simulator's own
    /// ledger bit-for-bit — the exact-partition invariant.
    pub fn ledger(&self) -> EnergyLedger {
        let mut ledger = EnergyLedger::new();
        ledger.accumulate(self.switched_totals(), self.ops_totals());
        ledger
    }
}

impl From<&SiteTable> for AttributionSink {
    fn from(table: &SiteTable) -> Self {
        AttributionSink {
            sites: table.sites().collect(),
        }
    }
}

impl TraceSink for AttributionSink {
    fn record(&mut self, event: &TraceEvent) {
        if let TraceEvent::Energy {
            pc,
            class,
            module,
            case,
            bits,
            ..
        } = *event
        {
            let key = SiteKey {
                pc,
                class,
                module,
                case,
            };
            add(
                self.sites.entry(key).or_default(),
                SiteStat {
                    bits: bits as u64,
                    ops: 1,
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fua_isa::{Case, FuClass};

    fn energy(pc: u32, class: FuClass, module: u8, case: Case, bits: u32) -> TraceEvent {
        TraceEvent::Energy {
            cycle: 0,
            serial: 0,
            pc,
            class,
            module,
            case,
            bits,
        }
    }

    #[test]
    fn charges_partition_by_site_and_reassemble_exactly() {
        let mut sink = AttributionSink::new();
        let mut ledger = EnergyLedger::new();
        for (pc, class, module, case, bits) in [
            (3u32, FuClass::IntAlu, 0u8, Case::C00, 5u32),
            (3, FuClass::IntAlu, 0, Case::C00, 2),
            (3, FuClass::IntAlu, 1, Case::C11, 7),
            (9, FuClass::FpAlu, 2, Case::C01, 11),
        ] {
            sink.record(&energy(pc, class, module, case, bits));
            ledger.charge(class, bits);
        }
        assert_eq!(sink.site_count(), 3);
        assert_eq!(sink.ledger(), ledger);
        let first = sink.sites().next().unwrap();
        assert_eq!(first.1.bits, 7, "same-key charges accumulate");
        assert_eq!(first.1.ops, 2);
    }

    #[test]
    fn non_energy_events_are_ignored() {
        let mut sink = AttributionSink::new();
        sink.record(&TraceEvent::CycleSummary {
            cycle: 0,
            window: 3,
            issued: 1,
        });
        assert!(sink.is_empty());
    }

    #[test]
    fn merge_is_order_independent_and_matches_one_sink() {
        let events = [
            energy(1, FuClass::IntAlu, 0, Case::C00, 4),
            energy(2, FuClass::IntMul, 0, Case::C10, 9),
            energy(1, FuClass::IntAlu, 0, Case::C00, 1),
            energy(5, FuClass::FpMul, 0, Case::C11, 2),
        ];
        let mut one = AttributionSink::new();
        for e in &events {
            one.record(e);
        }
        let mut a = AttributionSink::new();
        let mut b = AttributionSink::new();
        for (i, e) in events.iter().enumerate() {
            if i % 2 == 0 {
                a.record(e);
            } else {
                b.record(e);
            }
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, one);
        assert_eq!(ba, one);
    }
}
