//! Trace-driven out-of-order superscalar timing and power model.
//!
//! This crate rebuilds the pipeline substrate the paper took from
//! SimpleScalar's `sim-outorder`: a 4-wide machine with per-FU-type
//! reservation stations, a reorder buffer, a bimodal branch predictor and
//! a direct-mapped data cache. Functional execution comes from
//! [`fua_vm`]; this crate decides *when* instructions issue, *which
//! module* each one issues to (via a [`fua_steer::SteeringPolicy`]), and
//! charges switched input bits to a [`fua_power::EnergyLedger`].
//!
//! The observable outputs — per-cycle FU occupancy (Table 2), operand bit
//! patterns (Tables 1/3) and switched capacitance per scheme (Figure 4) —
//! are exactly the quantities the paper reports.
//!
//! Steering never changes when an instruction issues, so one timing pass
//! can measure several schemes: [`Simulator::with_lanes`] steers every
//! issue group under each configuration, and
//! [`Simulator::run_program_lanes`] returns one [`SimResult`] per lane,
//! each equal to a separate run's. With
//! [`Simulator::with_site_tables`] each lane also counts its charges
//! per static site in a [`SiteTable`], the energy-attribution partition
//! a trace sink would otherwise build from events.
//!
//! # Examples
//!
//! ```
//! use fua_isa::{IntReg, ProgramBuilder};
//! use fua_sim::{MachineConfig, Simulator, SteeringConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let r1 = IntReg::new(1);
//! let mut b = ProgramBuilder::new();
//! let top = b.new_label();
//! b.li(r1, 100);
//! b.bind(top);
//! b.addi(r1, r1, -1);
//! b.bgtz(r1, top);
//! b.halt();
//! let program = b.build()?;
//!
//! let mut sim = Simulator::new(MachineConfig::default(), SteeringConfig::original());
//! let result = sim.run_program(&program, 10_000)?;
//! assert!(result.halted);
//! assert!(result.cycles > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod cache;
mod config;
mod inflight;
mod lane;
mod pipeline;
mod predictor;
mod profiler;
mod reference;
mod result;
mod sites;
mod steering;

pub use cache::{CacheConfig, DataCache};
pub use config::MachineConfig;
pub use pipeline::Simulator;
pub use predictor::BimodalPredictor;
pub use profiler::{NullProfiler, PhaseProfiler, PhaseTimers, SimPhase};
pub use reference::ReferenceSimulator;
pub use result::{BranchStats, CacheStats, SimResult, SwapStats};
pub use sites::{SiteKey, SiteStat, SiteTable};
pub use steering::SteeringConfig;
