//! Energy-harvesting node simulator.
//!
//! The paper's Fig. 1 frames prediction inside a harvested-energy
//! management loop: an energy harvester feeds storage through a power
//! conditioner, an intelligent controller adapts the embedded
//! application's consumption to the *predicted* incoming energy. This
//! crate closes that loop so the repository can demonstrate (and
//! benchmark) what prediction accuracy buys:
//!
//! * [`EnergyStorage`] — capacity-limited store with charge/discharge
//!   efficiencies and leakage,
//! * [`SolarPanel`] — irradiance → electrical power,
//! * [`Load`] — a duty-cycled consumer (sensor node),
//! * [`PowerManager`] implementations — a prediction-driven
//!   energy-neutral controller (after Kansal et al.), plus greedy and
//!   fixed-duty baselines,
//! * [`simulate_node`] — a slot-stepped simulation with full energy
//!   accounting (conservation is property-tested),
//! * [`SlotHook`] / [`simulate_node_hooked`] — per-slot fault injection
//!   (dead panels, corrupted sensors) that cannot break the energy
//!   ledger,
//! * [`NodeSimulation`] — the same simulation as a push-style state
//!   machine fed one slot at a time, which is how the `scenario-fleet`
//!   engine drives many (predictor, manager) jobs from one slot pass.
//!
//! # Example
//!
//! ```
//! # use std::error::Error;
//! # fn main() -> Result<(), Box<dyn Error>> {
//! use harvest_sim::{simulate_node, EnergyNeutralManager, EnergyStorage, Load, NodeConfig, SolarPanel};
//! use solar_predict::{WcmaParams, WcmaPredictor};
//! use solar_trace::{PowerTrace, Resolution, SlotsPerDay, SlotView};
//!
//! let day: Vec<f64> = (0..24).map(|h| if (6..18).contains(&h) { 600.0 } else { 0.0 }).collect();
//! let samples: Vec<f64> = (0..30).flat_map(|_| day.clone()).collect();
//! let trace = PowerTrace::new("sim", Resolution::from_minutes(60)?, samples)?;
//! let view = SlotView::new(&trace, SlotsPerDay::new(24)?)?;
//!
//! let config = NodeConfig {
//!     panel: SolarPanel::new(0.01, 0.15)?,          // 100 cm², 15%
//!     storage: EnergyStorage::new(200.0, 100.0)?,   // 200 J supercap
//!     load: Load::new(0.05, 0.0001)?,               // 50 mW active
//! };
//! let mut predictor = WcmaPredictor::new(WcmaParams::new(0.5, 5, 2, 24)?);
//! let mut manager = EnergyNeutralManager::default();
//! let report = simulate_node(&view, &mut predictor, &mut manager, &config);
//! assert!(report.energy_balance_error_j() < 1e-6);
//! # Ok(())
//! # }
//! ```

mod error;
mod hook;
mod load;
mod manager;
mod node;
mod panel;
mod storage;
mod stream;

pub use error::SimError;
pub use hook::{NoFaults, SlotHook};
pub use load::Load;
pub use manager::{
    EnergyNeutralManager, FixedDutyManager, GreedyManager, PowerManager, SlotContext,
};
pub use node::{simulate_node, simulate_node_hooked, NodeConfig, NodeReport};
pub use panel::SolarPanel;
pub use storage::{ChargeOutcome, EnergyStorage};
pub use stream::{simulate_node_streamed, NodeSimulation, SimDayCheckpoint, SlotInput};
