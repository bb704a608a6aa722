//! # dynar — a dynamic component model for federated AUTOSAR systems
//!
//! This umbrella crate re-exports every subsystem of the reproduction of
//! *"Design and Implementation of a Dynamic Component Model for Federated
//! AUTOSAR Systems"* (DAC 2014) so that examples and integration tests can
//! reach the whole stack through a single dependency.
//!
//! The individual crates are:
//!
//! * [`foundation`] — identifiers, signal values, deterministic time, errors.
//! * [`os`] — an OSEK-like operating-system simulation (tasks, alarms, events).
//! * [`bus`] — a CAN-like in-vehicle network simulation.
//! * [`rte`] — the AUTOSAR runtime environment / virtual function bus.
//! * [`vm`] — the plug-in bytecode virtual machine.
//! * [`core`] — the dynamic component model itself (plug-in SW-Cs, PIRTE,
//!   virtual ports, PIC/PLC/ECC contexts, plug-in life cycle).
//! * [`ecm`] — the external communication manager gateway.
//! * [`server`] — the off-board trusted server managing the plug-in life cycle.
//! * [`fes`] — federated-embedded-system transports and external devices.
//! * [`sim`] — the vehicle simulator, the fleet scheduler and the
//!   demonstrator scenarios.
//!
//! # Example
//!
//! ```
//! use dynar::sim::scenario::remote_car::RemoteCarScenario;
//!
//! # fn main() -> Result<(), dynar::foundation::error::DynarError> {
//! let mut scenario = RemoteCarScenario::build()?;
//! scenario.install_app()?;
//! let report = scenario.drive(200)?;
//! assert!(report.commands_delivered > 0);
//! # Ok(())
//! # }
//! ```

pub use dynar_bus as bus;
pub use dynar_core as core;
pub use dynar_ecm as ecm;
pub use dynar_fes as fes;
pub use dynar_foundation as foundation;
pub use dynar_os as os;
pub use dynar_rte as rte;
pub use dynar_server as server;
pub use dynar_sim as sim;
pub use dynar_vm as vm;
