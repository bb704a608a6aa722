//! Ready-made scenarios built on the full stack.
//!
//! * [`remote_car`] — the paper's Section 4 demonstrator: a smart phone
//!   remotely controlling a two-ECU model car through dynamically installed
//!   COM and OP plug-ins (Figure 3).
//! * [`quickstart`] — the smallest useful system: one ECU, one plug-in SW-C,
//!   one plug-in installed through the PIRTE, used by the quickstart example
//!   and the documentation.
//! * [`fleet`] — the federated-scale scenario: N four-ECU vehicles on one
//!   trusted server, staged install/update waves over live signal chains,
//!   and the one scenario engine every fleet scenario below runs on: a
//!   script of timed [`fleet::Event`]s (waves, updates, reboots, removals,
//!   joins, partitions, server crashes, campaigns) fired by
//!   [`fleet::FleetScenario::run_until`] and checked at the end by
//!   [`fleet::FleetScenario::verify`].
//! * [`chaos`] — a schedule for the engine: install, uninstall and
//!   reinstall waves over a lossy, jittery transport with a partition,
//!   asserting that the federation reliability plane converges every
//!   operation without duplicate installs.
//! * [`churn`] — a schedule for the engine: vehicles reboot, leave and join
//!   mid-wave while desired-state reconciliation drives install/update
//!   waves over a lossy transport, asserting convergence to the manifest
//!   against the ECMs' ground truth.
//! * [`restart`] — a schedule for the engine: the trusted server crashes
//!   mid-wave, is reconstructed byte-for-byte from its write-ahead journal,
//!   and re-announces itself under a bumped incarnation id while a vehicle
//!   reboot lands inside the recovery window.
//! * [`campaign`] — the orchestration scenario: staged rollouts driven by
//!   the server's campaign plane — canary waves, health gates, auto-abort on
//!   a bad version and rollback to the recorded last-good manifests — under
//!   loss and mid-wave reboots, created and driven on the engine.

pub mod campaign;
pub mod chaos;
pub mod churn;
pub mod fleet;
pub mod quickstart;
pub mod remote_car;
pub mod restart;
