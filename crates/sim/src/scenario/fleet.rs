//! The fleet scenario: many four-ECU vehicles federated through one trusted
//! server, with live signal chains under staged install/update waves.
//!
//! Every vehicle has the same topology:
//!
//! * **ECU1** hosts the ECM SW-C (the management gateway towards the server)
//!   and a built-in speed-sensor SW-C that periodically broadcasts a reading
//!   on the [`SENSOR_FRAME`] — the always-on signal chain.
//! * **ECU2..=ECU(1+workers)** each host a plug-in SW-C whose `SensorIn`
//!   type III virtual port is fed from the sensor frame and whose `ActOut`
//!   type III virtual port surfaces plug-in actuation on the `act_out` SW-C
//!   port.
//!
//! The `fleet-telemetry` application places one OP plug-in per worker ECU;
//! each plug-in consumes sensor readings, applies its gain and actuates.  The
//! v2 application does the same with a different gain, so an update wave is
//! observable at the actuators while the rest of the fleet keeps driving.
//!
//! # One scenario engine
//!
//! Every scenario in this crate is a script of timed [`Event`]s run by
//! [`FleetScenario::run_until`]: install and update waves, reboots, removals,
//! joins, partitions, server crashes and campaigns are all scheduled against
//! the absolute fleet clock with [`FleetScenario::schedule`].  Each tick of
//! the engine checks the horizon, fires the due events in the order they
//! were scheduled, runs the periodic reconcile sweep, steps the fleet
//! (conservation-checked) and asks the caller whether to stop.  The end of a
//! run is checked by one checker, [`FleetScenario::verify`].

use dynar_bus::frame::CanId;
use dynar_bus::network::BusConfig;
use dynar_core::plugin::PluginPortDirection;
use dynar_core::swc::{PluginSwc, PluginSwcConfig, SharedPirte};
use dynar_core::virtual_port::{PortDataDirection, PortKind, VirtualPortSpec};
use dynar_ecm::gateway::{EcmConfig, EcmSwc, SharedHub};
use dynar_fes::transport::{LinkFault, TransportConfig, TransportStats};
use dynar_foundation::error::{DynarError, Result};
use dynar_foundation::ids::{AppId, EcuId, PluginId, SwcId, UserId, VehicleId};
use dynar_foundation::time::Tick;
use dynar_foundation::value::Value;
use dynar_rte::component::{ComponentBehavior, RteContext, RunnableSpec, SwcDescriptor, Trigger};
use dynar_rte::ecu::Ecu;
use dynar_rte::port::{PortDirection, PortSpec};
use dynar_server::campaign::{CampaignId, CampaignSpec, CampaignStatus};
use dynar_server::model::{
    AppDefinition, ConnectionDecl, HwConf, PluginArtifact, PluginPortDecl, PluginSwcDecl, SwConf,
    SystemSwConf, VirtualPortDecl, VirtualPortKindDecl,
};
use dynar_server::server::{DeploymentStatus, RetryPolicy, TrustedServer};
use dynar_vm::assembler::assemble;

use crate::fleet::Fleet;
use crate::scenario::campaign::APP_TELEMETRY_BAD;
use crate::world::Vehicle;

/// Frame broadcasting the speed-sensor reading inside each vehicle.
pub const SENSOR_FRAME: u32 = 0x500;
/// Vehicle model name registered for every fleet vehicle.
pub const FLEET_MODEL: &str = "fleet-car";
/// The telemetry application (gain 2).
pub const APP_TELEMETRY: &str = "fleet-telemetry";
/// The updated telemetry application (gain 3).
pub const APP_TELEMETRY_V2: &str = "fleet-telemetry-v2";
/// Gain applied by the v1 OP plug-ins.
pub const GAIN_V1: i64 = 2;
/// Gain applied by the v2 OP plug-ins.
pub const GAIN_V2: i64 = 3;
/// Sensor period in ticks.
pub const SENSOR_PERIOD: u64 = 4;

/// How the fleet scenario is sized and wired.
#[derive(Debug, Clone)]
pub struct FleetScenarioConfig {
    /// Number of vehicles in the fleet.
    pub vehicles: usize,
    /// Worker ECUs per vehicle (on top of the ECM ECU).
    pub workers_per_vehicle: u16,
    /// In-vehicle bus configuration (shared by every vehicle).
    pub bus: BusConfig,
    /// External transport configuration of the shared hub.
    pub transport: TransportConfig,
    /// Server shard count (1 = the round runs inline; more shards run the
    /// round shard-parallel on the worker pool).
    pub shards: usize,
}

impl Default for FleetScenarioConfig {
    fn default() -> Self {
        FleetScenarioConfig {
            vehicles: 50,
            workers_per_vehicle: 3,
            bus: BusConfig {
                frames_per_tick: 64,
                ..BusConfig::default()
            },
            transport: TransportConfig::default(),
            shards: 1,
        }
    }
}

/// One worker ECU of a fleet vehicle: its id, the plug-in SW-C instance and
/// a shared handle to its PIRTE.
pub type WorkerHandle = (EcuId, SwcId, SharedPirte);

/// Handles into one fleet vehicle.
#[derive(Debug, Clone)]
pub struct VehicleHandles {
    /// The server-side vehicle id.
    pub id: VehicleId,
    /// Per worker ECU: its id, the plug-in SW-C instance and its PIRTE.
    pub workers: Vec<WorkerHandle>,
}

/// What a wave does to each of its vehicles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaveOp {
    /// Imperative install ([`TrustedServer::deploy`]).
    Deploy,
    /// Imperative uninstall ([`TrustedServer::uninstall`]).
    Uninstall,
    /// Declarative install ([`TrustedServer::set_desired`]); the reconcile
    /// sweep closes whatever gap loss and reboots open.
    SetDesired,
}

/// One timed event of a scenario script.  Vehicle indices refer to the
/// initial registration order; an event aimed at a vehicle that has left the
/// fleet is skipped.
#[derive(Debug, Clone)]
pub enum Event {
    /// `op` for `app` on each listed vehicle, in list order.
    Wave {
        /// What the wave does.
        op: WaveOp,
        /// The application the wave acts on.
        app: AppId,
        /// The target vehicles.
        vehicles: Vec<VehicleId>,
    },
    /// The first `count` vehicles of the current fleet stop desiring `from`
    /// and desire `to` instead.
    Update {
        /// The application cleared from the manifests.
        from: AppId,
        /// The application desired instead.
        to: AppId,
        /// How many vehicles are updated.
        count: usize,
    },
    /// The vehicle reboots ([`FleetScenario::reboot_vehicle`]).
    Reboot(usize),
    /// The vehicle leaves the fleet for good
    /// ([`FleetScenario::remove_vehicle`]).
    Remove(usize),
    /// A factory-fresh vehicle joins, gets `jitter_ticks` of jitter on its
    /// server link and desires `app`.
    Join {
        /// The application the newcomer desires.
        app: AppId,
        /// Jitter on both directions of its server link.
        jitter_ticks: u64,
    },
    /// The first `vehicles` vehicles are cut off from the server for
    /// `duration_ticks`, counted from the event's tick.
    Partition {
        /// How many vehicles are cut off.
        vehicles: usize,
        /// How long the partition lasts.
        duration_ticks: u64,
    },
    /// The server process crashes and a successor is replayed from its
    /// journal; it journals again every `compaction_interval` records and
    /// announces a new incarnation.
    Crash {
        /// The successor journal's compaction interval.
        compaction_interval: u32,
    },
    /// The operator creates a campaign.
    Campaign(CampaignSpec),
}

/// Which end-of-run checks [`FleetScenario::verify`] applies on top of the
/// ones it always applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Invariants {
    /// Only that nothing was applied twice: at most one plug-in per worker.
    /// For runs whose operations may end `Failed`, so that the manifest need
    /// not hold.
    NoDuplicates,
    /// After a truth-resync round, every vehicle reached exactly its desired
    /// manifest, on the server and in its worker PIRTEs.
    GroundTruth,
}

/// Outcome counters of one scenario run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioReport {
    /// Fleet ticks consumed so far.
    pub ticks: u64,
    /// Vehicles in the fleet at the end (initial - removed + added).
    pub surviving: usize,
    /// Reboots executed.
    pub rebooted: usize,
    /// Vehicles removed.
    pub removed: usize,
    /// Vehicles that joined mid-run.
    pub added: usize,
    /// Operations escalated by the reliability and lifecycle planes (retry
    /// exhaustion and fail-fast unreachable failures combined).
    pub retry_failures: u64,
    /// Final transport statistics (conservation held at every tick).
    pub transport: TransportStats,
    /// Tick of the last server crash (0 if the server never crashed).
    pub crashed_at: u64,
    /// Size of the journal replayed at the last crash, in bytes.
    pub journal_bytes: usize,
    /// Server incarnation id at the end (1 = exactly one recovery).
    pub incarnation: u32,
    /// Terminal status of the campaign the run drove, if any.
    pub status: Option<CampaignStatus>,
    /// Vehicles that campaign exposed (had their manifest rewritten).
    pub exposed: u64,
    /// Exposed vehicles whose install converged.
    pub succeeded: u64,
    /// Exposed vehicles whose install failed.
    pub failed: u64,
    /// Vehicles rolled back to their last-good manifest.
    pub rolled_back: u64,
}

/// The assembled fleet scenario.
#[derive(Debug)]
pub struct FleetScenario {
    /// The fleet scheduler (server + hub + vehicles).
    pub fleet: Fleet,
    /// The fleet operator account.
    pub user: UserId,
    handles: Vec<VehicleHandles>,
    workers_per_vehicle: u16,
    /// The shared in-vehicle bus configuration (needed to rebuild vehicles
    /// on reboot and to wire newcomers mid-run).
    bus: BusConfig,
    /// Per-vehicle boot epoch (0 = factory boot; bumped by every reboot).
    epochs: std::collections::HashMap<VehicleId, u32>,
    /// Vehicles registered at build; event indices below it are valid.
    initial_vehicles: usize,
    /// Next VIN/endpoint index (the initial vehicles, then joiners).
    next_index: usize,
    /// Scheduled events not fired yet, in scheduling order.
    script: Vec<(u64, Event)>,
    /// Ticks between the engine's reconcile sweeps (0 disables them).
    reconcile_interval: u64,
    rebooted: usize,
    removed: Vec<VehicleId>,
    /// Vehicles an [`Event::Update`] moved, with the app they now desire.
    updated: Vec<(VehicleId, AppId)>,
    crashed_at: u64,
    journal_bytes: usize,
    /// The campaign the run drives, reported by [`FleetScenario::report`].
    pub(crate) campaign: Option<CampaignId>,
}

/// The built-in speed sensor: a periodic SW-C broadcasting an incrementing
/// reading.
struct SpeedSensor {
    reading: i64,
}

impl ComponentBehavior for SpeedSensor {
    fn on_runnable(&mut self, _runnable: &str, ctx: &mut RteContext<'_>) -> Result<()> {
        self.reading += 1;
        ctx.write("speed_out", Value::I64(self.reading))
    }
}

/// The id of the vehicle registered `index`-th (initial or joined).
fn fleet_vehicle_id(index: usize) -> VehicleId {
    VehicleId::new(format!("VIN-FLEET-{index:04}"))
}

/// The worker ECUs of a vehicle with `workers` of them: ECU2 onwards.
pub(crate) fn worker_ids(workers: u16) -> impl Iterator<Item = EcuId> {
    (0..workers).map(|i| EcuId::new(i + 2))
}

fn mgmt_down_frame(worker: EcuId) -> CanId {
    CanId::new(0x300 + u32::from(worker.index())).expect("static frame id")
}

fn mgmt_up_frame(worker: EcuId) -> CanId {
    CanId::new(0x400 + u32::from(worker.index())).expect("static frame id")
}

/// The hardware configuration the server registers for a fleet vehicle with
/// `workers` worker ECUs.
pub fn fleet_hw(workers: u16) -> HwConf {
    let mut hw = HwConf::new().with_ecu(EcuId::new(1), 1024);
    for worker in worker_ids(workers) {
        hw = hw.with_ecu(worker, 512);
    }
    hw
}

/// The system software configuration matching [`fleet_hw`].
pub fn fleet_system(workers: u16) -> SystemSwConf {
    let mut system = SystemSwConf::new(FLEET_MODEL).with_swc(PluginSwcDecl {
        ecu: EcuId::new(1),
        swc_name: "ecm-swc".into(),
        is_ecm: true,
        virtual_ports: Vec::new(),
    });
    for worker in worker_ids(workers) {
        system = system.with_swc(PluginSwcDecl {
            ecu: worker,
            swc_name: format!("worker-swc-{worker}"),
            is_ecm: false,
            virtual_ports: vec![
                VirtualPortDecl {
                    id: dynar_foundation::ids::VirtualPortId::new(0),
                    name: "SensorIn".into(),
                    kind: VirtualPortKindDecl::TypeIII,
                },
                VirtualPortDecl {
                    id: dynar_foundation::ids::VirtualPortId::new(1),
                    name: "ActOut".into(),
                    kind: VirtualPortKindDecl::TypeIII,
                },
            ],
        });
    }
    system
}

/// The OP plug-in: consume sensor readings on port 0, apply `gain`, actuate
/// on port 1.
fn op_source(gain: i64) -> String {
    format!(
        r#"
loop:
    port_pending 0
    push_int 0
    gt
    jump_if_false idle
    take_port 0
    push_int {gain}
    mul
    write_port 1
    jump loop
idle:
    yield
    jump loop
"#
    )
}

/// Builds one telemetry application: one OP plug-in per worker ECU,
/// `SensorIn` in, `ActOut` out.
///
/// # Errors
///
/// Propagates assembler errors.
pub fn telemetry_app(app: &str, suffix: &str, gain: i64, workers: u16) -> Result<AppDefinition> {
    let op_binary = assemble("OP", &op_source(gain))?.to_bytes();
    let mut definition = AppDefinition::new(AppId::new(app));
    let mut conf = SwConf::new(FLEET_MODEL);
    for worker in worker_ids(workers) {
        let op_id = PluginId::new(format!("OP{suffix}-{worker}"));
        definition = definition.with_plugin(PluginArtifact {
            id: op_id.clone(),
            binary: op_binary.clone(),
            ports: vec![
                PluginPortDecl {
                    name: "data_in".into(),
                    direction: PluginPortDirection::Required,
                },
                PluginPortDecl {
                    name: "act_out".into(),
                    direction: PluginPortDirection::Provided,
                },
            ],
        });
        conf = conf
            .with_placement(op_id.clone(), worker)
            .with_connection(
                op_id.clone(),
                "data_in",
                ConnectionDecl::VirtualPort {
                    name: "SensorIn".into(),
                },
            )
            .with_connection(
                op_id,
                "act_out",
                ConnectionDecl::VirtualPort {
                    name: "ActOut".into(),
                },
            );
    }
    Ok(definition.with_sw_conf(conf))
}

impl FleetScenario {
    /// Builds a fleet with the default configuration (50 vehicles × 4 ECUs).
    ///
    /// # Errors
    ///
    /// Propagates configuration errors from any subsystem.
    pub fn build(vehicles: usize) -> Result<Self> {
        Self::build_with(FleetScenarioConfig {
            vehicles,
            ..FleetScenarioConfig::default()
        })
    }

    /// Builds the fleet scenario with an explicit configuration.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors from any subsystem.
    pub fn build_with(config: FleetScenarioConfig) -> Result<Self> {
        let workers = config.workers_per_vehicle;

        // --- Trusted server: one catalogue, every vehicle registered ------
        let mut server = TrustedServer::with_shards(config.shards);
        let user = UserId::new("fleet-ops");
        server.create_user(user.clone())?;
        server.upload_app(telemetry_app(APP_TELEMETRY, "", GAIN_V1, workers)?)?;
        server.upload_app(telemetry_app(APP_TELEMETRY_V2, "2", GAIN_V2, workers)?)?;

        let mut scenario = FleetScenario {
            fleet: Fleet::new(server, "server", config.transport),
            user,
            handles: Vec::with_capacity(config.vehicles),
            workers_per_vehicle: workers,
            bus: config.bus,
            epochs: std::collections::HashMap::new(),
            initial_vehicles: config.vehicles,
            next_index: 0,
            script: Vec::new(),
            reconcile_interval: 0,
            rebooted: 0,
            removed: Vec::new(),
            updated: Vec::new(),
            crashed_at: 0,
            journal_bytes: 0,
            campaign: None,
        };
        for _ in 0..config.vehicles {
            scenario.add_vehicle_during_run()?;
        }
        Ok(scenario)
    }

    /// Builds a fleet for a scripted scenario: the server retries by
    /// `retry`, every vehicle's server link gets `jitter_ticks` of jitter
    /// both ways plus, if given, an uplink loss override, and the engine
    /// reconciles every `reconcile_interval` ticks (0 never).
    ///
    /// # Errors
    ///
    /// Propagates configuration errors from any subsystem.
    pub(crate) fn scripted(
        config: FleetScenarioConfig,
        retry: &RetryPolicy,
        jitter_ticks: u64,
        uplink_loss: Option<f64>,
        reconcile_interval: u64,
    ) -> Result<Self> {
        let mut scenario = Self::build_with(config)?;
        scenario.fleet.server.set_retry_policy(retry.clone());
        scenario.reconcile_interval = reconcile_interval;
        for index in 0..scenario.initial_vehicles {
            scenario.install_link_faults(&fleet_vehicle_id(index), jitter_ticks, uplink_loss);
        }
        Ok(scenario)
    }

    /// Per-vehicle handles (worker ECUs, SW-C instances, PIRTEs).
    pub fn handles(&self) -> &[VehicleHandles] {
        &self.handles
    }

    /// Worker ECUs per vehicle.
    pub fn workers_per_vehicle(&self) -> u16 {
        self.workers_per_vehicle
    }

    /// Reboots a vehicle: the old incarnation — every ECU, every installed
    /// plug-in, the ECM's dedup window — is discarded (an ECM's state is
    /// volatile), its endpoint is unregistered so in-flight traffic is
    /// voided, and a factory-fresh incarnation with the **next boot epoch**
    /// takes its place.  The server is parked via `mark_offline`; recovery is
    /// fully protocol-driven: the new gateway announces a
    /// [`dynar_core::message::ManagementMessage::StateReport`] (retrying over
    /// the lossy uplink) and the server resyncs and reconciles from it.
    ///
    /// # Errors
    ///
    /// Returns [`dynar_foundation::error::DynarError::NotFound`] for unknown
    /// vehicles and propagates vehicle construction errors.
    pub fn reboot_vehicle(&mut self, vehicle: &VehicleId) -> Result<()> {
        let endpoint = self
            .fleet
            .endpoint_of(vehicle)
            .ok_or_else(|| {
                dynar_foundation::error::DynarError::not_found("fleet vehicle", vehicle)
            })?
            .to_owned();
        let epoch = self.epochs.entry(vehicle.clone()).or_insert(0);
        *epoch += 1;
        let epoch = *epoch;
        self.rebooted += 1;

        // Park the server first (no more pushes), then void the dead
        // incarnation's endpoint before the new one registers.
        self.fleet.server.mark_offline(vehicle);
        self.fleet.unregister_endpoint(&endpoint);

        let hub = self.fleet.hub_for(vehicle);
        let (fresh, worker_handles) = build_vehicle(
            &endpoint,
            self.workers_per_vehicle,
            self.bus.clone(),
            &hub,
            epoch,
        )?;
        self.fleet.replace_vehicle(vehicle, fresh)?;
        if let Some(handle) = self.handles.iter_mut().find(|h| &h.id == vehicle) {
            handle.workers = worker_handles;
        }
        Ok(())
    }

    /// Removes a vehicle from the fleet for good: endpoint unregistered,
    /// outstanding server operations failed fast as unreachable (which
    /// [`FleetScenario::verify`] checks).
    ///
    /// # Errors
    ///
    /// Returns [`dynar_foundation::error::DynarError::NotFound`] for unknown
    /// vehicles.
    pub fn remove_vehicle(&mut self, vehicle: &VehicleId) -> Result<()> {
        self.fleet.remove_vehicle(vehicle)?;
        self.handles.retain(|h| &h.id != vehicle);
        self.epochs.remove(vehicle);
        self.removed.push(vehicle.clone());
        Ok(())
    }

    /// Adds a factory-fresh vehicle, also while the fleet is running
    /// (registered on the server, its ECM on the hub of its shard, epoch 0).
    /// Returns its id; the caller declares its desired manifest to put it to
    /// work.
    ///
    /// # Errors
    ///
    /// Propagates registration and construction errors.
    pub fn add_vehicle_during_run(&mut self) -> Result<VehicleId> {
        let index = self.next_index;
        self.next_index += 1;
        let vehicle_id = fleet_vehicle_id(index);
        let endpoint = format!("vehicle-{index}");
        let workers = self.workers_per_vehicle;
        self.fleet.server.register_vehicle(
            vehicle_id.clone(),
            fleet_hw(workers),
            fleet_system(workers),
        )?;
        self.fleet.server.bind_vehicle(&self.user, &vehicle_id)?;
        let hub = self.fleet.hub_for(&vehicle_id);
        let (vehicle, worker_handles) =
            build_vehicle(&endpoint, workers, self.bus.clone(), &hub, 0)?;
        self.fleet
            .add_vehicle(vehicle_id.clone(), endpoint, vehicle)?;
        self.handles.push(VehicleHandles {
            id: vehicle_id.clone(),
            workers: worker_handles,
        });
        Ok(vehicle_id)
    }

    /// Installs the v1 telemetry app across the fleet in staged waves, each
    /// run on the engine until it is installed.
    ///
    /// # Errors
    ///
    /// Propagates deployment rejections, wave timeouts and failed installs.
    pub fn install_telemetry(&mut self, wave_size: usize) -> Result<()> {
        let targets = self.fleet.vehicle_ids().to_vec();
        self.waves_to(WaveOp::Deploy, APP_TELEMETRY, &targets, wave_size)
    }

    /// Updates the given vehicles from v1 to v2 telemetry (uninstall waves
    /// followed by install waves), while the rest of the fleet keeps running.
    ///
    /// # Errors
    ///
    /// Propagates rejections, wave timeouts and failed operations.
    pub fn update_telemetry(&mut self, targets: &[VehicleId], wave_size: usize) -> Result<()> {
        self.waves_to(WaveOp::Uninstall, APP_TELEMETRY, targets, wave_size)?;
        self.waves_to(WaveOp::Deploy, APP_TELEMETRY_V2, targets, wave_size)
    }

    /// Runs `op` for `app` over `targets` in waves of `wave_size`, each to
    /// its wanted status within 600 ticks.
    fn waves_to(
        &mut self,
        op: WaveOp,
        app: &str,
        targets: &[VehicleId],
        wave_size: usize,
    ) -> Result<()> {
        let app = AppId::new(app);
        for wave in targets.chunks(wave_size.max(1)) {
            let (_, failed) = self.wave(op, &app, wave, 600)?;
            if failed > 0 {
                return Err(DynarError::ProtocolViolation(format!(
                    "{op:?} of {app} failed on {failed} of {} vehicles",
                    wave.len()
                )));
            }
        }
        Ok(())
    }

    /// Runs one wave on the engine: `op` for `app` fires on `targets` now,
    /// and the fleet runs until none of them has an operation for `app`
    /// pending.  Returns the targets that reached the wave's wanted status
    /// (`NotInstalled` for an uninstall, `Installed` otherwise) and how many
    /// failed.
    ///
    /// # Errors
    ///
    /// Propagates the wave's rejections, step errors and the engine's
    /// horizon error; returns [`DynarError::ProtocolViolation`] if a target
    /// resolved to any other status.
    pub fn wave(
        &mut self,
        op: WaveOp,
        app: &AppId,
        targets: &[VehicleId],
        horizon: u64,
    ) -> Result<(Vec<VehicleId>, usize)> {
        if !targets.is_empty() {
            let event = Event::Wave {
                op,
                app: app.clone(),
                vehicles: targets.to_vec(),
            };
            self.schedule(self.fleet.now().as_u64(), event)?;
            self.run_until(horizon, |scenario| {
                targets.iter().all(|vehicle| {
                    !matches!(
                        scenario.fleet.server.deployment_status(vehicle, app),
                        DeploymentStatus::Pending { .. }
                    )
                })
            })?;
        }
        let wanted = match op {
            WaveOp::Uninstall => DeploymentStatus::NotInstalled,
            WaveOp::Deploy | WaveOp::SetDesired => DeploymentStatus::Installed,
        };
        let (mut reached, mut failed) = (Vec::new(), 0);
        for vehicle in targets {
            match self.fleet.server.deployment_status(vehicle, app) {
                status if status == wanted => reached.push(vehicle.clone()),
                DeploymentStatus::Failed(_) => failed += 1,
                other => {
                    return Err(DynarError::ProtocolViolation(format!(
                        "{vehicle}: {op:?} of {app} resolved to {other:?}"
                    )))
                }
            }
        }
        Ok((reached, failed))
    }

    /// Schedules `event` at fleet tick `tick` (an overdue event fires on the
    /// next tick of [`FleetScenario::run_until`]).
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::InvalidConfiguration`] if the event names a
    /// vehicle index at or above the initial fleet size.
    pub fn schedule(&mut self, tick: u64, event: Event) -> Result<()> {
        if let Event::Reboot(index) | Event::Remove(index) = event {
            if index >= self.initial_vehicles {
                return Err(DynarError::invalid_config(format!(
                    "event at tick {tick} names vehicle {index} of a fleet of {}",
                    self.initial_vehicles
                )));
            }
        }
        self.script.push((tick, event));
        Ok(())
    }

    /// The scenario engine.  Each tick: fail once `horizon` ticks have
    /// passed since the call, fire the due events in the order they were
    /// scheduled, reconcile every vehicle on ticks that are a multiple of the
    /// reconcile interval, step the fleet ([`FleetScenario::step`]), and
    /// return once `stop` holds.
    ///
    /// # Errors
    ///
    /// Propagates event and step errors; returns
    /// [`DynarError::RetryExhausted`] when the horizon runs out.
    pub fn run_until(
        &mut self,
        horizon: u64,
        mut stop: impl FnMut(&FleetScenario) -> bool,
    ) -> Result<()> {
        let start = self.fleet.now().as_u64();
        loop {
            let now = self.fleet.now().as_u64();
            if now - start >= horizon {
                return Err(DynarError::RetryExhausted {
                    operation: format!("scenario convergence within {horizon} ticks"),
                    attempts: u32::try_from(now).unwrap_or(u32::MAX),
                });
            }
            let due: Vec<(u64, Event)> = self
                .script
                .extract_if(.., |(tick, _)| *tick <= now)
                .collect();
            for (tick, event) in due {
                self.fire(tick, event)?;
            }
            self.reconcile_sweep(now);
            self.step()?;
            if stop(self) {
                return Ok(());
            }
        }
    }

    /// The convergent control loop's periodic half: reconciles every vehicle
    /// against its desired manifest on ticks that are a multiple of the
    /// reconcile interval (0 disables the sweep).
    fn reconcile_sweep(&mut self, now: u64) {
        if self.reconcile_interval > 0 && now.is_multiple_of(self.reconcile_interval) {
            for vehicle in self.fleet.vehicle_ids().to_vec() {
                let _ = self.fleet.server.reconcile(&vehicle);
            }
        }
    }

    /// Applies one event scheduled at `tick`.
    fn fire(&mut self, tick: u64, event: Event) -> Result<()> {
        let user = self.user.clone();
        match event {
            Event::Wave { op, app, vehicles } => {
                for vehicle in &vehicles {
                    if self.fleet.vehicle(vehicle).is_none() {
                        continue;
                    }
                    let server = &mut self.fleet.server;
                    match op {
                        WaveOp::Deploy => server.deploy(&user, vehicle, &app)?,
                        WaveOp::Uninstall => server.uninstall(&user, vehicle, &app)?,
                        WaveOp::SetDesired => server.set_desired(&user, vehicle, &app)?,
                    };
                }
            }
            Event::Update { from, to, count } => {
                let targets = self.fleet.vehicle_ids()[..count.min(self.fleet.len())].to_vec();
                for vehicle in targets {
                    self.fleet.server.clear_desired(&user, &vehicle, &from)?;
                    self.fleet.server.set_desired(&user, &vehicle, &to)?;
                    self.updated.push((vehicle, to.clone()));
                }
            }
            Event::Reboot(index) | Event::Remove(index) => {
                // A vehicle removed earlier has nothing left to reboot or remove.
                let vehicle = fleet_vehicle_id(index);
                if self.fleet.vehicle(&vehicle).is_some() {
                    if matches!(event, Event::Reboot(_)) {
                        self.reboot_vehicle(&vehicle)?;
                    } else {
                        self.remove_vehicle(&vehicle)?;
                    }
                }
            }
            Event::Join { app, jitter_ticks } => {
                let vehicle = self.add_vehicle_during_run()?;
                self.install_link_faults(&vehicle, jitter_ticks, None);
                self.fleet.server.set_desired(&user, &vehicle, &app)?;
            }
            Event::Partition {
                vehicles,
                duration_ticks,
            } => {
                let heal_at = Tick::new(tick + duration_ticks);
                let server = self.fleet.server_endpoint();
                for index in 0..vehicles.min(self.initial_vehicles) {
                    if let Some(endpoint) = self.fleet.endpoint_of(&fleet_vehicle_id(index)) {
                        self.fleet.partition(server, endpoint, heal_at);
                    }
                }
            }
            Event::Crash {
                compaction_interval,
            } => self.crash_and_replay(compaction_interval)?,
            Event::Campaign(spec) => {
                self.campaign = Some(spec.id.clone());
                self.fleet.server.create_campaign(&user, spec)?;
            }
        }
        Ok(())
    }

    /// Kills the server process and replays its journal into a successor,
    /// which must be byte-identical (snapshot and ledger) to the crashed one.
    /// The successor journals too and bumps its incarnation id, re-stamping
    /// everything still queued or outstanding and soliciting a state report
    /// from every gateway.  The transport outlives the server, as the real
    /// network would.
    fn crash_and_replay(&mut self, compaction_interval: u32) -> Result<()> {
        let server = &self.fleet.server;
        let journal = server.journal_bytes().ok_or_else(|| {
            DynarError::ProtocolViolation("crash scheduled but journaling is off".into())
        })?;
        let mut successor = TrustedServer::replay_with_shards(journal, server.shard_count())?;
        if successor.snapshot_bytes() != server.snapshot_bytes()
            || successor.ledger() != server.ledger()
        {
            return Err(DynarError::ProtocolViolation(
                "replayed server (snapshot or ledger) diverges from the crashed one".into(),
            ));
        }
        self.crashed_at = self.fleet.now().as_u64();
        self.journal_bytes = journal.len();
        successor.enable_journal(compaction_interval);
        successor.begin_incarnation();
        self.fleet.server = successor;
        Ok(())
    }

    /// `true` once no scheduled event is left and the fleet converged
    /// ([`FleetScenario::fleet_converged`]).
    pub fn settled(&self) -> bool {
        self.script.is_empty() && self.fleet_converged()
    }

    /// The run's outcome counters so far.
    pub fn report(&self) -> ScenarioReport {
        let stats = self.fleet.stats();
        let campaign = self
            .campaign
            .as_ref()
            .and_then(|id| self.fleet.server.campaign(id));
        let counters = campaign.map(|c| c.counters).unwrap_or_default();
        ScenarioReport {
            ticks: stats.ticks,
            surviving: self.fleet.len(),
            rebooted: self.rebooted,
            removed: self.removed.len(),
            added: self.next_index - self.initial_vehicles,
            retry_failures: stats.retry_failures,
            transport: self.fleet.transport_stats(),
            crashed_at: self.crashed_at,
            journal_bytes: self.journal_bytes,
            incarnation: self.fleet.server.incarnation(),
            status: campaign.map(|c| c.status),
            exposed: counters.exposed,
            succeeded: counters.succeeded,
            failed: counters.failed,
            rolled_back: counters.rolled_back,
        }
    }

    /// One fleet round, then the transport conservation check
    /// (`sent == delivered + lost + dropped + in-flight`) every scenario
    /// asserts at every tick.
    ///
    /// # Errors
    ///
    /// Propagates fleet step errors; returns
    /// [`DynarError::ProtocolViolation`] if conservation is violated.
    pub fn step(&mut self) -> Result<()> {
        self.fleet.step()?;
        let stats = self.fleet.transport_stats();
        if !stats.is_conserved() {
            return Err(DynarError::ProtocolViolation(format!(
                "transport stats conservation violated at tick {}: {stats:?}",
                self.fleet.now()
            )));
        }
        Ok(())
    }

    /// Installs `jitter_ticks` of jitter on both directions of one vehicle's
    /// server link, and the loss override on its uplink if given.  Faults
    /// are keyed by endpoint names, so they survive reboots — and server
    /// crashes, since the transport outlives the server process.
    fn install_link_faults(
        &self,
        vehicle: &VehicleId,
        jitter_ticks: u64,
        uplink_loss: Option<f64>,
    ) {
        if jitter_ticks == 0 && uplink_loss.is_none() {
            return;
        }
        let Some(endpoint) = self.fleet.endpoint_of(vehicle) else {
            return;
        };
        let server = self.fleet.server_endpoint();
        self.fleet
            .set_link_fault(server, endpoint, LinkFault::jittery(jitter_ticks));
        let uplink = LinkFault {
            loss_probability: uplink_loss,
            ..LinkFault::jittery(jitter_ticks)
        };
        self.fleet.set_link_fault(endpoint, server, uplink);
    }

    /// Returns `true` when every vehicle reached exactly its desired
    /// manifest and nothing is pending or outstanding.
    pub fn fleet_converged(&self) -> bool {
        let server = &self.fleet.server;
        self.fleet.vehicle_ids().iter().all(|vehicle| {
            server.pending_operations(vehicle).is_empty()
                && server.outstanding_count(vehicle) == 0
                && manifest_reached(server, vehicle)
        })
    }

    /// Asks every ECM for a state report and lets the resync path confirm
    /// (or repair) the server's observed state.  Requests and reports travel
    /// the same lossy links, so up to eight rounds are issued, each followed
    /// by twelve conservation-checked ticks.
    ///
    /// # Errors
    ///
    /// Propagates [`FleetScenario::step`] errors.
    fn truth_resync(&mut self) -> Result<()> {
        for _ in 0..8 {
            for vehicle in self.fleet.vehicle_ids().to_vec() {
                let _ = self.fleet.server.request_state_report(&vehicle);
            }
            for _ in 0..12 {
                self.step()?;
            }
            if self.fleet_converged() {
                break;
            }
        }
        Ok(())
    }

    /// The end-of-run checker, naming the first violation.  With
    /// [`Invariants::GroundTruth`] it first runs a truth-resync round.  One
    /// pass over every worker PIRTE then checks that none of any
    /// incarnation rejected an operation (nothing was applied twice — not
    /// across a boot epoch, a server incarnation, the dedup window or a
    /// rollback) and that its compiled routes are consistent; and either
    /// that it hosts at most one plug-in ([`Invariants::NoDuplicates`]) or
    /// exactly the plug-ins the desired manifest implies, with every desired
    /// app `Installed` and the server's observed state equal to the manifest
    /// ([`Invariants::GroundTruth`]).  Always checked as well: every desired
    /// app of a removed vehicle settled or failed fast as unreachable, every
    /// vehicle an [`Event::Update`] moved still desires exactly its new app,
    /// and a journaling server's journal replays byte-identically.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::ProtocolViolation`] describing the violation and
    /// propagates truth-resync step errors.
    pub fn verify(&mut self, invariants: Invariants) -> Result<()> {
        let ground_truth = invariants == Invariants::GroundTruth;
        if ground_truth {
            self.truth_resync()?;
        }
        let server = &self.fleet.server;
        let violation = |message: String| Err(DynarError::ProtocolViolation(message));
        for handle in &self.handles {
            let id = &handle.id;
            let desired = server.desired_manifest(id);
            if ground_truth && !manifest_reached(server, id) {
                let observed = server.installed_apps(id);
                let statuses: Vec<DeploymentStatus> = desired
                    .iter()
                    .map(|app| server.deployment_status(id, app))
                    .collect();
                return violation(format!(
                    "{id}: observed {observed:?} (desired apps {statuses:?}) has not reached \
                     desired {desired:?} after truth resync"
                ));
            }
            for (worker, _, pirte) in &handle.workers {
                let pirte = pirte.lock();
                let rejected = pirte.stats().rejected_operations;
                if rejected != 0 {
                    return violation(format!(
                        "{id}/{worker}: {rejected} rejected operations — an operation was \
                         applied twice"
                    ));
                }
                let mut actual: Vec<PluginId> = pirte
                    .plugin_states()
                    .into_iter()
                    .map(|(plugin, _)| plugin)
                    .collect();
                actual.sort();
                if ground_truth {
                    let mut expected: Vec<PluginId> = desired
                        .iter()
                        .map(|app| expected_plugin(app, *worker))
                        .collect();
                    expected.sort();
                    if actual != expected {
                        return violation(format!(
                            "{id}/{worker}: PIRTE hosts {actual:?}, manifest implies {expected:?}"
                        ));
                    }
                } else if actual.len() > 1 {
                    return violation(format!(
                        "{id}/{worker}: {} plug-ins installed, at most 1 expected",
                        actual.len()
                    ));
                }
                if !pirte.verify_compiled_routes() {
                    return violation(format!("{id}/{worker}: compiled routes diverged"));
                }
            }
        }
        for id in &self.removed {
            if !server.pending_operations(id).is_empty() {
                return violation(format!(
                    "{id}: removed vehicle still has pending operations"
                ));
            }
            for app in server.desired_manifest(id) {
                if let DeploymentStatus::Failed(reason) = server.deployment_status(id, &app) {
                    if !reason.contains("unreachable") {
                        return violation(format!(
                            "{id}: removed vehicle failed with '{reason}', expected the \
                             distinct unreachable reason"
                        ));
                    }
                }
            }
        }
        for (id, app) in &self.updated {
            // An updated vehicle removed afterwards has no manifest to check.
            let desired = server.desired_manifest(id);
            if self.fleet.vehicle(id).is_some() && desired != [app.clone()] {
                return violation(format!("{id}: updated vehicle's manifest is {desired:?}"));
            }
        }
        if let Some(journal) = server.journal_bytes() {
            let replayed = TrustedServer::replay_with_shards(journal, server.shard_count())?;
            if replayed.snapshot_bytes() != server.snapshot_bytes() {
                return violation("journal replay diverges from the live server".into());
            }
        }
        Ok(())
    }

    /// The last actuated value on one worker ECU of one vehicle.
    pub fn actuator_value(&self, vehicle: &VehicleId, worker: EcuId) -> Option<Value> {
        let handles = self.handles.iter().find(|h| &h.id == vehicle)?;
        let (_, swc, _) = handles.workers.iter().find(|(ecu, _, _)| *ecu == worker)?;
        self.fleet
            .vehicle(vehicle)?
            .ecu(worker)?
            .rte()
            .read_port_by_name(*swc, "act_out")
            .ok()
    }
}

/// `true` once `vehicle`'s server-side state equals its desired manifest:
/// observed equals desired, and every desired app is `Installed`.
fn manifest_reached(server: &TrustedServer, vehicle: &VehicleId) -> bool {
    let desired = server.desired_manifest(vehicle);
    server.installed_apps(vehicle) == desired
        && desired
            .iter()
            .all(|app| server.deployment_status(vehicle, app) == DeploymentStatus::Installed)
}

/// The plug-in id `app` places on `worker`, mirroring the naming of
/// [`telemetry_app`] and [`crate::scenario::campaign::bad_telemetry_app`].
fn expected_plugin(app: &AppId, worker: EcuId) -> PluginId {
    let suffix = match app.name() {
        APP_TELEMETRY_V2 => "2",
        APP_TELEMETRY_BAD => "BAD",
        _ => "",
    };
    PluginId::new(format!("OP{suffix}-{worker}"))
}

/// Wires one fleet vehicle: the ECM ECU (gateway + speed sensor) and
/// `workers` worker ECUs with plug-in SW-Cs, at the given boot epoch.
///
/// Public so other harnesses (the actor runtime, the UDP federation
/// example) can build protocol-complete vehicles on any transport backend.
pub fn build_vehicle(
    endpoint: &str,
    workers: u16,
    bus: BusConfig,
    hub: &SharedHub,
    boot_epoch: u32,
) -> Result<(Vehicle, Vec<WorkerHandle>)> {
    let ecm_ecu_id = EcuId::new(1);
    let mut ecm_config = EcmConfig::new(PluginSwcConfig::new("ecm-swc"), endpoint, "server")
        .with_boot_epoch(boot_epoch);
    for worker in worker_ids(workers) {
        ecm_config =
            ecm_config.with_remote_swc(worker, format!("to_{worker}"), format!("from_{worker}"));
    }

    let mut ecm_ecu = Ecu::new(ecm_ecu_id);
    let ecm_descriptor = ecm_config.descriptor()?;
    let (ecm_behavior, _ecm_pirte) = EcmSwc::create(ecm_ecu_id, ecm_config, hub.clone());
    let ecm_swc = ecm_ecu.add_component(ecm_descriptor, Box::new(ecm_behavior))?;

    let sensor_descriptor = SwcDescriptor::new("speed-sensor")
        .with_port(PortSpec::sender_receiver(
            "speed_out",
            PortDirection::Provided,
        ))
        .with_runnable(RunnableSpec::new(
            "sample",
            Trigger::Periodic(SENSOR_PERIOD),
        ));
    let sensor_swc =
        ecm_ecu.add_component(sensor_descriptor, Box::new(SpeedSensor { reading: 0 }))?;
    let sensor_frame = CanId::new(SENSOR_FRAME)?;
    ecm_ecu.map_signal_out(sensor_swc, "speed_out", sensor_frame)?;

    let mut ecus = Vec::with_capacity(usize::from(workers) + 1);
    let mut worker_handles = Vec::with_capacity(usize::from(workers));
    let mut frames = vec![sensor_frame];
    for worker in worker_ids(workers) {
        let config = PluginSwcConfig::new(format!("worker-swc-{worker}"))
            .with_type_i_ports("mgmt_in", "mgmt_out")
            .with_virtual_port(VirtualPortSpec::new(
                dynar_foundation::ids::VirtualPortId::new(0),
                "SensorIn",
                PortKind::TypeIII,
                PortDataDirection::ToPlugins,
                "sensor_in",
            ))
            .with_virtual_port(VirtualPortSpec::new(
                dynar_foundation::ids::VirtualPortId::new(1),
                "ActOut",
                PortKind::TypeIII,
                PortDataDirection::ToSystem,
                "act_out",
            ));
        let mut ecu = Ecu::new(worker);
        let descriptor = config.descriptor()?;
        let (behavior, pirte) = PluginSwc::create(worker, config);
        let swc = ecu.add_component(descriptor, Box::new(behavior))?;

        ecu.map_signal_in(sensor_frame, swc, "sensor_in")?;
        ecm_ecu.map_signal_out(ecm_swc, &format!("to_{worker}"), mgmt_down_frame(worker))?;
        ecu.map_signal_in(mgmt_down_frame(worker), swc, "mgmt_in")?;
        ecu.map_signal_out(swc, "mgmt_out", mgmt_up_frame(worker))?;
        ecm_ecu.map_signal_in(mgmt_up_frame(worker), ecm_swc, &format!("from_{worker}"))?;

        frames.extend([mgmt_down_frame(worker), mgmt_up_frame(worker)]);
        ecus.push(ecu);
        worker_handles.push((worker, swc, pirte));
    }

    let mut all_ecus = vec![ecm_ecu];
    all_ecus.extend(ecus);
    let mut vehicle = Vehicle::new(all_ecus, bus);
    vehicle.open_acceptance_filters(&frames);
    Ok((vehicle, worker_handles))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_fleet_healthy(scenario: &mut FleetScenario, expected_plugins: usize) {
        let handle_data: Vec<(VehicleId, Vec<WorkerHandle>)> = scenario
            .handles()
            .iter()
            .map(|h| (h.id.clone(), h.workers.clone()))
            .collect();
        for (vehicle_id, workers) in handle_data {
            let bus = scenario.fleet.vehicle(&vehicle_id).unwrap().bus().stats();
            assert_eq!(bus.dropped, 0, "{vehicle_id}: lossless bus");
            for (worker, _, pirte) in workers {
                let stats = pirte.lock().stats();
                assert_eq!(stats.plugin_faults, 0, "{vehicle_id}/{worker}: no faults");
                assert_eq!(
                    pirte.lock().plugin_count(),
                    expected_plugins,
                    "{vehicle_id}/{worker}: plug-in count"
                );
                assert!(pirte.lock().verify_compiled_routes());
            }
            let vehicle = scenario.fleet.vehicle_mut(&vehicle_id).unwrap();
            for ecu_id in [1u16, 2, 3, 4].map(EcuId::new) {
                let ecu = vehicle.ecu_mut(ecu_id).unwrap();
                assert!(
                    ecu.take_behaviour_errors().is_empty(),
                    "{vehicle_id}/{ecu_id}: no behaviour errors"
                );
            }
        }
    }

    #[test]
    fn six_vehicle_fleet_installs_in_waves_and_actuates() {
        let mut scenario = FleetScenario::build(6).unwrap();
        scenario.install_telemetry(2).unwrap();
        assert_fleet_healthy(&mut scenario, 1);

        scenario.fleet.run(80).unwrap();
        for handle in scenario.handles().to_vec() {
            for (worker, _, _) in &handle.workers {
                let actuated = scenario.actuator_value(&handle.id, *worker).unwrap();
                let Value::I64(v) = actuated else {
                    panic!("{}/{worker}: no actuation, got {actuated:?}", handle.id);
                };
                assert!(v > 0, "{}/{worker}: sensor chain is live", handle.id);
                assert_eq!(v % GAIN_V1, 0, "{}/{worker}: v1 gain applied", handle.id);
            }
        }
    }

    #[test]
    fn update_wave_changes_the_gain_while_the_rest_keeps_driving() {
        let mut scenario = FleetScenario::build(4).unwrap();
        scenario.install_telemetry(4).unwrap();
        scenario.fleet.run(40).unwrap();

        // Update the first two vehicles to v2; the others stay on v1.
        let targets: Vec<VehicleId> = scenario
            .fleet
            .vehicle_ids()
            .iter()
            .take(2)
            .cloned()
            .collect();
        scenario.update_telemetry(&targets, 2).unwrap();
        scenario.fleet.run(60).unwrap();

        for (index, handle) in scenario.handles().to_vec().iter().enumerate() {
            let gain = if index < 2 { GAIN_V2 } else { GAIN_V1 };
            for (worker, _, pirte) in &handle.workers {
                let actuated = scenario.actuator_value(&handle.id, *worker).unwrap();
                let Value::I64(v) = actuated else {
                    panic!("{}/{worker}: no actuation", handle.id);
                };
                assert_eq!(v % gain, 0, "{}/{worker}: gain {gain} applied", handle.id);
                assert!(pirte.lock().verify_compiled_routes());
            }
        }
        assert_fleet_healthy(&mut scenario, 1);
    }

    /// Regression (satellite): with a vehicle's endpoint unregistered from
    /// the hub, the server used to retransmit until the retry budget
    /// exhausted with a misleading "retry budget exhausted" failure.  The
    /// dropped-destination feedback now parks the vehicle instead: the
    /// operation stays pending (frozen), no budget burns.
    #[test]
    fn dead_endpoints_park_the_vehicle_instead_of_burning_the_retry_budget() {
        let mut scenario = FleetScenario::build_with(FleetScenarioConfig {
            vehicles: 2,
            workers_per_vehicle: 2,
            ..FleetScenarioConfig::default()
        })
        .unwrap();
        let user = scenario.user.clone();
        let victim = scenario.fleet.vehicle_ids()[0].clone();
        let endpoint = scenario.fleet.endpoint_of(&victim).unwrap().to_owned();
        scenario.fleet.unregister_endpoint(&endpoint);

        let app = AppId::new(APP_TELEMETRY);
        scenario
            .fleet
            .server
            .set_desired(&user, &victim, &app)
            .unwrap();
        // Far past the whole retry horizon.
        let horizon = scenario.fleet.server.retry_horizon_ticks();
        scenario.fleet.run(horizon + 50).unwrap();

        assert_eq!(
            scenario.fleet.stats().retry_failures,
            0,
            "no budget burned against the dead link"
        );
        assert!(!scenario.fleet.server.is_online(&victim), "parked");
        assert!(matches!(
            scenario.fleet.server.deployment_status(&victim, &app),
            dynar_server::server::DeploymentStatus::Pending { .. }
        ));
        // The other vehicle is unaffected.
        let healthy = scenario.fleet.vehicle_ids()[1].clone();
        assert!(scenario.fleet.server.is_online(&healthy));

        // A reboot brings the victim back (fresh endpoint registration, new
        // epoch, protocol-driven resync) and the parked manifest converges.
        scenario.reboot_vehicle(&victim).unwrap();
        scenario.fleet.run(150).unwrap();
        assert_eq!(
            scenario.fleet.server.deployment_status(&victim, &app),
            dynar_server::server::DeploymentStatus::Installed
        );
    }

    #[test]
    fn remove_and_add_keep_the_fleet_indexes_consistent() {
        let mut scenario = FleetScenario::build_with(FleetScenarioConfig {
            vehicles: 4,
            workers_per_vehicle: 2,
            ..FleetScenarioConfig::default()
        })
        .unwrap();
        let ids = scenario.fleet.vehicle_ids().to_vec();
        scenario.remove_vehicle(&ids[1]).unwrap();
        assert_eq!(scenario.fleet.len(), 3);
        assert!(scenario.fleet.vehicle(&ids[1]).is_none());
        assert_eq!(scenario.handles().len(), 3);
        // The swap-removed hole is repointed: every surviving id still
        // resolves to its own entry and endpoint.
        for id in [&ids[0], &ids[2], &ids[3]] {
            assert!(scenario.fleet.vehicle(id).is_some(), "{id} resolves");
            let endpoint = scenario.fleet.endpoint_of(id).unwrap().to_owned();
            assert!(scenario.fleet.endpoint_registered(&endpoint));
        }
        assert!(
            !scenario.fleet.endpoint_registered("vehicle-1"),
            "removed endpoint unregistered"
        );
        // Removing twice errors; the fleet keeps running and can grow again.
        assert!(scenario.fleet.remove_vehicle(&ids[1]).is_err());
        let newcomer = scenario.add_vehicle_during_run().unwrap();
        assert_eq!(scenario.fleet.len(), 4);
        assert!(scenario.fleet.vehicle(&newcomer).is_some());
        scenario.fleet.run(10).unwrap();
    }

    #[test]
    fn fifty_vehicle_fleet_survives_a_staged_install() {
        let mut scenario = FleetScenario::build(50).unwrap();
        assert_eq!(scenario.fleet.len(), 50);
        scenario.install_telemetry(10).unwrap();
        scenario.fleet.run(50).unwrap();
        assert_fleet_healthy(&mut scenario, 1);
        let stats = scenario.fleet.stats();
        assert!(
            stats.downlink_messages >= 150,
            "3 packages × 50 vehicles pushed, got {}",
            stats.downlink_messages
        );
        assert!(
            stats.uplink_messages >= 150,
            "every package acknowledged, got {}",
            stats.uplink_messages
        );
    }
}
