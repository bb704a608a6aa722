//! Deterministic multi-ECU soak tests: the demonstrator scenarios plus a
//! ten-ECU fleet driven through the trusted server for thousands of ticks,
//! with PIRTE / bus / kernel statistics invariants checked along the way.
//!
//! These are the repository's first scenario-diversity anchors beyond the
//! paper's own figures: they exercise sustained operation (not just the first
//! few ticks after installation), the full install → update → uninstall life
//! cycle, and a topology wider than the two-ECU model car.

use dynar::bus::frame::CanId;
use dynar::bus::network::BusConfig;
use dynar::core::plugin::PluginPortDirection;
use dynar::core::swc::{PluginSwc, PluginSwcConfig, SharedPirte};
use dynar::core::virtual_port::{PortDataDirection, PortKind, VirtualPortSpec};
use dynar::ecm::gateway::{EcmConfig, EcmSwc, SharedHub};
use dynar::fes::device::SmartPhone;
use dynar::fes::transport::{TransportConfig, TransportHub};
use dynar::foundation::ids::{AppId, EcuId, PluginId, SwcId, UserId, VehicleId, VirtualPortId};
use dynar::foundation::value::Value;
use dynar::rte::ecu::Ecu;
use dynar::server::model::{
    AppDefinition, ConnectionDecl, HwConf, PluginArtifact, PluginPortDecl, PluginSwcDecl, SwConf,
    SystemSwConf, VirtualPortDecl, VirtualPortKindDecl,
};
use dynar::server::server::{DeploymentStatus, TrustedServer};
use dynar::sim::scenario::quickstart::Quickstart;
use dynar::sim::scenario::remote_car::RemoteCarScenario;
use dynar::sim::world::Vehicle;
use dynar::sim::Fleet;
use dynar::vm::assembler::assemble;

mod lossy {
    //! The lossy soak: a fleet installing over a transport that loses
    //! messages, asserting that no management operation outlives the
    //! server's retry horizon — it resolves (installed or typed-failed) or
    //! the reliability plane has a bug.

    use dynar::fes::transport::TransportConfig;
    use dynar::foundation::ids::AppId;
    use dynar::server::server::DeploymentStatus;
    use dynar::sim::scenario::fleet::{FleetScenario, FleetScenarioConfig, APP_TELEMETRY};

    #[test]
    fn no_pending_operation_survives_the_retry_horizon() {
        let mut scenario = FleetScenario::build_with(FleetScenarioConfig {
            vehicles: 4,
            transport: TransportConfig {
                latency_ticks: 1,
                loss_probability: 0.08,
                seed: 0x50AC,
            },
            ..FleetScenarioConfig::default()
        })
        .unwrap();
        let user = scenario.user.clone();
        let app = AppId::new(APP_TELEMETRY);
        let targets = scenario.fleet.vehicle_ids().to_vec();
        scenario.fleet.deploy_wave(&user, &app, &targets).unwrap();

        // The horizon plus margin for transport latency and vehicle-internal
        // relaying: past this point nothing may still be pending.
        let horizon = scenario.fleet.server.retry_horizon_ticks() + 120;
        scenario.fleet.run(horizon).unwrap();

        for vehicle in &targets {
            let status = scenario.fleet.server.deployment_status(vehicle, &app);
            assert!(
                !matches!(status, DeploymentStatus::Pending { .. }),
                "{vehicle}: operation still pending after the retry horizon: {status:?}"
            );
            assert!(
                scenario.fleet.server.pending_operations(vehicle).is_empty(),
                "{vehicle}: pending operations survived the horizon"
            );
            assert_eq!(
                scenario.fleet.server.outstanding_count(vehicle),
                0,
                "{vehicle}: outstanding retransmission state survived the horizon"
            );
        }
        let transport = scenario.fleet.transport_stats();
        assert!(
            transport.lost > 0,
            "the loss model must bite: {transport:?}"
        );
        assert!(transport.is_conserved(), "{transport:?}");

        // At 8 % loss with the default retry budget every install converges.
        for vehicle in &targets {
            assert_eq!(
                scenario.fleet.server.deployment_status(vehicle, &app),
                DeploymentStatus::Installed,
                "retries recover every lost package at this loss rate"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Scenario soaks: quickstart and the Figure 3 model car, run long.
// ---------------------------------------------------------------------------

#[test]
fn quickstart_survives_two_thousand_sensor_cycles() {
    let mut system = Quickstart::build().unwrap();
    for round in 1..=2000i64 {
        system.feed_sensor(round).unwrap();
        assert_eq!(
            system.actuator_output().unwrap(),
            Value::I64(round * 2),
            "round {round} not doubled"
        );
    }

    let stats = system.pirte.lock().stats();
    assert_eq!(stats.installs, 1);
    assert_eq!(
        stats.plugin_faults, 0,
        "no plug-in may fault during the soak"
    );
    assert_eq!(stats.rejected_operations, 0);
    assert!(
        stats.signals_in >= 2000,
        "every sensor value enters the PIRTE"
    );
    assert!(
        stats.signals_out >= 2000,
        "every doubled value leaves the PIRTE"
    );
    assert!(stats.slots_granted >= 2000);
    assert!(stats.instructions_executed > stats.slots_granted);

    let kernel = system.ecu.kernel().stats();
    assert!(
        kernel.dispatches >= 2000,
        "the PIRTE runnable ran every tick"
    );
    assert_eq!(kernel.activation_overflows, 0);
    assert!(system.ecu.take_behaviour_errors().is_empty());
}

#[test]
fn remote_car_survives_a_long_drive() {
    let mut scenario = RemoteCarScenario::build().unwrap();
    scenario.install_app().unwrap();
    let report = scenario.drive(2500).unwrap();

    assert!(report.commands_sent >= 250);
    assert!(
        report.commands_delivered >= report.commands_sent / 2,
        "most commands must survive the long drive: {report:?}"
    );
    assert!(report.odometer > 0.0);
    assert!(report.final_wheel_angle.abs() <= 45.0);

    // PIRTE invariants on both ECUs.
    for (name, pirte) in [
        ("ECM", scenario.ecm_pirte()),
        ("plugin-swc-2", scenario.pirte2()),
    ] {
        let stats = pirte.lock().stats();
        assert_eq!(stats.installs, 1, "{name}: exactly one plug-in installed");
        assert_eq!(stats.plugin_faults, 0, "{name}: no VM faults");
        assert_eq!(
            stats.rejected_operations, 0,
            "{name}: no rejected operations"
        );
        assert!(stats.signals_in > 0, "{name}: signals flowed in");
        assert!(stats.signals_out > 0, "{name}: signals flowed out");
        assert!(
            stats.slots_granted >= 2500,
            "{name}: the plug-in got a slot every tick"
        );
    }

    // Bus invariants: the default error model drops nothing, everything that
    // finished transmission found a subscriber, and the backlog drains.
    let vehicle = scenario.vehicle_mut();
    let bus = vehicle.bus().stats();
    assert!(bus.sent > 0 && bus.delivered > 0);
    assert_eq!(bus.dropped, 0, "default bus config is lossless");
    assert!(bus.payload_bytes > 0);
    assert!(
        bus.worst_latency >= 1,
        "latency model adds at least one tick"
    );

    // Kernel invariants and behaviour errors on every ECU.
    for id in [EcuId::new(1), EcuId::new(2)] {
        let ecu = vehicle.ecu_mut(id).unwrap();
        let kernel = ecu.kernel().stats();
        assert!(
            kernel.dispatches >= 2500,
            "ECU {id}: runnables ran every tick"
        );
        assert_eq!(
            kernel.activation_overflows, 0,
            "ECU {id}: no lost activations"
        );
        assert!(
            ecu.take_behaviour_errors().is_empty(),
            "ECU {id}: no component behaviour errors"
        );
    }
}

// ---------------------------------------------------------------------------
// The ten-ECU fleet: one ECM ECU and nine worker ECUs, driven through the
// trusted server for a full install → update → uninstall cycle.
// ---------------------------------------------------------------------------

const WORKER_ECUS: u16 = 9;
const FLEET_MODEL: &str = "fleet-truck";
const FLEET_VIN: &str = "VIN-FLEET-1";
const APP_V1: &str = "fleet-telemetry";
const APP_V2: &str = "fleet-telemetry-v2";

fn worker_ids() -> impl Iterator<Item = EcuId> {
    (0..WORKER_ECUS).map(|i| EcuId::new(i + 2))
}

fn data_frame(worker: EcuId) -> CanId {
    CanId::new(0x200 + u32::from(worker.index())).unwrap()
}

fn mgmt_down_frame(worker: EcuId) -> CanId {
    CanId::new(0x300 + u32::from(worker.index())).unwrap()
}

fn mgmt_up_frame(worker: EcuId) -> CanId {
    CanId::new(0x400 + u32::from(worker.index())).unwrap()
}

fn fleet_hw() -> HwConf {
    let mut hw = HwConf::new().with_ecu(EcuId::new(1), 1024);
    for worker in worker_ids() {
        hw = hw.with_ecu(worker, 512);
    }
    hw
}

fn fleet_system() -> SystemSwConf {
    let ecm_ports = worker_ids()
        .enumerate()
        .map(|(i, worker)| VirtualPortDecl {
            id: VirtualPortId::new(i as u16),
            name: format!("Fan{i}"),
            kind: VirtualPortKindDecl::TypeII { peer: worker },
        })
        .collect();
    let mut system = SystemSwConf::new(FLEET_MODEL).with_swc(PluginSwcDecl {
        ecu: EcuId::new(1),
        swc_name: "ecm-swc".into(),
        is_ecm: true,
        virtual_ports: ecm_ports,
    });
    for worker in worker_ids() {
        system = system.with_swc(PluginSwcDecl {
            ecu: worker,
            swc_name: format!("worker-swc-{worker}"),
            is_ecm: false,
            virtual_ports: vec![
                VirtualPortDecl {
                    id: VirtualPortId::new(0),
                    name: "PluginDataIn".into(),
                    kind: VirtualPortKindDecl::TypeII {
                        peer: EcuId::new(1),
                    },
                },
                VirtualPortDecl {
                    id: VirtualPortId::new(1),
                    name: "ActReq".into(),
                    kind: VirtualPortKindDecl::TypeIII,
                },
            ],
        });
    }
    system
}

/// The COM plug-in for the fleet: for each worker `i` it polls external
/// command port `i` and forwards pending values on port `WORKER_ECUS + i`.
fn com_source() -> String {
    let mut source = String::from("loop:\n");
    for i in 0..WORKER_ECUS {
        source.push_str(&format!(
            "    port_pending {i}\n    push_int 0\n    gt\n    jump_if_false skip_{i}\n    take_port {i}\n    write_port {fwd}\nskip_{i}:\n",
            fwd = WORKER_ECUS + i,
        ));
    }
    source.push_str("    yield\n    jump loop\n");
    source
}

/// The worker plug-in: consume commands on port 0, apply `gain`, actuate on
/// port 1.
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

/// Builds one fleet application: COM on the ECM ECU fanning out to one OP
/// plug-in per worker ECU.  `suffix` distinguishes v1 from v2 plug-in ids and
/// external message ids; `gain` is the worker-side multiplier.
fn fleet_app(app: &str, suffix: &str, message_prefix: &str, gain: i64) -> AppDefinition {
    let com_id = PluginId::new(format!("COM{suffix}"));
    let com_binary = assemble(com_id.name(), &com_source()).unwrap().to_bytes();
    let mut com_ports = Vec::new();
    for i in 0..WORKER_ECUS {
        com_ports.push(PluginPortDecl {
            name: format!("cmd_{i}"),
            direction: PluginPortDirection::Required,
        });
    }
    for i in 0..WORKER_ECUS {
        com_ports.push(PluginPortDecl {
            name: format!("fwd_{i}"),
            direction: PluginPortDirection::Provided,
        });
    }
    let mut definition = AppDefinition::new(AppId::new(app)).with_plugin(PluginArtifact {
        id: com_id.clone(),
        binary: com_binary,
        ports: com_ports,
    });

    let op_binary = assemble("OP", &op_source(gain)).unwrap().to_bytes();
    let mut conf = SwConf::new(FLEET_MODEL).with_placement(com_id.clone(), EcuId::new(1));
    for (i, worker) in worker_ids().enumerate() {
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
                com_id.clone(),
                format!("cmd_{i}"),
                ConnectionDecl::External {
                    endpoint: "console".into(),
                    message_id: format!("{message_prefix}{worker}"),
                },
            )
            .with_connection(
                com_id.clone(),
                format!("fwd_{i}"),
                ConnectionDecl::RemotePlugin {
                    plugin: op_id.clone(),
                    port: "data_in".into(),
                },
            )
            .with_connection(
                op_id,
                "act_out",
                ConnectionDecl::VirtualPort {
                    name: "ActReq".into(),
                },
            );
    }
    definition.with_sw_conf(conf)
}

/// The ten-ECU truck as a one-vehicle [`Fleet`].
struct TenEcuFleet {
    fleet: Fleet,
    vehicle_id: VehicleId,
    console: SmartPhone,
    ecm_pirte: SharedPirte,
    workers: Vec<(EcuId, SwcId, SharedPirte)>,
    user: UserId,
}

impl TenEcuFleet {
    fn build() -> Self {
        let ecm_ecu_id = EcuId::new(1);

        // --- Trusted server with both application versions uploaded -------
        let mut server = TrustedServer::new();
        let user = UserId::new("fleet-ops");
        let vehicle_id = VehicleId::new(FLEET_VIN);
        server.create_user(user.clone()).unwrap();
        server
            .register_vehicle(vehicle_id.clone(), fleet_hw(), fleet_system())
            .unwrap();
        server.bind_vehicle(&user, &vehicle_id).unwrap();
        server.upload_app(fleet_app(APP_V1, "", "Cmd", 1)).unwrap();
        server
            .upload_app(fleet_app(APP_V2, "-v2", "Boost", 2))
            .unwrap();

        // --- ECM ECU -------------------------------------------------------
        let mut ecm_swc_config = PluginSwcConfig::new("ecm-swc");
        for (i, _) in worker_ids().enumerate() {
            ecm_swc_config = ecm_swc_config.with_virtual_port(VirtualPortSpec::new(
                VirtualPortId::new(i as u16),
                format!("Fan{i}"),
                PortKind::TypeII,
                PortDataDirection::ToSystem,
                format!("s{i}_out"),
            ));
        }
        let mut ecm_config = EcmConfig::new(ecm_swc_config, "vehicle-1", "server");
        for worker in worker_ids() {
            ecm_config = ecm_config.with_remote_swc(
                worker,
                format!("to_{worker}"),
                format!("from_{worker}"),
            );
        }

        let hub: SharedHub = std::sync::Arc::new(parking_lot::Mutex::new(TransportHub::new(
            TransportConfig::default(),
        )));
        let mut ecm_ecu = Ecu::new(ecm_ecu_id);
        let ecm_descriptor = ecm_config.descriptor().unwrap();
        let (ecm_behavior, ecm_pirte) = EcmSwc::create(ecm_ecu_id, ecm_config, hub.clone());
        let ecm_swc = ecm_ecu
            .add_component(ecm_descriptor, Box::new(ecm_behavior))
            .unwrap();

        // --- Worker ECUs ---------------------------------------------------
        let mut ecus = Vec::new();
        let mut workers = Vec::new();
        let mut frames = Vec::new();
        for (i, worker) in worker_ids().enumerate() {
            let config = PluginSwcConfig::new(format!("worker-swc-{worker}"))
                .with_type_i_ports("mgmt_in", "mgmt_out")
                .with_virtual_port(VirtualPortSpec::new(
                    VirtualPortId::new(0),
                    "PluginDataIn",
                    PortKind::TypeII,
                    PortDataDirection::ToPlugins,
                    "s_in",
                ))
                .with_virtual_port(VirtualPortSpec::new(
                    VirtualPortId::new(1),
                    "ActReq",
                    PortKind::TypeIII,
                    PortDataDirection::ToSystem,
                    "act_req",
                ));
            let mut ecu = Ecu::new(worker);
            let descriptor = config.descriptor().unwrap();
            let (behavior, pirte) = PluginSwc::create(worker, config);
            let swc = ecu.add_component(descriptor, Box::new(behavior)).unwrap();

            // Cross-ECU wiring: plug-in data and the management port pair.
            ecm_ecu
                .map_signal_out(ecm_swc, &format!("s{i}_out"), data_frame(worker))
                .unwrap();
            ecu.map_signal_in(data_frame(worker), swc, "s_in").unwrap();
            ecm_ecu
                .map_signal_out(ecm_swc, &format!("to_{worker}"), mgmt_down_frame(worker))
                .unwrap();
            ecu.map_signal_in(mgmt_down_frame(worker), swc, "mgmt_in")
                .unwrap();
            ecu.map_signal_out(swc, "mgmt_out", mgmt_up_frame(worker))
                .unwrap();
            ecm_ecu
                .map_signal_in(mgmt_up_frame(worker), ecm_swc, &format!("from_{worker}"))
                .unwrap();

            frames.extend([
                data_frame(worker),
                mgmt_down_frame(worker),
                mgmt_up_frame(worker),
            ]);
            ecus.push(ecu);
            workers.push((worker, swc, pirte));
        }

        let mut all_ecus = vec![ecm_ecu];
        all_ecus.extend(ecus);
        let mut vehicle = Vehicle::new(
            all_ecus,
            BusConfig {
                frames_per_tick: 64,
                ..BusConfig::default()
            },
        );
        vehicle.open_acceptance_filters(&frames);

        let mut fleet = Fleet::with_hub(server, "server", hub.clone());
        fleet
            .add_vehicle(vehicle_id.clone(), "vehicle-1", vehicle)
            .unwrap();
        let console = SmartPhone::new("console", "vehicle-1");
        console.attach(&mut *hub.lock());

        TenEcuFleet {
            fleet,
            vehicle_id,
            console,
            ecm_pirte,
            workers,
            user,
        }
    }

    fn vehicle(&self) -> &Vehicle {
        self.fleet.vehicle(&self.vehicle_id).unwrap()
    }

    fn vehicle_mut(&mut self) -> &mut Vehicle {
        self.fleet.vehicle_mut(&self.vehicle_id).unwrap()
    }

    fn deploy(&mut self, app: &str) {
        self.fleet
            .server
            .deploy(&self.user, &self.vehicle_id, &AppId::new(app))
            .unwrap();
        self.wait_for_status(app, &DeploymentStatus::Installed);
    }

    fn uninstall(&mut self, app: &str) {
        self.fleet
            .server
            .uninstall(&self.user, &self.vehicle_id, &AppId::new(app))
            .unwrap();
        self.wait_for_status(app, &DeploymentStatus::NotInstalled);
    }

    fn wait_for_status(&mut self, app: &str, wanted: &DeploymentStatus) {
        let app = AppId::new(app);
        for _ in 0..800 {
            self.fleet.step().unwrap();
            if self.fleet.server.deployment_status(&self.vehicle_id, &app) == *wanted {
                return;
            }
        }
        panic!(
            "deployment of {app} never reached {wanted:?}: {:?}",
            self.fleet.server.deployment_status(&self.vehicle_id, &app)
        );
    }

    /// Runs `ticks` ticks; every third tick the console commands the next
    /// worker (round-robin) with `{message_prefix}{worker} = value(tick)`.
    fn drive(&mut self, ticks: u64, message_prefix: &str, value: impl Fn(u64) -> i64) {
        let targets: Vec<EcuId> = worker_ids().collect();
        let mut next = 0usize;
        for tick in 0..ticks {
            if tick % 3 == 0 {
                let worker = targets[next % targets.len()];
                next += 1;
                let mut hub = self.fleet.hubs()[0].lock();
                self.console
                    .send(
                        &mut *hub,
                        &format!("{message_prefix}{worker}"),
                        Value::I64(value(tick)),
                    )
                    .unwrap();
            }
            self.fleet.step().unwrap();
        }
        // Quiet period: let in-flight frames and VM queues drain.
        for _ in 0..120 {
            self.fleet.step().unwrap();
        }
    }

    fn actuator_value(&self, worker: EcuId, swc: SwcId) -> Value {
        self.vehicle()
            .ecu(worker)
            .unwrap()
            .rte()
            .read_port_by_name(swc, "act_req")
            .unwrap()
    }

    fn assert_healthy(&mut self, ticks_so_far: u64) {
        let bus = self.vehicle().bus().stats();
        assert!(bus.sent > 0 && bus.delivered > 0);
        assert_eq!(bus.dropped, 0, "lossless bus must not drop frames");
        assert!(
            self.vehicle().bus().backlog() <= 16,
            "bus backlog must stay bounded, got {}",
            self.vehicle().bus().backlog()
        );

        let ecu_ids: Vec<EcuId> = std::iter::once(EcuId::new(1)).chain(worker_ids()).collect();
        for id in ecu_ids {
            let ecu = self.vehicle_mut().ecu_mut(id).unwrap();
            let kernel = ecu.kernel().stats();
            assert!(
                kernel.dispatches >= ticks_so_far,
                "ECU {id}: PIRTE runnable must run every tick ({} < {ticks_so_far})",
                kernel.dispatches
            );
            assert_eq!(
                kernel.activation_overflows, 0,
                "ECU {id}: no lost activations"
            );
            assert!(
                ecu.take_behaviour_errors().is_empty(),
                "ECU {id}: no component behaviour errors"
            );
        }
    }
}

#[test]
fn ten_ecu_fleet_install_update_uninstall_cycle() {
    let mut fleet = TenEcuFleet::build();

    // --- Install v1 across all ten ECUs --------------------------------
    fleet.deploy(APP_V1);
    assert_eq!(
        fleet.ecm_pirte.lock().plugin_count(),
        1,
        "COM runs on the ECM"
    );
    for (worker, _, pirte) in &fleet.workers {
        let states = pirte.lock().plugin_states();
        assert_eq!(states.len(), 1, "worker {worker} runs exactly one plug-in");
        assert_eq!(
            states[0],
            (
                PluginId::new(format!("OP-{worker}")),
                dynar::core::lifecycle::PluginState::Running
            )
        );
    }

    // --- Soak v1: unit-gain telemetry fan-out ---------------------------
    fleet.drive(1200, "Cmd", |tick| tick as i64 + 1);
    for (worker, swc, pirte) in fleet.workers.clone() {
        let actuated = fleet.actuator_value(worker, swc);
        assert!(
            matches!(actuated, Value::I64(v) if v > 0),
            "worker {worker}: commands must reach the actuator, got {actuated:?}"
        );
        let stats = pirte.lock().stats();
        assert!(stats.signals_in > 0, "worker {worker}: data arrived");
        assert!(stats.signals_out > 0, "worker {worker}: data actuated");
        assert_eq!(stats.plugin_faults, 0, "worker {worker}: no VM faults");
        assert_eq!(stats.rejected_operations, 0, "worker {worker}: no rejects");
    }
    let ecm_stats = fleet.ecm_pirte.lock().stats();
    assert_eq!(ecm_stats.installs, 1);
    assert_eq!(ecm_stats.plugin_faults, 0);
    assert!(
        ecm_stats.signals_out > 0,
        "COM fanned data out to the workers"
    );
    fleet.assert_healthy(1200);

    // --- Uninstall v1 ----------------------------------------------------
    fleet.uninstall(APP_V1);
    assert_eq!(fleet.ecm_pirte.lock().plugin_count(), 0);
    for (worker, _, pirte) in &fleet.workers {
        assert_eq!(
            pirte.lock().plugin_count(),
            0,
            "worker {worker} must be empty after uninstall"
        );
        assert_eq!(pirte.lock().stats().uninstalls, 1);
    }
    let installed = fleet
        .fleet
        .server
        .installed_apps(&VehicleId::new(FLEET_VIN));
    assert!(
        installed.is_empty(),
        "server records no installed apps: {installed:?}"
    );

    // --- Update: install v2 (gain 2) and verify the new behaviour --------
    fleet.deploy(APP_V2);
    for (worker, _, pirte) in &fleet.workers {
        let states = pirte.lock().plugin_states();
        assert_eq!(
            states,
            vec![(
                PluginId::new(format!("OP-v2-{worker}")),
                dynar::core::lifecycle::PluginState::Running
            )],
            "worker {worker} runs only the v2 plug-in"
        );
    }
    fleet.drive(900, "Boost", |_| 21);
    for (worker, swc, _) in fleet.workers.clone() {
        assert_eq!(
            fleet.actuator_value(worker, swc),
            Value::I64(42),
            "worker {worker}: v2 doubles the command"
        );
    }
    for (worker, _, pirte) in &fleet.workers {
        let stats = pirte.lock().stats();
        assert_eq!(stats.installs, 2, "worker {worker}: v1 + v2 installs");
        assert_eq!(stats.plugin_faults, 0);
    }
    fleet.assert_healthy(2100);

    // --- Final teardown: the fleet ends empty and healthy ----------------
    fleet.uninstall(APP_V2);
    for (_, _, pirte) in &fleet.workers {
        assert_eq!(pirte.lock().plugin_count(), 0);
    }
    assert_eq!(fleet.ecm_pirte.lock().plugin_count(), 0);
}
