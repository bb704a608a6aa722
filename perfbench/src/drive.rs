//! The closed-loop operator: times every round and management call from
//! outside the program, runs the untimed correctness checks, and reads the
//! layers' public counters.

use std::collections::BTreeMap;
use std::time::Instant;

use dynar_bench::CountingAllocator;
use dynar_core::swc::SharedPirte;
use dynar_foundation::error::Result;
use dynar_foundation::ids::{AppId, EcuId, PluginId, VehicleId};
use dynar_foundation::value::Value;
use dynar_server::server::TrustedServer;
use dynar_sim::scenario::campaign::APP_TELEMETRY_BAD;
use dynar_sim::scenario::fleet::{FleetScenario, VehicleHandles, APP_TELEMETRY_V2};
use dynar_sim::world::Vehicle;

use crate::round::{Layer, TracedRound, ROOT};

/// Outcomes of the untimed correctness checks.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checks that held.
    pub passed: u64,
    /// Checks that failed.
    pub failed: u64,
    /// The first few failures, described.
    pub failures: Vec<String>,
}

impl Checks {
    /// Records one check.
    pub fn expect(&mut self, ok: bool, describe: impl FnOnce() -> String) {
        if ok {
            self.passed += 1;
        } else {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(describe());
            }
        }
    }
}

/// Counters summed over every vehicle, read from the layers' public stats.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub os_dispatches: u64,
    pub os_alarm_expirations: u64,
    pub rte_writes: u64,
    pub rte_network_routes: u64,
    pub bus_frames_delivered: u64,
    pub bus_payload_bytes: u64,
    pub core_slots_granted: u64,
    pub core_vm_instructions: u64,
    pub core_installs: u64,
    pub core_reinstalls: u64,
    pub core_rejected_operations: u64,
    /// Superinstructions fired by the plug-ins installed right now.
    pub vm_fused: u64,
}

impl Counts {
    fn add(&mut self, other: &Counts) {
        self.os_dispatches += other.os_dispatches;
        self.os_alarm_expirations += other.os_alarm_expirations;
        self.rte_writes += other.rte_writes;
        self.rte_network_routes += other.rte_network_routes;
        self.bus_frames_delivered += other.bus_frames_delivered;
        self.bus_payload_bytes += other.bus_payload_bytes;
        self.core_slots_granted += other.core_slots_granted;
        self.core_vm_instructions += other.core_vm_instructions;
        self.core_installs += other.core_installs;
        self.core_reinstalls += other.core_reinstalls;
        self.core_rejected_operations += other.core_rejected_operations;
        self.vm_fused += other.vm_fused;
    }

    /// `self - earlier`, counter by counter.
    pub fn since(&self, earlier: &Counts) -> Counts {
        Counts {
            os_dispatches: self.os_dispatches - earlier.os_dispatches,
            os_alarm_expirations: self.os_alarm_expirations - earlier.os_alarm_expirations,
            rte_writes: self.rte_writes - earlier.rte_writes,
            rte_network_routes: self.rte_network_routes - earlier.rte_network_routes,
            bus_frames_delivered: self.bus_frames_delivered - earlier.bus_frames_delivered,
            bus_payload_bytes: self.bus_payload_bytes - earlier.bus_payload_bytes,
            core_slots_granted: self.core_slots_granted - earlier.core_slots_granted,
            core_vm_instructions: self.core_vm_instructions - earlier.core_vm_instructions,
            core_installs: self.core_installs - earlier.core_installs,
            core_reinstalls: self.core_reinstalls - earlier.core_reinstalls,
            core_rejected_operations: self.core_rejected_operations
                - earlier.core_rejected_operations,
            vm_fused: self.vm_fused.saturating_sub(earlier.vm_fused),
        }
    }
}

fn vehicle_counts(scenario: &FleetScenario, handle: &VehicleHandles) -> Counts {
    let mut counts = Counts::default();
    let Some(vehicle) = scenario.fleet.vehicle(&handle.id) else {
        return counts;
    };
    for ecu in vehicle.ecus() {
        let kernel = ecu.kernel().stats();
        let rte = ecu.rte().stats();
        counts.os_dispatches += kernel.dispatches;
        counts.os_alarm_expirations += kernel.alarm_expirations;
        counts.rte_writes += rte.writes;
        counts.rte_network_routes += rte.network_routes;
    }
    let bus = vehicle.bus().stats();
    counts.bus_frames_delivered = bus.delivered;
    counts.bus_payload_bytes = bus.payload_bytes;
    for (_, _, pirte) in &handle.workers {
        let pirte = pirte.lock();
        let stats = pirte.stats();
        counts.core_slots_granted += stats.slots_granted;
        counts.core_vm_instructions += stats.instructions_executed;
        counts.core_installs += stats.installs;
        counts.core_reinstalls += stats.reinstalls;
        counts.core_rejected_operations += stats.rejected_operations;
        counts.vm_fused += pirte.fusion_counters().total();
    }
    counts
}

/// Journal bytes appended, as seen between calls.  A compaction rewrites
/// the journal from a fresh snapshot frame, so a changed head counts the
/// whole new journal as written.
#[derive(Debug, Default)]
struct JournalMeter {
    head: Vec<u8>,
    len: usize,
    written: u64,
}

impl JournalMeter {
    const HEAD: usize = 64;

    fn observe(&mut self, server: &TrustedServer) {
        let Some(bytes) = server.journal_bytes() else {
            return;
        };
        let head = &bytes[..bytes.len().min(Self::HEAD)];
        let appended = if head == self.head.as_slice() && bytes.len() >= self.len {
            bytes.len() - self.len
        } else {
            bytes.len()
        };
        self.written += appended as u64;
        if head != self.head.as_slice() {
            self.head = head.to_vec();
        }
        self.len = bytes.len();
    }
}

/// The closed-loop operator: drives a fleet round after round, untraced
/// through `Fleet::step` or traced through [`TracedRound`].
#[derive(Debug)]
pub struct Operator {
    traced: Option<TracedRound>,
    count_allocations: bool,
    /// Rounds run so far, as the fleet's tick.
    pub tick: u64,
    /// Host time of every round, in ns.
    pub round_ns: Vec<u64>,
    /// Host time spent in management calls, in ns.
    pub manage_ns: u64,
    /// Management calls issued.
    pub manage_calls: u64,
    /// Correctness checks.
    pub checks: Checks,
    journal: JournalMeter,
    /// Counters of vehicles rebooted away, so fleet sums stay monotonic.
    retired: Counts,
}

impl Operator {
    /// An untraced operator; `count_allocations` counts the allocations made
    /// inside rounds.
    pub fn plain(scenario: &FleetScenario, count_allocations: bool) -> Self {
        Self::new(scenario, None, count_allocations)
    }

    /// A operator that rebuilds every round from public calls with spans.
    pub fn traced(scenario: &FleetScenario, span_capacity: usize) -> Self {
        let traced = TracedRound::new(&scenario.fleet, span_capacity);
        Self::new(scenario, Some(traced), false)
    }

    fn new(scenario: &FleetScenario, traced: Option<TracedRound>, count_allocations: bool) -> Self {
        let mut journal = JournalMeter::default();
        journal.observe(&scenario.fleet.server);
        journal.written = 0;
        if count_allocations {
            CountingAllocator::reset();
        }
        Operator {
            traced,
            count_allocations,
            tick: scenario.fleet.now().as_u64(),
            round_ns: Vec::with_capacity(1 << 16),
            manage_ns: 0,
            manage_calls: 0,
            checks: Checks::default(),
            journal,
            retired: Counts::default(),
        }
    }

    /// The traced round, if this operator traces.
    pub fn traced_round(&self) -> Option<&TracedRound> {
        self.traced.as_ref()
    }

    /// Journal bytes appended since the operator started.
    pub fn journal_written(&self) -> u64 {
        self.journal.written
    }

    /// Runs one round, then checks transport conservation (untimed).
    pub fn round(&mut self, scenario: &mut FleetScenario) {
        if self.count_allocations {
            CountingAllocator::enable();
        }
        let start = Instant::now();
        let result = match &mut self.traced {
            Some(traced) => traced.round(&mut scenario.fleet),
            None => scenario.fleet.step(),
        };
        let elapsed = start.elapsed();
        if self.count_allocations {
            CountingAllocator::disable();
        }
        self.round_ns
            .push(u64::try_from(elapsed.as_nanos()).expect("a round is shorter than 584 years"));
        self.tick += 1;
        if let Err(error) = result {
            self.checks
                .expect(false, || format!("round {} failed: {error}", self.tick));
        }
        let transport = scenario.fleet.transport_stats();
        self.checks.expect(transport.is_conserved(), || {
            format!(
                "transport conservation broken at tick {}: {transport:?}",
                self.tick
            )
        });
        self.journal.observe(&scenario.fleet.server);
    }

    /// Times one management call into the server.
    pub fn manage<R>(
        &mut self,
        scenario: &mut FleetScenario,
        call: impl FnOnce(&mut TrustedServer) -> Result<R>,
    ) -> Option<R> {
        let span = self
            .traced
            .as_mut()
            .map(|traced| traced.spans.open(Layer::Manage, ROOT));
        let start = Instant::now();
        let result = call(&mut scenario.fleet.server);
        let elapsed = start.elapsed();
        if let (Some(traced), Some(span)) = (self.traced.as_mut(), span) {
            traced.spans.close(span);
        }
        self.manage_ns += u64::try_from(elapsed.as_nanos()).expect("call shorter than 584 years");
        self.manage_calls += 1;
        self.journal.observe(&scenario.fleet.server);
        match result {
            Ok(value) => Some(value),
            Err(error) => {
                self.checks
                    .expect(false, || format!("management call refused: {error}"));
                None
            }
        }
    }

    /// Reboots a vehicle (a fault, not a management call: untimed), keeping
    /// its counters in the fleet sums.
    pub fn reboot(&mut self, scenario: &mut FleetScenario, vehicle: &VehicleId) {
        if let Some(handle) = scenario.handles().iter().find(|h| &h.id == vehicle) {
            self.retired.add(&vehicle_counts(scenario, handle));
        }
        let result = scenario.reboot_vehicle(vehicle);
        self.checks.expect(result.is_ok(), || {
            format!("reboot of {vehicle} failed: {result:?}")
        });
    }

    /// Counters summed over the fleet, including rebooted incarnations.
    pub fn counts(&self, scenario: &FleetScenario) -> Counts {
        let mut total = self.retired;
        for handle in scenario.handles() {
            total.add(&vehicle_counts(scenario, handle));
        }
        total
    }
}

/// The plug-in `app` places on `worker`, as the fleet's app builders name
/// them.
fn expected_plugin(app: &AppId, worker: EcuId) -> PluginId {
    let suffix = match app.name() {
        APP_TELEMETRY_V2 => "2",
        APP_TELEMETRY_BAD => "BAD",
        _ => "",
    };
    PluginId::new(format!("OP{suffix}-{worker}"))
}

fn hosted_plugins(pirte: &SharedPirte) -> Vec<PluginId> {
    let mut hosted: Vec<PluginId> = pirte
        .lock()
        .plugin_states()
        .into_iter()
        .map(|(plugin, _)| plugin)
        .collect();
    hosted.sort();
    hosted
}

/// Checks that every worker PIRTE hosts exactly the plug-ins `manifest`
/// implies for its vehicle, and that its compiled routes are consistent.
pub fn check_ground_truth(
    scenario: &FleetScenario,
    checks: &mut Checks,
    manifest: impl Fn(&TrustedServer, &VehicleId) -> Vec<AppId>,
) {
    for handle in scenario.handles() {
        let apps = manifest(&scenario.fleet.server, &handle.id);
        for (worker, _, pirte) in &handle.workers {
            let mut expected: Vec<PluginId> = apps
                .iter()
                .map(|app| expected_plugin(app, *worker))
                .collect();
            expected.sort();
            let hosted = hosted_plugins(pirte);
            checks.expect(hosted == expected, || {
                format!(
                    "{}/{worker}: PIRTE hosts {hosted:?}, server manifest implies {expected:?}",
                    handle.id
                )
            });
            checks.expect(pirte.lock().verify_compiled_routes(), || {
                format!("{}/{worker}: compiled routes diverged", handle.id)
            });
        }
    }
}

/// How many sensor periods an actuator value may trail the sensor.
const MAX_ACTUATION_LAG: i64 = 2;

fn sensor_reading(vehicle: &Vehicle) -> Option<i64> {
    let ecu = vehicle.ecu(EcuId::new(1))?;
    let sensor = ecu.component_by_name("speed-sensor")?;
    match ecu.rte().read_port_by_name(sensor, "speed_out").ok()? {
        Value::I64(reading) => Some(reading),
        _ => None,
    }
}

/// Checks that every worker's actuator shows `gain` times a recent sensor
/// reading.
pub fn check_actuators(scenario: &FleetScenario, checks: &mut Checks, gain: i64) {
    for handle in scenario.handles() {
        let vehicle = scenario.fleet.vehicle(&handle.id);
        let reading = vehicle.and_then(sensor_reading);
        for (worker, swc, _) in &handle.workers {
            let actuated = vehicle
                .and_then(|vehicle| vehicle.ecu(*worker))
                .and_then(|ecu| ecu.rte().read_port_by_name(*swc, "act_out").ok());
            let ok = match (&actuated, reading) {
                (Some(Value::I64(value)), Some(reading)) => {
                    let value = *value;
                    value % gain == 0 && (0..=MAX_ACTUATION_LAG).contains(&(reading - value / gain))
                }
                _ => false,
            };
            checks.expect(ok, || {
                format!(
                    "{}/{worker}: actuator {actuated:?} is not {gain} x a recent sensor reading {reading:?}",
                    handle.id
                )
            });
        }
    }
}

/// Rounds from request to settle, per vehicle operation.
#[derive(Debug, Default)]
pub struct SettleTracker {
    since: BTreeMap<VehicleId, u64>,
    /// Settle times in rounds.
    pub samples: Vec<u64>,
}

impl SettleTracker {
    /// Starts timing an operation on `vehicle` requested at `tick`.
    pub fn start(&mut self, vehicle: &VehicleId, tick: u64) {
        self.since.insert(vehicle.clone(), tick);
    }

    /// Settles every pending operation for which `settled` holds.
    pub fn observe(&mut self, tick: u64, mut settled: impl FnMut(&VehicleId) -> bool) {
        let samples = &mut self.samples;
        self.since.retain(|vehicle, since| {
            if settled(vehicle) {
                samples.push(tick - *since);
                false
            } else {
                true
            }
        });
    }

    /// Operations still pending.
    pub fn pending(&self) -> usize {
        self.since.len()
    }
}
