//! The three federation workloads.  Each is a closed loop: one operator
//! issues the next management call only after the previous wave settled.

use std::time::{Duration, Instant};

use dynar_fes::transport::{TransportConfig, TransportStats};
use dynar_foundation::ids::{AppId, UserId, VehicleId};
use dynar_server::campaign::{CampaignId, CampaignStatus};
use dynar_server::ledger::Ledger;
use dynar_server::server::{DeploymentStatus, RetryPolicy, TrustedServer};
use dynar_sim::scenario::campaign::{CampaignScenario, CampaignScenarioConfig, APP_TELEMETRY_BAD};
use dynar_sim::scenario::fleet::{
    FleetScenario, FleetScenarioConfig, APP_TELEMETRY, APP_TELEMETRY_V2, GAIN_V1, GAIN_V2,
};

use crate::alloc::live_bytes;
use crate::drive::{check_actuators, check_ground_truth, Checks, Counts, Operator, SettleTracker};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 500 vehicles on signal-chain rounds only.
    SteadyDrive,
    /// 200 vehicles, journaled install/uninstall waves.
    MgmtChurn,
    /// 500 vehicles, 10 % loss, campaigns with an auto-abort and reboots.
    LossyRollout,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "steady_drive" => Some(Workload::SteadyDrive),
            "mgmt_churn" => Some(Workload::MgmtChurn),
            "lossy_rollout" => Some(Workload::LossyRollout),
            _ => None,
        }
    }
}

/// How big a run is.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Vehicles in the fleet.
    pub vehicles: usize,
    /// Set-ups per batch of a timed run: at least this many, and more until
    /// [`MIN_SETUP_SECONDS`] have passed.  A timed run sets up in one batch
    /// before its timed phase and in another after it.
    pub setups: usize,
    /// Cycles in the exact window: the tick-domain metrics and counters are
    /// taken over these, and a traced run runs exactly these.
    pub exact_cycles: usize,
    /// Rounds per steady-drive cycle.
    pub steady_rounds: u64,
    /// `(ticks into the first campaign, vehicle index)` reboots per rollout
    /// cycle.
    pub reboots: [(u64, usize); 2],
}

impl Plan {
    /// The full-size plan, or a tiny one for the smoke mode.
    pub fn new(workload: Workload, smoke: bool) -> Plan {
        // Every fleet has one server shard, so a round runs on one thread.
        // With two shards the round waits for both worker threads, and on a
        // shared 2-core host that made its time follow the host's scheduling
        // of two cores rather than the program.
        let (vehicles, exact_cycles) = match (workload, smoke) {
            (Workload::SteadyDrive, false) => (500, 10),
            (Workload::MgmtChurn, false) => (200, 10),
            // 500 rather than 200 vehicles: a 200-vehicle working set
            // (about 13 MiB) sits where co-tenants' cache pressure moves its
            // round time by up to 3x between runs on a shared machine.
            (Workload::LossyRollout, false) => (500, 3),
            (Workload::SteadyDrive, true) => (6, 2),
            (Workload::MgmtChurn, true) => (6, 2),
            (Workload::LossyRollout, true) => (8, 1),
        };
        Plan {
            vehicles,
            setups: if smoke { 2 } else { 5 },
            exact_cycles,
            steady_rounds: if smoke { 20 } else { 100 },
            reboots: [(20, 0), (100, vehicles / 2)],
        }
    }
}

/// The end state a traced run must reproduce byte for byte.
#[derive(Debug, PartialEq, Eq)]
pub struct EndState {
    /// `TrustedServer::snapshot_bytes`.
    pub snapshot: Vec<u8>,
    /// The server's ledger.
    pub ledger: Ledger,
    /// Transport statistics.
    pub transport: TransportStats,
}

impl EndState {
    fn of(scenario: &FleetScenario) -> EndState {
        EndState {
            snapshot: scenario.fleet.server.snapshot_bytes(),
            ledger: scenario.fleet.server.ledger(),
            transport: scenario.fleet.transport_stats(),
        }
    }
}

/// Deltas over the exact window.
#[derive(Debug)]
pub struct Window {
    /// Rounds in the window.
    pub rounds: u64,
    /// Cycles in the window.
    pub cycles: u64,
    /// Ledger at the window's start and end.
    pub ledger: (Ledger, Ledger),
    /// Transport statistics at the window's start and end.
    pub transport: (TransportStats, TransportStats),
    /// Fleet counters at the window's start and end.
    pub counts: (Counts, Counts),
    /// Journal bytes appended in the window.
    pub journal_bytes: u64,
    /// Settle times, in rounds, of the operations requested in the window.
    pub settle_rounds: Vec<u64>,
    /// Rounds per rollout cycle.
    pub cycle_rounds: Vec<u64>,
    /// Vehicles exposed by each bad-version campaign before its abort.
    pub exposed_before_abort: Vec<u64>,
    /// Allocations made inside the window's rounds (counting runs only).
    pub allocations: u64,
    /// Peak resident memory (`VmHWM`) when the window closed, in MiB.
    pub peak_rss_mib: f64,
    /// The state at the window's end.
    pub end: EndState,
}

/// Everything one run measured.
#[derive(Debug)]
pub struct Outcome {
    /// Vehicles in the fleet.
    pub vehicles: usize,
    /// Host seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// Live heap added by the measured set-up, per vehicle, in bytes.
    pub heap_bytes_per_vehicle: f64,
    /// The operator, with its timings, spans and checks.
    pub operator: Operator,
    /// The exact window.
    pub window: Window,
    /// Settled management operations (ledger installs and uninstalls
    /// completed) over the whole measured run.
    pub ops: u64,
    /// Host seconds (rounds plus management calls) of each cycle.
    pub cycle_s: Vec<f64>,
    /// Checks made outside the operator (set-up).
    pub setup_checks: Checks,
}

/// How a run drives its rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `Fleet::step`, for `seconds` (at least the exact window).
    Timed(Duration),
    /// `Fleet::step` over the exact window only, counting allocations.
    Reference,
    /// The rebuilt round over the exact window only, with spans.
    Traced,
}

/// A workload's fleet, in its start state.
enum Built {
    Steady(FleetScenario),
    Churn(FleetScenario),
    Rollout(CampaignScenario),
}

impl Built {
    fn scenario(&mut self) -> &mut FleetScenario {
        match self {
            Built::Steady(scenario) | Built::Churn(scenario) => scenario,
            Built::Rollout(campaign) => &mut campaign.inner,
        }
    }
}

fn set_up(workload: Workload, plan: &Plan, seed: u64, checks: &mut Checks) -> Built {
    let transport = TransportConfig {
        seed,
        ..TransportConfig::default()
    };
    match workload {
        Workload::SteadyDrive => {
            let mut scenario = FleetScenario::build_with(FleetScenarioConfig {
                vehicles: plan.vehicles,
                transport,
                ..FleetScenarioConfig::default()
            })
            .expect("steady-drive fleet builds");
            let installed = scenario.install_telemetry(100);
            checks.expect(installed.is_ok(), || format!("v1 install: {installed:?}"));
            check_ground_truth(&scenario, checks, TrustedServer::installed_apps);
            Built::Steady(scenario)
        }
        Workload::MgmtChurn => {
            let mut scenario = FleetScenario::build_with(FleetScenarioConfig {
                vehicles: plan.vehicles,
                transport,
                ..FleetScenarioConfig::default()
            })
            .expect("churn fleet builds");
            scenario.fleet.server.enable_journal(256);
            Built::Churn(scenario)
        }
        Workload::LossyRollout => {
            let mut campaign = CampaignScenario::build_with(CampaignScenarioConfig {
                vehicles: plan.vehicles,
                loss_probability: 0.10,
                latency_ticks: 1,
                seed,
                // Twice the default budget: at 10 % loss each way an attempt
                // fails with p ≈ 0.19, so eight attempts would exhaust about
                // once per 600k packages and abort a campaign mid-run.
                retry: RetryPolicy {
                    max_attempts: 16,
                    ..RetryPolicy::default()
                },
                ..CampaignScenarioConfig::default()
            })
            .expect("rollout fleet builds");
            let converged = campaign.converge_on_v1();
            checks.expect(converged.is_ok(), || {
                format!("v1 convergence: {converged:?}")
            });
            check_ground_truth(&campaign.inner, checks, TrustedServer::desired_manifest);
            Built::Rollout(campaign)
        }
    }
}

/// A batch of set-ups in a timed run repeats until this much time passed...
const MIN_SETUP_SECONDS: f64 = 1.0;
/// ...or this many set-ups were made.
const MAX_SETUPS: usize = 100;

/// Sets up `min_setups` times or more, until `min_seconds` passed, and
/// appends each set-up's host seconds to `times`.  Returns the last fleet and
/// the live heap its set-up added.
fn set_up_batch(
    workload: Workload,
    plan: &Plan,
    seed: u64,
    (min_setups, min_seconds): (usize, f64),
    times: &mut Vec<f64>,
    checks: &mut Checks,
) -> (Built, i64) {
    let mut built = None;
    let mut heap_bytes = 0;
    let mut made = 0;
    let mut spent = 0.0;
    while made < min_setups || (spent < min_seconds && made < MAX_SETUPS) {
        drop(built.take());
        let before = live_bytes();
        let start = Instant::now();
        built = Some(set_up(workload, plan, seed, checks));
        let seconds = start.elapsed().as_secs_f64();
        heap_bytes = live_bytes() - before;
        times.push(seconds);
        made += 1;
        spent += seconds;
    }
    (built.expect("at least one set-up"), heap_bytes)
}

/// Runs one workload in `mode`.
pub fn run(workload: Workload, plan: &Plan, seed: u64, mode: Mode) -> Outcome {
    let mut setup_checks = Checks::default();
    let batch = match mode {
        Mode::Timed(_) => (plan.setups, MIN_SETUP_SECONDS),
        Mode::Reference | Mode::Traced => (1, 0.0),
    };
    let mut setup_s: Vec<f64> = Vec::new();
    let (mut fleet, heap_bytes) =
        set_up_batch(workload, plan, seed, batch, &mut setup_s, &mut setup_checks);

    let mut operator = match mode {
        Mode::Traced => {
            // Spans per round: a handful of server/transport calls plus one
            // per vehicle; management traffic grows the buffer as needed.
            let rounds = plan.exact_cycles * expected_cycle_rounds(workload, plan);
            Operator::traced(fleet.scenario(), rounds * (plan.vehicles + 16))
        }
        Mode::Reference => Operator::plain(fleet.scenario(), true),
        Mode::Timed(_) => Operator::plain(fleet.scenario(), false),
    };

    let observe = |operator: &Operator, scenario: &FleetScenario| {
        (
            scenario.fleet.server.ledger(),
            scenario.fleet.transport_stats(),
            operator.counts(scenario),
        )
    };
    let (ledger0, transport0, counts0) = observe(&operator, fleet.scenario());
    let mut settle = SettleTracker::default();
    let mut cycle_rounds = Vec::new();
    let mut cycle_s = Vec::new();
    let mut exposed = Vec::new();
    let mut window = None;
    let started = Instant::now();
    let mut cycle = 0;
    loop {
        if cycle == plan.exact_cycles {
            let scenario = fleet.scenario();
            let (ledger1, transport1, counts1) = observe(&operator, scenario);
            window = Some(Window {
                rounds: operator.round_ns.len() as u64,
                cycles: cycle as u64,
                ledger: (ledger0.clone(), ledger1),
                transport: (transport0, transport1),
                counts: (counts0, counts1),
                journal_bytes: operator.journal_written(),
                settle_rounds: std::mem::take(&mut settle.samples),
                cycle_rounds: cycle_rounds.clone(),
                exposed_before_abort: exposed.clone(),
                allocations: dynar_bench::CountingAllocator::allocations(),
                peak_rss_mib: peak_rss_mib(),
                end: EndState::of(scenario),
            });
        }
        let done = match mode {
            Mode::Timed(seconds) => cycle >= plan.exact_cycles && started.elapsed() >= seconds,
            Mode::Reference | Mode::Traced => cycle == plan.exact_cycles,
        };
        if done {
            break;
        }
        let rounds_before = operator.round_ns.len();
        let manage_before = operator.manage_ns;
        match &mut fleet {
            Built::Steady(scenario) => steady_cycle(scenario, plan, &mut operator),
            Built::Churn(scenario) => churn_cycle(scenario, &mut operator, &mut settle),
            Built::Rollout(campaign) => {
                let outcome = rollout_cycle(campaign, plan, cycle, &mut operator, &mut settle);
                exposed.push(outcome);
            }
        }
        let round_ns: u64 = operator.round_ns[rounds_before..].iter().sum();
        cycle_rounds.push((operator.round_ns.len() - rounds_before) as u64);
        cycle_s.push((round_ns + operator.manage_ns - manage_before) as f64 * 1e-9);
        cycle += 1;
    }

    let ops = {
        let end = fleet.scenario().fleet.server.ledger();
        settled_ops(&end) - settled_ops(&ledger0)
    };
    if let Mode::Timed(_) = mode {
        // The host's noise comes in phases of seconds to minutes.  A second
        // batch, a run's length after the first, lets the set-up median
        // span two of them.
        drop(fleet);
        set_up_batch(workload, plan, seed, batch, &mut setup_s, &mut setup_checks);
    }
    Outcome {
        vehicles: plan.vehicles,
        setup_s,
        heap_bytes_per_vehicle: heap_bytes as f64 / plan.vehicles as f64,
        operator,
        window: window.expect("the loop passes the exact window"),
        ops,
        cycle_s,
        setup_checks,
    }
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Installs and uninstalls completed, per the ledger.
pub fn settled_ops(ledger: &Ledger) -> u64 {
    ledger.installs_completed + ledger.uninstalls_completed
}

/// Rounds a cycle takes, to size the span buffer of a traced run.
fn expected_cycle_rounds(workload: Workload, plan: &Plan) -> usize {
    match workload {
        Workload::SteadyDrive => usize::try_from(plan.steady_rounds).expect("small"),
        Workload::MgmtChurn => 24,
        Workload::LossyRollout => 700,
    }
}

/// steady_drive: signal-chain rounds, then an actuator check.
fn steady_cycle(scenario: &mut FleetScenario, plan: &Plan, operator: &mut Operator) {
    for _ in 0..plan.steady_rounds {
        operator.round(scenario);
    }
    check_actuators(scenario, &mut operator.checks, GAIN_V1);
}

/// Rounds a wave may take before it counts as stuck.
const MAX_WAVE_ROUNDS: u64 = 600;

/// mgmt_churn: install v1, uninstall v1, install v2, uninstall v2, each a
/// fleet-wide wave of direct deploys awaited to settle.
fn churn_cycle(scenario: &mut FleetScenario, operator: &mut Operator, settle: &mut SettleTracker) {
    let user = scenario.user.clone();
    let ids: Vec<VehicleId> = scenario.fleet.vehicle_ids().to_vec();
    for (app, install) in [
        (APP_TELEMETRY, true),
        (APP_TELEMETRY, false),
        (APP_TELEMETRY_V2, true),
        (APP_TELEMETRY_V2, false),
    ] {
        let app = AppId::new(app);
        for id in &ids {
            let pushed = operator.manage(scenario, |server| {
                if install {
                    server.deploy(&user, id, &app)
                } else {
                    server.uninstall(&user, id, &app)
                }
            });
            if pushed.is_some() {
                settle.start(id, operator.tick);
            }
        }
        let wanted = if install {
            DeploymentStatus::Installed
        } else {
            DeploymentStatus::NotInstalled
        };
        let wave_start = operator.tick;
        while settle.pending() > 0 && operator.tick - wave_start < MAX_WAVE_ROUNDS {
            operator.round(scenario);
            let server = &scenario.fleet.server;
            settle.observe(operator.tick, |id| {
                server.deployment_status(id, &app) == wanted
            });
        }
        let stuck = settle.pending();
        operator.checks.expect(stuck == 0, || {
            format!("{stuck} vehicles never settled {app}")
        });
        settle.observe(operator.tick, |_| true);

        check_ground_truth(
            scenario,
            &mut operator.checks,
            TrustedServer::installed_apps,
        );
        if !install {
            // The removed plug-ins' last actuation is the freshest value.
            let gain = if app.name() == APP_TELEMETRY {
                GAIN_V1
            } else {
                GAIN_V2
            };
            check_actuators(scenario, &mut operator.checks, gain);
        }
        let server = &scenario.fleet.server;
        let replayed = server
            .journal_bytes()
            .map(|bytes| TrustedServer::replay(bytes).map(|replayed| replayed.snapshot_bytes()));
        let live = server.snapshot_bytes();
        operator.checks.expect(
            matches!(&replayed, Some(Ok(snapshot)) if *snapshot == live),
            || "journal replay does not reproduce the live snapshot".to_owned(),
        );
    }
}

/// Rounds a campaign may take before it counts as stuck.
const MAX_CAMPAIGN_ROUNDS: u64 = 6_000;

/// lossy_rollout: v1→v2 to completion (with two reboots mid-wave), a bad
/// version that auto-aborts and rolls back, then v2→v1.  Returns the
/// vehicles the bad version reached before its abort.
fn rollout_cycle(
    campaign: &mut CampaignScenario,
    plan: &Plan,
    cycle: usize,
    operator: &mut Operator,
    settle: &mut SettleTracker,
) -> u64 {
    let steps = [
        (
            "up",
            APP_TELEMETRY_V2,
            APP_TELEMETRY,
            CampaignStatus::Complete,
        ),
        (
            "bad",
            APP_TELEMETRY_BAD,
            APP_TELEMETRY_V2,
            CampaignStatus::Aborted,
        ),
        (
            "down",
            APP_TELEMETRY,
            APP_TELEMETRY_V2,
            CampaignStatus::Complete,
        ),
    ];
    let mut exposed_before_abort = 0;
    for (index, (name, app, replaces, terminal)) in steps.into_iter().enumerate() {
        let id = format!("c{cycle}-{name}");
        let spec = campaign.spec(&id, app, Some(replaces));
        let user: UserId = campaign.user().clone();
        let reboots: &[(u64, usize)] = if index == 0 { &plan.reboots } else { &[] };
        let status = drive_campaign(campaign, operator, settle, &user, spec, reboots);
        operator.checks.expect(status == Some(terminal), || {
            format!("campaign {id} ended {status:?}, expected {terminal:?}")
        });
        if terminal == CampaignStatus::Aborted {
            exposed_before_abort = campaign
                .inner
                .fleet
                .server
                .campaign(&CampaignId::new(&id))
                .map_or(0, |c| c.counters.exposed);
        }
        let scenario = &campaign.inner;
        check_ground_truth(
            scenario,
            &mut operator.checks,
            TrustedServer::desired_manifest,
        );
        let settled = if terminal == CampaignStatus::Aborted {
            replaces
        } else {
            app
        };
        let gain = if settled == APP_TELEMETRY {
            GAIN_V1
        } else {
            GAIN_V2
        };
        check_actuators(scenario, &mut operator.checks, gain);
    }
    exposed_before_abort
}

/// Creates one campaign and drives it until it is terminal and the fleet
/// converged, firing `reboots` and the periodic reconcile sweep.
fn drive_campaign(
    campaign: &mut CampaignScenario,
    operator: &mut Operator,
    settle: &mut SettleTracker,
    user: &UserId,
    spec: dynar_server::campaign::CampaignSpec,
    reboots: &[(u64, usize)],
) -> Option<CampaignStatus> {
    let id = spec.id.clone();
    let interval = campaign.config().reconcile_interval;
    let ids: Vec<VehicleId> = campaign.inner.fleet.vehicle_ids().to_vec();
    let mut desired: Vec<Vec<AppId>> = ids
        .iter()
        .map(|v| campaign.inner.fleet.server.desired_manifest(v))
        .collect();
    operator.manage(&mut campaign.inner, |server| {
        server.create_campaign(user, spec)
    })?;
    let start = operator.tick;
    let mut pending_reboots = reboots.to_vec();
    loop {
        let elapsed = operator.tick - start;
        for (at, index) in pending_reboots.iter().copied() {
            if at == elapsed {
                let vehicle = ids[index].clone();
                operator.reboot(&mut campaign.inner, &vehicle);
            }
        }
        pending_reboots.retain(|&(at, _)| at > elapsed);
        if interval > 0 && operator.tick.is_multiple_of(interval) {
            for vehicle in &ids {
                operator.manage(&mut campaign.inner, |server| server.reconcile(vehicle));
            }
        }
        operator.round(&mut campaign.inner);

        let server = &campaign.inner.fleet.server;
        for (vehicle, last) in ids.iter().zip(desired.iter_mut()) {
            let now = server.desired_manifest(vehicle);
            if now != *last {
                *last = now;
                settle.start(vehicle, operator.tick);
            }
        }
        settle.observe(operator.tick, |vehicle| vehicle_converged(server, vehicle));

        let status = server.campaign(&id).map(|c| c.status);
        let terminal = matches!(
            status,
            Some(CampaignStatus::Complete | CampaignStatus::Aborted)
        );
        if terminal && pending_reboots.is_empty() && campaign.fleet_converged() {
            return status;
        }
        if operator.tick - start >= MAX_CAMPAIGN_ROUNDS {
            return status;
        }
    }
}

/// A vehicle's observed state equals its desired manifest and nothing is in
/// flight for it.
fn vehicle_converged(server: &TrustedServer, vehicle: &VehicleId) -> bool {
    let desired = server.desired_manifest(vehicle);
    server.pending_operations(vehicle).is_empty()
        && server.outstanding_count(vehicle) == 0
        && server.installed_apps(vehicle) == desired
        && desired
            .iter()
            .all(|app| server.deployment_status(vehicle, app) == DeploymentStatus::Installed)
}
