//! Sharded-vs-serial equivalence, pinned for CI: the same seeded campaign
//! run with 1, 2 and 8 server shards must end in **byte-for-byte identical**
//! server state.
//!
//! This is the contract that makes the parallel fleet tick trustworthy: the
//! shard fan-out ([`dynar::server::server::ShardHandle`] + per-shard hubs +
//! deterministic journal merge) is a pure execution strategy — it must never
//! leak into observable state.  Three layers are compared against the serial
//! baseline:
//!
//! * the durability snapshot (`snapshot_bytes`, globally sorted and
//!   deliberately shard-agnostic),
//! * the operation ledger (commutative event sums folded per shard),
//! * the fleet- and transport-level counters (per-link fault/jitter streams
//!   are keyed by endpoint names and the pinned seed, not by hub identity).
//!
//! A second test pins the durability half under parallelism: a journaled
//! campaign run at 2 and 8 shards replays byte-identically — including a
//! mid-campaign crash + recovery — and the merged journal is itself
//! shard-agnostic (a serial replay of a parallel journal converges on the
//! same bytes).
//!
//! A third test pins the vehicle-error rule of the round: a vehicle whose
//! step fails (a signal too large to segment) does not stop the rest of the
//! round, so one and two shards end in the same state whichever round the
//! error lands in.

use dynar::foundation::ids::{AppId, EcuId};
use dynar::foundation::value::Value;
use dynar::rte::com_mapping::SEGMENT_DATA;
use dynar::server::{Ledger, TrustedServer};
use dynar::sim::scenario::chaos::{ChaosConfig, ChaosScenario};
use dynar::sim::scenario::fleet::{FleetScenario, FleetScenarioConfig, APP_TELEMETRY};
use dynar::sim::scenario::restart::{RestartConfig, RestartScenario};
use dynar::sim::FleetStats;

/// One full chaos campaign (10 % loss, jitter, mid-wave partition) at the
/// given shard count, returning everything that must match across counts.
fn chaos_campaign(shards: usize) -> (Vec<u8>, Ledger, FleetStats) {
    let mut scenario = ChaosScenario::build_with(ChaosConfig {
        shards,
        ..ChaosConfig::default()
    })
    .expect("chaos scenario builds");
    let report = scenario.run().expect("chaos campaign converges");
    assert!(report.transport.is_conserved(), "{report:?}");
    (
        scenario.inner.fleet.server.snapshot_bytes(),
        scenario.inner.fleet.server.ledger(),
        scenario.inner.fleet.stats().clone(),
    )
}

#[test]
fn sharded_chaos_campaign_matches_the_serial_one_byte_for_byte() {
    let (snapshot, ledger, stats) = chaos_campaign(1);
    for shards in [2, 8] {
        let (shadow_snapshot, shadow_ledger, shadow_stats) = chaos_campaign(shards);
        assert_eq!(
            snapshot, shadow_snapshot,
            "durability snapshot diverged at {shards} shards"
        );
        assert_eq!(
            ledger, shadow_ledger,
            "operation ledger diverged at {shards} shards"
        );
        assert_eq!(
            stats, shadow_stats,
            "fleet counters diverged at {shards} shards"
        );
    }
}

#[test]
fn parallel_journal_replays_byte_identically_through_a_crash() {
    for shards in [2, 8] {
        // The scenario itself asserts byte identity twice: at the crash
        // (replayed successor == crashed process) and at the end (the
        // successor's own journal replays byte-identically) — both with the
        // journal records produced by *parallel* ticks.
        let mut scenario = RestartScenario::build_with(RestartConfig {
            vehicles: 6,
            shards,
            ..RestartConfig::default()
        })
        .expect("restart scenario builds");
        let report = scenario.run().expect("restart campaign converges");
        assert_eq!(report.incarnation, 1, "{shards} shards: {report:?}");
        assert!(report.journal_bytes > 0, "{shards} shards: {report:?}");

        // The merged journal is shard-agnostic: replaying the parallel run's
        // journal into a *serial* server converges on the same bytes.
        let journal = scenario
            .inner
            .fleet
            .server
            .journal_bytes()
            .expect("successor journals")
            .to_vec();
        let serial_replay =
            TrustedServer::replay(&journal).expect("parallel journal replays serially");
        assert_eq!(
            serial_replay.snapshot_bytes(),
            scenario.inner.fleet.server.snapshot_bytes(),
            "{shards} shards: serial replay of the parallel journal diverged"
        );
    }
}

/// The server state one test compares across shard counts.
type ServerState = (Vec<u8>, Ledger, FleetStats);

fn server_state(scenario: &FleetScenario) -> ServerState {
    (
        scenario.fleet.server.snapshot_bytes(),
        scenario.fleet.server.ledger(),
        scenario.fleet.stats().clone(),
    )
}

/// A fleet whose first vehicle fails its step in the middle of an install
/// wave: its speed sensor is handed a signal too large for the segmenter
/// (more than `u16::MAX` frames), so `Vehicle::step` returns the
/// segmentation error after `healthy_rounds` good rounds.  Returns the state
/// right after the failing round and after the wave settled.
fn failing_vehicle_round(shards: usize, healthy_rounds: u64) -> (ServerState, ServerState) {
    let mut scenario = FleetScenario::build_with(FleetScenarioConfig {
        vehicles: 6,
        workers_per_vehicle: 2,
        shards,
        ..FleetScenarioConfig::default()
    })
    .expect("fleet scenario builds");
    let user = scenario.user.clone();
    let app = AppId::new(APP_TELEMETRY);
    let ids = scenario.fleet.vehicle_ids().to_vec();
    for id in &ids {
        scenario
            .fleet
            .server
            .set_desired(&user, id, &app)
            .expect("desired manifest accepted");
    }
    scenario.fleet.run(healthy_rounds).expect("healthy rounds");

    let ecm = scenario
        .fleet
        .vehicle_mut(&ids[0])
        .and_then(|vehicle| vehicle.ecu_mut(EcuId::new(1)))
        .expect("the victim's ECM ECU");
    let sensor = ecm
        .component_by_name("speed-sensor")
        .expect("speed sensor SW-C");
    let port = ecm.rte().port_id(sensor, "speed_out").expect("sensor port");
    let oversized = vec![0u8; (usize::from(u16::MAX) + 1) * SEGMENT_DATA];
    ecm.rte_mut()
        .write_port(port, Value::Bytes(oversized))
        .expect("the write itself succeeds");

    let error = scenario
        .fleet
        .step()
        .expect_err("the oversized signal fails the victim's step");
    assert!(
        error.to_string().contains("u16"),
        "{shards} shards, round {}: unexpected error {error}",
        healthy_rounds + 1
    );
    let failed_round = server_state(&scenario);
    scenario.fleet.run(60).expect("later rounds are healthy");
    (failed_round, server_state(&scenario))
}

/// One vehicle-error rule at every shard count: a failing vehicle step does
/// not stop the other vehicles, the uplinks, the journal merge or the
/// campaign gates of its round, so the error cannot make shard counts
/// diverge.
#[test]
fn a_vehicle_step_error_ends_identically_at_one_and_two_shards() {
    // The failing round sweeps the install wave: packages going out, the
    // first acknowledgements arriving, the last ones settling.
    for healthy_rounds in 1..=8 {
        let serial = failing_vehicle_round(1, healthy_rounds);
        let sharded = failing_vehicle_round(2, healthy_rounds);
        let round = healthy_rounds + 1;
        for (when, a, b) in [
            ("failing round", &serial.0, &sharded.0),
            ("settled", &serial.1, &sharded.1),
        ] {
            assert_eq!(a.1, b.1, "error in round {round}, {when}: ledger diverged");
            assert_eq!(
                a.2, b.2,
                "error in round {round}, {when}: fleet counters diverged"
            );
            assert!(
                a.0 == b.0,
                "error in round {round}, {when}: snapshot diverged"
            );
        }
    }
}
