//! Round goldens: the end state of every pinned-seed federation scenario,
//! pinned as FNV-1a digests.  The chaos, churn, restart, campaign and
//! remote-car digests were recorded at commit `ea64a84`, where the
//! federation round was still written three times (the one-vehicle world,
//! the serial fleet round and the per-shard round).  The lossy-uplink and
//! one-attempt chaos, journaled rollout, tick-zero crash and staged
//! install/update digests were recorded at commit `eab1f42`, where every
//! scenario still ran its own hand-written drive loop.
//!
//! The shard-equivalence suites compare shard counts *within* one build;
//! these digests pin the observable state *across* changes to the round
//! itself.  Each run digests four things:
//!
//! * the server's durability snapshot (`snapshot_bytes`),
//! * the `Debug` form of the operation [`Ledger`],
//! * the `Debug` form of the [`FleetStats`] (or, for the one-vehicle remote
//!   car, of its bus statistics and drive report),
//! * the `Debug` form of the transport statistics.
//!
//! A digest that changes means a refactor changed behaviour.

use std::fmt::Debug;

use dynar::fes::transport::TransportStats;
use dynar::server::campaign::{CampaignId, CampaignStatus};
use dynar::server::server::RetryPolicy;
use dynar::server::{Ledger, TrustedServer};
use dynar::sim::scenario::campaign::{CampaignScenario, CampaignScenarioConfig, APP_TELEMETRY_BAD};
use dynar::sim::scenario::chaos::ChaosConfig;
use dynar::sim::scenario::churn::{ChurnConfig, ChurnPlan};
use dynar::sim::scenario::fleet::{
    FleetScenario, FleetScenarioConfig, APP_TELEMETRY, APP_TELEMETRY_V2,
};
use dynar::sim::scenario::remote_car::RemoteCarScenario;
use dynar::sim::scenario::restart::RestartConfig;
use dynar::sim::FleetStats;

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

fn fnv(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    for byte in bytes {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

fn fnv_debug(value: &impl Debug) -> u64 {
    fnv(format!("{value:?}").as_bytes())
}

/// `(snapshot, ledger, stats, transport)` digests of one run.
type Digests = [u64; 4];

fn digests(
    server: &TrustedServer,
    ledger: &Ledger,
    stats: &impl Debug,
    transport: &TransportStats,
) -> Digests {
    [
        fnv(&server.snapshot_bytes()),
        fnv_debug(ledger),
        fnv_debug(stats),
        fnv_debug(transport),
    ]
}

fn fleet_digests(
    server: &TrustedServer,
    stats: &FleetStats,
    transport: &TransportStats,
) -> Digests {
    digests(server, &server.ledger(), stats, transport)
}

fn assert_golden(name: &str, actual: Digests, golden: Digests) {
    assert_eq!(
        actual, golden,
        "{name}: end state diverged from the recorded round (actual digests {actual:#018x?})"
    );
}

/// The chaos acceptance run of `tests/chaos.rs`: 10 % loss, jitter and a
/// 50-tick partition over install, uninstall and reinstall waves.
fn chaos(shards: usize) -> Digests {
    let (scenario, _) = ChaosConfig {
        shards,
        ..ChaosConfig::default()
    }
    .run()
    .expect("chaos campaign converges");
    let fleet = &scenario.fleet;
    fleet_digests(&fleet.server, fleet.stats(), &fleet.transport_stats())
}

/// The churn acceptance run of `tests/churn.rs`: 20 vehicles at 10 % loss
/// with reboots, a removal and a join overlapping the waves.
fn churn(shards: usize) -> Digests {
    let (scenario, _) = ChurnConfig {
        shards,
        vehicles: 20,
        workers_per_vehicle: 3,
        loss_probability: 0.10,
        jitter_ticks: 2,
        seed: 0xC4_A052,
        second_wave_tick: 40,
        update_tick: 300,
        update_count: 3,
        plan: ChurnPlan {
            reboots: vec![(12, 0), (18, 4), (200, 7)],
            removals: vec![(1, 3)],
            additions: vec![90],
        },
        ..ChurnConfig::default()
    }
    .run()
    .expect("churn campaign converges");
    let fleet = &scenario.fleet;
    fleet_digests(&fleet.server, fleet.stats(), &fleet.transport_stats())
}

/// The restart acceptance run of `tests/server_restart.rs`: 12 vehicles at
/// 10 % loss, a server crash mid-wave and a reboot inside the recovery
/// window.
fn restart(shards: usize) -> Digests {
    let (scenario, _) = RestartConfig {
        shards,
        vehicles: 12,
        workers_per_vehicle: 3,
        loss_probability: 0.10,
        jitter_ticks: 2,
        seed: 0xD14_57E4,
        compaction_interval: 64,
        crash_tick: 12,
        reboot: Some((14, 2)),
        ..RestartConfig::default()
    }
    .run()
    .expect("restart campaign converges");
    let fleet = &scenario.fleet;
    fleet_digests(&fleet.server, fleet.stats(), &fleet.transport_stats())
}

/// The bad-version abort of `tests/campaign.rs`, under 10 % loss with both
/// canaries rebooting mid-wave, after the fleet converged on v1.
fn campaign(shards: usize) -> Digests {
    let mut scenario = CampaignScenario::build_with(CampaignScenarioConfig {
        vehicles: 12,
        canary: 2,
        loss_probability: 0.10,
        latency_ticks: 2,
        min_soak_ticks: 40,
        max_ticks: 12_000,
        reboots: vec![(12, 0), (25, 1)],
        shards,
        ..CampaignScenarioConfig::default()
    })
    .expect("campaign scenario builds");
    scenario.converge_on_v1().expect("fleet converges on v1");
    let spec = scenario.spec("bad-v2", APP_TELEMETRY_BAD, Some(APP_TELEMETRY));
    scenario.run_campaign(spec).expect("abort converges");
    let fleet = &scenario.inner.fleet;
    fleet_digests(&fleet.server, fleet.stats(), &fleet.transport_stats())
}

/// The asymmetric-loss chaos run: 20 % loss with a 5 % uplink override and
/// no partition, so the uplink `LinkFault` path takes part.  With a budget
/// of one delivery attempt, two uninstalls and the one v2 install resolve
/// to `Failed`, so the wave tallies' failure arms take part too.
fn lossy_uplink_chaos(shards: usize, max_attempts: u32) -> Digests {
    let (scenario, _) = ChaosConfig {
        vehicles: 3,
        loss_probability: 0.20,
        uplink_loss_probability: Some(0.05),
        partition: None,
        seed: 0xBADF00D,
        retry: RetryPolicy {
            max_attempts,
            ..RetryPolicy::default()
        },
        shards,
        ..ChaosConfig::default()
    }
    .run()
    .expect("chaos campaign converges");
    let fleet = &scenario.fleet;
    fleet_digests(&fleet.server, fleet.stats(), &fleet.transport_stats())
}

/// The journaled `good-v2` rollout of `tests/campaign.rs`: created by hand,
/// stepped ten rounds, then driven to `Complete`.
fn journaled_rollout(shards: usize) -> Digests {
    let mut scenario = CampaignScenario::build_with(CampaignScenarioConfig {
        vehicles: 12,
        canary: 2,
        ramp_percent: vec![50, 100],
        min_soak_ticks: 25,
        shards,
        ..CampaignScenarioConfig::default()
    })
    .expect("campaign scenario builds");
    scenario.inner.fleet.server.enable_journal(4096);
    scenario.converge_on_v1().expect("fleet converges on v1");
    let spec = scenario.spec("good-v2", APP_TELEMETRY_V2, Some(APP_TELEMETRY));
    let user = scenario.user().clone();
    scenario
        .inner
        .fleet
        .server
        .create_campaign(&user, spec)
        .expect("campaign creates");
    for _ in 0..10 {
        scenario.inner.step().expect("fleet steps");
    }
    let report = scenario
        .drive(&CampaignId::new("good-v2"))
        .expect("rollout completes");
    assert_eq!(report.status, Some(CampaignStatus::Complete));
    let fleet = &scenario.inner.fleet;
    fleet_digests(&fleet.server, fleet.stats(), &fleet.transport_stats())
}

/// A lossless restart whose crash is due at tick 0, before the first round.
fn crash_at_tick_zero(shards: usize) -> Digests {
    let (scenario, _) = RestartConfig {
        vehicles: 2,
        workers_per_vehicle: 2,
        loss_probability: 0.0,
        jitter_ticks: 0,
        crash_tick: 0,
        reboot: None,
        shards,
        ..RestartConfig::default()
    }
    .run()
    .expect("restart campaign converges");
    let fleet = &scenario.fleet;
    fleet_digests(&fleet.server, fleet.stats(), &fleet.transport_stats())
}

/// Six vehicles installed in waves of two, then all six updated to v2 in
/// waves of three.
fn staged_install_and_update(shards: usize) -> Digests {
    let mut scenario = FleetScenario::build_with(FleetScenarioConfig {
        vehicles: 6,
        shards,
        ..FleetScenarioConfig::default()
    })
    .expect("fleet scenario builds");
    scenario
        .install_telemetry(2)
        .expect("install waves converge");
    let targets = scenario.fleet.vehicle_ids().to_vec();
    scenario
        .update_telemetry(&targets, 3)
        .expect("update waves converge");
    let fleet = &scenario.fleet;
    fleet_digests(&fleet.server, fleet.stats(), &fleet.transport_stats())
}

/// Digests recorded at commits `ea64a84` and `eab1f42` (see the module
/// documentation).
mod golden {
    use super::Digests;

    pub const CHAOS: Digests = [
        0x2e5b78b52fcf6d29,
        0xde6b3247f2761c09,
        0x9dbc28bf8fab5669,
        0xbb958ee068ec8374,
    ];
    pub const CHURN: Digests = [
        0x19a31ecf9d3258a5,
        0x599d236dbfb551eb,
        0x91cec315d3d68183,
        0x99824f60b25e0eee,
    ];
    pub const RESTART: Digests = [
        0x639edb4eed966c36,
        0x0dedf7c925e2be3c,
        0x670249779065d101,
        0xa39868e1b96d0abb,
    ];
    pub const CAMPAIGN: Digests = [
        0x75504c9fda7d0b79,
        0xc3d4fe4c6295ba33,
        0xf241432d46944be7,
        0x0cd7ff5cb57b2799,
    ];
    pub const LOSSY_UPLINK_CHAOS: Digests = [
        0x5af26cf60f0b92fd,
        0x013057be303bee23,
        0xdea6e64d0f76e459,
        0x7e5dec388b11bff2,
    ];
    pub const ONE_ATTEMPT_CHAOS: Digests = [
        0x3996f071b83395e8,
        0xa46bf2f0e55d0606,
        0x903a069f7569f04d,
        0x749eae00c0508fb5,
    ];
    pub const JOURNALED_ROLLOUT: Digests = [
        0xf8404ad4bc616522,
        0x023a305bb6899059,
        0x5d9455d0ad9964f9,
        0xc8cea63130c5441d,
    ];
    pub const CRASH_AT_TICK_ZERO: Digests = [
        0x37aabc1c84e7a8be,
        0x53896e5a5b0b8099,
        0x87d498c71734dd25,
        0xb92777daaf8e5c49,
    ];
    pub const STAGED_INSTALL_AND_UPDATE: Digests = [
        0xf6ab5e7eff92d694,
        0x8423d51b272fc348,
        0x6479e674b790d081,
        0xa00cbfa5c2b6786d,
    ];
    pub const REMOTE_CAR: Digests = [
        0xb73e123e343ecaa3,
        0x42e70098f064c5dc,
        0x77c460a146b0c4b6,
        0xf86feacc073fa69d,
    ];
}

#[test]
fn chaos_round_matches_the_golden_at_one_and_two_shards() {
    for shards in [1, 2] {
        assert_golden(&format!("chaos/{shards}"), chaos(shards), golden::CHAOS);
    }
}

#[test]
fn churn_round_matches_the_golden_at_one_and_two_shards() {
    for shards in [1, 2] {
        assert_golden(&format!("churn/{shards}"), churn(shards), golden::CHURN);
    }
}

#[test]
fn restart_round_matches_the_golden_at_one_and_two_shards() {
    for shards in [1, 2] {
        assert_golden(
            &format!("restart/{shards}"),
            restart(shards),
            golden::RESTART,
        );
    }
}

#[test]
fn campaign_round_matches_the_golden_at_one_and_two_shards() {
    for shards in [1, 2] {
        assert_golden(
            &format!("campaign/{shards}"),
            campaign(shards),
            golden::CAMPAIGN,
        );
    }
}

#[test]
fn lossy_uplink_chaos_matches_the_golden_at_one_and_two_shards() {
    for shards in [1, 2] {
        assert_golden(
            &format!("lossy uplink chaos/{shards}"),
            lossy_uplink_chaos(shards, 8),
            golden::LOSSY_UPLINK_CHAOS,
        );
    }
}

#[test]
fn one_attempt_chaos_matches_the_golden_at_one_and_two_shards() {
    for shards in [1, 2] {
        assert_golden(
            &format!("one-attempt chaos/{shards}"),
            lossy_uplink_chaos(shards, 1),
            golden::ONE_ATTEMPT_CHAOS,
        );
    }
}

#[test]
fn journaled_rollout_matches_the_golden_at_one_and_two_shards() {
    for shards in [1, 2] {
        assert_golden(
            &format!("journaled rollout/{shards}"),
            journaled_rollout(shards),
            golden::JOURNALED_ROLLOUT,
        );
    }
}

#[test]
fn crash_at_tick_zero_matches_the_golden_at_one_and_two_shards() {
    for shards in [1, 2] {
        assert_golden(
            &format!("crash at tick zero/{shards}"),
            crash_at_tick_zero(shards),
            golden::CRASH_AT_TICK_ZERO,
        );
    }
}

#[test]
fn staged_install_and_update_matches_the_golden_at_one_and_two_shards() {
    for shards in [1, 2] {
        assert_golden(
            &format!("staged install and update/{shards}"),
            staged_install_and_update(shards),
            golden::STAGED_INSTALL_AND_UPDATE,
        );
    }
}

/// The remote-car drive of `tests/routing_equivalence.rs`: install, then
/// 300 ticks of phone commands.  The stats digest covers the bus statistics
/// and the drive report.
#[test]
fn remote_car_round_matches_the_golden() {
    let mut scenario = RemoteCarScenario::build().expect("remote car builds");
    scenario.install_app().expect("remote-control app installs");
    let report = scenario.drive(300).expect("drive runs");
    let fleet = scenario.fleet();
    let actual = digests(
        &fleet.server,
        &fleet.server.ledger(),
        &(scenario.vehicle().bus().stats(), report),
        &fleet.transport_stats(),
    );
    assert_golden("remote car", actual, golden::REMOTE_CAR);
}
