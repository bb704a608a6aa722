//! Round goldens: the end state of every pinned-seed federation scenario,
//! pinned as FNV-1a digests recorded at commit `ea64a84`, where the
//! federation round was still written three times (the one-vehicle world,
//! the serial fleet round and the per-shard round).
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
use dynar::server::{Ledger, TrustedServer};
use dynar::sim::scenario::campaign::{CampaignScenario, CampaignScenarioConfig, APP_TELEMETRY_BAD};
use dynar::sim::scenario::chaos::{ChaosConfig, ChaosScenario};
use dynar::sim::scenario::churn::{ChurnConfig, ChurnPlan, ChurnScenario};
use dynar::sim::scenario::fleet::APP_TELEMETRY;
use dynar::sim::scenario::remote_car::RemoteCarScenario;
use dynar::sim::scenario::restart::{RestartConfig, RestartScenario};
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
    let mut scenario = ChaosScenario::build_with(ChaosConfig {
        shards,
        ..ChaosConfig::default()
    })
    .expect("chaos scenario builds");
    scenario.run().expect("chaos campaign converges");
    let fleet = &scenario.inner.fleet;
    fleet_digests(&fleet.server, fleet.stats(), &fleet.transport_stats())
}

/// The churn acceptance run of `tests/churn.rs`: 20 vehicles at 10 % loss
/// with reboots, a removal and a join overlapping the waves.
fn churn(shards: usize) -> Digests {
    let mut scenario = ChurnScenario::build_with(ChurnConfig {
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
    })
    .expect("churn scenario builds");
    scenario.run().expect("churn campaign converges");
    let fleet = &scenario.inner.fleet;
    fleet_digests(&fleet.server, fleet.stats(), &fleet.transport_stats())
}

/// The restart acceptance run of `tests/server_restart.rs`: 12 vehicles at
/// 10 % loss, a server crash mid-wave and a reboot inside the recovery
/// window.
fn restart(shards: usize) -> Digests {
    let mut scenario = RestartScenario::build_with(RestartConfig {
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
    })
    .expect("restart scenario builds");
    scenario.run().expect("restart campaign converges");
    let fleet = &scenario.inner.fleet;
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

/// Digests recorded at commit `ea64a84`.
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
