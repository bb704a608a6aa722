//! The server-restart scenario: the trusted server crashes mid-campaign and
//! recovers from its write-ahead journal while the fleet keeps living.
//!
//! Where [`crate::scenario::churn`] stresses *vehicle* lifecycle (reboots,
//! removals, joins), this scenario stresses the *server's* lifecycle: at a
//! scheduled tick the server process is killed — everything that only lived
//! in its memory is gone — and a successor is reconstructed by replaying the
//! journal ([`TrustedServer::replay`]).  The successor announces itself to
//! the fleet by bumping its **incarnation id**
//! ([`TrustedServer::begin_incarnation`]), the downlink-side mirror of the
//! vehicles' `boot_epoch`, and re-solicits a state report from every gateway.
//!
//! What must hold:
//!
//! * **Byte identity** — the replayed server's durability snapshot
//!   (`snapshot_bytes`) and operation ledger are *byte-for-byte identical*
//!   to the crashed process's at the moment of the crash.  Recovery is not
//!   "close enough"; it is exact.
//! * **Convergence across both epoch axes** — the campaign converges even
//!   with a vehicle reboot (boot-epoch bump) landing inside the server's
//!   recovery window (incarnation bump).
//! * **No double-apply** — no PIRTE of any incarnation rejects a duplicate
//!   operation, and every actuator value is divisible by exactly the
//!   manifest's gain: stale pre-crash downlinks and post-recovery re-pushes
//!   never apply twice.
//! * **Conservation** — `sent == delivered + lost + dropped + in-flight`
//!   holds on the transport at every tick, the crash included (the transport
//!   outlives the server process, as the real network would).
//! * **Durability survives recovery** — the successor journals too; replaying
//!   *its* journal at the end of the campaign is byte-identical again.
//!
//! The crash is an [`crate::scenario::fleet::Event::Crash`] on the scenario
//! engine; every check above is part of the engine's step or of
//! [`FleetScenario::verify`].
//!
//! [`TrustedServer::replay`]: dynar_server::server::TrustedServer::replay
//! [`TrustedServer::begin_incarnation`]: dynar_server::server::TrustedServer::begin_incarnation

use dynar_fes::transport::TransportConfig;
use dynar_foundation::error::Result;
use dynar_foundation::ids::AppId;
use dynar_server::server::RetryPolicy;

use crate::scenario::fleet::{
    Event, FleetScenario, FleetScenarioConfig, Invariants, ScenarioReport, WaveOp, APP_TELEMETRY,
};

/// How the restart campaign is sized, how hostile its transport is, and when
/// the crash and the concurrent vehicle reboot fire.
#[derive(Debug, Clone)]
pub struct RestartConfig {
    /// Number of vehicles in the fleet.
    pub vehicles: usize,
    /// Worker ECUs per vehicle.
    pub workers_per_vehicle: u16,
    /// Symmetric loss probability of the external transport.
    pub loss_probability: f64,
    /// Base delivery latency of the external transport.
    pub latency_ticks: u64,
    /// Per-link latency jitter in ticks (FIFO order is preserved).
    pub jitter_ticks: u64,
    /// Seed of the transport's fault models.
    pub seed: u64,
    /// Server-side retransmission policy.
    pub retry: RetryPolicy,
    /// Ticks between periodic reconcile sweeps.
    pub reconcile_interval: u64,
    /// Journal compaction interval (records between snapshots).
    pub compaction_interval: u32,
    /// Tick at which the server process crashes and is replayed.
    pub crash_tick: u64,
    /// `(tick, vehicle index)`: a vehicle reboot scheduled to land inside
    /// the server's recovery window, putting both epoch axes in motion.
    pub reboot: Option<(u64, usize)>,
    /// Hard horizon for the whole campaign, in ticks.
    pub max_ticks: u64,
    /// Server shard count (1 = the round runs inline; more shards run the same
    /// campaign shard-parallel — the journal and its replay stay identical).
    pub shards: usize,
}

impl Default for RestartConfig {
    fn default() -> Self {
        RestartConfig {
            vehicles: 8,
            workers_per_vehicle: 3,
            loss_probability: 0.10,
            latency_ticks: 1,
            jitter_ticks: 2,
            seed: 0xD1ED,
            retry: RetryPolicy::default(),
            reconcile_interval: 50,
            compaction_interval: 64,
            // Mid-install of the wave: packages are in flight, acks pending.
            crash_tick: 12,
            // The reboot lands right after the crash, inside the recovery
            // window, so a boot-epoch bump races the incarnation bump.
            reboot: Some((14, 1)),
            max_ticks: 3_000,
            shards: 1,
        }
    }
}

impl RestartConfig {
    /// Runs the full restart campaign on the scenario engine: the server
    /// journals from the start (a control plane that only starts journaling
    /// after the crash has nothing to replay), a fleet-wide v1 install wave
    /// is driven declaratively, the scheduled crash and journal replay land
    /// mid-wave, a vehicle reboot lands inside the recovery window, a
    /// periodic reconcile sweep closes every gap, and a final ground-truth
    /// check ([`Invariants::GroundTruth`]) includes a byte-identical replay
    /// of the successor's journal.
    ///
    /// # Errors
    ///
    /// Returns [`dynar_foundation::error::DynarError::InvalidConfiguration`]
    /// for a reboot naming a vehicle outside the fleet, propagates step
    /// errors and invariant violations, and returns
    /// [`dynar_foundation::error::DynarError::RetryExhausted`] if the fleet
    /// does not converge within the configured horizon.
    pub fn run(&self) -> Result<(FleetScenario, ScenarioReport)> {
        let fleet = FleetScenarioConfig {
            vehicles: self.vehicles,
            workers_per_vehicle: self.workers_per_vehicle,
            transport: TransportConfig {
                latency_ticks: self.latency_ticks,
                loss_probability: self.loss_probability,
                seed: self.seed,
            },
            shards: self.shards,
            ..FleetScenarioConfig::default()
        };
        let mut scenario = FleetScenario::scripted(
            fleet,
            &self.retry,
            self.jitter_ticks,
            None,
            self.reconcile_interval,
        )?;
        scenario
            .fleet
            .server
            .enable_journal(self.compaction_interval);
        // The whole fleet desires v1 at tick 0: the crash lands mid-wave.
        let wave = Event::Wave {
            op: WaveOp::SetDesired,
            app: AppId::new(APP_TELEMETRY),
            vehicles: scenario.fleet.vehicle_ids().to_vec(),
        };
        scenario.schedule(0, wave)?;
        let crash = Event::Crash {
            compaction_interval: self.compaction_interval,
        };
        scenario.schedule(self.crash_tick, crash)?;
        if let Some((tick, index)) = self.reboot {
            scenario.schedule(tick, Event::Reboot(index))?;
        }

        scenario.run_until(self.max_ticks, FleetScenario::settled)?;
        scenario.verify(Invariants::GroundTruth)?;
        let report = scenario.report();
        Ok((scenario, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The pinned-seed acceptance campaign (12 vehicles, 10 % loss) lives in
    // `tests/server_restart.rs`; the unit tests here keep the scenario's
    // building blocks honest at a smaller size and without loss.

    #[test]
    fn lossless_crash_recovery_converges() {
        let (_, report) = RestartConfig {
            vehicles: 3,
            workers_per_vehicle: 2,
            loss_probability: 0.0,
            jitter_ticks: 0,
            crash_tick: 4,
            reboot: Some((6, 0)),
            ..RestartConfig::default()
        }
        .run()
        .unwrap();
        assert_eq!(report.incarnation, 1, "{report:?}");
        assert_eq!(report.rebooted, 1, "{report:?}");
        assert!(report.journal_bytes > 0, "{report:?}");
        assert!(report.transport.is_conserved());
    }

    #[test]
    fn aggressive_compaction_preserves_recovery() {
        // A snapshot every 4 records: the crash almost certainly lands with
        // most of the history folded into the snapshot frame, exercising the
        // snapshot ⊕ tail replay path rather than a pure record replay.
        let (_, report) = RestartConfig {
            vehicles: 2,
            workers_per_vehicle: 2,
            loss_probability: 0.0,
            jitter_ticks: 0,
            compaction_interval: 4,
            crash_tick: 6,
            reboot: None,
            ..RestartConfig::default()
        }
        .run()
        .unwrap();
        assert_eq!(report.incarnation, 1, "{report:?}");
        assert_eq!(report.rebooted, 0, "{report:?}");
    }

    #[test]
    fn crash_before_any_package_was_pushed_recovers() {
        let (_, report) = RestartConfig {
            vehicles: 2,
            workers_per_vehicle: 2,
            loss_probability: 0.0,
            jitter_ticks: 0,
            crash_tick: 0,
            reboot: None,
            ..RestartConfig::default()
        }
        .run()
        .unwrap();
        assert_eq!(report.crashed_at, 0, "{report:?}");
        assert_eq!(report.incarnation, 1, "{report:?}");
    }

    #[test]
    fn a_reboot_outside_the_fleet_is_a_configuration_error() {
        let result = RestartConfig {
            vehicles: 2,
            reboot: Some((14, 2)),
            ..RestartConfig::default()
        }
        .run();
        assert!(matches!(
            result,
            Err(dynar_foundation::error::DynarError::InvalidConfiguration(_))
        ));
    }
}
