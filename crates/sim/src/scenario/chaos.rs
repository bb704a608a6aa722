//! The chaos scenario: the fleet scenario run over a *lossy* federation
//! link, exercising the reliability plane end to end.
//!
//! The scenario drives install → update (uninstall + reinstall) waves across
//! a fleet whose external transport loses 1–20 % of all messages, adds
//! latency jitter, and suffers a temporary partition between the trusted
//! server and part of the fleet.  It asserts the properties the federation
//! reliability plane guarantees:
//!
//! * **Convergence** — every management operation ends `Installed`,
//!   `NotInstalled` (after an uninstall) or typed-`Failed` within the
//!   server's retry horizon; nothing stays `Pending` forever.
//! * **Idempotence** — retransmitted installs are deduplicated at the ECM
//!   gateway: no PIRTE ever sees a duplicate operation
//!   (`rejected_operations == 0`, plug-in counts never exceed one per app).
//! * **Conservation** — the transport accounts for every message at every
//!   tick: `sent == delivered + lost + dropped (+ in-flight)`.

use dynar_fes::transport::TransportConfig;
use dynar_foundation::error::Result;
use dynar_foundation::ids::AppId;
use dynar_server::server::RetryPolicy;

use crate::scenario::fleet::{
    Event, FleetScenario, FleetScenarioConfig, Invariants, WaveOp, APP_TELEMETRY, APP_TELEMETRY_V2,
};

/// A temporary partition between the trusted server and part of the fleet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionPlan {
    /// Fleet tick at which the partition starts.
    pub start_tick: u64,
    /// How long the partition lasts before it heals.
    pub duration_ticks: u64,
    /// How many vehicles (the first `n` in registration order) are cut off.
    pub vehicles: usize,
}

/// How the chaos scenario is sized and how hostile its transport is.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Number of vehicles in the fleet.
    pub vehicles: usize,
    /// Worker ECUs per vehicle.
    pub workers_per_vehicle: u16,
    /// Symmetric loss probability of the external transport (`0.01..=0.20`
    /// is the range the scenario is designed for).
    pub loss_probability: f64,
    /// Uplink-only loss override (asymmetric loss); `None` keeps the
    /// symmetric probability.
    pub uplink_loss_probability: Option<f64>,
    /// Base delivery latency of the external transport.
    pub latency_ticks: u64,
    /// Per-link latency jitter in ticks (FIFO order is preserved).
    pub jitter_ticks: u64,
    /// Seed of the transport's fault models.
    pub seed: u64,
    /// The temporary partition injected while the first wave is in flight.
    pub partition: Option<PartitionPlan>,
    /// Server-side retransmission policy.
    pub retry: RetryPolicy,
    /// Convergence horizon per wave, in ticks.
    pub max_ticks_per_wave: u64,
    /// Server shard count (1 = the round runs inline; more shards run the same
    /// campaign shard-parallel).
    pub shards: usize,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            vehicles: 6,
            workers_per_vehicle: 3,
            loss_probability: 0.10,
            uplink_loss_probability: None,
            latency_ticks: 1,
            jitter_ticks: 2,
            seed: 0xC4A05,
            partition: Some(PartitionPlan {
                start_tick: 5,
                duration_ticks: 50,
                vehicles: 2,
            }),
            retry: RetryPolicy::default(),
            max_ticks_per_wave: 600,
            shards: 1,
        }
    }
}

/// The wave tallies of one full chaos run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaosReport {
    /// Vehicles whose v1 install converged to `Installed`.
    pub installed_v1: usize,
    /// Vehicles whose v1 install converged to a typed failure.
    pub failed_v1: usize,
    /// Vehicles whose v1 uninstall converged to `NotInstalled`.
    pub uninstalled: usize,
    /// Vehicles whose v2 install converged to `Installed`.
    pub installed_v2: usize,
}

impl ChaosConfig {
    /// Runs the full chaos campaign on the scenario engine: install v1
    /// everywhere, then update the convergent vehicles to v2 (uninstall +
    /// reinstall), all under loss, jitter and the scheduled partition; then
    /// drains twenty ticks and checks that nothing was applied twice.
    /// [`FleetScenario::report`] has the run's totals.
    ///
    /// # Errors
    ///
    /// Propagates convergence timeouts, step errors and invariant
    /// violations — a clean run means the reliability plane held.
    pub fn run(&self) -> Result<(FleetScenario, ChaosReport)> {
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
            self.uplink_loss_probability,
            0,
        )?;
        if let Some(plan) = &self.partition {
            let event = Event::Partition {
                vehicles: plan.vehicles,
                duration_ticks: plan.duration_ticks,
            };
            scenario.schedule(plan.start_tick, event)?;
        }
        let horizon = self.max_ticks_per_wave;
        let (v1, v2) = (AppId::new(APP_TELEMETRY), AppId::new(APP_TELEMETRY_V2));
        // Install v1 everywhere (partition mid-flight), uninstall it from the
        // survivors, then install v2 on the emptied vehicles.
        let all = scenario.fleet.vehicle_ids().to_vec();
        let (survivors, failed_v1) = scenario.wave(WaveOp::Deploy, &v1, &all, horizon)?;
        let (emptied, _) = scenario.wave(WaveOp::Uninstall, &v1, &survivors, horizon)?;
        let (upgraded, _) = scenario.wave(WaveOp::Deploy, &v2, &emptied, horizon)?;
        let report = ChaosReport {
            installed_v1: survivors.len(),
            failed_v1,
            uninstalled: emptied.len(),
            installed_v2: upgraded.len(),
        };

        // Drain: let in-flight duplicates arrive and be deduplicated.
        for _ in 0..20 {
            scenario.step()?;
        }
        scenario.verify(Invariants::NoDuplicates)?;
        Ok((scenario, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The default-configuration acceptance campaign (10 % loss + 50-tick
    // partition) lives in `tests/chaos.rs`; the unit tests here cover the
    // other corners of the loss range.

    #[test]
    fn chaos_at_twenty_percent_loss_with_asymmetric_uplink() {
        let (scenario, report) = ChaosConfig {
            vehicles: 3,
            loss_probability: 0.20,
            uplink_loss_probability: Some(0.05),
            partition: None,
            seed: 0xBADF00D,
            ..ChaosConfig::default()
        }
        .run()
        .unwrap();
        assert_eq!(report.installed_v1 + report.failed_v1, 3, "{report:?}");
        assert!(scenario.report().transport.lost > 0);
    }

    #[test]
    fn one_percent_loss_is_barely_noticeable() {
        let (scenario, report) = ChaosConfig {
            vehicles: 4,
            loss_probability: 0.01,
            jitter_ticks: 0,
            partition: None,
            ..ChaosConfig::default()
        }
        .run()
        .unwrap();
        assert_eq!(report.installed_v1, 4, "{report:?}");
        assert_eq!(report.installed_v2, 4, "{report:?}");
        assert_eq!(scenario.report().retry_failures, 0);
    }
}
