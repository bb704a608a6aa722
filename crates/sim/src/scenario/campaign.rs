//! The campaign scenario: staged fleet-wide rollouts driven by the server's
//! campaign plane — canary waves, health gates, auto-abort and rollback —
//! over the full vehicle stack.
//!
//! Where [`crate::scenario::churn`] drives the desired-state plane by hand
//! (the operator edits manifests vehicle by vehicle), this scenario hands the
//! whole rollout to [`TrustedServer::create_campaign`]: the operator declares
//! *one* campaign (app, selector, wave plan, health gate) as an
//! [`Event::Campaign`] of the scenario engine, and the fleet round evaluates
//! the gate every tick via `TrustedServer::step_campaigns`.
//! Three campaign shapes are covered:
//!
//! * **Flash crowd** — every vehicle is eligible at once (canary = fleet
//!   size, no ramps): one wave exposes the whole fleet and the campaign
//!   completes once every install converged and soaked.
//! * **Bad-version canary** — the rollout ships an application whose plug-in
//!   binaries cannot even be parsed by the worker PIRTEs: every canary
//!   install fails vehicle-side, the abort gate trips before the ramp waves
//!   open, and the rollback restores each exposed vehicle's recorded
//!   last-good manifest.  Fleet exposure must stay below the canary fraction
//!   — the blast radius of a bad version is the canary wave, never the fleet.
//! * **Rollback under fire** — the same bad-version abort with transport
//!   loss and vehicles rebooting mid-wave: rollback must converge through
//!   the ordinary reconciliation loop against whatever the churn left.
//!
//! End-state guarantees (checked by [`FleetScenario::verify`] with
//! [`Invariants::GroundTruth`]): every vehicle's server-observed
//! state equals its desired manifest after a truth-resync round, the worker
//! PIRTEs (ground truth) host exactly the plug-ins the manifest implies, and
//! no PIRTE of any incarnation rejected a duplicate operation — rollbacks
//! never double-apply.
//!
//! [`TrustedServer::create_campaign`]: dynar_server::server::TrustedServer::create_campaign

use dynar_fes::transport::TransportConfig;
use dynar_foundation::error::Result;
use dynar_foundation::ids::{AppId, PluginId, UserId};
use dynar_server::campaign::{
    CampaignId, CampaignSpec, CampaignStatus, HealthGate, VehicleSelector, WavePlan,
};
use dynar_server::model::{AppDefinition, PluginArtifact, SwConf};
use dynar_server::server::RetryPolicy;

use crate::scenario::fleet::{
    worker_ids, Event, FleetScenario, FleetScenarioConfig, Invariants, ScenarioReport, WaveOp,
    APP_TELEMETRY, FLEET_MODEL,
};

/// The application a bad-version campaign tries to roll out: plug-in
/// binaries that no PIRTE can parse.
pub const APP_TELEMETRY_BAD: &str = "fleet-telemetry-bad";

/// How the campaign scenario is sized, how hostile its transport is, the
/// rollout's wave plan/health gate and the churn scheduled against it.
#[derive(Debug, Clone)]
pub struct CampaignScenarioConfig {
    /// Number of vehicles in the fleet.
    pub vehicles: usize,
    /// Worker ECUs per vehicle.
    pub workers_per_vehicle: u16,
    /// Symmetric loss probability of the external transport.
    pub loss_probability: f64,
    /// Base delivery latency of the external transport.
    pub latency_ticks: u64,
    /// Seed of the transport's fault models.
    pub seed: u64,
    /// Server-side retransmission policy.
    pub retry: RetryPolicy,
    /// Canary size of the rollout's first wave.
    pub canary: usize,
    /// Cumulative percentage ramps after the canary wave.
    pub ramp_percent: Vec<u32>,
    /// Minimum dwell per wave before the gate may advance it.
    pub min_soak_ticks: u64,
    /// Failed-vehicle count that aborts the campaign (0 disables).
    pub abort_failed: u64,
    /// Ticks between periodic reconcile sweeps.
    pub reconcile_interval: u64,
    /// Horizon of each engine run ([`CampaignScenario::converge_on_v1`],
    /// [`CampaignScenario::drive`]), in ticks counted from its start.
    pub max_ticks: u64,
    /// `(tick offset, vehicle index)`: scheduled mid-wave reboots.  Offsets
    /// are relative to the start of [`CampaignScenario::drive`]; indices
    /// refer to the initial registration order.
    pub reboots: Vec<(u64, usize)>,
    /// Server shard count (1 = the round runs inline).
    pub shards: usize,
}

impl Default for CampaignScenarioConfig {
    fn default() -> Self {
        CampaignScenarioConfig {
            vehicles: 50,
            workers_per_vehicle: 3,
            loss_probability: 0.0,
            latency_ticks: 1,
            seed: 0xCA4ABA5E,
            retry: RetryPolicy::default(),
            canary: 2,
            ramp_percent: vec![25, 50, 100],
            min_soak_ticks: 30,
            abort_failed: 1,
            reconcile_interval: 50,
            max_ticks: 6_000,
            reboots: Vec::new(),
            shards: 1,
        }
    }
}

/// The fleet scenario wrapped around one server-orchestrated campaign.
#[derive(Debug)]
pub struct CampaignScenario {
    /// The underlying fleet scenario (server, hub, vehicles, handles).
    pub inner: FleetScenario,
    config: CampaignScenarioConfig,
}

/// Builds the bad-version telemetry app: same shape as the fleet's
/// telemetry apps (one plug-in per worker ECU, placed on it), but with
/// binaries that fail PIRTE-side validation — the trusted server's static
/// checks pass, the vehicle rejects the install, and the failure surfaces
/// through the ordinary ack path into the campaign's health gate.
///
/// # Errors
///
/// Never fails today; kept fallible to match the app-builder signatures.
pub fn bad_telemetry_app(workers: u16) -> Result<AppDefinition> {
    let mut definition = AppDefinition::new(AppId::new(APP_TELEMETRY_BAD));
    let mut conf = SwConf::new(FLEET_MODEL);
    for worker in worker_ids(workers) {
        let op_id = PluginId::new(format!("OPBAD-{worker}"));
        definition = definition.with_plugin(PluginArtifact {
            id: op_id.clone(),
            binary: vec![0xFF; 8],
            ports: Vec::new(),
        });
        conf = conf.with_placement(op_id, worker);
    }
    Ok(definition.with_sw_conf(conf))
}

impl CampaignScenario {
    /// Builds a campaign scenario with an explicit configuration.  The
    /// bad-version app is uploaded alongside the fleet's telemetry apps so
    /// any run can roll it out.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors from any subsystem.
    pub fn build_with(config: CampaignScenarioConfig) -> Result<Self> {
        let fleet = FleetScenarioConfig {
            vehicles: config.vehicles,
            workers_per_vehicle: config.workers_per_vehicle,
            transport: TransportConfig {
                latency_ticks: config.latency_ticks,
                loss_probability: config.loss_probability,
                seed: config.seed,
            },
            shards: config.shards,
            ..FleetScenarioConfig::default()
        };
        let mut inner =
            FleetScenario::scripted(fleet, &config.retry, 0, None, config.reconcile_interval)?;
        inner
            .fleet
            .server
            .upload_app(bad_telemetry_app(config.workers_per_vehicle)?)?;
        Ok(CampaignScenario { inner, config })
    }

    /// The active configuration.
    pub fn config(&self) -> &CampaignScenarioConfig {
        &self.config
    }

    /// The campaign spec the configuration describes, rolling out `app`
    /// (replacing `replaces` where installed) across the whole fleet.
    pub fn spec(&self, id: &str, app: &str, replaces: Option<&str>) -> CampaignSpec {
        CampaignSpec {
            id: CampaignId::new(id),
            app: AppId::new(app),
            replaces: replaces.map(AppId::new),
            selector: VehicleSelector::All,
            plan: WavePlan {
                canary: self.config.canary,
                ramp_percent: self.config.ramp_percent.clone(),
            },
            gate: HealthGate {
                min_soak_ticks: self.config.min_soak_ticks,
                pause_failed: 0,
                abort_failed: self.config.abort_failed,
            },
        }
    }

    /// Converges the whole fleet on the v1 telemetry app through the desired
    /// plane — the baseline state an update campaign then rewrites.
    ///
    /// # Errors
    ///
    /// Returns [`dynar_foundation::error::DynarError::RetryExhausted`] if the
    /// fleet does not converge within the configured horizon, counted from
    /// this call.
    pub fn converge_on_v1(&mut self) -> Result<()> {
        let wave = Event::Wave {
            op: WaveOp::SetDesired,
            app: AppId::new(APP_TELEMETRY),
            vehicles: self.inner.fleet.vehicle_ids().to_vec(),
        };
        self.inner.schedule(self.inner.fleet.now().as_u64(), wave)?;
        self.inner
            .run_until(self.config.max_ticks, FleetScenario::fleet_converged)
    }

    /// Creates the campaign and drives it to a verified end state — see
    /// [`CampaignScenario::drive`].
    ///
    /// # Errors
    ///
    /// Propagates campaign-creation and drive errors.
    pub fn run_campaign(&mut self, spec: CampaignSpec) -> Result<ScenarioReport> {
        let id = spec.id.clone();
        let now = self.inner.fleet.now().as_u64();
        self.inner.schedule(now, Event::Campaign(spec))?;
        self.drive(&id)
    }

    /// Runs the fleet on the scenario engine until the campaign reaches a
    /// terminal status *and* every vehicle converged on its (possibly
    /// rolled-back) manifest, with the configured reboots (tick offsets
    /// relative to this call) and reconcile sweeps firing along the way.
    /// Ends with a ground-truth check ([`Invariants::GroundTruth`]).
    ///
    /// # Errors
    ///
    /// Returns [`dynar_foundation::error::DynarError::InvalidConfiguration`]
    /// for a reboot naming a vehicle outside the fleet, propagates step
    /// errors and invariant violations, and returns
    /// [`dynar_foundation::error::DynarError::RetryExhausted`] on horizon
    /// exhaustion.
    pub fn drive(&mut self, id: &CampaignId) -> Result<ScenarioReport> {
        let start = self.inner.fleet.now().as_u64();
        for &(offset, index) in &self.config.reboots {
            self.inner.schedule(start + offset, Event::Reboot(index))?;
        }
        self.inner.campaign = Some(id.clone());
        self.inner.run_until(self.config.max_ticks, |scenario| {
            let terminal = scenario.fleet.server.campaign(id).is_some_and(|campaign| {
                matches!(
                    campaign.status,
                    CampaignStatus::Complete | CampaignStatus::Aborted
                )
            });
            terminal && scenario.settled()
        })?;
        self.inner.verify(Invariants::GroundTruth)?;
        Ok(self.inner.report())
    }

    /// Returns `true` when every vehicle reached exactly its desired
    /// manifest and nothing is pending or outstanding.
    pub fn fleet_converged(&self) -> bool {
        self.inner.fleet_converged()
    }

    /// The fleet-ops user driving the campaign.
    pub fn user(&self) -> &UserId {
        &self.inner.user
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The pinned-seed acceptance campaigns (50 vehicles, the canary
    // auto-abort and the lossy rollback) live in `tests/campaign.rs`; the
    // unit tests here keep the scenario's building blocks honest at a
    // smaller size.

    #[test]
    fn flash_crowd_single_wave_completes() {
        let mut scenario = CampaignScenario::build_with(CampaignScenarioConfig {
            vehicles: 6,
            workers_per_vehicle: 2,
            canary: 6,
            ramp_percent: Vec::new(),
            min_soak_ticks: 10,
            ..CampaignScenarioConfig::default()
        })
        .unwrap();
        let spec = scenario.spec("flash-v1", APP_TELEMETRY, None);
        let report = scenario.run_campaign(spec).unwrap();
        assert_eq!(report.status, Some(CampaignStatus::Complete), "{report:?}");
        assert_eq!(report.exposed, 6, "whole fleet in one wave");
        assert_eq!(report.succeeded, 6, "{report:?}");
        assert_eq!(report.rolled_back, 0, "{report:?}");
        assert!(report.transport.is_conserved());
    }

    #[test]
    fn staged_rollout_ramps_through_waves_to_completion() {
        let mut scenario = CampaignScenario::build_with(CampaignScenarioConfig {
            vehicles: 8,
            workers_per_vehicle: 2,
            canary: 1,
            ramp_percent: vec![50, 100],
            min_soak_ticks: 15,
            ..CampaignScenarioConfig::default()
        })
        .unwrap();
        let spec = scenario.spec("staged-v1", APP_TELEMETRY, None);
        let report = scenario.run_campaign(spec).unwrap();
        assert_eq!(report.status, Some(CampaignStatus::Complete), "{report:?}");
        assert_eq!(report.exposed, 8, "{report:?}");
        assert_eq!(report.succeeded, 8, "{report:?}");
        let campaign = scenario
            .inner
            .fleet
            .server
            .campaign(&CampaignId::new("staged-v1"))
            .unwrap();
        assert_eq!(campaign.wave, 3, "canary, 50 %, 100 %");
    }

    #[test]
    fn bad_version_canary_aborts_and_rolls_back() {
        let mut scenario = CampaignScenario::build_with(CampaignScenarioConfig {
            vehicles: 6,
            workers_per_vehicle: 2,
            canary: 1,
            ramp_percent: vec![50, 100],
            min_soak_ticks: 20,
            ..CampaignScenarioConfig::default()
        })
        .unwrap();
        scenario.converge_on_v1().unwrap();

        let spec = scenario.spec("bad-v2", APP_TELEMETRY_BAD, Some(APP_TELEMETRY));
        let report = scenario.run_campaign(spec).unwrap();
        assert_eq!(report.status, Some(CampaignStatus::Aborted), "{report:?}");
        assert_eq!(report.exposed, 1, "the canary only — no ramp opened");
        assert_eq!(report.failed, 1, "{report:?}");
        assert_eq!(report.rolled_back, 1, "{report:?}");

        // The rollback reinstalled v1 everywhere it was exposed: verified
        // against the PIRTE ground truth by `run_campaign` already; the
        // manifest view agrees.
        let v1 = AppId::new(APP_TELEMETRY);
        for id in scenario.inner.fleet.vehicle_ids().to_vec() {
            assert_eq!(
                scenario.inner.fleet.server.desired_manifest(&id),
                vec![v1.clone()],
                "{id}: back on (or still on) v1"
            );
        }
    }

    /// Regression: the horizon used to count from tick 0, so converging a
    /// fleet that had already run `max_ticks` rounds failed at once with
    /// `RetryExhausted`, without stepping.
    #[test]
    fn the_horizon_counts_from_the_call_not_from_tick_zero() {
        let mut scenario = CampaignScenario::build_with(CampaignScenarioConfig {
            vehicles: 4,
            workers_per_vehicle: 2,
            max_ticks: 200,
            ..CampaignScenarioConfig::default()
        })
        .unwrap();
        scenario.inner.fleet.run(250).unwrap();
        scenario.converge_on_v1().unwrap();
        assert!(scenario.fleet_converged());
    }

    #[test]
    fn a_reboot_outside_the_fleet_is_a_configuration_error() {
        let mut scenario = CampaignScenario::build_with(CampaignScenarioConfig {
            vehicles: 4,
            workers_per_vehicle: 2,
            reboots: vec![(5, 4)],
            ..CampaignScenarioConfig::default()
        })
        .unwrap();
        let spec = scenario.spec("flash-v1", APP_TELEMETRY, None);
        let result = scenario.run_campaign(spec);
        assert!(matches!(
            result,
            Err(dynar_foundation::error::DynarError::InvalidConfiguration(_))
        ));
        assert_eq!(scenario.inner.fleet.now().as_u64(), 0, "no round ran");
    }
}
