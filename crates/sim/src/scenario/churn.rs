//! The churn scenario: vehicles reboot, leave and join mid-wave while
//! desired-state reconciliation drives install/update waves over a lossy
//! transport.
//!
//! Where [`crate::scenario::chaos`] stresses the *reliability* plane (lossy
//! delivery of an otherwise static fleet), this scenario stresses the
//! *lifecycle* plane: the fleet membership itself churns while operations are
//! in flight.  Vehicles are driven declaratively — the operator only edits
//! each vehicle's desired manifest ([`TrustedServer::set_desired`] /
//! [`TrustedServer::clear_desired`]) and a periodic reconcile sweep closes
//! whatever gap loss, reboots and failures opened.
//!
//! What must hold at the end of a campaign:
//!
//! * **Convergence** — every *surviving* vehicle reaches exactly its desired
//!   manifest: the desired apps are `Installed` on the server, and the worker
//!   PIRTEs (the ground truth) host exactly the expected plug-ins.
//! * **No double-apply across reboots** — boot epochs keep pre-reboot
//!   stragglers away from the rebooted gateway's empty dedup window: no
//!   PIRTE of any incarnation ever rejects a duplicate operation.
//! * **Truth-resync** — state reports requested from every ECM after the
//!   campaign leave the server's observed state unchanged (its bookkeeping
//!   already matched the vehicles' reality).
//! * **Conservation** — `sent == delivered + lost + dropped (+ in-flight)`
//!   holds on the transport at every tick, reboots and removals included.
//! * **Fail-fast removal** — the removed vehicle's operations resolve with
//!   the distinct `vehicle unreachable` reason, never by burning the retry
//!   budget.
//!
//! [`TrustedServer::set_desired`]: dynar_server::server::TrustedServer::set_desired
//! [`TrustedServer::clear_desired`]: dynar_server::server::TrustedServer::clear_desired

use dynar_fes::transport::TransportConfig;
use dynar_foundation::error::Result;
use dynar_foundation::ids::AppId;
use dynar_server::server::RetryPolicy;

use crate::scenario::fleet::{
    Event, FleetScenario, FleetScenarioConfig, Invariants, ScenarioReport, WaveOp, APP_TELEMETRY,
    APP_TELEMETRY_V2,
};

/// The churn events of one campaign, scheduled against the fleet tick.
/// Vehicle indices refer to the *initial* registration order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChurnPlan {
    /// `(tick, vehicle index)`: the vehicle reboots (losing all volatile ECM
    /// state) and recovers through the state-report protocol.
    pub reboots: Vec<(u64, usize)>,
    /// `(tick, vehicle index)`: the vehicle leaves the fleet for good while
    /// whatever is outstanding is still outstanding.
    pub removals: Vec<(u64, usize)>,
    /// Ticks at which a factory-fresh vehicle joins mid-run (and immediately
    /// desires the v1 app).
    pub additions: Vec<u64>,
}

/// How the churn campaign is sized, how hostile its transport is and when
/// its waves and churn events fire.
#[derive(Debug, Clone)]
pub struct ChurnConfig {
    /// Number of vehicles registered at the start.
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
    /// Ticks between periodic reconcile sweeps (the convergent control
    /// loop; reboot recovery itself is event-driven and does not need it).
    pub reconcile_interval: u64,
    /// Tick at which the second half of the fleet desires v1 (the first half
    /// desires it at tick 0, so churn events overlap an active wave).
    pub second_wave_tick: u64,
    /// Tick at which `update_count` vehicles are updated v1 → v2.
    pub update_tick: u64,
    /// How many surviving vehicles are updated to v2.
    pub update_count: usize,
    /// Hard horizon for the whole campaign, in ticks.
    pub max_ticks: u64,
    /// The scheduled churn events.
    pub plan: ChurnPlan,
    /// Server shard count (1 = the round runs inline; more shards run the same
    /// campaign shard-parallel).
    pub shards: usize,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            vehicles: 8,
            workers_per_vehicle: 3,
            loss_probability: 0.10,
            latency_ticks: 1,
            jitter_ticks: 2,
            seed: 0xC0FFEE,
            retry: RetryPolicy::default(),
            reconcile_interval: 50,
            second_wave_tick: 40,
            update_tick: 260,
            update_count: 2,
            max_ticks: 3_000,
            plan: ChurnPlan {
                // Vehicle 0 reboots mid-install of wave 1; vehicle 3 reboots
                // again later, after it converged, to exercise re-resync.
                reboots: vec![(15, 0), (150, 3)],
                // Vehicle 1 leaves while its wave-1 operations are pending.
                removals: vec![(8, 1)],
                additions: vec![80],
            },
            shards: 1,
        }
    }
}

impl ChurnConfig {
    /// Runs the full churn campaign on the scenario engine: staggered v1
    /// waves, scheduled reboots, removals and additions overlapping them, a
    /// v1 → v2 update of a subset, a periodic reconcile sweep closing every
    /// gap, and a final ground-truth check ([`Invariants::GroundTruth`]).
    ///
    /// # Errors
    ///
    /// Returns [`dynar_foundation::error::DynarError::InvalidConfiguration`]
    /// for a plan naming a vehicle outside the fleet, propagates step errors
    /// and invariant violations, and returns
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
        let v1 = AppId::new(APP_TELEMETRY);
        let wave = |vehicles: &[_]| Event::Wave {
            op: WaveOp::SetDesired,
            app: v1.clone(),
            vehicles: vehicles.to_vec(),
        };
        let ids = scenario.fleet.vehicle_ids().to_vec();
        let (first_half, second_half) = ids.split_at(ids.len() / 2);
        scenario.schedule(0, wave(first_half))?;
        for &(tick, index) in &self.plan.reboots {
            scenario.schedule(tick, Event::Reboot(index))?;
        }
        for &(tick, index) in &self.plan.removals {
            scenario.schedule(tick, Event::Remove(index))?;
        }
        for &tick in &self.plan.additions {
            let join = Event::Join {
                app: v1.clone(),
                jitter_ticks: self.jitter_ticks,
            };
            scenario.schedule(tick, join)?;
        }
        scenario.schedule(self.second_wave_tick, wave(second_half))?;
        let update = Event::Update {
            from: v1.clone(),
            to: AppId::new(APP_TELEMETRY_V2),
            count: self.update_count,
        };
        scenario.schedule(self.update_tick, update)?;

        scenario.run_until(self.max_ticks, FleetScenario::settled)?;
        scenario.verify(Invariants::GroundTruth)?;
        let report = scenario.report();
        Ok((scenario, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The pinned-seed acceptance campaign (20 vehicles, 10 % loss) lives in
    // `tests/churn.rs`; the unit tests here keep the scenario's building
    // blocks honest at a smaller size.

    #[test]
    fn lossless_churn_converges_quickly() {
        let (_, report) = ChurnConfig {
            vehicles: 4,
            workers_per_vehicle: 2,
            loss_probability: 0.0,
            jitter_ticks: 0,
            update_count: 1,
            second_wave_tick: 30,
            update_tick: 120,
            plan: ChurnPlan {
                reboots: vec![(10, 0)],
                removals: vec![(6, 1)],
                additions: vec![40],
            },
            ..ChurnConfig::default()
        }
        .run()
        .unwrap();
        assert_eq!(report.rebooted, 1, "{report:?}");
        assert_eq!(report.removed, 1, "{report:?}");
        assert_eq!(report.added, 1, "{report:?}");
        assert_eq!(report.surviving, 4, "{report:?}");
        assert!(report.transport.is_conserved());
    }

    #[test]
    fn reboot_before_any_wave_recovers_to_an_empty_manifest() {
        let mut scenario = FleetScenario::build_with(FleetScenarioConfig {
            vehicles: 2,
            workers_per_vehicle: 2,
            transport: TransportConfig {
                latency_ticks: 1,
                loss_probability: 0.0,
                seed: 0xC0FFEE,
            },
            ..FleetScenarioConfig::default()
        })
        .unwrap();
        // Manually reboot before anything is desired: the vehicle must come
        // back online purely through the announce/resync protocol.
        let id = scenario.fleet.vehicle_ids()[0].clone();
        scenario.reboot_vehicle(&id).unwrap();
        assert!(!scenario.fleet.server.is_online(&id));
        for _ in 0..30 {
            scenario.step().unwrap();
        }
        assert!(scenario.fleet.server.is_online(&id), "announce landed");
        assert_eq!(scenario.fleet.server.vehicle_boot_epoch(&id), Some(1));

        // Even with an empty manifest the server confirmed the epoch (a
        // state-report request is an own-epoch downlink), so the gateway
        // stops re-announcing: the external link goes and stays quiet.
        let before = scenario.fleet.transport_stats().sent;
        for _ in 0..100 {
            scenario.step().unwrap();
        }
        let after = scenario.fleet.transport_stats().sent;
        assert_eq!(
            before, after,
            "no unbounded re-announce traffic after confirmation"
        );
    }
}
