//! Campaign rollout: a staged fleet-wide update driven by the trusted
//! server's campaign plane — and the same plane auto-aborting a bad version.
//!
//! Act 1 rolls the v2 telemetry app across a 30-vehicle fleet behind a
//! 2-vehicle canary and 25 % / 50 % / 100 % ramp waves: each wave must be
//! fully acknowledged and soaked before the health gate opens the next one.
//! Act 2 then attempts a version whose plug-in binaries no PIRTE can parse:
//! every canary install fails vehicle-side, the abort gate trips before any
//! ramp wave opens, and the campaign rewrites every exposed vehicle's
//! desired manifest back to its recorded last-good set — ordinary
//! reconciliation reinstalls v2, and the fleet ends exactly where it stood.
//!
//! ```console
//! $ cargo run --release --example campaign_rollout
//! ```

use dynar::server::campaign::CampaignStatus;
use dynar::sim::scenario::campaign::{CampaignScenario, CampaignScenarioConfig, APP_TELEMETRY_BAD};
use dynar::sim::scenario::fleet::{APP_TELEMETRY, APP_TELEMETRY_V2};

fn main() {
    let mut scenario = CampaignScenario::build_with(CampaignScenarioConfig {
        vehicles: 30,
        canary: 2,
        ramp_percent: vec![25, 50, 100],
        min_soak_ticks: 25,
        ..CampaignScenarioConfig::default()
    })
    .expect("campaign scenario builds");

    println!("== Act 1: staged v1 -> v2 update behind canary and ramp waves ==");
    scenario.converge_on_v1().expect("fleet converges on v1");
    println!(
        "fleet of {} converged on {APP_TELEMETRY} after {} ticks",
        scenario.config().vehicles,
        scenario.inner.fleet.stats().ticks
    );

    let spec = scenario.spec("rollout-v2", APP_TELEMETRY_V2, Some(APP_TELEMETRY));
    let report = scenario.run_campaign(spec).expect("rollout converges");
    assert_eq!(report.status, Some(CampaignStatus::Complete));
    println!(
        "campaign complete: {} exposed, {} succeeded, {} ticks total",
        report.exposed, report.succeeded, report.ticks
    );

    println!();
    println!("== Act 2: a bad version trips the canary abort gate ==");
    let spec = scenario.spec("rollout-bad", APP_TELEMETRY_BAD, Some(APP_TELEMETRY_V2));
    let report = scenario.run_campaign(spec).expect("abort converges");
    assert_eq!(report.status, Some(CampaignStatus::Aborted));
    println!(
        "campaign aborted: {} exposed ({} failed), {} rolled back to last-good",
        report.exposed, report.failed, report.rolled_back
    );
    let ledger = scenario.inner.fleet.server.ledger();
    println!(
        "ledger: {} exposures, {} rollbacks, {} completed, {} aborted",
        ledger.campaign_exposures,
        ledger.campaign_rollbacks,
        ledger.campaigns_completed,
        ledger.campaigns_aborted
    );
    println!("every vehicle re-audited against its ECM state report and PIRTE ground truth");
}
