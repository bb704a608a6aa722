//! Stress loop for the parallel fleet tick, pinned for CI: the churn
//! campaign — reboots, a removal and a join landing mid-wave — repeated 50
//! times at 8 shards with a different transport seed each iteration.
//!
//! The point is not any single assertion but the repetition: the shard
//! fan-out crosses real thread boundaries every tick (the worker pool has a
//! floor of two workers even on one core), so ordering assumptions that only
//! break under a particular interleaving get 50 chances per CI run to
//! surface.  Every 10th iteration additionally runs the same seed serially
//! and requires the byte-identical server snapshot, so a flake shows up as a
//! concrete state diff, not just a failed campaign.

use dynar::sim::scenario::churn::ChurnConfig;

fn campaign(seed: u64, shards: usize) -> (Vec<u8>, u64) {
    let (scenario, report) = ChurnConfig {
        seed,
        shards,
        ..ChurnConfig::default()
    }
    .run()
    .expect("churn campaign converges");
    assert_eq!(report.surviving, 8, "seed {seed:#x}: {report:?}");
    assert!(
        report.transport.is_conserved(),
        "seed {seed:#x}: {report:?}"
    );
    assert!(scenario.fleet_converged(), "seed {seed:#x}");
    (
        scenario.fleet.server.snapshot_bytes(),
        report.transport.delivered,
    )
}

#[test]
fn parallel_churn_campaign_survives_fifty_reseeded_repetitions() {
    for i in 0..50u64 {
        let seed = 0xC0FFEE ^ (i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let (snapshot, delivered) = campaign(seed, 8);
        if i % 10 == 0 {
            let (serial_snapshot, serial_delivered) = campaign(seed, 1);
            assert_eq!(
                snapshot, serial_snapshot,
                "seed {seed:#x}: parallel snapshot diverged from serial"
            );
            assert_eq!(
                delivered, serial_delivered,
                "seed {seed:#x}: transport counters diverged from serial"
            );
        }
    }
}
