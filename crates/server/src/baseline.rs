//! The conventional deployment baseline: re-flash the ECU.
//!
//! Classical AUTOSAR "does not offer any possibility to make dynamic
//! additions, but any changes require the software to be rebuilt and the ECU
//! to be reprogrammed" (paper §2).  This module models that path so the
//! benchmarks can compare dynamic plug-in deployment against it: a re-flash
//! transfers the *whole* application image of every affected ECU, requires
//! the vehicle to be stationary at a service point and reboots each ECU.

/// Parameters of the re-flash deployment model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReflashBaseline {
    /// Size of a full ECU application image in KiB.
    pub image_size_kb: u64,
    /// Flashing throughput in KiB per tick.
    pub flash_rate_kb_per_tick: u64,
    /// Ticks spent rebooting an ECU after flashing.
    pub reboot_ticks: u64,
    /// Ticks spent driving to and waiting at a service point (zero when
    /// over-the-air re-flashing is assumed).
    pub service_visit_ticks: u64,
}

impl Default for ReflashBaseline {
    fn default() -> Self {
        ReflashBaseline {
            image_size_kb: 4 * 1024,
            flash_rate_kb_per_tick: 16,
            reboot_ticks: 200,
            service_visit_ticks: 0,
        }
    }
}

impl ReflashBaseline {
    /// Ticks needed to re-flash the given number of ECUs (sequentially, as a
    /// workshop tool would).
    pub fn deployment_ticks(&self, ecus: usize) -> u64 {
        let per_ecu = self.image_size_kb / self.flash_rate_kb_per_tick.max(1) + self.reboot_ticks;
        self.service_visit_ticks + per_ecu * ecus as u64
    }

    /// Bytes transferred to re-flash the given number of ECUs.
    pub fn bytes_transferred(&self, ecus: usize) -> u64 {
        self.image_size_kb * 1024 * ecus as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deployment_time_scales_with_ecus() {
        let baseline = ReflashBaseline::default();
        assert!(baseline.deployment_ticks(2) > baseline.deployment_ticks(1));
        assert_eq!(
            baseline.deployment_ticks(2),
            2 * baseline.deployment_ticks(1) - baseline.service_visit_ticks
        );
    }

    #[test]
    fn service_visit_is_counted_once() {
        let baseline = ReflashBaseline {
            service_visit_ticks: 1000,
            ..ReflashBaseline::default()
        };
        let single = baseline.deployment_ticks(1);
        let double = baseline.deployment_ticks(2);
        assert_eq!(double - single, single - 1000);
    }

    #[test]
    fn transferred_bytes_cover_full_images() {
        let baseline = ReflashBaseline::default();
        assert_eq!(baseline.bytes_transferred(3), 3 * 4 * 1024 * 1024);
    }
}
