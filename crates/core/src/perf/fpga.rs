//! FPGA end-to-end time model: simulated cycles → seconds.

use std::time::Duration;

use rsqp_arch::{ArchConfig, ResourceModel, RunStats};

/// PCIe host↔card bandwidth used for the per-solve vector transfers
/// (bytes/second). The U50 is a PCIe 3.0 ×16 card; sustained ≈ 12 GB/s.
const PCIE_BW: f64 = 12.0e9;
/// Fixed per-solve host overhead (driver calls, kernel arguments, fences).
const HOST_OVERHEAD_S: f64 = 60e-6;

/// Converts machine cycle counts into end-to-end FPGA solve time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FpgaPerfModel {
    /// Clock frequency the design closes at, from the calibrated model.
    pub fmax_hz: f64,
}

impl FpgaPerfModel {
    /// Derives the model from an architecture configuration.
    pub fn from_config(config: &ArchConfig) -> Self {
        let est = ResourceModel.estimate(config.set());
        FpgaPerfModel { fmax_hz: est.fmax_mhz * 1e6 }
    }

    /// End-to-end solve time:
    ///
    /// * the measured PCG cycles (`stats.cycles`),
    /// * plus the analytic outer-update cycles per ADMM iteration,
    /// * plus the per-solve host overhead and the PCIe transfer of the
    ///   iterate/result vectors.
    ///
    /// Matrix upload is excluded: like the bitstream, it is per-*structure*
    /// setup amortized over many solves (§1 of the paper).
    pub fn solve_time(
        &self,
        stats: RunStats,
        admm_iterations: usize,
        outer_cycles_per_iter: u64,
        n: usize,
        m: usize,
    ) -> Duration {
        let device_cycles = stats.cycles + admm_iterations as u64 * outer_cycles_per_iter;
        let device_s = device_cycles as f64 / self.fmax_hz;
        let transfer_s = ((n + m) as f64 * 2.0 * 8.0) / PCIE_BW;
        Duration::from_secs_f64(device_s + transfer_s + HOST_OVERHEAD_S)
    }
}

/// Steady-state board power observed while running the benchmark (§5.4:
/// "the power consumption of the FPGA is steady at 19 W").
pub const FPGA_POWER_W: f64 = 19.0;

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(cycles: u64) -> RunStats {
        RunStats { cycles, ..Default::default() }
    }

    #[test]
    fn time_scales_with_cycles_and_frequency() {
        let fast = FpgaPerfModel { fmax_hz: 300e6 };
        let slow = FpgaPerfModel { fmax_hz: 150e6 };
        let t_fast = fast.solve_time(stats(3_000_000), 10, 100, 100, 100);
        let t_slow = slow.solve_time(stats(3_000_000), 10, 100, 100, 100);
        assert!(t_slow > t_fast);
        let t_more = fast.solve_time(stats(6_000_000), 10, 100, 100, 100);
        assert!(t_more > t_fast);
    }

    #[test]
    fn from_config_uses_resource_model() {
        let small = FpgaPerfModel::from_config(&ArchConfig::baseline(16));
        assert!(small.fmax_hz > 2.0e8);
    }

    #[test]
    fn host_overhead_dominates_tiny_solves() {
        let m = FpgaPerfModel { fmax_hz: 300e6 };
        let t = m.solve_time(stats(100), 1, 10, 10, 10);
        assert!(t.as_secs_f64() >= HOST_OVERHEAD_S);
        assert!(t.as_secs_f64() < 2.0 * HOST_OVERHEAD_S);
    }
}
