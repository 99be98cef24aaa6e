//! Power-efficiency accounting (Figure 13).

use std::time::Duration;

/// Throughput per watt: problem instances solved per second per watt —
/// "the number of problem instances each device can run using unit power"
/// (§5.4).
pub fn throughput_per_watt(solve_time: Duration, power_w: f64) -> f64 {
    let t = solve_time.as_secs_f64();
    if t <= 0.0 || power_w <= 0.0 {
        return 0.0;
    }
    (1.0 / t) / power_w
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_per_watt_basics() {
        let t = Duration::from_millis(100);
        // 10 instances/s at 20 W -> 0.5 per watt.
        assert!((throughput_per_watt(t, 20.0) - 0.5).abs() < 1e-12);
        assert_eq!(throughput_per_watt(Duration::ZERO, 20.0), 0.0);
        assert_eq!(throughput_per_watt(t, 0.0), 0.0);
    }

    #[test]
    fn fpga_beats_gpu_at_equal_times() {
        use crate::perf::fpga::FPGA_POWER_W;
        let t = Duration::from_millis(50);
        let fpga = throughput_per_watt(t, FPGA_POWER_W);
        let gpu = throughput_per_watt(t, 110.0);
        assert!(fpga / gpu > 5.0);
    }
}
