//! The host a result was measured on.
//!
//! `nproc` overstates what a shared or throttled host delivers, so the
//! effective parallelism is measured: the same fixed burn runs on one
//! thread, then on two threads at once, and the ratio of work per second
//! is reported (2.0 = two real cores, 1.0 = one).

use std::hint::black_box;
use std::time::Instant;

/// Iterations of the burn (a few tens of milliseconds).
const BURN_ITERS: u64 = 20_000_000;

fn burn() -> u64 {
    let mut x = 0x2545_f491_4f6c_dd1du64;
    for i in 0..BURN_ITERS {
        x = black_box(x ^ (x << 13) ^ (x >> 7) ^ (x << 17)).wrapping_add(i);
    }
    x
}

/// What every record says about the machine and build.
#[derive(Debug, Clone)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// Two-thread throughput over one-thread throughput of the burn.
    pub effective_parallelism: f64,
    /// CPU model name, when the OS reports it.
    pub cpu: String,
    /// `rustc --version` of the compiler that built the benchmark.
    pub rustc: &'static str,
    /// Cargo build profile.
    pub profile: &'static str,
}

impl Host {
    /// Probes the host (takes about a tenth of a second).
    pub fn probe() -> Host {
        let nproc = std::thread::available_parallelism().map_or(1, usize::from);
        let t = Instant::now();
        black_box(burn());
        let one = t.elapsed().as_secs_f64();
        let t = Instant::now();
        std::thread::scope(|s| {
            let a = s.spawn(burn);
            let b = s.spawn(burn);
            black_box((a.join().expect("burn thread"), b.join().expect("burn thread")));
        });
        let two = t.elapsed().as_secs_f64();
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Host {
            nproc,
            effective_parallelism: 2.0 * one / two,
            cpu,
            rustc: env!("BENCH_RUSTC_VERSION"),
            profile: env!("BENCH_PROFILE"),
        }
    }

    /// One-line description.
    pub fn summary(&self) -> String {
        format!(
            "nproc {} | effective parallelism {:.2} | {} | {} | profile {}",
            self.nproc, self.effective_parallelism, self.cpu, self.rustc, self.profile
        )
    }

    /// JSON object (string fields are escaped for quotes and backslashes).
    pub fn json(&self) -> String {
        let esc = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
        format!(
            "{{\"nproc\": {}, \"effective_parallelism\": {:?}, \
             \"cpu\": \"{}\", \"rustc\": \"{}\", \"profile\": \"{}\"}}",
            self.nproc,
            self.effective_parallelism,
            esc(&self.cpu),
            esc(self.rustc),
            esc(self.profile)
        )
    }
}
