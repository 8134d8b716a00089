//! Benchmark harness and table-regeneration binaries.
//!
//! Binaries (run with `cargo run -p rio-bench --release --bin <name>`):
//!
//! * `table1` — regenerates the paper's Table 1 (reliability). Scale with
//!   `RIO_TRIALS` (crashes per cell, default 1000), `RIO_SEED`,
//!   `RIO_THREADS` (see [`threads`]).
//! * `table2` — regenerates Table 2 (performance) plus the headline
//!   ratios. `RIO_SEED` selects workload seeds.
//! * `overhead` — the protection / code-patching overhead study.
//! * `bench` — the self-contained micro/meso benchmark runner ([`runner`]):
//!   interpreted `bcopy`, CRC32, registry update, warm-reboot scan, the
//!   per-policy workload costs, the protection-mode write loop, and one
//!   full crash trial per system. Reports median/p95 over warmup + N
//!   timed iterations. Knobs: `RIO_BENCH_ITERS`, `RIO_BENCH_WARMUP`,
//!   `RIO_BENCH_FILTER`.
//! * `explain` — crash forensics: replays one campaign trial
//!   (`--fault <slug> --system <slug> --attempt <n>`) with event tracing
//!   enabled and renders the causal timeline from injection to the first
//!   corrupted byte. Writes `BENCH_obs.json` (`RIO_OBS_JSON` overrides).
//! * `propagation` / `recovery` / `write_bench` / `inspect` — see each
//!   binary's module docs.

pub mod runner;

/// Worker threads for the campaign and grid bins: `RIO_THREADS`, clamped
/// to at least 1, or the host's available parallelism when unset or
/// unparsable. Outputs are byte-identical at any value.
pub fn threads() -> usize {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    env_u64("RIO_THREADS", nproc as u64).max(1) as usize
}

/// Reads a `u64` configuration value from the environment.
pub fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_u64_parses_and_defaults() {
        std::env::remove_var("RIO_TEST_KNOB_XYZ");
        assert_eq!(env_u64("RIO_TEST_KNOB_XYZ", 7), 7);
        std::env::set_var("RIO_TEST_KNOB_XYZ", "42");
        assert_eq!(env_u64("RIO_TEST_KNOB_XYZ", 7), 42);
        std::env::set_var("RIO_TEST_KNOB_XYZ", "junk");
        assert_eq!(env_u64("RIO_TEST_KNOB_XYZ", 7), 7);
        std::env::remove_var("RIO_TEST_KNOB_XYZ");
    }

    #[test]
    fn threads_is_at_least_one() {
        // The only test touching RIO_THREADS in this crate, so it cannot
        // race another test's setting.
        std::env::set_var("RIO_THREADS", "0");
        assert_eq!(threads(), 1);
        std::env::set_var("RIO_THREADS", "3");
        assert_eq!(threads(), 3);
        std::env::set_var("RIO_THREADS", "junk");
        assert!(threads() >= 1);
        std::env::remove_var("RIO_THREADS");
    }
}
