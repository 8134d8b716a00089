//! Trial-preparation benchmark: the checkpoint fork vs booting a trial
//! from scratch — see EXPERIMENTS.md.
//!
//! ```text
//! cargo run --release -p rio-bench --bin campaign_bench
//! ```
//!
//! Scratch preparation is mkfs + memTest setup + warmup to the paper's
//! steady point; a fork is a COW clone of the frozen checkpoint. The
//! medians and their ratio (the ≥50× acceptance bar) are written to
//! `BENCH_campaign.json` at the repository root (override with
//! `RIO_BENCH_JSON`). End-to-end campaign throughput is the `campaign`
//! workload of `perfbench/`.
//!
//! Knobs: `RIO_SEED`, `RIO_BENCH_PREPARES` (scratch iterations, default
//! 30), `RIO_BENCH_FORKS` (fork iterations, default 2000).

use rio_bench::env_u64;
use rio_bench::runner::fmt_ns;
use rio_faults::{workload_seed, CampaignConfig, PreparedTrial, SystemKind};
use std::hint::black_box;
use std::time::Instant;

fn median_ns(mut samples: Vec<u64>) -> u64 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn main() {
    let seed = env_u64("RIO_SEED", 1996);
    let paper = CampaignConfig::paper(seed);

    let system = SystemKind::RioWithProtection;
    let wl = workload_seed(seed, system);
    eprintln!("measuring trial preparation (scratch boot+warmup vs checkpoint fork)...");

    let scratch_iters = env_u64("RIO_BENCH_PREPARES", 30).max(3);
    let mut scratch = Vec::new();
    for _ in 0..scratch_iters {
        let t = Instant::now();
        black_box(PreparedTrial::prepare(system, wl, paper.warmup_ops));
        scratch.push(t.elapsed().as_nanos() as u64);
    }
    let scratch_ns = median_ns(scratch);

    let checkpoint = PreparedTrial::prepare(system, wl, paper.warmup_ops);
    let fork_iters = env_u64("RIO_BENCH_FORKS", 2000).max(10);
    let mut forks = Vec::new();
    for _ in 0..fork_iters {
        let t = Instant::now();
        black_box(checkpoint.fork());
        forks.push(t.elapsed().as_nanos() as u64);
    }
    let fork_ns = median_ns(forks);
    let prep_speedup = scratch_ns as f64 / fork_ns.max(1) as f64;
    eprintln!(
        "  scratch prepare: {} median ({scratch_iters} iters)",
        fmt_ns(scratch_ns)
    );
    eprintln!("  fork:            {} median ({fork_iters} iters)", fmt_ns(fork_ns));
    eprintln!("  preparation speedup: {prep_speedup:.0}x");

    let json = format!(
        "{{\n  \"schema\": \"rio-campaign-bench-v2\",\n  \"seed\": {seed},\n  \
         \"preparation\": {{\n    \"scratch_ns_median\": {scratch_ns},\n    \
         \"fork_ns_median\": {fork_ns},\n    \"speedup\": {prep_speedup:.1},\n    \
         \"scratch_iters\": {scratch_iters},\n    \"fork_iters\": {fork_iters},\n    \
         \"warmup_ops\": {warmup}\n  }}\n}}\n",
        warmup = paper.warmup_ops,
    );
    let path = std::env::var("RIO_BENCH_JSON")
        .unwrap_or_else(|_| format!("{}/../../BENCH_campaign.json", env!("CARGO_MANIFEST_DIR")));
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    eprintln!("wrote {path}");

    assert!(
        prep_speedup >= 50.0,
        "trial-preparation speedup regressed below the 50x bar: {prep_speedup:.0}x"
    );
}
