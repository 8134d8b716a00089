//! Regenerates Table 1 under multi-client load — see DESIGN.md
//! experiment index.
//!
//! ```text
//! RIO_TRIALS=10 RIO_SEED=1996 RIO_THREADS=8 cargo run --release -p rio-bench --bin table1_scale
//! ```
//!
//! `RIO_CLIENTS` overrides the client-count sweep (comma-separated, e.g.
//! `RIO_CLIENTS=1,4` for a CI smoke run). `RIO_THREADS` defaults to the
//! host's available parallelism; the table is byte-identical at any value.

use rio_bench::{env_u64, threads};
use rio_faults::ScaleCampaignConfig;
use rio_harness::{render_table1_scale, run_table1_scale};

fn main() {
    let trials = env_u64("RIO_TRIALS", 10);
    let seed = env_u64("RIO_SEED", 1996);
    let threads = threads();

    let mut cfg = ScaleCampaignConfig {
        trials_per_cell: trials,
        ..ScaleCampaignConfig::paper(seed)
    };
    if let Ok(spec) = std::env::var("RIO_CLIENTS") {
        let counts: Vec<usize> = spec
            .split(',')
            .filter_map(|s| s.trim().parse().ok())
            .filter(|&n| n > 0)
            .collect();
        if !counts.is_empty() {
            cfg.client_counts = counts;
        }
    }
    eprintln!(
        "running scaled crash campaign: 13 fault types x 3 systems x {:?} clients x \
         {trials} crashes (seed {seed}, {threads} threads)...",
        cfg.client_counts
    );
    let started = std::time::Instant::now();
    let report = run_table1_scale(&cfg, threads);
    eprintln!(
        "campaign finished in {:.1}s\n",
        started.elapsed().as_secs_f64()
    );
    println!("{}", render_table1_scale(&report));
}
