//! The repository benchmark: seeded workloads, each run in its own
//! process, measured from outside the program.
//!
//! `campaign` and `server` are the workloads `BENCHMARK.json` lists.
//! `fileio` is a durability check that fails on the current kernel (see
//! the known failure in `perfbench/README.md`); it stays runnable but out
//! of `BENCHMARK.json` until that defect is fixed.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload campaign|server|fileio --seed 1996 --seconds 10 --trace 0|1
//! ```
//!
//! `--trace 0` measures the workload and reports the end-to-end metrics.
//! `--trace 1` measures it the same way, then repeats the identical work
//! with host-time spans around every call the benchmark makes into a
//! layer, and reports the per-layer metrics, the tracing overhead, and
//! that every simulated (`sim.*`) output matched the untraced phase.
//! Human-readable lines come first; the last line of standard output is
//! the JSON result. Result and span files go to `perfbench/out/`. See
//! `perfbench/README.md` for why each workload exists.

mod campaign;
mod fileio;
mod heap;
mod report;
mod server;
mod stats;
mod trace;

use report::{
    metric, peak_rss_mb, result_line, select, Fingerprint, Outcome, END_TO_END, PER_LAYER,
};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured time per phase.
    pub seconds: Duration,
    /// Whether to run the traced phase.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1996,
        seconds: Duration::from_secs(10),
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {value}: expected 0 < s <= 3600"));
                }
                args.seconds = Duration::from_secs_f64(s);
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let threads = match args.workload.as_str() {
        "campaign" => campaign::threads(),
        "server" | "fileio" => 1,
        other => {
            eprintln!("perfbench: unknown workload {other:?} (campaign, server, fileio)");
            return ExitCode::from(2);
        }
    };
    let fp = Fingerprint::take(&root);
    let fingerprint = format!(
        "{{\"nproc\": {}, \"rustc\": \"{}\", \"git_rev\": \"{}\", \"source_digest\": \"{}\", \"workload\": \"{}\", \"seed\": {}, \"threads\": {}, \"seconds\": {}, \"trace\": {}}}",
        fp.nproc,
        fp.rustc,
        fp.git_rev,
        fp.source_digest,
        args.workload,
        args.seed,
        threads,
        args.seconds.as_secs_f64(),
        u8::from(args.trace)
    );
    println!("fingerprint {fingerprint}");

    let mut out = Outcome::default();
    let heap = heap::Sampler::start();
    let spans = match args.workload.as_str() {
        "campaign" => campaign::run(&args, &mut out),
        "server" => server::run(&args, &mut out),
        _ => fileio::run(&args, &mut out),
    };
    let (mean_heap, heap_samples) = heap.finish();
    out.end_to_end
        .push(metric("mean_heap_mb", mean_heap, "MB", heap_samples));
    out.notes.push(format!(
        "mean live heap {mean_heap:.3} MB over {heap_samples} samples; peak RSS {:.3} MB",
        peak_rss_mb()
    ));
    if out.attempted == 0 {
        out.problem("no operations attempted");
    }

    let (list, have): (&[(&str, &str)], &[report::Metric]) = if args.trace {
        (PER_LAYER, &out.per_layer)
    } else {
        (&END_TO_END, &out.end_to_end)
    };
    let (metrics, missing) = select(list, have);
    for m in out.end_to_end.iter().chain(&out.per_layer) {
        println!(
            "metric {:<32} {:>16.4} {:<6} samples={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    for name in &missing {
        println!(
            "metric {name:<32} {:>16} n/a    (not exercised by {})",
            0, args.workload
        );
    }
    for n in &out.notes {
        println!("note {n}");
    }
    for p in &out.problems {
        println!("FAILED {p}");
    }

    let dir = out_dir();
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("perfbench: creating {}: {e}", dir.display());
    }
    if let Some(spans) = spans {
        let path = dir.join(format!("{stem}.spans.jsonl"));
        match std::fs::write(&path, trace::to_jsonl(&spans)) {
            Ok(()) => println!("spans {} written to {}", spans.len(), path.display()),
            Err(e) => out.problem(format!("writing {}: {e}", path.display())),
        }
    }
    let correct = out.problems.is_empty();
    let line = result_line(correct, out.attempted.max(1), out.failed, &metrics);
    let path = dir.join(format!("{stem}.json"));
    let all: Vec<report::Metric> = out
        .end_to_end
        .iter()
        .chain(&out.per_layer)
        .cloned()
        .collect();
    let detail = format!(
        "{{\"fingerprint\": {fingerprint}, \"result\": {line}, \"all_metrics\": {{{}}}}}\n",
        all.iter()
            .map(|m| format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\", \"samples\": {}}}",
                m.name,
                report::json_num(m.value),
                m.unit,
                m.samples
            ))
            .collect::<Vec<_>>()
            .join(", ")
    );
    if let Err(e) = std::fs::write(&path, detail) {
        eprintln!("perfbench: writing {}: {e}", path.display());
    }
    println!("{line}");
    ExitCode::SUCCESS
}
