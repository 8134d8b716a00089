//! Metric names, the host fingerprint, and the result line.
//!
//! The metric lists here are the benchmark's contract with
//! `BENCHMARK.json`: an untraced run reports every [`END_TO_END`] metric, a
//! traced run every [`PER_LAYER`] metric. A per-layer metric that a
//! workload does not exercise reads 0 and is marked `n/a` in the human
//! report. Metrics only `fileio` produces are printed and written to its
//! detail file but are not listed, as `fileio` is not a listed workload.

use std::fmt::Write as _;
use std::path::Path;

/// End-to-end metrics, reported by every workload with tracing off.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("mean_heap_mb", "MB"),
    ("work_per_s", "1/s"),
];

/// Per-layer metrics, reported by every traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    // The workloads' own rates, from the untraced phase.
    ("trials_per_s", "1/s"),
    ("crashes_per_s", "1/s"),
    ("rio_requests_per_s", "1/s"),
    ("wt_requests_per_s", "1/s"),
    // Tracing itself.
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
    ("self.bench_share", "%"),
    ("self.faults_share", "%"),
    ("self.workloads_share", "%"),
    ("self.kernel_share", "%"),
    // rio-faults: the trial engine.
    ("faults.prepare_ms", "ms"),
    ("faults.fork_us_p50", "us"),
    ("faults.drive_nocrash_ms_p50", "ms"),
    ("faults.drive_crashed_ms_p50", "ms"),
    ("faults.nocrash_share", "ratio"),
    ("faults.nocrash_time_share", "ratio"),
    ("faults.us_per_memtest_op", "us"),
    ("sim.corruptions.disk", "count"),
    ("sim.corruptions.rio_noprot", "count"),
    ("sim.corruptions.rio_prot", "count"),
    // rio-core / rio-mem counts and host cost per unit.
    ("rio.windows_opened", "count"),
    ("mem.stores", "count"),
    ("mem.bytes_moved", "count"),
    ("mem.kseg_forced", "count"),
    ("sim.cpu_us", "sim_us"),
    ("sim.disk_wait_us", "sim_us"),
    ("rio.ns_per_window", "ns"),
    ("mem.ns_per_store", "ns"),
    ("mem.ns_per_byte", "ns"),
    ("mem.ns_per_kseg_forced", "ns"),
    ("sim.host_ns_per_cpu_us", "ns"),
    ("sim.host_ns_per_disk_wait_us", "ns"),
    // rio-kernel scheduler and rio-disk, per server cell.
    ("sched.quanta.rio", "count"),
    ("sched.quanta.wt", "count"),
    ("sched.idle_hops.rio", "count"),
    ("sched.idle_hops.wt", "count"),
    ("locks.contended.rio", "count"),
    ("locks.contended.wt", "count"),
    ("sched.ns_per_quantum.rio", "ns"),
    ("sched.ns_per_quantum.wt", "ns"),
    ("disk.writes.rio", "count"),
    ("disk.writes.wt", "count"),
    ("disk.reads.rio", "count"),
    ("disk.reads.wt", "count"),
    ("kernel.sync_waits.rio", "count"),
    ("kernel.sync_waits.wt", "count"),
    ("disk.ns_per_write.wt", "ns"),
    // The simulated server's latency outputs, per cell.
    ("sim.read_p50_us.rio", "sim_us"),
    ("sim.read_p99_us.rio", "sim_us"),
    ("sim.read_p999_us.rio", "sim_us"),
    ("sim.write_p50_us.rio", "sim_us"),
    ("sim.write_p99_us.rio", "sim_us"),
    ("sim.write_p999_us.rio", "sim_us"),
    ("sim.commit_p50_us.rio", "sim_us"),
    ("sim.commit_p99_us.rio", "sim_us"),
    ("sim.commit_p999_us.rio", "sim_us"),
    ("sim.read_p50_us.wt", "sim_us"),
    ("sim.read_p99_us.wt", "sim_us"),
    ("sim.read_p999_us.wt", "sim_us"),
    ("sim.write_p50_us.wt", "sim_us"),
    ("sim.write_p99_us.wt", "sim_us"),
    ("sim.write_p999_us.wt", "sim_us"),
    ("sim.commit_p50_us.wt", "sim_us"),
    ("sim.commit_p99_us.wt", "sim_us"),
    ("sim.commit_p999_us.wt", "sim_us"),
];

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as listed in [`END_TO_END`] or [`PER_LAYER`].
    pub name: String,
    /// Value in `unit`.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind the value (1 for a single count or ratio).
    pub samples: u64,
}

/// Shorthand constructor.
pub fn metric(name: impl Into<String>, value: f64, unit: &'static str, samples: u64) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
        samples,
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end metrics (all of [`END_TO_END`] but `mean_heap_mb`, which
    /// the caller adds from its heap sampler).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub per_layer: Vec<Metric>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Failed correctness checks.
    pub problems: Vec<String>,
    /// Free-form report lines (per-workload detail, tails).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a failed check.
    pub fn problem(&mut self, text: impl Into<String>) {
        self.problems.push(text.into());
    }
}

/// Peak resident set size of this process, MB.
pub fn peak_rss_mb() -> f64 {
    #[repr(C)]
    struct Rusage {
        utime: [i64; 2],
        stime: [i64; 2],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    let mut u = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `Rusage` matches the layout of `struct rusage` on 64-bit
    // Linux (two `timeval`s followed by fourteen `long`s), and the kernel
    // writes only within it. RUSAGE_SELF is 0.
    let rc = unsafe { getrusage(0, &mut u) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    u.maxrss as f64 / 1024.0
}

/// The host and source a result was measured on.
pub struct Fingerprint {
    /// Available hardware threads.
    pub nproc: usize,
    /// Compiler that built the benchmark.
    pub rustc: &'static str,
    /// Git revision of the checkout, when it is a git checkout.
    pub git_rev: String,
    /// FNV-1a digest of the sources the benchmark builds from.
    pub source_digest: String,
}

impl Fingerprint {
    /// Fingerprints the checkout at `root`.
    pub fn take(root: &Path) -> Fingerprint {
        Fingerprint {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc: env!("PERFBENCH_RUSTC"),
            git_rev: git_rev(root).unwrap_or_else(|| "none".to_owned()),
            source_digest: format!("{:016x}", source_digest(root)),
        }
    }
}

/// Resolves `.git/HEAD` without running git (which could look outside
/// the checkout for a repository).
fn git_rev(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_owned());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_owned());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|r| r.trim().to_owned()))
}

/// Digest of every file under `crates/` and `perfbench/src`, plus the
/// workspace manifests, in sorted path order.
fn source_digest(root: &Path) -> u64 {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else {
                out.push(p);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    walk(&root.join("perfbench").join("src"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let rel = f
            .strip_prefix(root)
            .unwrap_or(&f)
            .to_string_lossy()
            .into_owned();
        let body = std::fs::read(&f).unwrap_or_default();
        for b in rel.bytes().chain(body) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Formats a float for JSON with all its digits (non-finite values, which
/// no metric should produce, become 0).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// The final result line: `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_num(m.value),
            m.unit
        );
    }
    s.push_str("}}");
    s
}

/// Picks the listed metrics out of `have`, in list order, filling any the
/// workload did not produce with 0. Returns the metrics and the names that
/// were filled.
pub fn select(list: &[(&str, &'static str)], have: &[Metric]) -> (Vec<Metric>, Vec<String>) {
    let mut missing = Vec::new();
    let picked = list
        .iter()
        .map(|&(name, unit)| match have.iter().find(|m| m.name == name) {
            Some(m) => {
                assert_eq!(m.unit, unit, "metric {name} reported in the wrong unit");
                m.clone()
            }
            None => {
                missing.push(name.to_owned());
                metric(name, 0.0, unit, 0)
            }
        })
        .collect();
    (picked, missing)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists must match `BENCHMARK.json` name for name and unit
    /// for unit.
    #[test]
    fn metric_lists_match_the_manifest() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let manifest = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let entries = |key: &str| -> Vec<(String, String)> {
            let start = manifest
                .find(&format!("\"{key}\""))
                .expect("section present");
            let body = &manifest[start..];
            let body = &body[..body.find(']').expect("section closes")];
            body.split('{')
                .skip(1)
                .map(|e| {
                    let field = |f: &str| {
                        let at = e.find(&format!("\"{f}\": \"")).expect("field") + f.len() + 5;
                        e[at..at + e[at..].find('"').expect("quote")].to_owned()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |l: &[(&str, &str)]| -> Vec<(String, String)> {
            l.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(entries("end_to_end"), own(&END_TO_END));
        assert_eq!(entries("per_layer"), own(PER_LAYER));
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let line = result_line(true, 3, 0, &[metric("setup_s", 0.25, "s", 3)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn select_fills_absent_metrics_with_zero() {
        let (picked, missing) = select(&END_TO_END, &[metric("work_per_s", 2.0, "1/s", 1)]);
        assert_eq!(picked.len(), 3);
        assert_eq!(picked[2].value, 2.0);
        assert_eq!(missing, vec!["setup_s", "mean_heap_mb"]);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 0.0);
    }
}
