//! `server`: the open-loop file server through `Server::run`.
//!
//! 1024 simulated connections on one host thread, Poisson/bursty Zipf
//! traffic (60/30/10 read/write/commit), on the server exhibit's machine
//! (16 MB UBC, 4-device stripe). Each iteration runs two cells on fresh
//! machines — `Rio (protected)` and `UFS write-through` — with a seed
//! derived from `--seed`, until the time is up. Only this workload drives
//! `PreemptSched`, lock queues and syscall continuations; the write-through
//! cell loads the disk array and fsync drain, which the Rio cell bypasses.

use crate::report::{metric, ratio, Outcome};
use crate::stats::Dist;
use crate::trace::{self, Layer, Span, Tracer};
use crate::Args;
use rio_baselines::{rio_with_protection, ufs_write_write};
use rio_det::derive_seed;
use rio_kernel::{DiskGeometry, Kernel, KernelConfig, Policy};
use rio_workloads::{Server, ServerConfig, ServerReport};
use std::collections::BTreeMap;
use std::time::Instant;

/// Concurrent connections.
const CLIENTS: usize = 1024;
/// Open-loop requests per connection.
const REQUESTS_PER_CLIENT: usize = 16;
/// Minimum set-up samples (both cells' mkfs) behind `setup_s`.
const SETUP_ROUNDS: usize = 15;

/// The two cells: metric suffix and policy.
type Cell = (&'static str, fn() -> Policy);
const CELLS: [Cell; 2] = [("rio", rio_with_protection), ("wt", ufs_write_write)];

/// The server exhibit's machine: Table 2 proportions, 16 MB UBC, 4-way
/// striped disk.
fn kernel_config(policy: Policy) -> KernelConfig {
    let mut config = KernelConfig::small(policy);
    config.machine.mem = rio_mem::MemConfig {
        ubc_bytes: 16 * 1024 * 1024,
        buffer_cache_bytes: 1024 * 1024,
        registry_bytes: 128 * 1024,
        ..rio_mem::MemConfig::small()
    };
    config.geometry = DiskGeometry::new(8192, 4096, 128);
    config.machine.disk_blocks = 8192;
    config.machine.disk_devices = 4;
    config
}

fn server_config(seed: u64, i: usize) -> ServerConfig {
    ServerConfig {
        requests_per_client: REQUESTS_PER_CLIENT,
        ..ServerConfig::small(derive_seed(seed, i as u64), CLIENTS)
    }
}

/// Kernel counters plus the simulated clock's split, as a map. Shared with
/// `fileio`.
pub fn counters(k: &Kernel) -> BTreeMap<String, u64> {
    let mut reg = rio_obs::Registry::new();
    k.observe_into(&mut reg);
    let mut m: BTreeMap<String, u64> = reg.counters().map(|(n, v)| (n.to_owned(), v)).collect();
    m.insert("sim.cpu_us".into(), k.machine.clock.cpu_time().as_micros());
    m.insert(
        "sim.disk_wait_us".into(),
        k.machine.clock.disk_wait().as_micros(),
    );
    m
}

/// Adds the counter growth from `before` to `after` into `acc`.
pub fn add_delta(
    acc: &mut BTreeMap<String, u64>,
    before: &BTreeMap<String, u64>,
    after: &BTreeMap<String, u64>,
) {
    for (k, v) in after {
        *acc.entry(k.clone()).or_insert(0) += v - before.get(k).copied().unwrap_or(0);
    }
}

/// One cell run: what the simulation produced plus the host time it took.
struct CellRun {
    report: ServerReport,
    counts: BTreeMap<String, u64>,
    run_ns: u64,
}

impl CellRun {
    /// Every simulated output, for the traced-versus-untraced identity check.
    fn sim_outputs(&self) -> Vec<u64> {
        let r = &self.report;
        let mut v = vec![r.total.as_micros(), r.requests, r.quanta, r.idle_hops];
        for h in [&r.read, &r.write, &r.commit] {
            v.extend([
                h.count(),
                h.sum(),
                h.percentile(0.5),
                h.percentile(0.99),
                h.percentile(0.999),
            ]);
        }
        v.extend(self.counts.values());
        v
    }
}

/// Builds a fresh machine (set-up) and runs one cell on it.
fn run_cell(
    policy: Policy,
    cfg: ServerConfig,
    t: &mut Option<Tracer>,
    id: u64,
    setup_ns: &mut u64,
) -> Result<CellRun, String> {
    let config = kernel_config(policy);
    let start = Instant::now();
    let mut k = match t {
        Some(t) => t.span("mkfs_and_mount", Layer::Kernel, id, || {
            Kernel::mkfs_and_mount(&config)
        }),
        None => Kernel::mkfs_and_mount(&config),
    }
    .map_err(|e| format!("mkfs: {e:?}"))?;
    *setup_ns += start.elapsed().as_nanos() as u64;
    let server = Server::new(cfg);
    let before = counters(&k);
    let start = Instant::now();
    let report = match t {
        Some(t) => t.span("Server::run", Layer::Workloads, id, || server.run(&mut k)),
        None => server.run(&mut k),
    }
    .map_err(|e| format!("Server::run: {e:?}"))?;
    let run_ns = start.elapsed().as_nanos() as u64;
    let after = match t {
        Some(t) => t.span("observe_into", Layer::Kernel, id, || counters(&k)),
        None => counters(&k),
    };
    let mut counts = BTreeMap::new();
    add_delta(&mut counts, &before, &after);
    Ok(CellRun {
        report,
        counts,
        run_ns,
    })
}

/// Runs iterations `0..n` (or until `deadline` when `n` is `None`).
fn run_iterations(
    args: &Args,
    n: Option<usize>,
    tracer: &mut Option<Tracer>,
    out: &mut Outcome,
    setup_ns: &mut Vec<u64>,
) -> Vec<[CellRun; 2]> {
    let start = Instant::now();
    let mut runs = Vec::new();
    loop {
        let i = runs.len();
        let done = match n {
            Some(n) => i == n,
            None => i > 0 && start.elapsed() >= args.seconds,
        };
        if done {
            break;
        }
        let root = tracer
            .as_mut()
            .map(|t| t.enter("server.iteration", Layer::Bench, i as u64));
        let mut setup = 0;
        let cells: Result<Vec<CellRun>, String> = CELLS
            .iter()
            .enumerate()
            .map(|(c, (name, policy))| {
                let id = (i * CELLS.len() + c) as u64;
                run_cell(
                    policy(),
                    server_config(args.seed, i),
                    tracer,
                    id,
                    &mut setup,
                )
                .map_err(|e| format!("iteration {i} cell {name}: {e}"))
            })
            .collect();
        if let (Some(t), Some(root)) = (tracer.as_mut(), root) {
            t.exit(root);
        }
        match cells {
            Ok(cells) => runs.push(
                cells
                    .try_into()
                    .unwrap_or_else(|_| unreachable!("two cells")),
            ),
            Err(e) => {
                out.problem(e);
                return runs;
            }
        }
        setup_ns.push(setup);
    }
    runs
}

/// Runs the workload; returns the spans of the traced phase, if any.
pub fn run(args: &Args, out: &mut Outcome) -> Option<Vec<Span>> {
    let mut setup_ns = Vec::new();
    let start = Instant::now();
    let runs = run_iterations(args, None, &mut None, out, &mut setup_ns);
    let untraced_ns = start.elapsed().as_nanos() as u64;
    if runs.is_empty() {
        return None;
    }
    // Extra set-up rounds so `setup_s` is a median over several samples.
    while setup_ns.len() < SETUP_ROUNDS {
        let t = Instant::now();
        for (_, policy) in CELLS {
            if Kernel::mkfs_and_mount(&kernel_config(policy())).is_err() {
                out.problem("mkfs failed in a set-up round");
            }
        }
        setup_ns.push(t.elapsed().as_nanos() as u64);
    }
    let setup = Dist::new(setup_ns);
    out.end_to_end.push(metric(
        "setup_s",
        setup.p50() as f64 / 1e9,
        "s",
        setup.len() as u64,
    ));

    let expected = (CLIENTS * REQUESTS_PER_CLIENT) as u64;
    let n = runs.len() as u64;
    let mut total_requests = 0;
    let mut total_ns = 0;
    for (c, (name, _)) in CELLS.iter().enumerate() {
        let requests: u64 = runs.iter().map(|r| r[c].report.requests).sum();
        let ns: u64 = runs.iter().map(|r| r[c].run_ns).sum();
        out.attempted += expected * n;
        out.failed += (expected * n).saturating_sub(requests);
        if requests != expected * n {
            out.problem(format!(
                "{name}: {requests} of {} requests completed",
                expected * n
            ));
        }
        total_requests += requests;
        total_ns += ns;
        out.per_layer.push(metric(
            format!("{name}_requests_per_s"),
            requests as f64 / (ns as f64 / 1e9),
            "1/s",
            n,
        ));
    }
    out.end_to_end.push(metric(
        "work_per_s",
        total_requests as f64 / (total_ns as f64 / 1e9),
        "1/s",
        n,
    ));
    for (i, r) in runs.iter().enumerate() {
        let (rio, wt) = (
            r[0].report.commit.percentile(0.999),
            r[1].report.commit.percentile(0.999),
        );
        if rio >= wt {
            out.problem(format!(
                "iteration {i}: Rio commit p999 {rio} us not below write-through's {wt} us"
            ));
        }
    }
    out.notes.push(format!(
        "{n} iterations x 2 cells x {CLIENTS} clients x {REQUESTS_PER_CLIENT} requests in {:.3} s of Server::run",
        total_ns as f64 / 1e9
    ));
    layer_metrics(out, &runs);

    if !args.trace {
        return None;
    }
    let origin = Instant::now();
    let mut tracer = Some(Tracer::new(origin, 0));
    let traced = run_iterations(args, Some(runs.len()), &mut tracer, out, &mut Vec::new());
    let traced_ns = origin.elapsed().as_nanos() as u64;
    let spans = tracer.take().expect("tracer present").into_spans();
    let same = traced.len() == runs.len()
        && traced
            .iter()
            .zip(&runs)
            .all(|(a, b)| (0..2).all(|c| a[c].sim_outputs() == b[c].sim_outputs()));
    if !same {
        out.problem("traced phase produced different simulated outputs");
    }
    out.notes.push(format!(
        "traced phase: sim outputs identical to untraced: {same}"
    ));
    trace::summarize(out, &spans, traced_ns, untraced_ns);
    Some(spans)
}

/// Per-cell scheduler, lock, disk and latency metrics. Counts and
/// simulated outputs come from iteration 0 (a pure function of the seed);
/// host-time ratios use every iteration.
fn layer_metrics(out: &mut Outcome, runs: &[[CellRun; 2]]) {
    let n = runs.len() as u64;
    for (c, (name, _)) in CELLS.iter().enumerate() {
        let first = &runs[0][c];
        let sum = |key: &str| runs.iter().map(|r| r[c].counts[key]).sum::<u64>() as f64;
        let host_ns = runs.iter().map(|r| r[c].run_ns).sum::<u64>() as f64;
        let quanta: u64 = runs.iter().map(|r| r[c].report.quanta).sum();
        let count = |m: &str, v: u64| metric(format!("{m}.{name}"), v as f64, "count", 1);
        out.per_layer
            .push(count("sched.quanta", first.report.quanta));
        out.per_layer
            .push(count("sched.idle_hops", first.report.idle_hops));
        out.per_layer
            .push(count("locks.contended", first.counts["locks.contended"]));
        out.per_layer
            .push(count("disk.writes", first.counts["disk.writes"]));
        out.per_layer
            .push(count("disk.reads", first.counts["disk.reads"]));
        out.per_layer.push(count(
            "kernel.sync_waits",
            first.counts["kernel.sync_waits"],
        ));
        out.per_layer.push(metric(
            format!("sched.ns_per_quantum.{name}"),
            ratio(host_ns, quanta as f64),
            "ns",
            n,
        ));
        out.per_layer.push(metric(
            format!("disk.ns_per_write.{name}"),
            ratio(host_ns, sum("disk.writes")),
            "ns",
            n,
        ));
        let r = &first.report;
        for (class, h) in [
            ("read", &r.read),
            ("write", &r.write),
            ("commit", &r.commit),
        ] {
            for (label, frac) in [("p50", 0.5), ("p99", 0.99), ("p999", 0.999)] {
                out.per_layer.push(metric(
                    format!("sim.{class}_{label}_us.{name}"),
                    h.percentile(frac) as f64,
                    "sim_us",
                    h.count(),
                ));
            }
        }
    }
    // Memory-bus, protection and simulated-clock counts over both cells.
    let both = |key: &str| -> (u64, f64) {
        let first: u64 = runs[0]
            .iter()
            .map(|c| c.counts.get(key).copied().unwrap_or(0))
            .sum();
        let all: u64 = runs
            .iter()
            .flat_map(|r| r.iter())
            .map(|c| c.counts.get(key).copied().unwrap_or(0))
            .sum();
        (first, all as f64)
    };
    let host_ns = runs
        .iter()
        .flat_map(|r| r.iter())
        .map(|c| c.run_ns)
        .sum::<u64>() as f64;
    unit_costs(out, host_ns, n, both);
}

/// The rio-core / rio-mem / clock counts and a host-ns-per-unit ratio for
/// each; `get` returns (the count over the deterministic prefix, the count
/// over all the work `host_ns` covers). Shared with `fileio`.
pub fn unit_costs(out: &mut Outcome, host_ns: f64, samples: u64, get: impl Fn(&str) -> (u64, f64)) {
    for (key, per_unit) in [
        ("rio.windows_opened", "rio.ns_per_window"),
        ("mem.stores", "mem.ns_per_store"),
        ("mem.bytes_moved", "mem.ns_per_byte"),
        ("mem.kseg_forced", "mem.ns_per_kseg_forced"),
        ("sim.cpu_us", "sim.host_ns_per_cpu_us"),
        ("sim.disk_wait_us", "sim.host_ns_per_disk_wait_us"),
    ] {
        let (first, all) = get(key);
        let unit = if key.starts_with("sim.") {
            "sim_us"
        } else {
            "count"
        };
        out.per_layer.push(metric(key, first as f64, unit, 1));
        out.per_layer
            .push(metric(per_unit, ratio(host_ns, all), "ns", samples));
    }
}
