//! `campaign`: the Table 1 crash campaign, end to end.
//!
//! All 13 faults × 3 systems at the paper's warmup (60 memTest ops) and
//! watchdog (800 ops), one crash collected per cell, on one worker thread
//! per hardware thread, through `run_campaign_parallel`. Campaigns with
//! seeds derived from `--seed` run back to back until the time is up.
//! Host time goes to trial discards and memTest through the kernel, CPU
//! interpreter and memory bus; the scheduler and disk array are idle.
//!
//! The traced phase recomposes the same campaigns from the engine's parts
//! (`TrialCheckpoint::capture`, `fork`, `drive`) under the engine's serial
//! stopping rule, cells spread over the same number of threads, and must
//! reproduce every cell's crashes, discards and corruptions exactly.

use crate::report::{metric, ratio, Outcome};
use crate::stats::Dist;
use crate::trace::{self, Layer, Span, Tracer};
use crate::Args;
use rio_det::derive_seed;
use rio_faults::campaign::trial_seed;
use rio_faults::{
    drive, run_campaign_parallel, workload_seed, CampaignConfig, CampaignResult, FaultType,
    SystemKind, TrialCheckpoint, TrialVerdict,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Crashes collected per cell.
const CRASHES_PER_CELL: u64 = 1;
/// Set-up rounds (checkpoint capture of all three systems) timed for
/// `setup_s` before each campaign. Spreading them over the run, rather than
/// timing them all before it, keeps a few seconds of a busy host from
/// setting the median.
const SETUP_ROUNDS: usize = 5;

/// Worker threads: one per hardware thread.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn config(seed: u64) -> CampaignConfig {
    CampaignConfig {
        trials_per_cell: CRASHES_PER_CELL,
        ..CampaignConfig::paper(seed)
    }
}

fn campaign_seed(seed: u64, i: usize) -> u64 {
    derive_seed(seed, i as u64)
}

/// The Table 1 grid in the engine's row-major (fault, system) order.
fn grid() -> Vec<(FaultType, SystemKind)> {
    FaultType::ALL
        .iter()
        .flat_map(|&f| SystemKind::ALL.iter().map(move |&s| (f, s)))
        .collect()
}

/// Per-cell counts the cross-check compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct CellCounts {
    crashes: u64,
    discarded: u64,
    corruptions: u64,
}

/// What the traced recomposition saw in one cell.
#[derive(Debug, Default)]
struct TracedCell {
    counts: CellCounts,
    wedged: u64,
    panics: u64,
    /// (drive ns, verdict) of every trial; `None` for a panicked drive.
    drives: Vec<(u64, Option<TrialVerdict>)>,
    fork_ns: Vec<u64>,
}

fn attempts(r: &CampaignResult) -> u64 {
    r.cells.iter().map(|c| c.crashes + c.discarded).sum()
}

fn crashes(r: &CampaignResult) -> u64 {
    r.cells.iter().map(|c| c.crashes).sum()
}

/// Structural checks on one campaign result; returns panic-firewall
/// trials visible in the crash messages.
fn check(r: &CampaignResult, cfg: &CampaignConfig, out: &mut Outcome) -> u64 {
    let max_attempts = cfg.trials_per_cell * cfg.max_attempts_factor;
    if r.cells.len() != grid().len() {
        out.problem(format!(
            "campaign has {} cells, expected {}",
            r.cells.len(),
            grid().len()
        ));
    }
    for (c, (fault, system)) in r.cells.iter().zip(grid()) {
        let tried = c.crashes + c.discarded;
        let complete = c.crashes == cfg.trials_per_cell || tried == max_attempts;
        if c.fault != fault || c.system != system || !complete || c.corruptions > c.crashes {
            out.problem(format!(
                "cell {:?}/{} inconsistent: {} crashes, {} discarded, {} corruptions",
                c.fault, c.system, c.crashes, c.discarded, c.corruptions
            ));
        }
    }
    r.unique_messages()
        .iter()
        .filter(|m| m.starts_with("harness panic"))
        .count() as u64
}

/// Runs one cell from its checkpoint under the engine's serial stopping
/// rule, with a span around every fork and drive.
fn traced_cell(
    t: &mut Tracer,
    cfg: &CampaignConfig,
    cp: &TrialCheckpoint,
    fault: FaultType,
    system: SystemKind,
    cell_id: u64,
) -> TracedCell {
    let max_attempts = cfg.trials_per_cell * cfg.max_attempts_factor;
    let mut cell = TracedCell::default();
    let mut attempt = 0;
    while cell.counts.crashes < cfg.trials_per_cell && attempt < max_attempts {
        let id = cell_id << 16 | attempt;
        let inject = trial_seed(cfg.seed, fault, system, attempt);
        let fork = t.enter("fork", Layer::Faults, id);
        let prepared = cp.fork();
        t.exit(fork);
        cell.fork_ns.push(t.dur_ns(fork));
        let span = t.enter("drive", Layer::Faults, id);
        let observed = catch_unwind(AssertUnwindSafe(|| {
            drive(prepared, fault, inject, cfg.watchdog_ops)
        }));
        t.exit(span);
        let ns = t.dur_ns(span);
        match observed {
            Ok(obs) => {
                cell.drives.push((ns, Some(obs.verdict)));
                match obs.verdict {
                    TrialVerdict::Wedged => {
                        cell.wedged += 1;
                        cell.counts.discarded += 1;
                    }
                    TrialVerdict::NoCrash => cell.counts.discarded += 1,
                    TrialVerdict::Crashed => {
                        cell.counts.crashes += 1;
                        cell.counts.corruptions += u64::from(obs.damage > 0);
                    }
                }
            }
            Err(_) => {
                // The engine's firewall records a panicked trial as a
                // corrupted crash.
                cell.drives.push((ns, None));
                cell.panics += 1;
                cell.counts.crashes += 1;
                cell.counts.corruptions += 1;
            }
        }
        attempt += 1;
    }
    cell
}

/// One campaign recomposed from the engine's parts; returns its cells in
/// grid order plus the spans of every thread.
fn traced_campaign(
    cfg: &CampaignConfig,
    threads: usize,
    origin: Instant,
    base_id: u64,
) -> (Vec<TracedCell>, Vec<Vec<Span>>) {
    let mut main = Tracer::new(origin, 0);
    let root = main.enter("campaign.prepare", Layer::Bench, base_id);
    let checkpoints: Vec<TrialCheckpoint> = SystemKind::ALL
        .iter()
        .map(|&s| {
            main.span("capture", Layer::Faults, base_id, || {
                TrialCheckpoint::capture(s, workload_seed(cfg.seed, s), cfg.warmup_ops)
            })
        })
        .collect();
    main.exit(root);

    let cells = grid();
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<TracedCell>>> = cells.iter().map(|_| Mutex::new(None)).collect();
    let mut spans = vec![main.into_spans()];
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|w| {
                let (cells, next, slots, checkpoints) = (&cells, &next, &slots, &checkpoints);
                scope.spawn(move || {
                    let mut t = Tracer::new(origin, w + 1);
                    let root = t.enter("campaign.worker", Layer::Bench, base_id);
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&(fault, system)) = cells.get(i) else {
                            break;
                        };
                        let cell_id = base_id << 8 | i as u64;
                        let s = t.enter("cell", Layer::Bench, cell_id);
                        let at = SystemKind::ALL.iter().position(|&k| k == system);
                        let cp = &checkpoints[at.expect("grid systems come from SystemKind::ALL")];
                        let cell = traced_cell(&mut t, cfg, cp, fault, system, cell_id);
                        t.exit(s);
                        *slots[i]
                            .lock()
                            .expect("no worker panics while holding a slot") = Some(cell);
                    }
                    t.exit(root);
                    t.into_spans()
                })
            })
            .collect();
        for w in workers {
            spans.push(w.join().expect("traced campaign worker panicked"));
        }
    });
    let cells = slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("no worker panics while holding a slot")
                .expect("every cell ran")
        })
        .collect();
    (cells, spans)
}

/// Runs the workload; returns the spans of the traced phase, if any.
pub fn run(args: &Args, out: &mut Outcome) -> Option<Vec<Span>> {
    let threads = threads();

    // Measured phase: whole campaigns until the time is up, each after the
    // set-up it pays: capturing the three systems' steady-state
    // checkpoints, once per system before its first fork.
    let start = Instant::now();
    let mut setup_ns = Vec::new();
    let mut results = Vec::new();
    let mut busy_ns = 0u64;
    while results.is_empty() || start.elapsed() < args.seconds {
        let cfg = config(campaign_seed(args.seed, results.len()));
        for _ in 0..SETUP_ROUNDS {
            let t = Instant::now();
            for s in SystemKind::ALL {
                let cp = TrialCheckpoint::capture(s, workload_seed(cfg.seed, s), cfg.warmup_ops);
                if cp.wedged() {
                    out.problem(format!("{s} checkpoint capture failed"));
                }
            }
            setup_ns.push(t.elapsed().as_nanos() as u64);
        }
        let t = Instant::now();
        let r = run_campaign_parallel(&cfg, threads);
        busy_ns += t.elapsed().as_nanos() as u64;
        let panics = check(&r, &cfg, out);
        out.failed += panics;
        results.push(r);
    }
    let setup = Dist::new(setup_ns);
    out.end_to_end.push(metric(
        "setup_s",
        setup.p50() as f64 / 1e9,
        "s",
        setup.len() as u64,
    ));
    let tried: u64 = results.iter().map(attempts).sum();
    let crashed: u64 = results.iter().map(crashes).sum();
    out.attempted = tried;
    let secs = busy_ns as f64 / 1e9;
    let trials_per_s = tried as f64 / secs;
    let n = results.len() as u64;
    out.end_to_end
        .push(metric("work_per_s", trials_per_s, "1/s", n));
    out.per_layer
        .push(metric("trials_per_s", trials_per_s, "1/s", n));
    out.per_layer
        .push(metric("crashes_per_s", crashed as f64 / secs, "1/s", n));
    out.notes.push(format!(
        "{n} campaigns ({} cells each, {CRASHES_PER_CELL} crash/cell, {threads} threads): {tried} trials, {crashed} crashes in {secs:.3} s",
        grid().len()
    ));
    for s in SystemKind::ALL {
        out.per_layer.push(metric(
            format!("sim.corruptions.{}", s.slug()),
            results[0].total_corruptions(s) as f64,
            "count",
            1,
        ));
    }

    if !args.trace {
        return None;
    }

    // Traced phase: the same campaigns, recomposed and cross-checked.
    let origin = Instant::now();
    let mut spans = Vec::new();
    let mut drives = Vec::new();
    let mut forks = Vec::new();
    let (mut wedged, mut panics) = (0, 0);
    for (i, r) in results.iter().enumerate() {
        let cfg = config(campaign_seed(args.seed, i));
        let (cells, s) = traced_campaign(&cfg, threads, origin, i as u64);
        spans.extend(s);
        for (got, want) in cells.iter().zip(&r.cells) {
            let want_counts = CellCounts {
                crashes: want.crashes,
                discarded: want.discarded,
                corruptions: want.corruptions,
            };
            if got.counts != want_counts {
                out.problem(format!(
                    "cross-check: campaign {i} cell {:?}/{}: engine {want_counts:?}, recomposed {:?}",
                    want.fault, want.system, got.counts
                ));
            }
        }
        for c in cells {
            wedged += c.wedged;
            panics += c.panics;
            drives.extend(c.drives);
            forks.extend(c.fork_ns);
        }
    }
    let traced_ns = origin.elapsed().as_nanos() as u64;
    let spans = trace::merge(spans);
    // The traced phase counts wedged and panicked trials exactly; the
    // untraced count above only saw panics through their messages.
    out.failed = wedged + panics;
    out.notes.push(format!(
        "cross-check: {} campaigns recomposed, {wedged} wedged, {panics} panicked trials",
        results.len()
    ));

    let ms = |ns: u64| ns as f64 / 1e6;
    let prepares = Dist::new(trace::durations(&spans, "capture"));
    out.per_layer.push(metric(
        "faults.prepare_ms",
        ms(prepares.p50()),
        "ms",
        prepares.len() as u64,
    ));
    let forks = Dist::new(forks);
    out.per_layer.push(metric(
        "faults.fork_us_p50",
        forks.p50() as f64 / 1e3,
        "us",
        forks.len() as u64,
    ));
    let pick = |v: Option<TrialVerdict>| -> Vec<u64> {
        drives.iter().filter(|d| d.1 == v).map(|d| d.0).collect()
    };
    let nocrash = Dist::new(pick(Some(TrialVerdict::NoCrash)));
    let crashed_drives = Dist::new(pick(Some(TrialVerdict::Crashed)));
    let wedged_drives = Dist::new(pick(Some(TrialVerdict::Wedged)));
    out.per_layer.push(metric(
        "faults.drive_nocrash_ms_p50",
        ms(nocrash.p50()),
        "ms",
        nocrash.len() as u64,
    ));
    out.per_layer.push(metric(
        "faults.drive_crashed_ms_p50",
        ms(crashed_drives.p50()),
        "ms",
        crashed_drives.len() as u64,
    ));
    let trials = drives.len() as f64;
    let discards = (nocrash.len() + wedged_drives.len()) as f64;
    let trial_ns = (drives.iter().map(|d| d.0).sum::<u64>() + forks.sum()) as f64;
    out.per_layer.push(metric(
        "faults.nocrash_share",
        ratio(discards, trials),
        "ratio",
        drives.len() as u64,
    ));
    out.per_layer.push(metric(
        "faults.nocrash_time_share",
        ratio((nocrash.sum() + wedged_drives.sum()) as f64, trial_ns),
        "ratio",
        drives.len() as u64,
    ));
    out.per_layer.push(metric(
        "faults.us_per_memtest_op",
        ratio(
            nocrash.sum() as f64 / 1e3,
            (nocrash.len() as u64 * config(args.seed).watchdog_ops) as f64,
        ),
        "us",
        nocrash.len() as u64,
    ));
    trace::summarize(out, &spans, traced_ns, busy_ns);
    Some(spans)
}
