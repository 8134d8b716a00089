//! `fileio`: one closed-loop client on `Rio (protected)`, with warm
//! reboots and a durability check.
//!
//! A seeded 50/50 `pwrite`/`pread` mix over the `write_bench` shapes —
//! 100 B inside a page, a 512 B sector, 4 KB spanning two pages, a whole
//! 8 KB page — against 64 files of 128 KB: 8 MB, twice the 4 MB UBC, so
//! the cache overflows and writes back. Every [`REBOOT_EVERY`] ops the
//! client crashes the kernel, warm-reboots from the memory image, and
//! byte-compares the whole file set against the benchmark's model of
//! acknowledged writes. Reads and writes share the data path (sector CRC
//! cache, protection windows, copy-on-write pages, interpreted `bcopy`),
//! so a write-path gain that costs reads shows here.

use crate::report::{metric, ratio, Outcome};
use crate::server::{add_delta, counters, unit_costs};
use crate::stats::Dist;
use crate::trace::{self, Layer, Span, Tracer};
use crate::Args;
use rio_core::RioMode;
use rio_det::{derive_seed, DetRng};
use rio_kernel::{BootReport, Fd, Kernel, KernelConfig, PanicReason, Policy};
use std::collections::BTreeMap;
use std::time::Instant;

const FILES: usize = 64;
const PAGE: usize = 8192;
const FILE_PAGES: usize = 16;
const FILE_BYTES: usize = FILE_PAGES * PAGE;
/// Ops between warm reboots.
const REBOOT_EVERY: u64 = 2000;
/// Set-up rounds (mkfs, mount, populate 8 MB) timed for `setup_s`.
const SETUP_ROUNDS: usize = 5;

/// The `write_bench` shapes: span name suffix and length.
const SHAPES: [(&str, usize); 4] = [
    ("100b", 100),
    ("512b", 512),
    ("4k_span", 4096),
    ("8k", 8192),
];
const PWRITE_SPANS: [&str; 4] = ["pwrite_100b", "pwrite_512b", "pwrite_4k_span", "pwrite_8k"];
const PREAD_SPANS: [&str; 4] = ["pread_100b", "pread_512b", "pread_4k_span", "pread_8k"];

fn config() -> KernelConfig {
    KernelConfig::small(Policy::rio(RioMode::Protected))
}

fn path(f: usize) -> String {
    format!("/f{f:02}")
}

/// One generated operation.
struct Op {
    write: bool,
    shape: usize,
    file: usize,
    offset: usize,
}

impl Op {
    fn draw(rng: &mut DetRng) -> Op {
        let write = rng.gen_bool(0.5);
        let shape = rng.gen_range(0..SHAPES.len() as u64) as usize;
        let file = rng.gen_range(0..FILES as u64) as usize;
        let len = SHAPES[shape].1;
        let offset = match shape {
            // Inside one page.
            0 => {
                rng.gen_range(0..FILE_PAGES as u64) as usize * PAGE
                    + rng.gen_range(0..=(PAGE - len) as u64) as usize
            }
            // One sector.
            1 => rng.gen_range(0..(FILE_BYTES / 512) as u64) as usize * 512,
            // Starts in the second half of a page, ends in the next.
            2 => {
                rng.gen_range(0..(FILE_PAGES - 1) as u64) as usize * PAGE
                    + rng.gen_range(9..16u64) as usize * 512
            }
            // One whole page.
            _ => rng.gen_range(0..FILE_PAGES as u64) as usize * PAGE,
        };
        Op {
            write,
            shape,
            file,
            offset,
        }
    }
}

/// A booted kernel, the open file set, and the model of its contents.
type Machine = (Kernel, Vec<Fd>, Vec<Vec<u8>>);

/// A machine with the file set created, populated and synced.
fn setup(seed: u64) -> Result<Machine, String> {
    let mut k = Kernel::mkfs_and_mount(&config()).map_err(|e| format!("mkfs: {e:?}"))?;
    let mut rng = DetRng::seed_from_u64(derive_seed(seed, 1));
    let mut fds = Vec::new();
    let mut model = Vec::new();
    for f in 0..FILES {
        let fd = k.create(&path(f)).map_err(|e| format!("create: {e:?}"))?;
        let mut data = vec![0u8; FILE_BYTES];
        rng.fill_bytes(&mut data);
        k.pwrite(fd, 0, &data)
            .map_err(|e| format!("populate: {e:?}"))?;
        fds.push(fd);
        model.push(data);
    }
    k.sync().map_err(|e| format!("sync: {e:?}"))?;
    Ok((k, fds, model))
}

/// Failed ops by kind.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Failures {
    syscall: u64,
    mismatch: u64,
    lost: u64,
}

impl Failures {
    fn total(self) -> u64 {
        self.syscall + self.mismatch + self.lost
    }
}

/// Everything one phase measured.
#[derive(Default)]
struct Phase {
    ops: u64,
    /// Host ns per op, by (write?, shape).
    lat: BTreeMap<(bool, usize), Vec<u64>>,
    warm_boot_ns: Vec<u64>,
    /// Wall ns of the op loop and reboots, verification excluded.
    timed_ns: u64,
    /// Wall ns of the verification reads.
    verify_ns: u64,
    /// Failed ops: syscall errors, reads that mismatch the model, and
    /// acknowledged writes lost across a reboot.
    failed: Failures,
    /// Counter deltas over all kernel lifetimes.
    counts: BTreeMap<String, u64>,
    /// Counter deltas over the first lifetime (ops up to the first reboot).
    first_counts: BTreeMap<String, u64>,
    /// Boot reports, in order.
    boots: Vec<BootReport>,
    /// Simulated outputs, for the traced-versus-untraced identity check.
    sim: Vec<u64>,
}

/// The client: a kernel, its open files, and the model.
struct Client {
    k: Option<Kernel>,
    fds: Vec<Fd>,
    model: Vec<Vec<u8>>,
    /// Acknowledged writes since the last reboot: (file, offset, len).
    acked: Vec<(usize, usize, usize)>,
    t: Option<Tracer>,
    born: BTreeMap<String, u64>,
}

impl Client {
    fn kernel(&mut self) -> &mut Kernel {
        self.k.as_mut().expect("kernel is up between reboots")
    }

    /// Runs `f` inside a span when tracing.
    fn call<R>(
        &mut self,
        name: &'static str,
        layer: Layer,
        id: u64,
        f: impl FnOnce(&mut Kernel) -> R,
    ) -> R {
        let k = self.k.as_mut().expect("kernel is up between reboots");
        match self.t.as_mut() {
            Some(t) => t.span(name, layer, id, || f(k)),
            None => f(k),
        }
    }

    fn enter(&mut self, name: &'static str, id: u64) -> Option<usize> {
        self.t.as_mut().map(|t| t.enter(name, Layer::Bench, id))
    }

    fn exit(&mut self, s: Option<usize>) {
        if let (Some(t), Some(s)) = (self.t.as_mut(), s) {
            t.exit(s);
        }
    }

    fn op(&mut self, id: u64, op: &Op, buf: &mut [u8], rng: &mut DetRng, p: &mut Phase) {
        let len = SHAPES[op.shape].1;
        let fd = self.fds[op.file];
        let span = self.enter("op", id);
        if op.write {
            rng.fill_bytes(&mut buf[..len]);
            let data = &buf[..len];
            let t = Instant::now();
            let r = self.call(PWRITE_SPANS[op.shape], Layer::Kernel, id, |k| {
                k.pwrite(fd, op.offset as u64, data)
            });
            p.lat
                .entry((true, op.shape))
                .or_default()
                .push(t.elapsed().as_nanos() as u64);
            match r {
                Ok(n) if n == len => {
                    self.model[op.file][op.offset..op.offset + len].copy_from_slice(data);
                    self.acked.push((op.file, op.offset, len));
                }
                Ok(_) => p.failed.mismatch += 1,
                Err(_) => p.failed.syscall += 1,
            }
        } else {
            let t = Instant::now();
            let r = self.call(PREAD_SPANS[op.shape], Layer::Kernel, id, |k| {
                k.pread(fd, op.offset as u64, len)
            });
            p.lat
                .entry((false, op.shape))
                .or_default()
                .push(t.elapsed().as_nanos() as u64);
            match r {
                Ok(got) if got == self.model[op.file][op.offset..op.offset + len] => {}
                Ok(_) => p.failed.mismatch += 1,
                Err(_) => p.failed.syscall += 1,
            }
        }
        self.exit(span);
    }

    /// Crash, warm reboot, reopen; returns the reboot's boot report.
    fn reboot(&mut self, id: u64, p: &mut Phase) -> Result<(), String> {
        let span = self.enter("reboot", id);
        let now = counters(self.kernel());
        add_delta(&mut p.counts, &self.born, &now);
        if p.boots.is_empty() {
            p.first_counts = p.counts.clone();
        }
        self.call("crash_now", Layer::Kernel, id, |k| {
            k.crash_now(PanicReason::Consistency("benchmark warm reboot".into()))
        });
        let k = self.k.take().expect("kernel is up between reboots");
        let (image, disk) = match self.t.as_mut() {
            Some(t) => t.span("into_crash_artifacts", Layer::Kernel, id, || {
                k.into_crash_artifacts()
            }),
            None => k.into_crash_artifacts(),
        };
        let cfg = config();
        let t0 = Instant::now();
        let booted = match self.t.as_mut() {
            Some(t) => t.span("warm_boot", Layer::Kernel, id, || {
                Kernel::warm_boot(&cfg, &image, disk)
            }),
            None => Kernel::warm_boot(&cfg, &image, disk),
        };
        p.warm_boot_ns.push(t0.elapsed().as_nanos() as u64);
        let (k, report) = booted.map_err(|e| format!("warm boot: {e:?}"))?;
        p.boots.push(report);
        self.k = Some(k);
        for f in 0..FILES {
            self.fds[f] = self
                .call("open", Layer::Kernel, id, |k| k.open(&path(f)))
                .map_err(|e| format!("reopen {}: {e:?}", path(f)))?;
        }
        self.born = counters(self.kernel());
        self.exit(span);
        Ok(())
    }

    /// Byte-compares the whole file set against the model. Each
    /// acknowledged write since the last reboot that is not fully readable
    /// is a failed op; damage outside those writes counts once per file.
    /// The model then takes what survived, so a loss is counted once.
    fn verify(&mut self, id: u64, p: &mut Phase) -> Result<(), String> {
        let span = self.enter("verify", id);
        for f in 0..FILES {
            let fd = self.fds[f];
            let got = self
                .call("pread_file", Layer::Kernel, id, |k| {
                    k.pread(fd, 0, FILE_BYTES)
                })
                .map_err(|e| format!("verify read {}: {e:?}", path(f)))?;
            let want = &self.model[f];
            if got == *want {
                continue;
            }
            let bad = |o: usize| got.get(o) != Some(&want[o]);
            let lost = self
                .acked
                .iter()
                .filter(|&&(file, off, len)| file == f && (off..off + len).any(bad))
                .count() as u64;
            p.failed.lost += lost.max(1);
            // Count each loss once: what survived is the new expectation.
            let mut survived = got;
            survived.resize(FILE_BYTES, 0);
            self.model[f] = survived;
        }
        self.acked.clear();
        self.exit(span);
        Ok(())
    }
}

/// Runs `ops` operations (or until the time is up when `None`) from a
/// fresh set-up, rebooting every [`REBOOT_EVERY`] ops and once at the end.
fn phase(
    args: &Args,
    ops: Option<u64>,
    tracer: Option<Tracer>,
    out: &mut Outcome,
) -> (Phase, Option<Tracer>) {
    let mut p = Phase::default();
    let (k, fds, model) = match setup(args.seed) {
        Ok(s) => s,
        Err(e) => {
            out.problem(e);
            return (p, tracer);
        }
    };
    let born = counters(&k);
    let mut c = Client {
        k: Some(k),
        fds,
        model,
        acked: Vec::new(),
        t: tracer,
        born,
    };
    let mut rng = DetRng::seed_from_u64(derive_seed(args.seed, 2));
    let mut buf = vec![0u8; PAGE];
    let root = c.enter("fileio", 0);
    let start = Instant::now();
    let mut verify_ns = 0u64;
    let mut result = Ok(());
    let mut op_id = 0u64;
    loop {
        let done = match ops {
            Some(n) => op_id == n,
            None => start.elapsed() >= args.seconds,
        };
        let reboot_due = op_id > 0 && (op_id.is_multiple_of(REBOOT_EVERY) || done);
        if reboot_due {
            let id = op_id / REBOOT_EVERY;
            result = c.reboot(id, &mut p).and_then(|()| {
                let t = Instant::now();
                let r = c.verify(id, &mut p);
                verify_ns += t.elapsed().as_nanos() as u64;
                r
            });
            if result.is_err() {
                break;
            }
        }
        if done {
            break;
        }
        let op = Op::draw(&mut rng);
        c.op(op_id, &op, &mut buf, &mut rng, &mut p);
        op_id += 1;
    }
    p.timed_ns = start.elapsed().as_nanos() as u64 - verify_ns;
    p.verify_ns = verify_ns;
    if let Err(e) = result {
        out.problem(e);
        // Leave the tracer balanced: close whatever the error left open.
        return (p, None);
    }
    c.exit(root);
    p.ops = op_id;
    p.sim = p.counts.values().copied().collect();
    for b in &p.boots {
        p.sim.push(b.pages_replayed);
        if let Some(w) = &b.warm {
            p.sim
                .extend([w.slots_scanned, w.file_pages_recovered, w.total_dropped()]);
        }
    }
    (p, c.t)
}

/// Runs the workload; returns the spans of the traced phase, if any.
pub fn run(args: &Args, out: &mut Outcome) -> Option<Vec<Span>> {
    let mut setup_ns = Vec::new();
    for _ in 0..SETUP_ROUNDS {
        let t = Instant::now();
        if let Err(e) = setup(args.seed) {
            out.problem(e);
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

    let (p, _) = phase(args, None, None, out);
    out.attempted = p.ops;
    out.failed = p.failed.total();
    if out.failed > 0 {
        out.problem(format!("failed ops: {:?}", p.failed));
    }
    let ops_per_s = p.ops as f64 / (p.timed_ns as f64 / 1e9);
    out.end_to_end
        .push(metric("work_per_s", ops_per_s, "1/s", p.ops));
    out.per_layer
        .push(metric("ops_per_s", ops_per_s, "1/s", p.ops));
    let class = |write: bool| -> Dist {
        Dist::new(
            p.lat
                .iter()
                .filter(|(k, _)| k.0 == write)
                .flat_map(|(_, v)| v.iter().copied())
                .collect(),
        )
    };
    let us = |ns: u64| ns as f64 / 1e3;
    for (name, d) in [("pwrite", class(true)), ("pread", class(false))] {
        let n = d.len() as u64;
        out.per_layer
            .push(metric(format!("{name}_us_p50"), us(d.p50()), "us", n));
        out.per_layer
            .push(metric(format!("{name}_us_p99"), us(d.pct(0.99)), "us", n));
        if let Some((label, v)) = d.tail() {
            out.notes.push(format!(
                "{name} tail {label} = {:.3} us over {n} samples",
                us(v)
            ));
        }
    }
    let boots = Dist::new(p.warm_boot_ns.clone());
    out.per_layer.push(metric(
        "warm_boot_ms_p50",
        boots.p50() as f64 / 1e6,
        "ms",
        boots.len() as u64,
    ));
    out.notes.push(format!(
        "{} ops, {} warm reboots, every acknowledged write re-read after each",
        p.ops,
        p.boots.len()
    ));
    layer_metrics(out, &p);

    if !args.trace {
        return None;
    }
    let origin = Instant::now();
    let (traced, tracer) = phase(args, Some(p.ops), Some(Tracer::new(origin, 0)), out);
    let spans = tracer?.into_spans();
    let same = traced.ops == p.ops && traced.sim == p.sim && traced.failed == p.failed;
    if !same {
        out.problem("traced phase produced different simulated outputs");
    }
    out.notes.push(format!(
        "traced phase: sim outputs identical to untraced: {same}"
    ));
    for (spans_of, name) in [(PWRITE_SPANS, "pwrite"), (PREAD_SPANS, "pread")] {
        for (span, (shape, _)) in spans_of.iter().zip(SHAPES) {
            let d = Dist::new(trace::durations(&spans, span));
            out.per_layer.push(metric(
                format!("kernel.{name}_{shape}_us_p50"),
                us(d.p50()),
                "us",
                d.len() as u64,
            ));
        }
    }
    let reboots = Dist::new(trace::durations(&spans, "warm_boot"));
    let pages: u64 = traced
        .boots
        .iter()
        .map(|b| b.warm.as_ref().map_or(0, |w| w.file_pages_recovered))
        .sum();
    out.per_layer.push(metric(
        "core.warm_boot_us_per_page",
        ratio(reboots.sum() as f64 / 1e3, pages as f64),
        "us",
        reboots.len() as u64,
    ));
    trace::summarize(out, &spans, traced.timed_ns, p.timed_ns);
    Some(spans)
}

/// Cache, warm-reboot and memory counts. Counts come from the first
/// kernel lifetime and the first reboot (a pure function of the seed);
/// host-time ratios cover the whole phase.
fn layer_metrics(out: &mut Outcome, p: &Phase) {
    let first = |key: &str| p.first_counts.get(key).copied().unwrap_or(0);
    let first_ops = p.ops.min(REBOOT_EVERY) as f64;
    out.per_layer.push(metric(
        "kernel.overflow_writebacks",
        first("kernel.overflow_writebacks") as f64,
        "count",
        1,
    ));
    out.per_layer.push(metric(
        "disk.reads_per_op",
        ratio(first("disk.reads") as f64, first_ops),
        "ratio",
        first_ops as u64,
    ));
    let recomputed = first("kernel.crc_sectors_recomputed") as f64;
    out.per_layer.push(metric(
        "kernel.crc_recompute_share",
        ratio(
            recomputed,
            recomputed + first("kernel.crc_sectors_cached") as f64,
        ),
        "ratio",
        1,
    ));
    if let Some(b) = p.boots.first() {
        let w = b.warm.as_ref();
        out.per_layer.push(metric(
            "core.slots_scanned",
            w.map_or(0, |w| w.slots_scanned) as f64,
            "count",
            1,
        ));
        out.per_layer.push(metric(
            "core.file_pages_recovered",
            w.map_or(0, |w| w.file_pages_recovered) as f64,
            "count",
            1,
        ));
        out.per_layer.push(metric(
            "kernel.pages_replayed",
            b.pages_replayed as f64,
            "count",
            1,
        ));
    }
    // The counts cover the ops and the verification reads.
    let host_ns = p.lat.values().flatten().sum::<u64>() + p.verify_ns;
    unit_costs(out, host_ns as f64, p.ops, |key| {
        (first(key), p.counts.get(key).copied().unwrap_or(0) as f64)
    });
}
