//! Host-time spans recorded around the benchmark's calls into each layer.
//!
//! The program itself carries no tracing: every span here brackets one
//! call the benchmark makes into a crate's public functions, and is
//! attributed to that crate. Spans are kept in memory per thread, merged
//! when the traced phase ends, and written out as JSON lines at exit.
//!
//! A span's *self time* is its duration minus the part of it covered by
//! its children. Because spans on one thread nest strictly, the self times
//! of every span sum exactly to the summed durations of the root spans —
//! [`check_self_times`] verifies that on every traced run.

use crate::report::{metric, ratio, Outcome};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The crate a span's callee belongs to (`Bench` is the benchmark's own
/// work: input generation, model checks, scheduling).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// The benchmark itself.
    Bench,
    /// `rio-faults`: trial engine.
    Faults,
    /// `rio-workloads`: memTest and the open-loop server.
    Workloads,
    /// `rio-kernel`: syscalls, caches, scheduler, fsck and reboot.
    Kernel,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 4] = [Layer::Bench, Layer::Faults, Layer::Workloads, Layer::Kernel];

    /// Short name used in metric names.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Bench => "bench",
            Layer::Faults => "faults",
            Layer::Workloads => "workloads",
            Layer::Kernel => "kernel",
        }
    }
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// What was called.
    pub name: &'static str,
    /// Crate of the callee.
    pub layer: Layer,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span in the same set, if any.
    pub parent: Option<usize>,
    /// Identifier shared by the spans of one trial, request or op.
    pub id: u64,
    /// Recording thread (0-based).
    pub thread: usize,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans for one thread.
pub struct Tracer {
    origin: Instant,
    thread: usize,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer whose timestamps count from `origin`.
    pub fn new(origin: Instant, thread: usize) -> Tracer {
        Tracer {
            origin,
            thread,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one; returns its handle.
    pub fn enter(&mut self, name: &'static str, layer: Layer, id: u64) -> usize {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            layer,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            id,
            thread: self.thread,
        });
        self.open.push(idx);
        idx
    }

    /// Closes the innermost open span, which must be `idx`.
    pub fn exit(&mut self, idx: usize) {
        assert_eq!(
            self.open.pop(),
            Some(idx),
            "spans must close innermost first"
        );
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Duration of the closed span `idx`, ns.
    pub fn dur_ns(&self, idx: usize) -> u64 {
        self.spans[idx].dur_ns()
    }

    /// Runs `f` inside a leaf span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        layer: Layer,
        id: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let s = self.enter(name, layer, id);
        let r = f();
        self.exit(s);
        r
    }

    /// The recorded spans (all must be closed).
    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "span left open");
        self.spans
    }
}

/// Concatenates per-thread span lists, rebasing parent indexes.
pub fn merge(per_thread: Vec<Vec<Span>>) -> Vec<Span> {
    let mut all = Vec::new();
    for spans in per_thread {
        let base = all.len();
        all.extend(spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    all
}

/// Self time of every span: its duration minus its children's durations.
///
/// # Panics
///
/// Panics if children overrun their parent — spans that do not nest.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .map(|(s, c)| {
            s.dur_ns()
                .checked_sub(c)
                .unwrap_or_else(|| panic!("children of span {} overrun it", s.name))
        })
        .collect()
}

/// Summed self time per layer, ns.
pub fn layer_self_ns(spans: &[Span]) -> BTreeMap<Layer, u64> {
    let mut per = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        *per.entry(s.layer).or_insert(0) += own;
    }
    per
}

/// Summed duration of the root spans, ns: the traced wall time of every
/// thread that recorded.
pub fn root_ns(spans: &[Span]) -> u64 {
    spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::dur_ns)
        .sum()
}

/// Checks that the self times sum to the traced wall time.
pub fn check_self_times(spans: &[Span]) -> Result<(), String> {
    let total: u64 = self_times(spans).iter().sum();
    let roots = root_ns(spans);
    if total == roots {
        Ok(())
    } else {
        Err(format!(
            "span self times sum to {total} ns, root spans to {roots} ns"
        ))
    }
}

/// Durations of the spans named `name`, ns.
pub fn durations(spans: &[Span], name: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_ns)
        .collect()
}

/// Renders spans as JSON lines.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"span\":{i},\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"id\":{},\"thread\":{}}}",
            s.name,
            s.layer.name(),
            s.start_ns,
            s.end_ns,
            s.id,
            s.thread
        );
    }
    out
}

/// Per-layer self-time shares, span count and tracing overhead — shared
/// by every workload's traced phase.
pub fn summarize(out: &mut Outcome, spans: &[Span], traced_ns: u64, untraced_ns: u64) {
    if let Err(e) = check_self_times(spans) {
        out.problem(e);
    }
    let roots = root_ns(spans) as f64;
    let per = layer_self_ns(spans);
    for layer in Layer::ALL {
        let own = per.get(&layer).copied().unwrap_or(0);
        out.per_layer.push(metric(
            format!("self.{}_share", layer.name()),
            100.0 * ratio(own as f64, roots),
            "%",
            spans.iter().filter(|s| s.layer == layer).count() as u64,
        ));
        out.notes.push(format!(
            "self time {:<10} {:>12.3} ms",
            layer.name(),
            own as f64 / 1e6
        ));
    }
    out.notes.push(format!(
        "span self times sum to {:.3} ms = root spans; traced phase {:.3} s against untraced {:.3} s",
        roots / 1e6,
        traced_ns as f64 / 1e9,
        untraced_ns as f64 / 1e9
    ));
    out.per_layer.push(metric(
        "trace.overhead_pct",
        100.0 * (traced_ns as f64 - untraced_ns as f64) / untraced_ns as f64,
        "%",
        1,
    ));
    out.per_layer
        .push(metric("trace.spans", spans.len() as f64, "count", 1));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &'static str,
        layer: Layer,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
    ) -> Span {
        Span {
            name,
            layer,
            start_ns,
            end_ns,
            parent,
            id: 0,
            thread: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_and_sums_to_the_roots() {
        let spans = vec![
            span("root", Layer::Bench, 0, 100, None),
            span("a", Layer::Kernel, 10, 40, Some(0)),
            span("a.inner", Layer::Kernel, 15, 25, Some(1)),
            span("b", Layer::Faults, 50, 90, Some(0)),
            span("root2", Layer::Bench, 200, 230, None),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40, 30]);
        assert_eq!(root_ns(&spans), 130);
        check_self_times(&spans).expect("nested spans balance");
        let per = layer_self_ns(&spans);
        assert_eq!(per[&Layer::Bench], 60);
        assert_eq!(per[&Layer::Kernel], 30);
        assert_eq!(per[&Layer::Faults], 40);
    }

    #[test]
    #[should_panic(expected = "overrun")]
    fn overlapping_children_are_rejected() {
        let spans = vec![
            span("root", Layer::Bench, 0, 10, None),
            span("a", Layer::Kernel, 0, 8, Some(0)),
            span("b", Layer::Kernel, 2, 9, Some(0)),
        ];
        self_times(&spans);
    }

    #[test]
    fn recorded_spans_nest_and_balance() {
        let origin = Instant::now();
        let mut t = Tracer::new(origin, 0);
        let root = t.enter("root", Layer::Bench, 1);
        for i in 0..100u64 {
            let op = t.enter("op", Layer::Bench, i);
            let x = t.span("leaf", Layer::Kernel, i, || (0..1000u64).sum::<u64>());
            assert_eq!(x, 499_500);
            t.exit(op);
        }
        t.exit(root);
        let mut other = Tracer::new(origin, 1);
        other.span("solo", Layer::Faults, 7, || ());
        let spans = merge(vec![t.into_spans(), other.into_spans()]);
        assert_eq!(spans.len(), 202);
        assert_eq!(spans[201].parent, None);
        assert_eq!(spans[2].parent, Some(1));
        check_self_times(&spans).expect("recorded spans balance");
        assert_eq!(durations(&spans, "leaf").len(), 100);
        assert_eq!(to_jsonl(&spans).lines().count(), 202);
    }
}
