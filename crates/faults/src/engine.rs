//! The one campaign engine behind Table 1, the scale campaign and the
//! recovery campaign.
//!
//! A campaign is a grid of cells; each cell forks trials from a
//! checkpoint captured once per [`Campaign::key`] and folds their
//! outcomes in attempt order until its quota or its attempt cap.
//! [`run`] puts that on the deterministic executor ([`rio_det::par`])
//! with one checkpoint memo ([`crate::checkpoint::Memo`]) and one panic
//! firewall, so every campaign is byte-identical at any thread count and
//! a panicking trial is a recorded outcome, not a dead campaign.

use crate::checkpoint::Memo;
use rio_det::par;
use rio_obs::{EventCategory, Payload};

/// One kind of crash campaign: its grid, its checkpoints, its trial and
/// its per-cell fold.
pub(crate) trait Campaign: Sync {
    /// A cell's grid coordinate.
    type Coord: Sync;
    /// What cells share a checkpoint by.
    type Key: Ord + Send;
    /// A frozen steady point, forked by every trial of the cells that
    /// share its key.
    type Checkpoint: Send + Sync;
    /// One trial's outcome.
    type Outcome: Send;
    /// One cell's folded result.
    type Cell: Send;

    /// The cells, in report order.
    fn grid(&self) -> Vec<Self::Coord>;
    /// Attempts per cell before the cap stops it.
    fn max_attempts(&self) -> u64;
    /// The checkpoint key of a cell.
    fn key(&self, at: &Self::Coord) -> Self::Key;
    /// Captures a cell's checkpoint; a pure function of `key(at)`.
    fn capture(&self, at: &Self::Coord) -> Self::Checkpoint;
    /// Runs one trial from the cell's checkpoint.
    fn trial(&self, checkpoint: &Self::Checkpoint, at: &Self::Coord, attempt: u64)
        -> Self::Outcome;
    /// The outcome recorded for a trial whose harness panicked with
    /// `text`.
    fn panicked(&self, at: &Self::Coord, text: String) -> Self::Outcome;
    /// Verdict provenance for trace sessions: 0 = survived (discarded),
    /// 1 = wedged, 2 = examined clean, 3 = examined with damage.
    fn verdict(&self, outcome: &Self::Outcome) -> u64;
    /// An empty cell.
    fn cell(&self, at: &Self::Coord) -> Self::Cell;
    /// Folds one outcome into its cell; `true` once the cell's quota is
    /// met.
    fn absorb(&self, cell: &mut Self::Cell, outcome: Self::Outcome) -> bool;
}

/// Runs campaign `c` on `threads` workers: each cell's checkpoint is
/// captured once, on first use, and every trial forks it.
pub(crate) fn run<C: Campaign>(c: &C, threads: usize) -> Vec<C::Cell> {
    let grid = c.grid();
    let memo = Memo::new();
    par::run(
        threads,
        c.max_attempts(),
        grid.iter().map(|at| c.cell(at)).collect(),
        |i, attempt| {
            let at = &grid[i];
            firewall(
                c,
                at,
                par::catch(|| {
                    let checkpoint = memo.get_or_insert_with(c.key(at), || c.capture(at));
                    c.trial(&checkpoint, at, attempt)
                }),
            )
        },
        |cell, outcome| c.absorb(cell, outcome.expect("the firewall contains trial panics")),
    )
}

/// Records a panicked trial as the campaign's panic outcome, keeping its
/// text in the trial thread's trace session, and emits the verdict
/// provenance of every trial.
fn firewall<C: Campaign>(c: &C, at: &C::Coord, result: Result<C::Outcome, String>) -> C::Outcome {
    let outcome = result.unwrap_or_else(|msg| {
        let text = format!("harness panic: {msg}");
        rio_obs::note(EventCategory::TrialPanic, text.clone());
        c.panicked(at, text)
    });
    rio_obs::emit(
        EventCategory::TrialVerdict,
        Payload::Count {
            value: c.verdict(&outcome),
        },
    );
    outcome
}

/// The reference the engine is tested against: every cell serially, every
/// trial from a checkpoint captured from scratch.
#[cfg(test)]
pub(crate) fn scratch<C: Campaign>(c: &C) -> Vec<C::Cell> {
    c.grid()
        .iter()
        .map(|at| {
            let mut cell = c.cell(at);
            for attempt in 0..c.max_attempts() {
                if c.absorb(&mut cell, c.trial(&c.capture(at), at, attempt)) {
                    break;
                }
            }
            cell
        })
        .collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Campaign `inner` with one trial, attempt 0 at `target`, panicking
    /// inside a trace session; the session is collected by `panicked`,
    /// which the firewall calls on the same thread right after its note.
    struct PanicAt<'a, C: Campaign> {
        inner: &'a C,
        target: C::Coord,
        notes: Mutex<Vec<String>>,
    }

    impl<C: Campaign> Campaign for PanicAt<'_, C>
    where
        C::Coord: PartialEq,
    {
        type Coord = C::Coord;
        type Key = C::Key;
        type Checkpoint = C::Checkpoint;
        type Outcome = C::Outcome;
        type Cell = C::Cell;

        fn grid(&self) -> Vec<C::Coord> {
            self.inner.grid()
        }
        fn max_attempts(&self) -> u64 {
            self.inner.max_attempts()
        }
        fn key(&self, at: &C::Coord) -> C::Key {
            self.inner.key(at)
        }
        fn capture(&self, at: &C::Coord) -> C::Checkpoint {
            self.inner.capture(at)
        }
        fn trial(&self, cp: &C::Checkpoint, at: &C::Coord, attempt: u64) -> C::Outcome {
            if *at == self.target && attempt == 0 {
                rio_obs::start(rio_obs::DEFAULT_CAPACITY);
                panic!("injected harness fault");
            }
            self.inner.trial(cp, at, attempt)
        }
        fn panicked(&self, at: &C::Coord, text: String) -> C::Outcome {
            let trace = rio_obs::finish().expect("the panicking trial opened a session");
            self.notes
                .lock()
                .expect("no panics while recording")
                .extend(
                    trace
                        .notes
                        .into_iter()
                        .filter(|n| n.category == EventCategory::TrialPanic)
                        .map(|n| n.text),
                );
            self.inner.panicked(at, text)
        }
        fn verdict(&self, outcome: &C::Outcome) -> u64 {
            self.inner.verdict(outcome)
        }
        fn cell(&self, at: &C::Coord) -> C::Cell {
            self.inner.cell(at)
        }
        fn absorb(&self, cell: &mut C::Cell, outcome: C::Outcome) -> bool {
            self.inner.absorb(cell, outcome)
        }
    }

    /// Runs `c` with a panic injected at grid cell `target` (at 1 and 4
    /// threads) and checks that the cell shows the panic (`shows`), that
    /// the trace session saw the firewall's note, and that every other
    /// cell equals the clean run.
    pub(crate) fn panic_is_contained<C>(c: &C, target: usize, shows: impl Fn(&C::Cell) -> bool)
    where
        C: Campaign,
        C::Coord: PartialEq,
        C::Cell: PartialEq + std::fmt::Debug,
    {
        let clean = run(c, 2);
        for threads in [1, 4] {
            let wrapped = PanicAt {
                inner: c,
                target: c.grid().swap_remove(target),
                notes: Mutex::new(Vec::new()),
            };
            let got = run(&wrapped, threads);
            assert!(shows(&got[target]), "{threads} threads: {:?}", got[target]);
            assert_eq!(
                wrapped
                    .notes
                    .into_inner()
                    .expect("no panics while recording"),
                vec!["harness panic: injected harness fault".to_owned()],
                "{threads} threads"
            );
            for (i, (a, b)) in got.iter().zip(&clean).enumerate() {
                if i != target {
                    assert_eq!(a, b, "{threads} threads: cell {i} changed");
                }
            }
        }
    }
}
