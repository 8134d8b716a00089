//! The deterministic executor: a grid of cells, each folding a stream of
//! attempts, run on worker threads with output independent of the thread
//! count.
//!
//! Every crash campaign and every independent-cell exhibit in the
//! workspace is this shape: cell `i`'s attempt `a` is a pure function of
//! `(i, a)`, and a cell's result is the in-order fold of its attempts up
//! to a stopping point (a crash quota, a trial count, or the attempt
//! cap). This module is the only place in the workspace's libraries
//! that spawns threads or catches a panic.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex};

/// Runs `f`, turning a panic into `Err` with the panic's text.
pub fn catch<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_owned())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "unknown panic".to_owned())
    })
}

/// How far ahead of its merge frontier a cell may run: attempts past the
/// (not yet known) stopping point are wasted, so the window trades idle
/// threads against waste.
fn window(threads: usize) -> u64 {
    threads.max(2) as u64 * 2
}

/// Runs the grid on `threads` workers and returns every cell's fold, in
/// `cells` order.
///
/// Cell `i` starts from `cells[i]` and folds the results of attempts
/// `0, 1, 2, …` of `trial(i, attempt)`, in that order, until `fold`
/// returns `true` (the cell is complete) or `attempts` results have been
/// folded. The folds are therefore identical at every `threads` as long
/// as `trial` is a pure function of its arguments.
///
/// * Workers claim attempts round-robin across unfinished cells, at most
///   `max(threads, 2) * 2` ahead of a cell's merge frontier. Results that
///   arrive out of order park until the frontier reaches them; results
///   past the stopping point are discarded unseen.
/// * A panicking attempt is folded as `Err(text)`, caught on the thread
///   that ran it.
/// * With `threads == 1` the same worker loop runs inline on the
///   caller's thread.
/// * `fold` runs under the executor's lock, so it should be cheap.
pub fn run<A, T>(
    threads: usize,
    attempts: u64,
    cells: Vec<A>,
    trial: impl Fn(usize, u64) -> T + Sync,
    fold: impl Fn(&mut A, Result<T, String>) -> bool + Sync,
) -> Vec<A>
where
    A: Send,
    T: Send,
{
    let threads = threads.max(1);
    let board = Mutex::new(Board::new(cells, attempts, window(threads)));
    let wake = Condvar::new();
    let worker = || {
        // Waiting workers must hear about every exit, a panicking fold's
        // included, or they would sleep forever.
        let _notify = NotifyOnDrop(&wake);
        loop {
            let task = {
                let mut b = board
                    .lock()
                    .expect("a fold panicked under the executor lock");
                loop {
                    if b.unfinished == 0 {
                        break None;
                    }
                    match b.claim() {
                        Some(t) => break Some(t),
                        // Every claimable attempt is in flight; sleep until
                        // a completion moves a frontier.
                        None => {
                            b = wake
                                .wait(b)
                                .expect("a fold panicked under the executor lock");
                        }
                    }
                }
            };
            let Some((cell, attempt)) = task else {
                return;
            };
            let result = catch(|| trial(cell, attempt));
            board
                .lock()
                .expect("a fold panicked under the executor lock")
                .complete(cell, attempt, result, &fold);
            wake.notify_all();
        }
    };
    if threads == 1 {
        worker();
    } else {
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(worker);
            }
        });
    }
    board
        .into_inner()
        .expect("a fold panicked under the executor lock")
        .cells
        .into_iter()
        .map(|c| c.acc)
        .collect()
}

/// Runs `f(0)`, …, `f(n - 1)` on `threads` workers as a grid of one
/// attempt per cell and returns the results in index order.
///
/// # Panics
///
/// Panics on the caller's thread, with the item's panic text, if any
/// `f(i)` panics.
pub fn map<T: Send>(threads: usize, n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let cells = (0..n).map(|_| None).collect();
    run(
        threads,
        1,
        cells,
        |i, _| f(i),
        |cell, r| {
            *cell = Some(r);
            true
        },
    )
    .into_iter()
    .enumerate()
    .map(|(i, r)| match r.expect("every item ran") {
        Ok(v) => v,
        Err(text) => panic!("item {i} panicked: {text}"),
    })
    .collect()
}

struct NotifyOnDrop<'a>(&'a Condvar);

impl Drop for NotifyOnDrop<'_> {
    fn drop(&mut self) {
        self.0.notify_all();
    }
}

/// One cell's bookkeeping.
struct Cell<A, T> {
    acc: A,
    /// Next attempt to hand to a worker.
    issued: u64,
    /// Next attempt to fold; every attempt below it is folded.
    merged: u64,
    /// Finished attempts waiting for the frontier.
    parked: BTreeMap<u64, Result<T, String>>,
    /// Stopped: nothing more is claimed or folded.
    done: bool,
}

/// The shared state: the cells plus a round-robin claim cursor.
struct Board<A, T> {
    cells: Vec<Cell<A, T>>,
    cursor: usize,
    unfinished: usize,
    attempts: u64,
    window: u64,
}

impl<A, T> Board<A, T> {
    fn new(cells: Vec<A>, attempts: u64, window: u64) -> Board<A, T> {
        let cells: Vec<Cell<A, T>> = cells
            .into_iter()
            .map(|acc| Cell {
                acc,
                issued: 0,
                merged: 0,
                parked: BTreeMap::new(),
                done: attempts == 0,
            })
            .collect();
        Board {
            unfinished: if attempts == 0 { 0 } else { cells.len() },
            cells,
            cursor: 0,
            attempts,
            window,
        }
    }

    /// The next attempt to run, taken from the first cell at or after the
    /// cursor that is unfinished, below the cap and inside its window.
    fn claim(&mut self) -> Option<(usize, u64)> {
        let n = self.cells.len();
        for off in 0..n {
            let i = (self.cursor + off) % n;
            let c = &mut self.cells[i];
            if c.done || c.issued >= self.attempts || c.issued - c.merged >= self.window {
                continue;
            }
            let attempt = c.issued;
            c.issued += 1;
            self.cursor = (i + 1) % n;
            return Some((i, attempt));
        }
        None
    }

    /// Parks a finished attempt and folds from the frontier while the
    /// next result is present, stopping the cell when `fold` says so or
    /// the cap is reached.
    fn complete(
        &mut self,
        i: usize,
        attempt: u64,
        result: Result<T, String>,
        fold: &impl Fn(&mut A, Result<T, String>) -> bool,
    ) {
        let c = &mut self.cells[i];
        if c.done {
            return;
        }
        c.parked.insert(attempt, result);
        while let Some(result) = c.parked.remove(&c.merged) {
            c.merged += 1;
            if fold(&mut c.acc, result) || c.merged >= self.attempts {
                c.done = true;
                c.parked.clear();
                self.unfinished -= 1;
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proptest_lite::{check, Config, Gen};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::mpsc;
    use std::time::Duration;

    /// One cell's inputs: each attempt's value, which attempts panic, and
    /// how much busy work each does (to shuffle completion order).
    #[derive(Debug, Clone)]
    struct Script {
        values: Vec<u8>,
        panics: Vec<bool>,
        spins: Vec<u32>,
    }

    /// What a cell folded: every result in fold order.
    type Folded = Vec<Result<u8, String>>;

    fn value(scripts: &[Script], i: usize, a: u64) -> u8 {
        let s = &scripts[i];
        for k in 0..s.spins[a as usize] {
            std::hint::black_box(k);
        }
        assert!(!s.panics[a as usize], "injected panic at {i}/{a}");
        s.values[a as usize]
    }

    /// The stopping rule: stop once `quota` results are hits (an odd
    /// value, or a panic); `None` never stops before the cap.
    fn stop(folded: &Folded, quota: Option<usize>) -> bool {
        quota.is_some_and(|q| {
            folded
                .iter()
                .filter(|r| r.as_ref().map_or(true, |v| v % 2 == 1))
                .count()
                >= q
        })
    }

    /// The serial reference: each cell's attempts in order, stopping as
    /// the rule says.
    fn oracle(scripts: &[Script], attempts: u64, quota: Option<usize>) -> Vec<Folded> {
        (0..scripts.len())
            .map(|i| {
                let mut folded = Folded::new();
                for a in 0..attempts {
                    let r = if scripts[i].panics[a as usize] {
                        Err(format!("injected panic at {i}/{a}"))
                    } else {
                        Ok(scripts[i].values[a as usize])
                    };
                    folded.push(r);
                    if stop(&folded, quota) {
                        break;
                    }
                }
                folded
            })
            .collect()
    }

    #[test]
    fn executor_matches_the_serial_loop() {
        check(
            "par::run == serial fold",
            Config::with_cases(48),
            |g: &mut Gen| {
                let ncells = g.len_between(0, 12);
                let attempts = g.in_range(0..=10u64);
                let quota = if g.bool() {
                    None
                } else {
                    Some(g.in_range(1..=4u64) as usize)
                };
                let scripts: Vec<Script> = (0..ncells)
                    .map(|_| Script {
                        values: (0..attempts).map(|_| g.u8()).collect(),
                        panics: (0..attempts).map(|_| g.in_range(0..10u32) == 0).collect(),
                        spins: (0..attempts).map(|_| g.in_range(0..20_000u32)).collect(),
                    })
                    .collect();
                let want = oracle(&scripts, attempts, quota);
                for threads in [1, 2, 3, 8] {
                    // Folded-so-far per cell, read by trials to check the
                    // window: attempt `a` may only start once `a - window`
                    // attempts have been folded.
                    let frontier: Vec<AtomicU64> = (0..ncells).map(|_| AtomicU64::new(0)).collect();
                    let outside = AtomicU64::new(0);
                    let got = run(
                        threads,
                        attempts,
                        (0..ncells).map(|i| (i, Folded::new())).collect(),
                        |i, a| {
                            if a >= frontier[i].load(Ordering::SeqCst) + window(threads) {
                                outside.fetch_add(1, Ordering::SeqCst);
                            }
                            value(&scripts, i, a)
                        },
                        |(i, folded), r| {
                            folded.push(r);
                            frontier[*i].store(folded.len() as u64, Ordering::SeqCst);
                            stop(folded, quota)
                        },
                    );
                    let got: Vec<Folded> = got.into_iter().map(|(_, f)| f).collect();
                    crate::pt_assert_eq!(got, want);
                    crate::pt_assert_eq!(outside.load(Ordering::SeqCst), 0);
                }
                Ok(())
            },
        );
    }

    #[test]
    fn speculation_stops_at_the_window() {
        // Attempt 0 holds the frontier at 0 until attempt `window` has
        // started or the other workers have had a generous chance to
        // start it: the window forbids it while attempt 0 is unfolded.
        for threads in [2, 3, 8] {
            let w = window(threads);
            let (tx, rx) = mpsc::channel::<u64>();
            let tx = Mutex::new(tx);
            let rx = Mutex::new(rx);
            let started_past = AtomicU64::new(0);
            run(
                threads,
                w + 4,
                vec![()],
                |_, a| {
                    if a == 0 {
                        let rx = rx.lock().expect("only attempt 0 receives");
                        // Attempts 1..w must all start; attempt w must not.
                        for _ in 1..w {
                            rx.recv().expect("attempts 1..w start while 0 runs");
                        }
                        if let Ok(a) = rx.recv_timeout(Duration::from_millis(200)) {
                            started_past.store(a, Ordering::SeqCst);
                        }
                    } else {
                        // Later sends queue unread; only attempt 0 listens.
                        let _ = tx.lock().expect("no panics while sending").send(a);
                    }
                },
                |_, r| {
                    r.expect("no trial panics");
                    false
                },
            );
            assert_eq!(started_past.load(Ordering::SeqCst), 0, "threads {threads}");
        }
    }

    #[test]
    fn catch_returns_the_panic_text() {
        assert_eq!(catch(|| 3), Ok(3));
        assert_eq!(
            catch(|| -> u8 { panic!("literal") }),
            Err("literal".to_owned())
        );
        assert_eq!(
            catch(|| -> u8 { panic!("formatted {}", 7) }),
            Err("formatted 7".to_owned())
        );
    }

    #[test]
    fn map_keeps_index_order_and_reraises_panics() {
        assert_eq!(map(3, 5, |i| i * i), vec![0, 1, 4, 9, 16]);
        let err = catch(|| map(2, 3, |i| assert_ne!(i, 1, "bad item"))).expect_err("must panic");
        assert!(err.starts_with("item 1 panicked: "), "{err}");
        assert!(err.contains("bad item"), "{err}");
    }

    #[test]
    fn one_thread_runs_inline() {
        let caller = std::thread::current().id();
        let got = run(
            1,
            2,
            vec![0u32; 3],
            |_, _| std::thread::current().id(),
            |n, id| {
                assert_eq!(id.expect("no panics"), caller);
                *n += 1;
                false
            },
        );
        assert_eq!(got, vec![2, 2, 2]);
    }

    #[test]
    fn zero_attempts_or_cells_run_nothing() {
        let none: Vec<u8> = run(
            4,
            0,
            vec![7u8; 3],
            |_, _| unreachable!(),
            |_, _: Result<(), String>| true,
        );
        assert_eq!(none, vec![7, 7, 7]);
        let empty: Vec<u8> = run(
            4,
            5,
            Vec::new(),
            |_, _| unreachable!(),
            |_, _: Result<(), String>| true,
        );
        assert!(empty.is_empty());
    }
}
