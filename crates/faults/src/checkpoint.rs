//! The steady-state checkpoint/fork engine.
//!
//! A Table 1 trial spends most of its setup cost reaching the **steady
//! point**: mkfs, mount, memTest setup, and the warmup workload. With the
//! workload/injection seed split ([`crate::driver`]), that whole prefix is
//! identical for every trial in a `(campaign seed, system)` cell — so it
//! is captured once as a [`TrialCheckpoint`] and *forked* per trial.
//! Copy-on-write memory pages and disk blocks make the fork O(metadata):
//! microseconds against the tens of milliseconds a scratch boot costs
//! (the ratio is recorded in `BENCH_campaign.json`).
//!
//! Equivalence with the scratch path is structural: both paths produce a
//! [`crate::driver::PreparedTrial`] — one via [`PreparedTrial::prepare`],
//! one via a clone of the same — and hand it to the same
//! [`crate::driver::drive`]. The proptest suite and the Table 1
//! equivalence test (`tests/checkpoint_equivalence.rs`, which renders the
//! table through the engine and through a scratch-boot reference) gate
//! that the two are byte-identical.

use crate::campaign::SystemKind;
use crate::driver::PreparedTrial;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// A frozen steady point for one campaign cell.
#[derive(Debug, Clone)]
pub struct TrialCheckpoint {
    prepared: PreparedTrial,
}

impl TrialCheckpoint {
    /// Boots and warms up a fresh machine, then freezes it. Pure function
    /// of its arguments — capturing twice gives interchangeable
    /// checkpoints.
    pub fn capture(system: SystemKind, workload_seed: u64, warmup_ops: u64) -> TrialCheckpoint {
        TrialCheckpoint {
            prepared: PreparedTrial::prepare(system, workload_seed, warmup_ops),
        }
    }

    /// Whether the captured boot/warmup failed (every fork is then a
    /// wedged trial, exactly as every scratch attempt would be).
    pub fn wedged(&self) -> bool {
        self.prepared.wedged()
    }

    /// A copy-on-write fork of the steady point — the per-trial cost of
    /// the checkpoint path.
    pub fn fork(&self) -> PreparedTrial {
        self.prepared.fork()
    }
}

/// A concurrency-safe memo: capture once per key, share forever. The map
/// lock only finds or inserts a key's slot; the capture itself runs under
/// that key's own [`OnceLock`], so workers needing different keys capture
/// concurrently while workers needing the same key wait for its one
/// capture.
pub(crate) struct Memo<K, V> {
    map: Mutex<BTreeMap<K, Arc<OnceLock<Arc<V>>>>>,
}

impl<K: Ord, V> Memo<K, V> {
    pub(crate) fn new() -> Memo<K, V> {
        Memo {
            map: Mutex::new(BTreeMap::new()),
        }
    }

    pub(crate) fn get_or_insert_with(&self, key: K, f: impl FnOnce() -> V) -> Arc<V> {
        // Poison-tolerant: the lock guards a single find-or-insert, which
        // cannot leave the map half-updated.
        let slot = self
            .map
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(key)
            .or_default()
            .clone();
        slot.get_or_init(|| Arc::new(f())).clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn same_key_is_captured_exactly_once() {
        let memo = Memo::new();
        let captures = AtomicU64::new(0);
        let got = rio_det::par::run(
            4,
            2,
            vec![None; 8],
            |_, _| {
                memo.get_or_insert_with(7u8, || {
                    captures.fetch_add(1, Ordering::SeqCst);
                    "steady point"
                })
            },
            |seen: &mut Option<Arc<&str>>, v| {
                *seen = Some(v.expect("capture does not panic"));
                false
            },
        );
        assert_eq!(captures.load(Ordering::SeqCst), 1);
        let first = got[0].as_ref().expect("every cell ran");
        assert!(got.iter().all(|v| Arc::ptr_eq(v.as_ref().expect("ran"), first)));
    }

    #[test]
    fn different_keys_capture_concurrently() {
        // Each key's capture announces itself, then waits to hear from the
        // other: a store-wide lock held across captures would make the
        // second capture wait for the first, which never finishes.
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..2).map(|_| mpsc::channel::<()>()).unzip();
        let txs: Vec<Mutex<mpsc::Sender<()>>> = txs.into_iter().map(Mutex::new).collect();
        let rxs: Vec<Mutex<mpsc::Receiver<()>>> = rxs.into_iter().map(Mutex::new).collect();
        let memo = Memo::new();
        let met = rio_det::par::run(
            2,
            1,
            vec![false; 2],
            |i, _| {
                *memo.get_or_insert_with(i, || {
                    let _ = txs[1 - i].lock().expect("one sender per key").send(());
                    rxs[i]
                        .lock()
                        .expect("one receiver per key")
                        .recv_timeout(Duration::from_secs(20))
                        .is_ok()
                })
            },
            |met, r| {
                *met = r.expect("capture does not panic");
                true
            },
        );
        assert_eq!(met, vec![true, true], "captures of different keys serialized");
    }
}
