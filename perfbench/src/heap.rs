//! Heap accounting for `mean_heap_mb`: a counting global allocator and a
//! sampler thread that averages the live heap over the run.
//!
//! A time average over the whole run, rather than a high-water mark: the
//! campaign's peak is set by the one or two heaviest trials a seed happens
//! to draw (its peak RSS after one campaign ranged 24–31 MB over ten
//! seeds), while its average over hundreds of trials moves with what every
//! trial costs. Live bytes, rather than RSS, leave allocator fragmentation
//! out.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Bytes allocated minus bytes freed, as published by every thread.
static LIVE: AtomicIsize = AtomicIsize::new(0);

/// Change a thread accumulates before publishing it. An atomic add on every
/// allocation would put a locked instruction on the simulator's allocation
/// path, and bounce one cache line between the campaign's worker threads;
/// batching makes it one add per 8 KB of churn, and leaves the sampled
/// value at most 8 KB per thread off.
const BATCH: isize = 8 << 10;

thread_local! {
    static PENDING: Cell<isize> = const { Cell::new(0) };
}

fn note(delta: isize) {
    let local = PENDING.try_with(|p| {
        let v = p.get() + delta;
        if v.abs() >= BATCH {
            LIVE.fetch_add(v, Ordering::Relaxed);
            p.set(0);
        } else {
            p.set(v);
        }
    });
    if local.is_err() {
        // The thread is being torn down: publish directly.
        LIVE.fetch_add(delta, Ordering::Relaxed);
    }
}

/// The system allocator, counting live bytes.
struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the counter is
// only bookkeeping.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            note(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            note(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        note(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            note(new_size as isize - layout.size() as isize);
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Bytes currently live on the heap, to within [`BATCH`] per thread.
pub fn live_bytes() -> usize {
    LIVE.load(Ordering::Relaxed).max(0) as usize
}

/// Time between samples.
const PERIOD: Duration = Duration::from_millis(5);

/// A thread sampling [`live_bytes`] every [`PERIOD`] until finished.
pub struct Sampler {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<(f64, u64)>,
}

impl Sampler {
    /// Starts sampling.
    pub fn start() -> Sampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let (mut sum, mut n) = (0.0, 0u64);
            loop {
                sum += live_bytes() as f64;
                n += 1;
                if flag.load(Ordering::Relaxed) {
                    return (sum, n);
                }
                std::thread::sleep(PERIOD);
            }
        });
        Sampler { stop, thread }
    }

    /// Stops sampling; returns the mean live heap in MB and the sample
    /// count.
    pub fn finish(self) -> (f64, u64) {
        self.stop.store(true, Ordering::Relaxed);
        let (sum, n) = self.thread.join().expect("heap sampler panicked");
        (sum / n as f64 / (1024.0 * 1024.0), n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_bytes_follow_allocations() {
        // Other tests allocate concurrently, so look for a change at least
        // as large as this allocation rather than an exact one.
        let before = live_bytes();
        let big = vec![1u8; 64 << 20];
        assert!(live_bytes() >= before + (64 << 20) - (16 << 20));
        drop(big);
        assert!(live_bytes() < before + (16 << 20));
    }

    #[test]
    fn sampler_averages_at_least_one_sample() {
        let (mb, n) = Sampler::start().finish();
        assert!(n >= 1);
        assert!(mb > 0.0);
    }
}
