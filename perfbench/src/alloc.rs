//! Counting global allocator.
//!
//! Installed in the benchmark binary (driver and server children
//! alike) but inert until [`enable`] is called, which the traced runs
//! and `sim_metro`'s timed runs do: otherwise a run pays one relaxed
//! atomic load per allocation and nothing else.
//!
//! [`arm`] also makes every so many allocations a point where the
//! host's speed is probed ([`crate::speed`]). The simulator allocates
//! the same number of times in every run of a seed, so the points fall
//! at the same places of its work in every run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use crate::speed::{self, Mark};

static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Most speed marks one armed stretch records.
const MAX_MARKS: usize = 1024;
/// Allocations between speed marks; 0 while not armed.
static STRIDE: AtomicU64 = AtomicU64::new(0);
/// The allocation count when marking was armed.
static ARMED_AT: AtomicU64 = AtomicU64::new(0);
static MARK_AT: [AtomicU64; MAX_MARKS] = [const { AtomicU64::new(0) }; MAX_MARKS];
static MARK_PROBE: [AtomicU64; MAX_MARKS] = [const { AtomicU64::new(0) }; MAX_MARKS];

/// Forwards to the system allocator, counting allocation calls
/// (`alloc`, `alloc_zeroed` and `realloc`) while enabled.
pub struct Counting;

#[inline]
fn note() {
    if ENABLED.load(Ordering::Relaxed) {
        let n = ALLOCS.fetch_add(1, Ordering::Relaxed) + 1;
        let stride = STRIDE.load(Ordering::Relaxed);
        if stride != 0 {
            let since = n - ARMED_AT.load(Ordering::Relaxed);
            if since.is_multiple_of(stride) {
                record_mark((since / stride - 1) as usize);
            }
        }
    }
}

/// Probes the host's speed as mark `i`. Allocates nothing.
#[cold]
fn record_mark(i: usize) {
    if i < MAX_MARKS {
        let at = speed::now_ns();
        if let Some(p) = speed::probe() {
            MARK_PROBE[i].store(p, Ordering::Relaxed);
            MARK_AT[i].store(at, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards unchanged to `System`, which upholds
// the `GlobalAlloc` contract; counting touches only atomics and never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

/// Starts counting allocations in this process.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Stops counting allocations in this process.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Starts counting and probes the host's speed at every `stride`-th
/// allocation from now on (at most 1024 times) until [`disarm`].
/// Meant for one thread doing the measured work: the probe runs only
/// on the thread that armed.
pub fn arm(stride: u64) {
    speed::init();
    for at in &MARK_AT {
        at.store(0, Ordering::Relaxed);
    }
    ARMED_AT.store(count(), Ordering::Relaxed);
    STRIDE.store(stride.max(1), Ordering::Relaxed);
    enable();
}

/// Stops marking and counting; returns the speed marks taken since
/// [`arm`], in order.
pub fn disarm() -> Vec<Mark> {
    disable();
    STRIDE.store(0, Ordering::Relaxed);
    MARK_AT
        .iter()
        .zip(&MARK_PROBE)
        .map(|(at, p)| (at.load(Ordering::Relaxed), p.load(Ordering::Relaxed)))
        .take_while(|&(at, _)| at != 0)
        .map(|(at, p)| Mark::single(at, p))
        .collect()
}

/// Allocation calls counted so far.
pub fn count() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}
