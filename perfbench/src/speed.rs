//! Host-speed normalisation for `sim_metro`'s run time.
//!
//! On a shared host the core this benchmark runs on is at times shared
//! with another guest's work. The simulator then runs up to about 3.5×
//! slower, in phases lasting from seconds to minutes, with no steal
//! time shown and no change in clock speed. No estimator over the runs
//! of one invocation removes a phase that lasts the whole invocation,
//! so the host's speed is measured while the simulator runs and divided
//! out.
//!
//! The speed [`probe`] is a fixed piece of the benchmark's own code, so
//! no change to the program moves it: lookups and updates at random
//! keys of a `HashMap` of 1M entries, then random updates of a 16 MB
//! array, allocating nothing. Its working set, like the simulator's,
//! is larger than a core's L2 cache and lives in the shared L3, so
//! contention for either slows both. It runs at evenly spaced points
//! of a run (every so many allocations, see [`crate::alloc::arm`]) and
//! just before and after it. [`normalise`] scales each stretch of the
//! run between two points by how much slower the probes around it ran
//! than [`NOMINAL_PROBE_NS`].
//!
//! The probe was chosen over trial runs on 10 seeds × 35 s, which
//! recorded several candidate probes at every point. The quartile
//! distance over the median of the invocations' median run times was
//! 0.26 unnormalised (fastest run), 0.11 with a cache-resident sort as
//! the probe, 0.13 with an L2-sized heap, map and array, and 0.06 with
//! this one. Five other seeds with the L2-sized probe gave 0.11 and ten
//! more 0.20, which is why it was replaced. With this probe, two later
//! sets of ten seeds spread 0.17 and 0.15 for the fastest normalised
//! run, while the median normalised run spread 0.34 in the first, so
//! `sim_metro` reports the fastest. A third set spread 0.07 but sat 38 %
//! above the other two: the probe does not track every host phase.

use std::cell::RefCell;
use std::collections::HashMap;
use std::time::Instant;

/// The probe's time when the simulator ran fastest in the trial runs
/// (2.0 GHz Xeon KVM guest): a normalised run time is the run's time
/// at that speed.
pub const NOMINAL_PROBE_NS: f64 = 100_000.0;

/// Marks beyond each end of a stretch whose probes, with those at its
/// two ends, set its speed by their median, so that a single probe hit
/// by an interrupt does not.
const WINDOW: usize = 2;

/// Map lookups and array updates per probe.
const LOOKUPS: usize = 150;
const UPDATES: usize = 1_000;
/// Entries of the probe's map and of its array.
const MAP_LEN: u32 = 1 << 20;
const ARRAY_LEN: usize = 2 << 20;

/// The probe's working state, built once per thread by [`init`].
struct ProbeState {
    table: HashMap<u32, u64>,
    array: Vec<u64>,
    x: u64,
}

thread_local! {
    static STATE: RefCell<Option<ProbeState>> = const { RefCell::new(None) };
}

/// Builds this thread's probe state (allocates; call before arming).
pub fn init() {
    STATE.with(|state| {
        let mut state = state.borrow_mut();
        if state.is_none() {
            *state = Some(ProbeState {
                table: (0..MAP_LEN).map(|k| (k, u64::from(k))).collect(),
                array: vec![1; ARRAY_LEN],
                x: 0x2545_F491_4F6C_DD1D,
            });
        }
    });
}

/// Nanoseconds since the first call in this process. Reads the clock
/// without allocating, so the allocation hook may call it.
pub fn now_ns() -> u64 {
    static ORIGIN: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Runs the speed probe once and returns its time in nanoseconds, or
/// `None` on a thread without [`init`]. Allocates nothing: the map
/// only changes values.
pub fn probe() -> Option<u64> {
    let started = now_ns();
    STATE.with(|state| {
        let mut state = state.borrow_mut();
        let s = state.as_mut()?;
        let mut acc = 0u64;
        for _ in 0..LOOKUPS {
            s.x ^= s.x << 13;
            s.x ^= s.x >> 7;
            s.x ^= s.x << 17;
            if let Some(v) = s.table.get_mut(&((s.x >> 44) as u32)) {
                *v = v.wrapping_add(acc);
                acc ^= *v;
            }
        }
        let mask = s.array.len() - 1;
        let (mut a, mut b) = (s.x | 1, acc | 1);
        for _ in 0..UPDATES {
            a = a.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(1);
            b = b.wrapping_mul(0x2545_F491_4F6C_DD1D).wrapping_add(1);
            let (i, j) = ((a >> 40) as usize & mask, (b >> 40) as usize & mask);
            s.array[i] = s.array[i].wrapping_add(s.array[j]);
        }
        Some(())
    })?;
    Some(now_ns() - started)
}

/// A point in a run where the host's speed was probed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mark {
    /// When probing started.
    pub at_ns: u64,
    /// Time spent probing, left out of the run's time.
    pub busy_ns: u64,
    /// The probe's time: the host's speed here.
    pub probe_ns: u64,
}

impl Mark {
    /// A mark of one probe started at `at_ns` that took `probe_ns`.
    pub fn single(at_ns: u64, probe_ns: u64) -> Mark {
        Mark {
            at_ns,
            busy_ns: probe_ns,
            probe_ns,
        }
    }
}

/// The run's time at nominal speed, in seconds.
///
/// `start` and `end` are probes taken just before and just after the
/// run (their `at_ns` bound it); `inside` are the marks taken during
/// it, in order. Each stretch from one mark to the next is timed
/// without the probe it starts with and scaled by
/// `NOMINAL_PROBE_NS / p`, where `p` is the median of the probes at its
/// two ends and at up to [`WINDOW`] marks beyond each.
pub fn normalise(start: Mark, inside: &[Mark], end: Mark) -> f64 {
    let mut marks = Vec::with_capacity(inside.len() + 2);
    marks.push(start);
    marks.extend_from_slice(inside);
    marks.push(end);
    let mut total = 0.0;
    for i in 0..marks.len() - 1 {
        let (from, to) = (marks[i], marks[i + 1]);
        let work_ns = to.at_ns.saturating_sub(from.at_ns + from.busy_ns) as f64;
        let lo = i.saturating_sub(WINDOW);
        let hi = (i + 2 + WINDOW).min(marks.len());
        let mut near: Vec<u64> = marks[lo..hi].iter().map(|m| m.probe_ns).collect();
        near.sort_unstable();
        let p = near[near.len() / 2].max(1) as f64;
        total += work_ns * NOMINAL_PROBE_NS / p;
    }
    total * 1e-9
}

/// A probe taken now, as a [`Mark`]: the median of three, so one
/// disturbed probe does not set the speed at a run's edge.
pub fn mark() -> Mark {
    init();
    let at_ns = now_ns();
    let once = || probe().expect("probe state built");
    let mut p = [once(), once(), once()];
    p.sort_unstable();
    Mark {
        at_ns,
        busy_ns: now_ns() - at_ns,
        probe_ns: p[1],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(at_ns: u64, probe_ns: u64) -> Mark {
        Mark::single(at_ns, probe_ns)
    }

    #[test]
    fn nominal_speed_leaves_work_time_unchanged() {
        let p = NOMINAL_PROBE_NS as u64;
        // 1 ms of work after each probe.
        let marks: Vec<Mark> = (1..10).map(|i| m(i * (1_000_000 + p), p)).collect();
        let end = m(10 * (1_000_000 + p), p);
        let t = normalise(m(0, p), &marks, end);
        assert!((t - 0.010).abs() < 1e-12, "{t}");
    }

    #[test]
    fn a_slower_host_is_scaled_back() {
        let p = 2 * NOMINAL_PROBE_NS as u64;
        // Twice as slow: 2 ms of wall time per 1 ms of nominal work.
        let marks: Vec<Mark> = (1..10).map(|i| m(i * (2_000_000 + p), p)).collect();
        let end = m(10 * (2_000_000 + p), p);
        let t = normalise(m(0, p), &marks, end);
        assert!((t - 0.010).abs() < 1e-12, "{t}");
    }

    #[test]
    fn one_disturbed_probe_does_not_set_the_speed() {
        let p = NOMINAL_PROBE_NS as u64;
        let mut marks: Vec<Mark> = (1..10).map(|i| m(i * (1_000_000 + p), p)).collect();
        marks[4] = m(marks[4].at_ns, 50 * p);
        // Shift later marks by the longer probe, as a real run would.
        for mk in &mut marks[5..] {
            mk.at_ns += 49 * p;
        }
        let end = m(10 * (1_000_000 + p) + 49 * p, p);
        let t = normalise(m(0, p), &marks, end);
        assert!((t - 0.010).abs() < 1e-12, "{t}");
    }

    #[test]
    fn edge_marks_leave_out_all_their_probing() {
        let p = NOMINAL_PROBE_NS as u64;
        let start = Mark {
            at_ns: 0,
            busy_ns: 3 * p,
            probe_ns: p,
        };
        let end = Mark {
            at_ns: 3 * p + 1_000_000,
            busy_ns: 3 * p,
            probe_ns: p,
        };
        let t = normalise(start, &[], end);
        assert!((t - 0.001).abs() < 1e-12, "{t}");
    }
}
