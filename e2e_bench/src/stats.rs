//! Small numeric helpers, the outcome digest and the heap-peak
//! allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering};

use adrias_orchestrator::engine::RunReport;
use adrias_workloads::{MemoryMode, WorkloadClass};

/// Median of `v` (mean of the two middle values for even lengths);
/// 0 for an empty slice.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Repetitions per kept one: [`fastest`] keeps the fastest 5%.
const KEEP_ONE_IN: usize = 20;
/// The fewest repetitions [`fastest`] keeps (fewer only if fewer ran).
const KEEP_AT_LEAST: usize = 3;

/// The fastest 5% of `runs` (at least three) by the host time `wall`.
///
/// On a shared host, other tenants flip the machine between a calm and
/// a slow state every few seconds; in the slow state memory-bound code
/// runs 30–70% slower, and the state can hold for most of a run.
/// Interference only ever slows a repetition, so the fastest few are
/// what the code costs in the calm state. Their figures stay steady
/// where the median of all repetitions, or of the faster half, jumps
/// with the share of the run that happened to be slow.
pub fn fastest<T>(runs: &[T], wall: impl Fn(&T) -> f64) -> Vec<&T> {
    let mut sorted: Vec<&T> = runs.iter().collect();
    sorted.sort_by(|a, b| wall(a).total_cmp(&wall(b)));
    sorted.truncate((runs.len() / KEEP_ONE_IN).max(KEEP_AT_LEAST));
    sorted
}

/// Median of the [`fastest`] values of `v`.
pub fn fastest_median(v: &[f64]) -> f64 {
    let mut kept: Vec<f64> = fastest(v, |x| *x).into_iter().copied().collect();
    median(&mut kept)
}

/// Nearest-rank percentile `p` (0–100] of an ascending slice.
pub fn percentile(sorted: &[u32], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    f64::from(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// FNV-1a digest of every simulated outcome bit of a run: per outcome
/// its name, class, placement, lane origin, times, slowdown and LC tail
/// latencies, then the run totals. Host speed never enters it, so a
/// speed-only change must leave it unchanged.
pub fn outcome_digest(report: &RunReport) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for o in &report.outcomes {
        eat(o.name.as_bytes());
        eat(&[
            match o.class {
                WorkloadClass::BestEffort => 0,
                WorkloadClass::LatencyCritical => 1,
                WorkloadClass::Interference => 2,
            },
            u8::from(o.mode == MemoryMode::Remote),
            u8::from(o.policy_decided),
        ]);
        for x in [o.arrived_s, o.finished_s, o.runtime_s] {
            eat(&x.to_bits().to_le_bytes());
        }
        for x in [
            Some(o.mean_slowdown),
            o.p99_ms,
            o.p999_ms,
            o.lc_total_time_s,
        ] {
            eat(&x.map_or(u32::MAX, f32::to_bits).to_le_bytes());
        }
    }
    eat(&(report.unfinished as u64).to_le_bytes());
    eat(&(report.samples.len() as u64).to_le_bytes());
    eat(&report.end_time_s.to_bits().to_le_bytes());
    eat(&report.link_bytes.to_bits().to_le_bytes());
    h
}

static COUNTING: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

/// The system allocator plus a net-allocation counter and its
/// high-water mark, so a run's heap peak is measured apart from
/// training. Counting is on only inside [`count_heap`]; outside it the
/// allocator adds one relaxed load per call, so timed runs stay
/// uncounted. The counters are statistics that publish no other data,
/// hence `Relaxed`.
pub struct PeakAlloc;

fn grew(by: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        let by = by as isize;
        PEAK.fetch_max(
            LIVE.fetch_add(by, Ordering::Relaxed) + by,
            Ordering::Relaxed,
        );
    }
}

fn shrank(by: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        LIVE.fetch_sub(by as isize, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters only
// observe sizes.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; `ptr` came from this allocator,
        // which is `System` underneath.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded unchanged; `ptr` came from `System`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            shrank(layout.size());
            grew(new_size);
        }
        p
    }
}

/// Runs `f` with counting on and returns its result plus the peak of
/// the bytes it held allocated at once, above the level it started at.
pub fn count_heap<R>(f: impl FnOnce() -> R) -> (R, usize) {
    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let out = f();
    COUNTING.store(false, Ordering::Relaxed);
    (out, PEAK.load(Ordering::Relaxed) as usize)
}
