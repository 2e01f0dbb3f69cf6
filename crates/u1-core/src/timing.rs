//! Lightweight phase accounting for the parallel paths.
//!
//! The multi-core burn-down (DESIGN.md §13) needs to answer "where did the
//! wall-clock go?" without perturbing the thing being measured. This module
//! provides:
//!
//! * [`Phase`] — the closed set of phases the driver, the parallel logfile
//!   reader and the chunked analytics engine account time against,
//! * [`PhaseTimers`] — a bank of cache-line-padded atomic nanosecond
//!   counters, shared by reference across worker threads (relaxed ordering:
//!   counters are only read after the workers have been joined),
//! * [`PhaseNanos`] — a plain serializable snapshot of the bank, embedded in
//!   `DriverReport` and in both committed bench JSONs,
//! * [`Measured`] — a transparent wrapper that *excludes* wall-clock
//!   measurements from a report's `PartialEq`, so determinism asserts
//!   (`report@1worker == report@4workers`, golden literal reports) keep
//!   working while the measurements ride along,
//! * [`CachePadded`] — a 64-byte-aligned wrapper for hot atomics so striped
//!   counters touched by different workers do not false-share a line.
//!
//! Everything here measures with [`std::time::Instant`] (monotonic); no
//! wall-clock (`SystemTime`) or OS entropy is involved, so the nondet-flow
//! lint (U1L008) stays quiet and — more importantly — nothing measured here
//! can feed back into simulation state.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use serde::Serialize;

/// Phases the parallel paths account time against.
///
/// The driver uses the first four; the parallel logfile reader uses
/// [`Phase::Parse`] and [`Phase::Sort`]; the chunked analytics engine uses
/// [`Phase::Fold`] and [`Phase::Merge`]; the wire tier's reactor thread
/// (DESIGN.md §15) splits its loop across the four `Net*` phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Worker threads advancing shard simulations (`run_until`).
    WorkerRun,
    /// Worker threads parked at a day barrier waiting for stragglers plus
    /// the coordinator section.
    BarrierPark,
    /// Sealing the content-index epoch at a day boundary (coordinator).
    Seal,
    /// The coordinator section itself (maintenance, GC, attack waves).
    Coordinator,
    /// Parsing logfile bytes into trace records, including the day
    /// reader's per-range sort of its own records on the parse worker.
    Parse,
    /// Putting parse output into its final order: the day reader merging
    /// its sorted runs into canonical order, or `read_all_parallel`'s
    /// timestamp sort.
    Sort,
    /// Feeding records through fold partials (chunk bodies).
    Fold,
    /// Merging fold partials back together (tree reduction).
    Merge,
    /// Reactor: accepting connections and running admission control.
    NetAccept,
    /// Reactor: nonblocking socket reads and frame decoding.
    NetRead,
    /// Reactor: dispatching decoded requests into backend handlers.
    NetServe,
    /// Reactor: draining per-connection send queues to sockets.
    NetWrite,
}

/// Number of distinct [`Phase`] values (size of a [`PhaseTimers`] bank).
pub const PHASE_COUNT: usize = 12;

impl Phase {
    #[inline]
    fn index(self) -> usize {
        match self {
            Phase::WorkerRun => 0,
            Phase::BarrierPark => 1,
            Phase::Seal => 2,
            Phase::Coordinator => 3,
            Phase::Parse => 4,
            Phase::Sort => 5,
            Phase::Fold => 6,
            Phase::Merge => 7,
            Phase::NetAccept => 8,
            Phase::NetRead => 9,
            Phase::NetServe => 10,
            Phase::NetWrite => 11,
        }
    }
}

/// Pads the wrapped value out to its own cache line (64 bytes on every
/// target we build for) so adjacent hot atomics written by different
/// threads do not false-share.
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct CachePadded<T>(pub T);

impl<T> CachePadded<T> {
    /// Wraps `value` with cache-line alignment.
    pub const fn new(value: T) -> Self {
        CachePadded(value)
    }
}

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> std::ops::DerefMut for CachePadded<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

/// A bank of per-phase nanosecond counters, one cache line each.
///
/// Shared by reference (`&PhaseTimers`) across scoped worker threads.
/// All operations are `Relaxed`: the bank is an accumulator, not a
/// synchronization primitive — readers snapshot it only after the writers
/// have been joined (or accept a racy-but-monotonic in-flight read).
#[derive(Debug, Default)]
pub struct PhaseTimers {
    banks: [CachePadded<AtomicU64>; PHASE_COUNT],
}

impl PhaseTimers {
    /// A fresh bank with every counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `nanos` to `phase`'s counter.
    #[inline]
    pub fn add(&self, phase: Phase, nanos: u64) {
        self.banks[phase.index()]
            .0
            .fetch_add(nanos, Ordering::Relaxed);
    }

    /// Runs `f`, charging its elapsed time to `phase`.
    #[inline]
    pub fn time<R>(&self, phase: Phase, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.add(phase, saturating_nanos(start));
        out
    }

    /// Current value of one phase counter.
    pub fn get(&self, phase: Phase) -> u64 {
        self.banks[phase.index()].0.load(Ordering::Relaxed)
    }

    /// Snapshots the whole bank into a serializable [`PhaseNanos`].
    pub fn snapshot(&self) -> PhaseNanos {
        PhaseNanos {
            worker_run_nanos: self.get(Phase::WorkerRun),
            barrier_park_nanos: self.get(Phase::BarrierPark),
            day_flush_nanos: 0,
            seal_nanos: self.get(Phase::Seal),
            coordinator_nanos: self.get(Phase::Coordinator),
            parse_nanos: self.get(Phase::Parse),
            sort_nanos: self.get(Phase::Sort),
            fold_nanos: self.get(Phase::Fold),
            merge_nanos: self.get(Phase::Merge),
            net_accept_nanos: self.get(Phase::NetAccept),
            net_read_nanos: self.get(Phase::NetRead),
            net_serve_nanos: self.get(Phase::NetServe),
            net_write_nanos: self.get(Phase::NetWrite),
        }
    }
}

/// Elapsed nanoseconds since `start`, clamped into `u64`.
///
/// `u64::MAX` nanoseconds is ~584 years, so the clamp is theoretical; it
/// exists so the truncating-cast lint (U1L002) has nothing to flag.
#[inline]
pub fn saturating_nanos(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A serializable snapshot of a [`PhaseTimers`] bank.
///
/// Counters are cumulative across the whole run (summed over all workers,
/// so a phase that ran on 4 threads for 1s of wall time reports ~4s of
/// thread time — divide by the thread count for per-core occupancy).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct PhaseNanos {
    /// Thread-nanos spent advancing shard simulations.
    pub worker_run_nanos: u64,
    /// Thread-nanos workers spent parked at day barriers.
    pub barrier_park_nanos: u64,
    /// Always 0: workers emit straight into the trace sink, so there is no
    /// day buffer left to drain. Kept so readers of the snapshot's schema
    /// (bench JSON, the `driver.day_flush_s` benchmark metric) keep it.
    pub day_flush_nanos: u64,
    /// Nanos sealing content-index epochs (coordinator thread).
    pub seal_nanos: u64,
    /// Nanos in the coordinator section (maintenance/GC/attacks).
    pub coordinator_nanos: u64,
    /// Thread-nanos parsing logfile bytes into records.
    pub parse_nanos: u64,
    /// Nanos in the final merge sort of parsed records.
    pub sort_nanos: u64,
    /// Thread-nanos feeding records through fold partials.
    pub fold_nanos: u64,
    /// Thread-nanos merging fold partials (tree reduction).
    pub merge_nanos: u64,
    /// Reactor nanos accepting connections (admission control included).
    pub net_accept_nanos: u64,
    /// Reactor nanos in nonblocking reads and frame decoding.
    pub net_read_nanos: u64,
    /// Reactor nanos dispatching requests into backend handlers.
    pub net_serve_nanos: u64,
    /// Reactor nanos draining send queues to sockets.
    pub net_write_nanos: u64,
}

impl PhaseNanos {
    /// True when every counter is zero (timing was not collected).
    pub fn is_zero(&self) -> bool {
        *self == PhaseNanos::default()
    }
}

/// A wall-clock measurement riding along an otherwise deterministic value.
///
/// Two runs with the same seed produce identical reports but *different*
/// timings; wrapping the timing in `Measured` makes every `Measured` value
/// compare equal, so report-equality asserts (golden literals, worker-count
/// invariance) ignore it while serialization still carries it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Measured<T>(pub T);

// Transparent: a `Measured<T>` serializes exactly as its inner `T` (the
// vendored serde stub cannot derive for generic types).
impl<T: Serialize> Serialize for Measured<T> {
    fn to_value(&self) -> serde::Value {
        self.0.to_value()
    }
}

impl<T> PartialEq for Measured<T> {
    #[inline]
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}

impl<T> std::ops::Deref for Measured<T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> std::ops::DerefMut for Measured<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timers_accumulate_per_phase() {
        let t = PhaseTimers::new();
        t.add(Phase::Parse, 5);
        t.add(Phase::Parse, 7);
        t.add(Phase::Merge, 11);
        assert_eq!(t.get(Phase::Parse), 12);
        assert_eq!(t.get(Phase::Merge), 11);
        assert_eq!(t.get(Phase::Fold), 0);
        let snap = t.snapshot();
        assert_eq!(snap.parse_nanos, 12);
        assert_eq!(snap.merge_nanos, 11);
        assert!(!snap.is_zero());
        assert!(PhaseNanos::default().is_zero());
    }

    #[test]
    fn time_charges_the_closure_to_the_phase() {
        let t = PhaseTimers::new();
        let out = t.time(Phase::Fold, || 41 + 1);
        assert_eq!(out, 42);
        // Elapsed time is nonnegative by construction; the counter may be 0
        // on a coarse clock, so only assert the other phases stayed zero.
        assert_eq!(t.get(Phase::Merge), 0);
    }

    #[test]
    fn measured_is_invisible_to_equality() {
        #[derive(PartialEq, Debug)]
        struct Report {
            ops: u64,
            timing: Measured<PhaseNanos>,
        }
        let mut a = Report {
            ops: 3,
            timing: Measured(PhaseNanos::default()),
        };
        let b = Report {
            ops: 3,
            timing: Measured(PhaseNanos {
                parse_nanos: 999,
                ..PhaseNanos::default()
            }),
        };
        assert_eq!(a, b);
        a.ops = 4;
        assert_ne!(a, b);
    }

    #[test]
    fn cache_padded_is_line_aligned() {
        assert!(std::mem::align_of::<CachePadded<AtomicU64>>() >= 64);
        assert!(std::mem::size_of::<CachePadded<AtomicU64>>() >= 64);
        let banks: [CachePadded<AtomicU64>; 2] = Default::default();
        let a = &banks[0] as *const _ as usize;
        let b = &banks[1] as *const _ as usize;
        assert!(b - a >= 64);
    }
}
