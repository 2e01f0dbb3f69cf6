//! Merging runs of trace records that are each sorted by the canonical
//! `(t, origin, seq)` key: the one k-way merge ([`merge_runs`]) and the
//! key-range parallel merge ([`merge_runs_parallel`]) that both
//! `MemorySink::take_sorted` and `DayChunks::next_day` run it in.

use crate::event::TraceRecord;
use parking_lot::Mutex;
use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::sync::atomic::{AtomicUsize, Ordering};
use u1_core::SimTime;

/// Merge key: the canonical `(t, origin, seq)` order of a trace.
pub(crate) type MergeKey = (SimTime, u32, u64);

pub(crate) fn merge_key(rec: &TraceRecord) -> MergeKey {
    (rec.t, rec.origin, rec.seq)
}

/// The host's cores: the most merge (and parse) workers worth starting,
/// because extra OS threads only time-slice the same cores.
pub(crate) fn host_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// K-way merges `runs`, each sorted by [`merge_key`], handing the records
/// to `emit` in `(t, origin, seq)` order. Equal keys come out in run order
/// (the heap breaks ties on the run index), so merging the sorted pieces of
/// a sequence reproduces a stable sort of that sequence. Only one head per
/// run lives in the heap at a time.
pub(crate) fn merge_runs<'a, I>(
    runs: impl IntoIterator<Item = I>,
    mut emit: impl FnMut(&'a TraceRecord),
) where
    I: Iterator<Item = &'a TraceRecord>,
{
    let mut iters: Vec<I> = runs.into_iter().collect();
    let mut heads: Vec<Option<&'a TraceRecord>> = Vec::with_capacity(iters.len());
    let mut heap = BinaryHeap::with_capacity(iters.len());
    for (i, it) in iters.iter_mut().enumerate() {
        let head = it.next();
        if let Some(rec) = head {
            heap.push(Reverse((merge_key(rec), i)));
        }
        heads.push(head);
    }
    while let Some(mut top) = heap.peek_mut() {
        let i = top.0 .1;
        let next = iters[i].next();
        match next {
            // Replacing the top in place costs one sift instead of a pop
            // and a push.
            Some(rec) => top.0 = (merge_key(rec), i),
            None => {
                PeekMut::pop(top);
            }
        }
        if let Some(rec) = std::mem::replace(&mut heads[i], next) {
            emit(rec);
        }
    }
}

/// Merges `runs`, each sorted by [`merge_key`], into one vector in
/// `(t, origin, seq)` order with ties broken on run index: exactly a stable
/// sort of the runs' concatenation.
///
/// The merge is cut into up to `pieces` key ranges. Splitter keys are
/// sampled from the runs, and every run is cut at each splitter with
/// `partition_point`, so all records with one key land in the same range.
/// Each range is merged by [`merge_runs`] straight into its own slice of
/// the preallocated output, on a pool of `workers` threads (the calling
/// thread is one of them) that claim ranges off a shared queue. The runs
/// stay alive until the merge is done, so input and output coexist at the
/// peak.
pub(crate) fn merge_runs_parallel(
    mut runs: Vec<Vec<TraceRecord>>,
    pieces: usize,
    workers: usize,
) -> Vec<TraceRecord> {
    runs.retain(|run| !run.is_empty());
    if runs.len() <= 1 {
        return runs.pop().unwrap_or_default();
    }
    let total: usize = runs.iter().map(Vec::len).sum();
    // cuts[p][r]: the index in run `r` where key range `p` starts.
    let mut cuts: Vec<Vec<usize>> = vec![vec![0; runs.len()]];
    for key in splitters(&runs, pieces.max(1), total) {
        cuts.push(
            runs.iter()
                .map(|run| run.partition_point(|rec| merge_key(rec) < key))
                .collect(),
        );
    }
    cuts.push(runs.iter().map(Vec::len).collect());

    let mut out: Vec<TraceRecord> = Vec::with_capacity(total);
    let mut free = &mut out.spare_capacity_mut()[..total];
    let mut ranges = Vec::with_capacity(cuts.len() - 1);
    for w in cuts.windows(2) {
        let slices: Vec<&[TraceRecord]> = runs
            .iter()
            .zip(w[0].iter().zip(&w[1]))
            .map(|(run, (&from, &to))| &run[from..to])
            .collect();
        let len = slices.iter().map(|s| s.len()).sum();
        let (dst, rest) = std::mem::take(&mut free).split_at_mut(len);
        free = rest;
        ranges.push((slices, dst));
    }
    let workers = workers.clamp(1, ranges.len());
    let queue = Mutex::new(ranges.into_iter());
    let filled = AtomicUsize::new(0);
    let work = || loop {
        let Some((slices, dst)) = queue.lock().next() else {
            break;
        };
        let len = dst.len();
        let mut slots = dst.iter_mut();
        merge_runs(slices.iter().map(|s| s.iter()), |rec| {
            if let Some(slot) = slots.next() {
                slot.write(rec.clone());
            }
        });
        filled.fetch_add(len - slots.len(), Ordering::Relaxed);
    };
    std::thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(work);
        }
        work();
    });
    let filled = filled.into_inner();
    assert_eq!(filled, total, "parallel merge left output slots unwritten");
    // SAFETY: the ranges' `dst` slices partition the first `total` slots of
    // `out`'s spare capacity, each range writes each of its slots at most
    // once (through `iter_mut`), and the writes sum to `total`, so every
    // slot in `0..total` holds an initialized record.
    unsafe { out.set_len(total) };
    out
}

/// Up to `pieces - 1` ascending, distinct splitter keys: evenly spaced
/// quantiles of about 32 sampled keys per piece, so the key ranges hold
/// about the same number of records. Deterministic, and the output of the
/// merge does not depend on where the splitters fall.
fn splitters(runs: &[Vec<TraceRecord>], pieces: usize, total: usize) -> Vec<MergeKey> {
    let stride = (total / (pieces * 32)).max(1);
    let mut sample: Vec<MergeKey> = runs
        .iter()
        .flat_map(|run| run.iter().step_by(stride).map(merge_key))
        .collect();
    sample.sort_unstable();
    let mut keys: Vec<MergeKey> = (1..pieces)
        .map(|p| sample[p * sample.len() / pieces])
        .collect();
    keys.dedup();
    keys
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Payload;
    use u1_core::{MachineId, ProcessId, UserId};

    /// A record whose key is `(t, origin, seq)` and whose user tags where
    /// it came from, so a tie broken the wrong way shows.
    fn rec(t: u64, origin: u32, seq: u64, tag: u64) -> TraceRecord {
        TraceRecord {
            t: SimTime::from_micros(t),
            machine: MachineId::new(0),
            process: ProcessId::new(0),
            origin,
            seq,
            attempt: 1,
            error_class: None,
            payload: Payload::Auth {
                user: UserId::new(tag),
                success: true,
            },
        }
    }

    fn stable_sorted(runs: &[Vec<TraceRecord>]) -> Vec<TraceRecord> {
        let mut all = runs.concat();
        all.sort_by_key(merge_key);
        all
    }

    #[test]
    fn parallel_merge_equals_stable_sort() {
        // Runs with heavy key collisions across runs (t in 0..7, few
        // origins), each sorted, plus an empty run.
        let mut runs: Vec<Vec<TraceRecord>> = (0..9u64)
            .map(|r| {
                let mut run: Vec<TraceRecord> = (0..50 + 13 * r)
                    .map(|i| rec((i * 5 + r) % 7, (i % 3) as u32, i % 2, r * 1000 + i))
                    .collect();
                run.sort_by_key(merge_key);
                run
            })
            .collect();
        runs.insert(4, Vec::new());
        let want = stable_sorted(&runs);
        for pieces in [1, 2, 3, 8, 64] {
            for workers in [1, 2, 4] {
                let got = merge_runs_parallel(runs.clone(), pieces, workers);
                assert_eq!(got, want, "pieces {pieces} workers {workers}");
            }
        }
    }

    #[test]
    fn parallel_merge_handles_one_key_and_trivial_inputs() {
        // Every record shares one key: all splitters coincide.
        let runs: Vec<Vec<TraceRecord>> = (0..5u64)
            .map(|r| (0..20).map(|i| rec(9, 0, 0, r * 100 + i)).collect())
            .collect();
        assert_eq!(merge_runs_parallel(runs.clone(), 8, 2), runs.concat());
        assert!(merge_runs_parallel(Vec::new(), 4, 2).is_empty());
        assert!(merge_runs_parallel(vec![Vec::new(), Vec::new()], 4, 2).is_empty());
        let one = vec![rec(1, 0, 0, 1), rec(2, 0, 0, 2)];
        assert_eq!(merge_runs_parallel(vec![one.clone()], 4, 2), one);
    }
}
