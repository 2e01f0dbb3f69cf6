//! Trace sinks: where running server processes emit their records.

use crate::csvline;
use crate::event::TraceRecord;
use crate::merge::{host_threads, merge_runs_parallel};
use parking_lot::Mutex;
use std::cell::RefCell;
use std::collections::HashMap;
use std::fs::{self, File};
use std::io::{BufWriter, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use u1_core::{CachePadded, MachineId, ProcessId};

/// Stripe count used by the lock-sharded sinks below. Origins (driver
/// partitions) and (machine, process) pairs are spread across this many
/// independent locks so concurrent emitters rarely contend.
///
/// [`MemorySink`] stripes by `origin % STRIPES`; origins are small dense
/// integers (one per metastore shard plus the coordinator — 11 by default),
/// so 32 stripes is a perfect collision-free partition up to 32 driver
/// partitions. Each stripe lock is additionally padded to its own cache
/// line: a `parking_lot` mutex plus a `Vec` header is well under 64 bytes,
/// so unpadded neighbours would false-share a line between workers even
/// when their locks never collide.
const STRIPES: usize = 32;

/// Traces shorter than this many records are merged by
/// [`MemorySink::take_sorted`] on the calling thread: below it, starting
/// the merge pool costs about as much as the merge. A paper-scaled month is
/// ~5M records, far above it.
const PARALLEL_TAKE_MIN_RECORDS: usize = 1 << 16;

/// Something that accepts trace records. Implementations must be
/// thread-safe: every API/RPC process logs through a shared sink.
pub trait TraceSink: Send + Sync {
    fn record(&self, rec: TraceRecord);

    /// Flushes buffered output (no-op for memory sinks).
    fn flush(&self) {}

    /// Number of I/O errors this sink has swallowed while running degraded
    /// (0 for in-memory sinks, which cannot fail). Surfaced so run reports
    /// can account for dropped trace output instead of hiding it — see
    /// `DriverReport::trace_io_errors` in `u1-workload`.
    fn io_errors(&self) -> u64 {
        0
    }
}

/// Discards all records. Useful for benchmarks isolating server cost.
#[derive(Default, Debug)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn record(&self, _rec: TraceRecord) {}
}

/// One origin's records in emission order. Each driver partition appends
/// to its own run, so a run is naturally `(t, seq)`-monotonic unless the
/// producer bypassed the partition clock (legacy single-threaded emitters,
/// tests); `in_order` is checked on every append, so
/// [`MemorySink::take_sorted`] sorts only the runs that need it without
/// scanning the others.
#[derive(Debug)]
struct OriginRun {
    origin: u32,
    in_order: bool,
    records: Vec<TraceRecord>,
}

type OriginRuns = Vec<OriginRun>;

/// Collects records in memory, for analyses that skip the logfile round
/// trip. Records are kept as one run per origin (striped by origin so
/// concurrent driver partitions don't serialize on one lock);
/// `take_sorted` k-way-merges the runs into the canonical order instead of
/// globally sorting millions of records.
#[derive(Debug)]
pub struct MemorySink {
    stripes: Vec<CachePadded<Mutex<OriginRuns>>>,
}

impl Default for MemorySink {
    fn default() -> Self {
        Self::with_stripes(STRIPES)
    }
}

impl MemorySink {
    pub fn new() -> Self {
        Self::default()
    }

    /// A sink with a custom stripe count (collision-free as long as
    /// `stripes` is at least the number of distinct origins).
    pub fn with_stripes(stripes: usize) -> Self {
        Self {
            stripes: (0..stripes.max(1))
                .map(|_| CachePadded::new(Mutex::new(Vec::new())))
                .collect(),
        }
    }

    pub fn len(&self) -> usize {
        self.stripes
            .iter()
            .map(|s| s.lock().iter().map(|run| run.records.len()).sum::<usize>())
            .sum()
    }

    pub fn is_empty(&self) -> bool {
        self.stripes
            .iter()
            .all(|s| s.lock().iter().all(|run| run.records.is_empty()))
    }

    fn run_slot(runs: &mut OriginRuns, origin: u32) -> &mut OriginRun {
        // Linear scan: a stripe holds at most a handful of origins (one per
        // driver partition mapping to it), so this beats hashing.
        let idx = match runs.iter().position(|run| run.origin == origin) {
            Some(i) => i,
            None => {
                runs.push(OriginRun {
                    origin,
                    in_order: true,
                    records: Vec::new(),
                });
                runs.len() - 1
            }
        };
        &mut runs[idx]
    }

    /// Drains and returns all records in canonical order: sorted by
    /// `(t, origin, seq)`. Each per-origin run is already monotonic in
    /// `(t, seq)` (checked on append, and stable-sorted if a producer
    /// emitted out of order), so merging the runs reproduces exactly what a global stable
    /// sort would: full keys collide only within one origin's legacy
    /// `(0, 0)`-stamped records, whose emission order the merge preserves.
    ///
    /// The runs are merged by key range on the host's cores
    /// ([`merge_runs_parallel`]), each range written straight into its
    /// slice of the output, so the first touch of a month-sized output is
    /// spread over every core. Traces below [`PARALLEL_TAKE_MIN_RECORDS`]
    /// are merged on the calling thread.
    pub fn take_sorted(&self) -> Vec<TraceRecord> {
        let mut runs: Vec<Vec<TraceRecord>> = Vec::new();
        for stripe in &self.stripes {
            for mut run in std::mem::take(&mut *stripe.lock()) {
                if !run.in_order {
                    run.records.sort_by_key(|r| (r.t, r.seq));
                }
                runs.push(run.records);
            }
        }
        let total: usize = runs.iter().map(Vec::len).sum();
        let threads = if total < PARALLEL_TAKE_MIN_RECORDS {
            1
        } else {
            host_threads()
        };
        merge_runs_parallel(runs, 4 * threads, threads)
    }
}

impl TraceSink for MemorySink {
    fn record(&self, rec: TraceRecord) {
        let stripe = rec.origin as usize % self.stripes.len();
        let mut runs = self.stripes[stripe].lock();
        let run = Self::run_slot(&mut runs, rec.origin);
        if let Some(last) = run.records.last() {
            run.in_order &= (last.t, last.seq) <= (rec.t, rec.seq);
        }
        run.records.push(rec);
    }
}

/// Open logfile for one (machine, process): the simulated day it covers
/// and the buffered writer — `None` when opening the day's file failed and
/// the sink is running degraded for that (process, day).
type DayWriter = (u64, Option<BufWriter<File>>);

thread_local! {
    /// Amortized per-thread serialization buffer: one line is formatted
    /// here, outside any writer lock, then written as a single byte slice.
    static LINE_BUF: RefCell<String> = RefCell::new(String::with_capacity(256));
}

/// Writes paper-style logfiles under a directory: one file per
/// (machine, process, day), rotated as simulated days advance. The writer
/// map is striped by (machine, process) so concurrent processes don't
/// contend on one global lock.
///
/// I/O errors do not abort the process: the sink degrades by dropping that
/// (process, day)'s records, counting the failure in
/// [`DirSink::io_errors`] and keeping the first error message in
/// [`DirSink::first_io_error`].
/// One [`DirSink`] stripe: the day-rotated writers of the (machine,
/// process) pairs hashing to it, padded to a cache line.
type WriterStripe = CachePadded<Mutex<HashMap<(MachineId, ProcessId), DayWriter>>>;

pub struct DirSink {
    dir: PathBuf,
    stripes: Vec<WriterStripe>,
    /// Append `o=`/`q=` origin/sequence stamps to every line (see
    /// [`csvline::write_line_stamped`]). Off by default: plain mode emits
    /// the paper's exact logfile schema.
    stamped: bool,
    // Padded: this counter sits next to the stripe array and is bumped on
    // the degraded path while other threads stream through their stripes.
    io_errors: CachePadded<AtomicU64>,
    first_error: Mutex<Option<String>>,
}

impl DirSink {
    /// Creates the directory (and parents) if needed.
    pub fn create(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        Self::with_stamps(dir, false)
    }

    /// Like [`DirSink::create`], but every line carries its `(origin, seq)`
    /// stamp so the directory can be read back into exact canonical order —
    /// the mode the stream-to-disk pipeline uses.
    pub fn create_stamped(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        Self::with_stamps(dir, true)
    }

    fn with_stamps(dir: impl Into<PathBuf>, stamped: bool) -> std::io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(Self {
            dir,
            stripes: (0..STRIPES)
                .map(|_| CachePadded::new(Mutex::new(HashMap::new())))
                .collect(),
            stamped,
            io_errors: CachePadded::new(AtomicU64::new(0)),
            first_error: Mutex::new(None),
        })
    }

    pub fn dir(&self) -> &std::path::Path {
        &self.dir
    }

    /// Number of failed logfile operations (opens, writes, flushes) since
    /// creation. Each failure degrades (drops) one (process, day) stream;
    /// the next day retries.
    pub fn io_errors(&self) -> u64 {
        self.io_errors.load(Ordering::Relaxed)
    }

    /// Counts one degraded-mode I/O failure and keeps the first message.
    fn note_io_error(&self, msg: impl FnOnce() -> String) {
        self.io_errors.fetch_add(1, Ordering::Relaxed);
        let mut slot = self.first_error.lock();
        if slot.is_none() {
            *slot = Some(msg());
        }
    }

    /// The first I/O error observed, if any — enough to diagnose a
    /// misconfigured trace directory without aborting a multi-hour run.
    pub fn first_io_error(&self) -> Option<String> {
        self.first_error.lock().clone()
    }

    fn stripe_of(machine: MachineId, process: ProcessId) -> usize {
        // Fibonacci-hash the (machine, process) pair and take high bits:
        // the old `machine*31 + process % STRIPES` folded the paper's small
        // dense machine/process ids onto a handful of stripes (collisions
        // between concurrent processes serialize their writers). The
        // multiplicative mix spreads dense ids uniformly.
        let key = ((machine.raw() as u64) << 32) | process.raw() as u64;
        let mixed = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (mixed >> 58) as usize % STRIPES
    }

    fn open(&self, machine: MachineId, process: ProcessId, day: u64) -> Option<BufWriter<File>> {
        let path = self
            .dir
            .join(crate::logfile::logfile_name(machine, process, day));
        // Append: a process may be asked to re-open a day's file after a
        // rotation race; losing previously written lines would corrupt the
        // trace.
        match fs::OpenOptions::new().create(true).append(true).open(&path) {
            Ok(file) => Some(BufWriter::new(file)),
            Err(e) => {
                self.note_io_error(|| format!("open trace logfile {}: {e}", path.display()));
                None
            }
        }
    }

    /// Appends one pre-serialized line (newline included) to the right
    /// (machine, process, day) file.
    fn write_serialized(&self, machine: MachineId, process: ProcessId, day: u64, line: &[u8]) {
        let mut writers = self.stripes[Self::stripe_of(machine, process)].lock();
        let entry = writers.entry((machine, process));
        let slot = match entry {
            std::collections::hash_map::Entry::Occupied(mut o) => {
                if o.get().0 != day {
                    // Day changed for this process: flush and rotate, like
                    // the original "one log file per server/service and day".
                    let (_, old) = o.insert((day, self.open(machine, process, day)));
                    if let Some(mut w) = old {
                        // u1-lint: allow(U1L007) — day rotation must retire the old writer before the stripe accepts new lines; the stripe lock is that ordering
                        if let Err(e) = w.flush() {
                            self.note_io_error(|| format!("flush trace logfile: {e}"));
                        }
                    }
                }
                o.into_mut()
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert((day, self.open(machine, process, day)))
            }
        };
        if let Some(w) = &mut slot.1 {
            // u1-lint: allow(U1L007) — one serialized line per write under the stripe lock is the log-line atomicity contract (no torn lines across processes)
            if let Err(e) = w.write_all(line) {
                // Degrade exactly like a failed open: count it, drop the
                // writer so the stream goes quiet for the rest of the day
                // instead of emitting torn lines, retry on rotation.
                slot.1 = None;
                self.note_io_error(|| format!("write trace logfile: {e}"));
            }
        }
    }
}

impl DirSink {
    fn write_line_for_mode(&self, rec: &TraceRecord, buf: &mut String) {
        buf.clear();
        let _ = if self.stamped {
            csvline::write_line_stamped(rec, buf)
        } else {
            csvline::write_line(rec, buf)
        };
        buf.push('\n');
    }
}

impl TraceSink for DirSink {
    fn record(&self, rec: TraceRecord) {
        LINE_BUF.with(|b| {
            let mut buf = b.borrow_mut();
            self.write_line_for_mode(&rec, &mut buf);
            self.write_serialized(rec.machine, rec.process, rec.t.day_index(), buf.as_bytes());
        });
    }

    fn flush(&self) {
        for stripe in &self.stripes {
            for (_, slot) in stripe.lock().iter_mut() {
                if let Some(w) = &mut slot.1 {
                    // u1-lint: allow(U1L007) — flush() drains each stripe under its lock so no line written before the flush call can be missed
                    if let Err(e) = w.flush() {
                        slot.1 = None;
                        self.note_io_error(|| format!("flush trace logfile: {e}"));
                    }
                }
            }
        }
    }

    fn io_errors(&self) -> u64 {
        DirSink::io_errors(self)
    }
}

impl Drop for DirSink {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Payload, SessionEvent};
    use crate::merge::merge_runs;
    use u1_core::{SessionId, SimTime, UserId};

    fn rec(t_secs: u64, machine: u16, process: u16) -> TraceRecord {
        TraceRecord::new(
            SimTime::from_secs(t_secs),
            MachineId::new(machine),
            ProcessId::new(process),
            Payload::Session {
                event: SessionEvent::Open,
                session: SessionId::new(t_secs),
                user: UserId::new(1),
            },
        )
    }

    fn rec_origin(t_secs: u64, origin: u32, seq: u64) -> TraceRecord {
        let mut r = rec(t_secs, 0, 0);
        r.origin = origin;
        r.seq = seq;
        r
    }

    #[test]
    fn memory_sink_sorts_by_time() {
        let sink = MemorySink::new();
        sink.record(rec(30, 0, 0));
        sink.record(rec(10, 0, 0));
        sink.record(rec(20, 0, 0));
        let recs = sink.take_sorted();
        let times: Vec<u64> = recs.iter().map(|r| r.t.as_secs()).collect();
        assert_eq!(times, vec![10, 20, 30]);
        assert!(sink.is_empty());
    }

    #[test]
    fn memory_sink_merges_origin_runs_into_canonical_order() {
        let sink = MemorySink::new();
        // Three origins, interleaved timestamps; origin 33 shares stripe 1
        // with origin 1, exercising the per-stripe multi-run path.
        for (t, origin, seq) in [
            (5u64, 1u32, 0u64),
            (9, 1, 1),
            (9, 33, 0),
            (12, 33, 1),
            (3, 2, 0),
            (9, 2, 1),
        ] {
            sink.record(rec_origin(t, origin, seq));
        }
        let recs = sink.take_sorted();
        let keys: Vec<(u64, u32, u64)> = recs
            .iter()
            .map(|r| (r.t.as_secs(), r.origin, r.seq))
            .collect();
        let mut expect = keys.clone();
        expect.sort();
        assert_eq!(keys, expect);
        assert_eq!(recs.len(), 6);
    }

    /// Above the parallel floor, `take_sorted` equals a serial merge of
    /// the same runs: an origin-0 legacy run emitted out of order (and with
    /// colliding `(0, 0)` stamps), and timestamps shared across origins.
    #[test]
    fn parallel_take_equals_serial_merge() {
        let n = PARALLEL_TAKE_MIN_RECORDS as u64;
        let sink = MemorySink::new();
        let mut runs: Vec<Vec<TraceRecord>> = vec![Vec::new(); 5];
        let emit = |r: TraceRecord, runs: &mut Vec<Vec<TraceRecord>>| {
            runs[r.origin as usize].push(r.clone());
            sink.record(r);
        };
        for i in 0..n {
            // Origins 1..=4 stamp (t, seq) in order; t repeats every 4
            // records, so equal timestamps meet across all origins.
            emit(rec_origin(i / 4, 1 + (i % 4) as u32, i / 4), &mut runs);
        }
        for i in 0..n / 8 {
            // Legacy origin-0 records: no partition stamp, time running
            // backwards in blocks, machine marking emission order.
            emit(rec(n / 4 - (i % 97) * 3, (i % 7) as u16, 0), &mut runs);
        }
        assert!(sink.len() >= PARALLEL_TAKE_MIN_RECORDS);
        for run in &mut runs {
            run.sort_by_key(|r| (r.t, r.seq));
        }
        let mut want = Vec::new();
        merge_runs(runs.iter().map(|run| run.iter()), |r: &TraceRecord| {
            want.push(r.clone())
        });
        let got = sink.take_sorted();
        assert_eq!(got.len(), want.len());
        assert!(
            got == want,
            "parallel take_sorted differs from a serial merge"
        );
        assert!(sink.is_empty());
    }

    #[test]
    fn dir_sink_rotates_per_day_and_process() {
        let dir = std::env::temp_dir().join(format!("u1-trace-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        {
            let sink = DirSink::create(&dir).unwrap();
            sink.record(rec(10, 0, 1)); // day 0, proc 1
            sink.record(rec(20, 0, 2)); // day 0, proc 2
            sink.record(rec(86_400 + 5, 0, 1)); // day 1, proc 1
            sink.flush();
            assert_eq!(sink.io_errors(), 0);
            assert_eq!(sink.first_io_error(), None);
        }
        let mut names: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        assert_eq!(
            names,
            vec![
                "production-whitecurrant-1-day00.csv",
                "production-whitecurrant-1-day01.csv",
                "production-whitecurrant-2-day00.csv",
            ]
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn dir_sink_degrades_on_unopenable_path() {
        // A file where the sink expects a directory: every open fails, but
        // nothing panics and the failure is observable.
        let bogus = std::env::temp_dir().join(format!("u1-trace-bogus-{}", std::process::id()));
        let _ = fs::remove_dir_all(&bogus);
        let sink = DirSink::create(&bogus).unwrap();
        fs::remove_dir_all(&bogus).unwrap();
        fs::write(&bogus, b"not a directory").unwrap();
        sink.record(rec(10, 0, 1));
        sink.record(rec(20, 0, 1)); // same (process, day): no second open
        sink.record(rec(86_400 + 5, 0, 1)); // next day retries and fails again
        sink.flush();
        assert_eq!(sink.io_errors(), 2);
        assert!(sink.first_io_error().is_some());
        // The count is visible through the trait too (how `Driver::run`
        // surfaces it into `DriverReport::trace_io_errors`), through an
        // `Arc<dyn TraceSink>`.
        let shared: std::sync::Arc<dyn TraceSink> = std::sync::Arc::new(sink);
        assert_eq!(shared.io_errors(), 2);
        let memory: std::sync::Arc<dyn TraceSink> = std::sync::Arc::new(MemorySink::new());
        assert_eq!(memory.io_errors(), 0);
        let _ = fs::remove_file(&bogus);
    }

    /// Write and flush failures (not just failed opens) are counted and
    /// degrade the (process, day) stream without panicking. Tests run as
    /// root, where permission tricks don't bite, so the failing device is
    /// `/dev/full`: opens succeed, every flushed byte returns `ENOSPC`.
    #[cfg(unix)]
    #[test]
    fn dir_sink_counts_write_and_flush_failures() {
        if !std::path::Path::new("/dev/full").exists() {
            return; // non-Linux unix: no such device, nothing to test
        }
        let dir = std::env::temp_dir().join(format!("u1-trace-full-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let sink = DirSink::create(&dir).unwrap();
        for proc in [1u16, 2u16] {
            std::os::unix::fs::symlink(
                "/dev/full",
                dir.join(crate::logfile::logfile_name(
                    MachineId::new(0),
                    ProcessId::new(proc),
                    0,
                )),
            )
            .unwrap();
        }
        // Process 1: enough lines to overflow the BufWriter mid-record, so
        // the failure surfaces on the write path itself.
        for i in 0..2_000u64 {
            sink.record(rec(10 + i % 50, 0, 1));
        }
        assert_eq!(sink.io_errors(), 1, "{:?}", sink.first_io_error());
        let first = sink.first_io_error().expect("first error recorded");
        assert!(first.starts_with("write trace logfile"), "was: {first}");
        // The degraded stream goes quiet instead of erroring per record.
        sink.record(rec(11, 0, 1));
        assert_eq!(sink.io_errors(), 1);
        // Process 2: one buffered line; the failure surfaces at flush().
        sink.record(rec(10, 0, 2));
        sink.flush();
        assert_eq!(sink.io_errors(), 2);
        // Both streams degraded; a full-run completion with errors counted
        // is exactly the driver's degraded-mode contract.
        sink.flush();
        assert_eq!(sink.io_errors(), 2);
        let _ = fs::remove_dir_all(&dir);
    }
}
