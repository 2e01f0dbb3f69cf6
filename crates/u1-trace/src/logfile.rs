//! Logfile naming, directory reading and timestamp merging.
//!
//! Mirrors §4 of the paper: one logfile per server process per day, named
//! `production-<machine>-<process>-<date>`; each file is internally
//! sequential; a merged, timestamp-sorted view is what the analyses consume;
//! ~1% of lines may fail to parse and are skipped (and counted). A line
//! that is not UTF-8 is one of those malformed lines, never a read error.
//!
//! There are two directory readers. [`LogDirReader::read_all`] is the
//! serial reference: every file parsed in path order, then one stable sort
//! by timestamp. [`LogDirReader::day_chunks`] is the parallel one the
//! analyze pipeline runs, one day of the trace at a time.
//!
//! Both parse *byte ranges aligned to line boundaries*: a task reads its
//! whole range with one read into a reused byte buffer, validates UTF-8
//! once for the range, splits lines there, and yields its own
//! [`ParseStats`] so the day reader can sum them. The day reader splits
//! files into ranges pread-style (each task seeks into its own handle, so
//! one big file does not serialize the read on one task).
//!
//! Range-split convention: a range `[start, end)` owns every line whose
//! *first byte* lies in the range. A task with `start > 0` reads from
//! `start - 1` and discards through the first `\n` (that line's first byte
//! is owned by an earlier range), and the last line of a range may extend
//! past `end` (later ranges skip it by the same rule). Every line is
//! therefore parsed exactly once no matter where the split points land —
//! mid-line, on a boundary, or past EOF.
//!
//! The day reader leaves no serial sort on its path. Each range task
//! stable-sorts its own records by `(t, origin, seq)` on the thread that
//! parsed them, and [`DayChunks::next_day`] merges those sorted runs in
//! parallel by key range, with ties broken on run index: the same records,
//! in the same order, as a stable sort of the day's concatenated ranges.

use crate::csvline;
use crate::event::TraceRecord;
use crate::merge::{host_threads, merge_key, merge_runs_parallel};
use std::fs;
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use u1_core::timing::{saturating_nanos, Phase, PhaseNanos, PhaseTimers};
use u1_core::{MachineId, ProcessId};

/// Floor on planned range size: below this, per-task overhead (open, seek,
/// partial-line skip) beats the parallelism. Small files still parse as a
/// single range each.
const MIN_RANGE_BYTES: u64 = 256 * 1024;

/// Builds the logfile name for a (machine, process, day) triple, e.g.
/// `production-whitecurrant-23-day05.csv` — same structure as the paper's
/// `production-whitecurrant-23-20140128` with a trace-relative day index
/// instead of a calendar date.
pub fn logfile_name(machine: MachineId, process: ProcessId, day: u64) -> String {
    format!(
        "production-{}-{}-day{:02}.csv",
        machine.name(),
        process.raw(),
        day
    )
}

/// Parses a logfile name back into its (machine, process, day) components.
/// Returns `None` for files that are not trace logfiles.
pub fn parse_logfile_name(name: &str) -> Option<(MachineId, ProcessId, u64)> {
    let rest = name.strip_prefix("production-")?.strip_suffix(".csv")?;
    // rest = <machinename>-<process>-dayNN ; machine names contain no '-'.
    let mut parts = rest.split('-');
    let machine_name = parts.next()?;
    let process: u16 = parts.next()?.parse().ok()?;
    let day: u64 = parts.next()?.strip_prefix("day")?.parse().ok()?;
    if parts.next().is_some() {
        return None;
    }
    // Recover the machine id from its name. Names cycle every 12 ids; we use
    // the first id with that name, which is unique for clusters of <= 12
    // machines (the original had 6).
    let machine = (0u16..12)
        .map(MachineId::new)
        .find(|m| m.name() == machine_name)?;
    Some((machine, ProcessId::new(process), day))
}

/// Counters describing a file or directory read.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ParseStats {
    pub files: usize,
    pub lines: usize,
    pub parsed: usize,
    pub malformed: usize,
    /// Files whose names did not look like trace logfiles.
    pub skipped_files: usize,
}

impl ParseStats {
    /// Fraction of lines that failed to parse (the paper reports ~1%).
    pub fn malformed_fraction(&self) -> f64 {
        if self.lines == 0 {
            0.0
        } else {
            self.malformed as f64 / self.lines as f64
        }
    }

    /// Folds another file's (or byte range's) counters into this one.
    pub fn absorb(&mut self, other: &ParseStats) {
        self.files += other.files;
        self.lines += other.lines;
        self.parsed += other.parsed;
        self.malformed += other.malformed;
        self.skipped_files += other.skipped_files;
    }
}

/// Parses a single logfile into records plus its own [`ParseStats`]
/// (`files == 1`): the whole file as one byte range. Malformed lines are
/// counted and skipped, never fatal.
pub fn read_logfile(
    path: &Path,
    machine: MachineId,
    process: ProcessId,
) -> std::io::Result<(Vec<TraceRecord>, ParseStats)> {
    let (records, mut stats) = read_logfile_range(path, machine, process, 0, u64::MAX)?;
    stats.files = 1;
    Ok((records, stats))
}

/// Parses the byte range `[start, end)` of one logfile: every line whose
/// first byte lies in the range, following the module-level split
/// convention. Returns records plus stats with `files == 0` — the caller
/// attributes the file once (on the range with `start == 0`), so summing
/// range stats in order reproduces the serial per-file [`ParseStats`]
/// exactly.
pub fn read_logfile_range(
    path: &Path,
    machine: MachineId,
    process: ProcessId,
    start: u64,
    end: u64,
) -> std::io::Result<(Vec<TraceRecord>, ParseStats)> {
    let mut buf = Vec::new();
    let mut stats = ParseStats::default();
    let mut records = Vec::new();
    let first = read_range(path, start, end, &mut buf)?;
    parse_lines(&buf[first..], machine, process, &mut records, &mut stats);
    Ok((records, stats))
}

/// How far past a range's end to read per step while finishing its last
/// line; a trace line is ~80 bytes, so one step almost always suffices.
const TAIL_READ: u64 = 4096;

/// Reads into `buf` (cleared first) the bytes of every line whose first
/// byte lies in `[start, end)`: one read of the range itself, starting one
/// byte early when `start > 0`, then short reads past `end` until the last
/// owned line's `\n` (or EOF). Returns the offset in `buf` where the first
/// owned line starts; `buf[offset..]` holds whole lines only.
fn read_range(path: &Path, start: u64, end: u64, buf: &mut Vec<u8>) -> std::io::Result<usize> {
    buf.clear();
    if start >= end {
        return Ok(0);
    }
    let mut file = fs::File::open(path)?;
    let from = start.saturating_sub(1);
    file.seek(SeekFrom::Start(from))?;
    let want = end - from;
    (&mut file).take(want).read_to_end(buf)?;
    // With `start > 0` the first byte read is `start - 1`: the first owned
    // line starts right after the first `\n`. No `\n` before `end` means
    // no line starts in the range.
    let first = if start == 0 {
        0
    } else {
        match buf.iter().position(|&b| b == b'\n') {
            Some(i) => i + 1,
            None => {
                buf.clear();
                return Ok(0);
            }
        }
    };
    // A full read that stops mid-line: that line started before `end`, so
    // it is ours; read on to its terminator.
    if buf.len() as u64 == want && buf.last() != Some(&b'\n') {
        loop {
            let before = buf.len();
            (&mut file).take(TAIL_READ).read_to_end(buf)?;
            if let Some(i) = buf[before..].iter().position(|&b| b == b'\n') {
                buf.truncate(before + i + 1);
                break;
            }
            if ((buf.len() - before) as u64) < TAIL_READ {
                break;
            }
        }
    }
    Ok(first)
}

/// Parses whole lines from `bytes`, appending records and counting lines.
/// `\r\n` endings are accepted and blank lines skipped uncounted; a line
/// that is not UTF-8 or does not parse counts as malformed.
///
/// UTF-8 is validated once for the whole remainder instead of per line, so
/// lines split with `str`'s word-at-a-time search. When validation fails,
/// the lines before the offending one are parsed, that line is counted as
/// malformed, and the scan resumes after it.
fn parse_lines(
    bytes: &[u8],
    machine: MachineId,
    process: ProcessId,
    records: &mut Vec<TraceRecord>,
    stats: &mut ParseStats,
) {
    let mut rest = bytes;
    loop {
        let (text, bad_line_end) = match std::str::from_utf8(rest) {
            Ok(text) => (text, None),
            Err(e) => {
                let valid = &rest[..e.valid_up_to()];
                let start = valid.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
                let end = rest[start..]
                    .iter()
                    .position(|&b| b == b'\n')
                    .map_or(rest.len(), |i| start + i + 1);
                // `valid[..start]` ends on a `\n`, so it is valid UTF-8.
                (
                    std::str::from_utf8(&valid[..start]).unwrap_or_default(),
                    Some(end),
                )
            }
        };
        for line in text.split('\n') {
            let line = line.trim_end_matches('\r');
            if line.is_empty() {
                continue;
            }
            stats.lines += 1;
            match csvline::from_line(line, machine, process) {
                Ok(rec) => {
                    stats.parsed += 1;
                    records.push(rec);
                }
                Err(_) => stats.malformed += 1,
            }
        }
        let Some(end) = bad_line_end else {
            break;
        };
        stats.lines += 1;
        stats.malformed += 1;
        rest = &rest[end..];
    }
}

/// Parses one logfile serially but through the range reader, splitting at
/// the given byte offsets (unsorted, duplicate, mid-line, or past-EOF
/// offsets are all fine). A verification helper: output must be identical
/// to [`read_logfile`] for *any* split set, which is what the differential
/// tests assert with adversarial offsets.
pub fn read_logfile_at_splits(
    path: &Path,
    machine: MachineId,
    process: ProcessId,
    splits: &[u64],
) -> std::io::Result<(Vec<TraceRecord>, ParseStats)> {
    let len = fs::metadata(path)?.len();
    let mut points: Vec<u64> = splits.iter().map(|&s| s.min(len)).collect();
    points.push(0);
    points.push(len);
    points.sort_unstable();
    points.dedup();
    let mut records = Vec::new();
    let mut stats = ParseStats {
        files: 1,
        ..ParseStats::default()
    };
    for w in points.windows(2) {
        let (recs, range_stats) = read_logfile_range(path, machine, process, w[0], w[1])?;
        stats.absorb(&range_stats);
        records.extend(recs);
    }
    Ok((records, stats))
}

/// One planned parse task: the byte range `[start, end)` of file index
/// `file`. `first` marks the range that attributes the file itself (stats
/// `files` count) so per-file stats stay identical to serial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RangeTask {
    file: usize,
    first: bool,
    start: u64,
    end: u64,
}

/// Plans line-boundary-agnostic byte ranges over the files: roughly
/// `threads * 4` equal-size tasks across the total byte count (for load
/// balance under the work-stealing cursor), floored at [`MIN_RANGE_BYTES`],
/// each file split independently. Empty files yield one empty range so
/// they are still counted.
fn plan_ranges(sizes: &[u64], threads: usize) -> Vec<RangeTask> {
    let total: u64 = sizes.iter().sum();
    let target_tasks = (threads * 4).max(1) as u64;
    let bytes_per_task = (total / target_tasks).max(MIN_RANGE_BYTES);
    let mut tasks = Vec::new();
    for (file, &len) in sizes.iter().enumerate() {
        let ranges = (len / bytes_per_task).max(1);
        let chunk = len.div_ceil(ranges).max(1);
        let mut start = 0u64;
        loop {
            let end = (start + chunk).min(len);
            tasks.push(RangeTask {
                file,
                first: start == 0,
                start,
                end,
            });
            if end >= len {
                break;
            }
            start = end;
        }
    }
    tasks
}

/// A parsed logfile path with the origin and day encoded in its name.
type LogfileEntry = (PathBuf, MachineId, ProcessId, u64);

/// Worker threads for `tasks` tasks planned for `threads` requested
/// threads: tasks are planned for the REQUESTED count (so granularity and
/// the range/merge logic are identical on every host), but the pool is
/// capped at the host's cores, because extra OS threads only time-slice
/// the same cores. Pure scheduling: output is position-indexed.
fn worker_count(threads: usize, tasks: usize) -> usize {
    threads.min(tasks).min(host_threads()).max(1)
}

/// Parses the given logfiles in planned byte ranges (see the module docs)
/// claimed off a work-stealing cursor, and returns one run per range in
/// `(file, range)` order plus the summed stats. Each run is stable-sorted
/// by `(t, origin, seq)` on the thread that parsed it, and each worker
/// reuses one byte buffer across its ranges. Worker thread-time, the sorts
/// included, is charged to [`Phase::Parse`].
fn read_sorted_runs(
    files: &[LogfileEntry],
    threads: usize,
    timers: &PhaseTimers,
) -> std::io::Result<(Vec<Vec<TraceRecord>>, ParseStats)> {
    let sizes = files
        .iter()
        .map(|(path, _, _, _)| fs::metadata(path).map(|m| m.len()))
        .collect::<std::io::Result<Vec<u64>>>()?;
    let tasks = plan_ranges(&sizes, threads.max(1));
    type TaskResult = std::io::Result<(Vec<TraceRecord>, ParseStats)>;
    let slots: Mutex<Vec<Option<TaskResult>>> =
        Mutex::new((0..tasks.len()).map(|_| None).collect());
    let next = AtomicUsize::new(0);
    let work = || {
        let t0 = std::time::Instant::now();
        let mut buf = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(task) = tasks.get(i) else {
                break;
            };
            let (path, machine, process, _day) = &files[task.file];
            let result = read_range(path, task.start, task.end, &mut buf).map(|first| {
                // Trace lines average ~80 bytes; reserving for 64-byte lines
                // spares the run its doubling copies.
                let mut records = Vec::with_capacity((buf.len() - first) / 64);
                let mut stats = ParseStats::default();
                parse_lines(&buf[first..], *machine, *process, &mut records, &mut stats);
                records.sort_by_key(merge_key);
                (records, stats)
            });
            if let Ok(mut slots) = slots.lock() {
                slots[i] = Some(result);
            }
        }
        timers.add(Phase::Parse, saturating_nanos(t0));
    };
    match worker_count(threads, tasks.len()) {
        1 => work(),
        workers => std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(work);
            }
        }),
    }
    let mut stats = ParseStats::default();
    let slots = slots
        .into_inner()
        .map_err(|_| std::io::Error::other("parse worker panicked"))?;
    let mut runs = Vec::with_capacity(tasks.len());
    for (task, slot) in tasks.iter().zip(slots) {
        let (records, mut range_stats) =
            slot.ok_or_else(|| std::io::Error::other("parse task missing"))??;
        if task.first {
            range_stats.files = 1;
        }
        stats.absorb(&range_stats);
        runs.push(records);
    }
    Ok((runs, stats))
}

/// Reads a directory of trace logfiles.
pub struct LogDirReader {
    dir: PathBuf,
}

impl LogDirReader {
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self { dir: dir.into() }
    }

    /// The directory's logfiles in deterministic (path-sorted) order, plus
    /// the count of skipped foreign files.
    fn logfiles(&self) -> std::io::Result<(Vec<LogfileEntry>, usize)> {
        let mut entries: Vec<PathBuf> = fs::read_dir(&self.dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_file())
            .collect();
        // Deterministic file order so ties in timestamps break identically
        // across runs.
        entries.sort();
        let mut files = Vec::with_capacity(entries.len());
        let mut skipped = 0usize;
        for path in entries {
            let name = path
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or_default();
            match parse_logfile_name(name) {
                Some((machine, process, day)) => files.push((path, machine, process, day)),
                None => skipped += 1,
            }
        }
        Ok((files, skipped))
    }

    /// Reads and merges every logfile, returning records sorted by
    /// timestamp (stable within ties) plus parse statistics. Malformed lines
    /// are counted and skipped, never fatal — matching the original
    /// pipeline's tolerance.
    pub fn read_all(&self) -> std::io::Result<(Vec<TraceRecord>, ParseStats)> {
        let (files, skipped_files) = self.logfiles()?;
        let mut stats = ParseStats {
            skipped_files,
            ..ParseStats::default()
        };
        let mut records = Vec::new();
        for (path, machine, process, _day) in &files {
            let (recs, file_stats) = read_logfile(path, *machine, *process)?;
            stats.absorb(&file_stats);
            records.extend(recs);
        }
        records.sort_by_key(|r| r.t);
        Ok((records, stats))
    }

    /// Groups the directory's logfiles by the day index in their names and
    /// returns a bounded-memory iterator over them, ascending. This is the
    /// off-disk scale path: [`DirSink`](crate::DirSink) picks each record's
    /// file by `t.day_index()`, so the day files exactly partition the trace
    /// by time, and one day (~1/30 of a month) is the largest buffer the
    /// reader ever holds: twice over while a day's sorted runs are merged
    /// into its chunk.
    ///
    /// Each chunk is sorted by `(t, origin, seq)`. On a *stamped* directory
    /// (see [`DirSink::create_stamped`](crate::DirSink::create_stamped))
    /// the concatenation of all chunks is therefore the exact canonical
    /// order of `MemorySink::take_sorted` — what lets off-disk analytics
    /// reproduce the in-memory results bit for bit. On an unstamped
    /// directory every record has origin and seq 0, and the concatenation
    /// equals [`Self::read_all`].
    pub fn day_chunks(&self, threads: usize) -> std::io::Result<DayChunks> {
        let (files, skipped_files) = self.logfiles()?;
        let mut days: Vec<(u64, Vec<LogfileEntry>)> = Vec::new();
        // `logfiles()` is path-sorted, not day-sorted (day is the last name
        // component), so group via a sort by day; the per-day file order
        // stays path-sorted because the sort is stable.
        let mut sorted = files;
        sorted.sort_by_key(|(_, _, _, day)| *day);
        for entry in sorted {
            match days.last_mut() {
                Some((day, group)) if *day == entry.3 => group.push(entry),
                _ => days.push((entry.3, vec![entry])),
            }
        }
        Ok(DayChunks {
            days,
            threads: threads.max(1),
            next: 0,
            skipped_files,
            timers: PhaseTimers::new(),
        })
    }
}

/// One day of a trace directory, parsed and canonically sorted.
pub struct DayChunk {
    /// The day index shared by every record's `t.day_index()`.
    pub day: u64,
    /// The day's records, sorted by `(t, origin, seq)`.
    pub records: Vec<TraceRecord>,
    /// Parse counters for this day's files only.
    pub stats: ParseStats,
}

/// Iterator over a trace directory's days in ascending order; see
/// [`LogDirReader::day_chunks`]. Only one day's records are in memory at a
/// time — the caller folds a chunk and drops it before asking for the next.
pub struct DayChunks {
    days: Vec<(u64, Vec<LogfileEntry>)>,
    threads: usize,
    next: usize,
    skipped_files: usize,
    timers: PhaseTimers,
}

impl DayChunks {
    /// Number of distinct days in the directory.
    pub fn days(&self) -> usize {
        self.days.len()
    }

    /// Foreign (non-logfile) files in the directory; attribute this once
    /// when summing chunk stats to reproduce [`LogDirReader::read_all`]'s
    /// totals.
    pub fn skipped_files(&self) -> usize {
        self.skipped_files
    }

    /// Parse and sort time of the days read so far: parse thread-time, the
    /// per-range sorts included, in `parse_nanos`, and the merges of the
    /// sorted runs in `sort_nanos`.
    pub fn phases(&self) -> PhaseNanos {
        self.timers.snapshot()
    }

    /// Reads, parses and canonically sorts the next day. `None` when every
    /// day has been consumed.
    ///
    /// Each byte range is parsed and stable-sorted by `(t, origin, seq)` on
    /// its parse worker. The sorted runs are then merged in parallel by key
    /// range: about four ranges per requested thread, as the parse plans
    /// its byte ranges, on at most one worker per core.
    pub fn next_day(&mut self) -> Option<std::io::Result<DayChunk>> {
        let (day, files) = self.days.get(self.next)?;
        self.next += 1;
        let timers = &self.timers;
        Some(
            read_sorted_runs(files, self.threads, timers).map(|(runs, stats)| {
                let t_merge = std::time::Instant::now();
                let pieces = self.threads * 4;
                let records = merge_runs_parallel(runs, pieces, worker_count(self.threads, pieces));
                timers.add(Phase::Sort, saturating_nanos(t_merge));
                DayChunk {
                    day: *day,
                    records,
                    stats,
                }
            }),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Payload, SessionEvent};
    use crate::sink::{DirSink, TraceSink};
    use std::io::Write;
    use u1_core::{SessionId, SimTime, UserId};

    #[test]
    fn logfile_names_round_trip() {
        for (m, p, d) in [(0u16, 0u16, 0u64), (3, 23, 28), (11, 255, 99)] {
            let name = logfile_name(MachineId::new(m), ProcessId::new(p), d);
            let (m2, p2, d2) = parse_logfile_name(&name).expect(&name);
            assert_eq!(m2.name(), MachineId::new(m).name());
            assert_eq!(p2.raw(), p);
            assert_eq!(d2, d);
        }
    }

    #[test]
    fn rejects_foreign_file_names() {
        assert_eq!(parse_logfile_name("README.md"), None);
        assert_eq!(parse_logfile_name("production-whitecurrant-1.csv"), None);
        assert_eq!(parse_logfile_name("production-mars-1-day01.csv"), None);
        assert_eq!(
            parse_logfile_name("production-whitecurrant-x-day01.csv"),
            None
        );
    }

    fn write_corrupted_dir(dir: &Path) -> Vec<TraceRecord> {
        let _ = fs::remove_dir_all(dir);
        let mut expected = Vec::new();
        {
            let sink = DirSink::create(dir).unwrap();
            for i in 0..50u64 {
                let rec = TraceRecord::new(
                    SimTime::from_secs(i * 100),
                    MachineId::new((i % 3) as u16),
                    ProcessId::new((i % 4) as u16),
                    Payload::Session {
                        event: if i % 2 == 0 {
                            SessionEvent::Open
                        } else {
                            SessionEvent::Close
                        },
                        session: SessionId::new(i),
                        user: UserId::new(i % 7),
                    },
                );
                expected.push(rec.clone());
                sink.record(rec);
            }
            sink.flush();
        }
        // Corrupt one file with garbage lines and drop in a foreign file.
        let garbage_target = fs::read_dir(dir).unwrap().next().unwrap().unwrap().path();
        {
            let mut f = fs::OpenOptions::new()
                .append(true)
                .open(&garbage_target)
                .unwrap();
            writeln!(f, "totally,bogus,line").unwrap();
            writeln!(f, "12345,frobnicate").unwrap();
        }
        fs::write(dir.join("notes.txt"), "not a trace\n").unwrap();
        expected.sort_by_key(|r| r.t);
        expected
    }

    #[test]
    fn write_then_read_round_trip_with_corruption_tolerance() {
        let dir = std::env::temp_dir().join(format!("u1-logdir-test-{}", std::process::id()));
        let expected = write_corrupted_dir(&dir);

        let (records, stats) = LogDirReader::new(&dir).read_all().unwrap();
        assert_eq!(stats.parsed, 50);
        assert_eq!(stats.malformed, 2);
        assert_eq!(stats.skipped_files, 1);
        assert!(stats.malformed_fraction() > 0.0);
        assert_eq!(records.len(), 50);
        // Sorted by time.
        assert!(records.windows(2).all(|w| w[0].t <= w[1].t));
        // Same multiset of payloads.
        for (a, b) in records.iter().zip(expected.iter()) {
            assert_eq!(a.t, b.t);
            assert_eq!(a.payload, b.payload);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// Drains `day_chunks(threads)`: every chunk's records concatenated in
    /// day order, and the chunk stats summed with the directory's skipped
    /// files counted once, as `read_all` counts them.
    fn drain_days(reader: &LogDirReader, threads: usize) -> (Vec<TraceRecord>, ParseStats) {
        let mut chunks = reader.day_chunks(threads).unwrap();
        let mut records = Vec::new();
        let mut stats = ParseStats {
            skipped_files: chunks.skipped_files(),
            ..ParseStats::default()
        };
        while let Some(chunk) = chunks.next_day() {
            let chunk = chunk.unwrap();
            stats.absorb(&chunk.stats);
            records.extend(chunk.records);
        }
        assert!(chunks.phases().parse_nanos > 0, "parse time not charged");
        (records, stats)
    }

    /// `DirSink` files split the trace by day, so the drained day reader
    /// equals the serial `read_all`, records and stats, at every thread
    /// count.
    #[test]
    fn parallel_read_is_identical_to_serial_at_every_thread_count() {
        let dir = std::env::temp_dir().join(format!("u1-logdir-par-test-{}", std::process::id()));
        let _ = write_corrupted_dir(&dir);

        let reader = LogDirReader::new(&dir);
        let (serial, serial_stats) = reader.read_all().unwrap();
        for threads in [1, 2, 3, 4, 8, 64] {
            let (par, par_stats) = drain_days(&reader, threads);
            assert_eq!(par_stats, serial_stats, "stats differ at {threads} threads");
            assert_eq!(par, serial, "records differ at {threads} threads");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// Satellite for the byte-range reader: adversarial split points — mid
    /// line, every line boundary, past EOF, degenerate zero-width — must
    /// reproduce the serial per-file records and [`ParseStats`] exactly,
    /// including on an empty file and a file whose final line has no
    /// trailing newline.
    #[test]
    fn range_reader_survives_adversarial_split_points() {
        let dir = std::env::temp_dir().join(format!("u1-logdir-split-test-{}", std::process::id()));
        let _ = write_corrupted_dir(&dir);
        // Adversarial additions: an empty (but valid-named) logfile and a
        // file whose final line lacks the trailing newline.
        let empty = dir.join("production-whitecurrant-7-day00.csv");
        fs::write(&empty, b"").unwrap();
        let target = dir.join("production-whitecurrant-1-day00.csv");
        let mut bytes = fs::read(&target).unwrap_or_default();
        if bytes.last() == Some(&b'\n') {
            bytes.pop();
            fs::write(&target, &bytes).unwrap();
        }

        let (files, _) = LogDirReader::new(&dir).logfiles().unwrap();
        assert!(files.iter().any(|(p, _, _, _)| p == &empty));
        for (path, machine, process, _day) in &files {
            let (serial, serial_stats) = read_logfile(path, *machine, *process).unwrap();
            let len = fs::metadata(path).unwrap().len();
            let splits: Vec<Vec<u64>> = vec![
                vec![],                              // no split at all
                vec![0, len, len + 10_000],          // boundaries + past EOF
                vec![1],                             // mid first line
                vec![len / 2],                       // mid file
                vec![len.saturating_sub(1)],         // inside the final line
                (0..len).step_by(7).collect(),       // dense, mostly mid-line
                (0..=len).collect(),                 // every byte a split
                vec![len / 3, len / 3, 2 * len / 3], // duplicates
            ];
            for split in &splits {
                let (recs, stats) =
                    read_logfile_at_splits(path, *machine, *process, split).unwrap();
                assert_eq!(
                    stats, serial_stats,
                    "per-file stats differ at splits {split:?} for {path:?}"
                );
                assert_eq!(
                    recs, serial,
                    "records differ at splits {split:?} for {path:?}"
                );
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// The day reader at thread counts 1/2/4/8 on a directory containing an
    /// empty file and a no-trailing-newline file: records and stats
    /// identical to the serial `read_all`.
    #[test]
    fn byte_range_parallel_read_matches_serial_with_edge_files() {
        let dir = std::env::temp_dir().join(format!("u1-logdir-range-test-{}", std::process::id()));
        let _ = write_corrupted_dir(&dir);
        fs::write(dir.join("production-whitecurrant-7-day00.csv"), b"").unwrap();
        let target = dir.join("production-whitecurrant-1-day00.csv");
        let mut bytes = fs::read(&target).unwrap_or_default();
        if bytes.last() == Some(&b'\n') {
            bytes.pop();
            fs::write(&target, &bytes).unwrap();
        }

        let reader = LogDirReader::new(&dir);
        let (serial, serial_stats) = reader.read_all().unwrap();
        for threads in [1, 2, 4, 8] {
            let (par, par_stats) = drain_days(&reader, threads);
            assert_eq!(par_stats, serial_stats, "stats differ at {threads} threads");
            assert_eq!(par, serial, "records differ at {threads} threads");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// Day-chunked reading of a *stamped* directory: chunks come back in
    /// ascending day order, each internally sorted by `(t, origin, seq)`,
    /// and their concatenation is the full canonical order — including
    /// equal-timestamp records from different origins, which `t`-only
    /// sorting cannot break deterministically.
    #[test]
    fn stamped_day_chunks_concatenate_into_canonical_order() {
        let dir = std::env::temp_dir().join(format!("u1-logdir-days-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut expected = Vec::new();
        {
            let sink = DirSink::create_stamped(&dir).unwrap();
            let mut i = 0u64;
            for day in 0..3u64 {
                for origin in 0..4u32 {
                    for seq in 0..25u64 {
                        // Deliberate cross-origin timestamp collisions: t
                        // depends on seq but not origin.
                        let mut rec = TraceRecord::new(
                            SimTime::from_secs(day * 86_400 + seq * 60),
                            MachineId::new((i % 3) as u16),
                            ProcessId::new((i % 4) as u16),
                            Payload::Session {
                                event: SessionEvent::Open,
                                session: SessionId::new(i),
                                user: UserId::new(origin as u64),
                            },
                        );
                        rec.origin = origin;
                        rec.seq = seq;
                        expected.push(rec.clone());
                        sink.record(rec);
                        i += 1;
                    }
                }
            }
            sink.flush();
        }
        expected.sort_by_key(|r| (r.t, r.origin, r.seq));

        for threads in [1, 4] {
            let mut chunks = LogDirReader::new(&dir).day_chunks(threads).unwrap();
            assert_eq!(chunks.days(), 3);
            assert_eq!(chunks.skipped_files(), 0);
            let mut all = Vec::new();
            let mut stats = ParseStats::default();
            let mut last_day = None;
            while let Some(chunk) = chunks.next_day() {
                let chunk = chunk.unwrap();
                assert!(last_day < Some(chunk.day), "days out of order");
                last_day = Some(chunk.day);
                assert!(chunk.records.iter().all(|r| r.t.day_index() == chunk.day));
                stats.absorb(&chunk.stats);
                all.extend(chunk.records);
            }
            assert_eq!(stats.parsed, expected.len());
            assert_eq!(stats.malformed, 0);
            assert_eq!(all, expected, "at {threads} threads");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// A storage-free record for hand-built day files; `user` tags it so a
    /// reordering shows.
    fn auth_rec(t_us: u64, user: u64, origin: u32, seq: u64) -> TraceRecord {
        TraceRecord {
            t: SimTime::from_micros(t_us),
            machine: MachineId::new(0),
            process: ProcessId::new(0),
            origin,
            seq,
            attempt: 1,
            error_class: None,
            payload: Payload::Auth {
                user: UserId::new(user),
                success: true,
            },
        }
    }

    /// Writes `lines` (each without its newline) as the logfile of
    /// `(whitecurrant, process, day)` under `dir`.
    fn write_day_file(dir: &Path, process: u16, day: u64, lines: &[Vec<u8>]) -> PathBuf {
        let path = dir.join(logfile_name(
            MachineId::new(0),
            ProcessId::new(process),
            day,
        ));
        let mut bytes = Vec::new();
        for line in lines {
            bytes.extend_from_slice(line);
            bytes.push(b'\n');
        }
        fs::write(&path, bytes).unwrap();
        path
    }

    fn stamped_line(rec: &TraceRecord) -> Vec<u8> {
        let mut line = String::new();
        csvline::write_line_stamped(rec, &mut line).unwrap();
        line.into_bytes()
    }

    fn plain_line(rec: &TraceRecord) -> Vec<u8> {
        csvline::to_line(rec).into_bytes()
    }

    /// The reference the day reader must equal: each of the day's files
    /// parsed serially in path order, concatenated, and stable-sorted by
    /// `(t, origin, seq)`.
    fn serial_day(dir: &Path, day: u64) -> (Vec<TraceRecord>, ParseStats) {
        let (files, _) = LogDirReader::new(dir).logfiles().unwrap();
        let mut records = Vec::new();
        let mut stats = ParseStats::default();
        for (path, machine, process, _) in files.iter().filter(|f| f.3 == day) {
            let (recs, file_stats) = read_logfile(path, *machine, *process).unwrap();
            stats.absorb(&file_stats);
            records.extend(recs);
        }
        records.sort_by_key(|r| (r.t, r.origin, r.seq));
        (records, stats)
    }

    /// Differential test of the day reader's per-range sort and parallel
    /// merge against a serial parse plus one stable sort, at 1/2/3/4/8
    /// threads, over days built to break it: an unstamped day where every
    /// record ties on origin and seq, a day where every record shares one
    /// timestamp, a day with an empty file, a day file large enough to be
    /// split into several byte ranges, and malformed lines throughout.
    #[test]
    fn day_merge_equals_serial_parse_and_stable_sort() {
        let dir = std::env::temp_dir().join(format!("u1-logdir-merge-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut draw = move |n: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % n
        };
        let day_us = 86_400_000_000u64;
        let mut user = 0u64;
        // Day 0: unstamped, coarse timestamps so ties cross files and runs.
        for process in 0..4u16 {
            let lines: Vec<Vec<u8>> = (0..300)
                .map(|_| {
                    user += 1;
                    plain_line(&auth_rec(draw(50) * 1_000_000, user, 0, 0))
                })
                .collect();
            write_day_file(&dir, process, 0, &lines);
        }
        // Day 1: every record at one instant, stamped with colliding
        // origins and sequence numbers, plus malformed lines and an empty
        // file.
        for process in 0..3u16 {
            let mut lines: Vec<Vec<u8>> = (0..200)
                .map(|i| {
                    user += 1;
                    stamped_line(&auth_rec(day_us + 7, user, (i % 2) as u32, i % 3))
                })
                .collect();
            lines.insert(17, b"totally,bogus,line".to_vec());
            lines.push(b"12345,frobnicate".to_vec());
            write_day_file(&dir, process, 1, &lines);
        }
        write_day_file(&dir, 9, 1, &[]);
        // Day 2: one file over four minimum ranges, written as per-origin
        // blocks the way a stamped sink leaves them, next to a small file.
        let mut big = Vec::new();
        let mut bytes = 0u64;
        let mut seq = [0u64; 8];
        while bytes < 4 * MIN_RANGE_BYTES + 4096 {
            let origin = draw(8) as u32;
            let mut t = 2 * day_us + draw(80_000_000_000);
            for _ in 0..1 + draw(40) {
                t += draw(3) * 1_000;
                seq[origin as usize] += 1;
                user += 1;
                let line = if draw(100) == 0 {
                    b"not,a,trace,line".to_vec()
                } else {
                    stamped_line(&auth_rec(t, user, origin, seq[origin as usize]))
                };
                bytes += line.len() as u64 + 1;
                big.push(line);
            }
        }
        write_day_file(&dir, 0, 2, &big);
        let small: Vec<Vec<u8>> = (0..50)
            .map(|i| stamped_line(&auth_rec(2 * day_us + i * 1_000_000, i, 9, i)))
            .collect();
        write_day_file(&dir, 1, 2, &small);
        // Day 3: nothing but an empty file.
        write_day_file(&dir, 0, 3, &[]);

        // The big file (the first of day 2) is split at every thread count.
        let (files, _) = LogDirReader::new(&dir).logfiles().unwrap();
        let day2: Vec<u64> = files
            .iter()
            .filter(|f| f.3 == 2)
            .map(|f| fs::metadata(&f.0).unwrap().len())
            .collect();
        assert!(plan_ranges(&day2, 1).iter().filter(|t| t.file == 0).count() > 1);
        for threads in [1, 2, 3, 4, 8] {
            let mut chunks = LogDirReader::new(&dir).day_chunks(threads).unwrap();
            assert_eq!(chunks.days(), 4);
            while let Some(chunk) = chunks.next_day() {
                let chunk = chunk.unwrap();
                let (want, want_stats) = serial_day(&dir, chunk.day);
                assert_eq!(
                    chunk.stats, want_stats,
                    "day {} at {threads} threads",
                    chunk.day
                );
                assert_eq!(
                    chunk.records, want,
                    "day {} at {threads} threads",
                    chunk.day
                );
            }
        }
        let (_, stats) = serial_day(&dir, 1);
        assert_eq!((stats.malformed, stats.files), (6, 4));
        let _ = fs::remove_dir_all(&dir);
    }

    /// A byte that is not UTF-8 makes its line malformed, not the read
    /// fatal: every reader skips that one line, counts it, and returns all
    /// the other records.
    #[test]
    fn non_utf8_line_is_malformed_not_fatal() {
        let dir = std::env::temp_dir().join(format!("u1-logdir-utf8-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let recs: Vec<TraceRecord> = (0..40)
            .map(|i| auth_rec(i * 1_000_000, i + 1, (i % 3) as u32, i))
            .collect();
        let mut lines: Vec<Vec<u8>> = recs.iter().map(stamped_line).collect();
        let mut bad = stamped_line(&auth_rec(20_500_000, 999, 0, 99));
        bad.insert(9, 0xFF);
        lines.insert(21, bad);
        let path = write_day_file(&dir, 0, 0, &lines);
        let (m, p) = (MachineId::new(0), ProcessId::new(0));
        let mut sorted = recs.clone();
        sorted.sort_by_key(|r| (r.t, r.origin, r.seq));
        let check =
            |records: &[TraceRecord], stats: &ParseStats, want: &[TraceRecord], what: &str| {
                assert_eq!(stats.malformed, 1, "{what}");
                assert_eq!(stats.parsed, recs.len(), "{what}");
                assert_eq!(records, want, "{what}");
            };

        let (records, stats) = read_logfile(&path, m, p).unwrap();
        check(&records, &stats, &recs, "read_logfile");
        let len = fs::metadata(&path).unwrap().len();
        for splits in [
            vec![1],
            vec![len / 2],
            (0..len).step_by(7).collect(),
            (0..=len).collect(),
        ] {
            let (records, stats) = read_logfile_at_splits(&path, m, p, &splits).unwrap();
            check(&records, &stats, &recs, "read_logfile_at_splits");
        }
        let reader = LogDirReader::new(&dir);
        let (records, stats) = reader.read_all().unwrap();
        check(&records, &stats, &recs, "read_all");
        for threads in [1, 2, 4, 8] {
            let mut chunks = reader.day_chunks(threads).unwrap();
            let chunk = chunks.next_day().unwrap().unwrap();
            check(&chunk.records, &chunk.stats, &sorted, "day_chunks");
            assert!(chunks.next_day().is_none());
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// The range planner: every byte covered exactly once, per-file `first`
    /// flags, empty files kept, large files split.
    #[test]
    fn range_planner_covers_every_byte_exactly_once() {
        let sizes = [3 * MIN_RANGE_BYTES + 17, 0, 1, MIN_RANGE_BYTES];
        let tasks = plan_ranges(&sizes, 4);
        for (file, &len) in sizes.iter().enumerate() {
            let mine: Vec<&RangeTask> = tasks.iter().filter(|t| t.file == file).collect();
            assert!(!mine.is_empty(), "file {file} lost");
            assert!(mine[0].first && mine[0].start == 0);
            assert!(mine[1..].iter().all(|t| !t.first));
            assert_eq!(mine.last().unwrap().end, len);
            for w in mine.windows(2) {
                assert_eq!(w[0].end, w[1].start, "gap/overlap in file {file}");
            }
        }
        // The big file actually split; the empty file still has one task.
        assert!(tasks.iter().filter(|t| t.file == 0).count() > 1);
        assert_eq!(
            tasks
                .iter()
                .filter(|t| t.file == 1)
                .map(|t| (t.start, t.end))
                .collect::<Vec<_>>(),
            vec![(0, 0)]
        );
    }
}
