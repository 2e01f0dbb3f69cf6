//! End-to-end and per-layer benchmark of the three pipelines: simulate a
//! month (`month`, `crowd`), analyze it (`analyze`) and serve it (`serve`).
//!
//! Every workload sets up, measures its pipeline for a fixed wall-clock
//! budget with tracing off, then checks the pipeline's output. A traced
//! run (`trace`) measures the same pipeline a second time with a span
//! around every call into a layer and reports per-layer figures, plus the
//! tracing overhead as the difference between the two measurements. See
//! `README.md` for the workloads, the metrics and which layer figure
//! should move which end-to-end figure.

pub mod analyze;
pub mod check;
pub mod probe;
pub mod serve;
pub mod sim;
pub mod span;
pub mod stats;

use std::path::PathBuf;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Month,
    Crowd,
    Analyze,
    Serve,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Month,
        Workload::Crowd,
        Workload::Analyze,
        Workload::Serve,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Month => "month",
            Workload::Crowd => "crowd",
            Workload::Analyze => "analyze",
            Workload::Serve => "serve",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Input size. `Full` is what the benchmark measures; `Tiny` runs the same
/// code paths in well under a second, for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

#[derive(Debug, Clone)]
pub struct Params {
    /// The `--seed` value. Workload seeds are the paper defaults XOR this,
    /// so seed 0 runs the default (golden) configurations.
    pub seed: u64,
    /// Measured wall-clock budget.
    pub seconds: f64,
    /// Also make the traced run and report per-layer metrics.
    pub trace: bool,
    pub scale: Scale,
    /// Worker threads, client connections and fold threads: the host's
    /// CPU count.
    pub threads: usize,
    /// Scratch space for day files and span dumps.
    pub work_dir: PathBuf,
    /// This benchmark's executable: `analyze` streams its month in a child
    /// process, so the peak resident set it reports is the analyze
    /// pipeline's own.
    pub exe: PathBuf,
}

impl Params {
    pub fn host_cpus() -> usize {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

/// One named figure with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

pub fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

/// What a workload run produced.
pub struct Outcome {
    pub checks: check::Checks,
    /// Operations the measured pipeline attempted, and how many failed,
    /// were refused or were evicted.
    pub attempted: u64,
    pub failed: u64,
    /// The end-to-end metrics every workload reports (see [`END_TO_END`]).
    pub e2e: Vec<Metric>,
    /// Further end-to-end figures for the log: peak resident set, the
    /// failed share, and the throughput and latency figures under the
    /// pipeline's own names (`sim_records_per_s`, `exchange_p99_us`, ...).
    pub named: Vec<Metric>,
    /// Per-layer metrics from the traced run (empty when untraced).
    pub layers: Vec<Metric>,
    /// The traced run's spans.
    pub spans: Option<span::Recorder>,
}

/// End-to-end metrics, reported by every workload: name, unit.
/// `throughput_per_s` counts trace records per second, median over the
/// run's iterations: simulated (`month`, `crowd`), analyzed (`analyze`) or
/// written by the served back-end (`serve`, per round).
/// `latency_p50_us` is the median time of one unit of work as the
/// pipeline's user meets it: one exchange for `serve`; for the batch
/// pipelines, one record (run time over records, median over runs).
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_us", "us"),
];

/// Per-layer metrics, reported by every traced run: name, unit. A layer a
/// workload does not run reports 0.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("driver.worker_run_s", "s"),
        ("driver.worker_run_ns_per_record", "ns"),
        ("driver.barrier_park_frac", "ratio"),
        ("driver.day_flush_s", "s"),
        ("driver.seal_s", "s"),
        ("driver.coordinator_s", "s"),
        ("driver.ops", "count"),
        ("metastore.shard_users_max_over_mean", "ratio"),
        ("metastore.dedup_ratio", "ratio"),
        ("metastore.contents", "count"),
        ("blobstore.put_ops", "count"),
        ("blobstore.get_ops", "count"),
        ("blobstore.bytes_stored_per_uploaded_byte", "ratio"),
        ("blobstore.multipart_aborted", "count"),
        ("logfile.parse_s", "s"),
        ("logfile.mb_per_s", "MB/s"),
        ("logfile.lines", "count"),
        ("logfile.malformed", "count"),
        ("engine.fold_s", "s"),
        ("engine.fold_ns_per_record", "ns"),
        ("engine.finish_s", "s"),
        ("engine.peak_chunk_records", "count"),
        ("client.model_s", "s"),
        ("client.connect_p50_us", "us"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect();
    for op in probe::Call::OPS {
        v.push((format!("client.{}_p50_us", op.label()), "us"));
        v.push((format!("client.{}_p99_us", op.label()), "us"));
    }
    for op in probe::Call::OPS {
        v.push((format!("api.{}_p50_us", op.label()), "us"));
    }
    for op in probe::Call::OPS {
        v.push((format!("wire.{}_overhead_p50_us", op.label()), "us"));
    }
    for (n, u) in [
        ("reactor.accept_s", "s"),
        ("reactor.read_s", "s"),
        ("reactor.serve_s", "s"),
        ("reactor.write_s", "s"),
        ("reactor.busy_frac", "ratio"),
        ("reactor.accepted", "count"),
        ("reactor.refused_throttle", "count"),
        ("reactor.refused_capacity", "count"),
        ("reactor.evicted_slow", "count"),
        ("reactor.eof_reaps", "count"),
        ("reactor.protocol_errors", "count"),
        ("trace.overhead_frac", "ratio"),
        ("trace.spans", "count"),
    ] {
        v.push((n.to_string(), u));
    }
    v
}

/// Calls `f` repeatedly for about `seconds` of measured time, at least
/// once, and returns each call's measured seconds. `f` returns the seconds
/// it measured (see [`timed`]) with its result; `after` gets each result
/// outside the clock (checks, counters). A call is started only if it
/// would end nearer the budget than stopping now.
pub fn measure<T>(
    seconds: f64,
    mut f: impl FnMut() -> (f64, T),
    mut after: impl FnMut(T),
) -> Vec<f64> {
    let mut times = Vec::new();
    let mut total = 0.0;
    loop {
        let (dt, out) = f();
        after(out);
        times.push(dt);
        total += dt;
        if total + dt / 2.0 > seconds {
            return times;
        }
    }
}

/// Median over runs of `work / seconds`, from `(work, seconds)` pairs: one
/// slow run or one heavy round moves it no more than any other run.
pub fn median_rate(runs: impl IntoIterator<Item = (f64, f64)>) -> f64 {
    let rates: Vec<f64> = runs.into_iter().map(|(work, secs)| work / secs).collect();
    stats::median(&rates)
}

/// Wall time of `f`, in seconds, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

/// Peak resident set of this process so far, MB.
pub fn peak_rss_mb() -> f64 {
    u1_bench::mem::peak_rss_bytes().unwrap_or(0) as f64 / (1024.0 * 1024.0)
}

/// Tracing overhead: the share of untraced throughput the traced run lost.
pub fn overhead_frac(untraced_per_s: f64, traced_per_s: f64) -> f64 {
    stats::ratio(untraced_per_s - traced_per_s, untraced_per_s)
}

/// Runs one workload.
pub fn run(workload: Workload, params: &Params) -> Outcome {
    match workload {
        Workload::Month | Workload::Crowd => sim::run(workload, params),
        Workload::Analyze => analyze::run(params),
        Workload::Serve => serve::run(params),
    }
}
