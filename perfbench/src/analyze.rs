//! `analyze`: the analyze pipeline, `engine::run_all_offdisk`, over one
//! month streamed to stamped day files during set-up. Parse and fold do the
//! work here, and no other workload runs them.

use crate::check::Checks;
use crate::span::Recorder;
use crate::stats::{median, ratio};
use crate::{
    measure, median_rate, metric, overhead_frac, peak_rss_mb, timed, Outcome, Params, Scale,
};
use std::path::Path;
use std::time::Instant;
use u1_analytics::engine::{
    fold_chunked_into, run_all, run_all_offdisk, Battery, EngineConfig, EngineReport, TraceFold,
};
use u1_bench::{engine_config, run_scenario, run_scenario_streamed, Fingerprint};
use u1_core::timing::PhaseTimers;
use u1_server::BackendConfig;
use u1_trace::{LogDirReader, ParseStats};
use u1_workload::WorkloadConfig;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

fn config(params: &Params) -> WorkloadConfig {
    let mut cfg = WorkloadConfig::paper_scaled();
    if params.scale == Scale::Tiny {
        cfg.users = 60;
        cfg.days = 3;
    }
    cfg.seed ^= params.seed;
    cfg.workers = params.threads;
    cfg
}

/// The engine configuration of a month streamed by [`write_days`]: the
/// horizon, and the default back-end's API machines and store shards.
fn engine_config_of(cfg: &WorkloadConfig) -> EngineConfig {
    let backend = BackendConfig::default();
    EngineConfig::new(
        cfg.horizon(),
        backend.cluster.machines as usize,
        backend.store.shards as usize,
    )
}

/// The set-up: streams the workload's month to stamped day files under
/// `dir`, replacing what was there, and writes them back to disk so no
/// writeback of the set-up runs under the clock. Returns the trace I/O
/// errors met.
pub fn write_days(params: &Params, dir: &Path) -> std::io::Result<u64> {
    let _ = std::fs::remove_dir_all(dir);
    let errors = run_scenario_streamed(config(params), dir)?
        .report
        .trace_io_errors;
    for entry in std::fs::read_dir(dir)? {
        std::fs::File::open(entry?.path())?.sync_all()?;
    }
    Ok(errors)
}

/// Runs [`write_days`] in a child process, so the set-up's memory does
/// not count in this process's peak resident set.
fn set_up(params: &Params, dir: &Path) -> Result<(), String> {
    let scale = match params.scale {
        Scale::Full => "full",
        Scale::Tiny => "tiny",
    };
    let status = std::process::Command::new(&params.exe)
        .arg("--write-days")
        .arg(dir)
        .args(["--seed", &params.seed.to_string(), "--scale", scale])
        .stdout(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("starting the set-up process: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("set-up process failed: {status}"))
    }
}

pub fn run(params: &Params) -> Outcome {
    let cfg = config(params);
    let threads = params.threads;
    let dir = params
        .work_dir
        .join(format!("analyze-days-{}", std::process::id()));
    let mut checks = Checks::default();

    // Set-up: stream the month to stamped day files.
    let setup_s: Vec<f64> = (0..SETUPS)
        .map(|_| {
            let (dt, done) = timed(|| set_up(params, &dir));
            if let Err(e) = done {
                checks.expect(false, || e);
            }
            dt
        })
        .collect();
    let engine_cfg = engine_config_of(&cfg);
    let bytes = dir_bytes(&dir);

    let mut reference: Option<Fingerprint> = None;
    let mut records = 0u64;
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let times = measure(
        params.seconds,
        || timed(|| run_all_offdisk(&dir, &engine_cfg, threads).expect("read the day files")),
        |(report, stats)| {
            records += report.summary.records;
            attempted += stats.parse.lines as u64;
            failed += stats.parse.malformed as u64;
            checks.expect_eq(stats.days as u64, cfg.days, "days folded");
            expect_fingerprint(&mut reference, &report, &mut checks);
        },
    );
    let peak = peak_rss_mb();
    let reference = reference.expect("measure runs at least once");
    let per_pass = records as f64 / times.len() as f64;
    let per_s = median_rate(times.iter().map(|&t| (per_pass, t)));

    // The same month held in memory, analyzed in one pass, must agree.
    let scn = run_scenario(cfg.clone());
    let want = format!("{:?}", engine_config(&scn));
    checks.expect(format!("{engine_cfg:?}") == want, || {
        "engine configuration differs from the in-memory month's".to_string()
    });
    let in_memory = Fingerprint::of(&run_all(&scn.records, &engine_config(&scn)));
    checks.expect_eq(&in_memory, &reference, "fingerprint off disk vs in memory");
    drop(scn);

    let spans = params.trace.then(Recorder::new);
    let layers = match &spans {
        Some(rec) => {
            let mut fp = Some(reference.clone());
            let mut pass = 0u64;
            let mut runs = 0u64;
            let mut traced_records = 0u64;
            let mut lines = 0u64;
            let mut malformed = 0u64;
            let mut peak_chunk = 0usize;
            let times = measure(
                params.seconds,
                || {
                    pass += 1;
                    timed(|| traced_pass(&dir, &engine_cfg, threads, rec, pass))
                },
                |(report, parse, chunk)| {
                    runs += 1;
                    traced_records += report.summary.records;
                    lines = parse.lines as u64;
                    malformed = parse.malformed as u64;
                    peak_chunk = chunk;
                    expect_fingerprint(&mut fp, &report, &mut checks);
                },
            );
            let runs = runs as f64;
            let parse_s = rec.total_self("next_day") as f64 / runs / 1e9;
            let fold_ns = rec.total("fold") as f64;
            let traced_per_s = median_rate(times.iter().map(|&t| (per_pass, t)));
            vec![
                metric("logfile.parse_s", "s", parse_s),
                metric(
                    "logfile.mb_per_s",
                    "MB/s",
                    ratio(bytes as f64 / 1048576.0, parse_s),
                ),
                metric("logfile.lines", "count", lines as f64),
                metric("logfile.malformed", "count", malformed as f64),
                metric("engine.fold_s", "s", fold_ns / runs / 1e9),
                metric(
                    "engine.fold_ns_per_record",
                    "ns",
                    fold_ns / traced_records as f64,
                ),
                metric(
                    "engine.finish_s",
                    "s",
                    rec.total("finish") as f64 / runs / 1e9,
                ),
                metric("engine.peak_chunk_records", "count", peak_chunk as f64),
                metric(
                    "trace.overhead_frac",
                    "ratio",
                    overhead_frac(per_s, traced_per_s),
                ),
                metric("trace.spans", "count", rec.len() as f64),
            ]
        }
        None => Vec::new(),
    };
    let _ = std::fs::remove_dir_all(&dir);

    Outcome {
        checks,
        attempted,
        failed,
        e2e: vec![
            metric("setup_s", "s", median(&setup_s)),
            metric("throughput_per_s", "1/s", per_s),
            metric("latency_p50_us", "us", median(&times) * 1e6 / per_pass),
        ],
        named: vec![
            metric("peak_rss_mb", "MB", peak),
            metric("analyze_records_per_s", "1/s", per_s),
            metric("analyze_s", "s", median(&times)),
            metric("trace_mb", "MB", bytes as f64 / 1048576.0),
            metric(
                "failed_frac",
                "ratio",
                ratio(failed as f64, attempted as f64),
            ),
        ],
        layers,
        spans,
    }
}

fn expect_fingerprint(
    reference: &mut Option<Fingerprint>,
    report: &EngineReport,
    checks: &mut Checks,
) {
    let fp = Fingerprint::of(report);
    match reference {
        Some(r) => checks.expect_eq(&fp, &*r, "fingerprint of a repeated pass"),
        None => *reference = Some(fp),
    }
}

/// `run_all_offdisk` rebuilt from the layers' public calls, with a span
/// around each: `day_chunks`, then per day `next_day` (read, parse and
/// sort) and `fold` (`fold_chunked_into`), then `finish`. Returns the
/// report, the summed parse counters and the largest day.
fn traced_pass(
    dir: &Path,
    cfg: &EngineConfig,
    threads: usize,
    rec: &Recorder,
    pass: u64,
) -> (EngineReport, ParseStats, usize) {
    let root = rec.open("analyze", None, pass);
    let mut chunks = rec
        .time("day_chunks", Some(root), pass, || {
            LogDirReader::new(dir).day_chunks(threads)
        })
        .expect("list the day files");
    let mut parse = ParseStats {
        skipped_files: chunks.skipped_files(),
        ..ParseStats::default()
    };
    let mut battery = Battery::new(cfg);
    let timers = PhaseTimers::new();
    let mut peak_chunk = 0usize;
    loop {
        let start = Instant::now();
        let Some(chunk) = chunks.next_day() else {
            break;
        };
        let chunk = chunk.expect("read a day file");
        rec.record("next_day", Some(root), chunk.day, start, Instant::now());
        parse.absorb(&chunk.stats);
        peak_chunk = peak_chunk.max(chunk.records.len());
        rec.time("fold", Some(root), chunk.day, || {
            fold_chunked_into(&mut battery, &chunk.records, threads, &timers)
        });
    }
    let report = rec.time("finish", Some(root), pass, || battery.finish());
    rec.close(root);
    (report, parse, peak_chunk)
}

/// Total size of the files directly under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}
