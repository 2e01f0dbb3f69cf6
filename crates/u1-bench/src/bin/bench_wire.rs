//! Wire-tier benchmark: the closed-loop client fleet over real loopback
//! sockets against the epoll reactor.
//!
//! Two sections, both recorded in `BENCH_wire.json`:
//!
//! 1. **Parity** — the golden fleet scenario is run twice in lockstep
//!    virtual time, once through [`DirectTransport`] and once through
//!    [`TcpTransport`] against the reactor. The reactor's per-IP accept
//!    burst sits far above any session rate the fleet reaches, so no
//!    session is refused (asserted). The fleet reports must be equal and
//!    the canonical back-end traces byte-identical; any divergence panics,
//!    which is the CI gate for "the socket path adds transport, not
//!    behavior".
//! 2. **Load** — a concurrent fleet (one thread per client, think times
//!    compressed) drives the reactor over loopback while we record
//!    per-exchange service times (p50/p99/p999), per-op breakdowns,
//!    per-shard request balance, the reactor's admission counters, and
//!    its phase timers.
//!
//! Environment overrides: `U1_FLEET_USERS`, `U1_FLEET_SESSIONS`,
//! `U1_SEED`, `U1_FLEET_TIMESCALE` (think-time compression for the load
//! section).
//!
//! Latency numbers from a loopback socket on a shared CI box are shaped
//! by the host, so the document carries the usual `host_cpus` /
//! `scaling_valid` stamp; the parity verdict is host-independent.

use serde_json::json;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;
use u1_auth::AuthConfig;
use u1_client::{DirectTransport, TcpTransport};
use u1_core::{RealClock, SimClock, UserId};
use u1_server::{Backend, BackendConfig, ReactorConfig, TcpServer};
use u1_trace::{trace_hash, MemorySink};
use u1_workload::{fleet, FleetConfig, FleetReport};

fn fleet_backend_cfg() -> BackendConfig {
    BackendConfig {
        auth: AuthConfig {
            transient_failure_rate: 0.0,
            token_ttl: None,
        },
        ..Default::default()
    }
}

fn register(backend: &Backend, users: u32) -> Vec<u1_auth::Token> {
    (0..users)
        .map(|i| backend.register_user(UserId::new(u64::from(i) + 1)))
        .collect()
}

fn run_direct(cfg: &FleetConfig) -> (FleetReport, String, u64) {
    let clock = Arc::new(SimClock::new());
    let sink = Arc::new(MemorySink::new());
    let backend = Arc::new(Backend::new(
        fleet_backend_cfg(),
        clock.clone(),
        sink.clone(),
    ));
    let tokens = register(&backend, cfg.users);
    let report = fleet::run_lockstep(cfg, &clock, &tokens, |_| {
        DirectTransport::new(Arc::clone(&backend))
    });
    let records = sink.take_sorted();
    let n = records.len() as u64;
    (report, trace_hash(&records), n)
}

fn run_wire(cfg: &FleetConfig) -> (FleetReport, String, u64) {
    let clock = Arc::new(SimClock::new());
    let sink = Arc::new(MemorySink::new());
    let backend = Arc::new(Backend::new(
        fleet_backend_cfg(),
        clock.clone(),
        sink.clone(),
    ));
    let tokens = register(&backend, cfg.users);
    // A lockstep fleet opens sessions as fast as the loop runs, far above
    // the default per-IP accept burst; a refused session would make the
    // two runs differ.
    let reactor = ReactorConfig {
        accept_burst_per_ip: 1_000_000,
        ..ReactorConfig::default()
    };
    let server =
        TcpServer::start_with(Arc::clone(&backend), "127.0.0.1:0", reactor).expect("bind reactor");
    let addr = server.local_addr();
    let report = fleet::run_lockstep(cfg, &clock, &tokens, |_| {
        TcpTransport::connect(addr)
            .expect("loopback connect")
            .with_sparse_content()
    });
    let refused = server.stats().refused_throttle;
    server.shutdown();
    assert_eq!(refused, 0, "the parity run's reactor throttled sessions");
    let records = sink.take_sorted();
    let n = records.len() as u64;
    (report, trace_hash(&records), n)
}

/// Nearest-rank percentile over an ascending-sorted sample set.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn env_u32(key: &str, default: u32) -> u32 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let scaling_valid = host_cpus >= 2;

    let cfg = FleetConfig {
        users: env_u32("U1_FLEET_USERS", 32),
        sessions_per_user: env_u32("U1_FLEET_SESSIONS", 2),
        seed: std::env::var("U1_SEED")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(11),
    };
    let time_scale: u64 = std::env::var("U1_FLEET_TIMESCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1_000_000);

    // --- Section 1: parity. The wire tier must be behavior-invisible. ---
    println!(
        "[wire] parity: lockstep fleet, direct vs tcp ({} users)",
        cfg.users
    );
    let (direct_report, direct_hash, direct_records) = run_direct(&cfg);
    let (wire_report, wire_hash, wire_records) = run_wire(&cfg);
    assert_eq!(
        direct_report, wire_report,
        "fleet reports diverged between in-process and wire transports"
    );
    assert_eq!(
        direct_hash, wire_hash,
        "canonical traces diverged between in-process and wire transports"
    );
    assert_eq!(direct_records, wire_records);
    println!(
        "[wire] parity OK: {} trace records, sha1 {}",
        direct_records, direct_hash
    );

    // --- Section 2: concurrent load over loopback. ---
    println!(
        "[wire] load: {} clients x {} sessions, timescale {}x",
        cfg.users, cfg.sessions_per_user, time_scale
    );
    let sink = Arc::new(MemorySink::new());
    let backend = Arc::new(Backend::new(
        fleet_backend_cfg(),
        Arc::new(RealClock::new()),
        sink.clone(),
    ));
    let shards = backend.config().store.shards;
    let tokens = register(&backend, cfg.users);
    let server = TcpServer::start(Arc::clone(&backend), "127.0.0.1:0").expect("bind reactor");
    let addr = server.local_addr();
    let started = Instant::now();
    let (load_report, samples) = fleet::run_concurrent(&cfg, &tokens, time_scale, |_| {
        TcpTransport::connect(addr)
            .expect("loopback connect")
            .with_sparse_content()
    });
    let wall_secs = started.elapsed().as_secs_f64();

    // Per-shard request balance: every timed exchange attributed to its
    // client's home shard.
    let mut shard_ops = vec![0u64; shards as usize];
    for s in &samples {
        let shard = backend
            .store
            .shard_of(UserId::new(u64::from(s.client) + 1))
            .raw() as usize
            % shard_ops.len();
        shard_ops[shard] += 1;
    }
    let busiest = shard_ops.iter().copied().max().unwrap_or(0);
    let quietest_nonzero = shard_ops
        .iter()
        .copied()
        .filter(|&c| c > 0)
        .min()
        .unwrap_or(0);

    // Service-time distribution, overall and per op.
    let mut all: Vec<u64> = samples.iter().map(|s| s.nanos).collect();
    all.sort_unstable();
    let mut per_op: std::collections::BTreeMap<&'static str, Vec<u64>> =
        std::collections::BTreeMap::new();
    for s in &samples {
        per_op.entry(s.op.label()).or_default().push(s.nanos);
    }
    let per_op_rows: Vec<serde_json::Value> = per_op
        .into_iter()
        .map(|(op, mut v)| {
            v.sort_unstable();
            json!({
                "op": op,
                "count": v.len() as u64,
                "p50_nanos": percentile(&v, 50.0),
                "p99_nanos": percentile(&v, 99.0),
            })
        })
        .collect();

    let stats = server.stats();
    let phases = server.phase_nanos();
    server.shutdown();

    let ops_per_sec = if wall_secs > 0.0 {
        load_report.ops_executed as f64 / wall_secs
    } else {
        0.0
    };
    let mut human = String::new();
    let _ = writeln!(
        human,
        "parity          : OK ({direct_records} records, sha1 {direct_hash})"
    );
    let _ = writeln!(
        human,
        "load            : {} ops in {:.2}s over loopback ({:.0} ops/s)",
        load_report.ops_executed, wall_secs, ops_per_sec
    );
    let _ = writeln!(
        human,
        "service time    : p50 {:.3}ms  p99 {:.3}ms  p999 {:.3}ms ({} samples)",
        percentile(&all, 50.0) as f64 / 1e6,
        percentile(&all, 99.0) as f64 / 1e6,
        percentile(&all, 99.9) as f64 / 1e6,
        all.len()
    );
    let _ = writeln!(
        human,
        "shard balance   : busiest {} / quietest {} requests across {} shards",
        busiest, quietest_nonzero, shards
    );
    let _ = writeln!(
        human,
        "admission       : {} accepted, {} byes, {} eof reaps, {} evicted",
        stats.accepted, stats.graceful_byes, stats.eof_reaps, stats.evicted_slow
    );

    u1_bench::emit(
        "BENCH_wire",
        &human,
        &json!({
            "config": {
                "users": cfg.users,
                "sessions_per_user": cfg.sessions_per_user,
                "seed": cfg.seed,
                "time_scale": time_scale,
            },
            "host_cpus": host_cpus,
            "scaling_valid": scaling_valid,
            "parity": {
                "reports_equal": true,
                "traces_equal": true,
                "trace_records": direct_records,
                "trace_hash": direct_hash,
                "report": direct_report,
            },
            "load": {
                "wall_secs": wall_secs,
                "ops": load_report.ops_executed,
                "ops_per_sec": ops_per_sec,
                "op_errors": load_report.op_errors,
                "sessions": load_report.sessions,
                "uploads": load_report.uploads,
                "downloads": load_report.downloads,
                "bytes_uploaded": load_report.bytes_uploaded,
                "service_time_nanos": {
                    "samples": all.len() as u64,
                    "p50": percentile(&all, 50.0),
                    "p99": percentile(&all, 99.0),
                    "p999": percentile(&all, 99.9),
                    "max": all.last().copied().unwrap_or(0),
                },
                "per_op": per_op_rows,
                "shard_ops": shard_ops,
                "shard_balance": {
                    "shards": shards,
                    "busiest_ops": busiest,
                    "quietest_nonzero_ops": quietest_nonzero,
                },
                "admission": {
                    "accepted": stats.accepted,
                    "refused_capacity": stats.refused_capacity,
                    "refused_throttle": stats.refused_throttle,
                    "evicted_slow": stats.evicted_slow,
                    "graceful_byes": stats.graceful_byes,
                    "eof_reaps": stats.eof_reaps,
                    "protocol_errors": stats.protocol_errors,
                    "pushes_forwarded": stats.pushes_forwarded,
                },
                "reactor_phase_nanos": phases,
            },
        }),
    );
}
