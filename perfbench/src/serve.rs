//! `serve`: the serve pipeline, a closed loop. `fleet::run_lockstep` runs
//! two clients, each opening a fresh connection per session with one
//! request in flight, over `TcpTransport` to a `TcpServer` reactor. The
//! reactor, codec and sockets do the work here, and no other workload runs
//! them.
//!
//! Two clients are two draws of the session model's heavy-tailed user
//! profiles, so one fleet says more about its seed than about the server.
//! The workload therefore runs consecutive rounds, each a fresh back-end
//! and reactor with its own two clients (round `r` seeds its fleet from the
//! run seed and `r`), until the time budget is spent.
//!
//! Every client connects from 127.0.0.1, so the reactor is started with a
//! per-IP accept burst far above the fleet's session rate: the default of
//! 256 accepts per IP per second would refuse sessions and the fleet would
//! no longer match its in-process run.

use crate::check::{self, Checks};
use crate::probe::{Call, Tap};
use crate::stats::{median, percentile, ratio, supported_percentile, us};
use crate::{
    measure, median_rate, metric, overhead_frac, peak_rss_mb, timed, Metric, Outcome, Params, Scale,
};
use std::sync::Arc;
use u1_auth::{AuthConfig, Token};
use u1_client::{DirectTransport, TcpTransport, Transport};
use u1_core::timing::PhaseNanos;
use u1_core::{rngx, SimClock, UserId};
use u1_server::{Backend, BackendConfig, ReactorConfig, TcpServer, WireStats};
use u1_trace::MemorySink;
use u1_workload::{fleet, FleetConfig, FleetReport};

/// Sessions each client runs per round at full scale.
pub const SESSIONS_PER_CLIENT: u32 = 100;

/// Rounds whose in-process reference the set-up computes: enough rounds
/// that the heavy-tailed profiles average out and the set-up's cost varies
/// little between seeds.
const SETUP_ROUNDS: u64 = 64;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Round `round`'s fleet: two clients (fewer on a one-CPU host).
pub fn fleet_config(params: &Params, round: u64) -> FleetConfig {
    let root = FleetConfig::default().seed ^ params.seed;
    FleetConfig {
        users: params.threads.clamp(1, 2) as u32,
        sessions_per_user: match params.scale {
            Scale::Full => SESSIONS_PER_CLIENT,
            Scale::Tiny => 20,
        },
        seed: rngx::derive_seed(root, "perfbench-serve-round", round),
    }
}

/// Lets every session of the fleet in: the per-IP accept burst is far
/// above any session rate a closed loop of a few clients reaches.
fn reactor_config() -> ReactorConfig {
    ReactorConfig {
        accept_burst_per_ip: 1_000_000,
        ..ReactorConfig::default()
    }
}

/// One lockstep fleet round and what it left behind.
pub struct Round {
    pub report: FleetReport,
    pub hash: String,
    /// Trace records the back-end wrote.
    pub records: u64,
    /// Wall time of `run_lockstep` alone.
    pub secs: f64,
    /// Reactor counters and phase times; `None` in process.
    pub wire: Option<(WireStats, PhaseNanos)>,
}

/// A fault-free measurement-mode backend under a virtual clock, with the
/// fleet's users registered in client order.
fn backend(cfg: &FleetConfig) -> (Arc<SimClock>, Arc<Backend>, Arc<MemorySink>, Vec<Token>) {
    let clock = Arc::new(SimClock::new());
    let sink = Arc::new(MemorySink::new());
    let backend = Arc::new(Backend::new(
        BackendConfig {
            auth: AuthConfig {
                transient_failure_rate: 0.0,
                token_ttl: None,
            },
            ..BackendConfig::default()
        },
        clock.clone(),
        sink.clone(),
    ));
    let tokens = (0..cfg.users)
        .map(|i| backend.register_user(UserId::new(u64::from(i) + 1)))
        .collect();
    (clock, backend, sink, tokens)
}

/// Runs the lockstep fleet over transports from `connect`, each wrapped in
/// a probe on `tap` when one is given. Returns the report and the seconds
/// `run_lockstep` took.
fn lockstep<T: Transport>(
    cfg: &FleetConfig,
    clock: &SimClock,
    tokens: &[Token],
    tap: Option<&Tap>,
    mut connect: impl FnMut() -> T,
) -> (f64, FleetReport) {
    match tap {
        Some(tap) => timed(|| {
            tap.run("fleet", || {
                fleet::run_lockstep(cfg, clock, tokens, |_| tap.wrap(&mut connect))
            })
        }),
        None => timed(|| fleet::run_lockstep(cfg, clock, tokens, |_| connect())),
    }
}

/// The fleet in process, through `DirectTransport`.
pub fn run_direct(cfg: &FleetConfig, tap: Option<&Tap>) -> Round {
    let (clock, backend, sink, tokens) = backend(cfg);
    let (secs, report) = lockstep(cfg, &clock, &tokens, tap, || {
        DirectTransport::new(Arc::clone(&backend))
    });
    let records = sink.take_sorted();
    Round {
        report,
        hash: check::trace_hash(&records),
        records: records.len() as u64,
        secs,
        wire: None,
    }
}

/// The fleet over loopback sockets to a fresh reactor.
pub fn run_tcp(cfg: &FleetConfig, tap: Option<&Tap>) -> Round {
    let (clock, backend, sink, tokens) = backend(cfg);
    let server = TcpServer::start_with(Arc::clone(&backend), "127.0.0.1:0", reactor_config())
        .expect("bind the reactor on loopback");
    let addr = server.local_addr();
    let (secs, report) = lockstep(cfg, &clock, &tokens, tap, || {
        TcpTransport::connect(addr)
            .expect("connect to the reactor")
            .with_sparse_content()
    });
    let wire = (server.stats(), server.phase_nanos());
    server.shutdown();
    let records = sink.take_sorted();
    Round {
        report,
        hash: check::trace_hash(&records),
        records: records.len() as u64,
        secs,
        wire: Some(wire),
    }
}

/// Connections the reactor turned away or dropped.
fn refused(stats: &WireStats) -> u64 {
    stats.refused_throttle + stats.refused_capacity + stats.evicted_slow + stats.protocol_errors
}

/// In-process references of the rounds run so far, computed on demand.
struct References<'a> {
    params: &'a Params,
    rounds: Vec<Round>,
}

impl References<'_> {
    fn get(&mut self, round: u64) -> &Round {
        while self.rounds.len() as u64 <= round {
            let cfg = fleet_config(self.params, self.rounds.len() as u64);
            self.rounds.push(run_direct(&cfg, None));
        }
        &self.rounds[round as usize]
    }
}

/// What a run of TCP rounds measured.
struct Rounds {
    /// Summed `run_lockstep` seconds.
    secs: f64,
    /// Trace records written and `run_lockstep` seconds, per round.
    runs: Vec<(f64, f64)>,
    /// Reactor figures, one entry per round.
    wire: Vec<(WireStats, PhaseNanos)>,
}

/// Runs TCP rounds 0, 1, 2, ... for about `seconds`, checking each against
/// its in-process reference.
fn tcp_rounds(
    params: &Params,
    seconds: f64,
    tap: &Tap,
    refs: &mut References,
    checks: &mut Checks,
) -> Rounds {
    let mut next = 0u64;
    let mut wire = Vec::new();
    let mut runs = Vec::new();
    let times = measure(
        seconds,
        || {
            let round = next;
            next += 1;
            let out = run_tcp(&fleet_config(params, round), Some(tap));
            (out.secs, (round, out))
        },
        |(round, out)| {
            let expected = refs.get(round);
            checks.expect(out.report == expected.report, || {
                format!(
                    "round {round}: fleet report over TCP {:?} differs from in process {:?}",
                    out.report, expected.report
                )
            });
            checks.expect_eq(
                out.hash.as_str(),
                expected.hash.as_str(),
                "trace hash over TCP vs in process",
            );
            let stats = out.wire.expect("a TCP round has reactor figures");
            checks.expect_eq(
                refused(&stats.0),
                0,
                "connections refused, evicted or dropped",
            );
            runs.push((out.records as f64, out.secs));
            wire.push(stats);
        },
    );
    Rounds {
        secs: times.iter().sum(),
        runs,
        wire,
    }
}

pub fn run(params: &Params) -> Outcome {
    let mut checks = Checks::default();

    // Set-up: the expected output of the first rounds, from the same
    // fleets in process.
    let mut refs = References {
        params,
        rounds: Vec::new(),
    };
    let setup_rounds = match params.scale {
        Scale::Full => SETUP_ROUNDS,
        Scale::Tiny => 1,
    };
    let setup_s: Vec<f64> = (0..SETUPS)
        .map(|_| {
            refs.rounds.clear();
            timed(|| refs.get(setup_rounds - 1)).0
        })
        .collect();

    let tap = Tap::new(false);
    let untraced = tcp_rounds(params, params.seconds, &tap, &mut refs, &mut checks);
    let peak = peak_rss_mb();
    let exchanges = tap.sorted_nanos(Call::is_exchange);
    let connects = tap.sorted_nanos(|c| c == Call::Connect).len() as u64;
    let per_s = exchanges.len() as f64 / untraced.secs;
    let records_per_s = median_rate(untraced.runs.iter().copied());
    let p50 = percentile(&exchanges, 50.0).unwrap_or(0);
    let p99 = supported_percentile(&exchanges, 99.0).unwrap_or(0);
    let attempted = exchanges.len() as u64 + connects;
    let failed: u64 = untraced.wire.iter().map(|(s, _)| refused(s)).sum();

    let tap = params.trace.then(|| Tap::new(true));
    let layers = match &tap {
        Some(tap) => traced(params, tap, &mut refs, records_per_s, &mut checks),
        None => Vec::new(),
    };

    Outcome {
        checks,
        attempted,
        failed,
        e2e: vec![
            metric("setup_s", "s", median(&setup_s)),
            metric("throughput_per_s", "1/s", records_per_s),
            metric("latency_p50_us", "us", us(p50)),
        ],
        named: vec![
            metric("peak_rss_mb", "MB", peak),
            metric("exchanges_per_s", "1/s", per_s),
            metric("exchange_p50_us", "us", us(p50)),
            metric("exchange_p99_us", "us", us(p99)),
            metric("exchanges", "count", exchanges.len() as f64),
            metric("rounds", "count", untraced.wire.len() as f64),
            metric(
                "failed_frac",
                "ratio",
                ratio(failed as f64, attempted as f64),
            ),
        ],
        layers,
        spans: tap.and_then(Tap::into_recorder),
    }
}

/// The traced run: the same TCP rounds with a span per call, the same
/// fleets in process for the API's own time per op, and the reactor's
/// counters.
fn traced(
    params: &Params,
    tap: &Tap,
    refs: &mut References,
    untraced_per_s: f64,
    checks: &mut Checks,
) -> Vec<Metric> {
    let Rounds { secs, runs, wire } = tcp_rounds(params, params.seconds, tap, refs, checks);
    let rounds = wire.len() as f64;
    let rec = tap.recorder().expect("a traced tap records spans");
    let traced_per_s = median_rate(runs);

    let api = Tap::new(false);
    for round in 0..wire.len() as u64 {
        let direct = run_direct(&fleet_config(params, round), Some(&api));
        checks.expect(direct.report == refs.get(round).report, || {
            format!("round {round}: probed in-process fleet differs from the unprobed one")
        });
    }

    let p50 =
        |t: &Tap, call: Call| us(percentile(&t.sorted_nanos(|c| c == call), 50.0).unwrap_or(0));
    let mut v = vec![
        metric(
            "client.model_s",
            "s",
            rec.total_self("fleet") as f64 / rounds / 1e9,
        ),
        metric("client.connect_p50_us", "us", p50(tap, Call::Connect)),
    ];
    for op in Call::OPS {
        let sorted = tap.sorted_nanos(|c| c == op);
        v.push(metric(
            format!("client.{}_p50_us", op.label()),
            "us",
            p50(tap, op),
        ));
        let p99 = supported_percentile(&sorted, 99.0).unwrap_or(0);
        v.push(metric(
            format!("client.{}_p99_us", op.label()),
            "us",
            us(p99),
        ));
        v.push(metric(
            format!("api.{}_p50_us", op.label()),
            "us",
            p50(&api, op),
        ));
        v.push(metric(
            format!("wire.{}_overhead_p50_us", op.label()),
            "us",
            p50(tap, op) - p50(&api, op),
        ));
    }

    let sum = |f: fn(&WireStats) -> u64| wire.iter().map(|(s, _)| f(s)).sum::<u64>() as f64;
    let phase =
        |f: fn(&PhaseNanos) -> u64| wire.iter().map(|(_, p)| f(p)).sum::<u64>() as f64 / 1e9;
    let busy = phase(|p| p.net_accept_nanos)
        + phase(|p| p.net_read_nanos)
        + phase(|p| p.net_serve_nanos)
        + phase(|p| p.net_write_nanos);
    v.extend([
        metric(
            "reactor.accept_s",
            "s",
            phase(|p| p.net_accept_nanos) / rounds,
        ),
        metric("reactor.read_s", "s", phase(|p| p.net_read_nanos) / rounds),
        metric(
            "reactor.serve_s",
            "s",
            phase(|p| p.net_serve_nanos) / rounds,
        ),
        metric(
            "reactor.write_s",
            "s",
            phase(|p| p.net_write_nanos) / rounds,
        ),
        metric("reactor.busy_frac", "ratio", ratio(busy, secs)),
        metric("reactor.accepted", "count", sum(|s| s.accepted) / rounds),
        metric(
            "reactor.refused_throttle",
            "count",
            sum(|s| s.refused_throttle),
        ),
        metric(
            "reactor.refused_capacity",
            "count",
            sum(|s| s.refused_capacity),
        ),
        metric("reactor.evicted_slow", "count", sum(|s| s.evicted_slow)),
        metric("reactor.eof_reaps", "count", sum(|s| s.eof_reaps) / rounds),
        metric(
            "reactor.protocol_errors",
            "count",
            sum(|s| s.protocol_errors),
        ),
        metric(
            "trace.overhead_frac",
            "ratio",
            overhead_frac(untraced_per_s, traced_per_s),
        ),
        metric("trace.spans", "count", rec.len() as f64),
    ]);
    v
}
