//! A closed-loop client fleet, generic over the transport.
//!
//! The workload [`Driver`](crate::Driver) is built for scale: it calls the
//! backend in-process and shard-parallel. This module is built for
//! *equivalence*: the same calibrated session model (§7 think times, §6
//! user classes, Markov op chains) driving any [`Transport`] — the
//! in-process [`DirectTransport`](u1_client::DirectTransport) or a real
//! socket via [`TcpTransport`](u1_client::TcpTransport) — so a wire-tier
//! run can be compared against an in-process run *byte for byte* at the
//! trace level.
//!
//! [`run_lockstep`] is the comparison harness: virtual time, a single
//! thread, one request in flight globally. Client actions are sequenced by
//! a `(SimTime, seq)` event heap, and the shared [`SimClock`] is advanced
//! before every action — so the order of backend calls, the latency-RNG
//! sample order, the session-id assignment and the trace `seq` stamps are
//! all pure functions of the fleet seed, independent of which transport
//! carries the requests. Two runs (direct vs. wire) against identically
//! seeded backends must produce identical [`FleetReport`]s and identical
//! canonical trace hashes; `BENCH_wire` and the wire parity test enforce
//! exactly that.
//!
//! [`run_concurrent`] is the load harness: real threads, one per client,
//! real sockets, think times compressed by a scale factor, per-op service
//! times sampled for the `BENCH_wire` latency histograms. It makes no
//! determinism promises — that is what lockstep is for.

use crate::driver::EventQueue;
use crate::files::FileModel;
use crate::markov;
use crate::sessions::{interop_gap_with_mode, next_session_gap, plan_session};
use crate::users::{sample_profile, UserProfile};
use rand::rngs::SmallRng;
use rand::Rng;
use u1_auth::Token;
use u1_client::Transport;
use u1_core::timing::Measured;
use u1_core::{rngx, ApiOpKind, NodeId, NodeKind, SimClock, SimTime, VolumeId};

/// Fleet shape. Deliberately much smaller than
/// [`WorkloadConfig`](crate::WorkloadConfig): the fleet exists to exercise
/// the wire, not to reproduce the paper's month.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of clients; client `i` authenticates as `UserId(i + 1)`.
    pub users: u32,
    /// Sessions each client runs before retiring.
    pub sessions_per_user: u32,
    /// Root seed for every client-side random stream.
    pub seed: u64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            users: 24,
            sessions_per_user: 3,
            seed: 11,
        }
    }
}

/// What a fleet run did, in deterministic counters.
///
/// Everything here is a pure function of the fleet seed and the backend it
/// ran against — **except** `pushes_observed`: push frames race the
/// client's polling in wire mode, so the count is wrapped in [`Measured`]
/// and compares equal by construction. Report equality between a direct
/// and a wire run is the fleet-level half of the parity contract (the
/// canonical trace hash is the backend-level half).
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize)]
pub struct FleetReport {
    pub users: u64,
    /// Sessions attempted (one `authenticate` each).
    pub sessions: u64,
    /// Sessions whose plan included data operations (~5.6%, §7.3).
    pub active_sessions: u64,
    pub ops_executed: u64,
    pub op_errors: u64,
    pub uploads: u64,
    pub uploads_deduplicated: u64,
    pub bytes_uploaded: u64,
    pub downloads: u64,
    pub bytes_downloaded: u64,
    /// Metadata (non-transfer) operations.
    pub metadata_ops: u64,
    /// Push notifications observed by clients. Wire delivery timing is
    /// racy, hence eq-invisible.
    pub pushes_observed: Measured<u64>,
}

impl FleetReport {
    fn absorb(&mut self, other: &FleetReport) {
        self.sessions += other.sessions;
        self.active_sessions += other.active_sessions;
        self.ops_executed += other.ops_executed;
        self.op_errors += other.op_errors;
        self.uploads += other.uploads;
        self.uploads_deduplicated += other.uploads_deduplicated;
        self.bytes_uploaded += other.bytes_uploaded;
        self.downloads += other.downloads;
        self.bytes_downloaded += other.bytes_downloaded;
        self.metadata_ops += other.metadata_ops;
        self.pushes_observed.0 += other.pushes_observed.0;
    }
}

/// One timed RPC from the concurrent fleet (for service-time histograms).
#[derive(Debug, Clone, Copy)]
pub struct ServiceSample {
    /// Which client issued it (index into the fleet; `UserId(client + 1)`).
    pub client: u32,
    /// The op that was issued (Upload/Download cover the whole multi-RPC
    /// exchange including content chunks).
    pub op: ApiOpKind,
    /// Wall-clock duration of the full request/response exchange.
    pub nanos: u64,
}

/// What one client does next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Action {
    Connect,
    Op,
    Close,
}

/// The session-model state of one client, shared by both runners.
struct ClientSim {
    token: Token,
    rng: SmallRng,
    profile: UserProfile,
    files: FileModel,
    /// File nodes this client created, with their last uploaded size.
    known_files: Vec<(VolumeId, NodeId, u64)>,
    dirs: Vec<(VolumeId, NodeId)>,
    udfs: Vec<VolumeId>,
    root: Option<VolumeId>,
    /// Last generation seen for the root volume (drives `GetDelta`).
    generation: u64,
    last_op: ApiOpKind,
    sessions_left: u32,
    remaining_ops: u64,
    session_end: SimTime,
    /// Machine-paced session (large planned op count → bulk think times).
    bulk: bool,
    /// What the client does at its next event.
    next: Action,
    report: FleetReport,
}

impl ClientSim {
    fn new(index: u32, token: Token, seed: u64, sessions: u32) -> Self {
        let mut rng = rngx::sub_rng(seed, "fleet-user", u64::from(index));
        let profile = sample_profile(&mut rng);
        ClientSim {
            token,
            rng,
            profile,
            files: FileModel::new(256),
            known_files: Vec::new(),
            dirs: Vec::new(),
            udfs: Vec::new(),
            root: None,
            generation: 0,
            last_op: ApiOpKind::ListVolumes,
            sessions_left: sessions,
            remaining_ops: 0,
            session_end: SimTime::ZERO,
            bulk: false,
            next: Action::Connect,
            report: FleetReport::default(),
        }
    }

    /// When the first session starts.
    fn first_arrival(&mut self) -> SimTime {
        SimTime::ZERO + next_session_gap(&mut self.rng, &self.profile, SimTime::ZERO)
    }

    /// Runs the client's next action at `now`: connects a fresh transport
    /// from `connect` into `slot`, runs one op over it, or closes and
    /// empties it. Returns when the client acts again, or `None` once it
    /// has retired (or has no session to act in).
    fn step<T: Transport>(
        &mut self,
        slot: &mut Option<T>,
        connect: impl FnOnce() -> T,
        now: SimTime,
    ) -> Option<SimTime> {
        let (next, at) = match self.next {
            Action::Connect => {
                if self.sessions_left == 0 {
                    return None;
                }
                let t = slot.insert(connect());
                self.connect(t, now)
            }
            Action::Op => self.op(slot.as_mut()?, now),
            Action::Close => {
                let next = self.close(slot.as_mut()?, now);
                *slot = None;
                next
            }
        };
        if next == Action::Connect && self.sessions_left == 0 {
            return None; // retired
        }
        self.next = next;
        Some(at)
    }

    /// Opens a session: authenticate, negotiate caps, list volumes (the
    /// Fig. 8 startup sequence). Returns the action+gap that follows.
    fn connect<T: Transport>(&mut self, t: &mut T, now: SimTime) -> (Action, SimTime) {
        self.report.sessions += 1;
        if t.authenticate(self.token).is_err() {
            self.report.op_errors += 1;
            return self.after_close(now);
        }
        self.count(
            t.query_set_caps(&["fleet"]).map(|_| 0),
            ApiOpKind::QuerySetCaps,
        );
        match t.list_volumes() {
            Ok(vols) => {
                self.report.ops_executed += 1;
                self.report.metadata_ops += 1;
                self.root = vols.first().map(|v| v.volume);
            }
            Err(_) => {
                self.report.ops_executed += 1;
                self.report.metadata_ops += 1;
                self.report.op_errors += 1;
            }
        }
        let plan = plan_session(&mut self.rng, &self.profile);
        self.session_end = now + plan.duration;
        self.remaining_ops = plan.planned_ops;
        self.bulk = plan.planned_ops > 1_000;
        if plan.active {
            self.report.active_sessions += 1;
            let gap = interop_gap_with_mode(&mut self.rng, true, self.bulk);
            (Action::Op, now + gap)
        } else {
            (Action::Close, self.session_end)
        }
    }

    /// Runs one operation; returns the follow-up action and its time.
    fn op<T: Transport>(&mut self, t: &mut T, now: SimTime) -> (Action, SimTime) {
        if self.remaining_ops == 0 || now >= self.session_end {
            return (Action::Close, now);
        }
        let op = markov::next_op(&mut self.rng, self.last_op);
        self.last_op = op;
        self.execute(t, op);
        self.report.pushes_observed.0 += t.poll_pushes().len() as u64;
        self.remaining_ops -= 1;
        let metadata = !matches!(op, ApiOpKind::Upload | ApiOpKind::Download);
        let gap = interop_gap_with_mode(&mut self.rng, metadata, self.bulk);
        (Action::Op, now + gap)
    }

    /// Ends the session; returns the next connect (or nothing if retired).
    fn close<T: Transport>(&mut self, t: &mut T, now: SimTime) -> (Action, SimTime) {
        self.report.pushes_observed.0 += t.poll_pushes().len() as u64;
        t.close();
        self.after_close(now)
    }

    fn after_close(&mut self, now: SimTime) -> (Action, SimTime) {
        self.sessions_left = self.sessions_left.saturating_sub(1);
        let gap = next_session_gap(&mut self.rng, &self.profile, now);
        (Action::Connect, now + gap)
    }

    /// Counts one op; `result` carries the bytes an upload or download
    /// moved.
    fn count(&mut self, result: Result<u64, u1_core::CoreError>, op: ApiOpKind) {
        self.report.ops_executed += 1;
        let bytes = *result.as_ref().unwrap_or(&0);
        match op {
            ApiOpKind::Upload => {
                self.report.uploads += 1;
                self.report.bytes_uploaded += bytes;
            }
            ApiOpKind::Download => {
                self.report.downloads += 1;
                self.report.bytes_downloaded += bytes;
            }
            _ => self.report.metadata_ops += 1,
        }
        if result.is_err() {
            self.report.op_errors += 1;
        }
    }

    /// Maps one Markov op onto transport calls. Every branch decision
    /// draws only from the client RNG and prior deterministic results.
    fn execute<T: Transport>(&mut self, t: &mut T, op: ApiOpKind) {
        let Some(root) = self.root else {
            // Startup listing failed: only volume-independent ops make
            // sense; keep the RNG schedule moving with a listing.
            let r = t.list_volumes().map(|v| {
                self.root = v.first().map(|i| i.volume);
                0
            });
            self.count(r, ApiOpKind::ListVolumes);
            return;
        };
        match op {
            ApiOpKind::Upload => {
                let update = !self.known_files.is_empty() && self.rng.gen_range(0.0..1.0) < 0.30;
                if update {
                    let idx = self.rng.gen_range(0..self.known_files.len());
                    let (vol, node, old_size) = self.known_files[idx];
                    let (_cid, hash, size) = self.files.updated_file(&mut self.rng, old_size);
                    let r = t.upload(vol, node, hash, size, None).map(|res| {
                        if res.deduplicated {
                            self.report.uploads_deduplicated += 1;
                        }
                        self.known_files[idx].2 = size;
                        res.bytes_sent
                    });
                    self.count(r, op);
                } else {
                    let spec = self.files.new_file(&mut self.rng);
                    match t.make_node(root, None, NodeKind::File, spec.name.as_str()) {
                        Ok(info) => {
                            self.count(Ok(0), ApiOpKind::MakeFile);
                            let r =
                                t.upload(root, info.node, spec.hash, spec.size, None)
                                    .map(|res| {
                                        if res.deduplicated {
                                            self.report.uploads_deduplicated += 1;
                                        }
                                        self.known_files.push((root, info.node, spec.size));
                                        res.bytes_sent
                                    });
                            self.count(r, op);
                        }
                        Err(e) => self.count(Err(e), ApiOpKind::MakeFile),
                    }
                }
            }
            ApiOpKind::Download => {
                if self.known_files.is_empty() {
                    let r = t.get_delta(root, self.generation).map(|(generation, _)| {
                        self.generation = generation;
                        0
                    });
                    self.count(r, ApiOpKind::GetDelta);
                } else {
                    let idx = self.rng.gen_range(0..self.known_files.len());
                    let (vol, node, _) = self.known_files[idx];
                    let r = t.download(vol, node).map(|(size, _, _)| size);
                    self.count(r, op);
                }
            }
            ApiOpKind::MakeFile => {
                let spec = self.files.new_file(&mut self.rng);
                let r = t
                    .make_node(root, None, NodeKind::File, spec.name.as_str())
                    .map(|info| {
                        self.known_files.push((root, info.node, 0));
                        0
                    });
                self.count(r, op);
            }
            ApiOpKind::MakeDir => {
                let name = self.files.new_dir_name();
                let r = t
                    .make_node(root, None, NodeKind::Directory, name.as_str())
                    .map(|info| {
                        self.dirs.push((root, info.node));
                        0
                    });
                self.count(r, op);
            }
            ApiOpKind::Unlink => {
                if self.known_files.is_empty() {
                    let r = t.list_shares().map(|_| 0);
                    self.count(r, ApiOpKind::ListShares);
                } else {
                    let idx = self.rng.gen_range(0..self.known_files.len());
                    let (vol, node, _) = self.known_files.swap_remove(idx);
                    let r = t.unlink(vol, node).map(|_| 0);
                    self.count(r, op);
                }
            }
            ApiOpKind::Move => {
                if self.known_files.is_empty() {
                    let r = t.list_volumes().map(|_| 0);
                    self.count(r, ApiOpKind::ListVolumes);
                } else {
                    let idx = self.rng.gen_range(0..self.known_files.len());
                    let (vol, node, _) = self.known_files[idx];
                    let new_parent = if self.dirs.is_empty() {
                        None
                    } else {
                        let d = self.rng.gen_range(0..self.dirs.len());
                        Some(self.dirs[d].1)
                    };
                    let name = self.files.new_dir_name();
                    let r = t.move_node(vol, node, new_parent, name.as_str()).map(|_| 0);
                    self.count(r, op);
                }
            }
            ApiOpKind::GetDelta => {
                let r = t.get_delta(root, self.generation).map(|(generation, _)| {
                    self.generation = generation;
                    0
                });
                self.count(r, op);
            }
            ApiOpKind::RescanFromScratch => {
                let r = t.rescan_from_scratch(root).map(|(generation, _)| {
                    self.generation = generation;
                    0
                });
                self.count(r, op);
            }
            ApiOpKind::ListVolumes => {
                let r = t.list_volumes().map(|_| 0);
                self.count(r, op);
            }
            ApiOpKind::ListShares => {
                let r = t.list_shares().map(|_| 0);
                self.count(r, op);
            }
            ApiOpKind::CreateUdf => {
                let name = self.files.new_dir_name();
                let r = t.create_udf(name.as_str()).map(|info| {
                    self.udfs.push(info.volume);
                    0
                });
                self.count(r, op);
            }
            ApiOpKind::DeleteVolume => {
                if self.udfs.is_empty() {
                    let r = t.list_volumes().map(|_| 0);
                    self.count(r, ApiOpKind::ListVolumes);
                } else {
                    let idx = self.rng.gen_range(0..self.udfs.len());
                    let vol = self.udfs.swap_remove(idx);
                    self.known_files.retain(|(v, _, _)| *v != vol);
                    self.dirs.retain(|(v, _)| *v != vol);
                    let r = t.delete_volume(vol).map(|_| 0);
                    self.count(r, op);
                }
            }
            ApiOpKind::QuerySetCaps => {
                let r = t.query_set_caps(&["fleet"]).map(|_| 0);
                self.count(r, op);
            }
            // Session bookkeeping kinds never come out of the Markov chain
            // mid-session; keep the schedule moving if they ever do.
            ApiOpKind::Authenticate | ApiOpKind::OpenSession | ApiOpKind::CloseSession => {
                let r = t.list_volumes().map(|_| 0);
                self.count(r, ApiOpKind::ListVolumes);
            }
        }
    }
}

/// Runs the fleet in **lockstep virtual time**: one thread, one request in
/// flight globally, the shared `clock` advanced to each event's timestamp
/// before the event runs.
///
/// `tokens[i]` authenticates client `i` (register users on the backend in
/// index order so ids line up). `factory(i)` builds client `i`'s transport
/// each time it (re)connects — a fresh connection per session, like the
/// real client.
pub fn run_lockstep<T, F>(
    cfg: &FleetConfig,
    clock: &SimClock,
    tokens: &[Token],
    mut factory: F,
) -> FleetReport
where
    T: Transport,
    F: FnMut(usize) -> T,
{
    assert_eq!(
        tokens.len(),
        cfg.users as usize,
        "one token per fleet client"
    );
    let mut clients: Vec<ClientSim> = tokens
        .iter()
        .enumerate()
        .map(|(i, tok)| ClientSim::new(i as u32, *tok, cfg.seed, cfg.sessions_per_user))
        .collect();
    let mut transports: Vec<Option<T>> = (0..clients.len()).map(|_| None).collect();

    // Simultaneous events run in push order, so the schedule is a pure
    // function of the seed.
    let mut queue = EventQueue::new();
    for (i, client) in clients.iter_mut().enumerate() {
        queue.push(client.first_arrival(), i);
    }
    while let Some((now, i)) = queue.pop() {
        clock.set(now);
        if let Some(at) = clients[i].step(&mut transports[i], || factory(i), now) {
            queue.push(at, i);
        }
    }

    let mut total = FleetReport {
        users: u64::from(cfg.users),
        ..Default::default()
    };
    for c in &clients {
        total.absorb(&c.report);
    }
    total
}

/// Runs the fleet **concurrently**: one OS thread per client, real
/// transports (typically TCP), think times divided by `time_scale`
/// (capped at 50ms real sleep so month-scale gaps don't stall the bench).
/// Returns the merged report and every op's wall-clock service time.
pub fn run_concurrent<T, F>(
    cfg: &FleetConfig,
    tokens: &[Token],
    time_scale: u64,
    factory: F,
) -> (FleetReport, Vec<ServiceSample>)
where
    T: Transport,
    F: Fn(usize) -> T + Sync,
{
    assert_eq!(
        tokens.len(),
        cfg.users as usize,
        "one token per fleet client"
    );
    assert!(time_scale > 0, "time_scale must be positive");
    let results: Vec<(FleetReport, Vec<ServiceSample>)> = std::thread::scope(|scope| {
        let factory = &factory;
        let handles: Vec<_> = tokens
            .iter()
            .enumerate()
            .map(|(i, tok)| {
                let token = *tok;
                scope.spawn(move || {
                    run_one_concurrent(
                        ClientSim::new(i as u32, token, cfg.seed, cfg.sessions_per_user),
                        i,
                        time_scale,
                        factory,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_default())
            .collect()
    });
    let mut total = FleetReport {
        users: u64::from(cfg.users),
        ..Default::default()
    };
    let mut samples = Vec::new();
    for (report, s) in results {
        total.absorb(&report);
        samples.extend(s);
    }
    (total, samples)
}

/// One client of [`run_concurrent`]: [`ClientSim::step`] in a loop that
/// sleeps out the scaled think time and samples the service time of every
/// connect (charged to `Authenticate`) and every op issued.
fn run_one_concurrent<T, F>(
    mut client: ClientSim,
    index: usize,
    time_scale: u64,
    factory: &F,
) -> (FleetReport, Vec<ServiceSample>)
where
    T: Transport,
    F: Fn(usize) -> T,
{
    const MAX_SLEEP: std::time::Duration = std::time::Duration::from_millis(50);
    let mut samples = Vec::new();
    let mut transport: Option<T> = None;
    let mut now = client.first_arrival();
    loop {
        let action = client.next;
        let mut started = std::time::Instant::now();
        let mut connected = false;
        // The clock restarts once the connection is made, so a connect
        // sample times the session start alone.
        let connect = || {
            let t = factory(index);
            started = std::time::Instant::now();
            connected = true;
            t
        };
        let next_at = client.step(&mut transport, connect, now);
        let issued = match action {
            Action::Connect => connected.then_some(ApiOpKind::Authenticate),
            // An `Op` that found its session over closes instead of issuing.
            Action::Op => {
                (next_at.is_some() && client.next == Action::Op).then_some(client.last_op)
            }
            Action::Close => None,
        };
        if let Some(op) = issued {
            samples.push(ServiceSample {
                client: index as u32,
                op,
                nanos: u1_core::timing::saturating_nanos(started),
            });
        }
        let Some(at) = next_at else {
            break;
        };
        let gap_us = at.since(now).as_micros() / time_scale;
        let sleep = std::time::Duration::from_micros(gap_us).min(MAX_SLEEP);
        if !sleep.is_zero() {
            std::thread::sleep(sleep);
        }
        now = at;
    }
    (client.report, samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use u1_client::DirectTransport;
    use u1_core::UserId;
    use u1_server::{Backend, BackendConfig};
    use u1_trace::MemorySink;

    fn fleet_backend(seed: u64) -> (Arc<Backend>, Arc<SimClock>, Arc<MemorySink>) {
        let clock = Arc::new(SimClock::new());
        let sink = Arc::new(MemorySink::new());
        let backend = Arc::new(Backend::new(
            BackendConfig {
                seed: seed ^ 0xBACC,
                ..Default::default()
            },
            clock.clone(),
            sink.clone(),
        ));
        (backend, clock, sink)
    }

    fn register(backend: &Backend, users: u32) -> Vec<Token> {
        (0..users)
            .map(|i| backend.register_user(UserId::new(u64::from(i) + 1)))
            .collect()
    }

    #[test]
    fn lockstep_is_deterministic_across_runs() {
        let cfg = FleetConfig {
            users: 8,
            sessions_per_user: 2,
            seed: 5,
        };
        let mut reports = Vec::new();
        let mut hashes = Vec::new();
        for _ in 0..2 {
            let (backend, clock, sink) = fleet_backend(cfg.seed);
            let tokens = register(&backend, cfg.users);
            let report = run_lockstep(&cfg, &clock, &tokens, |_| {
                DirectTransport::new(Arc::clone(&backend))
            });
            reports.push(report);
            hashes.push(u1_trace::trace_hash(&sink.take_sorted()));
        }
        assert_eq!(reports[0], reports[1]);
        assert_eq!(hashes[0], hashes[1]);
        assert!(reports[0].ops_executed > 0, "fleet did real work");
        assert_eq!(reports[0].sessions, 16, "8 users x 2 sessions");
    }

    #[test]
    fn concurrent_mode_completes_and_counts() {
        let cfg = FleetConfig {
            users: 4,
            sessions_per_user: 1,
            seed: 9,
        };
        let (backend, _clock, _sink) = fleet_backend(cfg.seed);
        let tokens = register(&backend, cfg.users);
        let (report, samples) = run_concurrent(&cfg, &tokens, 1_000_000, |_| {
            DirectTransport::new(Arc::clone(&backend))
        });
        assert_eq!(report.sessions, 4);
        assert!(samples.len() as u64 >= report.sessions);
    }
}
