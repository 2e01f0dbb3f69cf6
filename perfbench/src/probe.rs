//! A [`Transport`] wrapper that times every call a fleet client makes.
//!
//! The wrapper changes nothing the client sends or receives: it forwards
//! each method to the wrapped transport and notes the call's class and
//! duration on a shared [`Tap`]. Untraced, a note is one latency sample;
//! traced, it is also a span whose parent is the fleet run and whose
//! request id is the client session the call belongs to.

use crate::span::{Recorder, SpanId};
use std::cell::{Cell, Ref, RefCell};
use std::time::Instant;
use u1_auth::Token;
use u1_client::{Transport, UploadResult};
use u1_core::{ContentHash, CoreResult, NodeId, NodeKind, SessionId, UserId, VolumeId};
use u1_proto::msg::{NodeInfo, Push, VolumeInfo};

/// What a timed call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Call {
    /// Opening the connection (building the transport).
    Connect,
    Auth,
    ListVolumes,
    GetDelta,
    MakeNode,
    Unlink,
    Move,
    Upload,
    Download,
    /// Any other request: caps, shares, volumes, rescans.
    Other,
    /// Ending the session (`Bye` on the wire).
    Close,
    /// Draining buffered pushes; no request is sent.
    Poll,
}

impl Call {
    /// The op classes reported one by one.
    pub const OPS: [Call; 8] = [
        Call::Auth,
        Call::ListVolumes,
        Call::GetDelta,
        Call::MakeNode,
        Call::Unlink,
        Call::Move,
        Call::Upload,
        Call::Download,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Call::Connect => "connect",
            Call::Auth => "auth",
            Call::ListVolumes => "list_volumes",
            Call::GetDelta => "get_delta",
            Call::MakeNode => "make_node",
            Call::Unlink => "unlink",
            Call::Move => "move",
            Call::Upload => "upload",
            Call::Download => "download",
            Call::Other => "other",
            Call::Close => "close",
            Call::Poll => "poll",
        }
    }

    /// A request/response round trip with the server.
    pub fn is_exchange(self) -> bool {
        !matches!(self, Call::Connect | Call::Poll)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    pub call: Call,
    pub nanos: u64,
}

/// Collects what every [`Probe`] of one fleet run noted.
pub struct Tap {
    samples: RefCell<Vec<Sample>>,
    recorder: Option<Recorder>,
    root: Cell<Option<SpanId>>,
    sessions: Cell<u64>,
}

impl Tap {
    /// `traced` adds a span per call on top of the latency samples.
    pub fn new(traced: bool) -> Self {
        Tap {
            samples: RefCell::new(Vec::new()),
            recorder: traced.then(Recorder::new),
            root: Cell::new(None),
            sessions: Cell::new(0),
        }
    }

    /// Runs `f` (the fleet run) inside the root span that every call's span
    /// hangs from.
    pub fn run<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let Some(rec) = &self.recorder else {
            return f();
        };
        let root = rec.open(name, None, 0);
        self.root.set(Some(root));
        let out = f();
        rec.close(root);
        self.root.set(None);
        out
    }

    /// Builds one session's transport with `connect`, timing it as
    /// [`Call::Connect`], and wraps it.
    pub fn wrap<T: Transport>(&self, connect: impl FnOnce() -> T) -> Probe<'_, T> {
        let req = self.sessions.get();
        self.sessions.set(req + 1);
        let start = Instant::now();
        let inner = connect();
        self.note(Call::Connect, req, start, Instant::now());
        Probe {
            inner,
            tap: self,
            req,
        }
    }

    fn note(&self, call: Call, req: u64, start: Instant, end: Instant) {
        let nanos = u64::try_from(end.duration_since(start).as_nanos()).unwrap_or(u64::MAX);
        self.samples.borrow_mut().push(Sample { call, nanos });
        if let Some(rec) = &self.recorder {
            rec.record(call.label(), self.root.get(), req, start, end);
        }
    }

    pub fn samples(&self) -> Ref<'_, Vec<Sample>> {
        self.samples.borrow()
    }

    /// Ascending durations of the calls matching `pick`, nanoseconds.
    pub fn sorted_nanos(&self, pick: impl Fn(Call) -> bool) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .samples
            .borrow()
            .iter()
            .filter(|s| pick(s.call))
            .map(|s| s.nanos)
            .collect();
        v.sort_unstable();
        v
    }

    pub fn recorder(&self) -> Option<&Recorder> {
        self.recorder.as_ref()
    }

    pub fn into_recorder(self) -> Option<Recorder> {
        self.recorder
    }
}

/// One session's transport, timed. See the module docs.
pub struct Probe<'a, T> {
    inner: T,
    tap: &'a Tap,
    req: u64,
}

impl<T: Transport> Probe<'_, T> {
    fn call<R>(&mut self, call: Call, f: impl FnOnce(&mut T) -> R) -> R {
        let start = Instant::now();
        let out = f(&mut self.inner);
        self.tap.note(call, self.req, start, Instant::now());
        out
    }
}

impl<T: Transport> Transport for Probe<'_, T> {
    fn authenticate(&mut self, token: Token) -> CoreResult<(SessionId, UserId)> {
        self.call(Call::Auth, |t| t.authenticate(token))
    }

    fn query_set_caps(&mut self, caps: &[&str]) -> CoreResult<()> {
        self.call(Call::Other, |t| t.query_set_caps(caps))
    }

    fn list_volumes(&mut self) -> CoreResult<Vec<VolumeInfo>> {
        self.call(Call::ListVolumes, |t| t.list_volumes())
    }

    fn list_shares(&mut self) -> CoreResult<Vec<VolumeInfo>> {
        self.call(Call::Other, |t| t.list_shares())
    }

    fn create_udf(&mut self, name: &str) -> CoreResult<VolumeInfo> {
        self.call(Call::Other, |t| t.create_udf(name))
    }

    fn delete_volume(&mut self, volume: VolumeId) -> CoreResult<()> {
        self.call(Call::Other, |t| t.delete_volume(volume))
    }

    fn make_node(
        &mut self,
        volume: VolumeId,
        parent: Option<NodeId>,
        kind: NodeKind,
        name: &str,
    ) -> CoreResult<NodeInfo> {
        self.call(Call::MakeNode, |t| t.make_node(volume, parent, kind, name))
    }

    fn unlink(&mut self, volume: VolumeId, node: NodeId) -> CoreResult<()> {
        self.call(Call::Unlink, |t| t.unlink(volume, node))
    }

    fn move_node(
        &mut self,
        volume: VolumeId,
        node: NodeId,
        new_parent: Option<NodeId>,
        new_name: &str,
    ) -> CoreResult<()> {
        self.call(Call::Move, |t| {
            t.move_node(volume, node, new_parent, new_name)
        })
    }

    fn get_delta(
        &mut self,
        volume: VolumeId,
        from_generation: u64,
    ) -> CoreResult<(u64, Vec<NodeInfo>)> {
        self.call(Call::GetDelta, |t| t.get_delta(volume, from_generation))
    }

    fn rescan_from_scratch(&mut self, volume: VolumeId) -> CoreResult<(u64, Vec<NodeInfo>)> {
        self.call(Call::Other, |t| t.rescan_from_scratch(volume))
    }

    fn upload(
        &mut self,
        volume: VolumeId,
        node: NodeId,
        hash: ContentHash,
        size: u64,
        data: Option<Vec<u8>>,
    ) -> CoreResult<UploadResult> {
        self.call(Call::Upload, |t| t.upload(volume, node, hash, size, data))
    }

    fn download(
        &mut self,
        volume: VolumeId,
        node: NodeId,
    ) -> CoreResult<(u64, ContentHash, Option<Vec<u8>>)> {
        self.call(Call::Download, |t| t.download(volume, node))
    }

    fn poll_pushes(&mut self) -> Vec<Push> {
        self.call(Call::Poll, |t| t.poll_pushes())
    }

    fn close(&mut self) {
        self.call(Call::Close, |t| t.close())
    }

    fn session(&self) -> Option<SessionId> {
        self.inner.session()
    }
}
