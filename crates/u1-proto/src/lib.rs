//! The U1 storage protocol (`ubuntuone-storageprotocol`, §3.1).
//!
//! The real protocol ran Google Protocol Buffers messages over a persistent
//! TCP connection; clients authenticate once per session with an OAuth token
//! and then issue operations (Table 2), while the server can push
//! unsolicited notifications over the same connection (§3.4.2).
//!
//! This crate implements the protocol in layers, following the sans-io
//! discipline of the networking guides (the codec and the connection state
//! machine are pure and testable without sockets):
//!
//! * [`wire`] — varint/length-delimited primitives over [`bytes`] buffers
//!   (a compact protobuf-like encoding implemented from scratch),
//! * [`msg`] + [`codec`] — the message set (every Table 2 operation, content
//!   transfer chunking, push notifications) and its binary codec,
//! * [`frame`] — length-prefixed framing with incremental decoding and a
//!   maximum-frame-size guard,
//! * [`conn`] — client/server connection state machines (handshake,
//!   request/response correlation, in-flight upload bookkeeping),
//! * [`nio`] — nonblocking read/write helpers ([`SendQueue`] with a
//!   partial-write cursor, [`nio::read_once`]) for the epoll reactor.

pub mod codec;
pub mod conn;
pub mod frame;
pub mod msg;
pub mod nio;
pub mod wire;

pub use conn::{ClientConn, ConnError, ServerConn, ServerEvent};
pub use frame::{FrameDecoder, FrameError, MAX_FRAME_LEN};
pub use msg::{Message, NodeInfo, Push, Request, RequestId, Response, VolumeInfo};
pub use nio::{ReadOutcome, SendQueue};
pub use wire::{WireError as ProtoError, WireResult as ProtoResult};
