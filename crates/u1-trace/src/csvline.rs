//! The one-line-per-record CSV format.
//!
//! Lines are comma-separated with no quoting; the only free-text field (file
//! extension) is sanitized to `[a-z0-9]` at emission. A line starts with the
//! timestamp in microseconds and the request type, mirroring the structure
//! the paper describes (strictly sequential, timestamped lines per process).
//!
//! Example lines:
//!
//! ```text
//! 8640000000,session,open,s17,u4
//! 8640012345,storage_done,upload,s17,u4,v0,n99,file,1048576,3f786850e387550fdab836ed7e6dc881de23001b,jpg,ok,15000
//! 8640012350,rpc,dal.make_content,shard3,u4,2100
//! 8640000001,auth,u4,ok
//! ```
//!
//! Fault runs append optional trailing fields — `a=N` (attempt number when
//! a retry loop re-issued the request) and `ec=<class>` (the injected
//! [`u1_core::ErrorClass`]):
//!
//! ```text
//! 8640012350,rpc,dal.get_node,shard3,u4,2000000,a=2,ec=timeout
//! ```
//!
//! Both are omitted at their defaults (first attempt, no error), so the
//! lines of a fault-free run are byte-identical to the pre-fault format.

use crate::event::{Payload, SessionEvent, TraceRecord};
use std::fmt;
use u1_core::{
    ApiOpKind, ContentHash, ErrorClass, MachineId, NodeId, NodeKind, ProcessId, RpcKind, SessionId,
    ShardId, SimTime, UserId, VolumeId,
};

/// Writes a `u64` as decimal digits without going through `core::fmt`'s
/// generic machinery: digits are produced backwards into a stack buffer and
/// emitted as one `write_str`. This is the innermost loop of trace
/// emission — every line carries at least a timestamp and a handful of ids.
fn write_u64<W: fmt::Write>(out: &mut W, mut v: u64) -> fmt::Result {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    // Only ASCII digits were written, so the slice is valid UTF-8.
    out.write_str(std::str::from_utf8(&buf[i..]).unwrap_or("0"))
}

/// Writes a prefixed id like `s17` / `u4` / `v0` / `n99`.
fn write_id<W: fmt::Write>(out: &mut W, prefix: &str, raw: u64) -> fmt::Result {
    out.write_str(prefix)?;
    write_u64(out, raw)
}

/// Writes the extension field. [`u1_core::Ext`] is sanitized at
/// construction with exactly the rules this serializer used to apply per
/// line (`[a-z0-9]`, max 16 chars), so emission is a plain copy; `-` when
/// nothing survived sanitization.
fn write_ext<W: fmt::Write>(out: &mut W, ext: &u1_core::Ext) -> fmt::Result {
    if ext.is_empty() {
        out.write_char('-')
    } else {
        out.write_str(ext.as_str())
    }
}

/// Serializes a record as one CSV line (no trailing newline) into any
/// [`fmt::Write`] — typically an amortized per-thread `String` buffer. This
/// is the allocation-free core; [`to_line`] is a thin compatibility wrapper.
pub fn write_line<W: fmt::Write>(rec: &TraceRecord, out: &mut W) -> fmt::Result {
    write_u64(out, rec.t.as_micros())?;
    write_payload(rec, out)?;
    // Fault tags ride as optional trailing fields so fault-free lines stay
    // byte-identical to the pre-fault format.
    if rec.attempt > 1 {
        out.write_str(",a=")?;
        write_u64(out, rec.attempt as u64)?;
    }
    if let Some(class) = rec.error_class {
        out.write_str(",ec=")?;
        out.write_str(class.label())?;
    }
    Ok(())
}

/// [`write_line`] plus the synthetic origin/sequence stamps as trailing
/// `o=`/`q=` fields (after the fault tags). The paper's logfile schema has
/// no such columns — plain [`write_line`] stays byte-identical to it — but
/// a *stamped* trace directory can be read back into the exact canonical
/// `(t, origin, seq)` order, which is what lets the stream-to-disk pipeline
/// reproduce the in-memory golden trace hash bit for bit.
pub fn write_line_stamped<W: fmt::Write>(rec: &TraceRecord, out: &mut W) -> fmt::Result {
    write_line(rec, out)?;
    out.write_str(",o=")?;
    write_u64(out, rec.origin as u64)?;
    out.write_str(",q=")?;
    write_u64(out, rec.seq)
}

fn write_payload<W: fmt::Write>(rec: &TraceRecord, out: &mut W) -> fmt::Result {
    match &rec.payload {
        Payload::Session {
            event,
            session,
            user,
        } => {
            out.write_str(match event {
                SessionEvent::Open => ",session,open,",
                SessionEvent::Close => ",session,close,",
            })?;
            write_id(out, "s", session.raw())?;
            write_id(out, ",u", user.raw())
        }
        Payload::Storage {
            op,
            session,
            user,
            volume,
            node,
            kind,
            size,
            hash,
            ext,
            success,
            duration_us,
        } => {
            out.write_str(",storage_done,")?;
            out.write_str(op.label())?;
            write_id(out, ",s", session.raw())?;
            write_id(out, ",u", user.raw())?;
            write_id(out, ",v", volume.raw())?;
            match node {
                Some(n) => write_id(out, ",n", n.raw())?,
                None => out.write_str(",-")?,
            }
            out.write_str(match kind {
                Some(NodeKind::File) => ",file,",
                Some(NodeKind::Directory) => ",dir,",
                None => ",-,",
            })?;
            write_u64(out, *size)?;
            out.write_char(',')?;
            match hash {
                Some(h) => h.write_hex(out)?,
                None => out.write_char('-')?,
            }
            out.write_char(',')?;
            write_ext(out, ext)?;
            out.write_str(if *success { ",ok," } else { ",err," })?;
            write_u64(out, *duration_us)
        }
        Payload::Rpc {
            rpc,
            shard,
            user,
            service_us,
        } => {
            out.write_str(",rpc,")?;
            out.write_str(rpc.dal_name())?;
            write_id(out, ",shard", shard.raw() as u64)?;
            write_id(out, ",u", user.raw())?;
            out.write_char(',')?;
            write_u64(out, *service_us)
        }
        Payload::Auth { user, success } => {
            write_id(out, ",auth,u", user.raw())?;
            out.write_str(if *success { ",ok" } else { ",fail" })
        }
    }
}

/// Serializes a record to one CSV line (no trailing newline). Compatibility
/// wrapper over [`write_line`]; allocates the returned `String` and nothing
/// else.
pub fn to_line(rec: &TraceRecord) -> String {
    let mut s = String::with_capacity(128);
    let _ = write_line(rec, &mut s);
    s
}

/// Incremental SHA-1 over the canonical trace: every record as its
/// [`write_line`] line plus `|origin|seq\n`, fed in `take_sorted` order.
/// All the golden trace hashes use this formula. Feeding a trace slice by
/// slice (one day chunk at a time, say) gives the same digest as one
/// [`trace_hash`] over the whole.
#[derive(Default)]
pub struct TraceHasher {
    sha: u1_core::Sha1,
    line: String,
}

impl TraceHasher {
    pub fn new() -> Self {
        Self::default()
    }

    /// Absorbs the next records of the trace, in order.
    pub fn update(&mut self, records: &[TraceRecord]) {
        for r in records {
            let line = &mut self.line;
            line.clear();
            let _ = write_line(r, line);
            line.push('|');
            let _ = write_u64(line, u64::from(r.origin));
            line.push('|');
            let _ = write_u64(line, r.seq);
            line.push('\n');
            self.sha.update(line.as_bytes());
        }
    }

    /// The digest as lowercase hex.
    pub fn finish(self) -> String {
        self.sha.finalize().to_hex()
    }
}

/// The canonical trace hash of a whole trace; see [`TraceHasher`].
pub fn trace_hash(records: &[TraceRecord]) -> String {
    let mut hasher = TraceHasher::new();
    hasher.update(records);
    hasher.finish()
}

/// Error describing why a line failed to parse. The reader counts these
/// (the paper tolerated ~1% unparseable lines) rather than aborting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineError {
    pub reason: &'static str,
}

fn err<T>(reason: &'static str) -> Result<T, LineError> {
    Err(LineError { reason })
}

fn parse_u64(s: &str, reason: &'static str) -> Result<u64, LineError> {
    s.parse::<u64>().map_err(|_| LineError { reason })
}

fn parse_prefixed(s: &str, prefix: char, reason: &'static str) -> Result<u64, LineError> {
    let rest = s.strip_prefix(prefix).ok_or(LineError { reason })?;
    parse_u64(rest, reason)
}

/// The comma-separated fields of one line, walked with a byte cursor. It
/// yields exactly what `str::split(',')` yields, empty fields included,
/// without the generic pattern searcher: this is the parser's inner loop.
struct Fields<'a> {
    rest: Option<&'a str>,
}

impl<'a> Iterator for Fields<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        let rest = self.rest?;
        match rest.bytes().position(|b| b == b',') {
            // `,` is ASCII, so both sides of it are char boundaries.
            Some(i) => {
                self.rest = Some(&rest[i + 1..]);
                Some(&rest[..i])
            }
            None => {
                self.rest = None;
                Some(rest)
            }
        }
    }
}

/// Parses one CSV line into the payload + timestamp. Machine/process come
/// from the logfile name, not the line, exactly as in the original format.
///
/// Parsing is pure: the record is built field by field, stamped `(0, 0)`
/// on the first attempt with no error class unless the line's own
/// `o=`/`q=`/`a=`/`ec=` fields say otherwise. It never reads the calling
/// thread's fault tags or advances its [`u1_core::partition`] stamps.
pub fn from_line(
    line: &str,
    machine: MachineId,
    process: ProcessId,
) -> Result<TraceRecord, LineError> {
    let mut fields = Fields {
        rest: Some(line.trim_end()),
    };
    let t = SimTime::from_micros(parse_u64(
        fields.next().ok_or(LineError { reason: "empty" })?,
        "bad timestamp",
    )?);
    let ty = fields.next().ok_or(LineError { reason: "no type" })?;
    let payload = match ty {
        "session" => {
            let ev = match fields.next() {
                Some("open") => SessionEvent::Open,
                Some("close") => SessionEvent::Close,
                _ => return err("bad session event"),
            };
            let session = SessionId::new(parse_prefixed(
                fields.next().unwrap_or(""),
                's',
                "bad session id",
            )?);
            let user = UserId::new(parse_prefixed(
                fields.next().unwrap_or(""),
                'u',
                "bad user",
            )?);
            Payload::Session {
                event: ev,
                session,
                user,
            }
        }
        "storage_done" => {
            let op = ApiOpKind::from_label(fields.next().unwrap_or(""))
                .ok_or(LineError { reason: "bad op" })?;
            let session = SessionId::new(parse_prefixed(
                fields.next().unwrap_or(""),
                's',
                "bad session id",
            )?);
            let user = UserId::new(parse_prefixed(
                fields.next().unwrap_or(""),
                'u',
                "bad user",
            )?);
            let volume = VolumeId::new(parse_prefixed(
                fields.next().unwrap_or(""),
                'v',
                "bad volume",
            )?);
            let node = match fields.next().unwrap_or("") {
                "-" => None,
                s => Some(NodeId::new(parse_prefixed(s, 'n', "bad node")?)),
            };
            let kind = match fields.next().unwrap_or("") {
                "file" => Some(NodeKind::File),
                "dir" => Some(NodeKind::Directory),
                "-" => None,
                _ => return err("bad node kind"),
            };
            let size = parse_u64(fields.next().unwrap_or(""), "bad size")?;
            let hash = match fields.next().unwrap_or("") {
                "-" => None,
                s => Some(ContentHash::from_hex(s).ok_or(LineError { reason: "bad hash" })?),
            };
            let ext = match fields.next().unwrap_or("") {
                "-" => u1_core::Ext::EMPTY,
                s => u1_core::Ext::new(s),
            };
            let success = match fields.next().unwrap_or("") {
                "ok" => true,
                "err" => false,
                _ => return err("bad status"),
            };
            let duration_us = parse_u64(fields.next().unwrap_or(""), "bad duration")?;
            Payload::Storage {
                op,
                session,
                user,
                volume,
                node,
                kind,
                size,
                hash,
                ext,
                success,
                duration_us,
            }
        }
        "rpc" => {
            let rpc = RpcKind::from_dal_name(fields.next().unwrap_or(""))
                .ok_or(LineError { reason: "bad rpc" })?;
            let shard_field = fields.next().unwrap_or("");
            let shard_raw = shard_field.strip_prefix("shard").ok_or(LineError {
                reason: "bad shard",
            })?;
            let shard = ShardId::new(shard_raw.parse::<u16>().map_err(|_| LineError {
                reason: "bad shard",
            })?);
            let user = UserId::new(parse_prefixed(
                fields.next().unwrap_or(""),
                'u',
                "bad user",
            )?);
            let service_us = parse_u64(fields.next().unwrap_or(""), "bad service time")?;
            Payload::Rpc {
                rpc,
                shard,
                user,
                service_us,
            }
        }
        "auth" => {
            let user = UserId::new(parse_prefixed(
                fields.next().unwrap_or(""),
                'u',
                "bad user",
            )?);
            let success = match fields.next().unwrap_or("") {
                "ok" => true,
                "fail" => false,
                _ => return err("bad auth status"),
            };
            Payload::Auth { user, success }
        }
        _ => return err("unknown type"),
    };
    let mut rec = TraceRecord {
        t,
        machine,
        process,
        origin: 0,
        seq: 0,
        attempt: 1,
        error_class: None,
        payload,
    };
    for field in fields {
        if let Some(v) = field.strip_prefix("a=") {
            rec.attempt = v.parse::<u32>().map_err(|_| LineError {
                reason: "bad attempt",
            })?;
        } else if let Some(v) = field.strip_prefix("ec=") {
            rec.error_class = Some(ErrorClass::from_label(v).ok_or(LineError {
                reason: "bad error class",
            })?);
        } else if let Some(v) = field.strip_prefix("o=") {
            // Origin/seq stamps written by `write_line_stamped`; plain
            // traces lack them and stay stamped `(0, 0)`.
            rec.origin = v.parse::<u32>().map_err(|_| LineError {
                reason: "bad origin",
            })?;
        } else if let Some(v) = field.strip_prefix("q=") {
            rec.seq = v
                .parse::<u64>()
                .map_err(|_| LineError { reason: "bad seq" })?;
        }
        // Other trailing fields stay tolerated, as before.
    }
    Ok(rec)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(payload: Payload) -> TraceRecord {
        TraceRecord::new(
            SimTime::from_secs(5),
            MachineId::new(2),
            ProcessId::new(9),
            payload,
        )
    }

    fn round_trip(rec: TraceRecord) {
        let line = to_line(&rec);
        let back = from_line(&line, rec.machine, rec.process).expect("parse");
        assert_eq!(back, rec, "line was: {line}");
    }

    #[test]
    fn session_round_trip() {
        round_trip(mk(Payload::Session {
            event: SessionEvent::Open,
            session: SessionId::new(17),
            user: UserId::new(4),
        }));
        round_trip(mk(Payload::Session {
            event: SessionEvent::Close,
            session: SessionId::new(17),
            user: UserId::new(4),
        }));
    }

    #[test]
    fn storage_round_trip_full_and_minimal() {
        round_trip(mk(Payload::Storage {
            op: ApiOpKind::Upload,
            session: SessionId::new(17),
            user: UserId::new(4),
            volume: VolumeId::new(0),
            node: Some(NodeId::new(99)),
            kind: Some(NodeKind::File),
            size: 1_048_576,
            hash: Some(ContentHash::from_content_id(1)),
            ext: "jpg".into(),
            success: true,
            duration_us: 15_000,
        }));
        round_trip(mk(Payload::Storage {
            op: ApiOpKind::ListVolumes,
            session: SessionId::new(1),
            user: UserId::new(2),
            volume: VolumeId::new(3),
            node: None,
            kind: None,
            size: 0,
            hash: None,
            ext: u1_core::Ext::EMPTY,
            success: false,
            duration_us: 10,
        }));
    }

    #[test]
    fn rpc_and_auth_round_trip() {
        round_trip(mk(Payload::Rpc {
            rpc: RpcKind::MakeContent,
            shard: ShardId::new(3),
            user: UserId::new(4),
            service_us: 2_100,
        }));
        round_trip(mk(Payload::Auth {
            user: UserId::new(4),
            success: false,
        }));
    }

    #[test]
    fn stamped_line_round_trips_origin_and_seq() {
        let mut rec = mk(Payload::Auth {
            user: UserId::new(4),
            success: true,
        });
        rec.origin = 7;
        rec.seq = 123_456_789;
        let mut line = String::new();
        write_line_stamped(&rec, &mut line).unwrap();
        assert!(line.ends_with(",o=7,q=123456789"), "line was: {line}");
        let back = from_line(&line, rec.machine, rec.process).expect("parse");
        assert_eq!(back, rec, "line was: {line}");
    }

    #[test]
    fn stamped_line_is_plain_line_plus_stamps() {
        let mut rec = mk(Payload::Rpc {
            rpc: RpcKind::GetNode,
            shard: ShardId::new(1),
            user: UserId::new(2),
            service_us: 77,
        });
        rec.attempt = 3;
        rec.error_class = Some(ErrorClass::Timeout);
        let plain = to_line(&rec);
        let mut stamped = String::new();
        write_line_stamped(&rec, &mut stamped).unwrap();
        // Stamps go strictly after the fault tags; stripping them recovers
        // the paper-schema line byte for byte.
        assert_eq!(stamped, format!("{plain},o={},q={}", rec.origin, rec.seq));
        // And a plain (unstamped) line parses with origin/seq untouched by
        // the stamp fields.
        let back = from_line(&plain, rec.machine, rec.process).expect("parse");
        assert_eq!((back.origin, back.seq), (0, 0));
    }

    /// Parsing on a thread that runs a simulation partition must not touch
    /// that partition: no trace stamp is drawn from its context and no
    /// fault tag leaks into the record.
    #[test]
    fn parsing_leaves_the_installed_partition_untouched() {
        use u1_core::partition::{install, next_trace_stamp, PartitionCtx};
        let _guard = install(PartitionCtx::new(5));
        u1_core::fault::set_attempt(3);
        u1_core::fault::set_error_class(Some(ErrorClass::Timeout));
        let rec = from_line(
            "8640012350,rpc,dal.get_node,shard3,u4,2000",
            MachineId::new(1),
            ProcessId::new(2),
        );
        u1_core::fault::clear_tags();
        let rec = rec.expect("parse");
        assert_eq!((rec.origin, rec.seq), (0, 0));
        assert_eq!((rec.attempt, rec.error_class), (1, None));
        assert_eq!(
            next_trace_stamp(),
            Some((5, 1)),
            "parsing advanced the context's trace stamps"
        );
    }

    #[test]
    fn field_cursor_matches_split() {
        for line in ["", ",", "a", "a,", ",a", "a,,b", "5,auth,u1,ok", "x,,,"] {
            let cursor: Vec<&str> = Fields { rest: Some(line) }.collect();
            let split: Vec<&str> = line.split(',').collect();
            assert_eq!(cursor, split, "line {line:?}");
        }
    }

    #[test]
    fn sanitizes_hostile_extension() {
        let rec = mk(Payload::Storage {
            op: ApiOpKind::Upload,
            session: SessionId::new(1),
            user: UserId::new(1),
            volume: VolumeId::new(0),
            node: Some(NodeId::new(1)),
            kind: Some(NodeKind::File),
            size: 1,
            hash: None,
            ext: "J,P\nG".into(),
            success: true,
            duration_us: 1,
        });
        let line = to_line(&rec);
        assert!(!line.contains('\n'));
        let back = from_line(&line, rec.machine, rec.process).unwrap();
        match back.payload {
            Payload::Storage { ext, .. } => assert_eq!(ext, "jpg"),
            _ => panic!("wrong payload"),
        }
    }

    #[test]
    fn sanitize_ext_edge_cases_round_trip() {
        // (raw extension, sanitized field bytes, ext after parse-back)
        for (raw, field, parsed) in [
            ("", "-", ""),                                                 // empty
            ("≈∅", "-", ""),                                               // all non-ASCII
            ("häßlich", "hlich", "hlich"),                                 // mixed non-ASCII
            ("TARGZ", "targz", "targz"),                                   // lowercased
            ("verylongextension", "verylongextensio", "verylongextensio"), // >16 truncated
            ("a.b-c_d", "abcd", "abcd"),                                   // punctuation stripped
        ] {
            let rec = mk(Payload::Storage {
                op: ApiOpKind::Upload,
                session: SessionId::new(1),
                user: UserId::new(1),
                volume: VolumeId::new(0),
                node: Some(NodeId::new(1)),
                kind: Some(NodeKind::File),
                size: 1,
                hash: None,
                ext: raw.into(),
                success: true,
                duration_us: 1,
            });
            let line = to_line(&rec);
            let fields: Vec<&str> = line.split(',').collect();
            assert_eq!(fields[10], field, "raw ext {raw:?}, line was: {line}");
            let back = from_line(&line, rec.machine, rec.process).expect("parse");
            match back.payload {
                Payload::Storage { ext, .. } => assert_eq!(ext, parsed, "raw ext {raw:?}"),
                _ => panic!("wrong payload"),
            }
        }
    }

    #[test]
    fn write_line_matches_to_line_for_every_variant() {
        let recs = [
            mk(Payload::Session {
                event: SessionEvent::Close,
                session: SessionId::new(u64::MAX),
                user: UserId::new(0),
            }),
            mk(Payload::Storage {
                op: ApiOpKind::Download,
                session: SessionId::new(7),
                user: UserId::new(1_294_794),
                volume: VolumeId::new(3),
                node: Some(NodeId::new(10_000_000)),
                kind: Some(NodeKind::Directory),
                size: u64::MAX,
                hash: Some(ContentHash::EMPTY),
                ext: "OgG".into(),
                success: false,
                duration_us: 0,
            }),
            mk(Payload::Rpc {
                rpc: RpcKind::GetNode,
                shard: ShardId::new(9),
                user: UserId::new(42),
                service_us: 123_456,
            }),
            mk(Payload::Auth {
                user: UserId::new(5),
                success: true,
            }),
        ];
        for rec in recs {
            let mut streamed = String::new();
            write_line(&rec, &mut streamed).expect("write_line");
            assert_eq!(streamed, to_line(&rec));
            let back = from_line(&streamed, rec.machine, rec.process).expect("parse");
            assert_eq!(back.payload.request_type(), rec.payload.request_type());
        }
    }

    /// The hasher digests exactly `write_line` + `|origin|seq\n` per
    /// record, and feeding the trace in pieces gives the whole's digest.
    #[test]
    fn trace_hash_is_the_stamped_line_digest_in_any_pieces() {
        let recs: Vec<TraceRecord> = (0..5u64)
            .map(|i| {
                let mut rec = mk(Payload::Auth {
                    user: UserId::new(i),
                    success: i % 2 == 0,
                });
                rec.origin = u32::MAX - i as u32;
                rec.seq = u64::MAX - i;
                rec
            })
            .collect();
        let mut text = String::new();
        for r in &recs {
            text.push_str(&format!("{}|{}|{}\n", to_line(r), r.origin, r.seq));
        }
        let whole = trace_hash(&recs);
        assert_eq!(whole, u1_core::Sha1::digest(text.as_bytes()).to_hex());
        let mut hasher = TraceHasher::new();
        for piece in recs.chunks(2) {
            hasher.update(piece);
        }
        assert_eq!(hasher.finish(), whole);
    }

    #[test]
    fn fault_tags_round_trip_and_default_to_nothing() {
        let mut rec = mk(Payload::Rpc {
            rpc: RpcKind::GetNode,
            shard: ShardId::new(3),
            user: UserId::new(4),
            service_us: 2_000_000,
        });
        // Defaults serialize to the pre-fault format exactly.
        assert!(!to_line(&rec).contains("a=") && !to_line(&rec).contains("ec="));
        rec.attempt = 2;
        rec.error_class = Some(ErrorClass::Timeout);
        let line = to_line(&rec);
        assert!(line.ends_with(",a=2,ec=timeout"), "line was: {line}");
        let back = from_line(&line, rec.machine, rec.process).expect("parse");
        assert_eq!(back.attempt, 2);
        assert_eq!(back.error_class, Some(ErrorClass::Timeout));
        assert_eq!(back, rec);
        // Tags on storage lines too.
        let mut rec = mk(Payload::Storage {
            op: ApiOpKind::Upload,
            session: SessionId::new(1),
            user: UserId::new(2),
            volume: VolumeId::new(0),
            node: Some(NodeId::new(9)),
            kind: Some(NodeKind::File),
            size: 10,
            hash: None,
            ext: "txt".into(),
            success: false,
            duration_us: 77,
        });
        rec.error_class = Some(ErrorClass::ShardUnavailable);
        round_trip(rec);
        // Bad tag values are rejected, not ignored.
        assert!(from_line("5,auth,u1,ok,a=x", MachineId::new(0), ProcessId::new(0)).is_err());
        assert!(from_line(
            "5,auth,u1,ok,ec=bogus",
            MachineId::new(0),
            ProcessId::new(0)
        )
        .is_err());
    }

    #[test]
    fn malformed_lines_are_rejected_not_panicking() {
        let m = MachineId::new(0);
        let p = ProcessId::new(0);
        for bad in [
            "",
            "notanumber,session,open,s1,u1",
            "5,session,reopen,s1,u1",
            "5,storage_done,upload,s1,u1,v0,n1,file,abc,-,-,ok,1",
            "5,rpc,dal.nonexistent,shard0,u1,5",
            "5,rpc,dal.get_node,shardx,u1,5",
            "5,auth,u1,maybe",
            "5,frobnicate,u1",
            "5,storage_done,upload,s1,u1,v0,n1,file,1,zzzz,-,ok,1",
        ] {
            assert!(from_line(bad, m, p).is_err(), "should reject: {bad:?}");
        }
    }
}
