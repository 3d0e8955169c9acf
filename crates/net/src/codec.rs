//! Binary wire format. The normative description — every frame's layout,
//! the v2 quantisation contract, the envelopes, with byte-level examples
//! that `tests/wire_spec.rs` decodes and re-encodes — is `WIRE.md` at the
//! repository root; this module is its implementation.
//!
//! Objects travel as `id: u32 + 4 × f32` = **20 bytes** — the `Bobj` of the
//! paper's cost model (constant across point and MBR workloads). Rectangles
//! are 16 bytes, counts 8 ("one long integer", the paper's `BA`).
//!
//! Coordinates are carried as `f32`. For the round trip to be lossless the
//! dataset coordinates must be f32-representable; every generator in
//! `asj-workloads` rounds coordinates through `f32` at creation time, which
//! the integration tests rely on when comparing against brute-force ground
//! truth computed on the original data.
//!
//! Each frame kind's fields are written down once, as a walk over the
//! crate-private `Io` passes ([`Request`]'s, [`Response`]'s, and the
//! tagged elements [`Update`] and [`DeltaOp`]); the size functions, the
//! encoders, the decoders and [`wire_exact`] are that walk under four
//! different passes. The three records (object, rect and compact object,
//! each read and written whole), the per-object loops, the quantisation
//! grid and the envelopes are hand-written and the walks name them.

use asj_geom::{Point, Rect, SpatialObject};
use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::proto::{DeltaOp, Request, Response, Update};

/// Wire size of one spatial object (`Bobj`).
pub const OBJ_BYTES: u64 = 20;
/// Wire size of one rectangle.
pub const RECT_BYTES: u64 = 16;
/// Wire size of a `WINDOW`/`COUNT` request (opcode + rect): the paper's
/// `BQ` for simple queries.
pub const QUERY_BYTES: u64 = 1 + RECT_BYTES;
/// Wire size of a scalar `Count` response (opcode + u64): the paper's `BA`.
pub const ANSWER_BYTES: u64 = 1 + 8;
/// Wire size of a single ε-RANGE request (opcode + rect + f32 ε).
pub const EPS_QUERY_BYTES: u64 = 1 + RECT_BYTES + 4;
/// Fixed overhead of a bucket ε-RANGE request (opcode + f32 ε + u32 n);
/// each probe adds [`OBJ_BYTES`].
pub const BUCKET_REQ_HEADER_BYTES: u64 = 1 + 4 + 4;
/// Fixed overhead of an `Objects` response (opcode + u32 length).
pub const OBJECTS_HEADER_BYTES: u64 = 1 + 4;
/// Per-probe framing overhead inside a `Buckets` response (u32 length).
pub const BUCKET_FRAME_BYTES: u64 = 4;
/// Wire size of the `Unavailable` pseudo-frame (opcode only). Never sent
/// by a server: carriers fabricate it locally when the peer is gone, so
/// the client degrades to a typed [`crate::proto::Response::Unavailable`]
/// instead of panicking. Zero wire bytes actually cross for it.
pub const UNAVAILABLE_BYTES: u64 = 1;
/// Wire size of the generation-stamp envelope prefixed to response frames
/// served from a generation > 0 (opcode + u64 generation). Generation-0
/// frames carry **no** stamp, so frozen-store traffic is bit-for-bit the
/// pre-generation wire format.
pub const GEN_STAMP_BYTES: u64 = 1 + 8;
/// Wire size of a `Changes` request (opcode + u64 `since`).
pub const CHANGES_QUERY_BYTES: u64 = 1 + 8;
/// Fixed overhead of a `Changes` response (opcode + u32 n); each op adds
/// [`CHANGE_OP_BYTES`].
pub const CHANGES_HEADER_BYTES: u64 = 1 + 4;
/// Wire size of one op inside a `Changes` response (tag + object record —
/// a remove names the MBR it takes the id out at).
pub const CHANGE_OP_BYTES: u64 = 1 + OBJ_BYTES;
/// Wire size of the retry-dedup envelope prefixed to `ApplyUpdates`
/// requests when a [`crate::packet::RetryPolicy`] is enabled (opcode +
/// u64 nonce + u64 seq). With retries off the envelope is never attached
/// and update traffic is bit-for-bit the plain format.
pub const DEDUP_HEADER_BYTES: u64 = 1 + 8 + 8;

/// Frame-layout strategy of one physical link — the wire protocol
/// version its deployment speaks (`NetConfig::wire_v2`), fixed when the
/// link is built. `V1` is the seed format every peer speaks; `V2` is a
/// strict superset: requests gain a 1-byte envelope marker, object frames
/// switch to the compact layout ([`ObjectsEncoder`]), counts and acks
/// travel as LEB128 varints, and generation stamps shrink to a varint. Everything else keeps its v1
/// layout — a v2 decoder accepts both, so the version is per-frame
/// self-describing and stateless on the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireVersion {
    /// The seed wire format — spoken unless a deployment sets `wire_v2`.
    #[default]
    V1,
    /// Compact frames: varint ids/counts, quantized coordinates.
    V2,
}

/// Worst-case wire size of one object inside a v2 `Objects` frame: tag
/// byte + 5-byte zigzag id delta + full exact-`f32` rect escape. This is
/// the per-object bound the size pass (`Size::objects`) reserves for a
/// materialised v2 `Objects` frame; typical point
/// objects encode in 6–11 bytes (see the quantization contract on
/// [`QuantCtx`]).
pub const OBJ_BYTES_V2_MAX: u64 = 1 + 5 + RECT_BYTES;
/// Planning estimate of the v2 per-object wire size the cost model prices
/// window downloads with when [`crate::NetConfig::wire_v2`] is on: tag +
/// short id delta + one escaped-`f32` point pair (the dominant shape on
/// the point workloads). Deliberately conservative — quantized points are
/// smaller, full-rect escapes larger.
pub const OBJ_BYTES_V2_EST: f64 = 11.0;
/// Worst-case wire size of a v2 generation stamp (opcode + 10-byte
/// varint); small generations take 2–3 bytes instead of v1's fixed 9.
pub const GEN_STAMP_BYTES_V2_MAX: u64 = 1 + 10;

/// Decoding failure: corrupt or truncated message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    Truncated,
    UnknownOpcode(u8),
    /// A compact v2 frame carries quantized coordinates but the decoder
    /// was given no request window to dequantize against.
    MissingContext,
    /// The frame decoded, and this many bytes follow it. A frame is
    /// consumed whole or rejected whole: a length prefix that undercounts
    /// its records must not yield the records it does count.
    TrailingBytes(usize),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "message truncated"),
            CodecError::UnknownOpcode(op) => write!(f, "unknown opcode {op:#x}"),
            CodecError::MissingContext => {
                write!(f, "quantized frame requires the request window context")
            }
            CodecError::TrailingBytes(n) => write!(f, "{n} bytes follow the frame"),
        }
    }
}

impl std::error::Error for CodecError {}

pub(crate) mod op {
    pub const WINDOW: u8 = 0x01;
    pub const COUNT: u8 = 0x02;
    pub const EPS_RANGE: u8 = 0x03;
    pub const BUCKET_EPS_RANGE: u8 = 0x04;
    // 0x05 is reserved: the average-MBR-area aggregate, which no device
    // ever sent. Rejected as unknown.
    // 0x06 is reserved: the batched COUNT of many windows, retired with
    // its answers 0x88 and 0x8E. Rejected as unknown.
    pub const APPLY_UPDATES: u8 = 0x07;
    /// Idempotency envelope for retried update deliveries:
    /// `[APPLY_UPDATES_SEQ][u64 nonce][u64 seq][inner request frame]`.
    /// Attached by a link only when its retry policy is enabled; every
    /// re-delivery of the same batch carries the same `(nonce, seq)`, so
    /// the server can detect a duplicate and replay the remembered `Ack`
    /// instead of double-applying (see `QueryHandler::
    /// handle_tagged_updates`).
    pub const APPLY_UPDATES_SEQ: u8 = 0x08;
    pub const CHANGES: u8 = 0x09;
    pub const COOP_LEVEL_MBRS: u8 = 0x10;
    pub const COOP_FILTER: u8 = 0x11;
    pub const COOP_JOIN_PUSH: u8 = 0x12;

    pub const R_OBJECTS: u8 = 0x81;
    pub const R_COUNT: u8 = 0x82;
    // 0x83 is reserved: the scalar answer to 0x05. Rejected as unknown.
    pub const R_BUCKETS: u8 = 0x84;
    pub const R_RECTS: u8 = 0x85;
    pub const R_PAIRS: u8 = 0x86;
    pub const R_REFUSED: u8 = 0x87;
    // 0x88 is reserved: the counts answering 0x06. Rejected as unknown.
    pub const R_ACK: u8 = 0x89;
    /// Not a response in its own right: the generation-stamp envelope
    /// prefix. `[R_GEN][u64 generation][response frame]`.
    pub const R_GEN: u8 = 0x8A;

    /// `[R_CHANGES][u32 n]` then `n` ops (`WIRE.md`, "The `Changes`
    /// exchange").
    pub const R_CHANGES: u8 = 0x93;

    /// Wire tags of the two [`crate::proto::DeltaOp`] kinds.
    pub const CHG_REMOVE: u8 = 0x01;
    pub const CHG_ADD: u8 = 0x02;

    /// Wire tags of the three [`crate::proto::Update`] kinds.
    pub const UPD_INSERT: u8 = 0x01;
    pub const UPD_DELETE: u8 = 0x02;
    pub const UPD_MOVE: u8 = 0x03;

    // ---- wire protocol v2 (see `WireVersion`) ----

    // 0x70 is reserved: the version handshake probe, retired with its
    // answer 0x8B. Rejected as unknown.
    /// Request-envelope prefix `[V2_MARK][v1-layout request]`: marks a
    /// request whose sender wants the reply in v2 framing. Stateless —
    /// a server can interleave v1 and v2 peers on one queue.
    pub const V2_MARK: u8 = 0x71;
    // 0x8B is reserved: the handshake answer to 0x70. Rejected as
    // unknown.
    /// Compact objects frame: `[R_OBJECTS_V2][u32 count]` then per-object
    /// `[tag][zigzag varint Δid][coords]` (see [`QuantCtx`]).
    pub const R_OBJECTS_V2: u8 = 0x8C;
    /// Compact count: `[R_COUNT_V2][varint]`.
    pub const R_COUNT_V2: u8 = 0x8D;
    // 0x8E is reserved: the compact counts answering 0x06. Rejected as
    // unknown.
    /// Compact update ack: `[R_ACK_V2][varint generation]`.
    pub const R_ACK_V2: u8 = 0x8F;
    /// Compact generation-stamp envelope: `[R_GEN_V2][varint generation]`.
    pub const R_GEN_V2: u8 = 0x90;
    /// Typed decode-error reply `[R_MALFORMED]`: the server could not
    /// decode the request and is telling the sender so — and nobody
    /// else. A garbled frame from one client must never take down a
    /// server shared by every other client.
    pub const R_MALFORMED: u8 = 0x91;
    /// Local transport-failure pseudo-frame `[R_UNAVAILABLE]`: fabricated
    /// by a fault layer for an exchange that never happened (a drop, a
    /// crash window). Reserved — a live server never sends it.
    pub const R_UNAVAILABLE: u8 = 0x92;
    /// Marker a deterministic fault injector stamps over byte 0 of a
    /// frame it garbles (see `crate::fault::FaultLayer`). Deliberately
    /// outside every valid opcode range so a garbled frame can never
    /// silently decode as a different valid value — decoders reject it as
    /// `UnknownOpcode(0xEE)`.
    pub const GARBLE: u8 = 0xEE;

    /// v2 object tag bit: min == max on both axes (a point) — the max
    /// coordinates are omitted entirely.
    pub const V2_POINT: u8 = 0x01;
    /// v2 object tag bit: x coordinates are u16 grid cells, not f32.
    pub const V2_QX: u8 = 0x02;
    /// v2 object tag bit: y coordinates are u16 grid cells, not f32.
    pub const V2_QY: u8 = 0x04;
}

// ---------------------------------------------------------------------------
// One walk per frame kind, four passes over it.
// ---------------------------------------------------------------------------

type Walked<T> = Result<T, CodecError>;

/// One pass over the fields of a frame, in wire order. Every method takes
/// a field as the frame holds it and returns it as the pass leaves it:
/// [`Size`] and [`Put`] read the frame and what they return is never
/// looked at (lists come back empty); [`Get`] ignores what it is handed —
/// a blank of the right kind, there to pick the walk's arm — and returns
/// what the bytes say; [`Snap`] returns what a peer would read.
///
/// (Frame in, frame out — rather than one `&mut` frame updated in place —
/// because the encoders are handed `&Request` / `&Response` and a window's
/// thousand objects must not be cloned to be written; and one walk cannot
/// be generic over `&` and `&mut`, since it has to `match` on the frame.)
trait Io: Sized {
    /// The opcode of a frame, or the tag of a list element: `v1`, or `v2`
    /// where the pass is in the compact layout. `true` when it is.
    fn op2(&mut self, v1: u8, v2: u8) -> bool;
    /// A big-endian unsigned of `width` bytes (1, 4 or 8) — or, `width`
    /// 0, a varint. Always inlined: every caller's `width` is a constant,
    /// and the choice must be made at compile time.
    fn word(&mut self, width: u64, v: u64) -> Walked<u64>;
    /// A `u32` length prefix, then that many items. As given, for a pass
    /// that only reads the frame; one that builds a list ([`Get`], which
    /// asks `blank` for each item's blank by its first byte, and [`Snap`])
    /// has its own.
    fn items<T>(
        &mut self,
        v: &[T],
        _blank: impl Fn(u8) -> Walked<T>,
        each: impl Fn(&mut Self, &T) -> Walked<T>,
    ) -> Walked<Vec<T>> {
        self.word(4, v.len() as u64)?;
        v.iter().try_for_each(|item| each(self, item).map(drop))?;
        Ok(Vec::new())
    }
    /// A `u32`-counted object list: 20-byte records, or — `compact` — per
    /// object [`put_object_v2`] / [`get_object_v2`] against the exchange's
    /// grid.
    fn objects(&mut self, _compact: bool, v: &[SpatialObject]) -> Walked<Vec<SpatialObject>> {
        self.seq(v, Self::object)
    }

    /// The opcode of a frame with one layout.
    fn op(&mut self, opcode: u8) -> &mut Self {
        self.op2(opcode, opcode);
        self
    }
    /// A frame that is its opcode and nothing else.
    fn unit<T>(&mut self, opcode: u8, frame: T) -> T {
        self.op(opcode);
        frame
    }
    fn u8(&mut self, v: &u8) -> Walked<u8> {
        Ok(self.word(1, u64::from(*v))? as u8)
    }
    fn u32(&mut self, v: &u32) -> Walked<u32> {
        Ok(self.word(4, u64::from(*v))? as u32)
    }
    fn u64(&mut self, v: &u64) -> Walked<u64> {
        self.word(8, *v)
    }
    /// A count or generation: `u64`, a varint in the compact layout.
    fn scalar(&mut self, compact: bool, v: &u64) -> Walked<u64> {
        self.word(if compact { 0 } else { 8 }, *v)
    }
    /// An `f32` on the wire, an `f64` in the program: rounded on the way
    /// in, so even a pass that neither writes nor reads returns what a
    /// peer would read.
    fn f32(&mut self, v: &f64) -> Walked<f64> {
        let bits = self.word(4, u64::from((*v as f32).to_bits()))?;
        Ok(f64::from(f32::from_bits(bits as u32)))
    }
    fn rect(&mut self, r: &Rect) -> Walked<Rect> {
        let min = Point::new(self.f32(&r.min.x)?, self.f32(&r.min.y)?);
        let max = Point::new(self.f32(&r.max.x)?, self.f32(&r.max.y)?);
        Ok(Rect::new(min, max))
    }
    /// The 20-byte object record.
    fn object(&mut self, o: &SpatialObject) -> Walked<SpatialObject> {
        Ok(SpatialObject::new(self.u32(&o.id)?, self.rect(&o.mbr)?))
    }
    fn pair(&mut self, p: &(u32, u32)) -> Walked<(u32, u32)> {
        Ok((self.u32(&p.0)?, self.u32(&p.1)?))
    }
    /// A `u32`-counted list of untagged items.
    fn seq<T: Default>(
        &mut self,
        v: &[T],
        each: impl Fn(&mut Self, &T) -> Walked<T>,
    ) -> Walked<Vec<T>> {
        self.items(v, |_| Ok(T::default()), each)
    }
}

impl Request {
    /// A blank request of the kind `opcode` names.
    fn blank(opcode: u8) -> Walked<Self> {
        let (q, eps) = (Rect::default(), 0.0);
        Ok(match opcode {
            op::WINDOW => Self::Window(q),
            op::COUNT => Self::Count(q),
            op::EPS_RANGE => Self::EpsRange { q, eps },
            op::BUCKET_EPS_RANGE => Self::BucketEpsRange {
                probes: Vec::new(),
                eps,
            },
            op::COOP_LEVEL_MBRS => Self::CoopLevelMbrs(0),
            op::COOP_FILTER => Self::CoopFilterByMbrs {
                mbrs: Vec::new(),
                eps,
            },
            op::COOP_JOIN_PUSH => Self::CoopJoinPush {
                objects: Vec::new(),
                eps,
            },
            op::APPLY_UPDATES => Self::ApplyUpdates(Vec::new()),
            op::CHANGES => Self::Changes { since: 0 },
            other => return Err(CodecError::UnknownOpcode(other)),
        })
    }

    /// The layout of every request frame (on a v2 link each rides the
    /// 1-byte [`op::V2_MARK`]; the body is not recoded).
    #[inline]
    fn fields<I: Io>(io: &mut I, req: &Self) -> Walked<Self> {
        Ok(match req {
            Self::Window(w) => Self::Window(io.op(op::WINDOW).rect(w)?),
            Self::Count(w) => Self::Count(io.op(op::COUNT).rect(w)?),
            Self::EpsRange { q, eps } => Self::EpsRange {
                q: io.op(op::EPS_RANGE).rect(q)?,
                eps: io.f32(eps)?,
            },
            // (A literal's fields are evaluated as written: ε comes first.)
            Self::BucketEpsRange { probes, eps } => Self::BucketEpsRange {
                eps: io.op(op::BUCKET_EPS_RANGE).f32(eps)?,
                probes: io.objects(false, probes)?,
            },
            Self::CoopLevelMbrs(level) => {
                Self::CoopLevelMbrs(io.op(op::COOP_LEVEL_MBRS).u8(level)?)
            }
            Self::CoopFilterByMbrs { mbrs, eps } => Self::CoopFilterByMbrs {
                eps: io.op(op::COOP_FILTER).f32(eps)?,
                mbrs: io.seq(mbrs, I::rect)?,
            },
            Self::CoopJoinPush { objects, eps } => Self::CoopJoinPush {
                eps: io.op(op::COOP_JOIN_PUSH).f32(eps)?,
                objects: io.objects(false, objects)?,
            },
            Self::ApplyUpdates(batch) => {
                let io = io.op(op::APPLY_UPDATES);
                Self::ApplyUpdates(io.items(batch, Update::blank, Update::fields)?)
            }
            Self::Changes { since } => Self::Changes {
                since: io.op(op::CHANGES).u64(since)?,
            },
        })
    }
}

impl Update {
    fn blank(tag: u8) -> Walked<Self> {
        Ok(match tag {
            op::UPD_INSERT => Self::Insert(SpatialObject::default()),
            op::UPD_DELETE => Self::Delete(0),
            op::UPD_MOVE => Self::Move {
                id: 0,
                to: Rect::default(),
            },
            other => return Err(CodecError::UnknownOpcode(other)),
        })
    }

    #[inline]
    fn fields<I: Io>(io: &mut I, update: &Self) -> Walked<Self> {
        Ok(match update {
            Self::Insert(o) => Self::Insert(io.op(op::UPD_INSERT).object(o)?),
            Self::Delete(id) => Self::Delete(io.op(op::UPD_DELETE).u32(id)?),
            Self::Move { id, to } => Self::Move {
                id: io.op(op::UPD_MOVE).u32(id)?,
                to: io.rect(to)?,
            },
        })
    }
}

impl Response {
    /// A blank response of the kind `opcode` names, in either layout.
    fn blank(opcode: u8) -> Walked<Self> {
        Ok(match opcode {
            op::R_OBJECTS | op::R_OBJECTS_V2 => Self::Objects(Vec::new()),
            op::R_COUNT | op::R_COUNT_V2 => Self::Count(0),
            op::R_BUCKETS => Self::Buckets(Vec::new()),
            op::R_RECTS => Self::Rects(Vec::new()),
            op::R_PAIRS => Self::Pairs(Vec::new()),
            op::R_REFUSED => Self::Refused,
            op::R_ACK | op::R_ACK_V2 => Self::Ack { generation: 0 },
            op::R_CHANGES => Self::Changes(Vec::new()),
            op::R_MALFORMED => Self::Malformed,
            op::R_UNAVAILABLE => Self::Unavailable,
            other => return Err(CodecError::UnknownOpcode(other)),
        })
    }

    /// The layout of every response frame. Three kinds have a compact v2
    /// layout under an opcode of its own; the rest are the same bytes on
    /// both versions.
    #[inline]
    fn fields<I: Io>(io: &mut I, resp: &Self) -> Walked<Self> {
        Ok(match resp {
            Self::Objects(objs) => {
                let compact = io.op2(op::R_OBJECTS, op::R_OBJECTS_V2);
                Self::Objects(io.objects(compact, objs)?)
            }
            Self::Count(c) => {
                let compact = io.op2(op::R_COUNT, op::R_COUNT_V2);
                Self::Count(io.scalar(compact, c)?)
            }
            Self::Buckets(buckets) => {
                let bucket = |io: &mut I, b: &Vec<SpatialObject>| io.objects(false, b);
                Self::Buckets(io.op(op::R_BUCKETS).seq(buckets, bucket)?)
            }
            Self::Rects(rects) => Self::Rects(io.op(op::R_RECTS).seq(rects, I::rect)?),
            Self::Pairs(pairs) => Self::Pairs(io.op(op::R_PAIRS).seq(pairs, I::pair)?),
            Self::Refused => io.unit(op::R_REFUSED, Self::Refused),
            Self::Ack { generation } => {
                let compact = io.op2(op::R_ACK, op::R_ACK_V2);
                let generation = io.scalar(compact, generation)?;
                Self::Ack { generation }
            }
            Self::Changes(ops) => {
                let io = io.op(op::R_CHANGES);
                Self::Changes(io.items(ops, DeltaOp::blank, DeltaOp::fields)?)
            }
            Self::Malformed => io.unit(op::R_MALFORMED, Self::Malformed),
            Self::Unavailable => io.unit(op::R_UNAVAILABLE, Self::Unavailable),
        })
    }
}

impl DeltaOp {
    fn blank(tag: u8) -> Walked<Self> {
        Ok(match tag {
            op::CHG_REMOVE => Self::Remove {
                id: 0,
                mbr: Rect::default(),
            },
            op::CHG_ADD => Self::Add(SpatialObject::default()),
            other => return Err(CodecError::UnknownOpcode(other)),
        })
    }

    /// Tag, then one object record: a remove names the MBR it takes the
    /// id out at.
    #[inline]
    fn fields<I: Io>(io: &mut I, change: &Self) -> Walked<Self> {
        Ok(match change {
            Self::Remove { id, mbr } => {
                let o = io
                    .op(op::CHG_REMOVE)
                    .object(&SpatialObject::new(*id, *mbr))?;
                Self::Remove {
                    id: o.id,
                    mbr: o.mbr,
                }
            }
            Self::Add(o) => Self::Add(io.op(op::CHG_ADD).object(o)?),
        })
    }
}

/// The size pass: exact for every v1 layout and for compact scalars; for
/// a compact object frame, whose length depends on what quantises, the
/// [`OBJ_BYTES_V2_MAX`] bound an encoder reserves.
struct Size {
    bytes: u64,
    compact: bool,
}

impl Size {
    fn of<T>(compact: bool, fields: impl Fn(&mut Size, &T) -> Walked<T>, frame: &T) -> u64 {
        let mut io = Size { bytes: 0, compact };
        let _ = fields(&mut io, frame);
        io.bytes
    }
}

fn varint_len(v: u64) -> u64 {
    (70 - u64::from((v | 1).leading_zeros())) / 7
}

impl Io for Size {
    fn op2(&mut self, v1: u8, v2: u8) -> bool {
        self.bytes += 1;
        self.compact && v1 != v2
    }
    #[inline(always)]
    fn word(&mut self, width: u64, v: u64) -> Walked<u64> {
        self.bytes += if width == 0 { varint_len(v) } else { width };
        Ok(v)
    }
    fn objects(&mut self, compact: bool, v: &[SpatialObject]) -> Walked<Vec<SpatialObject>> {
        self.bytes += 4 + v.len() as u64 * if compact { OBJ_BYTES_V2_MAX } else { OBJ_BYTES };
        Ok(Vec::new())
    }
}

/// The encoding pass: appends to a buffer the caller reserved.
struct Put<'a> {
    buf: &'a mut BytesMut,
    compact: bool,
    ctx: Option<&'a QuantCtx>,
}

impl Io for Put<'_> {
    fn op2(&mut self, v1: u8, v2: u8) -> bool {
        let compact = self.compact && v1 != v2;
        self.buf.put_u8(if compact { v2 } else { v1 });
        compact
    }
    #[inline(always)]
    fn word(&mut self, width: u64, v: u64) -> Walked<u64> {
        match width {
            0 => put_varint(self.buf, v),
            1 => self.buf.put_u8(v as u8),
            4 => self.buf.put_u32(v as u32),
            _ => self.buf.put_u64(v),
        }
        Ok(v)
    }
    fn rect(&mut self, r: &Rect) -> Walked<Rect> {
        self.buf.extend_from_slice(&rect_record(r));
        Ok(*r)
    }
    fn object(&mut self, o: &SpatialObject) -> Walked<SpatialObject> {
        put_object(self.buf, o);
        Ok(*o)
    }
    fn objects(&mut self, compact: bool, v: &[SpatialObject]) -> Walked<Vec<SpatialObject>> {
        self.buf.put_u32(v.len() as u32);
        let mut prev_id = 0;
        for o in v {
            if !compact {
                put_object(self.buf, o);
                continue;
            }
            put_object_v2(self.buf, o, prev_id, self.ctx);
            prev_id = o.id;
        }
        Ok(Vec::new())
    }
}

/// The decoding pass: every read bounds-checked, every list's capacity
/// capped by the bytes left (an item takes one at least; a length prefix
/// is input), and [`Get::finish`] refusing a frame that was not consumed
/// whole.
struct Get<'a> {
    buf: Bytes,
    ctx: Option<&'a QuantCtx>,
}

fn need(buf: &Bytes, bytes: usize) -> Walked<()> {
    if buf.remaining() < bytes {
        return Err(CodecError::Truncated);
    }
    Ok(())
}

impl Get<'_> {
    /// Decodes the one frame `buf` holds: its kind from its first byte,
    /// its fields by the walk, and nothing after them.
    fn frame<T>(
        mut self,
        blank: impl Fn(u8) -> Walked<T>,
        fields: impl Fn(&mut Self, &T) -> Walked<T>,
    ) -> Walked<T> {
        let kind = blank(self.peek()?)?;
        let frame = fields(&mut self, &kind)?;
        self.finish()?;
        Ok(frame)
    }

    fn peek(&self) -> Walked<u8> {
        self.buf.first().copied().ok_or(CodecError::Truncated)
    }

    /// The next `N` bytes, consumed whole: one bounds check per record.
    fn record<const N: usize>(&mut self) -> Walked<[u8; N]> {
        let raw = self.buf.get(..N).ok_or(CodecError::Truncated)?;
        let raw = raw.try_into().expect("N bytes");
        self.buf.advance(N);
        Ok(raw)
    }

    fn finish(self) -> Walked<()> {
        match self.buf.remaining() {
            0 => Ok(()),
            n => Err(CodecError::TrailingBytes(n)),
        }
    }
}

impl Io for Get<'_> {
    /// Consumes the byte the blank was picked by.
    fn op2(&mut self, v1: u8, v2: u8) -> bool {
        self.peek().is_ok_and(|seen| {
            self.buf.advance(1);
            seen == v2 && v1 != v2
        })
    }
    #[inline(always)]
    fn word(&mut self, width: u64, _: u64) -> Walked<u64> {
        need(&self.buf, width as usize)?;
        Ok(match width {
            0 => get_varint(&mut self.buf)?,
            1 => u64::from(self.buf.get_u8()),
            4 => u64::from(self.buf.get_u32()),
            _ => self.buf.get_u64(),
        })
    }
    fn rect(&mut self, _: &Rect) -> Walked<Rect> {
        Ok(get_rect(&self.record()?))
    }
    fn object(&mut self, _: &SpatialObject) -> Walked<SpatialObject> {
        Ok(get_object(&self.record()?))
    }
    fn items<T>(
        &mut self,
        _: &[T],
        blank: impl Fn(u8) -> Walked<T>,
        each: impl Fn(&mut Self, &T) -> Walked<T>,
    ) -> Walked<Vec<T>> {
        let n = self.u32(&0)? as usize;
        let mut items = Vec::with_capacity(n.min(self.buf.remaining()));
        for _ in 0..n {
            let item = blank(self.peek()?)?;
            items.push(each(self, &item)?);
        }
        Ok(items)
    }
    /// A v1 list is checked against the frame whole, before anything is
    /// reserved for it, and read in one pass over its records.
    fn objects(&mut self, compact: bool, _: &[SpatialObject]) -> Walked<Vec<SpatialObject>> {
        let n = self.u32(&0)? as usize;
        if !compact {
            let len = n.checked_mul(OBJ_BYTES as usize);
            let records = len.and_then(|len| self.buf.get(..len));
            let records = records.ok_or(CodecError::Truncated)?.chunks_exact(20);
            let objs = records.map(|raw| get_object(raw.try_into().expect("20")));
            let objs: Vec<_> = objs.collect();
            self.buf.advance(objs.len() * OBJ_BYTES as usize);
            return Ok(objs);
        }
        let mut objs = Vec::with_capacity(n.min(self.buf.remaining()));
        let (frame, mut at, mut prev_id) = (&self.buf[..], 0, 0);
        for _ in 0..n {
            let (o, len) = get_object_v2(&frame[at..], prev_id, self.ctx)?;
            (at, prev_id) = (at + len, o.id);
            objs.push(o);
        }
        self.buf.advance(at);
        Ok(objs)
    }
}

/// The rounding pass behind [`wire_exact`]: [`Io::f32`] has rounded
/// every coordinate and ε before this sees it.
struct Snap;

impl Io for Snap {
    fn op2(&mut self, _: u8, _: u8) -> bool {
        false
    }
    #[inline(always)]
    fn word(&mut self, _: u64, v: u64) -> Walked<u64> {
        Ok(v)
    }
    fn items<T>(
        &mut self,
        v: &[T],
        _: impl Fn(u8) -> Walked<T>,
        each: impl Fn(&mut Self, &T) -> Walked<T>,
    ) -> Walked<Vec<T>> {
        // Into an exact-capacity list: collecting `Result`s has no size
        // hint and would grow it by doubling.
        let mut items = Vec::with_capacity(v.len());
        for item in v {
            items.push(each(self, item)?);
        }
        Ok(items)
    }
}

// The two records, whole: big-endian fields at fixed offsets.

/// A rect record: min x, min y, max x, max y, each an `f32`.
fn rect_record(r: &Rect) -> [u8; 16] {
    let mut raw = [0; 16];
    for (at, v) in [r.min.x, r.min.y, r.max.x, r.max.y].into_iter().enumerate() {
        raw[4 * at..4 * at + 4].copy_from_slice(&(v as f32).to_be_bytes());
    }
    raw
}

/// Appends an object record — the `u32` id, then the rect — in one write.
fn put_object(buf: &mut BytesMut, o: &SpatialObject) {
    let mut raw = [0; 20];
    raw[..4].copy_from_slice(&o.id.to_be_bytes());
    raw[4..].copy_from_slice(&rect_record(&o.mbr));
    buf.extend_from_slice(&raw);
}

/// Normalised by `Rect::new`, like every rect a peer reads.
fn get_rect(raw: &[u8; 16]) -> Rect {
    let f = |at: usize| f64::from(f32::from_be_bytes(raw[at..at + 4].try_into().expect("4")));
    Rect::new(Point::new(f(0), f(4)), Point::new(f(8), f(12)))
}

fn get_object(raw: &[u8; 20]) -> SpatialObject {
    let (id, mbr) = raw.split_at(4);
    let id = u32::from_be_bytes(id.try_into().expect("4"));
    SpatialObject::new(id, get_rect(mbr.try_into().expect("16")))
}

/// Exact wire size of an encoded request, by the walk the encoder takes —
/// what [`encode_request`] reserves, so the cost-model constants (pinned
/// against this in the tests) can never drift from the real wire format.
pub fn request_wire_bytes(req: &Request) -> u64 {
    Size::of(false, Request::fields, req)
}

/// Exact wire size of a v1-encoded response, by the walk the encoder
/// takes.
pub fn response_wire_bytes(resp: &Response) -> u64 {
    Size::of(false, Response::fields, resp)
}

/// Encodes a request.
pub fn encode_request(req: &Request) -> Bytes {
    encode_request_versioned(req, WireVersion::V1)
}

/// Encodes a request in the link's wire version: v1 requests are
/// exactly [`encode_request`]; v2 requests prepend the 1-byte
/// `op::V2_MARK` envelope to the unchanged v1 body, telling the server
/// to answer in v2 framing. Request bodies are not recoded — they are
/// dominated by rectangles both peers must read exactly, and the marker
/// keeps the server stateless.
pub fn encode_request_versioned(req: &Request, wire: WireVersion) -> Bytes {
    let mark = wire == WireVersion::V2;
    let mut buf = BytesMut::with_capacity(usize::from(mark) + request_wire_bytes(req) as usize);
    if mark {
        buf.put_u8(op::V2_MARK);
    }
    let mut io = Put {
        buf: &mut buf,
        compact: false,
        ctx: None,
    };
    let _ = Request::fields(&mut io, req);
    buf.freeze()
}

/// Decodes a request, accepting both the bare v1 layout and the
/// v2-marked envelope; the returned [`WireVersion`] is the framing the
/// sender wants the *reply* in.
pub fn decode_request_versioned(mut buf: Bytes) -> Result<(Request, WireVersion), CodecError> {
    let wire = match buf.first() {
        Some(&op::V2_MARK) => {
            buf.advance(1);
            WireVersion::V2
        }
        _ => WireVersion::V1,
    };
    let io = Get { buf, ctx: None };
    Ok((io.frame(Request::blank, Request::fields)?, wire))
}

/// Decodes a request (either version), discarding the reply framing.
pub fn decode_request(buf: Bytes) -> Result<Request, CodecError> {
    Ok(decode_request_versioned(buf)?.0)
}

/// `req` as every peer reads it off the wire: each coordinate and ε
/// rounded through the request layout's `f32`, exactly what
/// [`decode_request`] returns for [`encode_request`]`(req)`. Layers that
/// take decisions on a request's rectangles (shard pruning, cache keys
/// and containment) take them on this form — the one the server
/// evaluates — so rounding can never make them diverge from it.
pub fn wire_exact(req: &Request) -> Request {
    Request::fields(&mut Snap, req).expect("rounding cannot fail")
}

/// Encodes a response.
pub fn encode_response(resp: &Response) -> Bytes {
    let mut buf = BytesMut::new();
    encode_response_into(resp, &mut buf);
    buf.freeze()
}

/// Encodes a v1 response by appending to `buf`. Servers call this with a
/// reused buffer, so steady-state encoding allocates nothing.
pub fn encode_response_into(resp: &Response, buf: &mut BytesMut) {
    encode_response_versioned(resp, WireVersion::V1, None, buf);
}

/// Encodes a response in the requested wire version, appending to `buf`
/// after reserving what the frame needs (one allocation at most). `V2`
/// swaps in the compact layouts — objects (delta-varint ids,
/// quantized/escaped coordinates against `ctx`), varint counts and acks —
/// and keeps the v1 layout for everything else (buckets, rects, pairs,
/// change lists, refusals): v2 is a superset, the decoder dispatches on
/// the opcode.
pub fn encode_response_versioned(
    resp: &Response,
    wire: WireVersion,
    ctx: Option<&QuantCtx>,
    buf: &mut BytesMut,
) {
    let compact = wire == WireVersion::V2;
    buf.reserve(Size::of(compact, Response::fields, resp) as usize);
    let _ = Response::fields(&mut Put { buf, compact, ctx }, resp);
}

/// Decodes a v1 response frame (and any v2 frame that needs no grid).
pub fn decode_response(buf: Bytes) -> Result<Response, CodecError> {
    decode_response_ctx(buf, None)
}

/// Decodes a response frame of either version. `ctx` is the request's
/// quantization grid ([`QuantCtx::for_request`]); it is only consulted for
/// quantized v2 object frames — pass `None` when the request had no
/// window (such frames never quantize).
pub fn decode_response_ctx(buf: Bytes, ctx: Option<&QuantCtx>) -> Result<Response, CodecError> {
    Get { buf, ctx }.frame(Response::blank, Response::fields)
}

/// Prefixes `buf` (appending) with the generation-stamp envelope of the
/// link's wire version — v1 the fixed `[R_GEN][u64]`, v2 the varint
/// `[R_GEN_V2][varint]` — and nothing at generation 0, so frozen-store
/// frames stay bit-identical to the pre-generation wire format. Callers
/// stamp **before** encoding the response frame.
pub fn stamp_generation_versioned(generation: u64, wire: WireVersion, buf: &mut BytesMut) {
    if generation > 0 {
        buf.reserve(GEN_STAMP_BYTES_V2_MAX as usize);
        let compact = wire == WireVersion::V2;
        let mut io = Put {
            buf,
            compact,
            ctx: None,
        };
        let compact = io.op2(op::R_GEN, op::R_GEN_V2);
        let _ = io.scalar(compact, &generation);
    }
}

/// Splits a raw response frame into its generation and the unstamped
/// remainder **without decoding the payload**. Handles both stamp
/// envelopes; unstamped frames report generation 0 and come back
/// unchanged. A stamp with no frame behind it is truncated.
pub fn peel_generation(buf: Bytes) -> Result<(u64, Bytes), CodecError> {
    let mut io = Get { buf, ctx: None };
    if !matches!(io.peek(), Ok(op::R_GEN | op::R_GEN_V2)) {
        return Ok((0, io.buf));
    }
    let compact = io.op2(op::R_GEN, op::R_GEN_V2);
    let generation = io.scalar(compact, &0)?;
    need(&io.buf, 1)?;
    Ok((generation, io.buf))
}

/// Decodes a response frame of either version that may carry a generation
/// stamp. Unstamped frames (everything a frozen, generation-0 store
/// serves) decode exactly as [`decode_response_ctx`] and report
/// generation 0.
pub fn decode_response_gen_ctx(
    buf: Bytes,
    ctx: Option<&QuantCtx>,
) -> Result<(Response, u64), CodecError> {
    let (generation, rest) = peel_generation(buf)?;
    Ok((decode_response_ctx(rest, ctx)?, generation))
}

/// Streaming encoder for an `Objects` response — the zero-copy serving
/// path. The header and every object go **directly into the wire
/// buffer**: no intermediate object `Vec`, no `Response`. A placeholder
/// count is written and **patched** on [`finish`](ObjectsEncoder::finish),
/// so the store is visited exactly once and counted never. Only the header
/// is reserved: both carriers serve into a reused buffer, which grows to
/// its high-water capacity once and never again.
///
/// The bytes are identical to encoding `Response::Objects` over the same
/// object sequence in the same wire version. Under [`WireVersion::V2`]
/// objects stream in the compact layout, quantized against `ctx` when one
/// exists (escaping per the [`QuantCtx`] contract).
pub struct ObjectsEncoder<'a> {
    buf: &'a mut BytesMut,
    len_at: usize,
    written: u32,
    wire: WireVersion,
    ctx: Option<QuantCtx>,
    prev_id: u32,
}

impl<'a> ObjectsEncoder<'a> {
    /// Opens a frame whose count is patched on `finish`.
    pub fn new_versioned(buf: &'a mut BytesMut, wire: WireVersion, ctx: Option<QuantCtx>) -> Self {
        let opcode = match wire {
            WireVersion::V1 => op::R_OBJECTS,
            WireVersion::V2 => op::R_OBJECTS_V2,
        };
        buf.reserve(OBJECTS_HEADER_BYTES as usize);
        buf.put_u8(opcode);
        let len_at = buf.len();
        buf.put_u32(0);
        ObjectsEncoder {
            buf,
            len_at,
            written: 0,
            wire,
            ctx,
            prev_id: 0,
        }
    }

    /// Appends one object to the frame.
    pub fn push(&mut self, o: &SpatialObject) {
        match self.wire {
            WireVersion::V1 => put_object(self.buf, o),
            WireVersion::V2 => {
                put_object_v2(self.buf, o, self.prev_id, self.ctx.as_ref());
                self.prev_id = o.id;
            }
        }
        self.written += 1;
    }

    /// Closes the frame: patches the streamed count in.
    pub fn finish(self) {
        self.buf[self.len_at..self.len_at + 4].copy_from_slice(&self.written.to_be_bytes());
    }
}

// ---------------------------------------------------------------------------
// Wire protocol v2: varint primitives, the quantization grid, compact frames.
// ---------------------------------------------------------------------------

fn put_varint(buf: &mut BytesMut, mut v: u64) {
    while v >= 0x80 {
        buf.put_u8((v as u8) | 0x80);
        v >>= 7;
    }
    buf.put_u8(v as u8);
}

/// An id delta's zigzag varint (below 2³³, so five groups at most), its
/// first byte lowest in the word, and its length: no branch on the value.
/// Every byte below the top group's carries the continuation bit, and
/// those bits all lie below the top group's highest set bit.
fn delta_varint(v: u64) -> (u64, usize) {
    let groups = (0..5).fold(0, |word, i| word | (v & 0x7f << (7 * i)) << i);
    let top = (groups | 1).leading_zeros();
    (
        groups | 0x80_8080_8080 & u64::MAX >> top,
        (71 - top as usize) / 8,
    )
}

/// The one varint reader (counts, acks, id deltas, the v2 stamp): ten
/// bytes at most, and the tenth may carry only the 64th bit — so every
/// value has exactly one encoding a decoder accepts per length. Returns
/// the value and the bytes of `raw` it took.
fn varint(raw: &[u8]) -> Walked<(u64, usize)> {
    let mut v = 0u64;
    for (i, &b) in raw.iter().take(10).enumerate() {
        if i == 9 && b > 1 {
            break;
        }
        v |= u64::from(b & 0x7f) << (7 * i);
        if b & 0x80 == 0 {
            return Ok((v, i + 1));
        }
    }
    Err(CodecError::Truncated)
}

fn get_varint(buf: &mut Bytes) -> Walked<u64> {
    let (v, len) = varint(buf)?;
    buf.advance(len);
    Ok(v)
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

pub(crate) fn snap_rect_f32(r: &Rect) -> Rect {
    Snap.rect(r).expect("rounding cannot fail")
}

/// The u16 coordinate grid of one request/response exchange — the request
/// window both peers of a v2 link derive it from.
///
/// # The quantization contract
///
/// v2 object frames may carry coordinates as u16 grid cells relative to
/// the request window instead of exact `f32` values. Three clauses make
/// that safe:
///
/// 1. **Shared grid.** Both peers derive the grid from the *wire form* of
///    the request: rect coordinates and ε are snapped through `f32`
///    exactly as [`decode_request`] delivers them, so the server (which
///    only sees the decoded request) and the client (which knows the
///    original) compute bit-identical grids. `WINDOW` grids over the
///    window itself, `ε-RANGE` over the probe expanded by ε; requests
///    without a natural window have no grid and every coordinate escapes.
/// 2. **Verified round trip.** The encoder tries one cell per coordinate,
///    the nearest to `t = (v − min) / (max − min) · 65535` (ties away from
///    zero), and quantizes the coordinate only if dequantizing that cell
///    reproduces — compared bitwise — the exact `f64` value v1's `f32`
///    wire cast would deliver (`(v as f32) as f64`). Anything else
///    (out-of-window, off-grid, degenerate or non-finite spans)
///    **escapes** to the exact `f32`. A v2 decode is therefore bit-equal
///    to the v1 decode of the same objects, always: join results cannot
///    depend on the wire version.
/// 3. **Exact endpoints.** Cell 0 dequantizes to exactly the window min
///    and cell 65535 to exactly the max, so window-edge and grid-aligned
///    coordinates always quantize.
///
/// Density on the point workloads comes mostly from the tag's POINT bit
/// (min == max ships one coordinate pair, not two) and the delta-varint
/// ids; quantization adds a further 2× on grid-aligned data.
///
/// # Candidate, then verify
///
/// The encoder finds clause 2's cell without dividing or calling `round`:
/// each axis keeps `65535 / (max − min)`, computed once when the grid is
/// derived, `t` is a multiply, and the float adder rounds it. The product
/// may differ from the quotient in its last bits, and the adder breaks a
/// tie to even, so the result only proposes. A cell that dequantizes to
/// exactly `v` lies within 2⁻¹³ of `t`: dequantizing rounds three times,
/// each within 2⁻⁵³ of a value at most 2²⁴ spans large (an `f32`
/// window's span is at least one `f32` ulp of its ends), and
/// 65535 · 2²⁴ · 2⁻⁵³ < 2⁻¹³. Cells are 2⁻¹⁶ spans apart, far more than
/// an `f64` ulp of `v`, so at most one cell can verify. A `t` farther
/// than `NEAR` (2⁻¹⁰) from every integer — a tie among them — therefore
/// has no such cell and escapes without a division; a nearer one rounds
/// to the same integer under the multiply as under the division, and that
/// cell meets the unchanged, exact, dividing `dequant` comparison. So the
/// encoder quantizes exactly the coordinates a dividing one does, into
/// the same cells.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantCtx {
    axes: [Axis; 2],
}

/// One axis of a grid: the snapped window's extent on it, and the scale
/// its candidates are multiplied out with.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Axis {
    min: f64,
    max: f64,
    scale: f64,
}

/// How far from an integer a candidate may land and still be verified.
const NEAR: f64 = 1.0 / 1024.0;
/// 1.5 · 2⁵²: added to a candidate below 2⁵¹, it rounds it to an integer.
const ROUND: f64 = 6_755_399_441_055_744.0;

impl QuantCtx {
    /// Grid over the f32-snapped `rect`; `None` when either axis span is
    /// degenerate or non-finite (no grid exists — every coordinate would
    /// escape anyway).
    pub fn new(rect: Rect) -> Option<QuantCtx> {
        let r = snap_rect_f32(&rect);
        let axis = |min: f64, max: f64| {
            let span = max - min;
            let scale = 65535.0 / span;
            (span.is_finite() && span > 0.0).then_some(Axis { min, max, scale })
        };
        let axes = [axis(r.min.x, r.max.x)?, axis(r.min.y, r.max.y)?];
        Some(QuantCtx { axes })
    }

    /// The grid both peers of `req` agree on (clause 1 of the contract,
    /// over the rectangle `Request::grid` names). Callers on the
    /// *client* side pass the request they are about to encode; the
    /// server passes the request it decoded — both land on the same grid
    /// because the derivation starts from the f32 wire form.
    pub fn for_request(req: &Request) -> Option<QuantCtx> {
        req.grid().and_then(QuantCtx::new)
    }

    /// The grid a `wire` frame answering `req` is coded against: the
    /// request's ([`QuantCtx::for_request`]) on v2, none on v1 — a v1
    /// frame never quantizes, so it derives no grid.
    pub fn for_wire(req: &Request, wire: WireVersion) -> Option<QuantCtx> {
        match wire {
            WireVersion::V1 => None,
            WireVersion::V2 => QuantCtx::for_request(req),
        }
    }
}

impl Axis {
    /// The cell `v` ships as, if any: the candidate, verified.
    fn quant(&self, v: f64) -> Option<u16> {
        if !(v >= self.min && v <= self.max) {
            return None;
        }
        // Past 2⁵² an `f64` holds integers only: adding `ROUND` rounds `t`
        // to the nearest, whose low bits are the cell.
        let t = (v - self.min) * self.scale;
        let rounded = t + ROUND;
        let near = (t - (rounded - ROUND)).abs() < NEAR;
        let q = rounded.to_bits() as u16;
        (near && self.dequant(q).to_bits() == v.to_bits()).then_some(q)
    }

    fn dequant(&self, q: u16) -> f64 {
        match q {
            0 => self.min,
            u16::MAX => self.max,
            q => self.min + (f64::from(q) / 65535.0) * (self.max - self.min),
        }
    }
}

/// Appends a compact object: the record is opened at full width, the tag,
/// the id delta and both axes are written into it whole, and it is cut
/// back to the bytes its layout takes.
#[inline]
fn put_object_v2(buf: &mut BytesMut, o: &SpatialObject, prev_id: u32, ctx: Option<&QuantCtx>) {
    // The f32 values a v1 frame would deliver — the bit-faithfulness
    // target every candidate cell is verified against.
    let wire = |v: f64| f64::from(v as f32);
    let lo = [wire(o.mbr.min.x), wire(o.mbr.min.y)];
    let hi = [wire(o.mbr.max.x), wire(o.mbr.max.y)];
    let point = lo.map(f64::to_bits) == hi.map(f64::to_bits);
    let start = buf.len();
    buf.extend_from_slice(&[0; OBJ_BYTES_V2_MAX as usize]);
    let raw = &mut buf[start..];
    let (delta, len) = delta_varint(zigzag(i64::from(o.id) - i64::from(prev_id)));
    raw[1..9].copy_from_slice(&delta.to_le_bytes());
    let (mut tag, mut end) = (if point { op::V2_POINT } else { 0 }, 1 + len);
    for (axis, bit) in [(0, op::V2_QX), (1, op::V2_QY)] {
        let cells = ctx.and_then(|ctx| {
            let grid = &ctx.axes[axis];
            let qlo = grid.quant(lo[axis])?;
            Some((qlo, if point { qlo } else { grid.quant(hi[axis])? }))
        });
        // The axis's cells or values, from the top of a big-endian word;
        // a point keeps the first half of what a rect keeps.
        let f32_bits = |v: f64| u64::from((v as f32).to_bits());
        let (word, len) = match cells {
            Some((qlo, qhi)) => (u64::from(qlo) << 48 | u64::from(qhi) << 32, 4),
            None => (f32_bits(lo[axis]) << 32 | f32_bits(hi[axis]), 8),
        };
        tag |= if cells.is_some() { bit } else { 0 };
        raw[end..end + 8].copy_from_slice(&word.to_be_bytes());
        end += len >> u8::from(point);
    }
    raw[0] = tag;
    buf.truncate(start + end);
}

/// Reads the compact object `rest` opens whole, and the bytes it took:
/// its first 32 bytes — more than the longest record a decoder accepts,
/// a tag, a ten-byte varint and a rect; zero past the end of the frame —
/// are parsed with a local cursor. Each field is checked against the
/// bytes the frame holds, in wire order, so every cut fails as it did
/// read a byte at a time.
fn get_object_v2(
    rest: &[u8],
    prev_id: u32,
    ctx: Option<&QuantCtx>,
) -> Walked<(SpatialObject, usize)> {
    let have = rest.len().min(32);
    let padded;
    let raw: &[u8; 32] = match rest.get(..32) {
        Some(raw) => raw.try_into().expect("32 bytes"),
        None => {
            padded = std::array::from_fn(|i| rest.get(i).copied().unwrap_or(0));
            &padded
        }
    };
    let tag = *rest.first().ok_or(CodecError::Truncated)?;
    if tag & !(op::V2_POINT | op::V2_QX | op::V2_QY) != 0 {
        return Err(CodecError::UnknownOpcode(tag));
    }
    let point = tag & op::V2_POINT != 0;
    let (delta, vlen) = varint(&raw[1..have])?;
    // A delta that leaves `u32` is a complete record with a value out of
    // range, like an unknown update tag — not a truncation.
    let id = u32::try_from(i64::from(prev_id).wrapping_add(unzigzag(delta)))
        .map_err(|_| CodecError::UnknownOpcode(tag))?;
    // Where each axis starts and the record ends, then the checks in wire
    // order: x's grid, x's bytes, y's grid, y's bytes.
    let width = |bit: u8| if tag & bit != 0 { 4 } else { 8 } >> u8::from(point);
    let (x_at, y_at) = (1 + vlen, 1 + vlen + width(op::V2_QX));
    let end = y_at + width(op::V2_QY);
    let grid = |axis: usize, bit: u8| match tag & bit {
        0 => Ok(None),
        _ => Ok(Some(&ctx.ok_or(CodecError::MissingContext)?.axes[axis])),
    };
    let gx = grid(0, op::V2_QX)?;
    if y_at > have {
        return Err(CodecError::Truncated);
    }
    let gy = grid(1, op::V2_QY)?;
    if end > have {
        return Err(CodecError::Truncated);
    }
    // An axis's two values, from the top of the big-endian word it starts
    // (a point's second is its first).
    let axis = |grid: Option<&Axis>, at: usize| {
        let word = u64::from_be_bytes(raw[at..at + 8].try_into().expect("8 bytes"));
        let value = |second: u32| match grid {
            Some(grid) => grid.dequant((word << (16 * second) >> 48) as u16),
            None => f64::from(f32::from_bits((word << (32 * second) >> 32) as u32)),
        };
        let lo = value(0);
        (lo, if point { lo } else { value(1) })
    };
    let ((xlo, xhi), (ylo, yhi)) = (axis(gx, x_at), axis(gy, y_at));
    let (min, max) = (Point::new(xlo, ylo), Point::new(xhi, yhi));
    Ok((SpatialObject::new(id, Rect::new(min, max)), end))
}

/// The locally fabricated pseudo-reply of a carrier whose peer is gone
/// (`op::R_UNAVAILABLE`). Decodes to
/// [`crate::proto::Response::Unavailable`]; metering layers must treat it
/// as zero wire traffic — nothing crossed.
pub fn unavailable_frame() -> Bytes {
    Bytes::copy_from_slice(&[op::R_UNAVAILABLE])
}

/// `true` iff `raw` is the carrier-fabricated [`unavailable_frame`] — the
/// check metering sites use to skip charging an exchange that never
/// happened.
pub fn is_unavailable(raw: &[u8]) -> bool {
    raw.len() == UNAVAILABLE_BYTES as usize && raw[0] == op::R_UNAVAILABLE
}

/// Identity of one at-most-once update delivery: `nonce` names the sender
/// (one per link, process-unique), `seq` the batch within that sender.
/// Every retry of the same batch carries the identical tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DedupTag {
    pub nonce: u64,
    pub seq: u64,
}

/// Wraps an encoded `ApplyUpdates` frame in the retry-dedup envelope
/// `[APPLY_UPDATES_SEQ][u64 nonce][u64 seq][inner frame]`. Only attached
/// when retries are enabled — see [`DEDUP_HEADER_BYTES`].
pub fn wrap_dedup(tag: DedupTag, inner: &[u8]) -> Bytes {
    let mut buf = Vec::with_capacity(DEDUP_HEADER_BYTES as usize + inner.len());
    buf.push(op::APPLY_UPDATES_SEQ);
    buf.extend_from_slice(&tag.nonce.to_be_bytes());
    buf.extend_from_slice(&tag.seq.to_be_bytes());
    buf.extend_from_slice(inner);
    Bytes::from(buf)
}

/// Splits a retry-dedup envelope off a request frame: `Some((tag,
/// inner))` when `raw` is a well-formed envelope, `None` for every other
/// frame (including a truncated envelope, which the caller's ordinary
/// request decoder then rejects as malformed).
pub fn peel_dedup(raw: &Bytes) -> Option<(DedupTag, Bytes)> {
    if raw.len() < DEDUP_HEADER_BYTES as usize || raw[0] != op::APPLY_UPDATES_SEQ {
        return None;
    }
    let nonce = u64::from_be_bytes(raw[1..9].try_into().expect("8-byte nonce"));
    let seq = u64::from_be_bytes(raw[9..17].try_into().expect("8-byte seq"));
    Some((
        DedupTag { nonce, seq },
        raw.slice(DEDUP_HEADER_BYTES as usize..raw.len()),
    ))
}

/// Stamps `op::GARBLE` over byte 0 of a frame — the deterministic
/// fault injector's reply corruption. The result never decodes to any
/// valid value (the marker is outside every opcode range), so a garbled
/// reply always surfaces as a typed `Malformed`, never as a silently
/// different answer.
pub fn garble_frame(raw: &[u8]) -> Bytes {
    let mut out = Vec::with_capacity(raw.len().max(1));
    out.push(op::GARBLE);
    if raw.len() > 1 {
        out.extend_from_slice(&raw[1..]);
    }
    Bytes::from(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(id: u32, x: f64, y: f64) -> SpatialObject {
        SpatialObject::point(id, x, y)
    }

    /// Every published constant against the size the walk derives for a
    /// minimal frame of its kind (or the difference one more item makes):
    /// the constants the cost model, the cache and the experiments price
    /// with cannot drift from what the encoder writes.
    #[test]
    fn published_constants_are_the_sizes_the_walks_derive() {
        let (w, o) = (Rect::default(), SpatialObject::default());
        let req = |r: Request| request_wire_bytes(&r);
        let resp = |r: Response| response_wire_bytes(&r);
        let windows = |n| {
            let mbrs = vec![w; n];
            req(Request::CoopFilterByMbrs { mbrs, eps: 0.0 })
        };
        let objects = |n| resp(Response::Objects(vec![o; n]));
        let changes = |n| resp(Response::Changes(vec![DeltaOp::Add(o); n]));
        let v2 = |resp: &Response, generation| {
            let mut buf = BytesMut::new();
            stamp_generation_versioned(generation, WireVersion::V2, &mut buf);
            encode_response_versioned(resp, WireVersion::V2, None, &mut buf);
            buf.len() as u64
        };
        let mut v1_stamp = BytesMut::new();
        stamp_generation_versioned(1, WireVersion::V1, &mut v1_stamp);
        // The estimate's shape: a point, a 2-byte id delta, both axes
        // escaped. The bound's: a rect, a 5-byte delta, both escaped.
        let typical = Response::Objects(vec![SpatialObject::point(1000, 0.5, 0.5)]);
        let unit = Rect::from_coords(0.0, 0.0, 1.0, 1.0);
        let widest = Response::Objects(vec![SpatialObject::new(u32::MAX, unit)]);
        let refused = Response::Refused;
        let probes = Vec::new();
        let table = [
            ("OBJ_BYTES", OBJ_BYTES, objects(1) - objects(0)),
            ("RECT_BYTES", RECT_BYTES, windows(1) - windows(0)),
            ("QUERY_BYTES", QUERY_BYTES, req(Request::Window(w))),
            ("QUERY_BYTES", QUERY_BYTES, req(Request::Count(w))),
            ("ANSWER_BYTES", ANSWER_BYTES, resp(Response::Count(0))),
            (
                "EPS_QUERY_BYTES",
                EPS_QUERY_BYTES,
                req(Request::EpsRange { q: w, eps: 0.0 }),
            ),
            (
                "BUCKET_REQ_HEADER_BYTES",
                BUCKET_REQ_HEADER_BYTES,
                req(Request::BucketEpsRange { probes, eps: 0.0 }),
            ),
            ("OBJECTS_HEADER_BYTES", OBJECTS_HEADER_BYTES, objects(0)),
            (
                "BUCKET_FRAME_BYTES",
                BUCKET_FRAME_BYTES,
                resp(Response::Buckets(vec![vec![]])) - resp(Response::Buckets(vec![])),
            ),
            ("GEN_STAMP_BYTES", GEN_STAMP_BYTES, v1_stamp.len() as u64),
            (
                "CHANGES_QUERY_BYTES",
                CHANGES_QUERY_BYTES,
                req(Request::Changes { since: 0 }),
            ),
            ("CHANGES_HEADER_BYTES", CHANGES_HEADER_BYTES, changes(0)),
            ("CHANGE_OP_BYTES", CHANGE_OP_BYTES, changes(1) - changes(0)),
            (
                "OBJ_BYTES_V2_EST",
                OBJ_BYTES_V2_EST as u64,
                v2(&typical, 0) - OBJECTS_HEADER_BYTES,
            ),
            (
                "OBJ_BYTES_V2_MAX",
                OBJ_BYTES_V2_MAX,
                v2(&widest, 0) - OBJECTS_HEADER_BYTES,
            ),
            (
                "GEN_STAMP_BYTES_V2_MAX",
                GEN_STAMP_BYTES_V2_MAX,
                v2(&refused, u64::MAX) - v2(&refused, 0),
            ),
            (
                "UNAVAILABLE_BYTES",
                UNAVAILABLE_BYTES,
                unavailable_frame().len() as u64,
            ),
            (
                "DEDUP_HEADER_BYTES",
                DEDUP_HEADER_BYTES,
                wrap_dedup(DedupTag { nonce: 0, seq: 0 }, &[]).len() as u64,
            ),
        ];
        for (name, published, derived) in table {
            assert_eq!(published, derived, "{name}");
        }
    }

    #[test]
    fn dedup_envelope_roundtrips_and_rejects_short_frames() {
        let inner = encode_request(&Request::ApplyUpdates(vec![Update::Delete(7)]));
        let tag = DedupTag {
            nonce: 0xDEAD_BEEF,
            seq: 42,
        };
        let wrapped = wrap_dedup(tag, &inner);
        assert_eq!(
            wrapped.len() as u64,
            DEDUP_HEADER_BYTES + inner.len() as u64
        );
        let (back_tag, back_inner) = peel_dedup(&wrapped).expect("well-formed envelope");
        assert_eq!(back_tag, tag);
        assert_eq!(back_inner.as_ref(), inner.as_ref());
        // The inner frame still decodes as the plain request.
        assert_eq!(
            decode_request(back_inner).unwrap(),
            Request::ApplyUpdates(vec![Update::Delete(7)])
        );
        // Non-envelope and truncated-envelope frames peel to None; the
        // truncated one then fails ordinary decoding (typed, no panic).
        assert!(peel_dedup(&inner).is_none());
        let truncated = wrapped.slice(0..DEDUP_HEADER_BYTES as usize - 1);
        assert!(peel_dedup(&truncated).is_none());
        assert!(decode_request(truncated).is_err());
    }

    /// The bytes of `WIRE.md`'s `Changes` example: per line, the label
    /// dropped and every even-length hex token up to the comment.
    /// (`tests/wire_spec.rs` round-trips every example of the document;
    /// this one is also held to the values it claims to show.)
    fn doc_example(label: &str) -> Bytes {
        let block = include_str!("../../../WIRE.md")
            .split("### Example: object 7 moves")
            .nth(1)
            .and_then(|rest| rest.split("```").nth(1))
            .expect("WIRE.md carries the example block");
        let is_hex = |t: &&str| t.len() % 2 == 0 && t.bytes().all(|b| b.is_ascii_hexdigit());
        let mut bytes = Vec::new();
        let mut on = false;
        for line in block.lines() {
            let mut tokens = line.split_whitespace().peekable();
            if tokens.peek().is_some_and(|t| !is_hex(t)) {
                on = tokens.next() == Some(label);
            }
            for t in tokens.take_while(is_hex).filter(|_| on) {
                let pairs = (0..t.len()).step_by(2);
                bytes.extend(pairs.map(|i| u8::from_str_radix(&t[i..i + 2], 16).unwrap()));
            }
        }
        Bytes::from(bytes)
    }

    #[test]
    fn changes_doc_example_parses_and_roundtrips() {
        let (req, resp) = (doc_example("request"), doc_example("response"));
        assert_eq!(req.len() as u64, CHANGES_QUERY_BYTES);
        assert_eq!(
            resp.len() as u64,
            GEN_STAMP_BYTES + CHANGES_HEADER_BYTES + 2 * CHANGE_OP_BYTES
        );
        let want_req = Request::Changes { since: 41 };
        let want_resp = Response::Changes(vec![
            DeltaOp::Remove {
                id: 7,
                mbr: obj(7, 1.0, 2.0).mbr,
            },
            DeltaOp::Add(obj(7, 3.0, 2.0)),
        ]);
        assert_eq!(decode_request(req.clone()).unwrap(), want_req);
        assert_eq!(encode_request(&want_req), req);
        assert_eq!(
            decode_response_gen_ctx(resp.clone(), None).unwrap(),
            (want_resp.clone(), 42)
        );
        let mut buf = BytesMut::new();
        stamp_generation_versioned(42, WireVersion::V1, &mut buf);
        encode_response_into(&want_resp, &mut buf);
        assert_eq!(buf.freeze(), resp);
        // One layout for both versions: v2 differs in the marker and the
        // stamp, never in the frame.
        let mut v2 = BytesMut::new();
        encode_response_versioned(&want_resp, WireVersion::V2, None, &mut v2);
        assert_eq!(
            v2.freeze(),
            resp.slice(GEN_STAMP_BYTES as usize..resp.len())
        );
        assert_eq!(
            encode_request_versioned(&want_req, WireVersion::V2)[1..],
            req[..]
        );
        // A bad tag or a cut op rejects the frame whole.
        let mut bad = resp[GEN_STAMP_BYTES as usize..].to_vec();
        bad[CHANGES_HEADER_BYTES as usize] = 0x03;
        assert_eq!(
            decode_response(Bytes::from(bad)),
            Err(CodecError::UnknownOpcode(0x03))
        );
        let cut = resp.slice(GEN_STAMP_BYTES as usize..resp.len() - 1);
        assert_eq!(decode_response(cut), Err(CodecError::Truncated));
    }

    #[test]
    fn garbled_frames_are_typed_errors_never_values() {
        let frames = [
            encode_response(&Response::Count(7)),
            encode_response(&Response::Objects(vec![obj(1, 1.0, 2.0)])),
            encode_response(&Response::Ack { generation: 3 }),
        ];
        for f in frames {
            let g = garble_frame(&f);
            assert_eq!(g[0], op::GARBLE);
            assert_eq!(g.len(), f.len());
            assert_eq!(
                decode_response(g.clone()),
                Err(CodecError::UnknownOpcode(op::GARBLE))
            );
            assert_eq!(
                decode_response_gen_ctx(g, None),
                Err(CodecError::UnknownOpcode(op::GARBLE))
            );
        }
    }

    #[test]
    fn request_roundtrips() {
        let w = Rect::from_coords(1.0, 2.0, 3.0, 4.0);
        let reqs = vec![
            Request::Window(w),
            Request::Count(w),
            Request::EpsRange { q: w, eps: 0.5 },
            Request::BucketEpsRange {
                probes: vec![obj(1, 1.0, 2.0), obj(2, 3.0, 4.0)],
                eps: 2.0,
            },
            Request::CoopLevelMbrs(3),
            Request::CoopFilterByMbrs {
                mbrs: vec![w, w],
                eps: 1.5,
            },
            Request::CoopJoinPush {
                objects: vec![obj(9, 5.0, 5.0)],
                eps: 0.25,
            },
        ];
        for req in reqs {
            let bytes = encode_request(&req);
            let back = decode_request(bytes).unwrap();
            assert_eq!(back, req);
        }
    }

    #[test]
    fn wire_exact_is_what_the_peer_decodes() {
        // Thirds and tenths are not f32-representable: every coordinate
        // and ε below changes on the wire.
        let w = Rect::from_coords(1.0 / 3.0, 0.1, 10.0 / 3.0, 7.7);
        let o = SpatialObject::new(5, w);
        let reqs = vec![
            Request::Window(w),
            Request::Count(w),
            Request::EpsRange { q: w, eps: 0.1 },
            Request::BucketEpsRange {
                probes: vec![o, o],
                eps: 0.3,
            },
            Request::CoopLevelMbrs(2),
            Request::CoopFilterByMbrs {
                mbrs: vec![w],
                eps: 0.7,
            },
            Request::CoopJoinPush {
                objects: vec![o],
                eps: 0.9,
            },
            Request::ApplyUpdates(vec![
                Update::Insert(o),
                Update::Delete(7),
                Update::Move { id: 9, to: w },
            ]),
        ];
        for req in reqs {
            let decoded = decode_request(encode_request(&req)).unwrap();
            assert_eq!(wire_exact(&req), decoded);
            assert_eq!(wire_exact(&decoded), decoded, "idempotent");
            if !matches!(req, Request::CoopLevelMbrs(_)) {
                assert_ne!(decoded, req, "the sample must actually round");
            }
        }
    }

    #[test]
    fn response_roundtrips() {
        let resps = vec![
            Response::Objects(vec![obj(1, 1.0, 1.0), obj(2, 2.0, 2.0)]),
            Response::Count(123_456),
            Response::Buckets(vec![vec![obj(1, 0.0, 0.0)], vec![], vec![obj(2, 1.0, 1.0)]]),
            Response::Rects(vec![Rect::from_coords(0.0, 0.0, 1.0, 1.0)]),
            Response::Pairs(vec![(1, 2), (3, 4)]),
            Response::Refused,
        ];
        for resp in resps {
            let bytes = encode_response(&resp);
            let back = decode_response(bytes).unwrap();
            assert_eq!(back, resp);
        }
    }

    #[test]
    fn wire_sizes_match_constants() {
        let w = Rect::from_coords(0.0, 0.0, 1.0, 1.0);
        assert_eq!(
            encode_request(&Request::Window(w)).len() as u64,
            QUERY_BYTES
        );
        assert_eq!(encode_request(&Request::Count(w)).len() as u64, QUERY_BYTES);
        assert_eq!(
            encode_response(&Response::Count(7)).len() as u64,
            ANSWER_BYTES
        );
        let objs = vec![obj(1, 0.0, 0.0), obj(2, 1.0, 1.0), obj(3, 2.0, 2.0)];
        assert_eq!(
            encode_response(&Response::Objects(objs)).len() as u64,
            OBJECTS_HEADER_BYTES + 3 * OBJ_BYTES
        );
    }

    #[test]
    fn eps_and_bucket_request_sizes() {
        let w = Rect::from_coords(0.0, 0.0, 1.0, 1.0);
        assert_eq!(
            encode_request(&Request::EpsRange { q: w, eps: 1.0 }).len() as u64,
            EPS_QUERY_BYTES
        );
        let probes = vec![obj(1, 0.0, 0.0), obj(2, 1.0, 1.0)];
        assert_eq!(
            encode_request(&Request::BucketEpsRange { probes, eps: 1.0 }).len() as u64,
            BUCKET_REQ_HEADER_BYTES + 2 * OBJ_BYTES
        );
    }

    #[test]
    fn bucket_wire_size() {
        let b = Response::Buckets(vec![vec![obj(1, 0.0, 0.0)], vec![]]);
        // opcode + outer u32 + (frame + obj) + frame
        assert_eq!(
            encode_response(&b).len() as u64,
            OBJECTS_HEADER_BYTES + (BUCKET_FRAME_BYTES + OBJ_BYTES) + BUCKET_FRAME_BYTES
        );
    }

    #[test]
    fn truncated_messages_rejected() {
        let full = encode_request(&Request::Window(Rect::from_coords(0.0, 0.0, 1.0, 1.0)));
        for cut in [0, 1, 5, 16] {
            let r = decode_request(full.slice(0..cut));
            assert_eq!(r, Err(CodecError::Truncated), "cut={cut}");
        }
    }

    #[test]
    fn unknown_opcode_rejected() {
        let bad = Bytes::from_static(&[0x7f, 0, 0, 0]);
        assert_eq!(
            decode_request(bad.clone()),
            Err(CodecError::UnknownOpcode(0x7f))
        );
        assert_eq!(decode_response(bad), Err(CodecError::UnknownOpcode(0x7f)));
    }

    #[test]
    fn update_batch_roundtrips_and_matches_constants() {
        let batch = Request::ApplyUpdates(vec![
            Update::Insert(obj(1, 1.0, 2.0)),
            Update::Delete(7),
            Update::Move {
                id: 9,
                to: Rect::from_coords(1.0, 1.0, 2.0, 2.0),
            },
        ]);
        let bytes = encode_request(&batch);
        assert_eq!(
            bytes.len() as u64,
            (1 + 4) + (1 + OBJ_BYTES) + (1 + 4) + (1 + 4 + RECT_BYTES),
            "header, a tagged object, a tagged id, a tagged id + rect"
        );
        assert_eq!(decode_request(bytes).unwrap(), batch);
        let empty = Request::ApplyUpdates(vec![]);
        assert_eq!(
            decode_request(encode_request(&empty)).unwrap(),
            Request::ApplyUpdates(vec![])
        );
    }

    #[test]
    fn update_truncation_and_bad_tag_rejected() {
        let full = encode_request(&Request::ApplyUpdates(vec![
            Update::Insert(obj(1, 1.0, 2.0)),
            Update::Delete(7),
        ]));
        for cut in [1, 4, 5, 6, 25, 26] {
            assert_eq!(
                decode_request(full.slice(0..cut)),
                Err(CodecError::Truncated),
                "cut={cut}"
            );
        }
        let mut bad = full.as_slice().to_vec();
        bad[1 + 4] = 0x7e; // corrupt the first tag, after opcode + count
        assert_eq!(
            decode_request(Bytes::from(bad)),
            Err(CodecError::UnknownOpcode(0x7e))
        );
    }

    #[test]
    fn ack_roundtrips() {
        let ack = Response::Ack { generation: 42 };
        let bytes = encode_response(&ack);
        assert_eq!(bytes.len(), 1 + 8);
        assert_eq!(decode_response(bytes.clone()).unwrap(), ack);
        assert_eq!(decode_response_gen_ctx(bytes, None).unwrap(), (ack, 0));
        assert_eq!(
            decode_response(encode_response(&Response::Ack { generation: 42 }).slice(0..5)),
            Err(CodecError::Truncated)
        );
    }

    #[test]
    fn generation_zero_stamps_nothing() {
        // The bit-for-bit compatibility proof at the codec level: stamping
        // generation 0 appends no bytes, so a frozen store's frames are
        // exactly the pre-generation encoding, and they decode to gen 0.
        let resp = Response::Objects(vec![obj(1, 1.0, 1.0)]);
        let mut buf = BytesMut::new();
        stamp_generation_versioned(0, WireVersion::V1, &mut buf);
        assert!(buf.is_empty());
        encode_response_into(&resp, &mut buf);
        assert_eq!(buf.freeze(), encode_response(&resp));
        let (back, gen) = decode_response_gen_ctx(encode_response(&resp), None).unwrap();
        assert_eq!((back, gen), (resp, 0));
    }

    #[test]
    fn stamped_frames_roundtrip_and_peel() {
        let resp = Response::Objects(vec![obj(1, 1.0, 1.0), obj(2, 2.0, 2.0)]);
        let mut buf = BytesMut::new();
        stamp_generation_versioned(3, WireVersion::V1, &mut buf);
        encode_response_into(&resp, &mut buf);
        let raw = buf.freeze();
        assert_eq!(
            raw.len() as u64,
            GEN_STAMP_BYTES + response_wire_bytes(&resp)
        );
        assert_eq!(
            decode_response_gen_ctx(raw.clone(), None).unwrap(),
            (resp.clone(), 3)
        );
        let (gen, rest) = peel_generation(raw.clone()).unwrap();
        assert_eq!(gen, 3);
        assert_eq!(rest, encode_response(&resp));
        // Peeling an unstamped frame is the identity.
        let plain = encode_response(&resp);
        assert_eq!(peel_generation(plain.clone()).unwrap(), (0, plain));
        // A truncated stamp is rejected, not misread as generation 0.
        for cut in [1, 5, 8] {
            assert_eq!(
                decode_response_gen_ctx(raw.slice(0..cut), None),
                Err(CodecError::Truncated),
                "cut={cut}"
            );
            assert_eq!(
                peel_generation(raw.slice(0..cut)),
                Err(CodecError::Truncated),
                "cut={cut}"
            );
        }
        // A bare stamp with no frame behind it is also truncated.
        assert_eq!(
            decode_response_gen_ctx(raw.slice(0..GEN_STAMP_BYTES as usize), None),
            Err(CodecError::Truncated)
        );
    }

    #[test]
    fn f32_representable_coordinates_are_lossless() {
        // The generator invariant: coords rounded through f32 survive.
        let x = 1234.5678_f32 as f64;
        let y = 9_876.543_f32 as f64;
        let o = obj(7, x, y);
        let back = decode_response(encode_response(&Response::Objects(vec![o])))
            .unwrap()
            .into_objects();
        assert_eq!(back[0], o);
    }

    #[test]
    fn v2_object_frames_hit_published_bounds() {
        let ctx = QuantCtx::new(Rect::from_coords(0.0, 0.0, 1.0, 1.0));
        // Densest layout: a point on the window corner (cell 0 is exact
        // by construction) one id away from its predecessor.
        let densest = Response::Objects(vec![obj(1, 0.0, 0.0)]);
        let mut buf = BytesMut::new();
        encode_response_versioned(&densest, WireVersion::V2, ctx.as_ref(), &mut buf);
        // Tag, a 1-byte id delta, one u16 cell per axis.
        assert_eq!(buf.len() as u64, OBJECTS_HEADER_BYTES + 1 + 1 + 4);
        // Widest layout: an out-of-window rectangle (both axes escape to
        // exact f32 pairs) under the worst-case id delta.
        let widest = Response::Objects(vec![SpatialObject::new(
            u32::MAX,
            Rect::from_coords(5.0, 5.0, 6.0, 7.0),
        )]);
        let mut buf = BytesMut::new();
        encode_response_versioned(&widest, WireVersion::V2, ctx.as_ref(), &mut buf);
        assert_eq!(buf.len() as u64, OBJECTS_HEADER_BYTES + OBJ_BYTES_V2_MAX);
        // Either extreme decodes bit-equal to its v1 self.
        for resp in [densest, widest] {
            let mut buf = BytesMut::new();
            encode_response_versioned(&resp, WireVersion::V2, ctx.as_ref(), &mut buf);
            assert_eq!(
                decode_response_ctx(buf.freeze(), ctx.as_ref()).unwrap(),
                decode_response(encode_response(&resp)).unwrap()
            );
        }
    }

    #[test]
    fn versioned_encoders_at_v1_are_the_v1_encoders() {
        // The structural half of the off-means-off guarantee: asking the
        // versioned entry points for V1 produces the v1 bytes exactly.
        let resps = [
            Response::Objects(vec![obj(1, 1.0, 1.0), obj(2, 2.0, 2.0)]),
            Response::Count(123_456),
            Response::Ack { generation: 4 },
            Response::Refused,
        ];
        for resp in resps {
            let mut buf = BytesMut::new();
            encode_response_versioned(&resp, WireVersion::V1, None, &mut buf);
            assert_eq!(buf.freeze(), encode_response(&resp));
        }
        let mut stamp = BytesMut::new();
        stamp_generation_versioned(5, WireVersion::V1, &mut stamp);
        assert_eq!(
            stamp.freeze().as_slice(),
            [op::R_GEN, 0, 0, 0, 0, 0, 0, 0, 5]
        );
        // And v2's generation-0 stamp is as silent as v1's.
        let mut empty = BytesMut::new();
        stamp_generation_versioned(0, WireVersion::V2, &mut empty);
        assert!(empty.is_empty());
    }
}
