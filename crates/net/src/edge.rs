//! The one physical edge under the typed link stack.
//!
//! An [`Edge`] owns one carrier (with any [`FaultLayer`](crate::FaultLayer)
//! beneath it), the wire version its deployment speaks and the meters its
//! traffic is charged to. It is the only place a request becomes bytes
//! and a reply becomes a [`Response`] again: [`Edge::frame`] versions and
//! tags, the carrier's [`RawExchange::exchange`] ships one frame,
//! [`Edge::judge`] charges and classifies, and the edge's own
//! [`Layer::call`] frames, ships and settles one request, retries
//! included. Everything above speaks [`Layer::call`], one request at a
//! time.

use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;

use crate::codec::{
    decode_response_gen_ctx, encode_request_versioned, is_unavailable, wrap_dedup, DedupTag,
    QuantCtx, WireVersion,
};
use crate::meter::LinkMeter;
use crate::packet::{NetConfig, PacketModel, RetryPolicy};
use crate::proto::{Request, Response};
use crate::transport::RawExchange;

/// Process-unique sender nonce for the retry-dedup envelope: each edge
/// draws one at construction, so two senders never collide in a server's
/// at-most-once table.
static EDGE_NONCE: AtomicU64 = AtomicU64::new(1);

/// The typed seam of the link stack: `Link`, `CacheLayer` and
/// `ShardRouter` hand each other requests and responses, never frames.
pub(crate) trait Layer: Send + Sync {
    /// Answers one logical request: the response, and the serving
    /// generation it reports (an `Ack`'s payload, otherwise the reply's
    /// stamp; 0 from a frozen server or a failed exchange).
    fn call(&self, req: &Request) -> (Response, u64);
}

/// One request framed for an edge: the bytes every attempt ships and
/// what [`Edge::judge`] needs to read the reply.
#[derive(Clone)]
pub(crate) struct Frame<'a> {
    /// Borrowed when it is the caller's own request, owned when a router
    /// built it for one shard.
    pub req: Cow<'a, Request>,
    pub bytes: Bytes,
    /// The v2 coordinate grid both peers derive from the request; none on
    /// a v1 edge.
    ctx: Option<QuantCtx>,
}

/// One physical carrier with its wire version, meters, retry discipline
/// and dedup identity.
pub(crate) struct Edge {
    /// Ships one frame per call ([`RawExchange::exchange`]).
    pub(crate) carrier: Box<dyn RawExchange>,
    packet: PacketModel,
    /// The one meter this edge's traffic is charged to. A fleet's
    /// aggregate meter sums its edges' ([`LinkMeter::summing`]).
    meter: Arc<LinkMeter>,
    wire: WireVersion,
    retry: RetryPolicy,
    nonce: u64,
    /// Batch sequence within this sender; one per `ApplyUpdates`
    /// request, identical across its retries.
    seq: AtomicU64,
}

impl Edge {
    /// An edge over `carrier` charging `meter`, speaking `net`'s packet
    /// model, wire version and retry discipline from its first frame.
    pub(crate) fn new(
        carrier: Box<dyn RawExchange>,
        net: &NetConfig,
        meter: Arc<LinkMeter>,
    ) -> Self {
        Edge {
            carrier,
            packet: net.packet,
            meter,
            wire: if net.wire_v2 {
                WireVersion::V2
            } else {
                WireVersion::V1
            },
            retry: net.retry,
            nonce: EDGE_NONCE.fetch_add(1, Ordering::Relaxed),
            seq: AtomicU64::new(0),
        }
    }

    /// Applies `f` to this edge's meter.
    pub(crate) fn tally(&self, f: fn(&LinkMeter)) {
        f(&self.meter);
    }

    /// Encodes `req` in this edge's wire version. With retries on, an
    /// `ApplyUpdates` batch rides the at-most-once dedup envelope — one
    /// fresh `(nonce, seq)` tag per frame, so every attempt (and every
    /// replica a fleet ships the frame to) carries the identical tag and
    /// a duplicated delivery replays the server's recorded `Ack`.
    pub(crate) fn frame<'a>(&self, req: Cow<'a, Request>) -> Frame<'a> {
        let mut bytes = encode_request_versioned(&req, self.wire);
        if self.retry.enabled() && matches!(*req, Request::ApplyUpdates(_)) {
            let tag = DedupTag {
                nonce: self.nonce,
                seq: self.seq.fetch_add(1, Ordering::Relaxed),
            };
            bytes = wrap_dedup(tag, &bytes);
        }
        Frame {
            ctx: QuantCtx::for_wire(&req, self.wire),
            req,
            bytes,
        }
    }

    /// Judges the first attempt of one exchange and sees it through:
    /// while it fails — peer gone, or a reply judged malformed — the same
    /// frame is re-issued alone, up to the retry budget; exhaustion
    /// surfaces the last typed failure and is tallied as one abandonment.
    #[inline]
    fn settle(&self, frame: &Frame, raw: Bytes) -> (Response, u64) {
        let mut outcome = self.judge(frame, raw);
        for _ in 1..self.retry.max_attempts.max(1) {
            if !outcome.0.is_failure() {
                return outcome;
            }
            self.tally(LinkMeter::record_retry);
            outcome = self.judge(frame, self.carrier.exchange(frame.bytes.clone()));
        }
        if outcome.0.is_failure() && self.retry.enabled() {
            self.tally(LinkMeter::record_abandon);
        }
        outcome
    }

    /// Judges one completed attempt — the only place a meter is charged
    /// and a reply frame decoded. A carrier-fabricated unavailable frame
    /// means nothing crossed the wire: nothing is charged. Anything else
    /// was real traffic and is charged in both directions, superseded
    /// attempts included; a reply that does not decode, or is not a kind
    /// of answer `req` can get, is classified [`Response::Malformed`].
    #[inline]
    pub(crate) fn judge(&self, frame: &Frame, raw: Bytes) -> (Response, u64) {
        if is_unavailable(&raw) {
            return (Response::Unavailable, 0);
        }
        let (up, down) = (frame.bytes.len() as u64, raw.len() as u64);
        let (resp, stamp) = match decode_response_gen_ctx(raw, frame.ctx.as_ref()) {
            Ok((resp, stamp)) if frame.req.admits(&resp) => (resp, stamp),
            _ => (Response::Malformed, 0),
        };
        let (objects, aggregate) = (resp.object_count(), frame.req.is_aggregate());
        self.meter.record_request(&frame.req, up, &self.packet);
        self.meter
            .record_response(down, objects, &self.packet, aggregate);
        match resp {
            Response::Ack { generation } => (resp, generation),
            _ => (resp, stamp),
        }
    }
}

impl Layer for Edge {
    /// Frames, ships and settles `req`: its retries are spent before the
    /// call returns, so the fault layer below admits the frames of
    /// requests issued in turn in the order they were issued.
    fn call(&self, req: &Request) -> (Response, u64) {
        let frame = self.frame(Cow::Borrowed(req));
        let raw = self.carrier.exchange(frame.bytes.clone());
        self.settle(&frame, raw)
    }
}
