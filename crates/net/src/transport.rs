//! Synchronous RPC transports with mandatory metering.
//!
//! A [`Link`] is the device's handle to one server. Every exchange is
//! framed, carried over a [`RawExchange`], charged and decoded by the one
//! physical edge at the bottom of the link's stack — so no byte can cross
//! unmetered, whichever carrier is used.
//!
//! There is one in-process carrier, [`InProcExchange`]: it calls the
//! server's handler on the calling thread. A bare one is the fast path
//! for the thousands of joins an experiment sweep runs. A gauged one
//! ([`InProcExchange::gauged`]; a deployment built `.threaded()` or
//! `.event_loop()` serves every server so) serves the same way and adds
//! its endpoint's [`EndpointStats`] around each serve. Which thread
//! serves is not part of the paper's cost model, which sees only bytes;
//! a server that goes dark is a [`FaultLayer`](crate::FaultLayer)'s crash
//! window, not a property of the carrier.
//!
//! A carrier ships one frame per call ([`RawExchange::exchange`]), and
//! the typed stack above it answers one request per call: a batch
//! ([`Link::request_many`]) is its requests issued in turn.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::{Bytes, BytesMut};

use crate::edge::{Edge, Layer};
use crate::meter::LinkMeter;
use crate::packet::NetConfig;
use crate::proto::{QueryHandler, Request, Response};

/// Serves one request frame into `buf` — the decode path shared by every
/// server-side adapter. Peels the retry-dedup envelope first: a tagged
/// `ApplyUpdates` delivery goes through
/// [`QueryHandler::handle_tagged_updates`] so stateful servers can make
/// it at-most-once; an envelope wrapping anything else is garbage and
/// answers the typed malformed frame. Returns `false` when a typed error
/// was encoded instead of an answer, so callers keep served-query counts
/// honest.
pub(crate) fn serve_frame_into<H: QueryHandler + ?Sized>(
    handler: &H,
    request: Bytes,
    buf: &mut BytesMut,
) -> bool {
    let (tag, body) = match crate::codec::peel_dedup(&request) {
        Some((tag, inner)) => (Some(tag), inner),
        None => (None, request),
    };
    let (req, wire) = match crate::codec::decode_request_versioned(body) {
        Ok(pair) => pair,
        Err(_) => {
            crate::codec::encode_response_into(&Response::Malformed, buf);
            return false;
        }
    };
    match (tag, req) {
        (Some(tag), Request::ApplyUpdates(updates)) => {
            // Acks carry their generation in-band and are never stamped,
            // so encoding straight here (bypassing any stamping wrapper)
            // is wire-identical to the untagged path.
            let resp = handler.handle_tagged_updates(tag, updates);
            crate::codec::encode_response_versioned(&resp, wire, None, buf);
            true
        }
        (Some(_), _) => {
            crate::codec::encode_response_into(&Response::Malformed, buf);
            false
        }
        (None, req) => {
            handler.handle_into(req, wire, buf);
            true
        }
    }
}

/// A byte-level carrier: ships one encoded request, returns its encoded
/// response. Carriers are `Sync` so one carrier can serve interleaved
/// requests from several device threads (a shard router fans one logical
/// client out over many carriers, and stress tests drive it from many
/// threads at once).
pub trait RawExchange: Send + Sync {
    fn exchange(&self, request: Bytes) -> Bytes;
}

thread_local! {
    /// The encode buffer every exchange served on this thread is built
    /// in: it grows to the thread's largest reply once.
    static REPLY_BUF: std::cell::Cell<BytesMut> = Default::default();
}

/// Serves one request frame: the handler encodes into this thread's
/// reused buffer, and the reply ships as one exact-size copy of it, the
/// only per-request allocation. The buffer is taken out of its slot, not
/// borrowed, so an exchange nested in a handler on this thread serves
/// into a fresh one. Returns the reply and whether the frame was a query
/// ([`serve_frame_into`]).
fn serve_frame<H: QueryHandler + ?Sized>(handler: &H, request: Bytes) -> (Bytes, bool) {
    let mut buf = REPLY_BUF.take();
    buf.clear();
    let query = serve_frame_into(handler, request, &mut buf);
    // The shim's `Bytes` is `Arc<[u8]>`-backed, so one copy (one
    // allocation) into the reply stands in for the real crate's
    // zero-copy, allocation-recycling `buf.split().freeze()`.
    let reply = Bytes::copy_from_slice(&buf);
    REPLY_BUF.set(buf);
    (reply, query)
}

/// The gauges of one gauged endpoint, shared by every carrier to it.
#[derive(Debug, Default)]
pub struct EndpointStats {
    /// Requests in service right now.
    in_service: AtomicU64,
    /// High-water mark of `in_service`.
    max_depth: AtomicU64,
    /// Query frames served (malformed frames excluded).
    served: AtomicU64,
    /// Undecodable frames answered with the typed error: an alien opcode,
    /// a truncated payload, a frame corrupted in transit.
    malformed: AtomicU64,
}

impl EndpointStats {
    /// Most requests ever in service at once: each is served on the
    /// thread that asks it, so this is at most the number of threads
    /// calling the endpoint.
    pub fn max_queue_depth(&self) -> u64 {
        self.max_depth.load(Ordering::Acquire)
    }

    /// Query frames served so far.
    pub fn served(&self) -> u64 {
        self.served.load(Ordering::Acquire)
    }

    /// Undecodable frames answered with [`Response::Malformed`].
    pub fn malformed(&self) -> u64 {
        self.malformed.load(Ordering::Acquire)
    }
}

/// In-process carrier: decodes and handles on the calling thread, bare or
/// gauged. `H` may be unsized, so a deployment holding
/// `Arc<dyn QueryHandler>` uses this adapter too.
pub struct InProcExchange<H: QueryHandler + ?Sized> {
    handler: Arc<H>,
    stats: Option<Arc<EndpointStats>>,
}

impl<H: QueryHandler + ?Sized> InProcExchange<H> {
    pub fn new(handler: Arc<H>) -> Self {
        InProcExchange {
            handler,
            stats: None,
        }
    }

    /// The same carrier, publishing each serve to `stats`: the requests
    /// in service, and the frames served or answered malformed.
    pub fn gauged(handler: Arc<H>, stats: Arc<EndpointStats>) -> Self {
        InProcExchange {
            handler,
            stats: Some(stats),
        }
    }
}

impl<H: QueryHandler + ?Sized> RawExchange for InProcExchange<H> {
    /// A garbled frame is answered with a typed error, never panicked on,
    /// and serving goes on.
    fn exchange(&self, request: Bytes) -> Bytes {
        let Some(stats) = &self.stats else {
            return serve_frame(self.handler.as_ref(), request).0;
        };
        let depth = stats.in_service.fetch_add(1, Ordering::AcqRel) + 1;
        stats.max_depth.fetch_max(depth, Ordering::AcqRel);
        let (reply, query) = serve_frame(self.handler.as_ref(), request);
        let tally = if query {
            &stats.served
        } else {
            &stats.malformed
        };
        tally.fetch_add(1, Ordering::AcqRel);
        stats.in_service.fetch_sub(1, Ordering::AcqRel);
        reply
    }
}

/// The device's metered handle to one server (or one fleet of shard
/// servers behind a [`ShardRouter`](crate::router::ShardRouter)): the top
/// of the link stack described in the crate docs.
pub struct Link {
    stack: Box<dyn Layer>,
    /// The meter the stack's physical edges charge: the edge's own for a
    /// flat link, the router's aggregate over all shard exchanges for a
    /// fleet. A cache hit is not a message and touches no meter.
    meter: Arc<LinkMeter>,
    /// Per-byte tariff of this link (`bR` or `bS`).
    tariff: f64,
    /// Per-shard accounting when the stack holds a shard router.
    fleet: Option<Arc<crate::router::ShardTelemetry>>,
    /// Cache accounting when the stack holds a cache layer.
    cache: Option<crate::cache::CacheView>,
    /// Highest serving generation observed on this link (from response
    /// stamps and `Ack`s). 0 until the server goes live.
    last_generation: AtomicU64,
    /// Lowest serving generation any reply reported (`u64::MAX` before
    /// the first); see [`Link::generations`].
    first_generation: AtomicU64,
}

impl Link {
    fn over(
        stack: Box<dyn Layer>,
        meter: Arc<LinkMeter>,
        tariff: f64,
        fleet: Option<Arc<crate::router::ShardTelemetry>>,
        cache: Option<crate::cache::CacheView>,
    ) -> Self {
        Link {
            stack,
            meter,
            tariff,
            fleet,
            cache,
            last_generation: AtomicU64::new(0),
            first_generation: AtomicU64::new(u64::MAX),
        }
    }

    /// A flat link: one physical edge over `carrier`, with a fresh meter,
    /// speaking `net`'s packet model, wire version and retry discipline
    /// from its first frame. With the default (off) retry policy every
    /// exchange is one attempt; `ApplyUpdates` retries ride the
    /// at-most-once dedup envelope, so a duplicated delivery can never
    /// double-bump a generation or double-apply a move.
    pub fn new(carrier: Box<dyn RawExchange>, net: &NetConfig, tariff: f64) -> Self {
        let meter = Arc::new(LinkMeter::new());
        let edge = Edge::new(carrier, net, Arc::clone(&meter));
        Link::over(Box::new(edge), meter, tariff, None, None)
    }

    /// A link to a shard fleet. Its meter is the router's aggregate —
    /// the scatter traffic that actually crossed the wire, not the
    /// logical request stream.
    pub fn routed(router: crate::router::ShardRouter, tariff: f64) -> Self {
        let meter = Arc::clone(router.aggregate_meter());
        let fleet = Some(Arc::clone(router.telemetry()));
        Link::over(Box::new(router), meter, tariff, fleet, None)
    }

    /// A link through a client-side cache (which may itself front a shard
    /// fleet).
    pub fn cached(layer: crate::cache::CacheLayer, tariff: f64) -> Self {
        let meter = Arc::clone(layer.meter());
        let (fleet, cache) = (layer.fleet().cloned(), Some(layer.view()));
        Link::over(Box::new(layer), meter, tariff, fleet, cache)
    }

    /// In-process link to a handler.
    pub fn in_process<H: QueryHandler + 'static>(
        handler: Arc<H>,
        net: &NetConfig,
        tariff: f64,
    ) -> Self {
        Link::new(Box::new(InProcExchange::new(handler)), net, tariff)
    }

    /// Issues one RPC. Takes the request by reference — framing a
    /// request never requires surrendering (or cloning) its payload.
    /// A failed exchange surfaces typed, as [`Response::Unavailable`] or
    /// [`Response::Malformed`], after any retry budget is spent. The
    /// reply's serving generation widens the link's window
    /// ([`Link::generations`]).
    pub fn request(&self, req: &Request) -> Response {
        let (resp, generation) = self.stack.call(req);
        self.last_generation.fetch_max(generation, Ordering::AcqRel);
        self.first_generation
            .fetch_min(generation, Ordering::AcqRel);
        resp
    }

    /// Issues `reqs` in turn: `reply` receives exactly one response per
    /// request, in request order, each before the next request is issued.
    /// So on a flat, cached or routed link a batch *is* its requests —
    /// responses, bytes, meter charges, cache hits, fault rolls and
    /// breaker trips — under every fault plan, and a read issued after a
    /// write is served after it.
    pub fn request_many(&self, reqs: &[Request], mut reply: impl FnMut(Response)) {
        for req in reqs {
            reply(self.request(req));
        }
    }

    /// Highest serving generation observed on this link so far — from
    /// response stamps and update `Ack`s. 0 while the server is frozen
    /// (frozen responses carry no stamp).
    pub fn last_generation(&self) -> u64 {
        self.last_generation.load(Ordering::Acquire)
    }

    /// The generation window of this link: `(lowest, highest)` serving
    /// generation its replies reported — a stamp, an `Ack`, a cache hit's
    /// content generation, 0 for a frozen server or a failed exchange.
    /// `(0, 0)` before the first reply. One value means every reply was
    /// served from one generation, which on a flat link is one dataset
    /// state; `asj-core`'s `exec` module docs say what a join makes of it.
    pub fn generations(&self) -> (u64, u64) {
        let highest = self.last_generation();
        let lowest = self.first_generation.load(Ordering::Acquire);
        (lowest.min(highest), highest)
    }

    /// This link's meter (shared; snapshot at will). For a routed link
    /// this is the router's aggregate over all shard exchanges.
    pub fn meter(&self) -> &Arc<LinkMeter> {
        &self.meter
    }

    /// Per-shard telemetry when this link fronts a fleet; `None` for a
    /// plain single-server link.
    pub fn fleet(&self) -> Option<&Arc<crate::router::ShardTelemetry>> {
        self.fleet.as_ref()
    }

    /// Cache accounting when this link runs through a client-side cache;
    /// `None` otherwise.
    pub fn cache(&self) -> Option<&crate::cache::CacheView> {
        self.cache.as_ref()
    }

    /// The link's per-byte tariff.
    pub fn tariff(&self) -> f64 {
        self.tariff
    }

    /// Monetary cost so far: `tariff × total wire bytes`.
    pub fn cost(&self) -> f64 {
        self.tariff * self.meter.snapshot().total_bytes() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::WireVersion;
    use crate::fault::{FaultLayer, FaultPlan};
    use crate::packet::{PacketModel, RetryPolicy};
    use crate::testutil::ScanHandler;
    use asj_geom::{Rect, SpatialObject};
    use std::sync::{mpsc, Mutex};

    /// Toy handler: COUNT returns 7, WINDOW returns two fixed objects.
    struct Fixed;

    impl QueryHandler for Fixed {
        fn handle(&self, req: Request) -> Response {
            match req {
                Request::Count(_) => Response::Count(7),
                Request::Window(_) => Response::Objects(vec![
                    SpatialObject::point(1, 1.0, 1.0),
                    SpatialObject::point(2, 2.0, 2.0),
                ]),
                _ => Response::Refused,
            }
        }
    }

    fn w() -> Rect {
        Rect::from_coords(0.0, 0.0, 1.0, 1.0)
    }

    /// A link over `carrier` under the default `NetConfig`, but for
    /// `retry`.
    fn retrying(carrier: Box<dyn RawExchange>, retry: RetryPolicy) -> Link {
        Link::new(carrier, &NetConfig::default().with_retry(retry), 1.0)
    }

    #[test]
    fn in_process_roundtrip_and_metering() {
        let link = Link::in_process(Arc::new(Fixed), &NetConfig::default(), 1.0);
        assert_eq!(link.request(&Request::Count(w())).into_count(), 7);
        assert_eq!(link.request(&Request::Window(w())).into_objects().len(), 2);

        let s = link.meter().snapshot();
        assert_eq!(s.count_queries, 1);
        assert_eq!(s.window_queries, 1);
        assert_eq!(s.objects_received, 2);
        // 2 requests of 17 bytes each.
        assert_eq!(s.up_bytes, 2 * PacketModel::default().tb(17));
        // Count reply 9 bytes, objects reply 5 + 40 bytes.
        assert_eq!(
            s.down_bytes,
            PacketModel::default().tb(9) + PacketModel::default().tb(45)
        );
        assert_eq!(link.cost(), s.total_bytes() as f64);
    }

    /// A server that answers its first `k` exchanges, then goes dark for
    /// good: a crash window that never ends and no restart hook.
    fn dead_after(k: u64) -> Box<dyn RawExchange> {
        let server = Box::new(InProcExchange::new(Arc::new(Fixed)));
        Box::new(FaultLayer::new(
            server,
            FaultPlan::default().with_crash(k, u64::MAX),
        ))
    }

    #[test]
    fn client_outliving_server_sees_unavailable_not_panic() {
        let link = Link::new(dead_after(1), &NetConfig::default(), 1.0);
        assert_eq!(link.request(&Request::Count(w())).into_count(), 7);
        assert_eq!(link.request(&Request::Count(w())), Response::Unavailable);
        assert_eq!(link.request(&Request::Window(w())), Response::Unavailable);
    }

    #[test]
    fn gauges_count_queries_only() {
        let stats = Arc::new(EndpointStats::default());
        let carrier = || InProcExchange::gauged(Arc::new(Fixed), Arc::clone(&stats));
        let v2 = NetConfig::default().with_wire_v2(true);
        let (ex, link) = (carrier(), Link::new(Box::new(carrier()), &v2, 1.0));
        // A garbled frame and a retired handshake probe (neither is a
        // query), then two queries at v2.
        for garbage in [[0xFF, 0x01], [0x70, 0x02]] {
            let reply = ex.exchange(Bytes::copy_from_slice(&garbage));
            assert_eq!(
                crate::codec::decode_response(reply).unwrap(),
                Response::Malformed
            );
        }
        assert_eq!(link.request(&Request::Count(w())).into_count(), 7);
        assert_eq!(link.request(&Request::Window(w())).into_objects().len(), 2);
        assert_eq!(stats.malformed(), 2);
        assert_eq!(stats.served(), 2);
    }

    #[test]
    fn tariff_scales_cost() {
        let link = Link::in_process(Arc::new(Fixed), &NetConfig::default(), 2.5);
        link.request(&Request::Count(w()));
        let s = link.meter().snapshot();
        assert_eq!(link.cost(), 2.5 * s.total_bytes() as f64);
    }

    #[test]
    fn refused_for_unknown() {
        let link = Link::in_process(Arc::new(Fixed), &NetConfig::default(), 1.0);
        let r = link.request(&Request::CoopLevelMbrs(0));
        assert_eq!(r, Response::Refused);
    }

    #[test]
    fn in_process_garbled_frame_degrades_identically() {
        // An alien opcode and the retired handshake probe are answered
        // typed, and serving continues.
        let ex = InProcExchange::new(Arc::new(Fixed));
        for garbage in [&[0xFF][..], &[0x70, 0x02]] {
            let reply = ex.exchange(Bytes::copy_from_slice(garbage));
            assert_eq!(
                crate::codec::decode_response(reply).unwrap(),
                Response::Malformed
            );
        }
        let count = crate::codec::encode_request(&Request::Count(w()));
        let reply = crate::codec::decode_response(ex.exchange(count)).unwrap();
        assert_eq!(reply.into_count(), 7);
    }

    #[test]
    fn a_link_speaks_its_wire_version_from_its_first_frame() {
        /// Records every request frame, then serves it in process.
        struct Capture(Arc<std::sync::Mutex<Vec<Bytes>>>, InProcExchange<Fixed>);
        impl RawExchange for Capture {
            fn exchange(&self, request: Bytes) -> Bytes {
                self.0.lock().unwrap().push(request.clone());
                self.1.exchange(request)
            }
        }
        for (v2, first) in [(false, 0x02), (true, 0x71)] {
            let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
            let carrier = Capture(Arc::clone(&seen), InProcExchange::new(Arc::new(Fixed)));
            let net = NetConfig::default().with_wire_v2(v2);
            let link = Link::new(Box::new(carrier), &net, 1.0);
            assert!(
                seen.lock().unwrap().is_empty(),
                "building a link sends nothing"
            );
            assert_eq!(link.request(&Request::Count(w())).into_count(), 7);
            let seen = seen.lock().unwrap();
            assert_eq!(seen.len(), 1, "v2 {v2}: one request, nothing before it");
            assert_eq!(seen[0][0], first, "v2 {v2}");
        }
    }

    /// Fails the first `fails` exchanges with the fabricated unavailable
    /// frame, then forwards to an in-process server.
    struct Flaky {
        fails: AtomicU64,
        inner: InProcExchange<Fixed>,
    }

    impl Flaky {
        fn failing(n: u64) -> Self {
            Flaky {
                fails: AtomicU64::new(n),
                inner: InProcExchange::new(Arc::new(Fixed)),
            }
        }
    }

    impl RawExchange for Flaky {
        fn exchange(&self, request: Bytes) -> Bytes {
            let left = self.fails.load(Ordering::SeqCst);
            if left > 0 {
                self.fails.store(left - 1, Ordering::SeqCst);
                return crate::codec::unavailable_frame();
            }
            self.inner.exchange(request)
        }
    }

    #[test]
    fn retry_recovers_from_transient_unavailability() {
        let link = retrying(Box::new(Flaky::failing(2)), RetryPolicy::attempts(3));
        assert_eq!(link.request(&Request::Count(w())).into_count(), 7);
        let s = link.meter().snapshot();
        assert_eq!(s.retried, 2);
        assert_eq!(s.abandoned, 0);
        // Failed attempts never touched the wire: the meter shows exactly
        // one clean exchange.
        let clean = Link::in_process(Arc::new(Fixed), &NetConfig::default(), 1.0);
        clean.request(&Request::Count(w()));
        let c = clean.meter().snapshot();
        assert_eq!(s.up_bytes, c.up_bytes);
        assert_eq!(s.down_bytes, c.down_bytes);
        assert_eq!(s.count_queries, c.count_queries);
    }

    #[test]
    fn exhausted_retries_surface_typed_unavailable_and_abandon() {
        let link = retrying(Box::new(Flaky::failing(10)), RetryPolicy::attempts(3));
        assert_eq!(link.request(&Request::Count(w())), Response::Unavailable);
        let s = link.meter().snapshot();
        assert_eq!(s.retried, 2);
        assert_eq!(s.abandoned, 1);
        assert_eq!(s.total_bytes(), 0, "no attempt completed, nothing metered");
    }

    #[test]
    fn garbled_reply_is_retried_and_both_attempts_metered() {
        /// Garbles the first reply; every frame still crosses the wire.
        struct GarbleOnce {
            garbled: AtomicU64,
            inner: InProcExchange<Fixed>,
        }
        impl RawExchange for GarbleOnce {
            fn exchange(&self, request: Bytes) -> Bytes {
                let reply = self.inner.exchange(request);
                if self.garbled.fetch_add(1, Ordering::SeqCst) == 0 {
                    crate::codec::garble_frame(&reply)
                } else {
                    reply
                }
            }
        }
        let carrier = GarbleOnce {
            garbled: AtomicU64::new(0),
            inner: InProcExchange::new(Arc::new(Fixed)),
        };
        let link = retrying(Box::new(carrier), RetryPolicy::attempts(2));
        assert_eq!(link.request(&Request::Count(w())).into_count(), 7);
        let s = link.meter().snapshot();
        assert_eq!(s.retried, 1);
        assert_eq!(s.abandoned, 0);
        // Both attempts were real traffic (the garbled reply crossed the
        // wire too), so both are charged — and the garble preserves frame
        // length, so the two downlink charges are equal.
        assert_eq!(s.up_bytes, 2 * PacketModel::default().tb(17));
        assert_eq!(s.down_bytes, 2 * PacketModel::default().tb(9));
    }

    #[test]
    fn update_retries_carry_the_identical_dedup_envelope() {
        /// Records every request frame; fails the first exchange.
        struct Capture {
            seen: Arc<std::sync::Mutex<Vec<Bytes>>>,
            flaky: Flaky,
        }
        impl RawExchange for Capture {
            fn exchange(&self, request: Bytes) -> Bytes {
                self.seen.lock().unwrap().push(request.clone());
                self.flaky.exchange(request)
            }
        }
        let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
        let carrier = Box::new(Capture {
            seen: Arc::clone(&seen),
            flaky: Flaky::failing(1),
        });
        let link = retrying(carrier, RetryPolicy::attempts(2));
        // Fixed refuses updates — a typed refusal, which is a final
        // answer, not a retryable failure.
        assert_eq!(
            link.request(&Request::ApplyUpdates(vec![])),
            Response::Refused
        );
        let seen = seen.lock().unwrap();
        assert_eq!(seen.len(), 2, "one failed attempt + one retry");
        for frame in seen.iter() {
            assert_eq!(
                frame[0],
                crate::codec::op::APPLY_UPDATES_SEQ,
                "retried updates ride the dedup envelope"
            );
        }
        assert_eq!(
            seen[0].as_ref(),
            seen[1].as_ref(),
            "every retry carries the identical (nonce, seq) tag"
        );
    }

    #[test]
    fn retry_off_sends_plain_update_frames() {
        let ex = InProcExchange::new(Arc::new(crate::testutil::ScanHandler(vec![])));
        // Without a retry budget no envelope is ever attached: the wire
        // stays byte-identical to the pre-retry protocol.
        let encoded = crate::codec::encode_request(&Request::ApplyUpdates(vec![]));
        assert_ne!(encoded[0], crate::codec::op::APPLY_UPDATES_SEQ);
        // And the server path still answers envelope frames when they do
        // arrive (a retrying client against any server).
        let tagged =
            crate::codec::wrap_dedup(crate::codec::DedupTag { nonce: 9, seq: 0 }, &encoded);
        let reply = ex.exchange(tagged);
        assert_eq!(
            crate::codec::decode_response(reply).unwrap(),
            Response::Refused,
            "ScanHandler refuses updates, tagged or not"
        );
        // An envelope wrapping anything but updates is garbage.
        let bogus = crate::codec::wrap_dedup(
            crate::codec::DedupTag { nonce: 9, seq: 1 },
            &crate::codec::encode_request(&Request::Count(w())),
        );
        assert_eq!(
            crate::codec::decode_response(ex.exchange(bogus)).unwrap(),
            Response::Malformed
        );
    }

    #[test]
    fn a_request_with_bytes_behind_it_is_answered_malformed() {
        // A frame is consumed whole: a valid request followed by a byte —
        // bare, marked for v2, or inside a dedup envelope — is not that
        // request. The server says so to its sender and serves on.
        let ex = InProcExchange::new(Arc::new(Fixed));
        let padded = |frame: Bytes| Bytes::from([frame.as_slice(), &[0]].concat());
        let count = Request::Count(w());
        let update = crate::codec::encode_request(&Request::ApplyUpdates(vec![]));
        let tag = crate::codec::DedupTag { nonce: 9, seq: 0 };
        for frame in [
            crate::codec::encode_request(&count),
            crate::codec::encode_request_versioned(&count, WireVersion::V2),
            crate::codec::wrap_dedup(tag, &update),
        ] {
            let malformed = crate::codec::encode_response(&Response::Malformed);
            assert_ne!(ex.exchange(frame.clone()), malformed);
            assert_eq!(ex.exchange(padded(frame)), malformed);
        }
    }

    #[test]
    fn failed_exchange_charges_no_meter_bytes() {
        let link = Link::new(dead_after(1), &NetConfig::default(), 1.0);
        link.request(&Request::Count(w()));
        let before = link.meter().snapshot();
        // Failed exchanges must not move the meter: only completed
        // exchanges count, in both directions.
        assert_eq!(link.request(&Request::Count(w())), Response::Unavailable);
        let after = link.meter().snapshot();
        assert_eq!(before.total_bytes(), after.total_bytes());
        assert_eq!(before.up_bytes, after.up_bytes);
        assert_eq!(before.down_bytes, after.down_bytes);
        assert_eq!(before.count_queries, after.count_queries);
    }

    fn objects(n: u32) -> Vec<SpatialObject> {
        (0..n)
            .map(|i| SpatialObject::point(i, i as f64, 0.0))
            .collect()
    }

    fn wide(hi: f64) -> Rect {
        Rect::from_coords(-1.0, -1.0, hi, 1.0)
    }

    fn gauged(objects: Vec<SpatialObject>, stats: &Arc<EndpointStats>) -> Link {
        let carrier = InProcExchange::gauged(Arc::new(ScanHandler(objects)), Arc::clone(stats));
        Link::new(Box::new(carrier), &NetConfig::default(), 1.0)
    }

    #[test]
    fn gauged_carrier_serves_byte_identically_to_bare() {
        let stats = Arc::new(EndpointStats::default());
        let gauged = gauged(objects(20), &stats);
        let bare = Link::in_process(
            Arc::new(ScanHandler(objects(20))),
            &NetConfig::default(),
            1.0,
        );
        for hi in [3.0, 7.5, 19.0] {
            for req in [Request::Window(wide(hi)), Request::Count(wide(hi))] {
                assert_eq!(gauged.request(&req), bare.request(&req));
            }
        }
        assert_eq!(
            gauged.meter().snapshot(),
            bare.meter().snapshot(),
            "the gauges must not change accounting"
        );
        assert_eq!(stats.served(), 6);
    }

    #[test]
    fn each_endpoint_gauges_only_its_own_serves() {
        let stats: Vec<Arc<EndpointStats>> = (0..8).map(|_| Arc::default()).collect();
        for (i, stats) in stats.iter().enumerate() {
            let link = gauged(objects(i as u32 + 1), stats);
            let count = link.request(&Request::Count(wide(100.0))).into_count();
            assert_eq!(count, i as u64 + 1);
        }
        for stats in &stats {
            assert_eq!(stats.served(), 1);
            assert_eq!(stats.max_queue_depth(), 1);
        }
    }

    /// Many clients at once, each shipping frames one at a time to an
    /// endpoint of its own: every reply reaches the client that asked
    /// it. Endpoint `t` holds `64` points, and client `t`'s `k`-th
    /// request of a round counts those up to `x = depth·t + k`, so an
    /// answer names the request it answers.
    #[test]
    fn every_reply_reaches_its_own_caller() {
        let (threads, depth, rounds) = (4u32, 8u32, 400u32);
        let clients: Vec<_> = (0..threads)
            .map(|t| {
                let stats = Arc::new(EndpointStats::default());
                let handler = Arc::new(ScanHandler(objects(64)));
                let conn = InProcExchange::gauged(handler, Arc::clone(&stats));
                let client = std::thread::spawn(move || {
                    let hi = |k| (depth * t + k) as f64;
                    for _ in 0..rounds {
                        for k in 0..depth {
                            let frame = crate::codec::encode_request(&Request::Count(wide(hi(k))));
                            let reply = crate::codec::decode_response(conn.exchange(frame));
                            let want = Response::Count(u64::from(depth * t + k + 1));
                            assert_eq!(reply.unwrap(), want);
                        }
                    }
                });
                (stats, client)
            })
            .collect();
        for (stats, client) in clients {
            client.join().unwrap();
            assert_eq!(stats.served(), u64::from(depth * rounds));
        }
    }

    #[test]
    fn garbled_frame_answers_typed_error_and_gauged_carrier_survives() {
        let stats = Arc::new(EndpointStats::default());
        let conn = InProcExchange::gauged(Arc::new(ScanHandler(objects(5))), Arc::clone(&stats));
        // A frame garbled in transit (the fault layer's 0xEE marker), an
        // alien opcode, two retired ones (0x06, a batched COUNT of no
        // windows; 0x70, a version handshake probe) and a truncated frame
        // are all answered typed.
        let (batched, hello) = ([0x06, 0, 0, 0, 0], [0x70, 0x02]);
        let alien = [&[0xEE, 0x01, 0x02][..], &[0x5A, 0x01, 0x02]];
        for garbage in alien.into_iter().chain([&batched[..], &hello, &[]]) {
            let reply = conn.exchange(Bytes::copy_from_slice(garbage));
            assert_eq!(
                crate::codec::decode_response(reply).unwrap(),
                Response::Malformed
            );
        }
        assert_eq!(
            stats.malformed(),
            5,
            "garbled, alien, two retired, truncated"
        );
        // Healthy traffic still flows to the same endpoint.
        let healthy = gauged(objects(5), &stats);
        assert_eq!(
            healthy.request(&Request::Count(wide(100.0))).into_count(),
            5
        );
        assert_eq!(stats.served(), 1, "garbage is not a served query");
    }

    /// Serves nothing until released, so a test decides when an exchange
    /// can complete.
    struct Held(Mutex<mpsc::Receiver<()>>);

    impl QueryHandler for Held {
        fn handle(&self, _req: Request) -> Response {
            let _ = self.0.lock().unwrap().recv();
            Response::Count(0)
        }
    }

    /// Holds `n` requests inside the handler at once, each asked on a
    /// thread and a carrier of its own, then releases them all and
    /// returns the endpoint's gauges once every thread has joined.
    fn held_at_once(n: usize) -> Arc<EndpointStats> {
        let (release, held) = mpsc::channel();
        let handler = Arc::new(Held(Mutex::new(held)));
        let stats = Arc::new(EndpointStats::default());
        let callers: Vec<_> = (0..n)
            .map(|_| {
                let conn = InProcExchange::gauged(Arc::clone(&handler), Arc::clone(&stats));
                let count = crate::codec::encode_request(&Request::Count(wide(100.0)));
                std::thread::spawn(move || conn.exchange(count))
            })
            .collect();
        while stats.in_service.load(Ordering::Acquire) < n as u64 {
            std::thread::yield_now();
        }
        (0..n).for_each(|_| release.send(()).unwrap());
        for caller in callers {
            let reply = crate::codec::decode_response(caller.join().unwrap());
            assert_eq!(reply.unwrap(), Response::Count(0));
        }
        assert_eq!(stats.in_service.load(Ordering::Acquire), 0);
        assert_eq!(stats.served(), n as u64);
        stats
    }

    #[test]
    fn queue_depth_counts_requests_in_service() {
        assert_eq!(held_at_once(4).max_queue_depth(), 4);
        assert_eq!(held_at_once(2).max_queue_depth(), 2);
    }
}
