//! Event-loop carrier: one reactor thread serving every endpoint.
//!
//! The channel carrier of [`crate::transport`] spends one OS thread per
//! server — fine for the paper's two-server prototype, fatal for a
//! many-device harness where a fleet of shard servers times two sides
//! times N simulated devices would otherwise demand hundreds of threads.
//! This module multiplexes *all* serving onto a single reactor thread:
//!
//! * an [`EventLoop`] owns the reactor — a plain poll loop that takes its
//!   whole ready-queue per wake-up (the carriers' shared mailbox; there
//!   is no tokio here, and none is needed: requests are already discrete
//!   ready-to-run events);
//! * each [`EventEndpoint`] is one logical server (a [`QueryHandler`])
//!   registered on the loop; any number of endpoints share the reactor;
//! * each [`EventConnection`] is one device's socket to one endpoint,
//!   carrying its own **per-connection state** ([`ConnState`]).
//!
//! # Connection-state ownership
//!
//! The reactor *owns* all mutable per-connection state. A connection's
//! [`ConnState`] — today the negotiated wire version, the carrier's
//! analogue of a real socket's handshake state — is written exclusively
//! by the reactor thread while it answers that connection's
//! `HELLO`/`ACCEPT` frames, and only read (for telemetry and tests) from
//! the client side. Likewise the reactor owns the single reusable encode
//! buffer every reply is built in; client handles never touch it. This
//! is what lets thousands of connections coexist without per-connection
//! locks: the reactor serializes every state transition, and the shared
//! `Arc`s are append-only counters or atomics published with
//! release/acquire ordering.
//!
//! Negotiation therefore moves *into connection setup*: the `HELLO`
//! probe a [`Link::negotiate`](crate::Link::negotiate) sends travels the
//! ready-queue like any request, the reactor answers it with `ACCEPT`
//! and records the accepted version into that connection's state — two
//! connections to the same endpoint can be at different versions, and
//! concurrent handshakes from many devices cannot race: the reactor
//! processes them one at a time.
//!
//! # Robustness contract
//!
//! The reactor thread is shared by every device, so it must never die on
//! bad input: an undecodable frame answers the typed
//! [`Response::Malformed`](crate::Response::Malformed) error frame and
//! serving continues. Dropping the [`EventLoop`] enqueues a shutdown
//! sentinel behind in-flight requests (FIFO — they all still complete);
//! connections that outlive the loop degrade to
//! [`Response::Unavailable`](crate::Response::Unavailable) instead of
//! panicking, exactly like the channel carrier.
//!
//! Per-endpoint [`EndpointStats`] gauge the instantaneous ready-queue
//! depth (enqueued on send — every member of a pipelined batch counts —
//! and decremented when served) with a high-water mark, the serving
//! counters, and malformed-frame counts — the per-shard queue-depth axis
//! of the device-scaling benchmarks.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

use bytes::{Bytes, BytesMut};

use crate::codec::WireVersion;
use crate::mailbox::{mailbox, End};
use crate::proto::QueryHandler;
use crate::transport::{begin_one, reply_slot, Pending, RawExchange};

/// Per-connection state, owned by the reactor (see module docs). The
/// client side holds the same `Arc` but only ever reads it.
#[derive(Debug)]
pub struct ConnState {
    /// Negotiated wire version: 1 until the reactor answers this
    /// connection's `HELLO` with an `ACCEPT`, then whatever it accepted.
    wire: AtomicU8,
}

impl ConnState {
    fn new() -> Self {
        ConnState {
            wire: AtomicU8::new(1),
        }
    }

    /// The version the reactor negotiated on this connection (`V1`
    /// before any handshake — exactly a fresh socket's state).
    pub fn negotiated(&self) -> WireVersion {
        match self.wire.load(Ordering::Acquire) {
            v if v >= 2 => WireVersion::V2,
            _ => WireVersion::V1,
        }
    }
}

/// Counters one endpoint's serving publishes; shared by every connection
/// to that endpoint.
#[derive(Debug, Default)]
pub struct EndpointStats {
    /// Requests currently sitting in the ready-queue (or being served).
    pending: AtomicU64,
    /// High-water mark of `pending`: the deepest this endpoint's share
    /// of the queue ever got — the contention gauge the scaling
    /// benchmarks report per shard.
    max_depth: AtomicU64,
    /// Query frames served (handshakes and malformed frames excluded).
    served: AtomicU64,
    /// Undecodable frames with a recognizable-but-broken shape (alien
    /// opcode, truncated payload) answered with the typed error.
    malformed: AtomicU64,
    /// Undecodable frames bearing the fault layer's garble marker
    /// (first byte [`crate::codec::op::GARBLE`]) — corruption injected
    /// in transit, counted apart from genuinely alien traffic.
    garbled: AtomicU64,
    /// Duplicate deliveries of an already-seen retry-dedup tag — each
    /// one is a client retry the endpoint absorbed at-most-once.
    retried: AtomicU64,
    /// Replies that could not be delivered because the client had
    /// already given up on the exchange.
    abandoned: AtomicU64,
}

impl EndpointStats {
    fn enqueued(&self) {
        let depth = self.pending.fetch_add(1, Ordering::AcqRel) + 1;
        self.max_depth.fetch_max(depth, Ordering::AcqRel);
    }

    fn dequeued(&self) {
        self.pending.fetch_sub(1, Ordering::AcqRel);
    }

    /// Deepest observed ready-queue depth.
    pub fn max_queue_depth(&self) -> u64 {
        self.max_depth.load(Ordering::Acquire)
    }

    /// Query frames served so far.
    pub fn served(&self) -> u64 {
        self.served.load(Ordering::Acquire)
    }

    /// Undecodable non-garble frames answered with
    /// [`crate::Response::Malformed`].
    pub fn malformed(&self) -> u64 {
        self.malformed.load(Ordering::Acquire)
    }

    /// Injected-garble frames (first byte `0xEE`) answered with
    /// [`crate::Response::Malformed`], counted apart from alien opcodes.
    pub fn garbled(&self) -> u64 {
        self.garbled.load(Ordering::Acquire)
    }

    /// Duplicate dedup-tagged deliveries absorbed at-most-once.
    pub fn retried(&self) -> u64 {
        self.retried.load(Ordering::Acquire)
    }

    /// Replies dropped because the client abandoned the exchange.
    pub fn abandoned(&self) -> u64 {
        self.abandoned.load(Ordering::Acquire)
    }
}

/// One unit of work on the ready-queue.
enum Event {
    Rpc {
        request: Bytes,
        reply: End<Bytes>,
        /// This connection's reactor-owned state.
        conn: Arc<ConnState>,
        /// The endpoint's handler rides on the event, so the reactor
        /// needs no endpoint registry at all — registration is just
        /// handing out the mailbox.
        handler: Arc<dyn QueryHandler>,
        stats: Arc<EndpointStats>,
    },
    Shutdown,
}

/// The reactor: one thread multiplexing every endpoint and connection
/// registered on it. Dropping it shuts the thread down without
/// deadlocking on live connections (shutdown sentinel, like
/// [`crate::ChannelServer`]).
pub struct EventLoop {
    queue: Arc<End<Event>>,
    thread: Option<std::thread::JoinHandle<u64>>,
}

impl EventLoop {
    /// Spawns the reactor thread.
    pub fn spawn(name: &str) -> Self {
        let (queue, ready) = mailbox();
        let thread = std::thread::Builder::new()
            .name(format!("asj-reactor-{name}"))
            .spawn(move || Self::run(ready))
            .expect("failed to spawn reactor thread");
        EventLoop {
            queue: Arc::new(queue),
            thread: Some(thread),
        }
    }

    /// The poll loop: takes the whole ready-queue per wake-up and serves
    /// it in order; the replies go out together afterwards, so a client
    /// parked on them is woken once per drained batch. One reusable
    /// encode buffer serves every endpoint — reactor-owned, per the
    /// module's state-ownership contract.
    fn run(ready: End<Event>) -> u64 {
        let mut served = 0u64;
        let mut buf = BytesMut::with_capacity(4096);
        // Reactor-owned retry-observability table: the last dedup seq
        // seen per (endpoint, nonce). A re-delivery of the same seq is a
        // client retry the endpoint's handler absorbs at-most-once —
        // counted here without touching the handler's own dedup state.
        let mut last_tags: std::collections::HashMap<(usize, u64), u64> =
            std::collections::HashMap::new();
        let (mut batch, mut replies) = (VecDeque::new(), Vec::new());
        let mut running = true;
        while running && ready.take_all(&mut batch) {
            for event in batch.drain(..) {
                let (request, reply, conn, handler, stats) = match event {
                    Event::Rpc {
                        request,
                        reply,
                        conn,
                        handler,
                        stats,
                    } => (request, reply, conn, handler, stats),
                    Event::Shutdown => {
                        running = false;
                        break;
                    }
                };
                if let Some(accept) = crate::codec::try_answer_hello(&request) {
                    // Connection setup: record the accepted version into
                    // *this connection's* state, then answer. Only the
                    // reactor ever writes here, so concurrent handshakes
                    // from many devices serialize cleanly.
                    if let Some(version) = crate::codec::decode_accept(&accept) {
                        conn.wire.store(version, Ordering::Release);
                    }
                    stats.dequeued();
                    replies.push((reply, accept, stats));
                    continue;
                }
                // Classification peek before serving: the body an envelope
                // wraps (or the frame itself) decides garbled-vs-malformed,
                // and a repeated tag is a retry the stats surface.
                let body_head = match crate::codec::peel_dedup(&request) {
                    Some((tag, body)) => {
                        let key = (Arc::as_ptr(&stats) as usize, tag.nonce);
                        if last_tags.insert(key, tag.seq) == Some(tag.seq) {
                            stats.retried.fetch_add(1, Ordering::AcqRel);
                        }
                        body.as_ref().first().copied()
                    }
                    None => request.as_ref().first().copied(),
                };
                buf.clear();
                if crate::transport::serve_frame_into(handler.as_ref(), request, &mut buf) {
                    served += 1;
                    stats.served.fetch_add(1, Ordering::AcqRel);
                } else {
                    // The reactor serves every device: a garbled frame gets
                    // the typed error (already encoded into `buf`) and the
                    // loop keeps running. Injected corruption (the fault
                    // layer's 0xEE marker) is counted apart from genuinely
                    // alien opcodes.
                    if body_head == Some(crate::codec::op::GARBLE) {
                        stats.garbled.fetch_add(1, Ordering::AcqRel);
                    } else {
                        stats.malformed.fetch_add(1, Ordering::AcqRel);
                    }
                }
                stats.dequeued();
                replies.push((reply, Bytes::copy_from_slice(&buf), stats));
            }
            for (reply, answer, stats) in replies.drain(..) {
                // A refused reply just means the client gave up.
                if !reply.push_all([answer]) {
                    stats.abandoned.fetch_add(1, Ordering::AcqRel);
                }
            }
        }
        // Whatever sat behind the sentinel — in that batch or enqueued
        // since — is dropped unanswered: its clients see `Unavailable`.
        ready.shut();
        served
    }

    /// Registers one logical server on the loop. Any number of endpoints
    /// (and connections per endpoint) share the one reactor thread.
    pub fn serve(&self, handler: Arc<dyn QueryHandler>) -> EventEndpoint {
        EventEndpoint {
            queue: Arc::clone(&self.queue),
            handler,
            stats: Arc::new(EndpointStats::default()),
        }
    }

    /// Stops the reactor (after draining everything already enqueued)
    /// and returns the number of query frames it served.
    pub fn shutdown(mut self) -> u64 {
        self.queue.push_all([Event::Shutdown]);
        self.thread
            .take()
            .expect("already shut down")
            .join()
            .expect("reactor thread panicked")
    }
}

impl Drop for EventLoop {
    fn drop(&mut self) {
        if let Some(t) = self.thread.take() {
            // FIFO sentinel: everything enqueued before the drop is
            // still served; live connections afterwards degrade to
            // `Unavailable` instead of deadlocking this join.
            self.queue.push_all([Event::Shutdown]);
            let _ = t.join();
        }
    }
}

/// One logical server registered on an [`EventLoop`].
pub struct EventEndpoint {
    queue: Arc<End<Event>>,
    handler: Arc<dyn QueryHandler>,
    stats: Arc<EndpointStats>,
}

impl EventEndpoint {
    /// Opens a new connection with fresh per-connection state.
    pub fn connect(&self) -> EventConnection {
        EventConnection {
            queue: Arc::clone(&self.queue),
            handler: Arc::clone(&self.handler),
            stats: Arc::clone(&self.stats),
            conn: Arc::new(ConnState::new()),
        }
    }

    /// This endpoint's serving counters and queue-depth gauge.
    pub fn stats(&self) -> &Arc<EndpointStats> {
        &self.stats
    }
}

/// One connection from a device to an [`EventEndpoint`]: the event-loop
/// analogue of a socket. Implements [`RawExchange`], so it slots under a
/// [`Link`](crate::Link), a [`ShardRouter`](crate::ShardRouter) edge, or
/// a [`CacheLayer`](crate::CacheLayer) unchanged.
pub struct EventConnection {
    queue: Arc<End<Event>>,
    handler: Arc<dyn QueryHandler>,
    stats: Arc<EndpointStats>,
    conn: Arc<ConnState>,
}

impl EventConnection {
    /// This connection's state (reactor-owned; read-only here).
    pub fn state(&self) -> &Arc<ConnState> {
        &self.conn
    }
}

impl RawExchange for EventConnection {
    fn exchange(&self, request: Bytes) -> Bytes {
        self.begin(request).wait()
    }

    fn begin(&self, request: Bytes) -> Pending {
        begin_one(self, request)
    }

    fn begin_many(
        &self,
        requests: &mut dyn Iterator<Item = Bytes>,
        begun: &mut dyn FnMut(Pending),
    ) {
        let events: Vec<Event> = requests
            .map(|request| {
                let (reply, pending) = reply_slot();
                begun(pending);
                self.stats.enqueued();
                Event::Rpc {
                    request,
                    reply,
                    conn: Arc::clone(&self.conn),
                    handler: Arc::clone(&self.handler),
                    stats: Arc::clone(&self.stats),
                }
            })
            .collect();
        let n = events.len();
        if !self.queue.push_all(events) {
            // The reactor is gone: same graceful degradation as a dead
            // channel server — every pending yields the unavailable frame.
            (0..n).for_each(|_| self.stats.dequeued());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketModel;
    use crate::proto::{Request, Response};
    use crate::testutil::ScanHandler;
    use crate::transport::Link;
    use asj_geom::{Rect, SpatialObject};

    fn objects(n: u32) -> Vec<SpatialObject> {
        (0..n)
            .map(|i| SpatialObject::point(i, i as f64, 0.0))
            .collect()
    }

    fn w(hi: f64) -> Rect {
        Rect::from_coords(-1.0, -1.0, hi, 1.0)
    }

    #[test]
    fn event_loop_serves_byte_identically_to_in_process() {
        let reactor = EventLoop::spawn("unit");
        let endpoint = reactor.serve(Arc::new(ScanHandler(objects(20))));
        let looped = Link::new(Box::new(endpoint.connect()), PacketModel::default(), 1.0);
        let inproc = Link::in_process(
            Arc::new(ScanHandler(objects(20))),
            PacketModel::default(),
            1.0,
        );
        for hi in [3.0, 7.5, 19.0] {
            assert_eq!(
                looped.request(&Request::Window(w(hi))),
                inproc.request(&Request::Window(w(hi)))
            );
            assert_eq!(
                looped.request(&Request::Count(w(hi))),
                inproc.request(&Request::Count(w(hi)))
            );
        }
        assert_eq!(
            looped.meter().snapshot(),
            inproc.meter().snapshot(),
            "the carrier must not change accounting"
        );
        drop(looped);
        assert_eq!(reactor.shutdown(), 6);
    }

    #[test]
    fn many_endpoints_share_one_reactor_thread() {
        let reactor = EventLoop::spawn("multi");
        let endpoints: Vec<EventEndpoint> = (0..8)
            .map(|i| reactor.serve(Arc::new(ScanHandler(objects(i + 1)))))
            .collect();
        for (i, e) in endpoints.iter().enumerate() {
            let link = Link::new(Box::new(e.connect()), PacketModel::default(), 1.0);
            assert_eq!(
                link.request(&Request::Count(w(100.0))).into_count(),
                i as u64 + 1
            );
        }
        for e in &endpoints {
            assert_eq!(e.stats().served(), 1);
            assert!(e.stats().max_queue_depth() >= 1);
        }
        assert_eq!(reactor.shutdown(), 8);
    }

    #[test]
    fn garbled_frame_answers_typed_error_and_reactor_survives() {
        let reactor = EventLoop::spawn("garbled");
        let endpoint = reactor.serve(Arc::new(ScanHandler(objects(5))));
        let conn = endpoint.connect();
        // An injected-garble frame (0xEE marker) and a genuinely alien
        // opcode are both answered typed but counted apart.
        let reply = conn.exchange(Bytes::copy_from_slice(&[0xEE, 0x01, 0x02]));
        assert_eq!(
            crate::codec::decode_response(reply).unwrap(),
            Response::Malformed
        );
        let reply = conn.exchange(Bytes::copy_from_slice(&[0x5A, 0x01, 0x02]));
        assert_eq!(
            crate::codec::decode_response(reply).unwrap(),
            Response::Malformed
        );
        assert_eq!(endpoint.stats().garbled(), 1, "injected corruption");
        assert_eq!(endpoint.stats().malformed(), 1, "alien opcode");
        // Healthy traffic still flows on the same reactor.
        let link = Link::new(Box::new(endpoint.connect()), PacketModel::default(), 1.0);
        assert_eq!(link.request(&Request::Count(w(100.0))).into_count(), 5);
    }

    #[test]
    fn duplicate_tagged_deliveries_count_as_retries() {
        use crate::codec::DedupTag;
        use crate::proto::Update;
        let reactor = EventLoop::spawn("dedup");
        let endpoint = reactor.serve(Arc::new(ScanHandler(objects(5))));
        let conn = endpoint.connect();
        let inner = crate::codec::encode_request(&Request::ApplyUpdates(vec![Update::Delete(1)]));
        let tagged = crate::codec::wrap_dedup(DedupTag { nonce: 11, seq: 0 }, &inner);
        // Same tag delivered twice: the second is a retry. ScanHandler
        // refuses updates, but the retry gauge counts deliveries, not
        // outcomes.
        let first = conn.exchange(tagged.clone());
        let second = conn.exchange(tagged);
        assert_eq!(first, second);
        assert_eq!(endpoint.stats().retried(), 1);
        // A fresh seq on the same nonce is new work, not a retry.
        let next = crate::codec::wrap_dedup(DedupTag { nonce: 11, seq: 1 }, &inner);
        conn.exchange(next);
        assert_eq!(endpoint.stats().retried(), 1);
        reactor.shutdown();
    }

    #[test]
    fn undeliverable_replies_count_as_abandoned() {
        // A handler that blocks until released, so the client can give
        // up on queued exchanges *before* the reactor serves them.
        struct Gated(std::sync::Mutex<std::sync::mpsc::Receiver<()>>);
        impl QueryHandler for Gated {
            fn handle(&self, _req: Request) -> Response {
                let _ = self.0.lock().unwrap().recv();
                Response::Count(0)
            }
        }
        let (release, gate) = std::sync::mpsc::channel::<()>();
        let reactor = EventLoop::spawn("abandon");
        let endpoint = reactor.serve(Arc::new(Gated(std::sync::Mutex::new(gate))));
        let conn = endpoint.connect();
        let mut begun = Vec::new();
        conn.begin_many(
            &mut (0..3).map(|_| crate::codec::encode_request(&Request::Count(w(2.0)))),
            &mut |p| begun.push(p),
        );
        // The client abandons the two exchanges queued behind the first,
        // then the reactor is released to serve all three.
        begun.truncate(1);
        (0..3).for_each(|_| release.send(()).unwrap());
        assert_eq!(
            crate::codec::decode_response(begun.pop().unwrap().wait()).unwrap(),
            Response::Count(0)
        );
        assert_eq!(
            reactor.shutdown(),
            3,
            "the abandoned frames were still served"
        );
        let stats = endpoint.stats();
        assert_eq!(stats.abandoned(), 2);
        assert_eq!(stats.served(), 3);
        assert_eq!(stats.max_queue_depth(), 3, "every batch member counts");
        assert_eq!(stats.pending.load(Ordering::Acquire), 0);
    }

    #[test]
    fn shutdown_inside_a_drained_batch_answers_before_it_and_fails_after_it() {
        let reactor = EventLoop::spawn("sentinel");
        let endpoint = reactor.serve(Arc::new(ScanHandler(objects(5))));
        let conn = endpoint.connect();
        let count = || crate::codec::encode_request(&Request::Count(w(100.0)));
        // One push, so the reactor drains all five events together.
        let (mut events, pendings): (Vec<Event>, Vec<Pending>) = (0..4)
            .map(|_| {
                let (reply, pending) = reply_slot();
                conn.stats.enqueued();
                let event = Event::Rpc {
                    request: count(),
                    reply,
                    conn: Arc::clone(&conn.conn),
                    handler: Arc::clone(&conn.handler),
                    stats: Arc::clone(&conn.stats),
                };
                (event, pending)
            })
            .unzip();
        events.insert(2, Event::Shutdown);
        assert!(reactor.queue.push_all(events));
        let replies: Vec<Response> = pendings
            .into_iter()
            .map(|p| crate::codec::decode_response(p.wait()).unwrap())
            .collect();
        assert_eq!(
            replies,
            [
                Response::Count(5),
                Response::Count(5),
                Response::Unavailable,
                Response::Unavailable
            ]
        );
        // The reactor is gone: later exchanges degrade too (and give
        // their queue-depth slot back), and dropping the loop does not
        // hang on it.
        assert!(crate::codec::is_unavailable(&conn.exchange(count())));
        drop(reactor);
    }

    #[test]
    fn dropping_the_loop_with_live_connections_does_not_hang() {
        let reactor = EventLoop::spawn("drop-first");
        let endpoint = reactor.serve(Arc::new(ScanHandler(objects(5))));
        let conn = endpoint.connect();
        drop(reactor);
        let link = Link::new(Box::new(conn), PacketModel::default(), 1.0);
        assert_eq!(link.request(&Request::Count(w(1.0))), Response::Unavailable);
        // Nothing crossed the wire, so nothing was metered.
        assert_eq!(link.meter().snapshot().total_bytes(), 0);
    }

    #[test]
    fn negotiation_is_per_connection_state() {
        let reactor = EventLoop::spawn("hello");
        let endpoint = reactor.serve(Arc::new(ScanHandler(objects(5))));
        let negotiated = endpoint.connect();
        let plain = endpoint.connect();
        let conn_state = Arc::clone(negotiated.state());
        assert_eq!(conn_state.negotiated(), WireVersion::V1);
        let link = Link::new(Box::new(negotiated), PacketModel::default(), 1.0).negotiate();
        assert_eq!(link.wire(), WireVersion::V2);
        // The reactor recorded the handshake on exactly the connection
        // that sent it.
        assert_eq!(conn_state.negotiated(), WireVersion::V2);
        assert_eq!(plain.state().negotiated(), WireVersion::V1);
    }
}
