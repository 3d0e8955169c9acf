//! The gauged endpoint: a server behind a close gate, with gauges.
//!
//! A deployment built `.threaded()` or `.event_loop()` serves each of its
//! servers as a gauged endpoint rather than by a bare in-process call.
//! The paper's cost model sees bytes, not threads, so a gauged endpoint
//! serves on the in-process path and adds two things around it:
//!
//! * an [`EventLoop`] is the close gate every endpoint registered on it
//!   serves through, open until the loop closes. It starts no thread and
//!   holds no request. A deployment owns one and registers every server
//!   it serves on it — both sides, every shard replica;
//! * each [`EventEndpoint`] is one logical server (a [`QueryHandler`])
//!   registered on a loop, with its [`EndpointStats`] gauges;
//! * each [`EventConnection`] is one device's socket to one endpoint.
//!
//! # Serving
//!
//! A connection serves each request at the call, on the calling thread,
//! by the one discipline it shares with
//! [`InProcExchange`](crate::transport::InProcExchange): the handler
//! encodes into the thread's reused reply buffer, and the reply ships as
//! one exact-size copy of it. Around that a connection adds only what an
//! endpoint adds: its [`EndpointStats`], and the loop's gate — a read
//! guard held across each serve. So a round trip switches no thread,
//! however wide the scatter, and an endpoint's handler runs on as many
//! device threads at once as call it, as in process.
//!
//! The gate relies on one condition: a handler never asks its own loop.
//! Its nested read would queue behind a close waiting for the serve it
//! runs inside. No handler does.
//!
//! # Connection state
//!
//! A connection carries no protocol state: a server decodes each request
//! in the version its own marker asks for, so two connections to one
//! endpoint need agree on nothing, and a connection's first frame is a
//! query like any other. What a connection keeps is its share of the
//! endpoint's gauges. So thousands of connections coexist without
//! per-connection locks.
//!
//! # Robustness contract
//!
//! Serving never stops on bad input: an undecodable frame answers the
//! typed [`Response::Malformed`](crate::Response::Malformed) error frame
//! and serving continues. [`EventLoop::shutdown`] and dropping the loop
//! close its gate: they wait for the serves in progress, and every later
//! request answers [`Response::Unavailable`](crate::Response::Unavailable)
//! without reaching its handler, so connections that outlive the loop
//! degrade instead of panicking. A handler that panics unwinds its own
//! caller, as in process; the loop serves on.
//!
//! Per-endpoint [`EndpointStats`] gauge the requests in service at once
//! and the connections with at least one in service, each with a
//! high-water mark, beside the served and malformed-frame counts.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

use bytes::Bytes;

use crate::codec::unavailable_frame;
use crate::proto::QueryHandler;
use crate::transport::{serve_frame, RawExchange};

/// Counters one endpoint's serving publishes; shared by every connection
/// to that endpoint.
#[derive(Debug, Default)]
pub struct EndpointStats {
    /// Requests in service right now.
    in_service: AtomicU64,
    /// High-water mark of `in_service`: the most requests this endpoint ever
    /// served at once.
    max_depth: AtomicU64,
    /// Connections with at least one request in `in_service`.
    waiting: AtomicU64,
    /// High-water mark of `waiting`: how many connections ever contended
    /// for this endpoint at once.
    max_waiting: AtomicU64,
    /// Query frames served (malformed frames excluded).
    served: AtomicU64,
    /// Undecodable frames answered with the typed error: an alien opcode,
    /// a truncated payload, a frame corrupted in transit.
    malformed: AtomicU64,
}

impl EndpointStats {
    /// Most requests ever in service at once: each is served on the
    /// thread that asks it, so this is at most the number of threads
    /// calling the endpoint. Contention between connections is
    /// [`max_connections_waiting`](Self::max_connections_waiting).
    pub fn max_queue_depth(&self) -> u64 {
        self.max_depth.load(Ordering::Acquire)
    }

    /// Most connections that ever had a request in service at once.
    pub fn max_connections_waiting(&self) -> u64 {
        self.max_waiting.load(Ordering::Acquire)
    }

    /// Query frames served so far.
    pub fn served(&self) -> u64 {
        self.served.load(Ordering::Acquire)
    }

    /// Undecodable frames answered with [`crate::Response::Malformed`].
    pub fn malformed(&self) -> u64 {
        self.malformed.load(Ordering::Acquire)
    }
}

/// Whether a loop still serves: read across each serve, written once, by
/// the close.
type Gate = RwLock<bool>;

/// The close gate every endpoint and connection registered on it serves
/// through. It starts no thread and holds no request. Dropping it waits
/// for the serves in progress and refuses what comes later, so live
/// connections never deadlock it.
pub struct EventLoop {
    open: Arc<Gate>,
}

impl Default for EventLoop {
    fn default() -> Self {
        EventLoop::new()
    }
}

impl EventLoop {
    /// A loop with nothing registered on it yet.
    pub fn new() -> Self {
        EventLoop {
            open: Arc::new(RwLock::new(true)),
        }
    }

    /// Registers one logical server on the loop. Any number of endpoints
    /// (and connections per endpoint) share its one gate.
    pub fn serve(&self, handler: Arc<dyn QueryHandler>) -> EventEndpoint {
        EventEndpoint {
            open: Arc::clone(&self.open),
            handler,
            stats: Arc::default(),
        }
    }

    /// Closes the loop — later requests answer unavailable — once the
    /// serves in progress have finished. What each endpoint served is in
    /// its [`EventEndpoint::stats`].
    pub fn shutdown(self) {
        self.close();
    }

    fn close(&self) {
        *self.open.write().unwrap_or_else(PoisonError::into_inner) = false;
    }
}

impl Drop for EventLoop {
    fn drop(&mut self) {
        self.close();
    }
}

/// One logical server registered on an [`EventLoop`].
pub struct EventEndpoint {
    open: Arc<Gate>,
    handler: Arc<dyn QueryHandler>,
    stats: Arc<EndpointStats>,
}

impl EventEndpoint {
    /// Opens a new connection.
    pub fn connect(&self) -> EventConnection {
        EventConnection {
            open: Arc::clone(&self.open),
            handler: Arc::clone(&self.handler),
            stats: Arc::clone(&self.stats),
            outstanding: AtomicU64::new(0),
        }
    }

    /// This endpoint's serving counters and gauges.
    pub fn stats(&self) -> &Arc<EndpointStats> {
        &self.stats
    }
}

/// One connection from a device to an [`EventEndpoint`]: a gauged
/// endpoint's analogue of a socket. Implements [`RawExchange`], so it slots under a
/// [`Link`](crate::Link), a [`ShardRouter`](crate::ShardRouter) edge, or
/// a [`CacheLayer`](crate::CacheLayer) unchanged.
pub struct EventConnection {
    open: Arc<Gate>,
    handler: Arc<dyn QueryHandler>,
    stats: Arc<EndpointStats>,
    /// This connection's requests in service.
    outstanding: AtomicU64,
}

impl EventConnection {
    /// Raises the gauges for one request entering service.
    fn enter(&self) {
        let stats = &self.stats;
        let depth = stats.in_service.fetch_add(1, Ordering::AcqRel) + 1;
        stats.max_depth.fetch_max(depth, Ordering::AcqRel);
        if self.outstanding.fetch_add(1, Ordering::AcqRel) == 0 {
            let waiting = stats.waiting.fetch_add(1, Ordering::AcqRel) + 1;
            stats.max_waiting.fetch_max(waiting, Ordering::AcqRel);
        }
    }

    /// Lowers them again once it is served.
    fn leave(&self) {
        self.stats.in_service.fetch_sub(1, Ordering::AcqRel);
        if self.outstanding.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.stats.waiting.fetch_sub(1, Ordering::AcqRel);
        }
    }
}

impl RawExchange for EventConnection {
    /// Serves `request` on the calling thread while the loop's gate is
    /// open; a closed loop answers the unavailable frame and its handler
    /// never sees the request.
    fn exchange(&self, request: Bytes) -> Bytes {
        let open = self.open.read().unwrap_or_else(PoisonError::into_inner);
        if !*open {
            return unavailable_frame();
        }
        self.enter();
        let (reply, query) = serve_frame(self.handler.as_ref(), request);
        // An undecodable frame gets the typed error (already encoded into
        // the reply) and serving goes on.
        let tally = if query {
            &self.stats.served
        } else {
            &self.stats.malformed
        };
        tally.fetch_add(1, Ordering::AcqRel);
        self.leave();
        reply
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
    use std::sync::{mpsc, Mutex};

    fn objects(n: u32) -> Vec<SpatialObject> {
        (0..n)
            .map(|i| SpatialObject::point(i, i as f64, 0.0))
            .collect()
    }

    fn w(hi: f64) -> Rect {
        Rect::from_coords(-1.0, -1.0, hi, 1.0)
    }

    fn link(conn: EventConnection) -> Link {
        Link::new(Box::new(conn), PacketModel::default(), 1.0)
    }

    fn count() -> Bytes {
        crate::codec::encode_request(&Request::Count(w(100.0)))
    }

    fn decode(reply: Bytes) -> Response {
        crate::codec::decode_response(reply).unwrap()
    }

    /// Serves nothing until released, so a test decides when an exchange
    /// can complete.
    struct Gated(Mutex<mpsc::Receiver<()>>);

    impl QueryHandler for Gated {
        fn handle(&self, _req: Request) -> Response {
            let _ = self.0.lock().unwrap().recv();
            Response::Count(0)
        }
    }

    fn gated() -> (mpsc::Sender<()>, Arc<Gated>) {
        let (release, gate) = mpsc::channel();
        (release, Arc::new(Gated(Mutex::new(gate))))
    }

    /// Asks one request on another thread and returns its handle.
    fn ask(conn: &Arc<EventConnection>) -> std::thread::JoinHandle<Bytes> {
        let conn = Arc::clone(conn);
        std::thread::spawn(move || conn.exchange(count()))
    }

    /// Spins until `n` requests are in service on `stats`' endpoint.
    fn until_in_service(stats: &EndpointStats, n: u64) {
        while stats.in_service.load(Ordering::Acquire) < n {
            std::thread::yield_now();
        }
    }

    #[test]
    fn event_loop_serves_byte_identically_to_in_process() {
        let gate = EventLoop::new();
        let endpoint = gate.serve(Arc::new(ScanHandler(objects(20))));
        let gauged = link(endpoint.connect());
        let inproc = Link::in_process(
            Arc::new(ScanHandler(objects(20))),
            PacketModel::default(),
            1.0,
        );
        for hi in [3.0, 7.5, 19.0] {
            assert_eq!(
                gauged.request(&Request::Window(w(hi))),
                inproc.request(&Request::Window(w(hi)))
            );
            assert_eq!(
                gauged.request(&Request::Count(w(hi))),
                inproc.request(&Request::Count(w(hi)))
            );
        }
        assert_eq!(
            gauged.meter().snapshot(),
            inproc.meter().snapshot(),
            "the gauges must not change accounting"
        );
        assert_eq!(endpoint.stats().served(), 6);
    }

    #[test]
    fn many_endpoints_share_one_reactor_thread() {
        let gate = EventLoop::new();
        let endpoints: Vec<EventEndpoint> = (0..8)
            .map(|i| gate.serve(Arc::new(ScanHandler(objects(i + 1)))))
            .collect();
        for (i, e) in endpoints.iter().enumerate() {
            let link = link(e.connect());
            assert_eq!(
                link.request(&Request::Count(w(100.0))).into_count(),
                i as u64 + 1
            );
        }
        for e in &endpoints {
            assert_eq!(e.stats().served(), 1);
            assert!(e.stats().max_queue_depth() >= 1);
        }
        // One close shuts every endpoint registered on the loop.
        gate.shutdown();
        for e in &endpoints {
            assert!(crate::codec::is_unavailable(&e.connect().exchange(count())));
            assert_eq!(e.stats().served(), 1);
        }
    }

    /// Many clients on one loop at once, each shipping batches of its
    /// own: every reply reaches the client that asked it. Endpoint `t`
    /// holds `64` points, and client `t`'s `k`-th request of a batch
    /// counts those up to `x = depth·t + k`, so an answer names the
    /// request it answers.
    #[test]
    fn every_reply_reaches_its_own_caller() {
        let (threads, depth, rounds) = (4u32, 8u32, 400u32);
        let gate = EventLoop::new();
        let clients: Vec<_> = (0..threads)
            .map(|t| {
                let endpoint = gate.serve(Arc::new(ScanHandler(objects(64))));
                let conn = endpoint.connect();
                let client = std::thread::spawn(move || {
                    let hi = |k| (depth * t + k) as f64;
                    for _ in 0..rounds {
                        let requests = (0..depth).map(|k| Request::Count(w(hi(k))));
                        let mut frames = requests.map(|r| crate::codec::encode_request(&r));
                        let mut k = 0;
                        conn.exchange_many(&mut frames, &mut |reply| {
                            let want = Response::Count(u64::from(depth * t + k + 1));
                            assert_eq!(decode(reply), want);
                            k += 1;
                        });
                        assert_eq!(k, depth, "one reply per request");
                    }
                });
                (endpoint, client)
            })
            .collect();
        for (endpoint, client) in clients {
            client.join().unwrap();
            assert_eq!(endpoint.stats().served(), u64::from(depth * rounds));
        }
    }

    #[test]
    fn garbled_frame_answers_typed_error_and_reactor_survives() {
        let gate = EventLoop::new();
        let endpoint = gate.serve(Arc::new(ScanHandler(objects(5))));
        let conn = endpoint.connect();
        // A frame garbled in transit (the fault layer's 0xEE marker), an
        // alien opcode, two retired ones (0x06, a batched COUNT of no
        // windows; 0x70, a version handshake probe) and a truncated frame
        // are all answered typed.
        let (batched, hello) = ([0x06, 0, 0, 0, 0], [0x70, 0x02]);
        let alien = [&[0xEE, 0x01, 0x02][..], &[0x5A, 0x01, 0x02]];
        for garbage in alien.into_iter().chain([&batched[..], &hello, &[]]) {
            let reply = conn.exchange(Bytes::copy_from_slice(garbage));
            assert_eq!(decode(reply), Response::Malformed);
        }
        assert_eq!(
            endpoint.stats().malformed(),
            5,
            "garbled, alien, two retired, truncated"
        );
        // Healthy traffic still flows through the same gate.
        let healthy = link(endpoint.connect());
        assert_eq!(healthy.request(&Request::Count(w(100.0))).into_count(), 5);
        assert_eq!(
            endpoint.stats().served(),
            1,
            "garbage is not a served query"
        );
    }

    /// Holds one request per entry of `on` inside the handler at once,
    /// entry `i` asked on connection `on[i]`, then releases them all and
    /// returns the endpoint's stats.
    fn held_at_once(on: &[usize]) -> Arc<EndpointStats> {
        let (release, handler) = gated();
        let gate = EventLoop::new();
        let endpoint = gate.serve(handler);
        let conns: Vec<_> = (0..on.len())
            .map(|_| Arc::new(endpoint.connect()))
            .collect();
        let callers: Vec<_> = on.iter().map(|&c| ask(&conns[c])).collect();
        let stats = Arc::clone(endpoint.stats());
        until_in_service(&stats, on.len() as u64);
        on.iter().for_each(|_| release.send(()).unwrap());
        for caller in callers {
            assert_eq!(decode(caller.join().unwrap()), Response::Count(0));
        }
        assert_eq!(stats.in_service.load(Ordering::Acquire), 0);
        assert_eq!(stats.waiting.load(Ordering::Acquire), 0);
        assert_eq!(stats.served(), on.len() as u64);
        stats
    }

    #[test]
    fn queue_depth_counts_requests_and_connections_apart() {
        // Four devices inside the handler at once: four deep, four
        // contending.
        let stats = held_at_once(&[0, 1, 2, 3]);
        assert_eq!(stats.max_queue_depth(), 4);
        assert_eq!(stats.max_connections_waiting(), 4);
        // Two threads sharing one connection: two deep, one connection.
        let stats = held_at_once(&[0, 0]);
        assert_eq!(stats.max_queue_depth(), 2);
        assert_eq!(stats.max_connections_waiting(), 1);
    }

    /// `shutdown` while a request is held inside its handler: it returns
    /// only once that serve is done, and every request asked after it is
    /// refused without reaching the handler.
    #[test]
    fn shutdown_inside_a_drained_batch_answers_before_it_and_fails_after_it() {
        let (release, handler) = gated();
        let gate = EventLoop::new();
        let endpoint = gate.serve(handler);
        let conn = Arc::new(endpoint.connect());
        let held = ask(&conn);
        until_in_service(endpoint.stats(), 1);
        let closing = std::thread::spawn(move || gate.shutdown());
        for _ in 0..1000 {
            std::thread::yield_now();
        }
        assert!(!closing.is_finished(), "a serve is still in progress");
        release.send(()).unwrap();
        assert_eq!(decode(held.join().unwrap()), Response::Count(0));
        closing.join().unwrap();
        assert_eq!(endpoint.stats().served(), 1);
        // The gate is shut: nothing more reaches the handler, which would
        // answer at once now that its gate is gone too.
        drop(release);
        assert!(crate::codec::is_unavailable(&conn.exchange(count())));
        assert_eq!(endpoint.stats().served(), 1);
    }

    #[test]
    fn dropping_the_loop_with_live_connections_does_not_hang() {
        let gate = EventLoop::new();
        let endpoint = gate.serve(Arc::new(ScanHandler(objects(5))));
        let opened_before = endpoint.connect();
        // The endpoint and a connection are still alive.
        drop(gate);
        for conn in [opened_before, endpoint.connect()] {
            let link = link(conn);
            assert_eq!(link.request(&Request::Count(w(1.0))), Response::Unavailable);
            // Nothing crossed the wire, so nothing was metered.
            assert_eq!(link.meter().snapshot().total_bytes(), 0);
        }
        assert_eq!(endpoint.stats().served(), 0, "no handler was reached");
    }
}
