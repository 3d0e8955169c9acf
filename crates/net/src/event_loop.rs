//! The serving carrier: a reactor whose queue the waiting clients drain.
//!
//! Every server that is not called in-process is served here. The
//! paper's cost model sees bytes, not threads, so there is one serving
//! loop and the only choice left is *placement*:
//!
//! * an [`EventLoop`] owns the reactor — one ready-queue, taken whole
//!   per pass (there is no tokio here, and none is needed: requests are
//!   already discrete ready-to-run events) — and starts no thread;
//! * each [`EventEndpoint`] is one logical server (a [`QueryHandler`])
//!   registered on a loop. A deployment registers every server it
//!   serves — both sides, every shard replica — on one loop, so one
//!   queue and one encode buffer serve however many shards there are
//!   and however many devices connect;
//! * each [`EventConnection`] is one device's socket to one endpoint.
//!
//! # Serving
//!
//! A begun batch is queued quietly. The client that first waits on a
//! reply still missing serves the queue itself, on its own thread (see
//! `mailbox`): it claims the loop's one `serving` flag and drains every
//! batch queued — a batch per (shard, replica) edge of a router's
//! scatter, and whatever other devices began — in FIFO order, filling
//! every slot, until it finds the queue empty. A client that finds the
//! flag set parks on its reply, and the drain in progress fills it. So a
//! round trip switches no thread, however wide the scatter; the bytes,
//! the replies and each connection's queue order are those a serving
//! thread would produce.
//!
//! The drain relies on one condition: a handler never waits on its own
//! loop (it would park on the drain it runs inside). No handler does.
//!
//! # Connection state
//!
//! A connection carries no protocol state: a server decodes each request
//! in the version its own marker asks for, so two connections to one
//! endpoint need agree on nothing, and a connection's first frame is a
//! query like any other. What a connection keeps is its share of the
//! endpoint's queue gauges; the one encode buffer every reply is built
//! in is the loop's own. So thousands of connections coexist without
//! per-connection locks.
//!
//! # Robustness contract
//!
//! A drain serves every device on the loop, so it must never stop on bad
//! input: an undecodable frame answers the typed
//! [`Response::Malformed`](crate::Response::Malformed) error frame and
//! serving continues. [`EventLoop::shutdown`] and dropping the loop
//! close it and serve what is still queued on the calling thread (FIFO —
//! in-flight requests all still complete); connections that outlive the
//! loop degrade to [`Response::Unavailable`](crate::Response::Unavailable)
//! instead of panicking. A handler that panics ends its drain the same
//! way: the loop closes, and what was queued behind it answers
//! unavailable.
//!
//! Per-endpoint [`EndpointStats`] gauge the requests outstanding (every
//! member of a pipelined batch counts) and the connections with at least
//! one outstanding, each with a high-water mark, beside the serving and
//! malformed-frame counts.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::{Bytes, BytesMut};

use crate::few::Few;
use crate::mailbox::{mailbox, slots, End, SlotEnd};
use crate::proto::QueryHandler;
use crate::transport::{Pending, RawExchange};

/// One connection, as the loop sees it: its queue gauge and the
/// endpoint the connection leads to.
struct Conn {
    /// This connection's requests sitting in the ready-queue (or being
    /// served).
    outstanding: AtomicU64,
    handler: Arc<dyn QueryHandler>,
    stats: Arc<EndpointStats>,
}

impl Conn {
    /// `n` requests of this connection are about to be queued.
    fn enqueued(&self, n: u64) {
        let stats = &self.stats;
        let depth = stats.pending.fetch_add(n, Ordering::AcqRel) + n;
        stats.max_depth.fetch_max(depth, Ordering::AcqRel);
        if self.outstanding.fetch_add(n, Ordering::AcqRel) == 0 {
            let waiting = stats.waiting.fetch_add(1, Ordering::AcqRel) + 1;
            stats.max_waiting.fetch_max(waiting, Ordering::AcqRel);
        }
    }

    /// `n` queued requests of this connection were served (or refused by
    /// a closed loop).
    fn dequeued(&self, n: u64) {
        self.stats.pending.fetch_sub(n, Ordering::AcqRel);
        if self.outstanding.fetch_sub(n, Ordering::AcqRel) == n {
            self.stats.waiting.fetch_sub(1, Ordering::AcqRel);
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
    /// of the queue ever got, every member of a pipelined batch counted.
    max_depth: AtomicU64,
    /// Connections with at least one request in `pending`.
    waiting: AtomicU64,
    /// High-water mark of `waiting`: how many devices ever contended for
    /// this endpoint at once, however wide each one's batch was.
    max_waiting: AtomicU64,
    /// Query frames served (malformed frames excluded).
    served: AtomicU64,
    /// Undecodable frames answered with the typed error: an alien opcode,
    /// a truncated payload, a frame corrupted in transit.
    malformed: AtomicU64,
    /// Replies that could not be delivered because the client had
    /// already given up on the exchange.
    abandoned: AtomicU64,
}

impl EndpointStats {
    /// Most requests ever outstanding at once: one device's 32-probe
    /// batch reads as 32. Contention between devices is
    /// [`max_connections_waiting`](Self::max_connections_waiting).
    pub fn max_queue_depth(&self) -> u64 {
        self.max_depth.load(Ordering::Acquire)
    }

    /// Most connections that ever had a request outstanding at once.
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

    /// Replies dropped because the client abandoned the exchange.
    pub fn abandoned(&self) -> u64 {
        self.abandoned.load(Ordering::Acquire)
    }
}

/// One request on the ready-queue.
struct Event {
    request: Bytes,
    reply: SlotEnd<Bytes>,
    /// The connection it came in on, which names the endpoint's handler
    /// too — so the loop needs no endpoint registry at all, and
    /// registration is just handing out the mailbox.
    conn: Arc<Conn>,
}

/// The ready-queue, with the loop's one encode buffer as its drains'
/// scratch.
type Queue = End<Event, BytesMut>;

/// Serves one queued request and fills its slot, by the one discipline
/// [`crate::transport::InProcExchange`] shares: the reply is encoded
/// into the loop's reused buffer — so steady-state serving grows no
/// buffer — and ships as one exact-size copy of it, the only
/// per-request allocation. Returns whether the frame was a query.
fn serve(event: Event, buf: &mut BytesMut) -> bool {
    let Event {
        request,
        reply,
        conn,
    } = event;
    let stats = &conn.stats;
    buf.clear();
    let query = crate::transport::serve_frame_into(conn.handler.as_ref(), request, buf);
    if query {
        stats.served.fetch_add(1, Ordering::AcqRel);
    } else {
        // A drain serves every device: an undecodable frame gets the
        // typed error (already encoded into `buf`) and serving goes on.
        stats.malformed.fetch_add(1, Ordering::AcqRel);
    }
    conn.dequeued(1);
    // The shim's `Bytes` is `Arc<[u8]>`-backed, so one copy (one
    // allocation) into the reply stands in for the real crate's
    // zero-copy, allocation-recycling `buf.split().freeze()`.
    if !reply.fill(Bytes::copy_from_slice(buf)) {
        // A refused reply just means the client gave up.
        stats.abandoned.fetch_add(1, Ordering::AcqRel);
    }
    query
}

/// A reply a loop still owes, and the queue its request waits in.
pub(crate) struct Waiter {
    slot: SlotEnd<Bytes>,
    queue: Arc<Queue>,
}

impl Waiter {
    /// The reply, served on this thread unless a drain is already in
    /// progress (see the module's "Serving"); `None` if the loop closed
    /// before serving it.
    pub(crate) fn wait(self) -> Option<Bytes> {
        let queue = self.queue;
        self.slot.wait(|| {
            queue.drain(serve);
        })
    }
}

/// The reactor: one ready-queue shared by every endpoint and connection
/// registered on it, drained by the clients that wait on it. It starts
/// no thread. Dropping it serves what is queued and refuses what comes
/// later, so live connections never deadlock it.
pub struct EventLoop {
    /// The loop's own end of the ready-queue, closed by
    /// [`shutdown`](Self::shutdown) or drop.
    own: Queue,
    /// The end endpoints push on and waiters drain.
    queue: Arc<Queue>,
}

impl Default for EventLoop {
    fn default() -> Self {
        EventLoop::new()
    }
}

impl EventLoop {
    /// A loop with nothing registered on it yet.
    pub fn new() -> Self {
        let (own, queue) = mailbox();
        EventLoop {
            own,
            queue: Arc::new(queue),
        }
    }

    /// Registers one logical server on the loop. Any number of endpoints
    /// (and connections per endpoint) share its one queue.
    pub fn serve(&self, handler: Arc<dyn QueryHandler>) -> EventEndpoint {
        EventEndpoint {
            queue: Arc::clone(&self.queue),
            handler,
            stats: Arc::new(EndpointStats::default()),
        }
    }

    /// Closes the loop — later requests answer unavailable — and serves
    /// what is still queued on the calling thread, after a drain running
    /// on another one has finished. Returns the number of query frames
    /// the loop served (malformed frames excluded).
    pub fn shutdown(self) -> u64 {
        self.own.close();
        loop {
            if let Some(served) = self.own.drain(serve) {
                return served;
            }
            std::thread::yield_now();
        }
    }
}

impl Drop for EventLoop {
    fn drop(&mut self) {
        // Everything enqueued before the drop is still served — here, or
        // by a drain already running on another thread; live connections
        // afterwards degrade to `Unavailable`.
        self.own.close();
        self.own.drain(serve);
    }
}

/// One logical server registered on an [`EventLoop`].
pub struct EventEndpoint {
    queue: Arc<Queue>,
    handler: Arc<dyn QueryHandler>,
    stats: Arc<EndpointStats>,
}

impl EventEndpoint {
    /// Opens a new connection.
    pub fn connect(&self) -> EventConnection {
        EventConnection {
            queue: Arc::clone(&self.queue),
            conn: Arc::new(Conn {
                outstanding: AtomicU64::new(0),
                handler: Arc::clone(&self.handler),
                stats: Arc::clone(&self.stats),
            }),
        }
    }

    /// This endpoint's serving counters and queue-depth gauges.
    pub fn stats(&self) -> &Arc<EndpointStats> {
        &self.stats
    }
}

/// One connection from a device to an [`EventEndpoint`]: the carrier's
/// analogue of a socket. Implements [`RawExchange`], so it slots under a
/// [`Link`](crate::Link), a [`ShardRouter`](crate::ShardRouter) edge, or
/// a [`CacheLayer`](crate::CacheLayer) unchanged.
pub struct EventConnection {
    queue: Arc<Queue>,
    conn: Arc<Conn>,
}

impl RawExchange for EventConnection {
    fn exchange(&self, request: Bytes) -> Bytes {
        self.begin(request).wait()
    }

    /// The whole batch is enqueued under one lock, waking nobody: the
    /// first [`Pending::wait`] that finds its reply missing drains the
    /// loop's queue on its own thread, or parks on the drain in progress.
    /// If the loop is closed the batch is dropped unsent, and every
    /// pending then yields the unavailable frame.
    fn begin_many(
        &self,
        requests: &mut dyn Iterator<Item = Bytes>,
        begun: &mut dyn FnMut(Pending),
    ) {
        let mut requests: Few<Bytes> = requests.collect();
        let n = requests.as_mut_slice().len() as u64;
        if n == 0 {
            return;
        }
        // The slots a drain answers into; one refuses its reply once the
        // client has dropped the pending that waits on it.
        let paired = requests.into_iter().zip(slots(n as usize));
        let events = paired.map(|(request, (reply, slot))| {
            let queue = Arc::clone(&self.queue);
            begun(Pending {
                reply: Err(Waiter { slot, queue }),
                garble: None,
            });
            let conn = Arc::clone(&self.conn);
            Event {
                request,
                reply,
                conn,
            }
        });
        let events: Few<Event> = events.collect();
        self.conn.enqueued(n);
        if !self.queue.push_all(events) {
            self.conn.dequeued(n);
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    //! Each carrier behaviour is checked by one body that runs on either
    //! placement of the loop: this module's tests run it on a reactor
    //! shared with a bystander endpoint, `transport::tests` on a reactor
    //! of the endpoint's own.

    use super::*;
    use crate::packet::PacketModel;
    use crate::proto::{Request, Response};
    use crate::testutil::ScanHandler;
    use crate::transport::Link;
    use asj_geom::{Rect, SpatialObject};
    use std::sync::{mpsc, Mutex};
    use std::thread::ThreadId;

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

    /// Where the endpoint under test is served from.
    #[derive(Clone, Copy)]
    pub(crate) enum Placement {
        /// A reactor of its own.
        Private,
        /// A reactor it shares with a bystander endpoint.
        Shared,
    }

    /// The reactor of an endpoint under test, and the bystander endpoint
    /// it shares it with, if any.
    struct Reactor(EventLoop, Option<EventEndpoint>);

    impl Placement {
        fn serve<H: QueryHandler + 'static>(self, handler: Arc<H>) -> (Reactor, EventEndpoint) {
            let reactor = EventLoop::new();
            let bystander = match self {
                Placement::Private => None,
                Placement::Shared => Some(reactor.serve(Arc::new(ScanHandler(objects(1))))),
            };
            let endpoint = reactor.serve(handler);
            (Reactor(reactor, bystander), endpoint)
        }
    }

    impl Reactor {
        fn shutdown(self) -> u64 {
            drop(self.1);
            self.0.shutdown()
        }
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

    /// Counts 1, noting the thread that served it.
    #[derive(Default)]
    struct OnThread(Mutex<Vec<ThreadId>>);

    impl QueryHandler for OnThread {
        fn handle(&self, _req: Request) -> Response {
            self.0.lock().unwrap().push(std::thread::current().id());
            Response::Count(1)
        }
    }

    pub(crate) fn serves_byte_identically_to_in_process(on: Placement) {
        let (reactor, endpoint) = on.serve(Arc::new(ScanHandler(objects(20))));
        let looped = link(endpoint.connect());
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
        drop((looped, endpoint));
        assert_eq!(reactor.shutdown(), 6);
    }

    #[test]
    fn event_loop_serves_byte_identically_to_in_process() {
        serves_byte_identically_to_in_process(Placement::Shared);
    }

    #[test]
    fn many_endpoints_share_one_reactor_thread() {
        let reactor = EventLoop::new();
        let endpoints: Vec<EventEndpoint> = (0..8)
            .map(|i| reactor.serve(Arc::new(ScanHandler(objects(i + 1)))))
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
        assert_eq!(reactor.shutdown(), 8);
    }

    /// Quiet pushes, served by the waiter: batches begun on two endpoints
    /// of one loop are served by nobody until the first wait, which
    /// drains both — A's reply comes back after B was served.
    #[test]
    fn batches_begun_on_two_endpoints_before_the_first_wait_are_served_in_one_drain() {
        let reactor = EventLoop::new();
        let a = reactor.serve(Arc::new(ScanHandler(objects(3))));
        let b = reactor.serve(Arc::new(ScanHandler(objects(4))));
        let (to_a, to_b) = (a.connect(), b.connect());
        for round in 1..=100 {
            let (pa, pb) = (to_a.begin(count()), to_b.begin(count()));
            assert_eq!(b.stats().served(), round - 1, "a begun batch waits");
            assert_eq!(decode(pa.wait()), Response::Count(3));
            assert_eq!(b.stats().served(), round, "B was drained with A");
            assert_eq!(decode(pb.wait()), Response::Count(4));
        }
        drop((to_a, to_b, a, b));
        assert_eq!(reactor.shutdown(), 200);
    }

    /// Nobody waits, so nobody serves until the loop closes: `shutdown`,
    /// or a drop, serves what is queued on the calling thread and refuses
    /// what comes after.
    #[test]
    fn a_batch_never_waited_on_is_served_when_the_loop_closes() {
        let reactor = EventLoop::new();
        let endpoint = reactor.serve(Arc::new(ScanHandler(objects(5))));
        let conn = endpoint.connect();
        let mut begun = Vec::new();
        conn.begin_many(&mut (0..3).map(|_| count()), &mut |p| begun.push(p));
        let stats = Arc::clone(endpoint.stats());
        assert_eq!(stats.served(), 0);
        assert_eq!(reactor.shutdown(), 3);
        assert_eq!(stats.served(), 3);
        assert!(crate::codec::is_unavailable(&conn.begin(count()).wait()));
        for pending in begun {
            assert_eq!(decode(pending.wait()), Response::Count(5));
        }

        let reactor = EventLoop::new();
        let endpoint = reactor.serve(Arc::new(ScanHandler(objects(5))));
        let conn = endpoint.connect();
        let before = conn.begin(count());
        drop(reactor);
        assert_eq!(endpoint.stats().served(), 1, "served by the drop");
        assert!(crate::codec::is_unavailable(&conn.begin(count()).wait()));
        assert_eq!(decode(before.wait()), Response::Count(5));
    }

    /// A waiter that finds a drain in progress parks, and that drain's
    /// re-check of the queue serves it: thread A is held inside its drain
    /// while B begins a batch and waits. B's replies are served on A's
    /// thread, never on B's, and none of them is `Unavailable`.
    #[test]
    fn a_waiter_behind_a_running_drain_is_served_by_its_re_check() {
        for _ in 0..20 {
            let (release, gate) = gated();
            let reactor = EventLoop::new();
            let held = reactor.serve(gate);
            let seen = Arc::new(OnThread::default());
            let to_seen = reactor.serve(seen.clone()).connect();
            let to_held = held.connect();
            let a = std::thread::spawn(move || decode(to_held.begin(count()).wait()));
            while !held.queue.serving() {
                std::thread::yield_now();
            }
            // A has taken its batch and is held in it: B's batch queues
            // behind it.
            let mut begun = Vec::new();
            to_seen.begin_many(&mut (0..2).map(|_| count()), &mut |p| begun.push(p));
            let (first, second) = (begun.remove(0), begun.remove(0));
            let b = std::thread::spawn(move || first.wait());
            let Err(parked) = &second.reply else {
                unreachable!("a begun reply is owed")
            };
            while !parked.slot.parked() && !b.is_finished() {
                std::thread::yield_now();
            }
            let a_thread = a.thread().id();
            release.send(()).unwrap();
            assert_eq!(a.join().unwrap(), Response::Count(0));
            for reply in [b.join().unwrap(), second.wait()] {
                assert_eq!(decode(reply), Response::Count(1), "B read its own reply");
            }
            assert_eq!(*seen.0.lock().unwrap(), [a_thread, a_thread], "A served B");
            assert_eq!(reactor.shutdown(), 3);
        }
    }

    /// Many clients on one loop, each waiting on batches of its own: every
    /// wait drains the queue or parks on a drain in progress, and every
    /// reply reaches its own waiter. Endpoint `t` holds `64` points, and
    /// client `t`'s `k`-th request of a batch counts those up to
    /// `x = depth·t + k`, so an answer names the request it answers.
    #[test]
    fn every_reply_reaches_its_own_waiter_whoever_drains() {
        let (threads, depth, rounds) = (4u32, 8u32, 400u32);
        let reactor = EventLoop::new();
        let clients: Vec<_> = (0..threads)
            .map(|t| {
                let conn = reactor.serve(Arc::new(ScanHandler(objects(64)))).connect();
                std::thread::spawn(move || {
                    let hi = |k| (depth * t + k) as f64;
                    for _ in 0..rounds {
                        let mut begun = Vec::new();
                        let requests = (0..depth).map(|k| Request::Count(w(hi(k))));
                        let mut frames = requests.map(|r| crate::codec::encode_request(&r));
                        conn.begin_many(&mut frames, &mut |p| begun.push(p));
                        for (k, pending) in (0..depth).zip(begun) {
                            let want = Response::Count(u64::from(depth * t + k + 1));
                            assert_eq!(decode(pending.wait()), want);
                        }
                    }
                })
            })
            .collect();
        clients.into_iter().for_each(|c| c.join().unwrap());
        assert_eq!(reactor.shutdown(), u64::from(threads * depth * rounds));
    }

    pub(crate) fn garbled_frames_answer_typed_and_serving_survives(on: Placement) {
        let (reactor, endpoint) = on.serve(Arc::new(ScanHandler(objects(5))));
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
        // Healthy traffic still flows on the same reactor.
        let healthy = link(endpoint.connect());
        assert_eq!(healthy.request(&Request::Count(w(100.0))).into_count(), 5);
        drop((conn, healthy, endpoint));
        assert_eq!(reactor.shutdown(), 1, "garbage is not a served query");
    }

    #[test]
    fn garbled_frame_answers_typed_error_and_reactor_survives() {
        garbled_frames_answer_typed_and_serving_survives(Placement::Shared);
    }

    pub(crate) fn abandoned_exchanges_are_served_and_tallied(on: Placement) {
        // The handler blocks until released, so the client can give up
        // on queued exchanges *before* they are served.
        let (release, handler) = gated();
        let (reactor, endpoint) = on.serve(handler);
        let conn = endpoint.connect();
        let mut begun = Vec::new();
        conn.begin_many(
            &mut (0..3).map(|_| crate::codec::encode_request(&Request::Count(w(2.0)))),
            &mut |p| begun.push(p),
        );
        // The client abandons the two exchanges queued behind the first,
        // then the handler is released to serve all three.
        begun.truncate(1);
        (0..3).for_each(|_| release.send(()).unwrap());
        assert_eq!(decode(begun.pop().unwrap().wait()), Response::Count(0));
        let stats = Arc::clone(endpoint.stats());
        drop((conn, endpoint));
        assert_eq!(
            reactor.shutdown(),
            3,
            "the abandoned frames were still served"
        );
        assert_eq!(stats.abandoned(), 2);
        assert_eq!(stats.served(), 3);
        assert_eq!(stats.max_queue_depth(), 3, "every batch member counts");
        assert_eq!(stats.pending.load(Ordering::Acquire), 0);
        assert_eq!(stats.waiting.load(Ordering::Acquire), 0);
    }

    #[test]
    fn undeliverable_replies_count_as_abandoned() {
        abandoned_exchanges_are_served_and_tallied(Placement::Shared);
    }

    #[test]
    fn queue_depth_counts_requests_and_connections_apart() {
        let count = || crate::codec::encode_request(&Request::Count(w(2.0)));
        // One device pipelining a 32-probe window is deep, not contended.
        let (release, handler) = gated();
        let (_reactor, endpoint) = Placement::Shared.serve(handler);
        let conn = endpoint.connect();
        let mut begun = Vec::new();
        conn.begin_many(&mut (0..32).map(|_| count()), &mut |p| begun.push(p));
        (0..32).for_each(|_| release.send(()).unwrap());
        begun.into_iter().for_each(|p| drop(p.wait()));
        assert_eq!(endpoint.stats().max_queue_depth(), 32);
        assert_eq!(endpoint.stats().max_connections_waiting(), 1);

        // Four devices with one request each are as contended as deep.
        let (release, handler) = gated();
        let (_reactor, endpoint) = Placement::Shared.serve(handler);
        let conns: Vec<EventConnection> = (0..4).map(|_| endpoint.connect()).collect();
        let begun: Vec<Pending> = conns.iter().map(|c| c.begin(count())).collect();
        (0..4).for_each(|_| release.send(()).unwrap());
        begun.into_iter().for_each(|p| drop(p.wait()));
        let stats = endpoint.stats();
        assert_eq!(stats.max_queue_depth(), 4, "the gate held all four queued");
        assert_eq!(stats.max_connections_waiting(), stats.max_queue_depth());
        assert_eq!(stats.waiting.load(Ordering::Acquire), 0);
    }

    /// `shutdown` while a drain is held inside a batch: what was queued
    /// before it closed the loop is answered, by that drain; what is
    /// begun after is refused at once; and `shutdown` returns only once
    /// the drain is done, counting it.
    pub(crate) fn shutdown_inside_a_drained_batch(on: Placement) {
        let (release, handler) = gated();
        let (reactor, endpoint) = on.serve(handler);
        let conn = endpoint.connect();
        let first = conn.begin(count());
        let held = std::thread::spawn(move || first.wait());
        while !endpoint.queue.serving() {
            std::thread::yield_now();
        }
        let before = conn.begin(count());
        let closing = std::thread::spawn(move || reactor.shutdown());
        while !endpoint.queue.closed() {
            std::thread::yield_now();
        }
        assert!(crate::codec::is_unavailable(&conn.begin(count()).wait()));
        assert!(!closing.is_finished(), "a drain is still running");
        (0..2).for_each(|_| release.send(()).unwrap());
        assert_eq!(decode(held.join().unwrap()), Response::Count(0));
        assert_eq!(decode(before.wait()), Response::Count(0));
        assert_eq!(closing.join().unwrap(), 2);
    }

    #[test]
    fn shutdown_inside_a_drained_batch_answers_before_it_and_fails_after_it() {
        shutdown_inside_a_drained_batch(Placement::Shared);
    }

    pub(crate) fn dropping_the_reactor_first_does_not_hang(on: Placement) {
        let (reactor, endpoint) = on.serve(Arc::new(ScanHandler(objects(5))));
        let opened_before = endpoint.connect();
        // The endpoint and a connection are still alive.
        drop(reactor);
        for conn in [opened_before, endpoint.connect()] {
            let link = link(conn);
            assert_eq!(link.request(&Request::Count(w(1.0))), Response::Unavailable);
            // Nothing crossed the wire, so nothing was metered.
            assert_eq!(link.meter().snapshot().total_bytes(), 0);
        }
    }

    #[test]
    fn dropping_the_loop_with_live_connections_does_not_hang() {
        dropping_the_reactor_first_does_not_hang(Placement::Shared);
    }
}
