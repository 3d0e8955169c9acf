//! The serving carrier: a reactor thread draining one mailbox.
//!
//! Every server that is not called in-process is served here. The
//! paper's cost model sees bytes, not threads, so there is one serving
//! loop and the only choice left is *placement*:
//!
//! * an [`EventLoop`] owns the reactor — a plain poll loop that takes its
//!   whole ready-queue per wake-up (there is no tokio here, and none is
//!   needed: requests are already discrete ready-to-run events);
//! * each [`EventEndpoint`] is one logical server (a [`QueryHandler`])
//!   registered on a loop. A deployment registers every server it
//!   serves — both sides, every shard replica — on one loop, so the
//!   thread count stays constant however many shards there are and
//!   however many devices connect;
//! * each [`EventConnection`] is one device's socket to one endpoint.
//!
//! # Wake-up
//!
//! A begun batch is queued quietly; the client that first waits on a
//! reply still missing wakes the reactor (see `mailbox`). So everything
//! a shard router begins before its first wait — a batch per (shard,
//! replica) edge — is drained in one activation of the reactor: one
//! pair of context switches per round trip, however wide the scatter.
//!
//! # Connection state
//!
//! A connection carries no protocol state: a server decodes each request
//! in the version its own marker asks for, so two connections to one
//! endpoint need agree on nothing, and a connection's first frame is a
//! query like any other. What a connection keeps is its share of the
//! endpoint's queue gauges; the one encode buffer every reply is built
//! in is the reactor's own. So thousands of connections coexist without
//! per-connection locks.
//!
//! # Robustness contract
//!
//! A reactor thread is shared by every device connected to it, so it
//! must never die on bad input: an undecodable frame answers the typed
//! [`Response::Malformed`](crate::Response::Malformed) error frame and
//! serving continues. Dropping the [`EventLoop`] enqueues a shutdown
//! sentinel behind in-flight requests (FIFO — they all still complete);
//! connections that outlive the loop degrade to
//! [`Response::Unavailable`](crate::Response::Unavailable) instead of
//! panicking.
//!
//! Per-endpoint [`EndpointStats`] gauge the requests outstanding (every
//! member of a pipelined batch counts) and the connections with at least
//! one outstanding, each with a high-water mark, beside the serving and
//! malformed-frame counts.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::{Bytes, BytesMut};

use crate::few::Few;
use crate::mailbox::{mailbox, slots, End, SlotEnd};
use crate::proto::QueryHandler;
use crate::transport::{Pending, RawExchange};

/// One connection, as the reactor sees it: its queue gauge and the
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
    /// a reactor that is gone).
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

/// One unit of work on the ready-queue.
enum Event {
    Rpc {
        request: Bytes,
        reply: SlotEnd<Bytes>,
        /// The connection it came in on, which names the endpoint's
        /// handler too — so the reactor needs no endpoint registry at
        /// all, and registration is just handing out the mailbox.
        conn: Arc<Conn>,
    },
    Shutdown,
}

/// The reactor: one thread multiplexing every endpoint and connection
/// registered on it. Dropping it shuts the thread down without
/// deadlocking on live connections (a FIFO shutdown sentinel).
pub struct EventLoop {
    /// The loop's own end of the ready-queue and its thread, until
    /// [`shutdown`](Self::shutdown), [`join`](Self::join) or drop stops it.
    running: Option<(Arc<End<Event>>, std::thread::JoinHandle<u64>)>,
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
            running: Some((Arc::new(queue), thread)),
        }
    }

    /// The poll loop: takes the whole ready-queue per wake-up and serves
    /// it in order; the replies go out together afterwards, so a client
    /// parked on them is woken once per drained batch. It serves by the
    /// one discipline [`crate::transport::InProcExchange`] shares: one
    /// reusable encode buffer serves every endpoint — reactor-owned (see
    /// the module's "Connection state") — so steady-state serving
    /// grows no buffer, and each reply ships as one exact-size copy of it,
    /// the only per-request allocation.
    fn run(ready: End<Event>) -> u64 {
        let mut served = 0u64;
        let mut buf = BytesMut::with_capacity(4096);
        let (mut batch, mut replies) = (VecDeque::new(), Vec::new());
        let mut running = true;
        while running && ready.take_all(&mut batch) {
            for event in batch.drain(..) {
                let Event::Rpc {
                    request,
                    reply,
                    conn,
                } = event
                else {
                    running = false;
                    break;
                };
                let stats = &conn.stats;
                buf.clear();
                if crate::transport::serve_frame_into(conn.handler.as_ref(), request, &mut buf) {
                    served += 1;
                    stats.served.fetch_add(1, Ordering::AcqRel);
                } else {
                    // The reactor serves every device: an undecodable
                    // frame gets the typed error (already encoded into
                    // `buf`) and the loop keeps running.
                    stats.malformed.fetch_add(1, Ordering::AcqRel);
                }
                conn.dequeued(1);
                // The shim's `Bytes` is `Arc<[u8]>`-backed, so one copy
                // (one allocation) into the reply stands in for the real
                // crate's zero-copy, allocation-recycling
                // `buf.split().freeze()`.
                replies.push((reply, Bytes::copy_from_slice(&buf), conn));
            }
            for (reply, answer, conn) in replies.drain(..) {
                // A refused reply just means the client gave up.
                if !reply.fill(answer) {
                    conn.stats.abandoned.fetch_add(1, Ordering::AcqRel);
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
        let (queue, _) = self.running.as_ref().expect("running until consumed");
        EventEndpoint {
            queue: Arc::clone(queue),
            handler,
            stats: Arc::new(EndpointStats::default()),
        }
    }

    /// Releases the loop's own end of the ready-queue — behind a shutdown
    /// sentinel if `now` — and waits for the reactor thread: what it
    /// served, unless it panicked (or was stopped before).
    fn stop(&mut self, now: bool) -> Option<u64> {
        let (queue, thread) = self.running.take()?;
        if now {
            queue.push_all([Event::Shutdown]);
            queue.kick();
        }
        drop(queue);
        thread.join().ok()
    }

    /// Stops the reactor (after draining everything already enqueued)
    /// and returns the number of query frames it served.
    pub fn shutdown(mut self) -> u64 {
        self.stop(true).expect("reactor thread panicked")
    }

    /// Waits until every endpoint and connection handed out by this loop
    /// is dropped and everything they enqueued is served, then returns
    /// the number of query frames served (malformed frames excluded).
    pub fn join(mut self) -> u64 {
        self.stop(false).expect("reactor thread panicked")
    }
}

impl Drop for EventLoop {
    fn drop(&mut self) {
        // FIFO sentinel: everything enqueued before the drop is still
        // served; live connections afterwards degrade to `Unavailable`
        // instead of deadlocking this join.
        self.stop(true);
    }
}

/// One logical server registered on an [`EventLoop`]. Endpoints and
/// their connections keep a joined loop serving (see
/// [`EventLoop::join`]).
pub struct EventEndpoint {
    queue: Arc<End<Event>>,
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
    queue: Arc<End<Event>>,
    conn: Arc<Conn>,
}

impl RawExchange for EventConnection {
    fn exchange(&self, request: Bytes) -> Bytes {
        self.begin(request).wait()
    }

    /// The whole batch is enqueued under one lock, waking nobody: the
    /// first [`Pending::wait`] that finds its reply missing wakes the
    /// reactor. If the reactor is gone the batch is dropped unsent, and
    /// every pending then yields the unavailable frame.
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
        // The slots the reactor answers into; one refuses its reply once
        // the client has dropped the pending that waits on it.
        let paired = requests
            .into_iter()
            .zip(slots(n as usize, self.queue.waker()));
        let events = paired.map(|(request, (reply, waiter))| {
            begun(Pending {
                reply: Err(waiter),
                garble: None,
            });
            let conn = Arc::clone(&self.conn);
            Event::Rpc {
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
            let reactor = EventLoop::spawn("under-test");
            let bystander = match self {
                Placement::Private => None,
                Placement::Shared => Some(reactor.serve(Arc::new(ScanHandler(objects(1))))),
            };
            let endpoint = reactor.serve(handler);
            (Reactor(reactor, bystander), endpoint)
        }
    }

    impl Reactor {
        fn join(self) -> u64 {
            drop(self.1);
            self.0.join()
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
        assert_eq!(reactor.join(), 6);
    }

    #[test]
    fn event_loop_serves_byte_identically_to_in_process() {
        serves_byte_identically_to_in_process(Placement::Shared);
    }

    #[test]
    fn many_endpoints_share_one_reactor_thread() {
        let reactor = EventLoop::spawn("multi");
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

    /// Returns once the reactor `conn` leads to is parked on its queue.
    fn until_parked(conn: &EventConnection) {
        while !conn.queue.parked() {
            std::thread::yield_now();
        }
    }

    /// Quiet pushes, woken by the waiter: batches begun on two endpoints
    /// of a parked reactor leave it parked, and the first wait wakes it
    /// to both — A's reply goes out after B was served.
    #[test]
    fn batches_begun_on_two_endpoints_before_the_first_wait_are_served_in_one_drain() {
        let reactor = EventLoop::spawn("one-drain");
        let a = reactor.serve(Arc::new(ScanHandler(objects(3))));
        let b = reactor.serve(Arc::new(ScanHandler(objects(4))));
        let (to_a, to_b) = (a.connect(), b.connect());
        let count = || crate::codec::encode_request(&Request::Count(w(100.0)));
        for round in 1..=100 {
            until_parked(&to_a);
            let (pa, pb) = (to_a.begin(count()), to_b.begin(count()));
            assert!(to_a.queue.parked(), "a begun batch wakes nobody");
            let reply = crate::codec::decode_response(pa.wait()).unwrap();
            assert_eq!(b.stats().served(), round, "B was drained with A");
            assert_eq!(reply, Response::Count(3));
            assert_eq!(
                crate::codec::decode_response(pb.wait()).unwrap(),
                Response::Count(4)
            );
        }
        drop((to_a, to_b, a, b));
        assert_eq!(reactor.join(), 200);
    }

    /// Nobody waits, so nobody wakes the parked reactor but its own exit:
    /// the closing mailbox for `join`, the sentinel for `shutdown`.
    #[test]
    fn a_batch_never_waited_on_is_served_by_join_and_unavailable_after_shutdown() {
        let count = || crate::codec::encode_request(&Request::Count(w(100.0)));
        let reactor = EventLoop::spawn("unwaited");
        let endpoint = reactor.serve(Arc::new(ScanHandler(objects(5))));
        let conn = endpoint.connect();
        until_parked(&conn);
        let mut begun = Vec::new();
        conn.begin_many(&mut (0..3).map(|_| count()), &mut |p| begun.push(p));
        let stats = Arc::clone(endpoint.stats());
        drop((conn, endpoint));
        // The held pendings do not keep the joined loop serving.
        assert_eq!(reactor.join(), 3);
        assert_eq!(stats.served(), 3);
        for pending in begun {
            let reply = crate::codec::decode_response(pending.wait()).unwrap();
            assert_eq!(reply, Response::Count(5));
        }

        let reactor = EventLoop::spawn("unwaited");
        let endpoint = reactor.serve(Arc::new(ScanHandler(objects(5))));
        let conn = endpoint.connect();
        until_parked(&conn);
        let before = conn.begin(count());
        assert_eq!(reactor.shutdown(), 1, "served ahead of the sentinel");
        let after = conn.begin(count());
        assert!(crate::codec::is_unavailable(&after.wait()));
        let reply = crate::codec::decode_response(before.wait()).unwrap();
        assert_eq!(reply, Response::Count(5));
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
            assert_eq!(
                crate::codec::decode_response(reply).unwrap(),
                Response::Malformed
            );
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
        assert_eq!(reactor.join(), 1, "garbage is not a served query");
    }

    #[test]
    fn garbled_frame_answers_typed_error_and_reactor_survives() {
        garbled_frames_answer_typed_and_serving_survives(Placement::Shared);
    }

    pub(crate) fn abandoned_exchanges_are_served_and_tallied(on: Placement) {
        // The handler blocks until released, so the client can give up
        // on queued exchanges *before* the reactor serves them.
        let (release, handler) = gated();
        let (reactor, endpoint) = on.serve(handler);
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
        let stats = Arc::clone(endpoint.stats());
        drop((conn, endpoint));
        assert_eq!(reactor.join(), 3, "the abandoned frames were still served");
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

    pub(crate) fn shutdown_inside_a_drained_batch(on: Placement) {
        let (reactor, endpoint) = on.serve(Arc::new(ScanHandler(objects(5))));
        let conn = endpoint.connect();
        let count = || crate::codec::encode_request(&Request::Count(w(100.0)));
        // One push, so the reactor drains all five events together.
        let (mut events, pendings): (Vec<Event>, Vec<Pending>) = (0..4)
            .map(|_| {
                let (reply, waiter) = slots(1, conn.queue.waker()).next().unwrap();
                let pending = Pending {
                    reply: Err(waiter),
                    garble: None,
                };
                let event = Event::Rpc {
                    request: count(),
                    reply,
                    conn: Arc::clone(&conn.conn),
                };
                (event, pending)
            })
            .unzip();
        conn.conn.enqueued(4);
        events.insert(2, Event::Shutdown);
        assert!(conn.queue.push_all(events));
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
        // The reactor is gone: later exchanges degrade too, and dropping
        // the loop does not hang on it.
        assert!(crate::codec::is_unavailable(&conn.exchange(count())));
        drop(reactor);
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
