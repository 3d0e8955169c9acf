//! Deployment: the two servers (or shard fleets), the network, the
//! device's resources.
//!
//! Each logical side is either a single server or — via
//! [`DeploymentBuilder::with_shards`] — a *fleet* of spatially partitioned
//! shard servers behind a client-side scatter-gather
//! [`ShardRouter`](asj_net::ShardRouter). The fleet presents the exact
//! same [`Link`] interface, so every join algorithm runs unchanged; its
//! link meter reports the physical scatter traffic, with per-shard detail
//! available through [`Link::fleet`].

use std::sync::{Arc, OnceLock};

use asj_geom::{Rect, SpatialObject};
use asj_net::codec::WireVersion;
use asj_net::transport::InProcExchange;
use asj_net::{
    CacheLayer, ClientCache, FaultLayer, FaultPlan, Link, NetConfig, QueryHandler, RawExchange,
    Request, Response, ShardEndpoint, ShardMeta, ShardRouter, Update,
};
use asj_server::{
    partition_objects, RTreeStore, ServicePolicy, SpatialService, SpatialStore, VersionedStore,
};

use crate::Side;

/// The default device buffer: the paper's 800 points ("40 % of the total
/// data size for the synthetic datasets").
pub const DEFAULT_BUFFER: usize = 800;

/// How servers are carried: in the caller's process, or served by a
/// reactor thread (see `asj_net::event_loop`) that is either the
/// server's own or one shared by the whole deployment.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum CarrierKind {
    InProc,
    Threaded,
    EventLoop,
}

/// One server process: in the caller's process, or an endpoint on a
/// reactor.
enum Endpoint {
    InProc(Arc<dyn QueryHandler>),
    Reactor {
        endpoint: asj_net::EventEndpoint,
        /// Keeps the thread serving: this server's own reactor, or the
        /// one the whole deployment shares.
        _reactor: Arc<asj_net::EventLoop>,
    },
}

impl Endpoint {
    fn spawn(
        service: Arc<dyn QueryHandler>,
        kind: CarrierKind,
        shared: Option<&Arc<asj_net::EventLoop>>,
        name: &str,
    ) -> Endpoint {
        let reactor = match kind {
            CarrierKind::InProc => return Endpoint::InProc(service),
            CarrierKind::Threaded => Arc::new(asj_net::EventLoop::spawn(name)),
            CarrierKind::EventLoop => {
                Arc::clone(shared.expect("event-loop deployments carry a reactor"))
            }
        };
        Endpoint::Reactor {
            endpoint: reactor.serve(service),
            _reactor: reactor,
        }
    }

    /// A fresh connection, opened at `wire` (the version an earlier one
    /// negotiated, or V1).
    fn raw(&self, wire: WireVersion) -> Box<dyn RawExchange> {
        match self {
            Endpoint::InProc(h) => Box::new(InProcExchange::new(Arc::clone(h))),
            Endpoint::Reactor { endpoint, .. } => Box::new(endpoint.connect_at(wire)),
        }
    }

    fn event_stats(&self) -> Option<Arc<asj_net::EndpointStats>> {
        match self {
            Endpoint::InProc(_) => None,
            Endpoint::Reactor { endpoint, .. } => Some(Arc::clone(endpoint.stats())),
        }
    }
}

/// One replica of a shard server: its endpoint plus — on a live
/// deployment — a handle on its versioned store, kept so the
/// crash-restart hook can resynchronize a replica that stayed dark from
/// the freshest sibling before it serves again.
struct Replica {
    endpoint: Arc<Endpoint>,
    live: Option<Arc<VersionedStore<RTreeStore>>>,
}

/// One logical side of the join: a single server, or a fleet of shard
/// servers — each optionally replicated — reached through a
/// scatter-gather [`ShardRouter`].
///
/// Endpoints are reference-counted so a [`FaultLayer`] restart hook can
/// reconnect to the *same* server after a scripted crash: the store (and
/// its published generation) survives; only the connection is lost.
enum Carrier {
    Single(Replica),
    Fleet(Vec<(Arc<ShardMeta>, Vec<Replica>)>),
}

/// Decorrelates the scripted fault stream per replica edge: replica 0
/// keeps the plan's seed, sibling `j` gets `seed ^ j·φ`. The derivation
/// is independent of the replica *count*, so growing a fleet from 1 to
/// n replicas never reshuffles the faults an existing edge sees — the
/// fault-matrix monotonicity claim (more replicas, never fewer
/// successes) rests on exactly this.
fn replica_plan(plan: &FaultPlan, replica: usize) -> FaultPlan {
    let mut p = *plan;
    p.seed ^= (replica as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    p
}

/// The physical carrier to replica `j` of one replica group (a single
/// server is a group of one). Under a fault plan it gets its own
/// decorrelated [`FaultLayer`]. The restart hook reconnects to the *same*
/// endpoint, so a crash-then-restart resumes serving the
/// `VersionedStore` at its last published generation — the recovery
/// contract the chaos suite checks. Before reconnecting it catches the
/// replica's store up from the freshest sibling: a replica that stayed
/// dark through an outage missed the update batches its siblings acked,
/// and resynchronizing here is what lets the router's generation floor
/// readmit it. An edge resuming at `known`, the version its first link
/// negotiated, sends no `HELLO`: its fault layer counts from past it.
fn replica_edge(
    group: &[Replica],
    j: usize,
    fault: Option<&FaultPlan>,
    known: Option<WireVersion>,
) -> Box<dyn RawExchange> {
    let wire = known.unwrap_or_default();
    match fault {
        None => group[j].endpoint.raw(wire),
        Some(plan) => {
            let ep = Arc::clone(&group[j].endpoint);
            let own = group[j].live.clone();
            let siblings: Vec<Arc<VersionedStore<RTreeStore>>> = group
                .iter()
                .enumerate()
                .filter(|&(k, _)| k != j)
                .filter_map(|(_, r)| r.live.clone())
                .collect();
            let restart = move || {
                if let Some(own) = &own {
                    if let Some(best) = siblings.iter().max_by_key(|s| s.generation()) {
                        // `catch_up` no-ops unless the donor is ahead, so
                        // a replica that never lagged restarts untouched.
                        own.catch_up((*best.current_objects()).clone(), best.generation());
                    }
                }
                ep.raw(wire)
            };
            let layer = FaultLayer::new(group[j].endpoint.raw(wire), replica_plan(plan, j))
                .with_restart(Box::new(restart));
            Box::new(layer.starting_at(u64::from(known.is_some())))
        }
    }
}

impl Carrier {
    /// Opens a fresh link — the stack of the `asj_net` crate docs, bottom
    /// up: physical edges, a [`ShardRouter`] over them for a fleet, a
    /// [`CacheLayer`] (fresh per-link telemetry, the given shared store)
    /// when `cache` is set, the [`Link`]. Retry and — with `net.wire_v2`
    /// on — the v2 handshake are handed down from the top to whichever
    /// layer owns the edges; a link given the per-edge versions an earlier
    /// one settled on (`known`) resumes at them instead. With the flag off
    /// (the default) no handshake frame is ever sent and every edge
    /// speaks v1 byte-identically.
    ///
    /// Fleet links all share the carrier's [`ShardMeta`]s, so generation
    /// stamps and bounds growth observed through any link (including the
    /// update path) are visible to every other link's router.
    fn link(
        &self,
        net: &NetConfig,
        tariff: f64,
        cache: Option<&Arc<ClientCache>>,
        fault: Option<&FaultPlan>,
        known: Option<&[WireVersion]>,
    ) -> Link {
        let mut wires = known.map(|known| known.iter().copied());
        let mut edge =
            |group, j| replica_edge(group, j, fault, wires.as_mut().and_then(Iterator::next));
        let link = match self {
            Carrier::Single(replica) => {
                let edge = edge(std::slice::from_ref(replica), 0);
                match cache {
                    Some(c) => {
                        Link::cached(CacheLayer::new(edge, net.packet, Arc::clone(c)), tariff)
                    }
                    None => Link::new(edge, net.packet, tariff),
                }
            }
            Carrier::Fleet(members) => {
                let shards = members
                    .iter()
                    .map(|(meta, group)| {
                        let edges = (0..group.len()).map(|j| edge(group, j)).collect();
                        ShardEndpoint::with_replicas(Arc::clone(meta), edges)
                    })
                    .collect();
                let router = ShardRouter::new(shards, net.packet)
                    .with_breakers(net.breaker)
                    .with_allow_partial(net.allow_partial);
                match cache {
                    Some(c) => Link::cached(CacheLayer::over_router(router, Arc::clone(c)), tariff),
                    None => Link::routed(router, tariff),
                }
            }
        }
        .with_retry(net.retry);
        match known {
            Some(known) => link.resume(known),
            None if net.wire_v2 => link.negotiate(),
            None => link,
        }
    }

    /// Shard servers behind this side (1 for a single server).
    fn shard_count(&self) -> usize {
        match self {
            Carrier::Single(_) => 1,
            Carrier::Fleet(members) => members.len(),
        }
    }

    /// Replicas per shard (1 for a single server or a replica-less
    /// fleet). Every shard of a fleet carries the same replica count.
    fn replica_count(&self) -> usize {
        match self {
            Carrier::Single(_) => 1,
            Carrier::Fleet(members) => members.first().map_or(1, |(_, g)| g.len()),
        }
    }

    /// Reactor endpoint stats for every replica of every shard,
    /// shard-major order; empty when this side is served in-process.
    fn event_stats(&self) -> Vec<Arc<asj_net::EndpointStats>> {
        match self {
            Carrier::Single(replica) => replica.endpoint.event_stats().into_iter().collect(),
            Carrier::Fleet(members) => members
                .iter()
                .flat_map(|(_, group)| group.iter().filter_map(|r| r.endpoint.event_stats()))
                .collect(),
        }
    }
}

/// A ready-to-join deployment: server R, server S, the network
/// configuration, the device's buffer size and the global data space.
///
/// Construct via [`Deployment::in_process`] / [`Deployment::threaded`] or
/// the full [`DeploymentBuilder`]. Each [`DistributedJoin::run`] call opens
/// fresh metered links, so reports never bleed into each other.
///
/// [`DistributedJoin::run`]: crate::DistributedJoin::run
pub struct Deployment {
    r: Carrier,
    s: Carrier,
    net: NetConfig,
    buffer_capacity: usize,
    space: Rect,
    cooperative: bool,
    live: bool,
    /// The machine's available parallelism, read once at build (it reads
    /// cgroup quota files, too slow to repeat on every join): the worker
    /// count of the device's ε-grid kernel ([`ExecCtx`](crate::exec::ExecCtx)).
    pub(crate) workers: usize,
    /// Per-side client-cache stores when `net.client_cache` is enabled:
    /// shared by every link to a side (a *session*, see
    /// [`Deployment::connect`]), never between the sides — they front
    /// different datasets.
    cache_r: Option<Arc<ClientCache>>,
    cache_s: Option<Arc<ClientCache>>,
    /// Scripted fault plan wrapped around every physical edge (both
    /// sides, every shard) when set via [`DeploymentBuilder::with_faults`].
    /// Each link opened by [`Deployment::connect`] gets its own
    /// [`FaultLayer`] seeded from this plan, so fault sequences are
    /// deterministic per link and replayable by seed.
    fault: Option<FaultPlan>,
    /// The wire version each physical edge of each side (R, S) negotiated
    /// on the first link to it: a property of the edge — its endpoint, its
    /// fault seed — not of the session, so later links resume at these.
    wires: [OnceLock<Vec<WireVersion>>; 2],
    /// The shared reactor thread when the deployment was built with
    /// [`DeploymentBuilder::event_loop`]: every endpoint of both sides is
    /// served by this one thread. `None` in-process and when every server
    /// has a reactor of its own.
    reactor: Option<Arc<asj_net::EventLoop>>,
}

impl Deployment {
    /// In-process deployment (fast; used by the experiment sweeps) with
    /// non-cooperative R-tree servers and default network/buffer.
    pub fn in_process(r: Vec<SpatialObject>, s: Vec<SpatialObject>, net: NetConfig) -> Self {
        DeploymentBuilder::new(r, s).with_net(net).build()
    }

    /// Deployment with each server on a reactor thread of its own — the
    /// distributed topology of the paper's prototype.
    pub fn threaded(r: Vec<SpatialObject>, s: Vec<SpatialObject>, net: NetConfig) -> Self {
        DeploymentBuilder::new(r, s)
            .with_net(net)
            .threaded()
            .build()
    }

    /// Fresh links `(R, S)` for one algorithm run. **Per link:** the
    /// meters and cache telemetry (reports never bleed into each other),
    /// the connections, and each edge's fault script, which restarts from
    /// its seed. **Per deployment:** the client-cache stores, when
    /// enabled — consecutive joins (a session) reuse each other's
    /// statistics and windows — and the wire version each physical edge
    /// negotiated: the first link to a side runs the `HELLO` handshake,
    /// every later one opens its edges at what that settled on and sends
    /// none.
    pub fn connect(&self) -> (Link, Link) {
        (self.open(Side::R), self.open(Side::S))
    }

    /// One fresh link to `side`.
    fn open(&self, side: Side) -> Link {
        let (carrier, tariff, cache, wires) = match side {
            Side::R => (&self.r, self.net.tariff_r, &self.cache_r, &self.wires[0]),
            Side::S => (&self.s, self.net.tariff_s, &self.cache_s, &self.wires[1]),
        };
        let (net, fault, known) = (&self.net, self.fault.as_ref(), wires.get());
        let link = carrier.link(net, tariff, cache.as_ref(), fault, known.map(Vec::as_slice));
        if self.net.wire_v2 {
            // Racing first links all negotiate the same outcome: it is a
            // function of each edge's endpoint and fault seed alone.
            wires.get_or_init(|| link.edge_wires().to_vec());
        }
        link
    }

    /// The per-side client-cache stores `(R, S)`; `None` per side when
    /// the cache is disabled. Exposed for session inspection and for the
    /// differential suites' poisoning instrument.
    pub fn caches(&self) -> (Option<&Arc<ClientCache>>, Option<&Arc<ClientCache>>) {
        (self.cache_r.as_ref(), self.cache_s.as_ref())
    }

    /// The global data space the join partitions.
    pub fn space(&self) -> Rect {
        self.space
    }

    /// Device buffer capacity in objects.
    pub fn buffer_capacity(&self) -> usize {
        self.buffer_capacity
    }

    /// Network configuration.
    pub fn net(&self) -> &NetConfig {
        &self.net
    }

    /// `true` when the servers were built with the cooperative extension
    /// (required by the SemiJoin baseline).
    pub fn is_cooperative(&self) -> bool {
        self.cooperative
    }

    /// `true` when the servers were built live
    /// ([`DeploymentBuilder::live`]) and accept [`Request::ApplyUpdates`].
    pub fn is_live(&self) -> bool {
        self.live
    }

    /// Applies one batched update tick to the given side and returns the
    /// acknowledged serving generation (for a fleet: the sum of per-shard
    /// generations, the same number subsequent response frames are
    /// stamped with).
    ///
    /// The batch travels over a regular metered wire link — updates are
    /// traffic like any other message. When the client cache is enabled
    /// the link is cached, so the shared session store hears the
    /// acknowledged generation; nothing else is sent on its account here.
    /// The next join to consult that store asks the server once what
    /// changed ([`Request::Changes`], metered on that join's link) and
    /// keeps every entry, patched — or, where no change list is to be had
    /// (a fleet, a server whose log no longer reaches back) or the list
    /// would cost more than what the store holds, starts from an empty
    /// store. An update applied by somebody else is learnt of
    /// only from the stamp of the next reply that crosses the link.
    ///
    /// # Panics
    ///
    /// Panics when the deployment is frozen (built without
    /// [`DeploymentBuilder::live`]) — frozen stores refuse updates.
    pub fn apply_updates(&self, side: Side, batch: Vec<Update>) -> u64 {
        match self.try_apply_updates(side, batch) {
            Response::Ack { generation } => generation,
            Response::Refused => panic!("apply_updates on a frozen deployment"),
            other => panic!("unexpected update acknowledgement: {other:?}"),
        }
    }

    /// Like [`Deployment::apply_updates`] but surfaces the typed response
    /// instead of panicking — on a faulted deployment an update tick can
    /// legitimately exhaust its retry budget and come back
    /// [`Response::Unavailable`]. The chaos suites' writer threads use
    /// this to keep streaming through injected outages.
    pub fn try_apply_updates(&self, side: Side, batch: Vec<Update>) -> Response {
        self.open(side).request(&Request::ApplyUpdates(batch))
    }

    /// Shard servers behind each side: `(R, S)`. `(1, 1)` for flat
    /// deployments *and* for explicit 1-shard fleets — the cost model's
    /// fan-out factor is the same in both cases, as is the wire traffic
    /// (a 1-shard router is byte-transparent).
    pub fn shard_counts(&self) -> (usize, usize) {
        (self.r.shard_count(), self.s.shard_count())
    }

    /// Replica servers behind each shard (both sides use the same
    /// count). `1` for flat deployments and unreplicated fleets — where
    /// the wire traffic is byte-identical to a deployment that never
    /// heard of replication.
    pub fn replica_count(&self) -> usize {
        self.r.replica_count().max(self.s.replica_count())
    }

    /// `true` when every server is multiplexed onto one shared reactor
    /// thread (built via [`DeploymentBuilder::event_loop`]); `false`
    /// in-process and when each server has its own
    /// ([`DeploymentBuilder::threaded`]).
    pub fn is_event_loop(&self) -> bool {
        self.reactor.is_some()
    }

    /// Reactor endpoint stats (queue-depth high-water marks,
    /// served/malformed counters) for one side: one entry per server
    /// replica, shard-major. Empty on an in-process deployment.
    pub fn event_stats(&self, side: Side) -> Vec<Arc<asj_net::EndpointStats>> {
        match side {
            Side::R => self.r.event_stats(),
            Side::S => self.s.event_stats(),
        }
    }
}

/// Builder for [`Deployment`].
pub struct DeploymentBuilder {
    r_objects: Vec<SpatialObject>,
    s_objects: Vec<SpatialObject>,
    net: NetConfig,
    buffer_capacity: usize,
    space: Option<Rect>,
    cooperative: bool,
    carrier: CarrierKind,
    live: bool,
    shards: Option<(usize, usize)>,
    replicas: usize,
    fault: Option<FaultPlan>,
}

impl DeploymentBuilder {
    pub fn new(r_objects: Vec<SpatialObject>, s_objects: Vec<SpatialObject>) -> Self {
        DeploymentBuilder {
            r_objects,
            s_objects,
            net: NetConfig::default(),
            buffer_capacity: DEFAULT_BUFFER,
            space: None,
            cooperative: false,
            carrier: CarrierKind::InProc,
            live: false,
            shards: None,
            replicas: 1,
            fault: None,
        }
    }

    /// Network parameters (MTU, headers, tariffs).
    pub fn with_net(mut self, net: NetConfig) -> Self {
        self.net = net;
        self
    }

    /// Device buffer in objects (the paper sweeps 100 and 800).
    pub fn with_buffer(mut self, capacity: usize) -> Self {
        self.buffer_capacity = capacity;
        self
    }

    /// Explicit global space (defaults to the union of both datasets'
    /// bounds).
    pub fn with_space(mut self, space: Rect) -> Self {
        self.space = Some(space);
        self
    }

    /// Enables the cooperative server extension (SemiJoin baseline only).
    pub fn cooperative(mut self) -> Self {
        self.cooperative = true;
        self
    }

    /// Serves every server (each side, every shard replica) from a
    /// reactor thread **of its own** — the paper's independent servers.
    /// The serving loop is the one [`DeploymentBuilder::event_loop`]
    /// uses; only thread placement differs: one per replica here, one in
    /// all there. Replies are byte-identical either way.
    pub fn threaded(mut self) -> Self {
        self.carrier = CarrierKind::Threaded;
        self
    }

    /// Serves every server (both sides, every shard replica) from
    /// **one** shared reactor thread — the many-device placement. Unlike
    /// [`threaded`], the thread count stays constant no matter how many
    /// shards the fleet has or how many devices [`Deployment::connect`];
    /// each connection carries its own negotiation state inside the
    /// reactor (see `asj_net::event_loop`). Replies are byte-identical
    /// to the other placement and to in-process serving.
    ///
    /// [`threaded`]: DeploymentBuilder::threaded
    pub fn event_loop(mut self) -> Self {
        self.carrier = CarrierKind::EventLoop;
        self
    }

    /// Builds *live* servers: each store is wrapped in a
    /// [`VersionedStore`] that applies [`Request::ApplyUpdates`] batches
    /// copy-on-write — path-copied into the served R-tree, which is
    /// re-packed once enough of it has changed — and atomically publishes
    /// the result as the next generation. Queries served from a
    /// generation > 0 carry the generation stamp on the wire; until the
    /// first update tick a live deployment is byte-identical to a frozen
    /// one. A join racing a writer still reports each pair once: the
    /// [`exec`](crate::exec) module docs say when that takes a duplicate
    /// pass over the pairs and when the stamps prove it needs none.
    pub fn live(mut self) -> Self {
        self.live = true;
        self
    }

    /// Enables (or disables) the client-side statistics/window cache in
    /// front of both servers/fleets — shorthand for setting
    /// [`NetConfig::client_cache`] on the network configuration. The
    /// cache store lives on the built [`Deployment`], so joins run
    /// back-to-back against it form a session that reuses downloads.
    pub fn with_client_cache(mut self, on: bool) -> Self {
        self.net = self.net.with_client_cache(on);
        self
    }

    /// Wraps every physical edge of the deployment (both sides, every
    /// shard) in a deterministic [`FaultLayer`] scripted by `plan` —
    /// drops, garbled replies, crash-then-restart. Pair with
    /// [`NetConfig::with_retry`] to give links a recovery budget; the
    /// chaos suites prove the faulted deployment still answers exactly
    /// like a clean one whenever the budget suffices. A
    /// [`FaultPlan::is_noop`] plan leaves traffic byte-identical.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Shards each side across a fleet of `n_r` / `n_s` spatially
    /// partitioned servers behind a client-side scatter-gather router
    /// (see `asj_server::partition` and `asj_net::router`). `n = 1` is a
    /// legitimate fleet: the router is byte-transparent, which the
    /// differential tests exploit. Combine with [`threaded`] to give every
    /// shard its own server thread — the router then scatters to them
    /// concurrently.
    ///
    /// [`threaded`]: DeploymentBuilder::threaded
    pub fn with_shards(mut self, n_r: usize, n_s: usize) -> Self {
        assert!(n_r >= 1 && n_s >= 1, "each side needs at least one shard");
        self.shards = Some((n_r, n_s));
        self
    }

    /// Replicates every shard server `n`-fold. Each replica is a full
    /// server over the shard's data; the router spreads reads across the
    /// replica set by request hash, fails a lost exchange over to the
    /// next sibling before any retry budget is spent, and broadcasts
    /// update batches to every replica (one surviving ack carries the
    /// batch; a replica that stayed dark catches up at its restart
    /// hook). Under [`with_faults`] every replica edge gets its own
    /// decorrelated fault stream. `n = 1` (the default) is byte-identical
    /// to an unreplicated deployment; `n > 1` without [`with_shards`]
    /// implies a 1-shard fleet per side.
    ///
    /// ```
    /// use asj_core::DeploymentBuilder;
    /// use asj_geom::SpatialObject;
    /// let pts = |b: u32| (0..16).map(|i| SpatialObject::point(b + i, i as f64, 0.0)).collect();
    /// let deploy = DeploymentBuilder::new(pts(0), pts(100))
    ///     .with_shards(2, 2)
    ///     .with_replicas(2)
    ///     .live()
    ///     .build();
    /// assert_eq!(deploy.replica_count(), 2);
    /// ```
    ///
    /// [`with_faults`]: DeploymentBuilder::with_faults
    /// [`with_shards`]: DeploymentBuilder::with_shards
    pub fn with_replicas(mut self, n: usize) -> Self {
        assert!(n >= 1, "each shard needs at least one replica");
        self.replicas = n;
        self
    }

    pub fn build(self) -> Deployment {
        assert!(
            !(self.net.allow_partial && self.net.client_cache.enabled),
            "allow_partial cannot run with the client cache: a partial reply \
             must never be cached as the truth"
        );
        let policy = if self.cooperative {
            ServicePolicy::Cooperative
        } else {
            ServicePolicy::NonCooperative
        };
        let space = self.space.unwrap_or_else(|| {
            Rect::union_of(
                self.r_objects
                    .iter()
                    .chain(self.s_objects.iter())
                    .map(|o| o.mbr),
            )
            .unwrap_or_else(|| Rect::from_coords(0.0, 0.0, 1.0, 1.0))
        });
        // One reactor thread carries every endpoint of an event-loop
        // deployment (a threaded one spawns a reactor per endpoint). The
        // endpoints hold it, so links can never outlive it accidentally.
        let reactor = (self.carrier == CarrierKind::EventLoop)
            .then(|| Arc::new(asj_net::EventLoop::spawn("deploy")));
        // Frozen servers answer straight from an immutable R-tree; live
        // servers wrap the same store in a `VersionedStore` whose rebuild
        // closure re-packs the R-tree at the same fanout, so generation 0
        // answers identically either way.
        let spawn = |objects: Vec<SpatialObject>, name: &str| -> Replica {
            let (service, live): (Arc<dyn QueryHandler>, _) = if self.live {
                let store = VersionedStore::new(objects, RTreeStore::new);
                let service = Arc::new(SpatialService::new(store).with_policy(policy));
                // The store handle outlives the endpoint wiring so a
                // replica restart hook can catch up from a sibling.
                let live = Arc::clone(service.store());
                (service, Some(live))
            } else {
                let store = RTreeStore::new(objects);
                let service = SpatialService::new(store).with_policy(policy);
                (Arc::new(service), None)
            };
            let endpoint = Endpoint::spawn(service, self.carrier, reactor.as_ref(), name);
            Replica {
                endpoint: Arc::new(endpoint),
                live,
            }
        };
        // Replication without sharding still needs a router (it owns the
        // replica sets): an implicit 1-shard fleet per side.
        let shards = if self.replicas > 1 {
            self.shards.or(Some((1, 1)))
        } else {
            self.shards
        };
        let replicas = self.replicas;
        let make = |objects: Vec<SpatialObject>, shards: Option<usize>, name: &str| -> Carrier {
            match shards {
                None => Carrier::Single(spawn(objects, name)),
                Some(n) => {
                    let part = partition_objects(&space, n, objects);
                    // Advertised bounds come from the partitioner's
                    // property-tested helper (union of member MBRs), not
                    // from the store: router pruning soundness must not
                    // depend on how a backend reports its bounds. The
                    // partition cell rides along on the shard meta so the
                    // router can route updates to their owning shard.
                    let bounds = part.bounds();
                    Carrier::Fleet(
                        bounds
                            .into_iter()
                            .zip(part.members)
                            .zip(part.cells)
                            .enumerate()
                            .map(|(i, ((bounds, members), cell))| {
                                let group = (0..replicas)
                                    .map(|j| {
                                        let rname = if replicas > 1 {
                                            format!("{name}{i}.{j}")
                                        } else {
                                            format!("{name}{i}")
                                        };
                                        spawn(members.clone(), &rname)
                                    })
                                    .collect();
                                let meta = Arc::new(ShardMeta::with_cell(bounds, Some(cell)));
                                (meta, group)
                            })
                            .collect(),
                    )
                }
            }
        };
        let cache = |cfg: asj_net::CacheConfig| {
            cfg.enabled
                .then(|| Arc::new(ClientCache::new(cfg.window_budget_bytes)))
        };
        Deployment {
            r: make(self.r_objects, shards.map(|s| s.0), "R"),
            s: make(self.s_objects, shards.map(|s| s.1), "S"),
            buffer_capacity: self.buffer_capacity,
            space,
            cooperative: self.cooperative,
            live: self.live,
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cache_r: cache(self.net.client_cache),
            cache_s: cache(self.net.client_cache),
            fault: self.fault,
            net: self.net,
            wires: Default::default(),
            reactor,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asj_geom::Point;

    fn pts(n: u32, offset: f64) -> Vec<SpatialObject> {
        (0..n)
            .map(|i| SpatialObject::point(i, offset + i as f64, offset))
            .collect()
    }

    #[test]
    fn default_space_is_union_of_bounds() {
        let d = Deployment::in_process(pts(10, 0.0), pts(10, 100.0), NetConfig::default());
        assert_eq!(d.space(), Rect::from_coords(0.0, 0.0, 109.0, 100.0));
        assert_eq!(d.buffer_capacity(), DEFAULT_BUFFER);
        assert!(!d.is_cooperative());
    }

    #[test]
    fn fresh_links_have_fresh_meters() {
        let d = Deployment::in_process(pts(10, 0.0), pts(10, 0.0), NetConfig::default());
        let (r1, _s1) = d.connect();
        r1.request(&Request::Count(d.space()));
        assert_eq!(r1.meter().snapshot().count_queries, 1);
        let (r2, _s2) = d.connect();
        assert_eq!(r2.meter().snapshot().count_queries, 0);
    }

    #[test]
    fn threaded_and_inproc_answer_identically() {
        let a = Deployment::in_process(pts(50, 0.0), pts(50, 5.0), NetConfig::default());
        let b = Deployment::threaded(pts(50, 0.0), pts(50, 5.0), NetConfig::default());
        let w = Rect::from_coords(0.0, 0.0, 25.0, 25.0);
        let (ra, sa) = a.connect();
        let (rb, sb) = b.connect();
        assert_eq!(
            ra.request(&Request::Count(w)).into_count(),
            rb.request(&Request::Count(w)).into_count()
        );
        assert_eq!(
            sa.request(&Request::Window(w)).into_objects(),
            sb.request(&Request::Window(w)).into_objects()
        );
        assert_eq!(
            ra.meter().snapshot().total_bytes(),
            rb.meter().snapshot().total_bytes()
        );
    }

    #[test]
    fn sharded_fleet_answers_like_flat_and_reports_shards() {
        let r = pts(50, 0.0);
        let s = pts(50, 5.0);
        let flat = Deployment::in_process(r.clone(), s.clone(), NetConfig::default());
        let fleet = DeploymentBuilder::new(r, s).with_shards(4, 3).build();
        assert_eq!(flat.shard_counts(), (1, 1));
        assert_eq!(fleet.shard_counts(), (4, 3));
        let w = Rect::from_coords(0.0, 0.0, 30.0, 30.0);
        let (fr, fs) = flat.connect();
        let (gr, gs) = fleet.connect();
        assert_eq!(
            fr.request(&Request::Count(w)).into_count(),
            gr.request(&Request::Count(w)).into_count()
        );
        let mut a: Vec<u32> = fs
            .request(&Request::Window(w))
            .into_objects()
            .iter()
            .map(|o| o.id)
            .collect();
        let mut b: Vec<u32> = gs
            .request(&Request::Window(w))
            .into_objects()
            .iter()
            .map(|o| o.id)
            .collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        // The fleet link carries per-shard telemetry; the flat one none.
        assert!(fr.fleet().is_none());
        let t = gr.fleet().unwrap().snapshot();
        assert_eq!(t.shard_count(), 4);
        assert_eq!(t.summed(), gr.meter().snapshot());
    }

    #[test]
    fn threaded_fleet_matches_in_process_fleet() {
        let build = |threaded: bool| {
            let mut b = DeploymentBuilder::new(pts(40, 0.0), pts(40, 2.0)).with_shards(3, 3);
            if threaded {
                b = b.threaded();
            }
            b.build()
        };
        let a = build(false);
        let b = build(true);
        let w = Rect::from_coords(0.0, 0.0, 25.0, 25.0);
        let (ra, _) = a.connect();
        let (rb, _) = b.connect();
        assert_eq!(
            ra.request(&Request::Count(w)).into_count(),
            rb.request(&Request::Count(w)).into_count()
        );
        assert_eq!(
            ra.meter().snapshot().total_bytes(),
            rb.meter().snapshot().total_bytes(),
            "carrier must not change accounting"
        );
    }

    #[test]
    fn event_loop_deployment_matches_in_process_bytes() {
        let a = Deployment::in_process(pts(50, 0.0), pts(50, 5.0), NetConfig::default());
        let b = DeploymentBuilder::new(pts(50, 0.0), pts(50, 5.0))
            .event_loop()
            .build();
        assert!(!a.is_event_loop());
        assert!(b.is_event_loop());
        let w = Rect::from_coords(0.0, 0.0, 25.0, 25.0);
        let (ra, sa) = a.connect();
        let (rb, sb) = b.connect();
        assert_eq!(
            ra.request(&Request::Count(w)).into_count(),
            rb.request(&Request::Count(w)).into_count()
        );
        assert_eq!(
            sa.request(&Request::Window(w)).into_objects(),
            sb.request(&Request::Window(w)).into_objects()
        );
        assert_eq!(
            ra.meter().snapshot().total_bytes(),
            rb.meter().snapshot().total_bytes(),
            "carrier must not change accounting"
        );
        let stats = b.event_stats(Side::R);
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].served(), 1);
        assert!(a.event_stats(Side::R).is_empty());
    }

    #[test]
    fn event_loop_fleet_matches_threaded_fleet() {
        let build = |kind: u8| {
            let mut b = DeploymentBuilder::new(pts(40, 0.0), pts(40, 2.0)).with_shards(3, 2);
            b = match kind {
                0 => b,
                1 => b.threaded(),
                _ => b.event_loop(),
            };
            b.build()
        };
        let w = Rect::from_coords(0.0, 0.0, 25.0, 25.0);
        let run = |d: &Deployment| {
            let (r, s) = d.connect();
            let count = r.request(&Request::Count(w)).into_count();
            let objs = s.request(&Request::Window(w)).into_objects();
            (
                count,
                objs,
                r.meter().snapshot().total_bytes(),
                s.meter().snapshot().total_bytes(),
            )
        };
        let (inproc, threaded, looped) = (build(0), build(1), build(2));
        assert_eq!(run(&inproc), run(&threaded));
        assert_eq!(run(&inproc), run(&looped));
        // One reactor endpoint per shard server whatever the placement —
        // each on a thread of its own, or all on the shared one — and
        // none in-process.
        assert!(looped.is_event_loop());
        assert!(!threaded.is_event_loop() && !inproc.is_event_loop());
        let everything = Rect::from_coords(-1.0, -1.0, 100.0, 100.0);
        for d in [&threaded, &looped] {
            let (r, s) = d.connect();
            for (side, link, shards) in [(Side::R, r, 3), (Side::S, s, 2)] {
                assert_eq!(link.request(&Request::Count(everything)).into_count(), 40);
                let stats = d.event_stats(side);
                assert_eq!(stats.len(), shards);
                assert!(stats.iter().all(|s| s.served() > 0), "no shard is pruned");
            }
        }
        assert!(inproc.event_stats(Side::R).is_empty());
        assert!(inproc.event_stats(Side::S).is_empty());
    }

    #[test]
    fn placement_changes_neither_a_live_join_nor_what_each_server_served() {
        use crate::{DistributedJoin, JoinSpec, SrJoin};
        let run = |shared: bool| {
            let b = DeploymentBuilder::new(pts(60, 0.0), pts(60, 1.0))
                .with_shards(2, 2)
                .with_buffer(16)
                .live();
            let d = if shared { b.event_loop() } else { b.threaded() }.build();
            d.apply_updates(
                Side::S,
                vec![Update::Insert(SpatialObject::point(777, 3.0, 3.0))],
            );
            let report = SrJoin::default()
                .run(&d, &JoinSpec::distance_join(1.5))
                .expect("join runs");
            assert!(!report.pairs.is_empty(), "vacuous join");
            let served =
                |side| -> Vec<u64> { d.event_stats(side).iter().map(|s| s.served()).collect() };
            (format!("{report:?}"), served(Side::R), served(Side::S))
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = DeploymentBuilder::new(pts(2, 0.0), pts(2, 0.0)).with_shards(0, 2);
    }

    #[test]
    fn client_cache_links_share_a_session_store_per_side() {
        let d = DeploymentBuilder::new(pts(20, 0.0), pts(20, 100.0))
            .with_client_cache(true)
            .build();
        let (r_caches, s_caches) = d.caches();
        assert!(r_caches.is_some() && s_caches.is_some());
        let w = Rect::from_coords(0.0, 0.0, 10.0, 10.0);
        let (r1, s1) = d.connect();
        let first = r1.request(&Request::Count(w)).into_count();
        assert!(r1.meter().snapshot().total_bytes() > 0);
        // Sides must not share a store: S sees different data.
        let s_count = s1.request(&Request::Count(w)).into_count();
        assert_ne!(first, s_count);
        // A second connection (next join in the session) hits the store
        // the first one filled — zero bytes, fresh meter and telemetry.
        let (r2, _) = d.connect();
        assert_eq!(r2.request(&Request::Count(w)).into_count(), first);
        assert_eq!(r2.meter().snapshot().total_bytes(), 0);
        let snap = r2.cache().expect("cached link").snapshot();
        assert_eq!((snap.stats_hits, snap.stats_misses), (1, 0));
        assert_eq!(r1.cache().unwrap().snapshot().stats_hits, 0);
    }

    #[test]
    fn cache_disabled_builds_no_layer() {
        let d = Deployment::in_process(pts(5, 0.0), pts(5, 0.0), NetConfig::default());
        let (cr, cs) = d.caches();
        assert!(cr.is_none() && cs.is_none());
        let (r, _) = d.connect();
        assert!(r.cache().is_none());
    }

    #[test]
    fn cached_fleet_link_keeps_fleet_telemetry() {
        let d = DeploymentBuilder::new(pts(40, 0.0), pts(40, 0.0))
            .with_shards(3, 2)
            .with_client_cache(true)
            .build();
        let (r, s) = d.connect();
        let w = Rect::from_coords(0.0, 0.0, 30.0, 30.0);
        r.request(&Request::Count(w));
        assert!(r.fleet().is_some() && s.fleet().is_some());
        assert!(r.cache().is_some());
        assert_eq!(
            r.fleet().unwrap().snapshot().summed(),
            r.meter().snapshot(),
            "conservation law must survive the cache layer"
        );
    }

    #[test]
    fn live_flat_deployment_applies_updates_and_stamps() {
        let d = DeploymentBuilder::new(pts(10, 0.0), pts(10, 0.0))
            .live()
            .build();
        assert!(d.is_live());
        let w = Rect::from_coords(-10.0, -10.0, 200.0, 200.0);
        let (r, _) = d.connect();
        assert_eq!(r.request(&Request::Count(w)).into_count(), 10);
        assert_eq!(r.last_generation(), 0, "no update yet: frozen wire");
        let gen = d.apply_updates(
            Side::R,
            vec![Update::Insert(SpatialObject::point(99, 150.0, 150.0))],
        );
        assert_eq!(gen, 1);
        assert_eq!(r.request(&Request::Count(w)).into_count(), 11);
        assert_eq!(r.last_generation(), 1, "stamp observed on the old link");
        assert_eq!(r.generations(), (0, 1), "the link read two generations");
        // The untouched side is unaffected.
        let (r, s) = d.connect();
        assert_eq!(r.generations(), (0, 0), "nothing read yet");
        r.request(&Request::Count(w));
        assert_eq!(r.generations(), (1, 1));
        assert_eq!(s.request(&Request::Count(w)).into_count(), 10);
        assert_eq!(s.last_generation(), 0);
    }

    #[test]
    fn live_fleet_routes_updates_and_sums_generations() {
        let d = DeploymentBuilder::new(pts(40, 0.0), pts(40, 0.0))
            .with_shards(4, 2)
            .live()
            .build();
        let w = Rect::from_coords(-10.0, -10.0, 200.0, 200.0);
        // Every fleet batch touches all 4 shards, so the fleet generation
        // (sum of per-shard generations) advances by 4 per tick.
        let g1 = d.apply_updates(Side::R, vec![Update::Delete(0)]);
        assert_eq!(g1, 4);
        let g2 = d.apply_updates(
            Side::R,
            vec![Update::Move {
                id: 1,
                to: Rect::point(Point::new(120.0, 0.0)),
            }],
        );
        assert_eq!(g2, 8);
        let (r, _) = d.connect();
        assert_eq!(r.request(&Request::Count(w)).into_count(), 39);
        assert_eq!(r.last_generation(), 8, "merged replies carry the fleet sum");
        let t = r.fleet().unwrap().snapshot();
        assert_eq!(t.fleet_generation(), 8);
    }

    #[test]
    fn threaded_live_fleet_matches_in_process() {
        let run = |threaded: bool| {
            let mut b = DeploymentBuilder::new(pts(30, 0.0), pts(30, 2.0))
                .with_shards(3, 3)
                .live();
            if threaded {
                b = b.threaded();
            }
            let d = b.build();
            d.apply_updates(
                Side::S,
                vec![Update::Insert(SpatialObject::point(77, 3.0, 3.0))],
            );
            let (_, s) = d.connect();
            let w = Rect::from_coords(0.0, 0.0, 25.0, 25.0);
            let mut ids: Vec<u32> = s
                .request(&Request::Window(w))
                .into_objects()
                .iter()
                .map(|o| o.id)
                .collect();
            ids.sort_unstable();
            (ids, s.meter().snapshot().total_bytes())
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    #[should_panic(expected = "frozen deployment")]
    fn frozen_deployment_refuses_updates() {
        let d = Deployment::in_process(pts(5, 0.0), pts(5, 0.0), NetConfig::default());
        assert!(!d.is_live());
        d.apply_updates(Side::R, vec![Update::Delete(0)]);
    }

    #[test]
    fn cached_live_deployment_notes_the_ack_generation() {
        let d = DeploymentBuilder::new(pts(20, 0.0), pts(20, 0.0))
            .with_client_cache(true)
            .live()
            .build();
        let w = Rect::from_coords(-10.0, -10.0, 200.0, 200.0);
        let (r1, _) = d.connect();
        assert_eq!(r1.request(&Request::Window(w)).into_objects().len(), 20);
        // The update travels over a cached link, so the shared session
        // store hears the Ack: the next link to look anything up asks
        // what changed since generation 0 — one exchange, one remove —
        // and the window it paid for answers at generation 1, patched.
        d.apply_updates(Side::R, vec![Update::Delete(3)]);
        let (r2, _) = d.connect();
        assert_eq!(r2.request(&Request::Count(w)).into_count(), 19);
        let snap = r2.cache().unwrap().snapshot();
        assert_eq!((snap.stats_hits, snap.stats_misses), (1, 0));
        let wire = r2.meter().snapshot();
        assert_eq!((wire.total_queries(), wire.objects_received), (1, 1));
        assert_eq!(wire.count_queries, 0, "the COUNT itself never shipped");
        // At the *same* generation nothing is asked at all.
        let (r3, _) = d.connect();
        assert_eq!(r3.request(&Request::Window(w)).into_objects().len(), 19);
        assert_eq!(r3.cache().unwrap().snapshot().window_hits, 1);
        assert_eq!(r3.meter().snapshot().total_bytes(), 0);
    }

    #[test]
    fn faulted_deployment_with_retries_matches_clean_answers() {
        let clean = Deployment::in_process(pts(40, 0.0), pts(40, 5.0), NetConfig::default());
        let lossy = DeploymentBuilder::new(pts(40, 0.0), pts(40, 5.0))
            .with_net(NetConfig::default().with_retry(asj_net::RetryPolicy::attempts(6)))
            .with_faults(FaultPlan::seeded(7).with_drops(0.3).with_garbles(0.2))
            .build();
        let w = Rect::from_coords(0.0, 0.0, 25.0, 25.0);
        let (cr, cs) = clean.connect();
        let (lr, ls) = lossy.connect();
        assert_eq!(
            cr.request(&Request::Count(w)),
            lr.request(&Request::Count(w))
        );
        assert_eq!(
            cs.request(&Request::Window(w)),
            ls.request(&Request::Window(w))
        );
        // Recovery shows up in the meters, never in the answers.
        let recovered = lr.meter().snapshot().retried + ls.meter().snapshot().retried;
        assert!(recovered > 0, "plan must actually fire at these rates");
        assert_eq!(lr.meter().snapshot().abandoned, 0);
    }

    #[test]
    fn faulted_fleet_matches_clean_fleet_answers() {
        let build = |faulted: bool| {
            let mut b = DeploymentBuilder::new(pts(40, 0.0), pts(40, 2.0)).with_shards(4, 2);
            if faulted {
                b = b
                    .with_net(NetConfig::default().with_retry(asj_net::RetryPolicy::attempts(6)))
                    .with_faults(FaultPlan::seeded(13).with_drops(0.3));
            }
            b.build()
        };
        let clean = build(false);
        let lossy = build(true);
        let w = Rect::from_coords(0.0, 0.0, 30.0, 30.0);
        let (cr, _) = clean.connect();
        let (lr, _) = lossy.connect();
        assert_eq!(
            cr.request(&Request::Count(w)),
            lr.request(&Request::Count(w))
        );
        let t = lr.fleet().expect("fleet telemetry").snapshot();
        assert!(t.failed_shards.is_empty(), "budget must suffice at seed 13");
        // Conservation law survives injection: per-shard sums match the
        // aggregate meter, retries included.
        assert_eq!(t.summed(), lr.meter().snapshot());
    }

    #[test]
    fn noop_fault_plan_with_retry_off_is_byte_identical() {
        let clean = Deployment::in_process(pts(30, 0.0), pts(30, 3.0), NetConfig::default());
        let wrapped = DeploymentBuilder::new(pts(30, 0.0), pts(30, 3.0))
            .with_faults(FaultPlan::seeded(99))
            .build();
        let w = Rect::from_coords(0.0, 0.0, 20.0, 20.0);
        let (cr, _) = clean.connect();
        let (wr, _) = wrapped.connect();
        assert_eq!(
            cr.request(&Request::Count(w)),
            wr.request(&Request::Count(w))
        );
        assert_eq!(cr.meter().snapshot(), wr.meter().snapshot());
    }

    #[test]
    fn crash_restart_resumes_at_the_published_generation() {
        let d = DeploymentBuilder::new(pts(20, 0.0), pts(20, 0.0))
            .live()
            .with_net(NetConfig::default().with_retry(asj_net::RetryPolicy::attempts(4)))
            .with_faults(FaultPlan::seeded(5).with_crash(1, 2))
            .build();
        // The update link's crash window never opens (one exchange).
        assert_eq!(
            d.apply_updates(
                Side::R,
                vec![Update::Insert(SpatialObject::point(99, 150.0, 150.0))],
            ),
            1
        );
        let w = Rect::from_coords(-10.0, -10.0, 200.0, 200.0);
        let (r, _) = d.connect();
        // Exchange 0 is clean; exchanges 1–2 hit the scripted dark window
        // and the retries ride the restart hook back to the same store —
        // every answer resumes at the published generation, never before.
        for _ in 0..4 {
            assert_eq!(r.request(&Request::Count(w)).into_count(), 21);
            assert_eq!(r.last_generation(), 1, "generation must never regress");
        }
        assert!(r.meter().snapshot().retried > 0, "the window must fire");
    }

    #[test]
    fn exhausted_faulted_deployment_surfaces_typed_unavailable() {
        // Certain loss with no retry budget: the typed outcome (not a
        // panic) reaches the caller, and try_apply_updates carries it too.
        let d = DeploymentBuilder::new(pts(10, 0.0), pts(10, 0.0))
            .live()
            .with_faults(FaultPlan::seeded(1).with_drops(1.0))
            .build();
        let (r, _) = d.connect();
        assert_eq!(r.request(&Request::Count(d.space())), Response::Unavailable);
        assert_eq!(
            d.try_apply_updates(Side::R, vec![Update::Delete(0)]),
            Response::Unavailable
        );
    }

    #[test]
    fn replicated_live_fleet_matches_flat_and_reports_replicas() {
        let flat = DeploymentBuilder::new(pts(40, 0.0), pts(40, 5.0))
            .with_shards(2, 2)
            .live()
            .build();
        let repl = DeploymentBuilder::new(pts(40, 0.0), pts(40, 5.0))
            .with_shards(2, 2)
            .with_replicas(2)
            .live()
            .build();
        assert_eq!(flat.replica_count(), 1);
        assert_eq!(repl.replica_count(), 2);
        // The broadcast acks the same fleet generation as the
        // unreplicated update path: per-shard acks are maxed over the
        // replica set, never summed across it.
        let batch = vec![Update::Insert(SpatialObject::point(99, 30.0, 30.0))];
        assert_eq!(
            flat.apply_updates(Side::R, batch.clone()),
            repl.apply_updates(Side::R, batch)
        );
        let w = Rect::from_coords(0.0, 0.0, 35.0, 35.0);
        let (fr, _) = flat.connect();
        let (rr, _) = repl.connect();
        assert_eq!(
            fr.request(&Request::Count(w)),
            rr.request(&Request::Count(w))
        );
        let t = rr.fleet().expect("fleet telemetry").snapshot();
        assert!(t.per_replica.iter().all(|row| row.len() == 2));
        assert!(t.health.iter().all(|row| row.len() == 2));
        assert!(t.failed_shards.is_empty());
    }

    #[test]
    fn single_replica_fleet_is_byte_identical() {
        let build = |explicit: bool| {
            let mut b = DeploymentBuilder::new(pts(40, 0.0), pts(40, 2.0)).with_shards(3, 2);
            if explicit {
                b = b.with_replicas(1);
            }
            b.build()
        };
        let plain = build(false);
        let one = build(true);
        let w = Rect::from_coords(0.0, 0.0, 25.0, 25.0);
        let (pr, ps) = plain.connect();
        let (or, os) = one.connect();
        assert_eq!(
            pr.request(&Request::Count(w)),
            or.request(&Request::Count(w))
        );
        assert_eq!(
            ps.request(&Request::Window(w)),
            os.request(&Request::Window(w))
        );
        assert_eq!(pr.meter().snapshot(), or.meter().snapshot());
        assert_eq!(ps.meter().snapshot(), os.meter().snapshot());
    }

    #[test]
    fn replicated_faulted_fleet_fails_over_and_matches_clean() {
        // Replication without sharding: an implicit 1-shard fleet per
        // side owns the replica sets. Each replica edge draws from a
        // decorrelated fault stream, so a drop on one sibling fails over
        // to the other instead of spending retry budget.
        let clean = Deployment::in_process(pts(40, 0.0), pts(40, 5.0), NetConfig::default());
        let lossy = DeploymentBuilder::new(pts(40, 0.0), pts(40, 5.0))
            .with_replicas(2)
            .with_net(NetConfig::default().with_retry(asj_net::RetryPolicy::attempts(4)))
            .with_faults(FaultPlan::seeded(21).with_drops(0.4))
            .build();
        assert_eq!(lossy.shard_counts(), (1, 1));
        let w = Rect::from_coords(0.0, 0.0, 25.0, 25.0);
        let (cr, _) = clean.connect();
        let (lr, _) = lossy.connect();
        for _ in 0..6 {
            assert_eq!(
                cr.request(&Request::Count(w)),
                lr.request(&Request::Count(w))
            );
        }
        let snap = lr.meter().snapshot();
        assert!(snap.failovers > 0, "a sibling must cover a drop at seed 21");
        assert_eq!(snap.abandoned, 0);
        let t = lr.fleet().expect("fleet telemetry").snapshot();
        assert!(t.failed_shards.is_empty());
        // Conservation holds through failover: replica rows sum to their
        // shard, shards sum to the aggregate meter.
        assert_eq!(t.summed(), snap);
        for (shard, row) in t.per_shard.iter().zip(&t.per_replica) {
            let row_sum = row
                .iter()
                .fold(asj_net::LinkSnapshot::default(), |acc, r| acc.plus(r));
            assert_eq!(&row_sum, shard);
        }
    }

    #[test]
    #[should_panic(expected = "allow_partial cannot run with the client cache")]
    fn allow_partial_refuses_the_client_cache() {
        let _ = DeploymentBuilder::new(pts(5, 0.0), pts(5, 0.0))
            .with_net(NetConfig::default().with_allow_partial(true))
            .with_client_cache(true)
            .build();
    }

    #[test]
    fn cooperative_flag_controls_policy() {
        let coop = DeploymentBuilder::new(pts(10, 0.0), pts(10, 0.0))
            .cooperative()
            .build();
        assert!(coop.is_cooperative());
        let (r, _) = coop.connect();
        assert!(matches!(
            r.request(&Request::CoopLevelMbrs(0)),
            asj_net::Response::Rects(_)
        ));

        let strict = Deployment::in_process(pts(10, 0.0), pts(10, 0.0), NetConfig::default());
        let (r, _) = strict.connect();
        assert_eq!(
            r.request(&Request::CoopLevelMbrs(0)),
            asj_net::Response::Refused
        );
    }
}
