//! Deployment: the two servers (or shard fleets), the network, the
//! device's resources.
//!
//! Each logical side is either a single server or — via
//! [`DeploymentBuilder::with_shards`] — a *fleet* of spatially partitioned
//! shard servers behind a client-side scatter-gather
//! [`ShardRouter`]. The fleet presents the exact
//! same [`Link`] interface, so every join algorithm runs unchanged; its
//! link meter reports the physical scatter traffic, with per-shard detail
//! available through [`Link::fleet`].

use std::sync::Arc;

use asj_geom::{Rect, SpatialObject};
use asj_net::transport::InProcExchange;
use asj_net::{
    CacheLayer, ClientCache, EndpointStats, FaultLayer, FaultPlan, Link, NetConfig, QueryHandler,
    RawExchange, Request, Response, ShardEndpoint, ShardMeta, ShardRouter, Update,
};
use asj_server::{
    partition_objects, RTreeStore, ServicePolicy, SpatialService, SpatialStore, VersionedStore,
};

use crate::Side;

/// The default device buffer: the paper's 800 points ("40 % of the total
/// data size for the synthetic datasets").
pub const DEFAULT_BUFFER: usize = 800;

/// One server process, called in the caller's process: bare, or gauged
/// with `stats` (see `asj_net::transport`).
struct Endpoint {
    handler: Arc<dyn QueryHandler>,
    stats: Option<Arc<EndpointStats>>,
}

impl Endpoint {
    /// A fresh connection.
    fn raw(&self) -> Box<dyn RawExchange> {
        let handler = Arc::clone(&self.handler);
        Box::new(match &self.stats {
            None => InProcExchange::new(handler),
            Some(stats) => InProcExchange::gauged(handler, Arc::clone(stats)),
        })
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
/// n replicas never reshuffles the faults an existing edge sees — more
/// replicas, never fewer successes, which the property
/// `success_is_monotone_in_the_replica_count` in
/// `tests/prop_end_to_end.rs` holds per request.
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
/// readmit it.
fn replica_edge(group: &[Replica], j: usize, fault: Option<&FaultPlan>) -> Box<dyn RawExchange> {
    match fault {
        None => group[j].endpoint.raw(),
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
                ep.raw()
            };
            let layer = FaultLayer::new(group[j].endpoint.raw(), replica_plan(plan, j))
                .with_restart(Box::new(restart));
            Box::new(layer)
        }
    }
}

impl Carrier {
    /// Opens a fresh link — the stack of the `asj_net` crate docs, bottom
    /// up: physical edges, a [`ShardRouter`] over them for a fleet, a
    /// [`CacheLayer`] (fresh per-link telemetry, the given shared store)
    /// when `cache` is set, the [`Link`]. `net` is passed down once, to
    /// whichever layer owns the edges: each edge is built speaking the
    /// deployment's packet model, wire version (`net.wire_v2`) and retry
    /// discipline from its first frame, and a router its breakers and
    /// partial-result tolerance.
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
    ) -> Link {
        let edge = |group, j| replica_edge(group, j, fault);
        match self {
            Carrier::Single(replica) => {
                let edge = edge(std::slice::from_ref(replica), 0);
                match cache {
                    Some(c) => Link::cached(CacheLayer::new(edge, net, Arc::clone(c)), tariff),
                    None => Link::new(edge, net, tariff),
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
                let router = ShardRouter::new(shards, net);
                match cache {
                    Some(c) => Link::cached(CacheLayer::over_router(router, Arc::clone(c)), tariff),
                    None => Link::routed(router, tariff),
                }
            }
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

    /// Gauged endpoint stats for every replica of every shard,
    /// shard-major order; empty when this side is served in-process.
    fn event_stats(&self) -> Vec<Arc<EndpointStats>> {
        match self {
            Carrier::Single(replica) => replica.endpoint.stats.iter().cloned().collect(),
            Carrier::Fleet(members) => members
                .iter()
                .flat_map(|(_, group)| group.iter().filter_map(|r| r.endpoint.stats.clone()))
                .collect(),
        }
    }
}

/// A ready-to-join deployment: server R, server S, the network
/// configuration, the device's buffer size and the global data space.
///
/// Construct via [`Deployment::in_process`] or the full
/// [`DeploymentBuilder`]. Each [`DistributedJoin::run`] call opens
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
}

impl Deployment {
    /// In-process deployment (fast; used by the experiment sweeps) with
    /// non-cooperative R-tree servers and default network/buffer.
    pub fn in_process(r: Vec<SpatialObject>, s: Vec<SpatialObject>, net: NetConfig) -> Self {
        DeploymentBuilder::new(r, s).with_net(net).build()
    }

    /// Fresh links `(R, S)` for one algorithm run. **Per link:** the
    /// meters and cache telemetry (reports never bleed into each other),
    /// the connections, and each edge's fault script, which restarts from
    /// its seed. **Per deployment:** the client-cache stores, when
    /// enabled — consecutive joins (a session) reuse each other's
    /// statistics and windows. Every link speaks the deployment's wire
    /// version (`NetConfig::wire_v2`) from its first frame.
    pub fn connect(&self) -> (Link, Link) {
        (self.open(Side::R), self.open(Side::S))
    }

    /// One fresh link to `side`.
    fn open(&self, side: Side) -> Link {
        let (carrier, tariff, cache) = match side {
            Side::R => (&self.r, self.net.tariff_r, &self.cache_r),
            Side::S => (&self.s, self.net.tariff_s, &self.cache_s),
        };
        carrier.link(&self.net, tariff, cache.as_ref(), self.fault.as_ref())
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

    /// Gauged endpoint stats (high-water mark of the requests in
    /// service, served/malformed counters) for one side: one entry per
    /// server replica, shard-major. Empty on a bare deployment.
    pub fn event_stats(&self, side: Side) -> Vec<Arc<EndpointStats>> {
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
    /// Serve every server as a gauged endpoint rather than by a bare call.
    gauged: bool,
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
            gauged: false,
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

    /// Serves every server (both sides, every shard replica) as a gauged
    /// endpoint rather than by a bare call: the same serve path, with
    /// per-endpoint gauges ([`Deployment::event_stats`]; see
    /// `asj_net::transport`).
    /// `threaded` and [`event_loop`] are two names for this one switch.
    /// It starts no thread: each request is served at the call, on the
    /// device thread that asks it, and the paper prices a join in bytes,
    /// not in the thread that serves it. Replies are byte-identical to
    /// in-process serving.
    ///
    /// [`event_loop`]: DeploymentBuilder::event_loop
    pub fn threaded(mut self) -> Self {
        self.gauged = true;
        self
    }

    /// The same switch as [`threaded`], under the many-device name.
    ///
    /// [`threaded`]: DeploymentBuilder::threaded
    pub fn event_loop(mut self) -> Self {
        self.gauged = true;
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
    /// like a clean one whenever the budget suffices. A plan that injects
    /// nothing (a bare [`FaultPlan::seeded`]) leaves traffic
    /// byte-identical.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Shards each side across a fleet of `n_r` / `n_s` spatially
    /// partitioned servers behind a client-side scatter-gather router
    /// (see `asj_server::partition` and `asj_net::router`). `n = 1` is a
    /// legitimate fleet: the router is byte-transparent, which the
    /// differential tests exploit. Combine with [`threaded`] to serve the
    /// shards as gauged endpoints: every shard's batch is served as the
    /// router issues it, before it judges any reply.
    ///
    /// [`threaded`]: DeploymentBuilder::threaded
    pub fn with_shards(mut self, n_r: usize, n_s: usize) -> Self {
        assert!(n_r >= 1 && n_s >= 1, "each side needs at least one shard");
        self.shards = Some((n_r, n_s));
        self
    }

    /// Replicates every shard server `n`-fold. Each replica serves the
    /// shard's one R-tree, built once and shared, until its first update
    /// gives it a copy-on-write successor of its own. The router spreads
    /// reads across the replica set by request hash, fails a lost
    /// exchange over to the next sibling before any retry budget is
    /// spent, and broadcasts update batches to every replica (one
    /// surviving ack carries the batch; a replica that stayed dark
    /// catches up at its restart hook). Under [`with_faults`] every
    /// replica edge gets its own decorrelated fault stream. `n = 1` (the
    /// default) is byte-identical to an unreplicated deployment; `n > 1`
    /// without [`with_shards`] implies a 1-shard fleet per side.
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
            !(self.net.allow_partial && self.net.client_cache),
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
        // A shard's R-tree is built once, and every replica serves an O(1)
        // clone of it: the tree is persistent, its nodes immutable and
        // shared. A frozen replica answers straight from its clone; a live
        // one starts a `VersionedStore` at generation 0 from it, whose
        // rebuild closure re-packs at the same fanout, so generation 0
        // answers identically either way and each replica diverges
        // copy-on-write from its first update.
        let server = |tree: &RTreeStore| -> Replica {
            let (service, live): (Arc<dyn QueryHandler>, _) = if self.live {
                let store = VersionedStore::with_generation(tree.clone(), 0, RTreeStore::new);
                let service = Arc::new(SpatialService::new(store).with_policy(policy));
                // The store handle outlives the endpoint wiring so a
                // replica restart hook can catch up from a sibling.
                let live = Arc::clone(service.store());
                (service, Some(live))
            } else {
                let service = SpatialService::new(tree.clone()).with_policy(policy);
                (Arc::new(service), None)
            };
            let endpoint = Endpoint {
                handler: service,
                stats: self.gauged.then(Arc::default),
            };
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
        let make = |objects: Vec<SpatialObject>, shards: Option<usize>| -> Carrier {
            match shards {
                None => Carrier::Single(server(&RTreeStore::new(objects))),
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
                            .map(|((bounds, members), cell)| {
                                let tree = RTreeStore::new(members);
                                let group = (0..replicas).map(|_| server(&tree)).collect();
                                let meta = Arc::new(ShardMeta::with_cell(bounds, Some(cell)));
                                (meta, group)
                            })
                            .collect(),
                    )
                }
            }
        };
        Deployment {
            r: make(self.r_objects, shards.map(|s| s.0)),
            s: make(self.s_objects, shards.map(|s| s.1)),
            buffer_capacity: self.buffer_capacity,
            space,
            cooperative: self.cooperative,
            live: self.live,
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cache_r: self.net.client_cache.then(Arc::default),
            cache_s: self.net.client_cache.then(Arc::default),
            fault: self.fault,
            net: self.net,
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

    /// One table over the topologies, each built bare, `.threaded()` and
    /// `.event_loop()`: every build answers and meters alike, both gauged
    /// builds gauge each replica once and every one of them served, and
    /// the bare build gauges nothing.
    #[test]
    fn threaded_and_inproc_answer_identically() {
        type Shape = fn(DeploymentBuilder) -> DeploymentBuilder;
        let topologies: [(&str, Shape); 3] = [
            ("flat", |b| b),
            ("3x3 fleet", |b| b.with_shards(3, 3)),
            ("live 3x3 fleet", |b| b.with_shards(3, 3).live()),
        ];
        let builds: [(&str, Shape); 3] = [
            ("bare", |b| b),
            ("threaded", DeploymentBuilder::threaded),
            ("event_loop", DeploymentBuilder::event_loop),
        ];
        let w = Rect::from_coords(-10.0, -10.0, 100.0, 100.0);
        for (topology, shape) in topologies {
            let run = |build: Shape| {
                let d = build(shape(DeploymentBuilder::new(pts(40, 0.0), pts(40, 2.0)))).build();
                if d.is_live() {
                    let insert = Update::Insert(SpatialObject::point(77, 3.0, 3.0));
                    d.apply_updates(Side::S, vec![insert]);
                }
                let (r, s) = d.connect();
                let answers = (
                    r.request(&Request::Count(w)).into_count(),
                    s.request(&Request::Window(w)).into_objects(),
                );
                let meters = (r.meter().snapshot(), s.meter().snapshot());
                let served = [Side::R, Side::S].map(|side| {
                    d.event_stats(side)
                        .iter()
                        .map(|e| e.served())
                        .collect::<Vec<_>>()
                });
                let (shards, _) = d.shard_counts();
                (answers, meters, served, shards)
            };
            let (want, want_meters, served, _) = run(builds[0].1);
            assert_eq!(served, [vec![], vec![]], "{topology}: bare gauges nothing");
            for (name, build) in &builds[1..] {
                let (answers, meters, served, shards) = run(*build);
                assert_eq!(answers, want, "{topology}, {name}: answers");
                assert_eq!(meters, want_meters, "{topology}, {name}: meter bytes");
                for per_replica in served {
                    assert_eq!(per_replica.len(), shards, "{topology}, {name}");
                    assert!(per_replica.iter().all(|&n| n > 0), "{topology}, {name}");
                }
            }
        }
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
        assert_eq!(t.generations, vec![2; 4]);
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
