//! Per-layer probes of a traced run: timed calls into the public
//! functions of each layer on data drawn from the seed, and the
//! stack-ablation ladder. Every call (or batch of sub-microsecond calls)
//! is a span; the unit costs below are read back from those spans.

use std::collections::BTreeMap;

use asj_core::{Deployment, DeploymentBuilder, DistributedJoin, SrJoin};
use asj_device::{memjoin, run_traffic, ResultCollector, TrafficConfig};
use asj_geom::{plane_sweep_join, plane_sweep_join_parallel, JoinPredicate, Rect, SpatialObject};
use asj_net::codec::{self, QuantCtx, WireVersion};
use asj_net::{
    BreakerConfig, FaultPlan, NetConfig, QueryHandler, Request, Response, RetryPolicy, Update,
};
use asj_rtree::{RTree, DEFAULT_MAX_ENTRIES};
use asj_server::{partition_objects, RTreeStore, SpatialService, SpatialStore, VersionedStore};
use bytes::BytesMut;

use crate::data::{self, Instance, Rng, EPS};
use crate::host::{self, Calibrator};
use crate::stats;
use crate::trace::Tracer;
use crate::workloads::{fleet_net, join_spec};

/// Timed batches per probe; the reported unit cost is their median.
const BATCHES: usize = 7;

/// Unit costs by per-layer metric name (units are in `metrics.rs`).
pub type Costs = BTreeMap<String, f64>;

/// One timed run of the grid-hash kernel: what it was handed, what it
/// reported, how long it took.
#[derive(Debug, Clone, Copy, Default)]
pub struct Leaf {
    objects: f64,
    pairs: f64,
    ns: f64,
}

pub struct Probes<'a> {
    tracer: &'a mut Tracer,
    calib: Calibrator,
    /// The calibration reading taken after the previous probe.
    last_calib_ms: f64,
    pub costs: Costs,
    /// The 6000 × 6000 kernel run of the parallel probes, kept for the
    /// per-object / per-pair split of the device's cost.
    pub big_leaf: Leaf,
}

fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

impl<'a> Probes<'a> {
    pub fn new(tracer: &'a mut Tracer) -> Self {
        let mut calib = Calibrator::new();
        let last_calib_ms = calib.read_ms(3);
        Probes {
            tracer,
            calib,
            last_calib_ms,
            costs: Costs::new(),
            big_leaf: Leaf::default(),
        }
    }

    /// Runs `batch` [`BATCHES`] times after one warm-up, each as one span
    /// covering `count` calls or items, and returns the host-normalised
    /// median nanoseconds per count.
    fn unit_ns(
        &mut self,
        layer: &'static str,
        name: &str,
        count: u64,
        mut batch: impl FnMut(),
    ) -> f64 {
        batch();
        for _ in 0..BATCHES {
            self.tracer.span(layer, name, count, &mut batch);
        }
        stats::median(&self.tracer.unit_costs_ns(layer, name)) * self.scale()
    }

    /// Normalisation factor for what ran since the last call.
    fn scale(&mut self) -> f64 {
        let after = self.calib.read_ms(3);
        let scale = host::normalisation_scale(self.last_calib_ms, after);
        self.last_calib_ms = after;
        scale
    }

    /// Runs the variants `names` round-robin for `rounds` rounds after one
    /// warm-up round — so all of them see the same host minutes — each run
    /// a span. Returns, per variant, the host-normalised nanoseconds of
    /// every round; callers compare variants round by round.
    fn interleaved(
        &mut self,
        layer: &'static str,
        names: &[&str],
        rounds: usize,
        mut run: impl FnMut(usize, usize),
    ) -> Vec<Vec<f64>> {
        for round in 0..=rounds {
            for (variant, name) in names.iter().enumerate() {
                if round == 0 {
                    run(variant, round);
                } else {
                    self.tracer.span(layer, name, 1, || run(variant, round));
                }
            }
        }
        let scale = self.scale();
        names
            .iter()
            .map(|name| {
                let ns = self.tracer.unit_costs_ns(layer, name);
                ns.iter().map(|x| x * scale).collect()
            })
            .collect()
    }

    /// Median over rounds of variant 1's time over variant 0's.
    fn ratio(
        &mut self,
        layer: &'static str,
        names: [&str; 2],
        run: impl FnMut(usize, usize),
    ) -> (f64, f64) {
        let ns = self.interleaved(layer, &names, BATCHES, run);
        let ratios: Vec<f64> = ns[0].iter().zip(&ns[1]).map(|(a, b)| b / a).collect();
        (stats::median(&ns[0]), stats::median(&ratios))
    }

    fn put(&mut self, name: &str, value: f64) {
        self.costs.insert(name.to_string(), value);
    }

    fn get(&self, name: &str) -> f64 {
        self.costs.get(name).copied().unwrap_or(0.0)
    }

    /// The probes that compare a parallel kernel with its serial form.
    /// Run before the process pins itself, so the workers have the CPUs
    /// the program would give them.
    pub fn parallel_kernels(&mut self, seed: u64) {
        let dense = data::dense_instance(seed, 0);
        let pred = JoinPredicate::WithinDistance(EPS);
        let (r, s) = (&dense.r, &dense.s);
        let (serial, ratio) = self.ratio(
            "geom",
            ["sweep_big", "sweep_big_parallel"],
            |parallel, _| {
                let w = if parallel == 1 { workers() } else { 1 };
                std::hint::black_box(plane_sweep_join_parallel(r, s, &pred, w));
            },
        );
        self.put("geom.sweep_big_ms", serial / 1e6);
        self.put("geom.sweep_parallel_ratio", ratio);
        let (big, ratio) = self.ratio(
            "device",
            ["grid_hash_big", "grid_hash_big_parallel"],
            |parallel, _| {
                let w = if parallel == 1 { workers() } else { 1 };
                let mut out = ResultCollector::new();
                memjoin::grid_hash_join_with_workers(
                    r,
                    s,
                    &pred,
                    &dense.space,
                    &dense.space,
                    w,
                    &mut out,
                );
                std::hint::black_box(out.len());
            },
        );
        self.put("device.grid_hash_parallel_ratio", ratio);
        self.big_leaf = Leaf {
            objects: (r.len() + s.len()) as f64,
            pairs: plane_sweep_join(r, s, &pred).len() as f64,
            ns: big,
        };
        let traffic = data::uniform_instance(seed);
        let dep = DeploymentBuilder::new(traffic.r, traffic.s)
            .with_space(traffic.space)
            .event_loop()
            .with_shards(3, 3)
            .build();
        let (_, ratio) = self.ratio(
            "device",
            ["traffic_serial", "traffic_pooled"],
            |pooled, _| {
                let cfg = TrafficConfig::new(64, 1 + pooled, traffic.space);
                std::hint::black_box(run_traffic(&cfg, |_| dep.connect()).total_pairs());
            },
        );
        self.put("device.traffic_pool_ratio", ratio);
        self.put("host.cpus", workers() as f64);
    }

    /// Everything else: kernels on leaf-sized inputs, index and store
    /// probes, the codec, the three carriers and the ablation ladder.
    pub fn layers(&mut self, seed: u64) {
        let generate = self.unit_ns("workloads", "rail_map", 1, || {
            std::hint::black_box(data::rail_map(seed, 0).len());
        });
        self.put("workloads.generate_ms", generate / 1e6);
        let inst = data::rail_map(seed, 0).swap_remove(0);
        let mut rng = Rng::new(data::sub_seed(seed, 0x7072_6f62, 0));
        self.leaf_kernels(&inst);
        self.index_and_store(&inst, &mut rng);
        self.codec(&inst);
        self.carriers(seed, &inst);
        self.ladder(seed, &inst);
    }

    fn leaf_kernels(&mut self, inst: &Instance) {
        // A leaf as HBSJ sees it: the hub cluster of R (clusters come
        // heaviest first) and the rail under it, cut to what an 800-object
        // buffer holds.
        let hub = &inst.r[..data::RAIL_CLUSTER_POINTS];
        let window = Rect::union_of(hub.iter().map(|o| o.mbr))
            .expect("a cluster has points")
            .expand(EPS);
        let under: Vec<SpatialObject> = inst
            .s
            .iter()
            .filter(|o| o.mbr.intersects(&window))
            .take(800 - hub.len())
            .copied()
            .collect();
        let pred = JoinPredicate::WithinDistance(EPS);
        let objects = (hub.len() + under.len()) as f64;
        let sweep = self.unit_ns("geom", "sweep_leaf", 10, || {
            for _ in 0..10 {
                std::hint::black_box(plane_sweep_join(hub, &under, &pred));
            }
        });
        self.put("geom.sweep_leaf_ns", sweep);
        let hash = self.unit_ns("device", "grid_hash_leaf", 10, || {
            for _ in 0..10 {
                let mut out = ResultCollector::new();
                memjoin::grid_hash_join(hub, &under, &pred, &window, &inst.space, &mut out);
                std::hint::black_box(out.len());
            }
        });
        self.put("device.grid_hash_leaf_ns", hash);
        // Two kernel runs, two unknowns: what the kernel spends per object
        // it is handed and per pair it reports. The rail leaf is sparse in
        // pairs, the 6000 × 6000 one dense.
        let small = Leaf {
            objects,
            pairs: plane_sweep_join(hub, &under, &pred).len() as f64,
            ns: hash,
        };
        let big = self.big_leaf;
        let det = small.objects * big.pairs - big.objects * small.pairs;
        let per_object = (small.ns * big.pairs - big.ns * small.pairs) / det;
        let per_pair = (big.ns * small.objects - small.ns * big.objects) / det;
        if det.abs() > f64::EPSILON && per_object >= 0.0 && per_pair >= 0.0 {
            self.put("device.leaf_ns_per_object", per_object);
            self.put("device.leaf_ns_per_pair", per_pair);
        } else {
            self.put("device.leaf_ns_per_object", hash / objects);
            self.put("device.leaf_ns_per_pair", 0.0);
        }
    }

    fn index_and_store(&mut self, inst: &Instance, rng: &mut Rng) {
        let s = &inst.s;
        let load = self.unit_ns("rtree", "bulk_load", 1, || {
            std::hint::black_box(RTree::bulk_load(s.clone(), DEFAULT_MAX_ENTRIES).len());
        });
        self.put("rtree.bulk_load_ms", load / 1e6);
        let tree = RTree::bulk_load(s.clone(), DEFAULT_MAX_ENTRIES);
        // 1 % windows where the data is: centred on seeded rail segments.
        let windows: Vec<Rect> = (0..64)
            .map(|_| {
                let c = s[rng.next_u64() as usize % s.len()].mbr.center();
                Rect::from_coords(c.x - 500.0, c.y - 500.0, c.x + 500.0, c.y + 500.0)
            })
            .collect();
        let window = self.unit_ns("rtree", "window", 64, || {
            for w in &windows {
                std::hint::black_box(tree.window(w).len());
            }
        });
        self.put("rtree.window_ns", window);
        // The COUNT windows the planners ask for: all four quadrants at
        // each of five levels of a 2 × 2 descent towards a rail segment.
        let mut quadrants = Vec::new();
        for _ in 0..8 {
            let target = s[rng.next_u64() as usize % s.len()].mbr.center();
            let mut w = inst.space;
            for _ in 0..5 {
                let quads = w.quadrants();
                quadrants.extend(quads);
                w = *quads
                    .iter()
                    .find(|q| q.contains(&target))
                    .unwrap_or(&quads[0]);
            }
        }
        let count = self.unit_ns("rtree", "count", quadrants.len() as u64, || {
            for q in &quadrants {
                std::hint::black_box(tree.count(q));
            }
        });
        self.put("rtree.count_ns", count);

        let frozen = SpatialService::new(RTreeStore::new(s.clone()));
        let mut buf = BytesMut::new();
        let handle_count = self.unit_ns("server", "handle_count", quadrants.len() as u64, || {
            for q in &quadrants {
                buf.clear();
                frozen.handle_into(Request::Count(*q), WireVersion::V1, &mut buf);
            }
        });
        self.put("server.handle_count_ns", handle_count);
        let served: u64 = windows.iter().map(|w| frozen.store().count(w)).sum();
        let serve = |svc: &dyn QueryHandler, buf: &mut BytesMut| {
            for w in &windows {
                buf.clear();
                svc.handle_into(Request::Window(*w), WireVersion::V1, buf);
            }
        };
        let live = SpatialService::new(VersionedStore::new(s.clone(), RTreeStore::new));
        let (sweep, ratio) = self.ratio(
            "server",
            ["handle_windows", "handle_windows_versioned"],
            |versioned, _| {
                if versioned == 1 {
                    serve(&live, &mut buf)
                } else {
                    serve(&frozen, &mut buf)
                }
            },
        );
        self.put("server.handle_window_ns_per_obj", sweep / served as f64);
        self.put("server.versioned_read_ratio", ratio);
        // The S side of a `live_session` tick: about 35 segments move.
        let batch: Vec<Update> = s
            .iter()
            .step_by(s.len() / 35)
            .map(|o| Update::Move {
                id: o.id,
                to: o.mbr.expand(1.0),
            })
            .collect();
        let apply = self.unit_ns("server", "apply_batch", 1, || {
            std::hint::black_box(live.store().apply(&batch));
        });
        self.put("server.apply_batch_ms", apply / 1e6);
        let partition = self.unit_ns("server", "partition", 1, || {
            std::hint::black_box(partition_objects(&inst.space, 4, s.clone()).len());
        });
        self.put("server.partition_ms", partition / 1e6);
    }

    fn codec(&mut self, inst: &Instance) {
        // A 1000-object window download, the frame joins spend bytes on.
        let window = Rect::union_of(inst.s.iter().take(1000).map(|o| o.mbr)).expect("objects");
        let objects: Vec<SpatialObject> = inst.s.iter().take(1000).copied().collect();
        let n = objects.len() as u64;
        let resp = Response::Objects(objects);
        let ctx = QuantCtx::new(window);
        let v1 = codec::encode_response(&resp);
        let mut v2 = BytesMut::new();
        codec::encode_response_versioned(&resp, WireVersion::V2, ctx.as_ref(), &mut v2);
        let v2 = v2.freeze();
        let mut buf = BytesMut::new();
        let encode = |wire: WireVersion, buf: &mut BytesMut| {
            buf.clear();
            codec::encode_response_versioned(&resp, wire, ctx.as_ref(), buf);
        };
        let e1 = self.unit_ns("net.codec", "v1_encode", n, || {
            encode(WireVersion::V1, &mut buf)
        });
        let e2 = self.unit_ns("net.codec", "v2_encode", n, || {
            encode(WireVersion::V2, &mut buf)
        });
        let d1 = self.unit_ns("net.codec", "v1_decode", n, || {
            std::hint::black_box(codec::decode_response(v1.clone()).expect("v1 frame"));
        });
        let d2 = self.unit_ns("net.codec", "v2_decode", n, || {
            std::hint::black_box(
                codec::decode_response_ctx(v2.clone(), ctx.as_ref()).expect("v2 frame"),
            );
        });
        self.put("net.codec.v1_encode_ns_per_obj", e1);
        self.put("net.codec.v1_decode_ns_per_obj", d1);
        self.put("net.codec.v2_encode_ns_per_obj", e2);
        self.put("net.codec.v2_decode_ns_per_obj", d2);
        self.put("net.codec.v2_bytes_per_obj", v2.len() as f64 / n as f64);
        let req = Request::Count(window);
        let roundtrip = self.unit_ns("net.codec", "request_roundtrip", 1000, || {
            for _ in 0..1000 {
                let frame = codec::encode_request(&req);
                std::hint::black_box(codec::decode_request(frame).expect("request frame"));
            }
        });
        self.put("net.codec.request_roundtrip_ns", roundtrip);
    }

    fn carriers(&mut self, seed: u64, inst: &Instance) {
        let builder = || {
            DeploymentBuilder::new(inst.r.clone(), inst.s.clone())
                .with_space(inst.space)
                .with_buffer(800)
        };
        let tiny = Request::Count(Rect::from_coords(0.0, 0.0, 1.0, 1.0));
        // What the same request costs with no link at all: the server's
        // answer and the request frame's trip through the codec.
        let service = SpatialService::new(RTreeStore::new(inst.s.clone()));
        let mut buf = BytesMut::new();
        let handle = self.unit_ns("server", "handle_tiny", 500, || {
            for _ in 0..500 {
                buf.clear();
                service.handle_into(tiny.clone(), WireVersion::V1, &mut buf);
            }
        }) + self.get("net.codec.request_roundtrip_ns");
        for (name, dep) in [
            ("inproc", builder().build()),
            ("threaded", builder().threaded().build()),
            ("event_loop", builder().event_loop().build()),
        ] {
            let (link, _) = dep.connect();
            let exchange = self.unit_ns("net.transport", &format!("{name}_exchange"), 500, || {
                for _ in 0..500 {
                    std::hint::black_box(link.request(&tiny));
                }
            });
            // What the link and its carrier add on top of that.
            self.put(
                &format!("net.transport.{name}_exchange_ns"),
                exchange - handle,
            );
        }
        let fleet = builder()
            .with_net(fleet_net())
            .threaded()
            .with_shards(4, 4)
            .with_replicas(2)
            .with_faults(FaultPlan::seeded(seed).with_drops(0.01))
            .build();
        let connect = self.unit_ns("net.transport", "connect", 10, || {
            for _ in 0..10 {
                drop(std::hint::black_box(fleet.connect()));
            }
        });
        self.put("net.transport.connect_us", connect / 1e3);
        let cached = builder().with_client_cache(true).build();
        let (link, _) = cached.connect();
        let hit = self.unit_ns("net.cache", "hit", 500, || {
            for _ in 0..500 {
                std::hint::black_box(link.request(&tiny));
            }
        });
        self.put("net.cache.hit_ns", hit);
    }

    /// The stack-ablation ladder: the same SrJoin over deployments that
    /// switch the link stack on one layer at a time, all in-process so a
    /// rung's step is that layer's CPU. The rungs run round-robin and each
    /// `*_added_ns` is the median over rounds of the step from the rung
    /// below, per logical exchange of the join.
    fn ladder(&mut self, seed: u64, inst: &Instance) {
        const ROUNDS: usize = 15;
        let builder = |net: NetConfig| {
            DeploymentBuilder::new(inst.r.clone(), inst.s.clone())
                .with_space(inst.space)
                .with_buffer(800)
                .with_net(net)
        };
        let fleet = |net: NetConfig| builder(net).with_shards(4, 4).with_replicas(2);
        let retry = NetConfig::default().with_retry(RetryPolicy::attempts(4));
        let breakers = retry.with_breakers(BreakerConfig::enabled());
        let plan = FaultPlan::seeded(seed);
        let drops = plan.with_drops(0.01);
        let stack: Vec<(&str, Deployment)> = vec![
            ("flat", builder(NetConfig::default()).build()),
            (
                "net.router.x1_added_ns",
                builder(NetConfig::default()).with_shards(1, 1).build(),
            ),
            (
                "net.router.x4_added_ns",
                builder(NetConfig::default()).with_shards(4, 4).build(),
            ),
            (
                "net.router.x4r2_added_ns",
                fleet(NetConfig::default()).build(),
            ),
            (
                "net.fault.noop_added_ns",
                fleet(NetConfig::default()).with_faults(plan).build(),
            ),
            (
                "net.fault.retry_armed_added_ns",
                fleet(retry).with_faults(plan).build(),
            ),
            (
                "net.fault.drops_added_ns",
                fleet(retry).with_faults(drops).build(),
            ),
            (
                "net.health.breaker_added_ns",
                fleet(breakers).with_faults(drops).build(),
            ),
            (
                "net.codec.v2_added_ns",
                fleet(breakers.with_wire_v2(true))
                    .with_faults(drops)
                    .build(),
            ),
        ];
        // A cold client cache: every lookup misses, every answer is
        // admitted. A fresh deployment per round, so none is ever warm.
        let cold: Vec<Deployment> = (0..=ROUNDS)
            .map(|_| builder(NetConfig::default().with_client_cache(true)).build())
            .collect();
        let spec = join_spec(&inst.s);
        let exchanges = SrJoin::default()
            .run(&stack[0].1, &spec)
            .expect("ladder join")
            .total_queries() as f64;
        let mut names: Vec<&str> = stack.iter().map(|r| r.0).collect();
        names.push("net.cache.miss_added_ns");
        let ns = self.interleaved("ladder", &names, ROUNDS, |rung, round| {
            let dep = stack.get(rung).map_or(&cold[round], |r| &r.1);
            std::hint::black_box(
                SrJoin::default()
                    .run(dep, &spec)
                    .expect("ladder join")
                    .pairs
                    .len(),
            );
        });
        let step = |above: usize, below: usize| -> f64 {
            let steps: Vec<f64> = ns[above]
                .iter()
                .zip(&ns[below])
                .map(|(a, b)| a - b)
                .collect();
            stats::median(&steps) / exchanges
        };
        for (rung, name) in names.iter().enumerate().skip(1) {
            // Every rung stands on the one below, the cache rung (the last)
            // on the flat one.
            let below = if rung == stack.len() { 0 } else { rung - 1 };
            self.put(name, step(rung, below));
        }
    }
}
