//! The five workloads. Each is a closed loop with one client (two worker
//! threads on `many_devices`), built through `DeploymentBuilder` from
//! inputs generated out of the seed.

use std::panic::{catch_unwind, AssertUnwindSafe};

use asj_core::{
    Deployment, DeploymentBuilder, DistributedJoin, GridJoin, JoinReport, JoinSpec, MobiJoin,
    NaiveJoin, SemiJoin, Side, SrJoin, UpJoin,
};
use asj_device::{run_traffic, DeviceOutcome, TrafficConfig};
use asj_geom::SpatialObject;
use asj_net::{BreakerConfig, FaultPlan, NetConfig, RetryPolicy, Update};
use asj_server::apply_updates_to;
use asj_workloads::{TrajectorySpec, TrajectoryStream};

use crate::check::{pair_digest, reference_digest, Tally};
use crate::data::{self, Instance, EPS};
use crate::measure::Recorder;

/// Name and reason of every workload, in running order.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "rail_inproc",
        "Fig. 8 joins with no carrier hop: store probes, codec, planning and device leaves do all the work; a link-stack change must not move it",
    ),
    (
        "rail_fleet",
        "the same joins through the whole link stack: threaded 4x4 shards x 2 replicas, faults, retry, breakers, wire v2",
    ),
    (
        "dense_device",
        "tens of thousands of result pairs: the device's sweep and grid-hash kernels dominate, and one 6000x6000 sweep can use every core",
    ),
    (
        "live_session",
        "update ticks beside joins over the event loop with the client cache on: store rebuilds and cache re-warm sit next to reads",
    ),
    (
        "many_devices",
        "two workers driving 256 device scripts through one reactor: queueing, shared endpoints and pool hand-off, no planner",
    ),
];

/// Fewest timed blocks of any run, however short.
pub const MIN_BLOCKS: usize = 9;
/// The run length the reference sizes below are cut for.
const REFERENCE_SECONDS: f64 = 10.0;

/// How much work a run does. A pure function of `--seconds`, so two runs
/// with the same arguments execute exactly the same operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Plan {
    pub blocks: usize,
    /// Join instances in the ensemble (deployments on `many_devices`: 1).
    pub instances: usize,
    /// Sweeps over the whole ensemble per block (`many_devices`:
    /// `run_traffic` calls per block).
    pub passes: usize,
}

pub fn plan(workload: &str, seconds: f64) -> Plan {
    // Sized on the 2-core reference container so the timed phase of a
    // 10-second run takes about 10 seconds. Between seeds the work of a
    // run varies with the number of instances (more is steadier), within
    // a run the medians steady with the number of blocks; a cycle of
    // `live_session` is dear, so it trades blocks for instances.
    let (blocks, instances, passes) = match workload {
        "rail_inproc" => (15, 48, 1),
        "rail_fleet" => (15, 30, 1),
        "dense_device" => (15, 10, 1),
        "live_session" => (10, 18, 1),
        "many_devices" => (15, 1, 5),
        other => panic!("unknown workload {other}"),
    };
    let f = seconds / REFERENCE_SECONDS;
    if f >= 1.0 {
        return Plan {
            blocks,
            instances,
            passes: passes * f as usize,
        };
    }
    // Shorter runs drop blocks first, then shrink the work of a block.
    let fewer = ((blocks as f64 * f).round() as usize).max(MIN_BLOCKS);
    let per_block = f * blocks as f64 / fewer as f64;
    let shrink = |n: usize, floor: usize| ((n as f64 * per_block).round() as usize).max(floor);
    if workload == "many_devices" {
        Plan {
            blocks: fewer,
            instances,
            passes: shrink(passes, 1),
        }
    } else {
        Plan {
            blocks: fewer,
            instances: shrink(instances * passes, 2),
            passes: 1,
        }
    }
}

/// Whether the workload's process pins itself to one CPU.
pub fn pinned(workload: &str) -> bool {
    // `dense_device` stays unpinned so a parallel kernel can show a gain —
    // and so its cost shows in `cpu_ms_per_op`.
    workload != "dense_device"
}

/// The op kinds of a workload, in the order its latencies are recorded.
pub fn kinds(workload: &str) -> Vec<&'static str> {
    match workload {
        "rail_inproc" => vec!["grid", "mobi", "up", "sr", "semi"],
        "rail_fleet" => PLANNERS.to_vec(),
        "dense_device" => vec!["grid", "mobi", "up", "sr", "naive"],
        // Every algorithm cold (first round after a tick, the client cache
        // misses) and warm (later rounds, it hits), in `PLANNERS` order.
        "live_session" => vec![
            "grid.cold",
            "grid",
            "mobi.cold",
            "mobi",
            "up.cold",
            "up",
            "sr.cold",
            "sr",
        ],
        "many_devices" => vec!["device"],
        other => panic!("unknown workload {other}"),
    }
}

/// What a workload's deployments are made of, for the attribution of op
/// time to layers.
pub struct Stack {
    /// `inproc`, `threaded` or `event_loop`.
    pub carrier: &'static str,
    /// Replicas, fault layer, retry, breakers and wire v2 on top of the
    /// shard router (`rail_fleet`).
    pub full_fleet: bool,
    /// Whether the device's kernels run inside the timed operations.
    pub device_in_op: bool,
}

pub fn stack(workload: &str) -> Stack {
    Stack {
        carrier: match workload {
            "rail_fleet" => "threaded",
            "live_session" | "many_devices" => "event_loop",
            _ => "inproc",
        },
        full_fleet: workload == "rail_fleet",
        // `many_devices` scans its windows between the timed requests.
        device_in_op: workload != "many_devices",
    }
}

pub trait Workload {
    /// First `connect()` and one operation of every kind: the tail of
    /// set-up, so lazily built state is paid for there.
    fn warm(&mut self);
    /// Compares every kind's answer on every instance with brute force
    /// and keeps the verified digests for the timed operations.
    fn verify(&mut self) -> Tally;
    fn run_block(&mut self, rec: &mut Recorder, passes: usize);
}

pub fn build(workload: &str, seed: u64, plan: Plan) -> Box<dyn Workload> {
    match workload {
        "rail_inproc" => Box::new(rail_inproc(seed, plan.instances)),
        "rail_fleet" => Box::new(rail_fleet(seed, plan.instances)),
        "dense_device" => Box::new(dense_device(seed, plan.instances)),
        "live_session" => Box::new(LiveSession::new(seed, plan.instances)),
        "many_devices" => Box::new(ManyDevices::new(seed)),
        other => panic!("unknown workload {other}"),
    }
}

/// One algorithm of a workload's round-robin.
struct Algo {
    tag: &'static str,
    join: Box<dyn DistributedJoin>,
    /// Which of a member's deployments it runs on.
    dep: usize,
}

fn algo(tag: &'static str, dep: usize) -> Algo {
    let join: Box<dyn DistributedJoin> = match tag {
        "grid" => Box::new(GridJoin::new(8)),
        "mobi" => Box::new(MobiJoin),
        "up" => Box::new(UpJoin::default()),
        "sr" => Box::new(SrJoin::default()),
        "semi" => Box::new(SemiJoin::default()),
        "naive" => Box::new(NaiveJoin),
        other => panic!("unknown algorithm {other}"),
    };
    Algo { tag, join, dep }
}

pub fn join_spec(s: &[SpatialObject]) -> JoinSpec {
    JoinSpec::distance_join(EPS).with_mbr_half_extent(data::half_extent_hint(s))
}

/// What a completed join answered.
struct Answer {
    digest: u64,
    /// Lifetime evictions of the deployment's client caches (0 without).
    cache_evictions: u64,
}

/// Runs one join as one timed operation and checks it afterwards.
fn run_join(
    rec: &mut Recorder,
    kind: usize,
    cell: usize,
    algo: &Algo,
    dep: &Deployment,
    spec: &JoinSpec,
    expected: Option<u64>,
) -> Option<Answer> {
    let name = format!("join.{}", algo.tag);
    // A join that meets an unavailable server panics inside the planner;
    // for the benchmark that is a failed operation, not the end of the run.
    let (out, t) = rec.timed("core", &name, || {
        catch_unwind(AssertUnwindSafe(|| algo.join.run(dep, spec)))
    });
    match out {
        Ok(Ok(report)) => {
            let digest = pair_digest(&report.pairs);
            let ok = report.coverage >= 1.0 && expected.map_or(true, |e| e == digest);
            count_report(rec, algo.tag, &report);
            rec.finish_op(kind, cell, t.at_s, t.wall_ms, ok, report.total_bytes());
            Some(Answer {
                digest,
                cache_evictions: report.cache().map_or(0, |c| c.evictions),
            })
        }
        _ => {
            rec.finish_op(kind, cell, t.at_s, t.wall_ms, false, 0);
            None
        }
    }
}

/// Folds the exact counters of one join's report into the block.
fn count_report(rec: &mut Recorder, tag: &str, report: &JoinReport) {
    rec.count(&format!("core.{tag}.ops"), 1.0);
    rec.count(
        &format!("core.{tag}.queries"),
        report.total_queries() as f64,
    );
    rec.count(
        &format!("core.{tag}.hbsj_runs"),
        f64::from(report.stats.hbsj_runs),
    );
    let links = [&report.link_r, &report.link_s];
    let sum = |f: &dyn Fn(&asj_net::LinkSnapshot) -> u64| -> f64 {
        links.iter().map(|l| f(l)).sum::<u64>() as f64
    };
    rec.count("link.count_queries", sum(&|l| l.count_queries));
    rec.count(
        "link.object_queries",
        sum(&|l| l.total_queries() - l.count_queries),
    );
    rec.count("link.objects", sum(&|l| l.objects_received));
    rec.count("join.pairs", report.pairs.len() as f64);
    rec.count("link.retried", sum(&|l| l.retried));
    rec.count("link.failovers", sum(&|l| l.failovers));
    rec.count("link.breaker_open", sum(&|l| l.breaker_open));
    for fleet in [&report.fleet_r, &report.fleet_s].into_iter().flatten() {
        rec.count("router.scattered", fleet.scattered as f64);
        rec.count("router.pruned", fleet.pruned as f64);
        // Every logical request has one slot per shard, scattered or pruned.
        rec.count(
            "router.requests",
            (fleet.scattered + fleet.pruned) as f64 / fleet.shard_count() as f64,
        );
    }
    if let Some(cache) = report.cache() {
        let hits = cache.stats_hits + cache.window_hits + cache.probe_hits;
        let misses = cache.stats_misses + cache.window_misses + cache.probe_misses;
        rec.count("cache.hits", hits as f64);
        rec.count("cache.misses", misses as f64);
        rec.count("cache.bytes_saved", cache.bytes_saved as f64);
    }
}

/// One join instance: its deployments (one per buffer size the workload
/// uses), the join and — once verified — the digest of the right answer.
struct Member {
    deps: Vec<Deployment>,
    spec: JoinSpec,
    expected: Option<u64>,
}

/// An ensemble of frozen join instances swept round-robin: every pass
/// runs every algorithm on every member.
pub struct JoinEnsemble {
    members: Vec<Member>,
    algos: Vec<Algo>,
    /// Regenerates the datasets of group `g` of members (the instances of
    /// one rail map, or a single instance) for verification, so the run
    /// does not hold a second copy of every dataset while it measures.
    regenerate: Box<dyn Fn(usize) -> Vec<Instance>>,
    /// Consecutive R objects per brute-force chunk (one cluster).
    chunk: usize,
}

impl JoinEnsemble {
    fn new(
        instances: usize,
        regenerate: impl Fn(usize) -> Vec<Instance> + 'static,
        deploy: impl Fn(&Instance) -> Vec<Deployment>,
        algos: Vec<Algo>,
        chunk: usize,
    ) -> Self {
        let members: Vec<Member> = (0..)
            .flat_map(&regenerate)
            .take(instances)
            .map(|inst| Member {
                deps: deploy(&inst),
                spec: join_spec(&inst.s),
                expected: None,
            })
            .collect();
        JoinEnsemble {
            members,
            algos,
            regenerate: Box::new(regenerate),
            chunk,
        }
    }

    #[cfg(test)]
    fn corrupt_expected(&mut self) {
        for m in &mut self.members {
            m.expected = m.expected.map(|d| d ^ 1);
        }
    }
}

impl Workload for JoinEnsemble {
    fn warm(&mut self) {
        let m = &self.members[0];
        for dep in &m.deps {
            drop(dep.connect());
        }
        for a in &self.algos {
            a.join.run(&m.deps[a.dep], &m.spec).expect("warm-up join");
        }
    }

    fn verify(&mut self) -> Tally {
        let mut rec = Recorder::new(self.algos.len(), None);
        let instances = (0..).flat_map(&self.regenerate);
        for (i, (m, inst)) in self.members.iter_mut().zip(instances).enumerate() {
            let expected = reference_digest(&inst.r, &inst.s, &m.spec.predicate, self.chunk);
            m.expected = Some(expected);
            for (k, a) in self.algos.iter().enumerate() {
                run_join(&mut rec, k, i, a, &m.deps[a.dep], &m.spec, m.expected);
            }
        }
        rec.tally()
    }

    fn run_block(&mut self, rec: &mut Recorder, passes: usize) {
        for _ in 0..passes {
            for (i, m) in self.members.iter().enumerate() {
                for (k, a) in self.algos.iter().enumerate() {
                    run_join(rec, k, i, a, &m.deps[a.dep], &m.spec, m.expected);
                }
            }
        }
    }
}

fn rail_inproc(seed: u64, instances: usize) -> JoinEnsemble {
    JoinEnsemble::new(
        instances,
        move |map| data::rail_map(seed, map),
        |inst| {
            vec![DeploymentBuilder::new(inst.r.clone(), inst.s.clone())
                .with_space(inst.space)
                .with_buffer(800)
                .cooperative()
                .build()]
        },
        kinds("rail_inproc")
            .into_iter()
            .map(|t| algo(t, 0))
            .collect(),
        data::RAIL_CLUSTER_POINTS,
    )
}

/// The network configuration of `rail_fleet`: everything on.
pub fn fleet_net() -> NetConfig {
    NetConfig::default()
        .with_wire_v2(true)
        .with_retry(RetryPolicy::attempts(4))
        .with_breakers(BreakerConfig::enabled())
}

fn rail_fleet(seed: u64, instances: usize) -> JoinEnsemble {
    JoinEnsemble::new(
        instances,
        move |map| data::rail_map(seed, map),
        move |inst| {
            vec![DeploymentBuilder::new(inst.r.clone(), inst.s.clone())
                .with_space(inst.space)
                .with_buffer(800)
                .with_net(fleet_net())
                .threaded()
                .with_shards(4, 4)
                .with_replicas(2)
                // Faults are a pure function of (seed, request bytes,
                // attempt), so retry and failover counts repeat exactly.
                .with_faults(FaultPlan::seeded(seed).with_drops(0.01))
                .build()]
        },
        kinds("rail_fleet")
            .into_iter()
            .map(|t| algo(t, 0))
            .collect(),
        data::RAIL_CLUSTER_POINTS,
    )
}

fn dense_device(seed: u64, instances: usize) -> JoinEnsemble {
    // The naive join downloads both sides whole: it needs the deployment
    // whose buffer holds them, and is the one op that is a single big sweep.
    let algos = kinds("dense_device")
        .into_iter()
        .map(|t| algo(t, usize::from(t == "naive")))
        .collect();
    JoinEnsemble::new(
        instances,
        move |i| vec![data::dense_instance(seed, i)],
        |inst| {
            [800, 12_000]
                .into_iter()
                .map(|buffer| {
                    DeploymentBuilder::new(inst.r.clone(), inst.s.clone())
                        .with_space(inst.space)
                        .with_buffer(buffer)
                        .build()
                })
                .collect()
        },
        algos,
        data::DENSE_CLUSTER_POINTS,
    )
}

/// Rounds of the four algorithms after each update tick; the first round
/// re-warms the client cache, the others hit it.
const LIVE_ROUNDS: usize = 3;
/// The algorithms that run on any deployment: no cooperative servers
/// (semi), no buffer that holds both datasets (naive).
const PLANNERS: [&str; 4] = ["grid", "mobi", "up", "sr"];

struct LiveMember {
    /// Its place in the ensemble at set-up (the block loop rotates them).
    id: usize,
    dep: Deployment,
    spec: JoinSpec,
    r_stream: TrajectoryStream,
    s_stream: TrajectoryStream,
    /// What the servers must hold now: the initial datasets folded with
    /// every batch sent so far.
    offline_r: Vec<SpatialObject>,
    offline_s: Vec<SpatialObject>,
    evictions_seen: u64,
}

/// Live deployments: one cycle is an update tick on both sides, then
/// [`LIVE_ROUNDS`] rounds of the four algorithms.
pub struct LiveSession {
    members: Vec<LiveMember>,
    algos: Vec<Algo>,
}

fn moves(moved: Vec<SpatialObject>) -> Vec<Update> {
    moved
        .into_iter()
        .map(|o| Update::Move {
            id: o.id,
            to: o.mbr,
        })
        .collect()
}

impl LiveSession {
    fn new(seed: u64, instances: usize) -> Self {
        let members = (0..)
            .flat_map(|map| data::rail_map(seed, map))
            .take(instances)
            .enumerate()
            .map(|(i, inst)| {
                let stream = |objects: &[SpatialObject], fraction: f64, salt: usize| {
                    let spec = TrajectorySpec {
                        move_fraction: fraction,
                        ..TrajectorySpec::default()
                    };
                    TrajectoryStream::new(
                        objects,
                        spec,
                        data::sub_seed(seed, 0x7472_616a, 2 * i + salt),
                    )
                };
                LiveMember {
                    id: i,
                    // ~200 of R's points and ~35 of S's segments move per tick.
                    r_stream: stream(&inst.r, 0.2, 0),
                    s_stream: stream(&inst.s, 0.001, 1),
                    spec: join_spec(&inst.s),
                    dep: DeploymentBuilder::new(inst.r.clone(), inst.s.clone())
                        .with_space(inst.space)
                        .with_buffer(800)
                        .with_client_cache(true)
                        .event_loop()
                        .live()
                        .build(),
                    offline_r: inst.r,
                    offline_s: inst.s,
                    evictions_seen: 0,
                }
            })
            .collect();
        LiveSession {
            members,
            algos: PLANNERS.into_iter().map(|t| algo(t, 0)).collect(),
        }
    }

    /// One cycle on member `i`. With `brute_force` the first join is held
    /// against a brute-force answer on the offline copy; the other eleven
    /// must then reproduce the first join's digest.
    fn cycle(&mut self, rec: &mut Recorder, i: usize, brute_force: bool) {
        let m = &mut self.members[i];
        let batch_r = moves(m.r_stream.tick());
        let batch_s = moves(m.s_stream.tick());
        apply_updates_to(&mut m.offline_r, &batch_r);
        apply_updates_to(&mut m.offline_s, &batch_s);
        let dep = &m.dep;
        let ((), t) = rec.timed("server", "update_tick", || {
            dep.apply_updates(Side::R, batch_r);
            dep.apply_updates(Side::S, batch_s);
        });
        rec.finish_tick(t);
        let mut expected = brute_force.then(|| {
            reference_digest(
                &m.offline_r,
                &m.offline_s,
                &m.spec.predicate,
                data::RAIL_CLUSTER_POINTS,
            )
        });
        for round in 0..LIVE_ROUNDS {
            for (a, algo) in self.algos.iter().enumerate() {
                // Kinds come in pairs: cold (first round after the tick,
                // the cache misses) and warm (later rounds, it hits).
                let kind = 2 * a + usize::from(round > 0);
                if let Some(answer) = run_join(rec, kind, m.id, algo, &m.dep, &m.spec, expected) {
                    expected = expected.or(Some(answer.digest));
                    // A lifetime gauge: count what it grew by.
                    let grown = answer.cache_evictions.saturating_sub(m.evictions_seen);
                    rec.count("cache.evictions", grown as f64);
                    m.evictions_seen += grown;
                }
            }
        }
    }
}

impl Workload for LiveSession {
    fn warm(&mut self) {
        let m = &self.members[0];
        drop(m.dep.connect());
        for a in &self.algos {
            a.join.run(&m.dep, &m.spec).expect("warm-up join");
        }
    }

    fn verify(&mut self) -> Tally {
        let mut rec = Recorder::new(2 * self.algos.len(), None);
        for i in 0..self.members.len() {
            self.cycle(&mut rec, i, true);
        }
        rec.tally()
    }

    fn run_block(&mut self, rec: &mut Recorder, passes: usize) {
        for pass in 0..passes {
            for i in 0..self.members.len() {
                // Brute force once per block, on a member that rotates.
                self.cycle(rec, i, pass == 0 && i == 0);
            }
            self.members.rotate_left(1);
        }
    }
}

/// Devices per `run_traffic` call and the worker threads driving them.
const DEVICES: usize = 256;
const WORKERS: usize = 2;

/// Two closed-loop workers contending for one reactor.
pub struct ManyDevices {
    dep: Deployment,
    cfg: TrafficConfig,
    /// Outcomes of the serial (`workers = 1`) replay every call must
    /// reproduce, device by device.
    serial: Vec<DeviceOutcome>,
    serial_digest: u64,
}

impl ManyDevices {
    fn new(seed: u64) -> Self {
        let inst = data::uniform_instance(seed);
        ManyDevices {
            dep: DeploymentBuilder::new(inst.r, inst.s)
                .with_space(inst.space)
                .event_loop()
                .with_shards(3, 3)
                .build(),
            cfg: TrafficConfig::new(DEVICES, WORKERS, inst.space),
            serial: Vec::new(),
            serial_digest: 0,
        }
    }
}

/// Everything of a device's outcome that must repeat (latencies do not).
fn same_outcome(a: &DeviceOutcome, b: &DeviceOutcome) -> bool {
    (a.digest, a.pairs, a.pair_digest, a.r_meter, a.s_meter)
        == (b.digest, b.pairs, b.pair_digest, b.r_meter, b.s_meter)
}

impl Workload for ManyDevices {
    fn warm(&mut self) {
        let cfg = TrafficConfig {
            devices: WORKERS,
            ..self.cfg
        };
        run_traffic(&cfg, |_| self.dep.connect());
    }

    fn verify(&mut self) -> Tally {
        let cfg = TrafficConfig {
            workers: 1,
            ..self.cfg
        };
        let serial = run_traffic(&cfg, |_| self.dep.connect());
        self.serial_digest = serial.determinism_digest();
        self.serial = serial.outcomes;
        // The serial replay is the reference; one pooled call is held
        // against it here, every timed call later.
        let mut rec = Recorder::new(1, None);
        self.run_block(&mut rec, 1);
        rec.tally()
    }

    fn run_block(&mut self, rec: &mut Recorder, passes: usize) {
        for _ in 0..passes {
            let (report, call) = rec.timed("device", "run_traffic", || {
                run_traffic(&self.cfg, |_| self.dep.connect())
            });
            let whole = report.determinism_digest() == self.serial_digest;
            for (o, reference) in report.outcomes.iter().zip(&self.serial) {
                let ms = o.latencies_us.iter().sum::<u64>() as f64 / 1e3;
                let bytes = o.r_meter.total_bytes() + o.s_meter.total_bytes();
                rec.finish_op(
                    0,
                    o.device,
                    call.at_s,
                    ms,
                    whole || same_outcome(o, reference),
                    bytes,
                );
                let queries = o.r_meter.total_queries() + o.s_meter.total_queries();
                rec.count(
                    "link.count_queries",
                    (o.r_meter.count_queries + o.s_meter.count_queries) as f64,
                );
                rec.count(
                    "link.object_queries",
                    (queries - o.r_meter.count_queries - o.s_meter.count_queries) as f64,
                );
                rec.count(
                    "link.objects",
                    (o.r_meter.objects_received + o.s_meter.objects_received) as f64,
                );
                // One logical request per COUNT and WINDOW of the script.
                rec.count("router.requests", queries as f64);
            }
            let (_, _, p99) = report.latency_percentiles_us();
            rec.observe("event_loop.request_p99_us", p99 as f64);
            rec.observe("event_loop.fairness_ratio", report.fairness_ratio());
            let depth = [Side::R, Side::S]
                .into_iter()
                .flat_map(|side| self.dep.event_stats(side))
                .map(|s| s.max_queue_depth())
                .max()
                .unwrap_or(0);
            rec.observe("event_loop.max_queue_depth", depth as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_a_function_of_seconds_only() {
        assert_eq!(
            plan("rail_inproc", 10.0),
            Plan {
                blocks: 15,
                instances: 48,
                passes: 1
            }
        );
        assert_eq!(plan("rail_inproc", 20.0).passes, 2);
        // A quick run keeps nine blocks and shrinks what a block does.
        let quick = plan("rail_inproc", 1.0);
        assert_eq!((quick.blocks, quick.passes), (9, 1));
        assert!(quick.instances < 16 && quick.instances >= 2);
        assert_eq!(plan("many_devices", 1.0).instances, 1);
        assert!(plan("many_devices", 1.0).passes >= 1);
        for (name, _) in WORKLOADS {
            assert_eq!(plan(name, 3.0), plan(name, 3.0));
            assert!(plan(name, 0.1).blocks >= MIN_BLOCKS);
        }
    }

    #[test]
    fn every_kind_verifies_and_a_wrong_expected_digest_fails_ops() {
        let mut w = rail_inproc(5, 2);
        w.warm();
        let tally = w.verify();
        assert_eq!(
            tally,
            Tally {
                attempted: 10,
                failed: 0
            }
        );
        let mut rec = Recorder::new(5, None);
        w.run_block(&mut rec, 1);
        assert_eq!(rec.tally().failed_share(), 0.0);
        // Feed the checker a wrong expected digest: every op must fail.
        w.corrupt_expected();
        let mut rec = Recorder::new(5, None);
        w.run_block(&mut rec, 1);
        assert_eq!(rec.tally().attempted, 10);
        assert!(rec.tally().failed_share() > 0.0);
        assert_eq!(rec.tally().failed, 10);
    }

    #[test]
    fn live_cycles_agree_with_brute_force_after_every_tick() {
        let mut w = LiveSession::new(9, 2);
        w.warm();
        let tally = w.verify();
        assert_eq!(tally.attempted, 2 * 12);
        assert_eq!(tally.failed, 0);
        let mut rec = Recorder::new(kinds("live_session").len(), None);
        w.run_block(&mut rec, 1);
        assert_eq!((rec.tally().attempted, rec.tally().failed), (24, 0));
    }

    #[test]
    fn pooled_traffic_reproduces_the_serial_replay() {
        let mut w = ManyDevices::new(3);
        w.warm();
        let tally = w.verify();
        assert_eq!((tally.attempted, tally.failed), (DEVICES as u64, 0));
        // A wrong serial digest alone does not fail devices whose own
        // outcome still matches; a wrong outcome does.
        w.serial_digest ^= 1;
        w.serial[0].pairs += 1;
        let mut rec = Recorder::new(1, None);
        w.run_block(&mut rec, 1);
        assert_eq!(rec.tally().failed, 1);
    }
}
