//! End-to-end property tests: every distributed algorithm equals the
//! brute-force oracle on arbitrary small workloads, buffers and ε —
//! the whole stack (codec, meters, servers, physical operators, cost
//! model, duplicate avoidance) under random fire — every ε and
//! half-extent hint a spec can hold means what `spec.rs`'s one
//! definition says on every deployment shape
//! ([`every_eps_means_one_thing_on_every_deployment`]), and the seeded fault
//! layer's two structural laws hold per request on arbitrary scripts:
//! at a fixed fault seed, success never falls as the retry budget grows
//! ([`success_is_monotone_in_the_retry_budget`]) or as the replica count
//! grows ([`success_is_monotone_in_the_replica_count`]).

use std::ops::Range;
use std::sync::Mutex;

use adhoc_spatial_joins::prelude::*;
use asj_core::{DeploymentBuilder, JoinError};
use asj_geom::sweep::nested_loop_join;
use asj_net::{BreakerConfig, FaultPlan, LinkSnapshot, Request, Response, RetryPolicy};
use proptest::prelude::*;

fn coord() -> impl Strategy<Value = f64> {
    // f32-representable, inside the 10k space.
    (0i32..=40_000).prop_map(|v| v as f64 * 0.25)
}

fn dataset(sizes: Range<usize>) -> impl Strategy<Value = Vec<SpatialObject>> {
    prop::collection::vec((coord(), coord()), sizes).prop_map(|pts| {
        pts.into_iter()
            .enumerate()
            .map(|(i, (x, y))| SpatialObject::point(i as u32, x, y))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn all_algorithms_equal_oracle(
        r in dataset(0..60),
        s in dataset(0..60),
        eps in 1.0f64..2000.0,
        buffer in 10usize..200,
        bucket in any::<bool>(),
    ) {
        let spec = JoinSpec::distance_join(eps).with_bucket_nlsj(bucket);
        let mut want = nested_loop_join(&r, &s, &spec.predicate);
        want.sort_unstable();

        let space = Rect::from_coords(0.0, 0.0, 10_000.0, 10_000.0);
        let dep = DeploymentBuilder::new(r.clone(), s.clone())
            .with_space(space)
            .with_buffer(buffer)
            .cooperative() // lets SemiJoin run too
            .build();
        let algos: Vec<Box<dyn DistributedJoin>> = vec![
            Box::new(GridJoin::new(4)),
            Box::new(MobiJoin),
            Box::new(UpJoin::default()),
            Box::new(SrJoin::default()),
            Box::new(SemiJoin::default()),
        ];
        for algo in algos {
            let rep = algo.run(&dep, &spec).unwrap();
            let mut got = rep.pairs.clone();
            got.sort_unstable();
            prop_assert_eq!(
                &got, &want,
                "{} diverged (eps={}, buffer={}, bucket={})",
                algo.name(), eps, buffer, bucket
            );
            // SemiJoin does the join server-side, exempt from the device
            // buffer; everyone else must respect it.
            if rep.algorithm != "semijoin" {
                prop_assert!(rep.peak_buffer <= buffer);
            }
        }
    }
}

/// Every class of ε that `spec.rs`'s definition names: negative, ±0,
/// NaN, a subnormal, ±∞, beyond f32's range, and an ordinary positive ε.
fn any_eps() -> impl Strategy<Value = f64> {
    prop_oneof![
        (1.0f64..2000.0).prop_map(|eps| -eps),
        Just(-0.0),
        Just(0.0),
        Just(f64::NAN),
        Just(f64::MIN_POSITIVE / 1024.0),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(1e39),
        1.0f64..2000.0,
    ]
}

/// The deployment shapes a spec must mean one thing on.
const SHAPES: [&str; 4] = ["flat", "2x2 fleet", "cached", "v2"];

fn deploy(shape: &str, r: &[SpatialObject], s: &[SpatialObject], buffer: usize) -> Deployment {
    let builder = DeploymentBuilder::new(r.to_vec(), s.to_vec())
        .with_space(Rect::from_coords(0.0, 0.0, 10_000.0, 10_000.0))
        .with_buffer(buffer)
        .cooperative(); // lets SemiJoin run too
    match shape {
        "flat" => builder,
        "2x2 fleet" => builder.with_shards(2, 2),
        "cached" => builder.with_client_cache(true),
        _ => builder.with_net(NetConfig::default().with_wire_v2(true)),
    }
    .build()
}

/// One drawn ε case: points or boxes (up to 200 on a side, clipped to
/// the 10k space), an ε, and a half-extent hint that is 0, the data's
/// true bound (its largest MBR half-diagonal) or that bound negated.
#[derive(Debug)]
struct EpsCase {
    r: Vec<SpatialObject>,
    s: Vec<SpatialObject>,
    eps: f64,
    hint: f64,
    buffer: usize,
}

fn eps_case() -> impl Strategy<Value = EpsCase> {
    // `(corner, extent)`, the extent in quarter units.
    let drawn = || prop::collection::vec(((coord(), coord()), (0u32..=800, 0u32..=800)), 0..40);
    (
        any::<bool>(),
        (drawn(), drawn()),
        any_eps(),
        0usize..3,
        10usize..200,
    )
        .prop_map(|(boxes, (r, s), eps, hint, buffer)| {
            let edge = |lo: f64, quarters: u32| (lo + f64::from(quarters) * 0.25).min(10_000.0);
            let objects = |drawn: Vec<((f64, f64), (u32, u32))>| -> Vec<SpatialObject> {
                let drawn = drawn.into_iter().enumerate();
                drawn
                    .map(|(i, ((x, y), (w, h)))| {
                        let (w, h) = if boxes { (w, h) } else { (0, 0) };
                        let mbr = Rect::from_coords(x, y, edge(x, w), edge(y, h));
                        SpatialObject::new(i as u32, mbr)
                    })
                    .collect()
            };
            let (r, s) = (objects(r), objects(s));
            let bound = r
                .iter()
                .chain(&s)
                .map(|o| o.mbr.width().hypot(o.mbr.height()) * 0.5)
                .fold(0.0f64, f64::max);
            EpsCase {
                r,
                s,
                eps,
                hint: [0.0, bound, -bound][hint],
                buffer,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A distance join pairs `r` and `s` within |ε| whatever sign ε is
    /// written with, reads NaN and +∞ as they are and −∞ as +∞, and reads
    /// a negative half-extent hint as its absolute value. Every algorithm,
    /// with bucket NLSJ off and on, on a flat, a 2×2 fleet, a cached and a
    /// v2 deployment, returns the nested-loop reference's pairs under
    /// that reading, or fails typed. Here the one typed failure is
    /// NaiveJoin's, which needs a whole side in the buffer: every
    /// deployment is fault-free and cooperative.
    #[test]
    fn every_eps_means_one_thing_on_every_deployment(case in eps_case()) {
        let EpsCase { r, s, eps, hint, buffer } = &case;
        let defined = JoinPredicate::WithinDistance(eps.abs());
        let mut want = nested_loop_join(r, s, &defined);
        want.sort_unstable();
        for shape in SHAPES {
            let dep = deploy(shape, r, s, *buffer);
            let algos: [Box<dyn DistributedJoin>; 6] = [
                Box::new(GridJoin::new(4)),
                Box::new(MobiJoin),
                Box::new(UpJoin::default()),
                Box::new(SrJoin::default()),
                Box::new(SemiJoin::default()),
                Box::new(NaiveJoin),
            ];
            for algo in &algos {
                for bucket in [false, true] {
                    let spec = JoinSpec::distance_join(*eps)
                        .with_mbr_half_extent(*hint)
                        .with_bucket_nlsj(bucket);
                    let at = format!("{} on {}, bucket NLSJ {}", algo.name(), shape, bucket);
                    match algo.run(&dep, &spec) {
                        Ok(rep) => {
                            let mut got = rep.pairs;
                            got.sort_unstable();
                            prop_assert_eq!(&got, &want, "{}: {:?}", at, case);
                        }
                        Err(JoinError::Buffer(_)) if algo.name() == "naive" => {}
                        Err(e) => prop_assert!(false, "{} failed ({}): {:?}", at, e, case),
                    }
                }
            }
        }
    }
}

/// One step of a fault script: `(to S, kind, corner, extent)`.
type Step = (bool, u8, (f64, f64), (u32, u32));

/// The `i`-th request of a fault script: a COUNT, WINDOW or ε-RANGE
/// whose rectangle is `1 + i/32` wider than its drawn extent, so no two
/// requests of a script are equal. The fault layer keys a request's
/// attempt counter on its bytes: a request asked twice would start its
/// second asking where its first left off, at every budget differently.
fn fault_request(i: usize, (_, kind, (x, y), (w, h)): Step) -> Request {
    let q = Rect::from_coords(
        x,
        y,
        x + f64::from(w) + 1.0 + i as f64 / 32.0,
        y + f64::from(h),
    );
    match kind {
        0 => Request::Count(q),
        1 => Request::Window(q),
        _ => Request::EpsRange {
            q,
            eps: f64::from(h) * 0.25,
        },
    }
}

/// One drawn fault case: a seeded drop plan over a flat or a 2×2
/// deployment on wire v1 or v2, and the script its two links are asked.
#[derive(Debug)]
struct FaultCase {
    seed: u64,
    drop_rate: f64,
    sharded: bool,
    wire_v2: bool,
    r: Vec<SpatialObject>,
    s: Vec<SpatialObject>,
    script: Vec<(bool, Request)>,
}

fn fault_case() -> impl Strategy<Value = FaultCase> {
    let step = (
        any::<bool>(),
        0u8..3,
        (coord(), coord()),
        (0u32..4_000, 0u32..4_000),
    );
    (
        any::<u64>(),
        // Tenths, so a clean plan is drawn as often as any lossy one.
        (0u32..=6).prop_map(|tenths| f64::from(tenths) / 10.0),
        (any::<bool>(), any::<bool>()),
        (dataset(8..60), dataset(8..60)),
        prop::collection::vec(step, 8..25),
    )
        .prop_map(|(seed, drop_rate, (sharded, wire_v2), (r, s), steps)| {
            let script = steps.into_iter().enumerate();
            FaultCase {
                seed,
                drop_rate,
                sharded,
                wire_v2,
                r,
                s,
                script: script
                    .map(|(i, step)| (step.0, fault_request(i, step)))
                    .collect(),
            }
        })
}

/// What one build of a fault case answered: every reply in script order
/// and both links' meters after the script.
#[derive(Debug, PartialEq)]
struct FaultRun {
    replies: Vec<Response>,
    meters: [LinkSnapshot; 2],
}

impl FaultRun {
    fn answered(&self) -> impl Iterator<Item = bool> + '_ {
        self.replies.iter().map(|r| *r != Response::Unavailable)
    }

    fn metered(&self) -> LinkSnapshot {
        self.meters[0].plus(&self.meters[1])
    }
}

/// Builds `case`'s deployment with `budget` attempts per exchange and
/// `replicas` servers per shard, breakers off, and asks it the script
/// one request at a time. Then holds the run to the laws that need no
/// sibling run:
/// * a clean plan answers everything, with nothing retried or failed over;
/// * one replica never fails over;
/// * with a retry budget, every unavailable reply was metered abandoned —
///   exactly once where a request is settled once (a flat deployment),
///   at least once on the 2×2 fleet, where each shard a request reaches
///   is settled on its own.
fn fault_run(case: &FaultCase, budget: u32, replicas: usize) -> Result<FaultRun, TestCaseError> {
    let net = NetConfig::default()
        .with_wire_v2(case.wire_v2)
        .with_retry(RetryPolicy::attempts(budget))
        .with_breakers(BreakerConfig::disabled());
    let mut builder = DeploymentBuilder::new(case.r.clone(), case.s.clone())
        .with_space(Rect::from_coords(0.0, 0.0, 10_000.0, 10_000.0))
        .with_net(net)
        .with_replicas(replicas)
        .with_faults(FaultPlan::seeded(case.seed).with_drops(case.drop_rate));
    if case.sharded {
        builder = builder.with_shards(2, 2);
    }
    let (link_r, link_s) = builder.build().connect();
    let replies = case.script.iter();
    let replies = replies.map(|(to_s, req)| if *to_s { &link_s } else { &link_r }.request(req));
    let run = FaultRun {
        replies: replies.collect(),
        meters: [link_r.meter().snapshot(), link_s.meter().snapshot()],
    };
    let at = format!(
        "seed {}, drop {}, sharded {}, v2 {}, budget {budget} x {replicas} replicas",
        case.seed, case.drop_rate, case.sharded, case.wire_v2
    );
    let metered = run.metered();
    if case.drop_rate == 0.0 {
        prop_assert!(
            run.answered().all(|a| a),
            "a clean plan lost a reply, {}",
            at
        );
        prop_assert_eq!(
            (metered.retried, metered.failovers),
            (0, 0),
            "clean, {}",
            at
        );
    }
    if replicas == 1 {
        prop_assert_eq!(metered.failovers, 0, "no sibling to fail over to, {}", at);
    }
    if budget > 1 {
        let unavailable = run.answered().filter(|a| !a).count() as u64;
        if case.sharded {
            prop_assert!(metered.abandoned >= unavailable, "{}", at);
        } else {
            prop_assert_eq!(metered.abandoned, unavailable, "{}", at);
        }
    }
    Ok(run)
}

/// Runs of one case along one axis (budget or replica count), in
/// increasing order: per request, whatever a smaller value answered the
/// next value answers too. Returns how many requests the largest value
/// answered beyond the smallest.
fn nested(runs: &[FaultRun], axis: &str) -> Result<usize, TestCaseError> {
    for (k, pair) in runs.windows(2).enumerate() {
        let answers = pair[0].answered().zip(pair[1].answered());
        for (i, (smaller, larger)) in answers.enumerate() {
            prop_assert!(
                !smaller || larger,
                "request {} was answered at {} {} and lost at {} {}",
                i,
                axis,
                k + 1,
                axis,
                k + 2
            );
        }
    }
    let (first, last) = (&runs[0], &runs[runs.len() - 1]);
    Ok(last.answered().filter(|a| *a).count() - first.answered().filter(|a| *a).count())
}

/// Cases per fault law.
const FAULT_CASES: u32 = 256;

/// What a fault law's cases saw over its whole run. Each law holds
/// vacuously on a run that never lost a reply, so its last case also
/// asserts the run drew a clean plan, retried, failed over, and
/// answered more at the largest value than at the smallest.
struct Seen {
    cases: u32,
    clean: bool,
    retried: bool,
    failed_over: bool,
    gained: bool,
}

impl Seen {
    const fn new() -> Self {
        Seen {
            cases: 0,
            clean: false,
            retried: false,
            failed_over: false,
            gained: false,
        }
    }

    fn note(
        &mut self,
        case: &FaultCase,
        runs: &[FaultRun],
        gain: usize,
    ) -> Result<(), TestCaseError> {
        self.cases += 1;
        self.clean |= case.drop_rate == 0.0;
        self.retried |= runs.iter().any(|r| r.metered().retried > 0);
        self.failed_over |= runs.iter().any(|r| r.metered().failovers > 0);
        self.gained |= gain > 0;
        if self.cases == FAULT_CASES {
            prop_assert!(self.clean, "no case drew a clean plan");
            prop_assert!(self.retried, "no case retried: the fault layer never fired");
            prop_assert!(self.failed_over, "no case failed over to a sibling");
            prop_assert!(
                self.gained,
                "the largest value never answered more than the smallest"
            );
        }
        Ok(())
    }
}

static BUDGET_RUN: Mutex<Seen> = Mutex::new(Seen::new());
static REPLICA_RUN: Mutex<Seen> = Mutex::new(Seen::new());

proptest! {
    #![proptest_config(ProptestConfig::with_cases(FAULT_CASES))]

    /// At a fixed fault seed, raising the retry budget only appends
    /// attempts: a request answered within `b` attempts is answered
    /// within `b + 1` (the fault layer's rolls are a pure function of
    /// the seed, the request's bytes and the attempt index).
    #[test]
    fn success_is_monotone_in_the_retry_budget(
        case in fault_case(),
        replicas in 1usize..=3,
    ) {
        let runs = (1..=4).map(|budget| fault_run(&case, budget, replicas));
        let runs = runs.collect::<Result<Vec<_>, _>>()?;
        let gain = nested(&runs, "budget")?;
        prop_assert_eq!(&fault_run(&case, 4, replicas)?, &runs[3], "a rebuild replays");
        BUDGET_RUN.lock().unwrap().note(&case, &runs, gain)?;
    }

    /// At a fixed fault seed, adding a replica only adds a sibling:
    /// replica `j`'s fault stream does not depend on how many replicas
    /// there are, and a failed try fails over before it spends budget,
    /// so the tries `n` replicas make are a subset of those `n + 1` make.
    #[test]
    fn success_is_monotone_in_the_replica_count(
        case in fault_case(),
        budget in 1u32..=4,
    ) {
        let runs = (1..=3).map(|replicas| fault_run(&case, budget, replicas));
        let runs = runs.collect::<Result<Vec<_>, _>>()?;
        let gain = nested(&runs, "replicas")?;
        prop_assert_eq!(&fault_run(&case, budget, 3)?, &runs[2], "a rebuild replays");
        REPLICA_RUN.lock().unwrap().note(&case, &runs, gain)?;
    }
}
