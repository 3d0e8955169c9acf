//! Property tests: the in-memory join kernels and the exactly-once
//! discipline under arbitrary partitioning.

use asj_device::{memjoin, DeviceBuffer, ResultCollector};
use asj_geom::sweep::nested_loop_join;
use asj_geom::{reference_point_in, JoinPredicate, Rect, SpatialObject};
use proptest::prelude::*;

fn coord() -> impl Strategy<Value = f64> {
    (0i32..=4000).prop_map(|v| v as f64 * 0.25)
}

fn dataset(max: usize, id0: u32) -> impl Strategy<Value = Vec<SpatialObject>> {
    prop::collection::vec((coord(), coord(), 0.0f64..20.0, 0.0f64..20.0), 0..max).prop_map(
        move |specs| {
            specs
                .into_iter()
                .enumerate()
                .map(|(i, (x, y, w, h))| {
                    SpatialObject::new(id0 + i as u32, Rect::from_coords(x, y, x + w, y + h))
                })
                .collect()
        },
    )
}

fn space() -> Rect {
    Rect::from_coords(0.0, 0.0, 1005.0, 1005.0)
}

fn oracle(r: &[SpatialObject], s: &[SpatialObject], pred: &JoinPredicate) -> Vec<(u32, u32)> {
    let mut v = nested_loop_join(r, s, pred);
    v.sort_unstable();
    v
}

/// Intersection, touching distance, and ε from 1 to well past the space.
fn predicate() -> impl Strategy<Value = JoinPredicate> {
    prop_oneof![
        Just(JoinPredicate::Intersects),
        Just(JoinPredicate::WithinDistance(0.0)),
        (1.0f64..1500.0).prop_map(JoinPredicate::WithinDistance),
    ]
}

/// A report window inside the space; every fourth one has zero area.
fn window() -> impl Strategy<Value = Rect> {
    (coord(), coord(), coord(), coord(), 0u32..4).prop_map(|(x0, y0, x1, y1, flat)| {
        let x1 = if flat == 0 { x0 } else { x1 };
        Rect::from_coords(x0.min(x1), y0.min(y1), x0.max(x1), y0.max(y1))
    })
}

/// The kernel's whole contract on one window: nested loop, then the
/// reference-point filter against (cell, space).
fn window_equals_filtered_oracle(
    r: &[SpatialObject],
    s: &[SpatialObject],
    pred: &JoinPredicate,
    cell: &Rect,
) -> Result<(), TestCaseError> {
    let mut want = Vec::new();
    for a in r {
        for b in s {
            if reference_point_in(a, b, pred, cell, &space()) {
                want.push((a.id, b.id));
            }
        }
    }
    want.sort_unstable();
    let mut out = ResultCollector::new();
    memjoin::grid_hash_join(r, s, pred, cell, &space(), &mut out);
    let mut got = out.into_pairs();
    got.sort_unstable();
    prop_assert_eq!(got, want);
    Ok(())
}

/// Joins per cell of a 2^depth × 2^depth partition, simulating the
/// windowed downloads (extension covers ε/2 + max half-extent); the union
/// must equal the oracle with no duplicates. The collector itself panics
/// on duplicates in debug builds.
fn partition_equals_oracle(
    r: &[SpatialObject],
    s: &[SpatialObject],
    eps: f64,
    depth: u32,
) -> Result<(), TestCaseError> {
    let pred = JoinPredicate::WithinDistance(eps);
    let max_half = r
        .iter()
        .chain(s.iter())
        .map(|o| o.mbr.width().hypot(o.mbr.height()) * 0.5)
        .fold(0.0f64, f64::max);
    let ext = eps / 2.0 + max_half;
    let k = 1u32 << depth;
    let grid = asj_geom::Grid::square(space(), k);
    let mut out = ResultCollector::new();
    for cell in grid.cells() {
        let cx = cell.expand(ext);
        let rc: Vec<_> = r
            .iter()
            .filter(|o| o.mbr.intersects(&cx))
            .copied()
            .collect();
        let sc: Vec<_> = s
            .iter()
            .filter(|o| o.mbr.intersects(&cx))
            .copied()
            .collect();
        memjoin::grid_hash_join(&rc, &sc, &pred, &cell, &space(), &mut out);
    }
    let mut got = out.into_pairs();
    got.sort_unstable();
    prop_assert_eq!(got, oracle(r, s, &pred));
    Ok(())
}

// ---------------------------------------------------------------------
// Leaves that reach the kernel's two shortcuts: the point form (every
// object of both sides a finite point) and the interior margin (an R
// centre at least `m = ½(ε + hr + hs)` inside every edge of the window
// owns all its pairs). Lattice boxes never make an all-point leaf and
// never put a centre within an ulp of the margin.
// ---------------------------------------------------------------------

/// Points only, each coordinate on the quarter lattice or anywhere.
fn points(max: usize, id0: u32) -> impl Strategy<Value = Vec<SpatialObject>> {
    let anywhere = || prop_oneof![coord(), 0.0f64..1005.0];
    prop::collection::vec((anywhere(), anywhere()), 0..max).prop_map(move |at| {
        at.into_iter()
            .zip(id0..)
            .map(|((x, y), id)| SpatialObject::point(id, x, y))
            .collect()
    })
}

/// Points with one box among them, anywhere in the list: that one object
/// must switch the point form off for the whole leaf.
fn mixed(max: usize, id0: u32) -> impl Strategy<Value = Vec<SpatialObject>> {
    let size = (0.25f64..20.0, 0.0f64..20.0, any::<bool>());
    (points(max, id0), coord(), coord(), size, any::<usize>()).prop_map(
        move |(mut objs, x, y, (w, h, tall), at)| {
            let (w, h) = if tall { (h, w) } else { (w, h) };
            let id = id0 + objs.len() as u32;
            let boxed = SpatialObject::new(id, Rect::from_coords(x, y, x + w, y + h));
            objs.insert(at % (objs.len() + 1), boxed);
            objs
        },
    )
}

/// An all-point leaf, or one with a single box on either side.
fn point_leaf() -> impl Strategy<Value = (Vec<SpatialObject>, Vec<SpatialObject>)> {
    prop_oneof![
        (points(60, 0), points(60, 10_000)),
        (mixed(60, 0), points(60, 10_000)),
        (points(60, 0), mixed(60, 10_000)),
    ]
}

/// `(ε, hr, hs)`: the distance and the half-extent of every R and every S
/// box of a seam leaf (zero makes points).
fn seam_shape() -> impl Strategy<Value = (f64, f64, f64)> {
    let half = || prop_oneof![Just(0.0), 0.0f64..6.0];
    (
        prop_oneof![Just(0.0), Just(2.5), 0.01f64..40.0],
        half(),
        half(),
    )
}

/// One pair aimed at a window edge: the axis (`true` for y), which edge,
/// whether R's centre lies inside or outside it, the ulps `k` it is moved
/// by, whether the partner is the next float past ε, and where along the
/// edge (a fraction of its span).
type SeamSpec = (bool, usize, bool, i32, bool, f64);

fn seam_spec() -> impl Strategy<Value = SeamSpec> {
    (
        any::<bool>(),
        any::<usize>(),
        any::<bool>(),
        -2i32..=2,
        any::<bool>(),
        0.0f64..1.0,
    )
}

/// The finite `x` moved `k` floats up (`k > 0`) or down.
fn ulps(x: f64, k: i32) -> f64 {
    let step = |v: f64| match v {
        0.0 => f64::from_bits(1).copysign(f64::from(k)),
        _ if (v > 0.0) == (k > 0) => f64::from_bits(v.to_bits() + 1),
        _ => f64::from_bits(v.to_bits() - 1),
    };
    (0..k.abs()).fold(x, |v, _| step(v))
}

/// An edge of the windows under test: where it is on its axis, and the
/// sign of the direction into the window it bounds.
type Edge = (f64, f64);

/// One `(r, s)` pair per spec. R's centre lies at `edge ± m ± k` ulps,
/// `m = ½(ε + hr + hs)`, inside or outside the edge; its partner lies
/// across the edge with a gap of ε, or of the float after ε, so the pair's
/// midpoint is the edge give or take its rounding. `edges[axis]` are the
/// edges an axis's specs pick from, and `along[axis]` the span on the
/// other axis they are placed along.
fn seam_pairs(
    specs: &[SeamSpec],
    edges: [&[Edge]; 2],
    along: [(f64, f64); 2],
    (eps, hr, hs): (f64, f64, f64),
) -> (Vec<SpatialObject>, Vec<SpatialObject>) {
    let m = (eps + hr + hs) * 0.5;
    let mut pairs = Vec::new();
    for (i, &(y_axis, pick, inside, k, past, t)) in (0u32..).zip(specs) {
        let axis = usize::from(y_axis);
        let (edge, inward) = edges[axis][pick % edges[axis].len()];
        let side = if inside { inward } else { -inward };
        let c = ulps(edge + side * m, k);
        let gap = if past { ulps(eps, 1) } else { eps };
        let (r0, r1) = (c - hr, c + hr);
        let (s0, s1) = if side > 0.0 {
            let s1 = r0 - gap;
            (s1 - 2.0 * hs, s1)
        } else {
            let s0 = r1 + gap;
            (s0, s0 + 2.0 * hs)
        };
        let (lo, hi) = along[axis];
        let o = lo + t * (hi - lo);
        let rect = |a0: f64, a1: f64, h: f64| {
            let (b0, b1) = (o - h, o + h);
            if y_axis {
                Rect::from_coords(b0, a0, b1, a1)
            } else {
                Rect::from_coords(a0, b0, a1, b1)
            }
        };
        pairs.push((
            SpatialObject::new(i, rect(r0, r1, hr)),
            SpatialObject::new(10_000 + i, rect(s0, s1, hs)),
        ));
    }
    pairs.into_iter().unzip()
}

/// A window on the quarter lattice whose far edges may be the closed far
/// edge of the space.
fn seam_window() -> impl Strategy<Value = Rect> {
    let far = || prop_oneof![coord(), Just(space().max.x)];
    (coord(), coord(), far(), far()).prop_map(|(x0, y0, x1, y1)| {
        Rect::from_coords(x0.min(x1), y0.min(y1), x0.max(x1), y0.max(y1))
    })
}

/// Seam pairs on the four edges of one window, among background points:
/// `(r, s, ε, window)`.
fn seam_window_leaf() -> impl Strategy<Value = (Vec<SpatialObject>, Vec<SpatialObject>, f64, Rect)>
{
    let specs = prop::collection::vec(seam_spec(), 1..24);
    (
        seam_window(),
        seam_shape(),
        specs,
        points(12, 5_000),
        points(12, 15_000),
    )
        .prop_map(|(cell, shape, specs, r_bg, s_bg)| {
            let x_edges = [(cell.min.x, 1.0), (cell.max.x, -1.0)];
            let y_edges = [(cell.min.y, 1.0), (cell.max.y, -1.0)];
            let along = [(cell.min.y, cell.max.y), (cell.min.x, cell.max.x)];
            let (mut r, mut s) = seam_pairs(&specs, [&x_edges, &y_edges], along, shape);
            r.extend(r_bg);
            s.extend(s_bg);
            (r, s, shape.0, cell)
        })
}

/// Seam pairs on the inner seams of a 2^depth × 2^depth partition of the
/// space, among background points: `(r, s, ε, depth)`. The far edge of
/// the space is left out: a midpoint an ulp past it has no owner.
fn seam_partition_leaf() -> impl Strategy<Value = (Vec<SpatialObject>, Vec<SpatialObject>, f64, u32)>
{
    let specs = prop::collection::vec(seam_spec(), 1..24);
    (
        1u32..3,
        seam_shape(),
        specs,
        points(12, 5_000),
        points(12, 15_000),
    )
        .prop_map(|(depth, shape, specs, r_bg, s_bg)| {
            let k = 1u32 << depth;
            let side = space().max.x / f64::from(k);
            let seams: Vec<Edge> = (1..k)
                .flat_map(|j| [(f64::from(j) * side, 1.0), (f64::from(j) * side, -1.0)])
                .collect();
            let along = [(1.0, 1000.0); 2];
            let (mut r, mut s) = seam_pairs(&specs, [&seams, &seams], along, shape);
            r.extend(r_bg);
            s.extend(s_bg);
            (r, s, shape.0, depth)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn windowed_join_equals_filtered_oracle(
        r in dataset(60, 0),
        s in dataset(60, 10_000),
        pred in predicate(),
        cell in window(),
        single in 0u32..4,
    ) {
        // Nothing ties the inputs to the window, so R centres fall outside
        // it as they do in ε/2-extended downloads; `single` cuts a side to
        // one object.
        let r = if single == 1 { &r[..r.len().min(1)] } else { &r[..] };
        let s = if single == 2 { &s[..s.len().min(1)] } else { &s[..] };
        window_equals_filtered_oracle(r, s, &pred, &cell)?;
    }

    #[test]
    fn grid_hash_join_equals_oracle(
        r in dataset(60, 0),
        s in dataset(60, 10_000),
        eps in prop_oneof![Just(0.0), 1.0f64..150.0],
    ) {
        // Each ε is drawn with its negation too: both mean |ε|.
        for eps in [eps, -eps] {
            let pred = if eps == 0.0 {
                JoinPredicate::Intersects
            } else {
                JoinPredicate::WithinDistance(eps)
            };
            let mut out = ResultCollector::new();
            memjoin::grid_hash_join(&r, &s, &pred, &space(), &space(), &mut out);
            let mut got = out.into_pairs();
            got.sort_unstable();
            prop_assert_eq!(got, oracle(&r, &s, &pred));
        }
    }

    #[test]
    fn partitioned_join_exactly_once(
        r in dataset(50, 0),
        s in dataset(50, 10_000),
        eps in 1.0f64..120.0,
        depth in 1u32..3,
    ) {
        partition_equals_oracle(&r, &s, eps, depth)?;
    }

    #[test]
    fn point_and_seam_leaves_equal_filtered_oracle(
        points in point_leaf(),
        pred in predicate(),
        cell in window(),
        seams in seam_window_leaf(),
    ) {
        window_equals_filtered_oracle(&points.0, &points.1, &pred, &cell)?;
        let (r, s, eps, cell) = seams;
        window_equals_filtered_oracle(&r, &s, &JoinPredicate::WithinDistance(eps), &cell)?;
    }

    #[test]
    fn point_and_seam_leaves_partition_exactly_once(
        points in point_leaf(),
        eps in 1.0f64..120.0,
        depth in 1u32..3,
        seams in seam_partition_leaf(),
    ) {
        partition_equals_oracle(&points.0, &points.1, eps, depth)?;
        let (r, s, eps, depth) = seams;
        partition_equals_oracle(&r, &s, eps, depth)?;
    }

    #[test]
    fn iceberg_counts_match_oracle(
        r in dataset(40, 0),
        s in dataset(40, 10_000),
        eps in 1.0f64..100.0,
        m in 1u32..5,
    ) {
        let pred = JoinPredicate::WithinDistance(eps);
        let mut out = ResultCollector::new();
        memjoin::grid_hash_join(&r, &s, &pred, &space(), &space(), &mut out);
        let ice = out.iceberg(m);
        let pairs = oracle(&r, &s, &pred);
        let mut counts = std::collections::HashMap::new();
        for (rid, _) in pairs {
            *counts.entry(rid).or_insert(0u32) += 1;
        }
        let mut want: Vec<(u32, u32)> =
            counts.into_iter().filter(|&(_, c)| c >= m).collect();
        want.sort_unstable();
        prop_assert_eq!(ice.qualifying, want);
    }

    #[test]
    fn buffer_never_overcommits(
        capacity in 0usize..100,
        reserves in prop::collection::vec(0usize..40, 0..12),
    ) {
        let buf = DeviceBuffer::new(capacity);
        let mut held = Vec::new();
        for n in reserves {
            if let Ok(r) = buf.reserve(n) {
                held.push(r);
            }
            prop_assert!(buf.in_use() <= capacity);
            prop_assert!(buf.peak() <= capacity);
        }
        let total: usize = held.iter().map(|r| r.len()).sum();
        prop_assert_eq!(buf.in_use(), total);
        drop(held);
        prop_assert_eq!(buf.in_use(), 0);
    }

    #[test]
    fn collapse_duplicates_is_the_incremental_filter(
        pushes in prop::collection::vec((0u32..6, 0u32..6, 0u32..3), 0..80),
    ) {
        // Ids from a small range, so repeats are common; every third pair
        // sits at the ends of the id range, where packing could collide.
        let pairs: Vec<(u32, u32)> = pushes
            .iter()
            .map(|&(r, s, far)| if far == 0 { (u32::MAX - r, s) } else { (r, s) })
            .collect();
        // What the live collector did per push before the pass replaced it.
        let mut seen = std::collections::HashSet::new();
        let want: Vec<(u32, u32)> = pairs.iter().copied().filter(|&p| seen.insert(p)).collect();
        let mut live = ResultCollector::deduplicating();
        for run in pairs.chunks(7) {
            live.extend(&run[..run.len() / 2]);
            run[run.len() / 2..].iter().for_each(|&(r, s)| live.push(r, s));
        }
        prop_assert_eq!(live.pairs(), &pairs[..], "pushes append, repeats included");
        prop_assert_eq!(live.collapse_duplicates(), pairs.len() - want.len());
        prop_assert_eq!(live.into_pairs(), want);
    }
}

proptest! {
    // Thousands of objects per case: fewer cases, and ε kept small enough
    // that debug builds are not spent hashing millions of pairs.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn workers_keep_pairs_and_order_above_threshold(
        r in dataset(2200, 0),
        s in dataset(2200, 10_000),
        eps in prop_oneof![Just(-1.0), Just(0.0), 1.0f64..60.0],
    ) {
        let pred = if eps < 0.0 {
            JoinPredicate::Intersects
        } else {
            JoinPredicate::WithinDistance(eps)
        };
        // Pad to the threshold with points so the fan-out really engages.
        let pad = |objs: &mut Vec<SpatialObject>, id0: u32| {
            for i in objs.len()..memjoin::PARALLEL_JOIN_THRESHOLD / 2 {
                let f = i as f64;
                let (x, y) = ((f * 7.31) % 1000.0, (f * 3.17) % 1000.0);
                objs.push(SpatialObject::point(id0 + i as u32, x, y));
            }
        };
        let (mut r, mut s) = (r, s);
        pad(&mut r, 0);
        pad(&mut s, 10_000);
        let run = |workers: usize| {
            let mut out = ResultCollector::new();
            let space = space();
            memjoin::grid_hash_join_with_workers(&r, &s, &pred, &space, &space, workers, &mut out);
            out.into_pairs()
        };
        let serial = run(1);
        for workers in [2, 5, 9] {
            prop_assert_eq!(&run(workers), &serial, "workers={}", workers);
        }
    }
}

// ---------------------------------------------------------------------
// The seams: reference points *exactly* on a cell boundary.
//
// The kernel evaluates ownership with hoisted edge flags and
// non-short-circuit operators; a `<` / `<=` slip there survives random
// coordinates, which almost never put a reference point on a boundary.
// Here the space is 960 wide — halves (480) and thirds (320, 640) are exact
// — and every coordinate is a multiple of 0.25, so a midpoint aimed at a
// seam lands on it bit for bit.
// ---------------------------------------------------------------------

const SEAM_SIDE: f64 = 960.0;
const SEAM_S_IDS: u32 = 10_000;

/// One coordinate to aim a reference point at: an interior seam of the
/// 2 × 2 or the 3 × 3 partition, the far edge of the space, or anywhere.
fn seam() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(480.0),
        Just(320.0),
        Just(640.0),
        Just(SEAM_SIDE),
        (80i32..=3760).prop_map(|v| v as f64 * 0.25),
    ]
}

/// An `(r, s)` pair built around the target `(tx, ty)`, offsets in
/// quarter units. Shape 0 is two points, shape 1 two boxes, either way
/// with centres mirrored about the target: the distance join's midpoint
/// *is* the target. Shape 2 is two boxes touching in exactly the target:
/// it is the intersection join's reference point. On the far edge the
/// offset along that axis is dropped, so no centre and no lower-left
/// corner leaves the space and every cross pair still has an owner.
type Aimed = (f64, f64, (u32, u32), (u32, u32), u32);

fn aimed() -> impl Strategy<Value = Aimed> {
    (
        seam(),
        seam(),
        (0u32..=40, 0u32..=40),
        (0u32..=12, 0u32..=12),
        0u32..3,
    )
}

fn aim(i: u32, (tx, ty, (dx, dy), (w, h), shape): Aimed) -> (SpatialObject, SpatialObject) {
    let quarter = |t: f64, d: u32| {
        if t == SEAM_SIDE {
            0.0
        } else {
            f64::from(d) * 0.25
        }
    };
    let (dx, dy, w, h) = (
        quarter(tx, dx),
        quarter(ty, dy),
        quarter(tx, w),
        quarter(ty, h),
    );
    let (a, b) = match shape {
        0 => (
            Rect::from_coords(tx - dx, ty - dy, tx - dx, ty - dy),
            Rect::from_coords(tx + dx, ty + dy, tx + dx, ty + dy),
        ),
        1 => (
            Rect::from_coords(tx - dx - w, ty - dy - h, tx - dx + w, ty - dy + h),
            Rect::from_coords(tx + dx - h, ty + dy - w, tx + dx + h, ty + dy + w),
        ),
        _ => (
            Rect::from_coords(tx - dx - w, ty - dy - h, tx, ty),
            Rect::from_coords(tx, ty, tx + dx, ty + dy),
        ),
    };
    (
        SpatialObject::new(i, a),
        SpatialObject::new(SEAM_S_IDS + i, b),
    )
}

/// Joins every cell of the 2 × 2 (`Rect::quadrants`) and the 3 × 3
/// (`Grid`) partition on one and three workers, under both predicates:
/// each cell reports exactly nested loop + `reference_point_in`, in the
/// same order at either worker count, and the cells together report the
/// nested-loop result exactly once. `pad` lifts the input over
/// `PARALLEL_JOIN_THRESHOLD` with lattice points.
fn check_seams(aimed: Vec<Aimed>, eps: f64, pad: bool) {
    let space = Rect::from_coords(0.0, 0.0, SEAM_SIDE, SEAM_SIDE);
    // Always present: coincident points on the corner four cells share (in
    // either partition), on the far corner and on the far edges' seams.
    let corners = [
        (480.0, 480.0),
        (320.0, 640.0),
        (SEAM_SIDE, SEAM_SIDE),
        (480.0, SEAM_SIDE),
        (SEAM_SIDE, 320.0),
    ];
    let fixed = corners.iter().map(|&(x, y)| (x, y, (0, 0), (0, 0), 0));
    let (mut r, mut s): (Vec<_>, Vec<_>) = fixed
        .chain(aimed)
        .zip(0..)
        .map(|(spec, i)| aim(i, spec))
        .unzip();
    if pad {
        for i in r.len() as u32..memjoin::PARALLEL_JOIN_THRESHOLD as u32 / 2 {
            let at = |k: u32| f64::from(i * k % 3841) * 0.25;
            r.push(SpatialObject::point(i, at(37), at(91)));
            s.push(SpatialObject::point(SEAM_S_IDS + i, at(53), at(29)));
        }
    }
    assert_eq!(r.len() + s.len() >= memjoin::PARALLEL_JOIN_THRESHOLD, pad);
    let partitions = [
        space.quadrants().to_vec(),
        asj_geom::Grid::square(space, 3).cells().collect::<Vec<_>>(),
    ];
    let on_seam = |v: f64| [320.0, 480.0, 640.0, SEAM_SIDE].contains(&v);
    for pred in [
        JoinPredicate::Intersects,
        JoinPredicate::WithinDistance(eps),
    ] {
        let all = oracle(&r, &s, &pred);
        let of = |&(a, b): &(u32, u32)| (&r[a as usize], &s[(b - SEAM_S_IDS) as usize]);
        let aimed_at_seams = all
            .iter()
            .filter_map(|ids| asj_geom::pair_reference_point(of(ids).0, of(ids).1, &pred))
            .filter(|p| on_seam(p.x) || on_seam(p.y))
            .count();
        assert!(aimed_at_seams >= corners.len(), "non-vacuous: {pred:?}");
        for cells in &partitions {
            let mut union = Vec::new();
            for cell in cells {
                let want: Vec<_> = all
                    .iter()
                    .filter(|ids| reference_point_in(of(ids).0, of(ids).1, &pred, cell, &space))
                    .copied()
                    .collect();
                let run = |workers| {
                    let mut out = ResultCollector::new();
                    memjoin::grid_hash_join_with_workers(
                        &r, &s, &pred, cell, &space, workers, &mut out,
                    );
                    out.into_pairs()
                };
                let mut got = run(1);
                assert_eq!(run(3), got, "{pred:?} {cell:?}: workers change the output");
                got.sort_unstable();
                assert_eq!(got, want, "{pred:?} {cell:?}");
                union.extend(got);
            }
            union.sort_unstable();
            assert_eq!(
                union,
                all,
                "{pred:?}, {} cells: not exactly once",
                cells.len()
            );
        }
    }
}

fn seam_eps() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.0), Just(2.5), Just(12.0), Just(30.0)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn seams_are_owned_exactly_once_below_threshold(
        aimed in prop::collection::vec(aimed(), 0..60),
        eps in seam_eps(),
    ) {
        check_seams(aimed, eps, false);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn seams_are_owned_exactly_once_above_threshold(
        aimed in prop::collection::vec(aimed(), 0..60),
        eps in seam_eps(),
    ) {
        check_seams(aimed, eps, true);
    }
}
