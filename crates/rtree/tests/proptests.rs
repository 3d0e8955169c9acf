//! Property tests: the R-tree must be indistinguishable from a linear scan
//! for every query type, under both construction paths.

use asj_geom::{Point, Rect, SpatialObject};
use asj_rtree::RTree;
use proptest::prelude::*;

fn coord() -> impl Strategy<Value = f64> {
    (0i32..=2000).prop_map(|v| v as f64 * 0.5)
}

fn object(id: u32) -> impl Strategy<Value = SpatialObject> {
    (coord(), coord(), 0.0f64..30.0, 0.0f64..30.0)
        .prop_map(move |(x, y, w, h)| SpatialObject::new(id, Rect::from_coords(x, y, x + w, y + h)))
}

fn dataset(max: usize) -> impl Strategy<Value = Vec<SpatialObject>> {
    prop::collection::vec((coord(), coord(), 0.0f64..30.0, 0.0f64..30.0), 0..max).prop_map(
        |specs| {
            specs
                .into_iter()
                .enumerate()
                .map(|(i, (x, y, w, h))| {
                    SpatialObject::new(i as u32, Rect::from_coords(x, y, x + w, y + h))
                })
                .collect()
        },
    )
}

fn ids(mut v: Vec<SpatialObject>) -> Vec<u32> {
    let mut out: Vec<u32> = v.drain(..).map(|o| o.id).collect();
    out.sort_unstable();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn window_and_count_match_scan(data in dataset(120), w in (coord(), coord(), coord(), coord())) {
        let window = Rect::new(Point::new(w.0, w.1), Point::new(w.2, w.3));
        let tree = RTree::bulk_load(data.clone(), 6);
        tree.check_invariants();
        let want: Vec<u32> = {
            let mut v: Vec<u32> = data
                .iter()
                .filter(|o| o.mbr.intersects(&window))
                .map(|o| o.id)
                .collect();
            v.sort_unstable();
            v
        };
        prop_assert_eq!(ids(tree.window(&window)), want.clone());
        prop_assert_eq!(tree.count(&window), want.len() as u64);
    }

    #[test]
    fn eps_range_matches_scan(data in dataset(100), q in (coord(), coord()), eps in -50.0f64..300.0) {
        let probe = Rect::point(Point::new(q.0, q.1));
        let tree = RTree::bulk_load(data.clone(), 8);
        let want: Vec<u32> = {
            let mut v: Vec<u32> = data
                .iter()
                .filter(|o| o.mbr.within_distance(&probe, eps))
                .map(|o| o.id)
                .collect();
            v.sort_unstable();
            v
        };
        prop_assert_eq!(ids(tree.eps_range(&probe, eps)), want.clone());
        prop_assert_eq!(tree.eps_range(&probe, eps).len(), want.len());
    }

    #[test]
    fn incremental_equals_bulk(data in dataset(150)) {
        let bulk = RTree::bulk_load(data.clone(), 5);
        let mut inc = RTree::new(5);
        for &o in &data {
            inc.insert(o);
        }
        bulk.check_invariants();
        inc.check_invariants();
        prop_assert_eq!(bulk.len(), inc.len());
        let everything = Rect::from_coords(-10.0, -10.0, 2000.0, 2000.0);
        prop_assert_eq!(ids(bulk.window(&everything)), ids(inc.window(&everything)));
    }

    #[test]
    fn insert_keeps_invariants_at_every_step(data in dataset(80), extra in object(9999)) {
        let mut tree = RTree::new(4);
        for &o in &data {
            tree.insert(o);
        }
        tree.check_invariants();
        tree.insert(extra);
        tree.check_invariants();
        prop_assert_eq!(tree.len(), data.len() + 1);
    }

    #[test]
    fn leaf_level_mbrs_cover_everything(data in dataset(200)) {
        prop_assume!(!data.is_empty());
        let tree = RTree::bulk_load(data.clone(), 6);
        let leaves = tree.level_mbrs(0);
        for o in &data {
            prop_assert!(
                leaves.iter().any(|m| m.contains_rect(&o.mbr)),
                "object {} escapes all leaf MBRs", o.id
            );
        }
        // Level sizes shrink monotonically toward the root.
        let h = tree.height();
        for lvl in 1..h {
            prop_assert!(tree.level_mbrs(lvl).len() <= tree.level_mbrs(lvl - 1).len());
        }
    }
}

/// One step of a mutation batch: insert `add`, or with none remove what
/// `pick` selects.
type Op = (u32, Option<(f64, f64, f64, f64)>);

fn batches() -> impl Strategy<Value = Vec<Vec<Op>>> {
    let add = (coord(), coord(), 0.0f64..30.0, 0.0f64..30.0);
    let op = prop_oneof![
        (0u32..400, add.prop_map(Some)),
        (0u32..400).prop_map(|pick| (pick, None)),
    ];
    prop::collection::vec(prop::collection::vec(op, 0..25), 1..8)
}

/// Everything the query set answers, in the order the tree answers it.
#[derive(Debug, PartialEq)]
struct Answers {
    window: Vec<SpatialObject>,
    count: u64,
    range: Vec<SpatialObject>,
    range_count: u64,
    leaves: Vec<Rect>,
    len: usize,
}

fn answers(tree: &RTree, w: &Rect, q: &Rect, eps: f64) -> Answers {
    Answers {
        window: tree.window(w),
        count: tree.count(w),
        range: tree.eps_range(q, eps),
        range_count: tree.eps_range(q, eps).len() as u64,
        leaves: tree.level_mbrs(0),
        len: tree.len(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn insert_remove_batches_match_scan_and_bulk_load_and_spare_clones(
        data in dataset(120),
        start_packed in 0u32..2,
        batches in batches(),
        w in (coord(), coord(), coord(), coord()),
        q in (coord(), coord()),
        eps in 0.0f64..300.0,
    ) {
        let window = Rect::new(Point::new(w.0, w.1), Point::new(w.2, w.3));
        let probe = Rect::point(Point::new(q.0, q.1));
        let mut model = data.clone();
        let mut next_id = data.len() as u32;
        let mut tree = if start_packed == 1 {
            RTree::bulk_load(data, 4)
        } else {
            let mut t = RTree::new(4);
            data.into_iter().for_each(|o| t.insert(o));
            t
        };
        for batch in batches {
            // Persistence: a clone taken now must answer after the batch
            // exactly — same objects, same order, same bits — as it does now.
            let before = tree.clone();
            let before_answers = answers(&before, &window, &probe, eps);

            for (pick, add) in batch {
                if let Some((x, y, w, h)) = add {
                    let o = SpatialObject::new(next_id, Rect::from_coords(x, y, x + w, y + h));
                    next_id += 1;
                    tree.insert(o);
                    model.push(o);
                    continue;
                }
                // One pick in five or so names an id the tree lacks.
                let slot = pick as usize % (model.len() * 5 / 4 + 1);
                if slot < model.len() {
                    let o = model.swap_remove(slot);
                    prop_assert!(tree.remove(o.id, &o.mbr), "object {} not found", o.id);
                } else {
                    prop_assert!(!tree.remove(next_id + pick, &window), "absent id removed");
                }
            }
            tree.check_invariants();
            before.check_invariants();
            prop_assert_eq!(answers(&before, &window, &probe, eps), before_answers);

            let in_window: Vec<_> = model.iter().filter(|o| o.mbr.intersects(&window)).copied().collect();
            let in_range: Vec<_> = model.iter().filter(|o| o.mbr.within_distance(&probe, eps)).copied().collect();
            for t in [&tree, &RTree::bulk_load(model.clone(), 4)] {
                prop_assert_eq!(t.len(), model.len());
                prop_assert_eq!(ids(t.window(&window)), ids(in_window.clone()));
                prop_assert_eq!(t.count(&window), in_window.len() as u64);
                prop_assert_eq!(ids(t.eps_range(&probe, eps)), ids(in_range.clone()));
                prop_assert_eq!(t.eps_range(&probe, eps).len(), in_range.len());
            }
        }
    }
}

/// A window of one of four kinds: anywhere on the map, around the whole
/// map (it contains the root MBR), off the map, or one with a NaN
/// coordinate (it intersects nothing).
fn any_window() -> impl Strategy<Value = Rect> {
    let corners = (coord(), coord(), coord(), coord());
    (0u32..4, corners, 0usize..4).prop_map(|(kind, (a, b, c, d), nan_at)| match kind {
        0 => Rect::new(Point::new(a, b), Point::new(c, d)),
        1 => Rect::from_coords(-1.0, -1.0, 1100.0, 1100.0),
        2 => Rect::new(
            Point::new(a + 1100.0, b + 1100.0),
            Point::new(c + 1100.0, d + 1100.0),
        ),
        _ => {
            let mut xy = [a.min(c), b.min(d), a.max(c), b.max(d)];
            xy[nan_at] = f64::NAN;
            Rect {
                min: Point::new(xy[0], xy[1]),
                max: Point::new(xy[2], xy[3]),
            }
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The walks answer in tree order: exactly `objects()` filtered by the
    /// query's predicate, in that order. A walk that reordered its answers
    /// would pass every sorted-id property above, yet move v2 delta-id
    /// bytes and pair order.
    #[test]
    fn walks_answer_in_tree_order(
        data in dataset(150),
        fanout in 4usize..17,
        built in 0u32..3,
        w in any_window(),
        q in (coord(), coord(), 0.0f64..20.0, 0.0f64..20.0),
        eps in prop_oneof![-60.0f64..0.0, Just(0.0), 0.0f64..200.0, Just(f64::NAN)],
    ) {
        // Packed, grown by inserts, or grown and then thinned by removes.
        let tree = if built == 0 {
            RTree::bulk_load(data.clone(), fanout)
        } else {
            let mut t = RTree::new(fanout);
            data.iter().for_each(|&o| t.insert(o));
            if built == 2 {
                for o in data.iter().filter(|o| o.id % 3 == 1) {
                    prop_assert!(t.remove(o.id, &o.mbr), "object {} not found", o.id);
                }
            }
            t
        };
        tree.check_invariants();
        let all = tree.objects();
        prop_assert_eq!(all.len(), tree.len());

        let mut visited = Vec::new();
        tree.for_each_in_window(&w, &mut |o| visited.push(*o));
        let want: Vec<_> = all.iter().filter(|o| o.mbr.intersects(&w)).copied().collect();
        prop_assert_eq!(&visited, &want);
        prop_assert_eq!(tree.count(&w), want.len() as u64);

        let probe = Rect::from_coords(q.0, q.1, q.0 + q.2, q.1 + q.3);
        let mut ranged = Vec::new();
        tree.for_each_eps_range(&probe, eps, &mut |o| ranged.push(*o));
        let want: Vec<_> = all
            .iter()
            .filter(|o| o.mbr.within_distance(&probe, eps))
            .copied()
            .collect();
        prop_assert_eq!(ranged, want);
    }
}
