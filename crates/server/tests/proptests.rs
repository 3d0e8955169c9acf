//! Differential property tests: the two storage backends (linear scan,
//! aR-tree) must be observationally identical through the full service
//! protocol.

use asj_geom::{Point, Rect, SpatialObject};
use asj_net::{QueryHandler, Request, Response, Update};
use asj_server::{
    apply_updates_to, RTreeStore, ScanStore, SpatialService, SpatialStore, VersionedStore,
};
use proptest::prelude::*;

fn coord() -> impl Strategy<Value = f64> {
    (0i32..=2000).prop_map(|v| v as f64 * 0.5)
}

fn dataset(max: usize) -> impl Strategy<Value = Vec<SpatialObject>> {
    prop::collection::vec((coord(), coord(), 0.0f64..40.0, 0.0f64..40.0), 0..max).prop_map(
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

fn norm(resp: Response) -> Vec<u32> {
    let mut ids: Vec<u32> = resp.into_objects().iter().map(|o| o.id).collect();
    ids.sort_unstable();
    ids
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn backends_agree_through_the_protocol(
        data in dataset(120),
        w in (coord(), coord(), coord(), coord()),
        q in (coord(), coord()),
        eps in 0.0f64..400.0,
    ) {
        let window = Rect::new(Point::new(w.0, w.1), Point::new(w.2, w.3));
        let probe = Rect::point(Point::new(q.0, q.1));

        let scan = SpatialService::new(ScanStore::new(data.clone()));
        let tree = SpatialService::new(RTreeStore::with_fanout(data, 5));

        // WINDOW
        let a = norm(scan.handle(Request::Window(window)));
        prop_assert_eq!(&a, &norm(tree.handle(Request::Window(window))));

        // COUNT
        let c = scan.handle(Request::Count(window)).into_count();
        prop_assert_eq!(c, tree.handle(Request::Count(window)).into_count());
        prop_assert_eq!(c, a.len() as u64, "COUNT must equal WINDOW cardinality");

        // ε-RANGE
        let r = norm(scan.handle(Request::EpsRange { q: probe, eps }));
        prop_assert_eq!(&r, &norm(tree.handle(Request::EpsRange { q: probe, eps })));
    }

    #[test]
    fn bucket_probes_agree_across_backends(
        data in dataset(80),
        probes in prop::collection::vec((coord(), coord()), 0..15),
        eps in 0.0f64..200.0,
    ) {
        let probes: Vec<SpatialObject> = probes
            .into_iter()
            .enumerate()
            .map(|(i, (x, y))| SpatialObject::point(5000 + i as u32, x, y))
            .collect();
        let scan = SpatialService::new(ScanStore::new(data.clone()));
        let tree = SpatialService::new(RTreeStore::with_fanout(data, 5));
        let norm_buckets = |r: Response| -> Vec<Vec<u32>> {
            r.into_buckets()
                .into_iter()
                .map(|b| {
                    let mut ids: Vec<u32> = b.iter().map(|o| o.id).collect();
                    ids.sort_unstable();
                    ids
                })
                .collect()
        };
        let a = norm_buckets(scan.handle(Request::BucketEpsRange {
            probes: probes.clone(),
            eps,
        }));
        let b = norm_buckets(tree.handle(Request::BucketEpsRange { probes, eps }));
        prop_assert_eq!(a, b);
    }
}

/// Update batches over ids 0..150: most name an object of a
/// [`dataset`]`(120)`, some an absent id, and a batch of a few updates
/// often names one id twice.
fn update_batches() -> impl Strategy<Value = Vec<Vec<Update>>> {
    let mbr = (coord(), coord(), 0.0f64..40.0, 0.0f64..40.0)
        .prop_map(|(x, y, w, h)| Rect::from_coords(x, y, x + w, y + h));
    let update = prop_oneof![
        (0u32..150, mbr).prop_map(|(id, mbr)| Update::Insert(SpatialObject::new(id, mbr))),
        (0u32..150).prop_map(Update::Delete),
        (0u32..150, (coord(), coord())).prop_map(|(id, (x, y))| Update::Move {
            id,
            to: Rect::point(Point::new(x, y))
        }),
    ];
    prop::collection::vec(prop::collection::vec(update, 0..7), 1..14)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Path-copied deltas, the repacks the ⅛ rule interleaves with them (a
    // dozen ops on these ~60-object stores), the rebuild-per-batch of a
    // backend without a delta form, and the offline fold are one
    // semantics — through a `catch_up` onto a foreign object set as well.
    #[test]
    fn delta_rebuild_and_fold_agree_on_any_update_history(
        data in dataset(120),
        batches in update_batches(),
        donor in dataset(60),
        catch_up_before in 0usize..14,
        w in (coord(), coord(), coord(), coord()),
        q in (coord(), coord()),
        eps in 0.0f64..400.0,
    ) {
        let window = Rect::new(Point::new(w.0, w.1), Point::new(w.2, w.3));
        let probe = Rect::point(Point::new(q.0, q.1));
        let tree = VersionedStore::new(data.clone(), |o| RTreeStore::with_fanout(o, 4));
        let scan = VersionedStore::new(data.clone(), ScanStore::new);
        let mut fold = data;
        let mut generation = 0;
        for (i, batch) in batches.iter().enumerate() {
            if i == catch_up_before {
                generation += 5;
                tree.catch_up(donor.clone(), generation);
                scan.catch_up(donor.clone(), generation);
                fold.clone_from(&donor);
            }
            generation += 1;
            prop_assert_eq!(tree.apply(batch), generation);
            prop_assert_eq!(scan.apply(batch), generation);
            apply_updates_to(&mut fold, batch);

            let by_id = |mut v: Vec<SpatialObject>| {
                v.sort_unstable_by_key(|o| o.id);
                v
            };
            let want = ScanStore::new(fold.clone());
            prop_assert_eq!(&*tree.current_objects(), &by_id(fold.clone()));
            prop_assert_eq!(tree.current_objects(), scan.current_objects());
            tree.with_frozen(&mut |store, stamped| {
                assert_eq!(stamped, generation);
                assert_eq!(store.len(), fold.len());
            });
            for live in [&tree as &dyn SpatialStore, &scan] {
                prop_assert_eq!(live.len(), want.len());
                prop_assert_eq!(live.bounds(), want.bounds());
                prop_assert_eq!(live.count(&window), want.count(&window));
                prop_assert_eq!(by_id(live.window(&window)), by_id(want.window(&window)));
                prop_assert_eq!(live.eps_range(&probe, eps).len(), want.eps_range(&probe, eps).len());
                prop_assert_eq!(
                    by_id(live.eps_range(&probe, eps)),
                    by_id(want.eps_range(&probe, eps))
                );
            }
        }
    }
}
