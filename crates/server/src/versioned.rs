//! Generational snapshots: a live-updating wrapper over any frozen store.
//!
//! [`VersionedStore`] never mutates a snapshot readers can see. An update
//! batch is applied **copy-on-write**: the writer turns it into an ordered
//! remove/add list against its own id → MBR index, asks the served store
//! for a successor that shares everything the list leaves untouched
//! ([`SpatialStore::with_delta`] — the aR-tree copies one root-to-leaf
//! path per op, O(batch · log n)), and atomically publishes that as
//! generation `n + 1` behind an `RwLock` + `Arc` swap (the lcrr-tree
//! discipline: writers build aside, readers always hold one consistent
//! frozen tree). A backend without a delta form, and a tree that has
//! absorbed enough deltas to have lost its packing, is rebuilt from the
//! index instead. Queries in flight keep the `Arc` of the snapshot they
//! started on, so a swap never invalidates a traversal;
//! [`SpatialStore::with_frozen`] pins one snapshot for an entire
//! multi-part request. The remove/add lists of the latest batches stay in
//! a bounded log beside the published generation, so a client that holds
//! answers from one of them can ask what changed since
//! ([`SpatialStore::changes_since`]) instead of downloading them again.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex, RwLock};

use asj_geom::{Rect, SpatialObject};
use asj_net::Update;

use crate::store::{DeltaOp, SpatialStore};

/// Applies one update batch, in order, to a materialized object set — the
/// single source of update semantics, shared by [`VersionedStore`] and the
/// offline replay oracles in the differential tests.
///
/// `Insert` replaces any existing object with the same id (else appends),
/// `Delete` of an absent id is a no-op, and `Move` is an upsert of the
/// object at its new MBR. Upsert-by-id keeps flat and sharded deployments
/// convergent without coordination: wherever an object currently lives,
/// re-inserting it settles it in exactly one place.
pub fn apply_updates_to(objects: &mut Vec<SpatialObject>, batch: &[Update]) {
    for u in batch {
        match u {
            Update::Insert(o) => upsert(objects, *o),
            Update::Delete(id) => objects.retain(|x| x.id != *id),
            Update::Move { id, to } => upsert(objects, SpatialObject::new(*id, *to)),
        }
    }
}

fn upsert(objects: &mut Vec<SpatialObject>, o: SpatialObject) {
    match objects.iter_mut().find(|x| x.id == o.id) {
        Some(slot) => *slot = o,
        None => objects.push(o),
    }
}

/// A store is repacked through `build` once the delta ops it has absorbed
/// since it was last built exceed this share of its objects: every
/// path-copied insert into a packed leaf splits it, so reads slow down as
/// deltas pile up, and a batch that large is no cheaper than a bulk load.
const REPACK_SHARE: usize = 8;

/// One published snapshot: the served store and its generation number.
struct Generation<S> {
    store: Arc<S>,
    number: u64,
}

/// What readers see: the current generation and how the latest ones came
/// about. Both change together, under one write lock.
struct Published<S> {
    current: Generation<S>,
    /// `(generation, the ops that produced it)`, consecutive generations
    /// ending at the current one (empty until the first batch).
    log: VecDeque<(u64, Vec<DeltaOp>)>,
}

impl<S> Clone for Generation<S> {
    fn clone(&self) -> Self {
        Generation {
            store: Arc::clone(&self.store),
            number: self.number,
        }
    }
}

/// What only writers touch, under the writer mutex.
#[derive(Default)]
struct Writer {
    /// id → MBR of the current generation: tells a batch which ids it
    /// replaces or deletes and where the tree holds them. Built from the
    /// served store by the first batch that needs it — a store that is
    /// never written never pays for it — and ordered, so a rebuild sees
    /// its input in id order whatever the update history was.
    index: Option<BTreeMap<u32, Rect>>,
    /// Delta ops absorbed since the served store was last built.
    delta_ops: usize,
}

impl Writer {
    /// The store that serves `base` + `batch` and the batch's remove/add
    /// list: `base` itself when the list is empty, else `base` with the
    /// list path-copied in, else — no delta form, or [`REPACK_SHARE`]
    /// exceeded — a rebuild from the index.
    fn successor<S: SpatialStore>(
        &mut self,
        base: &Arc<S>,
        batch: &[Update],
        build: &dyn Fn(Vec<SpatialObject>) -> S,
    ) -> (Arc<S>, Vec<DeltaOp>) {
        let index = self.index.get_or_insert_with(|| {
            let objects = objects_by_id(&**base);
            objects.into_iter().map(|o| (o.id, o.mbr)).collect()
        });
        let mut ops = Vec::new();
        for u in batch {
            let (id, to) = match u {
                Update::Insert(o) => (o.id, Some(o.mbr)),
                Update::Move { id, to } => (*id, Some(*to)),
                Update::Delete(id) => (*id, None),
            };
            let from = match to {
                Some(mbr) => index.insert(id, mbr),
                None => index.remove(&id),
            };
            ops.extend(from.map(|mbr| DeltaOp::Remove { id, mbr }));
            ops.extend(to.map(|mbr| DeltaOp::Add(SpatialObject::new(id, mbr))));
        }
        if ops.is_empty() {
            return (Arc::clone(base), ops);
        }
        self.delta_ops += ops.len();
        let delta = (self.delta_ops * REPACK_SHARE <= index.len())
            .then(|| base.with_delta(&ops))
            .flatten();
        let store = delta.unwrap_or_else(|| {
            self.delta_ops = 0;
            let objects = index.iter().map(|(&id, &mbr)| SpatialObject::new(id, mbr));
            build(objects.collect())
        });
        (Arc::new(store), ops)
    }
}

/// Every object `store` holds (all of them intersect its bounds), in id
/// order.
fn objects_by_id(store: &impl SpatialStore) -> Vec<SpatialObject> {
    let mut objects = store.bounds().map_or_else(Vec::new, |b| store.window(&b));
    objects.sort_unstable_by_key(|o| o.id);
    objects
}

/// A live store: serves the current generation, applies update batches
/// into fresh ones. Generic over the frozen backend it wraps (the
/// production deployments use `VersionedStore<RTreeStore>`). Object ids
/// must be unique within the store.
pub struct VersionedStore<S: SpatialStore> {
    published: RwLock<Published<S>>,
    build: Box<dyn Fn(Vec<SpatialObject>) -> S + Send + Sync>,
    /// Serializes writers so concurrent batches can't both build from the
    /// same base and lose one of the two. Readers never take this lock.
    writer: Mutex<Writer>,
}

impl<S: SpatialStore> VersionedStore<S> {
    /// Builds generation 0 from `objects` with `build`, which is reused
    /// whenever a later generation is rebuilt rather than derived.
    pub fn new(
        objects: Vec<SpatialObject>,
        build: impl Fn(Vec<SpatialObject>) -> S + Send + Sync + 'static,
    ) -> Self {
        Self::with_generation(build(objects), 0, build)
    }

    /// Serves the already built `store` as `generation`. At 0 this is how
    /// replicas share one build: each wraps an O(1) clone of the shard's
    /// persistent tree and diverges copy-on-write from its first update.
    /// Past 0 it is the restart constructor: a crashed endpoint rebuilds
    /// the object set it last published and resumes at that generation
    /// number, so clients' observed generation vectors never regress
    /// across a crash-then-restart window. `build` rebuilds later
    /// generations, as in [`VersionedStore::new`].
    pub fn with_generation(
        store: S,
        generation: u64,
        build: impl Fn(Vec<SpatialObject>) -> S + Send + Sync + 'static,
    ) -> Self {
        VersionedStore {
            published: RwLock::new(Published {
                current: Generation {
                    store: Arc::new(store),
                    number: generation,
                },
                log: VecDeque::new(),
            }),
            build: Box::new(build),
            writer: Mutex::new(Writer::default()),
        }
    }

    fn snapshot(&self) -> Generation<S> {
        let published = self.published.read().expect("snapshot lock poisoned");
        published.current.clone()
    }

    /// Applies `batch` copy-on-write and publishes the result, returning
    /// the new generation number. An **empty batch still bumps** — the
    /// generation tick the fleet router relies on so every shard advances
    /// exactly once per fleet-level batch, making the summed fleet
    /// generation injective in the batch count. A batch that changes
    /// nothing (empty, or deletes of ids this store does not hold — what a
    /// shard receives for every move it does not own) republishes the very
    /// same store under the new number.
    pub fn apply(&self, batch: &[Update]) -> u64 {
        let mut writer = self.writer.lock().expect("writer lock poisoned");
        let base = self.snapshot();
        // Whatever is built is built outside the snapshot lock: readers
        // keep serving the old generation until the one-pointer swap below.
        let (store, ops) = if batch.is_empty() {
            (base.store, Vec::new())
        } else {
            writer.successor(&base.store, batch, &self.build)
        };
        let number = base.number + 1;
        // The log keeps whole batches while their ops add up to no more
        // than a repack tolerates — never longer than the deltas the
        // served tree itself carries — and always the newest batch.
        let budget = store.len() / REPACK_SHARE;
        let mut published = self.published.write().expect("snapshot lock poisoned");
        published.current = Generation { store, number };
        published.log.push_back((number, ops));
        let mut logged: usize = published.log.iter().map(|(_, ops)| ops.len()).sum();
        while logged > budget && published.log.len() > 1 {
            logged -= published.log.pop_front().map_or(0, |(_, ops)| ops.len());
        }
        number
    }

    /// The current generation's object set, in id order, materialized from
    /// the served store on every call.
    pub fn current_objects(&self) -> Arc<Vec<SpatialObject>> {
        Arc::new(objects_by_id(&*self.snapshot().store))
    }

    /// Adopts a sibling replica's published state wholesale: rebuilds
    /// from `objects` and publishes it at exactly `generation`. The
    /// replica-restart path — a store that stayed dark while its
    /// siblings kept acking update batches resynchronizes from the
    /// freshest sibling before serving again, so the fleet's generation
    /// floor readmits it.
    ///
    /// A no-op when `generation` is not ahead of the current one: a
    /// racing local write that already published past the donor must not
    /// be rolled back (generations never regress).
    pub fn catch_up(&self, objects: Vec<SpatialObject>, generation: u64) {
        let mut writer = self.writer.lock().expect("writer lock poisoned");
        if generation <= self.generation() {
            return;
        }
        *writer = Writer::default();
        let next = Generation {
            store: Arc::new((self.build)(objects)),
            number: generation,
        };
        // How the donor got here is not known: the log starts over.
        *self.published.write().expect("snapshot lock poisoned") = Published {
            current: next,
            log: VecDeque::new(),
        };
    }
}

/// Every query delegates to the generation current at call time. A single
/// query is always consistent (it holds that generation's `Arc` for its
/// whole traversal); callers needing *cross*-query consistency use
/// [`SpatialStore::with_frozen`].
impl<S: SpatialStore> SpatialStore for VersionedStore<S> {
    fn for_each_in_window(&self, w: &Rect, f: &mut dyn FnMut(&SpatialObject)) {
        self.snapshot().store.for_each_in_window(w, f)
    }

    fn for_each_eps_range(&self, q: &Rect, eps: f64, f: &mut dyn FnMut(&SpatialObject)) {
        self.snapshot().store.for_each_eps_range(q, eps, f)
    }

    fn count(&self, w: &Rect) -> u64 {
        self.snapshot().store.count(w)
    }

    fn level_mbrs(&self, levels_above_leaves: usize) -> Option<Vec<Rect>> {
        self.snapshot().store.level_mbrs(levels_above_leaves)
    }

    fn len(&self) -> usize {
        self.snapshot().store.len()
    }

    fn bounds(&self) -> Option<Rect> {
        self.snapshot().store.bounds()
    }

    fn generation(&self) -> u64 {
        let published = self.published.read().expect("snapshot lock poisoned");
        published.current.number
    }

    fn changes_since(&self, since: u64) -> Option<(u64, Vec<DeltaOp>)> {
        let published = self.published.read().expect("snapshot lock poisoned");
        let current = published.current.number;
        let reached_back_to = published
            .log
            .front()
            .map_or(current, |(first, _)| first - 1);
        (reached_back_to..=current).contains(&since).then(|| {
            let later = published.log.iter().filter(|(number, _)| *number > since);
            (current, later.flat_map(|(_, ops)| ops).copied().collect())
        })
    }

    fn apply_updates(&self, batch: &[Update]) -> Option<u64> {
        Some(self.apply(batch))
    }

    fn with_frozen(&self, f: &mut dyn FnMut(&dyn SpatialStore, u64)) {
        let snap = self.snapshot();
        f(&*snap.store, snap.number);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{RTreeStore, ScanStore};

    fn lattice(n: u32) -> Vec<SpatialObject> {
        (0..n * n)
            .map(|i| SpatialObject::point(i, (i % n) as f64, (i / n) as f64))
            .collect()
    }

    fn versioned(objects: Vec<SpatialObject>) -> VersionedStore<RTreeStore> {
        VersionedStore::new(objects, RTreeStore::new)
    }

    #[test]
    fn generation_zero_serves_like_the_frozen_store() {
        let frozen = RTreeStore::new(lattice(10));
        let live = versioned(lattice(10));
        assert_eq!(live.generation(), 0);
        let w = Rect::from_coords(0.0, 0.0, 3.0, 3.0);
        assert_eq!(live.count(&w), frozen.count(&w));
        assert_eq!(live.window(&w), frozen.window(&w));
        assert_eq!(live.bounds(), frozen.bounds());
        assert_eq!(live.len(), frozen.len());
    }

    #[test]
    fn apply_semantics_match_offline_replay() {
        let live = versioned(lattice(4));
        let batch = vec![
            Update::Insert(SpatialObject::point(100, 9.0, 9.0)),
            Update::Delete(0),
            Update::Delete(999), // absent: no-op
            Update::Move {
                id: 5,
                to: Rect::point(asj_geom::Point::new(8.0, 8.0)),
            },
            Update::Move {
                id: 200, // absent: insert
                to: Rect::point(asj_geom::Point::new(7.0, 7.0)),
            },
            Update::Insert(SpatialObject::point(100, 6.0, 6.0)), // replace
        ];
        assert_eq!(live.apply(&batch), 1);
        assert_eq!(live.generation(), 1);
        let mut replay = lattice(4);
        apply_updates_to(&mut replay, &batch);
        // The fold keeps insertion order, the store reports id order.
        replay.sort_unstable_by_key(|o| o.id);
        assert_eq!(*live.current_objects(), replay);
        // The served store holds exactly the replayed set.
        let everything = Rect::from_coords(-100.0, -100.0, 100.0, 100.0);
        let mut got = live.window(&everything);
        let mut want = ScanStore::new(replay).window(&everything);
        got.sort_unstable_by_key(|o| o.id);
        want.sort_unstable_by_key(|o| o.id);
        assert_eq!(got, want);
        // Exactly one object with the upserted id, at its final position.
        let at_100: Vec<_> = got.iter().filter(|o| o.id == 100).collect();
        assert_eq!(at_100.len(), 1);
        assert_eq!(at_100[0].mbr, Rect::point(asj_geom::Point::new(6.0, 6.0)));
    }

    #[test]
    fn empty_batch_still_bumps_the_generation() {
        let live = versioned(lattice(3));
        assert_eq!(live.apply(&[]), 1);
        assert_eq!(live.apply(&[]), 2);
        assert_eq!(live.generation(), 2);
        assert_eq!(live.len(), 9);
    }

    #[test]
    fn a_batch_that_changes_nothing_republishes_the_same_store() {
        let live = versioned(lattice(8));
        let served = live.snapshot().store;
        // What a shard that owns none of a fleet batch's moves receives.
        assert_eq!(live.apply(&[]), 1);
        assert_eq!(live.apply(&[Update::Delete(64), Update::Delete(999)]), 2);
        assert!(Arc::ptr_eq(&live.snapshot().store, &served));
        assert_eq!(live.apply(&[Update::Delete(0)]), 3);
        assert!(!Arc::ptr_eq(&live.snapshot().store, &served));
        assert_eq!(served.len(), 64, "the old generation still holds id 0");
        assert_eq!(live.len(), 63);
    }

    /// `moved` objects of a `side`-wide lattice, each shifted by half a cell.
    fn shift(side: u32, ids: impl Iterator<Item = u32>) -> Vec<Update> {
        ids.map(|id| Update::Move {
            id,
            to: Rect::point(asj_geom::Point::new(
                (id % side) as f64 + 0.5,
                (id / side) as f64 + 0.5,
            )),
        })
        .collect()
    }

    #[test]
    fn the_same_history_gives_the_same_tree_and_a_repack_equals_a_bulk_load() {
        // 256 objects: the ⅛ rule allows 32 delta ops, a 5-move batch is 10.
        let (a, b) = (versioned(lattice(16)), versioned(lattice(16)));
        let everything = Rect::from_coords(-1.0, -1.0, 17.0, 17.0);
        let packed =
            |live: &VersionedStore<RTreeStore>| RTreeStore::new((*live.current_objects()).clone());
        for round in 0..3 {
            let batch = shift(16, (0..5).map(|i| 50 * i + round));
            a.apply(&batch);
            b.apply(&batch);
            // Same objects in the same order: tree shape is a function of
            // the history, not of anything the process did.
            assert_eq!(a.window(&everything), b.window(&everything));
            assert_eq!(a.level_mbrs(0), b.level_mbrs(0));
        }
        assert_ne!(
            a.window(&everything),
            packed(&a).window(&everything),
            "three batches in, the tree is still the path-copied one"
        );
        let batch = shift(16, (0..5).map(|i| 50 * i + 3));
        a.apply(&batch);
        b.apply(&batch);
        assert_eq!(a.window(&everything), b.window(&everything));
        assert_eq!(a.window(&everything), packed(&a).window(&everything));
        assert_eq!(a.level_mbrs(0), packed(&a).level_mbrs(0));
    }

    /// `objects` after `ops`, in id order — what a client patching its
    /// copy computes.
    fn patched(mut objects: Vec<SpatialObject>, ops: &[DeltaOp]) -> Vec<SpatialObject> {
        for op in ops {
            match *op {
                DeltaOp::Remove { id, mbr } => {
                    let at = objects.iter().position(|o| o.id == id);
                    assert_eq!(objects.remove(at.expect("removes what is held")).mbr, mbr);
                }
                DeltaOp::Add(o) => {
                    assert!(objects.iter().all(|held| held.id != o.id));
                    objects.push(o);
                }
            }
        }
        objects.sort_unstable_by_key(|o| o.id);
        objects
    }

    #[test]
    fn changes_since_replays_the_log_and_refuses_what_it_no_longer_reaches() {
        // 256 objects: the log keeps 32 ops, a 5-move batch is 10.
        let live = versioned(lattice(16));
        assert_eq!(live.changes_since(0), Some((0, Vec::new())));
        assert_eq!(live.changes_since(1), None, "the future is not logged");
        let mut states = vec![(*live.current_objects()).clone()];
        for round in 0..3 {
            live.apply(&shift(16, (0..5).map(|i| 50 * i + round)));
            states.push((*live.current_objects()).clone());
        }
        live.apply(&[]); // an empty tick is a logged generation like any other
        states.push(states[3].clone());
        for (since, state) in states.iter().enumerate() {
            let (reached, ops) = live.changes_since(since as u64).expect("within the log");
            assert_eq!(reached, 4);
            assert_eq!(ops.len(), 10 * 3usize.saturating_sub(since));
            assert_eq!(patched(state.clone(), &ops), states[4], "since {since}");
        }
        // A fourth batch makes 40 ops: the oldest falls out, whole.
        live.apply(&shift(16, (0..5).map(|i| 50 * i + 3)));
        assert_eq!(live.changes_since(0), None);
        let (reached, ops) = live.changes_since(1).expect("three batches fit");
        assert_eq!((reached, ops.len()), (5, 30));
        assert_eq!(patched(states[1].clone(), &ops), *live.current_objects());
        // The newest batch stays however large it is.
        live.apply(&shift(16, 0..100));
        assert_eq!(live.changes_since(4), None);
        assert_eq!(
            live.changes_since(5).map(|(g, ops)| (g, ops.len())),
            Some((6, 200))
        );
        // A resynchronised replica does not know how its donor got there.
        live.catch_up(lattice(16), 9);
        assert_eq!(live.changes_since(6), None);
        assert_eq!(live.changes_since(9), Some((9, Vec::new())));
        assert_eq!(RTreeStore::new(lattice(4)).changes_since(0), None, "frozen");
    }

    #[test]
    fn with_frozen_pins_one_snapshot() {
        let live = versioned(lattice(3));
        live.apply(&[Update::Delete(0)]);
        let mut seen = None;
        live.with_frozen(&mut |store, generation| {
            assert_eq!(generation, 1);
            // A swap published mid-request must not affect the pinned view.
            live.apply(&[Update::Delete(1)]);
            assert_eq!(store.len(), 8, "pinned snapshot changed under us");
            seen = Some(store.len());
        });
        assert_eq!(seen, Some(8));
        assert_eq!(live.len(), 7, "the concurrent batch did publish");
        assert_eq!(live.generation(), 2);
    }

    #[test]
    fn a_pinned_snapshot_is_unchanged_by_a_hundred_delta_batches() {
        // 4096 objects allow 512 delta ops; 100 one-move batches are 200,
        // so every generation below shares nodes with the pinned one.
        let live = versioned(lattice(64));
        let w = Rect::from_coords(10.0, 10.0, 40.5, 30.5);
        live.with_frozen(&mut |pinned, generation| {
            assert_eq!(generation, 0);
            let before = (pinned.window(&w), pinned.count(&w), pinned.level_mbrs(0));
            for round in 0..100 {
                live.apply(&shift(64, std::iter::once(round * 37)));
                let now = (pinned.window(&w), pinned.count(&w), pinned.level_mbrs(0));
                assert_eq!(now, before, "pinned snapshot changed in round {round}");
            }
            assert_ne!(live.window(&w), before.0, "the batches did publish");
        });
        assert_eq!(live.generation(), 100);
    }

    #[test]
    fn readers_holding_old_arcs_survive_swaps() {
        // 4096 objects, so the 50 batches below are all path-copied into
        // trees that share nodes with the ones the readers are walking.
        let live = Arc::new(versioned(lattice(64)));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        std::thread::scope(|scope| {
            for _ in 0..3 {
                let live = Arc::clone(&live);
                let stop = Arc::clone(&stop);
                scope.spawn(move || {
                    let w = Rect::from_coords(0.0, 0.0, 7.0, 7.0);
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        let c = live.count(&w);
                        assert!(c <= 64 + 50, "count {c} exceeds what can be in the window");
                        let objs = live.window(&w);
                        assert!(objs.len() <= 64 + 50);
                    }
                });
            }
            for round in 0..50u32 {
                let id = round * 80;
                live.apply(&[Update::Move {
                    id,
                    to: Rect::point(asj_geom::Point::new(
                        (round % 8) as f64,
                        (round / 8 % 8) as f64,
                    )),
                }]);
            }
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
        });
        assert_eq!(live.generation(), 50);
        assert_eq!(live.len(), 4096, "moves never change cardinality");
    }

    #[test]
    fn restart_resumes_at_the_published_generation() {
        let live = versioned(lattice(3));
        live.apply(&[Update::Delete(0)]);
        live.apply(&[Update::Insert(SpatialObject::point(100, 5.0, 5.0))]);
        let objects = (*live.current_objects()).clone();
        let generation = live.generation();
        // The crash-restart path: rebuild from the last published state.
        let reborn =
            VersionedStore::with_generation(RTreeStore::new(objects), generation, RTreeStore::new);
        assert_eq!(reborn.generation(), 2);
        assert_eq!(reborn.len(), live.len());
        let w = Rect::from_coords(0.0, 0.0, 10.0, 10.0);
        assert_eq!(reborn.count(&w), live.count(&w));
        // Updates continue the numbering — no regression, no reuse.
        assert_eq!(reborn.apply(&[]), 3);
    }

    #[test]
    fn catch_up_adopts_ahead_state_and_never_regresses() {
        let donor = versioned(lattice(3));
        donor.apply(&[Update::Insert(SpatialObject::point(100, 5.0, 5.0))]);
        donor.apply(&[Update::Delete(0)]);
        let lagging = versioned(lattice(3));
        lagging.catch_up((*donor.current_objects()).clone(), donor.generation());
        assert_eq!(lagging.generation(), 2);
        assert_eq!(*lagging.current_objects(), *donor.current_objects());
        let w = Rect::from_coords(0.0, 0.0, 10.0, 10.0);
        assert_eq!(lagging.count(&w), donor.count(&w), "served store rebuilt");
        // At or behind the current generation: nothing moves.
        lagging.catch_up(lattice(3), 2);
        lagging.catch_up(lattice(3), 1);
        assert_eq!(lagging.generation(), 2);
        assert_eq!(*lagging.current_objects(), *donor.current_objects());
        // Numbering continues from the adopted generation.
        assert_eq!(lagging.apply(&[]), 3);
    }

    #[test]
    fn frozen_stores_refuse_updates_by_default() {
        let frozen = RTreeStore::new(lattice(3));
        assert_eq!(frozen.apply_updates(&[]), None);
        assert_eq!(frozen.generation(), 0);
        let live = versioned(lattice(3));
        assert_eq!(live.apply_updates(&[Update::Delete(0)]), Some(1));
    }
}
