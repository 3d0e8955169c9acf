//! Storage backends for a spatial service.

use asj_geom::{Rect, SpatialObject};
pub use asj_net::DeltaOp;
use asj_net::Update;
use asj_rtree::RTree;

/// What a server's storage layer must answer. All methods are read-only;
/// services share a store across threads (`Sync`).
///
/// The **visitor methods are the primitives**: `window` / `eps_range` are
/// provided on top of them, so a backend's materialized results and its
/// streamed visits are identical — same objects, same order — by
/// construction. The zero-copy serving path in [`crate::service`] leans on
/// that: it visits the store once, encoding each visited object straight
/// into the wire buffer, and patches the frame's count in afterwards.
pub trait SpatialStore: Send + Sync {
    /// Visits every object intersecting `w`, exactly once, in the
    /// backend's canonical order.
    fn for_each_in_window(&self, w: &Rect, f: &mut dyn FnMut(&SpatialObject));
    /// Visits every object within `eps` of `q`, exactly once, in the
    /// backend's canonical order.
    fn for_each_eps_range(&self, q: &Rect, eps: f64, f: &mut dyn FnMut(&SpatialObject));
    /// Number of objects intersecting `w`.
    fn count(&self, w: &Rect) -> u64;
    /// Objects intersecting `w` (materialized visitor order).
    fn window(&self, w: &Rect) -> Vec<SpatialObject> {
        let mut out = Vec::new();
        self.for_each_in_window(w, &mut |o| out.push(*o));
        out
    }
    /// Objects within `eps` of `q` (materialized visitor order).
    fn eps_range(&self, q: &Rect, eps: f64) -> Vec<SpatialObject> {
        let mut out = Vec::new();
        self.for_each_eps_range(q, eps, &mut |o| out.push(*o));
        out
    }
    /// MBRs of one index level (`levels_above_leaves`), if the backend is
    /// hierarchical; `None` otherwise. Cooperative extension only.
    fn level_mbrs(&self, levels_above_leaves: usize) -> Option<Vec<Rect>>;
    /// Total number of stored objects.
    fn len(&self) -> usize;
    /// `true` when the store holds nothing.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// MBR of the entire dataset.
    fn bounds(&self) -> Option<Rect>;
    /// The snapshot generation this store currently serves. Frozen
    /// backends (everything except [`crate::versioned::VersionedStore`])
    /// are generation 0 forever — and generation-0 responses are encoded
    /// without a stamp, keeping their wire traffic bit-identical to the
    /// pre-generation format.
    fn generation(&self) -> u64 {
        0
    }
    /// Applies a batched update and publishes the result as a new
    /// generation, returning its number; the snapshot readers hold is
    /// never mutated. `None` — the default — marks a frozen store; the
    /// service answers such requests with `Refused`.
    fn apply_updates(&self, _batch: &[Update]) -> Option<u64> {
        None
    }
    /// A store that answers as `self` would after `ops`, applied in
    /// order, sharing with `self` whatever the ops leave untouched and
    /// leaving `self` as it is. `None` — the default — means the backend
    /// has no cheaper way than a rebuild, and
    /// [`crate::versioned::VersionedStore`] rebuilds.
    fn with_delta(&self, _ops: &[DeltaOp]) -> Option<Self>
    where
        Self: Sized,
    {
        None
    }
    /// The ordered ops that turn the dataset as served at generation
    /// `since` into the one served at the returned generation (the current
    /// one). `None` — the default — from a frozen store, and from a live
    /// one whose change log no longer reaches `since`; the service answers
    /// `Refused`.
    fn changes_since(&self, _since: u64) -> Option<(u64, Vec<DeltaOp>)> {
        None
    }
    /// Runs `f` against one consistent `(snapshot, generation)` pair. The
    /// default serves `self` directly (a frozen store *is* its only
    /// snapshot); a live store overrides this to pin one published
    /// generation for the whole call, so a multi-part request never
    /// straddles a concurrent generation swap and the stamped generation
    /// always matches the snapshot that answered.
    fn with_frozen(&self, f: &mut dyn FnMut(&dyn SpatialStore, u64))
    where
        Self: Sized,
    {
        f(self, self.generation());
    }
}

/// Linear-scan backend: O(n) everything. The reference implementation the
/// property tests compare the R-tree against, and a fine choice for tiny
/// datasets.
#[derive(Debug, Clone, Default)]
pub struct ScanStore {
    objects: Vec<SpatialObject>,
}

impl ScanStore {
    pub fn new(objects: Vec<SpatialObject>) -> Self {
        ScanStore { objects }
    }

    /// Borrow the raw objects (test helper).
    pub fn objects(&self) -> &[SpatialObject] {
        &self.objects
    }
}

impl SpatialStore for ScanStore {
    fn for_each_in_window(&self, w: &Rect, f: &mut dyn FnMut(&SpatialObject)) {
        self.objects
            .iter()
            .filter(|o| o.mbr.intersects(w))
            .for_each(f)
    }

    fn for_each_eps_range(&self, q: &Rect, eps: f64, f: &mut dyn FnMut(&SpatialObject)) {
        self.objects
            .iter()
            .filter(|o| o.mbr.within_distance(q, eps))
            .for_each(f)
    }

    fn count(&self, w: &Rect) -> u64 {
        self.objects.iter().filter(|o| o.mbr.intersects(w)).count() as u64
    }

    fn level_mbrs(&self, _levels_above_leaves: usize) -> Option<Vec<Rect>> {
        None // no hierarchy to publish
    }

    fn len(&self) -> usize {
        self.objects.len()
    }

    fn bounds(&self) -> Option<Rect> {
        Rect::union_of(self.objects.iter().map(|o| o.mbr))
    }
}

/// aR-tree backend — the production store. `COUNT` queries are answered
/// from aggregate node counts without touching qualifying subtrees.
#[derive(Debug, Clone)]
pub struct RTreeStore {
    tree: RTree,
}

impl RTreeStore {
    /// Bulk-loads the dataset (STR) with the default fanout.
    pub fn new(objects: Vec<SpatialObject>) -> Self {
        RTreeStore {
            tree: RTree::bulk_load(objects, asj_rtree::RTree::default_max_entries()),
        }
    }

    /// Bulk-loads with an explicit fanout.
    pub fn with_fanout(objects: Vec<SpatialObject>, max_entries: usize) -> Self {
        RTreeStore {
            tree: RTree::bulk_load(objects, max_entries),
        }
    }
}

impl SpatialStore for RTreeStore {
    fn for_each_in_window(&self, w: &Rect, f: &mut dyn FnMut(&SpatialObject)) {
        self.tree.for_each_in_window(w, f)
    }

    fn for_each_eps_range(&self, q: &Rect, eps: f64, f: &mut dyn FnMut(&SpatialObject)) {
        self.tree.for_each_eps_range(q, eps, f)
    }

    fn count(&self, w: &Rect) -> u64 {
        self.tree.count(w)
    }

    fn level_mbrs(&self, levels_above_leaves: usize) -> Option<Vec<Rect>> {
        Some(self.tree.level_mbrs(levels_above_leaves))
    }

    fn len(&self) -> usize {
        self.tree.len()
    }

    fn bounds(&self) -> Option<Rect> {
        self.tree.root_mbr()
    }

    /// Path-copies each op into an O(1) clone of the tree: O(log n) new
    /// nodes per op, every other subtree shared with `self`.
    fn with_delta(&self, ops: &[DeltaOp]) -> Option<Self> {
        let mut tree = self.tree.clone();
        for op in ops {
            match op {
                DeltaOp::Remove { id, mbr } => {
                    let found = tree.remove(*id, mbr);
                    debug_assert!(found, "delta removes {id}, which is not at {mbr:?}");
                }
                DeltaOp::Add(o) => tree.insert(*o),
            }
        }
        Some(RTreeStore { tree })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asj_geom::Point;

    fn dataset() -> Vec<SpatialObject> {
        // 10×10 lattice of points at integer coordinates.
        (0..100)
            .map(|i| SpatialObject::point(i, (i % 10) as f64, (i / 10) as f64))
            .collect()
    }

    #[test]
    fn scan_and_rtree_agree() {
        let scan = ScanStore::new(dataset());
        let tree = RTreeStore::with_fanout(dataset(), 4);
        for w in [
            Rect::from_coords(0.0, 0.0, 3.0, 3.0),
            Rect::from_coords(2.5, 2.5, 7.5, 4.5),
            Rect::from_coords(20.0, 20.0, 30.0, 30.0),
        ] {
            assert_eq!(scan.count(&w), tree.count(&w));
            let mut a: Vec<u32> = scan.window(&w).iter().map(|o| o.id).collect();
            let mut b: Vec<u32> = tree.window(&w).iter().map(|o| o.id).collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
        let q = Rect::point(Point::new(5.0, 5.0));
        for eps in [0.0, 1.0, 2.5] {
            assert_eq!(
                scan.eps_range(&q, eps).len(),
                tree.eps_range(&q, eps).len(),
                "eps={eps}"
            );
        }
    }

    #[test]
    fn level_mbrs_only_from_hierarchical_store() {
        let scan = ScanStore::new(dataset());
        assert!(scan.level_mbrs(0).is_none());
        let tree = RTreeStore::with_fanout(dataset(), 4);
        let leaves = tree.level_mbrs(0).unwrap();
        assert!(!leaves.is_empty());
    }

    #[test]
    fn bounds() {
        let s = ScanStore::new(dataset());
        assert_eq!(s.bounds(), Some(Rect::from_coords(0.0, 0.0, 9.0, 9.0)));
        assert_eq!(ScanStore::default().bounds(), None);
        assert!(ScanStore::default().is_empty());
    }
}
