//! The R-tree proper: path-copying insertion and removal, and the query set
//! the spatial servers expose.

use crate::bulk;
use crate::node::{mbr_of_nodes, mbr_of_objects, Node, NodeKind};
use asj_geom::{Rect, SpatialObject};

/// Default maximum node fanout. 16 keeps trees shallow at the paper's
/// cardinalities (1 K–35 K objects) while exercising multi-level splits.
pub const DEFAULT_MAX_ENTRIES: usize = 16;

/// An aggregate R-tree over [`SpatialObject`]s.
///
/// See the crate docs for the feature set. `max_entries` is the Guttman `M`;
/// `min_entries`, the least a split leaves in either half, is fixed at
/// `⌈40 % · M⌉`, the classic sweet spot.
///
/// The tree is **persistent**: node bodies are shared by reference count,
/// so `clone` is O(1) and [`RTree::insert`] / [`RTree::remove`] on a clone
/// copy only the root-to-leaf path they touch. The original — and every
/// query already walking it — is never affected.
#[derive(Debug, Clone)]
pub struct RTree {
    root: Option<Node>,
    max_entries: usize,
    min_entries: usize,
    len: usize,
}

impl Default for RTree {
    fn default() -> Self {
        RTree::new(DEFAULT_MAX_ENTRIES)
    }
}

impl RTree {
    /// The library-wide default fanout ([`DEFAULT_MAX_ENTRIES`]).
    pub fn default_max_entries() -> usize {
        DEFAULT_MAX_ENTRIES
    }

    /// Creates an empty tree with the given maximum fanout (`≥ 4`).
    pub fn new(max_entries: usize) -> Self {
        assert!(max_entries >= 4, "max_entries must be at least 4");
        RTree {
            root: None,
            max_entries,
            min_entries: (max_entries * 2).div_ceil(5).max(2),
            len: 0,
        }
    }

    /// Bulk loads with Sort-Tile-Recursive packing — O(n log n), produces a
    /// tree with near-100 % node utilization. Every level sorts 16-byte
    /// (key, position) pairs and gathers the objects or nodes by position;
    /// the tree is the one sorting the objects themselves would pack, node
    /// for node. Build it once per dataset: a clone is O(1) and shares it.
    pub fn bulk_load(objects: Vec<SpatialObject>, max_entries: usize) -> Self {
        let mut t = RTree::new(max_entries);
        t.len = objects.len();
        t.root = bulk::build(&objects, max_entries);
        t
    }

    /// Number of stored objects.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the tree stores nothing.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tree height: 0 for empty, 1 for a single leaf root.
    pub fn height(&self) -> usize {
        let mut h = 0;
        let mut node = self.root.as_ref();
        while let Some(n) = node {
            h += 1;
            node = match &n.kind {
                NodeKind::Internal(cs) => cs.first(),
                NodeKind::Leaf(_) => None,
            };
        }
        h
    }

    /// MBR of the whole dataset, if any.
    pub fn root_mbr(&self) -> Option<Rect> {
        self.root.as_ref().map(|r| r.mbr)
    }

    /// Inserts one object (Guttman's least-enlargement descent, the
    /// R*-tree's least-overlap split on overflow, root split grows the tree). Copies the
    /// root-to-leaf path it descends; every other subtree stays shared
    /// with the tree's clones.
    pub fn insert(&mut self, obj: SpatialObject) {
        self.len += 1;
        self.root = Some(match self.root.take() {
            None => Node::leaf([obj]),
            Some(root) => match self.insert_rec(&root, obj) {
                (node, None) => node,
                (node, Some(sibling)) => Node::internal([node, sibling]),
            },
        });
    }

    /// The replacement for `node` with `obj` added beneath it, plus the
    /// sibling a split produced.
    fn insert_rec(&self, node: &Node, obj: SpatialObject) -> (Node, Option<Node>) {
        match &node.kind {
            NodeKind::Leaf(old) => {
                let mut entries = Vec::with_capacity(old.len() + 1);
                entries.extend_from_slice(old);
                entries.push(obj);
                if entries.len() > self.max_entries {
                    let (a, b) = least_overlap_split(entries, |o| o.mbr, self.min_entries);
                    (Node::leaf(a), Some(Node::leaf(b)))
                } else {
                    (Node::leaf(entries), None)
                }
            }
            NodeKind::Internal(children) => {
                let idx = choose_subtree(children, &obj.mbr);
                let (child, split) = self.insert_rec(&children[idx], obj);
                let mut children = children.to_vec();
                children[idx] = child;
                children.extend(split);
                if children.len() > self.max_entries {
                    let (a, b) = least_overlap_split(children, |n| n.mbr, self.min_entries);
                    (Node::internal(a), Some(Node::internal(b)))
                } else {
                    (Node::internal(children), None)
                }
            }
        }
    }

    /// Removes the object `id` stored under `mbr`, returning whether it
    /// was there. Like [`RTree::insert`] it copies only the path it
    /// changes and rebuilds each copied node's MBR and aggregates from its
    /// direct content. A node left empty is unlinked from its parent on the
    /// way up and a root left with a single child is replaced by that
    /// child, so leaves stay at one depth; nodes are not otherwise
    /// condensed.
    pub fn remove(&mut self, id: u32, mbr: &Rect) -> bool {
        let Some(removed) = self.root.as_ref().and_then(|r| remove_rec(r, id, mbr)) else {
            return false;
        };
        self.len -= 1;
        self.root = removed.map(|mut root| {
            while let NodeKind::Internal(children) = &root.kind {
                let [only] = &children[..] else { break };
                root = only.clone();
            }
            root
        });
        true
    }

    /// `WINDOW(w)`: all objects whose MBR intersects `w`.
    pub fn window(&self, w: &Rect) -> Vec<SpatialObject> {
        let mut out = Vec::new();
        self.for_each_in_window(w, &mut |o| out.push(*o));
        out
    }

    /// Visits every object intersecting `w`, in tree (traversal) order —
    /// the same order [`RTree::window`] materializes, which the zero-copy
    /// serving path in `asj-server` relies on for wire-byte identity.
    pub fn for_each_in_window(&self, w: &Rect, f: &mut dyn FnMut(&SpatialObject)) {
        if let Some(root) = self.root.as_ref().filter(|r| r.mbr.intersects(w)) {
            window_rec(root, w, f);
        }
    }

    /// Visits every object within distance `eps` of `q`, in tree order —
    /// the visitor form of [`RTree::eps_range`].
    pub fn for_each_eps_range(&self, q: &Rect, eps: f64, f: &mut dyn FnMut(&SpatialObject)) {
        if let Some(root) = self.root.as_ref().filter(|r| r.mbr.within_distance(q, eps)) {
            range_rec(root, q, eps, f);
        }
    }

    /// `COUNT(w)`: number of objects intersecting `w`. Uses the aggregate
    /// counts: subtrees fully inside `w` contribute without being visited.
    pub fn count(&self, w: &Rect) -> u64 {
        self.root.as_ref().map_or(0, |root| count_entry(root, w))
    }

    /// `ε-RANGE(q, ε)`: objects within Euclidean distance `eps` of the
    /// rectangle `q` (a degenerate `q` gives the paper's point form).
    pub fn eps_range(&self, q: &Rect, eps: f64) -> Vec<SpatialObject> {
        let mut out = Vec::new();
        self.for_each_eps_range(q, eps, &mut |o| out.push(*o));
        out
    }

    /// The MBRs of all nodes `levels_above_leaves` levels above the leaf
    /// level (0 = the leaf nodes themselves). The SemiJoin baseline ships
    /// level 0 — the paper's "second to last level of the R-tree".
    ///
    /// Returns an empty vector when the tree is shorter than requested.
    pub fn level_mbrs(&self, levels_above_leaves: usize) -> Vec<Rect> {
        let h = self.height();
        let mut out = Vec::new();
        if let Some(root) = &self.root {
            if levels_above_leaves < h {
                // Depth (from root) of the wanted level: leaves are depth
                // h-1; we want depth h-1-levels_above_leaves.
                let want = h - 1 - levels_above_leaves;
                collect_level(root, 0, want, &mut out);
            }
        }
        out
    }

    /// All stored objects, in tree order.
    pub fn objects(&self) -> Vec<SpatialObject> {
        let everything = self
            .root_mbr()
            .map(|m| m.expand(1.0))
            .unwrap_or_else(|| Rect::from_coords(0.0, 0.0, 0.0, 0.0));
        self.window(&everything)
    }

    /// Validates structural invariants (MBR containment, aggregate counts,
    /// fanout bounds, no empty node, a root with more than one child unless
    /// it is a leaf, every leaf at the same depth); test / debug aid.
    /// Returns the number of nodes.
    pub fn check_invariants(&self) -> usize {
        match &self.root {
            None => {
                assert_eq!(self.len, 0, "objects without a root");
                0
            }
            Some(root) => {
                if let NodeKind::Internal(cs) = &root.kind {
                    assert!(cs.len() >= 2, "internal root with a single child");
                }
                let (nodes, count, _) = check_rec(root, self.max_entries);
                assert_eq!(
                    count, self.len as u64,
                    "aggregate count diverges from len()"
                );
                nodes
            }
        }
    }
}

fn choose_subtree(children: &[Node], mbr: &Rect) -> usize {
    // Least enlargement, ties by smallest area — Guttman's ChooseLeaf.
    let mut best = 0usize;
    let mut best_enl = f64::INFINITY;
    let mut best_area = f64::INFINITY;
    for (i, c) in children.iter().enumerate() {
        let enl = c.mbr.enlargement(mbr);
        let area = c.mbr.area();
        if enl < best_enl || (enl == best_enl && area < best_area) {
            best = i;
            best_enl = enl;
            best_area = area;
        }
    }
    best
}

/// `None` when `id` is not stored under `mbr` in this subtree; otherwise the
/// subtree's replacement — itself `None` when the removal emptied it.
fn remove_rec(node: &Node, id: u32, mbr: &Rect) -> Option<Option<Node>> {
    if !node.mbr.contains_rect(mbr) {
        return None;
    }
    match &node.kind {
        NodeKind::Leaf(entries) => {
            let at = entries.iter().position(|o| o.id == id && o.mbr == *mbr)?;
            let mut entries = entries.to_vec();
            entries.remove(at);
            Some((!entries.is_empty()).then(|| Node::leaf(entries)))
        }
        NodeKind::Internal(children) => {
            let (at, child) = children
                .iter()
                .enumerate()
                .find_map(|(i, c)| Some((i, remove_rec(c, id, mbr)?)))?;
            let mut children = children.to_vec();
            match child {
                Some(child) => children[at] = child,
                None => {
                    children.remove(at);
                }
            }
            Some((!children.is_empty()).then(|| Node::internal(children)))
        }
    }
}

/// Splits an overflowing node's entries the R*-tree way, over any entry
/// type with an MBR accessor: order them by centre along each axis, look at
/// every cut that leaves both halves `min_entries`, keep the axis whose cuts
/// have the smaller margin sum and, on it, the cut whose halves overlap
/// least (ties: least total area).
///
/// Guttman's quadratic split, which this replaces, left the halves
/// overlapping so much that a packed 35 K-object tree answered windows 20 %
/// slower once 1 % of its objects had moved; with this split it is 5 %.
fn least_overlap_split<T>(
    mut entries: Vec<T>,
    mbr_of: impl Fn(&T) -> Rect,
    min_entries: usize,
) -> (Vec<T>, Vec<T>) {
    let n = entries.len();
    debug_assert!(n >= 2 * min_entries);
    let sort_along = |entries: &mut Vec<T>, axis: fn(&Rect) -> f64| {
        entries.sort_by(|a, b| axis(&mbr_of(a)).total_cmp(&axis(&mbr_of(b))));
    };
    // The margin sum over the cuts of `entries` as ordered, and the best cut.
    let survey = |entries: &[T]| {
        let mbrs: Vec<Rect> = entries.iter().map(&mbr_of).collect();
        let mut heads = mbrs.clone(); // heads[k] covers mbrs[..=k]
        for k in 1..n {
            heads[k] = heads[k].union(&heads[k - 1]);
        }
        let mut tails = mbrs; // tails[k] covers mbrs[k..]
        for k in (0..n - 1).rev() {
            tails[k] = tails[k].union(&tails[k + 1]);
        }
        let mut margins = 0.0;
        let mut best = (f64::INFINITY, f64::INFINITY, min_entries);
        for k in min_entries..=n - min_entries {
            let (head, tail) = (heads[k - 1], tails[k]);
            margins += head.margin() + tail.margin();
            let overlap = head.intersection(&tail).map_or(0.0, |r| r.area());
            let area = head.area() + tail.area();
            if (overlap, area) < (best.0, best.1) {
                best = (overlap, area, k);
            }
        }
        (margins, best.2)
    };
    let by_x = |m: &Rect| m.center().x;
    let by_y = |m: &Rect| m.center().y;
    sort_along(&mut entries, by_y);
    let (margins_y, cut_y) = survey(&entries);
    sort_along(&mut entries, by_x);
    let (margins_x, cut_x) = survey(&entries);
    let cut = if margins_y < margins_x {
        sort_along(&mut entries, by_y);
        cut_y
    } else {
        cut_x
    };
    let tail = entries.split_off(cut);
    (entries, tail)
}

// The three walks share one shape: the caller has already tested `node`
// (the root at entry, every other node in its parent's loop), and each
// walk tests a node's children in that loop, entering only those that
// pass. A call is made per qualifying subtree, never per child.

fn window_rec(node: &Node, w: &Rect, f: &mut dyn FnMut(&SpatialObject)) {
    match &node.kind {
        NodeKind::Leaf(es) => es.iter().filter(|o| o.mbr.intersects(w)).for_each(f),
        NodeKind::Internal(cs) => {
            for c in cs.iter().filter(|c| c.mbr.intersects(w)) {
                window_rec(c, w, f);
            }
        }
    }
}

/// `COUNT(w)` under one entry: nothing when its MBR misses `w`, its
/// aggregate when `w` covers it (the aR-tree shortcut: the subtree is not
/// entered), otherwise the count of a visit.
#[inline(always)]
fn count_entry(node: &Node, w: &Rect) -> u64 {
    if !node.mbr.intersects(w) {
        0
    } else if w.contains_rect(&node.mbr) {
        node.count
    } else {
        count_rec(node, w)
    }
}

fn count_rec(node: &Node, w: &Rect) -> u64 {
    match &node.kind {
        NodeKind::Leaf(es) => es.iter().map(|o| u64::from(o.mbr.intersects(w))).sum(),
        NodeKind::Internal(cs) => cs.iter().map(|c| count_entry(c, w)).sum(),
    }
}

fn range_rec(node: &Node, q: &Rect, eps: f64, f: &mut dyn FnMut(&SpatialObject)) {
    // Pruned by the predicate the leaves apply, so the answer has one
    // definition for every ε — negative (ε² decides) and NaN (nothing).
    match &node.kind {
        NodeKind::Leaf(es) => es
            .iter()
            .filter(|o| o.mbr.within_distance(q, eps))
            .for_each(f),
        NodeKind::Internal(cs) => {
            for c in cs.iter().filter(|c| c.mbr.within_distance(q, eps)) {
                range_rec(c, q, eps, f);
            }
        }
    }
}

fn collect_level(node: &Node, depth: usize, want: usize, out: &mut Vec<Rect>) {
    if depth == want {
        out.push(node.mbr);
        return;
    }
    if let NodeKind::Internal(cs) = &node.kind {
        for c in cs.iter() {
            collect_level(c, depth + 1, want, out);
        }
    }
}

/// `(nodes, objects, height)` of the subtree.
fn check_rec(node: &Node, max_entries: usize) -> (usize, u64, usize) {
    assert!(
        node.fanout() <= max_entries,
        "node overflow: {} > {max_entries}",
        node.fanout()
    );
    assert!(node.fanout() >= 1, "empty node");
    match &node.kind {
        NodeKind::Leaf(es) => {
            assert_eq!(node.count, es.len() as u64, "leaf count mismatch");
            assert_eq!(node.mbr, mbr_of_objects(es), "leaf mbr stale");
            (1, node.count, 1)
        }
        NodeKind::Internal(cs) => {
            assert_eq!(node.mbr, mbr_of_nodes(cs), "internal mbr stale");
            let mut nodes = 1;
            let mut count = 0;
            let mut height = None;
            for c in cs.iter() {
                assert!(node.mbr.contains_rect(&c.mbr), "child escapes parent mbr");
                let (n, cnt, h) = check_rec(c, max_entries);
                nodes += n;
                count += cnt;
                // `height()` and `level_mbrs` follow the first child only.
                assert_eq!(*height.get_or_insert(h), h, "leaves at different depths");
            }
            assert_eq!(node.count, count, "internal aggregate mismatch");
            (nodes, count, 1 + height.expect("non-empty internal node"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic LCG so the tests need no rand dependency here.
    fn lcg_points(n: usize, seed: u64) -> Vec<SpatialObject> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64)
        };
        (0..n)
            .map(|i| SpatialObject::point(i as u32, next() * 1000.0, next() * 1000.0))
            .collect()
    }

    #[test]
    fn empty_tree_behaviour() {
        let t = RTree::default();
        assert!(t.is_empty());
        assert_eq!(t.height(), 0);
        assert_eq!(t.count(&Rect::from_coords(0.0, 0.0, 1.0, 1.0)), 0);
        assert!(t.window(&Rect::from_coords(0.0, 0.0, 1.0, 1.0)).is_empty());
        assert!(t.level_mbrs(0).is_empty());
        assert_eq!(t.check_invariants(), 0);
    }

    #[test]
    fn insert_then_query_small() {
        let mut t = RTree::new(4);
        for o in lcg_points(3, 1) {
            t.insert(o);
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.height(), 1);
        let all = t.window(&Rect::from_coords(-1.0, -1.0, 1001.0, 1001.0));
        assert_eq!(all.len(), 3);
        t.check_invariants();
    }

    #[test]
    fn insert_splits_grow_tree() {
        let mut t = RTree::new(4);
        for o in lcg_points(500, 2) {
            t.insert(o);
        }
        assert_eq!(t.len(), 500);
        assert!(
            t.height() >= 3,
            "expected multi-level tree, h={}",
            t.height()
        );
        t.check_invariants();
    }

    #[test]
    fn window_matches_linear_scan() {
        let pts = lcg_points(800, 3);
        let mut t = RTree::new(8);
        for &o in &pts {
            t.insert(o);
        }
        for w in [
            Rect::from_coords(0.0, 0.0, 100.0, 100.0),
            Rect::from_coords(250.0, 250.0, 750.0, 600.0),
            Rect::from_coords(990.0, 990.0, 1000.0, 1000.0),
            Rect::from_coords(-50.0, -50.0, -1.0, -1.0),
        ] {
            let mut got: Vec<u32> = t.window(&w).iter().map(|o| o.id).collect();
            let mut want: Vec<u32> = pts
                .iter()
                .filter(|o| o.mbr.intersects(&w))
                .map(|o| o.id)
                .collect();
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want);
            assert_eq!(t.count(&w), want.len() as u64);
        }
    }

    #[test]
    fn eps_range_matches_linear_scan() {
        let pts = lcg_points(600, 4);
        let t = RTree::bulk_load(pts.clone(), 8);
        let q = Rect::point(asj_geom::Point::new(500.0, 500.0));
        for eps in [0.0, 10.0, 120.0, 2000.0] {
            let mut got: Vec<u32> = t.eps_range(&q, eps).iter().map(|o| o.id).collect();
            let mut want: Vec<u32> = pts
                .iter()
                .filter(|o| o.mbr.within_distance(&q, eps))
                .map(|o| o.id)
                .collect();
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "eps={eps}");
            assert_eq!(t.eps_range(&q, eps).len(), want.len());
        }
    }

    #[test]
    fn bulk_load_equivalent_to_inserts() {
        let pts = lcg_points(1000, 5);
        let bulk = RTree::bulk_load(pts.clone(), 16);
        let mut inc = RTree::new(16);
        for &o in &pts {
            inc.insert(o);
        }
        bulk.check_invariants();
        inc.check_invariants();
        let w = Rect::from_coords(100.0, 100.0, 400.0, 900.0);
        assert_eq!(bulk.count(&w), inc.count(&w));
        assert_eq!(bulk.len(), inc.len());
        // Bulk-loaded trees are well packed: height near log_M(n).
        assert!(bulk.height() <= inc.height());
    }

    #[test]
    fn level_mbrs_cover_dataset() {
        let pts = lcg_points(2000, 6);
        let t = RTree::bulk_load(pts.clone(), 16);
        let h = t.height();
        assert!(h >= 3);
        // Leaf-level MBRs (the SemiJoin payload) jointly cover every object.
        let leaf_mbrs = t.level_mbrs(0);
        assert!(!leaf_mbrs.is_empty());
        for o in &pts {
            assert!(
                leaf_mbrs.iter().any(|m| m.contains_rect(&o.mbr)),
                "object {} not covered",
                o.id
            );
        }
        // Root level has exactly one MBR.
        assert_eq!(t.level_mbrs(h - 1).len(), 1);
        // Too-high level: empty.
        assert!(t.level_mbrs(h).is_empty());
        // Levels shrink going up.
        assert!(t.level_mbrs(0).len() >= t.level_mbrs(1).len());
    }

    #[test]
    fn visitors_match_materializing_queries_in_order() {
        let pts = lcg_points(500, 9);
        let t = RTree::bulk_load(pts, 8);
        let w = Rect::from_coords(200.0, 200.0, 700.0, 600.0);
        let mut visited = Vec::new();
        t.for_each_in_window(&w, &mut |o| visited.push(*o));
        assert_eq!(visited, t.window(&w), "same objects, same order");
        let q = Rect::point(asj_geom::Point::new(500.0, 500.0));
        let mut ranged = Vec::new();
        t.for_each_eps_range(&q, 150.0, &mut |o| ranged.push(*o));
        assert_eq!(ranged, t.eps_range(&q, 150.0));
        assert!(!visited.is_empty() && !ranged.is_empty());
    }

    #[test]
    fn objects_roundtrip() {
        let pts = lcg_points(123, 7);
        let t = RTree::bulk_load(pts.clone(), 8);
        let mut got: Vec<u32> = t.objects().iter().map(|o| o.id).collect();
        got.sort_unstable();
        let want: Vec<u32> = (0..123).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn remove_unlinks_empties_and_collapses_the_root() {
        let pts = lcg_points(300, 8);
        let mut t = RTree::new(4);
        for &o in &pts {
            t.insert(o);
        }
        assert!(t.height() >= 3);
        // Absent id, and a present id under the wrong MBR: nothing moves.
        assert!(!t.remove(9999, &pts[0].mbr));
        assert!(!t.remove(pts[0].id, &pts[1].mbr));
        assert_eq!(t.len(), 300);
        let everything = Rect::from_coords(-1.0, -1.0, 1001.0, 1001.0);
        for (i, o) in pts.iter().enumerate() {
            assert!(t.remove(o.id, &o.mbr), "object {} not found", o.id);
            assert!(!t.remove(o.id, &o.mbr), "object {} removed twice", o.id);
            t.check_invariants();
            assert_eq!(t.count(&everything), (pts.len() - i - 1) as u64);
        }
        assert!(t.is_empty());
        assert_eq!(t.height(), 0);
        assert_eq!(t.root_mbr(), None);
        t.insert(pts[0]);
        assert_eq!(t.window(&everything), vec![pts[0]]);
    }

    #[test]
    fn a_clone_is_untouched_by_later_inserts_and_removes() {
        let pts = lcg_points(2000, 10);
        let mut t = RTree::bulk_load(pts.clone(), 8);
        let before = t.clone();
        let w = Rect::from_coords(100.0, 100.0, 600.0, 700.0);
        let (window, count) = (before.window(&w), before.count(&w));
        let leaves = before.level_mbrs(0);
        for o in &pts[..500] {
            assert!(t.remove(o.id, &o.mbr));
            t.insert(SpatialObject::point(
                o.id + 10_000,
                1000.0 - o.mbr.min.x,
                o.mbr.min.y,
            ));
        }
        t.check_invariants();
        before.check_invariants();
        assert_eq!(before.len(), 2000);
        assert_eq!(before.window(&w), window, "same objects, same order");
        assert_eq!(before.count(&w), count);
        assert_eq!(before.level_mbrs(0), leaves);
        assert_ne!(t.window(&w), window);
    }

    #[test]
    fn duplicate_positions_are_kept() {
        let mut t = RTree::new(4);
        for i in 0..50 {
            t.insert(SpatialObject::point(i, 5.0, 5.0));
        }
        assert_eq!(t.count(&Rect::from_coords(0.0, 0.0, 10.0, 10.0)), 50);
        t.check_invariants();
    }

    #[test]
    fn count_uses_closed_window_semantics() {
        let mut t = RTree::new(4);
        t.insert(SpatialObject::point(1, 10.0, 10.0));
        // Point on the window edge counts (closed semantics).
        assert_eq!(t.count(&Rect::from_coords(0.0, 0.0, 10.0, 10.0)), 1);
        assert_eq!(t.count(&Rect::from_coords(10.0, 10.0, 20.0, 20.0)), 1);
        assert_eq!(t.count(&Rect::from_coords(10.1, 10.1, 20.0, 20.0)), 0);
    }
}
