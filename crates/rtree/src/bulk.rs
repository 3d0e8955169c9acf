//! Sort-Tile-Recursive (STR) bulk loading.
//!
//! Leutenegger et al.'s packing: sort by x-center, cut into `⌈√(n/M)⌉`
//! vertical slabs, sort each slab by y-center, pack runs of `M` into leaves;
//! then pack the produced nodes level by level with the same recipe until a
//! single root remains. Produces ~100 % utilization and a tree of minimal
//! height — what a production server would build over a static dataset like
//! the 35 K-segment rail map.

use crate::node::Node;
use asj_geom::SpatialObject;

/// Builds the root node for `objects`, or `None` when empty.
pub(crate) fn build(objects: Vec<SpatialObject>, max_entries: usize) -> Option<Node> {
    if objects.is_empty() {
        return None;
    }
    let leaves = pack_leaves(objects, max_entries);
    let mut level = leaves;
    while level.len() > 1 {
        level = pack_nodes(level, max_entries);
    }
    level.into_iter().next()
}

fn pack_leaves(mut objects: Vec<SpatialObject>, max_entries: usize) -> Vec<Node> {
    let n = objects.len();
    let leaf_count = n.div_ceil(max_entries);
    let slabs = (leaf_count as f64).sqrt().ceil() as usize;
    let per_slab = n.div_ceil(slabs);

    objects.sort_unstable_by(|a, b| a.center().x.total_cmp(&b.center().x));
    let mut leaves = Vec::with_capacity(leaf_count);
    for slab in objects.chunks_mut(per_slab.max(1)) {
        slab.sort_unstable_by(|a, b| a.center().y.total_cmp(&b.center().y));
        for run in slab.chunks(max_entries) {
            leaves.push(Node::leaf(run));
        }
    }
    leaves
}

fn pack_nodes(mut nodes: Vec<Node>, max_entries: usize) -> Vec<Node> {
    let n = nodes.len();
    let parent_count = n.div_ceil(max_entries);
    let slabs = (parent_count as f64).sqrt().ceil() as usize;
    let per_slab = n.div_ceil(slabs);

    nodes.sort_unstable_by(|a, b| a.mbr.center().x.total_cmp(&b.mbr.center().x));
    let mut parents = Vec::with_capacity(parent_count);
    let mut buf = Vec::new();
    for chunk in chunked(nodes, per_slab.max(1)) {
        let mut slab = chunk;
        slab.sort_unstable_by(|a, b| a.mbr.center().y.total_cmp(&b.mbr.center().y));
        for node in slab {
            buf.push(node);
            if buf.len() == max_entries {
                parents.push(Node::internal(std::mem::take(&mut buf)));
            }
        }
        if !buf.is_empty() {
            parents.push(Node::internal(std::mem::take(&mut buf)));
        }
    }
    parents
}

/// Consuming chunker for `Vec<T>` (std's `chunks` only borrows).
fn chunked<T>(v: Vec<T>, size: usize) -> Vec<Vec<T>> {
    let mut out = Vec::with_capacity(v.len().div_ceil(size));
    let mut cur = Vec::with_capacity(size);
    for item in v {
        cur.push(item);
        if cur.len() == size {
            out.push(std::mem::replace(&mut cur, Vec::with_capacity(size)));
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RTree;
    use asj_geom::Rect;

    #[test]
    fn single_object_builds_leaf_root() {
        let t = RTree::bulk_load(vec![SpatialObject::point(1, 3.0, 4.0)], 8);
        assert_eq!(t.height(), 1);
        assert_eq!(t.len(), 1);
        t.check_invariants();
    }

    #[test]
    fn packing_is_tight() {
        // 256 objects, M = 16 → exactly 16 leaves, height 2.
        let objects: Vec<_> = (0..256)
            .map(|i| SpatialObject::point(i, (i % 16) as f64, (i / 16) as f64))
            .collect();
        let t = RTree::bulk_load(objects, 16);
        assert_eq!(t.height(), 2);
        assert_eq!(t.level_mbrs(0).len(), 16);
        t.check_invariants();
    }

    #[test]
    fn uneven_sizes_build_valid_trees() {
        for n in [2usize, 5, 17, 33, 100, 257, 1001] {
            let objects: Vec<_> = (0..n)
                .map(|i| {
                    SpatialObject::point(i as u32, (i * 37 % 101) as f64, (i * 61 % 97) as f64)
                })
                .collect();
            let t = RTree::bulk_load(objects, 8);
            assert_eq!(t.len(), n);
            t.check_invariants();
            assert_eq!(
                t.count(&Rect::from_coords(-1.0, -1.0, 102.0, 102.0)),
                n as u64
            );
        }
    }

    #[test]
    fn chunked_exact_and_remainder() {
        assert_eq!(chunked(vec![1, 2, 3, 4], 2), vec![vec![1, 2], vec![3, 4]]);
        assert_eq!(chunked(vec![1, 2, 3], 2), vec![vec![1, 2], vec![3]]);
        assert_eq!(chunked(Vec::<i32>::new(), 3), Vec::<Vec<i32>>::new());
    }
}
