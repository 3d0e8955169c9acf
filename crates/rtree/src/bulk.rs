//! Sort-Tile-Recursive (STR) bulk loading.
//!
//! Leutenegger et al.'s packing: sort by x-center, cut into `⌈√(n/M)⌉`
//! vertical slabs, sort each slab by y-center, pack runs of `M` into leaves;
//! then pack the produced nodes level by level with the same recipe until a
//! single root remains. Produces ~100 % utilization and a tree of minimal
//! height — what a production server would build over a static dataset like
//! the 35 K-segment rail map.
//!
//! Every level sorts **keys, not items**: one `(u64, u32)` pair per item,
//! the center coordinate mapped to a `u64` in `f64::total_cmp` order and
//! the item's position, compared on the key alone. The items are then
//! gathered into nodes by position. A 16-byte pair moves for a fraction of
//! a 40-byte object or a 64-byte node, and the tree is the one sorting the
//! items themselves builds, node for node and ties included:
//! `sort_unstable_by` permutes by the comparison results alone, and pairs,
//! objects and nodes all fall in one size class of its small-sort and its
//! partition (bigger than 8 bytes, no bigger than 96), so equal
//! comparisons move all three the same way. The tests hold every level to
//! the object-sorting reference.

use std::sync::Arc;

use crate::node::Node;
use asj_geom::{Point, SpatialObject};

/// Builds the root node for `objects`, or `None` when empty.
pub(crate) fn build(objects: &[SpatialObject], max_entries: usize) -> Option<Node> {
    if objects.is_empty() {
        return None;
    }
    let mut level = pack(objects, max_entries, SpatialObject::center, Node::leaf);
    while level.len() > 1 {
        level = pack(&level, max_entries, |n| n.mbr.center(), Node::internal);
    }
    level.pop()
}

/// One STR level: `items` (at least one; positions fit a `u32`, as object
/// ids do) tiled into nodes of at most `max_entries`, in slab order.
fn pack<T: Clone>(
    items: &[T],
    max_entries: usize,
    center: impl Fn(&T) -> Point,
    node: impl Fn(Arc<[T]>) -> Node,
) -> Vec<Node> {
    let n = items.len();
    let node_count = n.div_ceil(max_entries);
    let slabs = (node_count as f64).sqrt().ceil() as usize;
    let per_slab = n.div_ceil(slabs);

    let mut keys: Vec<(u64, u32)> = (items.iter().zip(0..))
        .map(|(item, i)| (order_key(center(item).x), i))
        .collect();
    keys.sort_unstable_by_key(|key| key.0);
    let mut nodes = Vec::with_capacity(node_count);
    for slab in keys.chunks_mut(per_slab) {
        for key in slab.iter_mut() {
            key.0 = order_key(center(&items[key.1 as usize]).y);
        }
        slab.sort_unstable_by_key(|key| key.0);
        for run in slab.chunks(max_entries) {
            let members = run.iter().map(|&(_, i)| items[i as usize].clone());
            nodes.push(node(members.collect()));
        }
    }
    nodes
}

/// `x` as a `u64` whose integer order is `f64::total_cmp`'s: negatives
/// flipped whole, the sign bit set on everything else.
fn order_key(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeKind;
    use crate::RTree;
    use asj_geom::Rect;
    use proptest::prelude::*;

    /// The STR build that sorted the items themselves, kept as the oracle
    /// of the keyed one. It guards the claim in the module docs: a
    /// toolchain whose `sort_unstable_by` moved pairs, objects and nodes
    /// differently would build another tree from the same data, and that
    /// fails here rather than as moved bytes in the benchmark's answers.
    mod reference {
        use crate::node::Node;
        use asj_geom::SpatialObject;

        pub fn build(mut objects: Vec<SpatialObject>, max_entries: usize) -> Option<Node> {
            if objects.is_empty() {
                return None;
            }
            let mut level = Vec::new();
            for slab in slabs(&mut objects, max_entries, |o| o.center().x) {
                slab.sort_unstable_by(|a, b| a.center().y.total_cmp(&b.center().y));
                level.extend(slab.chunks(max_entries).map(Node::leaf));
            }
            while level.len() > 1 {
                let mut parents = Vec::new();
                for slab in slabs(&mut level, max_entries, |n| n.mbr.center().x) {
                    slab.sort_unstable_by(|a, b| a.mbr.center().y.total_cmp(&b.mbr.center().y));
                    parents.extend(slab.chunks(max_entries).map(Node::internal));
                }
                level = parents;
            }
            level.pop()
        }

        /// `items` sorted by `x`, cut into STR's vertical slabs.
        fn slabs<T>(
            items: &mut [T],
            max_entries: usize,
            x: impl Fn(&T) -> f64,
        ) -> std::slice::ChunksMut<'_, T> {
            let n = items.len();
            let slabs = (n.div_ceil(max_entries) as f64).sqrt().ceil() as usize;
            items.sort_unstable_by(|a, b| x(a).total_cmp(&x(b)));
            items.chunks_mut(n.div_ceil(slabs))
        }
    }

    /// `a` and `b` hold the same entries in the same order at every level,
    /// under the same MBRs and counts.
    fn assert_same_node(a: &Node, b: &Node, path: &str) {
        assert_eq!(a.mbr, b.mbr, "MBR at {path}");
        assert_eq!(a.count, b.count, "count at {path}");
        match (&a.kind, &b.kind) {
            (NodeKind::Leaf(x), NodeKind::Leaf(y)) => assert_eq!(x, y, "entries at {path}"),
            (NodeKind::Internal(x), NodeKind::Internal(y)) => {
                assert_eq!(x.len(), y.len(), "fanout at {path}");
                for (i, (c, d)) in x.iter().zip(y.iter()).enumerate() {
                    assert_same_node(c, d, &format!("{path}/{i}"));
                }
            }
            _ => panic!("a leaf against an internal node at {path}"),
        }
    }

    fn assert_matches_reference(objects: &[SpatialObject], max_entries: usize) {
        let keyed = build(objects, max_entries);
        let reference = reference::build(objects.to_vec(), max_entries);
        match (&keyed, &reference) {
            (Some(a), Some(b)) => {
                assert_same_node(a, b, &format!("n={} M={max_entries}", objects.len()))
            }
            (None, None) => {}
            _ => panic!("one build is empty, the other is not"),
        }
    }

    /// `n` objects over a `side × side` lattice, each center taken by two
    /// objects in a row, so centers tie on both axes and outright. Boxes
    /// vary their half-extent around a shared center, so a tie broken the
    /// other way moves an MBR as well as an entry.
    fn lattice(n: u32, boxes: bool) -> Vec<SpatialObject> {
        let side = ((n / 2) as f64).sqrt().ceil().max(1.0) as u32;
        (0..n)
            .map(|i| {
                let (x, y) = (f64::from(i / 2 % side), f64::from(i / 2 / side));
                let h = if boxes { f64::from(i % 3) } else { 0.0 };
                SpatialObject::new(i, Rect::from_coords(x - h, y - h, x + h, y + h))
            })
            .collect()
    }

    #[test]
    fn keyed_str_builds_the_reference_tree_on_tied_lattices() {
        for n in [1, 2, 15, 16, 17, 255, 256, 257, 1_000, 40_000] {
            for boxes in [false, true] {
                let objects = lattice(n, boxes);
                for max_entries in [4, 8, 16] {
                    assert_matches_reference(&objects, max_entries);
                }
            }
        }
    }

    #[test]
    fn order_key_orders_like_total_cmp() {
        let xs = [
            f64::NEG_INFINITY,
            -2.5,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            1.0,
            2.5,
            f64::INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        for a in xs {
            for b in xs {
                assert_eq!(
                    order_key(a).cmp(&order_key(b)),
                    a.total_cmp(&b),
                    "{a} vs {b}"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Few distinct coordinates, signed zeros among them, so most
        /// centers tie with many others on one axis or both.
        #[test]
        fn keyed_str_builds_the_reference_tree_under_heavy_duplication(
            specs in prop::collection::vec((0usize..5, 0usize..5, 0u32..3), 0..300),
            max_entries in 4usize..17,
        ) {
            const COORDS: [f64; 5] = [-1.0, -0.0, 0.0, 0.5, 3.0];
            let objects: Vec<_> = (specs.into_iter().zip(0..))
                .map(|((x, y, h), id)| {
                    let (x, y, h) = (COORDS[x], COORDS[y], f64::from(h));
                    SpatialObject::new(id, Rect::from_coords(x - h, y - h, x + h, y + h))
                })
                .collect();
            assert_matches_reference(&objects, max_entries);
        }
    }

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
}
