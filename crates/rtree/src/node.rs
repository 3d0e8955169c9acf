//! R-tree nodes with aggregate counts.

use std::sync::Arc;

use asj_geom::{Rect, SpatialObject};

/// A tree node: its MBR, the aR-tree aggregate of its subtree (the object
/// count) and either leaf entries or child nodes.
///
/// A `Node` is the *entry* its parent stores: the MBR and aggregate sit
/// inline in the parent's child array, so pruning a subtree never
/// dereferences it, and the body behind [`NodeKind`] is one shared,
/// immutable allocation. Cloning a node is a reference-count bump; every
/// mutation builds a new node from new content ([`Node::leaf`] /
/// [`Node::internal`]) and leaves the old one to whoever still holds it.
#[derive(Debug, Clone)]
pub(crate) struct Node {
    pub mbr: Rect,
    /// Objects in this subtree — maintained on every structural change so
    /// `COUNT` queries can stop at fully-covered nodes.
    pub count: u64,
    pub kind: NodeKind,
}

#[derive(Debug, Clone)]
pub(crate) enum NodeKind {
    Leaf(Arc<[SpatialObject]>),
    Internal(Arc<[Node]>),
}

impl Node {
    /// A leaf over `entries`, its MBR and count computed from them.
    pub fn leaf(entries: impl Into<Arc<[SpatialObject]>>) -> Node {
        let entries = entries.into();
        Node {
            mbr: mbr_of_objects(&entries),
            count: entries.len() as u64,
            kind: NodeKind::Leaf(entries),
        }
    }

    /// An internal node over `children`, its MBR and count computed from
    /// theirs.
    pub fn internal(children: impl Into<Arc<[Node]>>) -> Node {
        let children = children.into();
        Node {
            mbr: mbr_of_nodes(&children),
            count: children.iter().map(|c| c.count).sum(),
            kind: NodeKind::Internal(children),
        }
    }

    /// Number of slots in this node (entries or children).
    pub fn fanout(&self) -> usize {
        match &self.kind {
            NodeKind::Leaf(es) => es.len(),
            NodeKind::Internal(cs) => cs.len(),
        }
    }
}

/// MBR of a slice of objects; the degenerate empty case maps to a zero rect
/// at the origin (an empty node only exists transiently during builds).
pub(crate) fn mbr_of_objects(objects: &[SpatialObject]) -> Rect {
    Rect::union_of(objects.iter().map(|o| o.mbr))
        .unwrap_or_else(|| Rect::from_coords(0.0, 0.0, 0.0, 0.0))
}

pub(crate) fn mbr_of_nodes(nodes: &[Node]) -> Rect {
    Rect::union_of(nodes.iter().map(|n| n.mbr))
        .unwrap_or_else(|| Rect::from_coords(0.0, 0.0, 0.0, 0.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_aggregates() {
        let n = Node::leaf(vec![
            SpatialObject::point(1, 0.0, 0.0),
            SpatialObject::point(2, 4.0, 2.0),
        ]);
        assert_eq!(n.count, 2);
        assert_eq!(n.mbr, Rect::from_coords(0.0, 0.0, 4.0, 2.0));
        assert!(matches!(n.kind, NodeKind::Leaf(_)));
        assert_eq!(n.fanout(), 2);
    }

    #[test]
    fn internal_aggregates_sum_children() {
        let a = Node::leaf(vec![SpatialObject::point(1, 0.0, 0.0)]);
        let b = Node::leaf(vec![
            SpatialObject::point(2, 2.0, 2.0),
            SpatialObject::point(3, 3.0, 3.0),
        ]);
        let n = Node::internal(vec![a, b]);
        assert_eq!(n.count, 3);
        assert_eq!(n.mbr, Rect::from_coords(0.0, 0.0, 3.0, 3.0));
        assert!(matches!(n.kind, NodeKind::Internal(_)));
    }

    #[test]
    fn clones_share_their_body() {
        let a = Node::leaf(vec![SpatialObject::point(1, 0.0, 0.0)]);
        let n = Node::internal(vec![a.clone(), a]);
        let (NodeKind::Internal(x), NodeKind::Internal(y)) = (&n.kind, &n.clone().kind) else {
            panic!("internal node expected");
        };
        assert!(Arc::ptr_eq(x, y));
        let (NodeKind::Leaf(l0), NodeKind::Leaf(l1)) = (&x[0].kind, &x[1].kind) else {
            panic!("leaf children expected");
        };
        assert!(Arc::ptr_eq(l0, l1));
    }
}
