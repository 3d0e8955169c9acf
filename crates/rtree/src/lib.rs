//! # asj-rtree — a from-scratch aggregate R-tree
//!
//! The servers in the IPDPS 2006 paper answer `COUNT` queries "fast, by data
//! structures such as the aR-tree [11]". This crate implements that
//! substrate: a classic Guttman R-tree with
//!
//! * **insertion** (least-enlargement descent, R*-style least-overlap
//!   split) and **removal** for incremental loads and live updates,
//! * **STR (Sort-Tile-Recursive) bulk loading** for the 35 K-object rail
//!   dataset,
//! * **aggregate counts in every node** (the aR-tree of Papadias et al.),
//!   so `COUNT(window)` visits only nodes whose MBR straddles the window
//!   boundary,
//! * window, ε-range and count queries,
//! * **level-MBR extraction** — the "one level of MBRs" the SemiJoin [16]
//!   baseline ships between servers.
//!
//! The tree is **persistent**: node bodies are immutable and shared by
//! reference count, so a clone is O(1) and `insert` / `remove` on it copy
//! only the root-to-leaf path they change. That is what lets the server
//! runtime publish an update batch as a new generation in O(batch · log n)
//! while readers keep walking the tree they started on; the locking that
//! orders writers and swaps generations lives there, not here.

mod bulk;
mod node;
mod tree;

pub use tree::{RTree, DEFAULT_MAX_ENTRIES};
