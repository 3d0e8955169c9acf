//! Replicas share their shard's R-tree: a second replica of every shard
//! costs its server wiring, not another build.
//!
//! A counting `#[global_allocator]` tallies the bytes the calling thread
//! allocates; an in-process deployment is built entirely on that thread.
//! Building a 4 × 4-shard fleet with two replicas per shard, frozen or
//! live, must allocate less than one shard tree's leaf storage more than
//! the same fleet with one replica. Eight more trees would cost eight
//! times that.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use asj_core::{Deployment, DeploymentBuilder};
use asj_geom::{Rect, SpatialObject};
use asj_server::partition_objects;

struct Counting;

thread_local! {
    /// Bytes allocated by this thread (tests run on threads of their own).
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn note(bytes: usize) {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

// SAFETY: defers to `System` unchanged; the tally touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size.saturating_sub(layout.size()));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// 4 096 points on a 64 × 64 lattice over `[0, 640)²`, ids from `base`.
fn lattice(base: u32) -> Vec<SpatialObject> {
    (0..4096)
        .map(|i| SpatialObject::point(base + i, f64::from(i % 64) * 10.0, f64::from(i / 64) * 10.0))
        .collect()
}

/// Bytes `build` allocates, its inputs made beforehand and its
/// deployment dropped after.
fn allocated(build: impl FnOnce(Vec<SpatialObject>, Vec<SpatialObject>) -> Deployment) -> u64 {
    let (r, s) = (lattice(0), lattice(10_000));
    let before = BYTES.with(Cell::get);
    let deployment = build(r, s);
    let bytes = BYTES.with(Cell::get) - before;
    drop(deployment);
    bytes
}

#[test]
fn a_second_replica_allocates_less_than_one_shard_tree_leaves() {
    let space = Rect::from_coords(0.0, 0.0, 630.0, 630.0);
    let smallest_shard = partition_objects(&space, 4, lattice(0))
        .members
        .iter()
        .map(Vec::len)
        .min()
        .expect("four shards");
    assert!(smallest_shard > 0, "every shard holds objects");
    let one_tree_leaves = (smallest_shard * std::mem::size_of::<SpatialObject>()) as u64;
    for live in [false, true] {
        let fleet = |replicas: usize| {
            allocated(|r, s| {
                let builder = DeploymentBuilder::new(r, s)
                    .with_shards(4, 4)
                    .with_replicas(replicas);
                if live { builder.live() } else { builder }.build()
            })
        };
        let (one, two) = (fleet(1), fleet(2));
        assert!(
            two < one + one_tree_leaves,
            "live={live}: two replicas allocated {two} bytes, one {one}; \
             one shard tree's leaves are {one_tree_leaves}"
        );
    }
}
