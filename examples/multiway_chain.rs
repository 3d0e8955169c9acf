//! The paper's future work, built from the public API: a **three-way
//! chain join** across three non-cooperative servers.
//!
//! Query: "hotels within 500 m of a restaurant that is itself within
//! 300 m of a metro station" — `Hotels ⋈₅₀₀ Restaurants ⋈₃₀₀ Metro`.
//!
//! Strategy (left-deep, on the device):
//! 1. stage 1: adaptive two-way join Hotels ⋈ Restaurants (SrJoin);
//! 2. stage 2: the *distinct matched restaurants* — already on the device
//!    from stage 1 — become one bucket ε-RANGE probe to the metro server;
//! 3. compose qualifying triples locally.
//!
//! Every stage's bytes cross metered links, so the total is the honest
//! three-server bill.
//!
//! ```text
//! cargo run --release --example multiway_chain
//! ```

use std::collections::HashMap;
use std::sync::Arc;

use adhoc_spatial_joins::prelude::*;
use asj_core::DeploymentBuilder;
use asj_net::{Link, Request};
use asj_server::{RTreeStore, SpatialService};

fn main() {
    let space = Rect::from_coords(0.0, 0.0, 10_000.0, 10_000.0);
    let hotels = gaussian_clusters(&SyntheticSpec::new(space, 500, 4), 1);
    let restaurants = gaussian_clusters(&SyntheticSpec::new(space, 800, 6), 2);
    let metro = gaussian_clusters(&SyntheticSpec::new(space, 120, 10), 3);

    // The device will need the matched restaurants' geometry for stage 2.
    // It saw every matched object during stage 1; keep the id → MBR map
    // the way the PDA would.
    let restaurant_mbr: HashMap<u32, Rect> = restaurants.iter().map(|o| (o.id, o.mbr)).collect();

    // --- Stage 1: Hotels ⋈ (≤500) Restaurants ---------------------------
    let dep = DeploymentBuilder::new(hotels, restaurants)
        .with_space(space)
        .with_buffer(800)
        .build();
    let stage1 = SrJoin::default()
        .run(&dep, &JoinSpec::distance_join(500.0))
        .unwrap();
    println!(
        "stage 1: {} (hotel, restaurant) pairs, {} bytes",
        stage1.pairs.len(),
        stage1.total_bytes()
    );

    // Distinct matched restaurants, in device memory.
    let mut matched: Vec<u32> = stage1.pairs.iter().map(|&(_, s)| s).collect();
    matched.sort_unstable();
    matched.dedup();

    // --- Stage 2: matched restaurants ⋈ (≤300) Metro ---------------------
    // Third non-cooperative server, own metered link.
    let metro_server = Arc::new(SpatialService::new(RTreeStore::new(metro)));
    let metro_link = Link::in_process(metro_server, &NetConfig::default(), 1.0);
    let probes: Vec<SpatialObject> = matched
        .iter()
        .map(|&id| SpatialObject::new(id, restaurant_mbr[&id]))
        .collect();
    let buckets = metro_link
        .request(&Request::BucketEpsRange {
            probes: probes.clone(),
            eps: 300.0,
        })
        .into_buckets();

    // --- Compose triples --------------------------------------------------
    let near_metro: HashMap<u32, Vec<u32>> = probes
        .iter()
        .zip(&buckets)
        .filter(|(_, stations)| !stations.is_empty())
        .map(|(p, stations)| (p.id, stations.iter().map(|s| s.id).collect()))
        .collect();
    let mut triples = 0u64;
    let mut qualifying_hotels: Vec<u32> = Vec::new();
    for &(hotel, restaurant) in &stage1.pairs {
        if let Some(stations) = near_metro.get(&restaurant) {
            triples += stations.len() as u64;
            qualifying_hotels.push(hotel);
        }
    }
    qualifying_hotels.sort_unstable();
    qualifying_hotels.dedup();

    let stage2_bytes = metro_link.meter().snapshot().total_bytes();
    println!(
        "stage 2: {} matched restaurants probed, {} near a metro station, {} bytes",
        probes.len(),
        near_metro.len(),
        stage2_bytes
    );
    println!(
        "result: {} (hotel, restaurant, station) triples; {} distinct hotels qualify",
        triples,
        qualifying_hotels.len()
    );
    println!(
        "total three-server bill: {} bytes",
        stage1.total_bytes() + stage2_bytes
    );

    // Sanity: the semi-join reduction means stage 2 probes only matched
    // restaurants, never the full dataset.
    assert!(probes.len() <= 800);
}
