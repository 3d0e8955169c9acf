//! Join reports and errors.

use asj_device::{BufferExceeded, IcebergResult};
use asj_geom::ObjectId;
use asj_net::meter::rate;
use asj_net::{CacheSnapshot, FleetSnapshot, LinkSnapshot};

use crate::exec::ExecStats;

/// Why a join could not run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JoinError {
    /// The algorithm needs a capability the deployment lacks (e.g.
    /// SemiJoin against non-cooperative servers).
    Unsupported(String),
    /// The device buffer cannot hold what the algorithm requires (e.g.
    /// NaiveJoin on datasets larger than the buffer).
    Buffer(BufferExceeded),
}

impl std::fmt::Display for JoinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JoinError::Unsupported(what) => write!(f, "unsupported: {what}"),
            JoinError::Buffer(b) => write!(f, "{b}"),
        }
    }
}

impl std::error::Error for JoinError {}

impl From<BufferExceeded> for JoinError {
    fn from(b: BufferExceeded) -> Self {
        JoinError::Buffer(b)
    }
}

/// The outcome of one distributed join: results plus the complete wire
/// accounting, measured (not estimated) on both links.
#[derive(Debug, Clone)]
pub struct JoinReport {
    /// Algorithm identifier.
    pub algorithm: &'static str,
    /// Qualifying `(r_id, s_id)` pairs, in the order the join derived
    /// them. A frozen join, and a live join that read one generation per
    /// side (`generations_r` and `generations_s` each one value), has
    /// every qualifying pair exactly once. A live join that raced an
    /// update has no pair twice — its duplicate pass ran
    /// (`ExecStats::collapsed_pairs` is `Some`) — but it can miss a pair
    /// whose object moved across a seam between two of its reads, and
    /// `coverage` does not show that: read `generations_*` and
    /// `collapsed_pairs` before taking such a list as complete.
    pub pairs: Vec<(ObjectId, ObjectId)>,
    /// Iceberg aggregation when the spec asked for it.
    pub iceberg: Option<IcebergResult>,
    /// Wire accounting of the R link (the router's aggregate over all
    /// shard exchanges when the side is a fleet).
    pub link_r: LinkSnapshot,
    /// Wire accounting of the S link.
    pub link_s: LinkSnapshot,
    /// Per-shard accounting of the R side when it is a sharded fleet.
    pub fleet_r: Option<FleetSnapshot>,
    /// Per-shard accounting of the S side when it is a sharded fleet.
    pub fleet_s: Option<FleetSnapshot>,
    /// Client-cache accounting of the R link when the deployment runs the
    /// cache (hits, misses, wire bytes saved).
    pub cache_r: Option<CacheSnapshot>,
    /// Client-cache accounting of the S link.
    pub cache_s: Option<CacheSnapshot>,
    /// Fraction of fleet shards whose replica sets stayed reachable
    /// while this join ran: the minimum of the two fleets'
    /// [`FleetSnapshot::coverage`] values (a flat link counts as fully
    /// covered). `1.0` on a healthy run; below `1.0` only when
    /// `NetConfig::allow_partial` let reads complete over exhausted
    /// replica sets — the pair list is then a *subset* of the true
    /// answer.
    pub coverage: f64,
    /// `(lowest, highest)` serving generation the R link's replies
    /// reported ([`Link::generations`](asj_net::Link::generations)); one
    /// value on both flat sides is what lets a live join skip the
    /// duplicate pass (see `ExecStats::collapsed_pairs`).
    pub generations_r: (u64, u64),
    /// The same for the S link.
    pub generations_s: (u64, u64),
    /// Tariff-weighted cost: `bR·bytes_R + bS·bytes_S`.
    pub cost_units: f64,
    /// Highest device-buffer occupancy observed.
    pub peak_buffer: usize,
    /// Operator / recursion statistics.
    pub stats: ExecStats,
}

impl JoinReport {
    /// The paper's headline metric: total wire bytes over both links.
    pub fn total_bytes(&self) -> u64 {
        self.link_r.total_bytes() + self.link_s.total_bytes()
    }

    /// Total queries issued to both servers.
    pub fn total_queries(&self) -> u64 {
        self.link_r.total_queries() + self.link_s.total_queries()
    }

    /// Aggregate (COUNT) queries issued — the statistics overhead
    /// the paper trades against pruning.
    pub fn aggregate_queries(&self) -> u64 {
        self.link_r.count_queries + self.link_s.count_queries
    }

    /// Objects downloaded from both servers.
    pub fn objects_downloaded(&self) -> u64 {
        self.link_r.objects_received + self.link_s.objects_received
    }

    /// Mean wire bytes per shard server across both sides — how much
    /// load one member of the fleet carries. A flat link counts as a
    /// one-shard fleet.
    pub fn mean_shard_bytes(&self) -> f64 {
        let shards =
            |fleet: &Option<FleetSnapshot>| fleet.as_ref().map_or(1, FleetSnapshot::shard_count);
        (self.link_r.total_bytes() + self.link_s.total_bytes()) as f64
            / (shards(&self.fleet_r) + shards(&self.fleet_s)) as f64
    }

    /// Combined client-cache accounting over both links; `None` when the
    /// deployment runs no cache.
    pub fn cache(&self) -> Option<CacheSnapshot> {
        match (&self.cache_r, &self.cache_s) {
            (None, None) => None,
            (r, s) => Some(r.unwrap_or_default().plus(&s.unwrap_or_default())),
        }
    }

    /// Wire bytes the client cache kept off both links (0 without one).
    pub fn cache_bytes_saved(&self) -> u64 {
        self.cache().map_or(0, |c| c.bytes_saved)
    }

    /// Overall cache hit rate across both links and both tiers (0 when
    /// no cache ran or nothing was looked up).
    pub fn cache_hit_rate(&self) -> f64 {
        self.cache().map_or(0.0, |c| c.hit_rate())
    }

    /// Fraction of scatter slots the routers skipped by bounds pruning,
    /// over both fleets (0 when neither side is sharded).
    pub fn pruning_rate(&self) -> f64 {
        let fleets = || [&self.fleet_r, &self.fleet_s].into_iter().flatten();
        rate(
            fleets().map(|f| f.pruned).sum(),
            fleets().map(|f| f.scattered).sum(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_and_from() {
        let e: JoinError = BufferExceeded {
            requested: 9,
            capacity: 5,
        }
        .into();
        assert!(e.to_string().contains("requested 9"));
        let u = JoinError::Unsupported("semijoin needs cooperation".into());
        assert!(u.to_string().contains("semijoin"));
    }

    #[test]
    fn report_totals() {
        let link_r = LinkSnapshot {
            up_bytes: 100,
            down_bytes: 200,
            count_queries: 3,
            ..LinkSnapshot::default()
        };
        let link_s = LinkSnapshot {
            up_bytes: 10,
            objects_received: 5,
            ..LinkSnapshot::default()
        };
        let rep = JoinReport {
            algorithm: "test",
            pairs: vec![(1, 2)],
            iceberg: None,
            link_r,
            link_s,
            fleet_r: None,
            fleet_s: None,
            cache_r: None,
            cache_s: None,
            coverage: 1.0,
            generations_r: (0, 0),
            generations_s: (0, 0),
            cost_units: 310.0,
            peak_buffer: 42,
            stats: ExecStats::default(),
        };
        assert_eq!(rep.total_bytes(), 310);
        assert_eq!(rep.aggregate_queries(), 3);
        assert_eq!(rep.objects_downloaded(), 5);
        assert_eq!(rep.total_queries(), 3);
        // Flat links: one "shard" per side, no pruning.
        assert_eq!(rep.mean_shard_bytes(), 155.0);
        assert_eq!(rep.pruning_rate(), 0.0);
    }

    #[test]
    fn fleet_shard_metrics() {
        let fleet_r = FleetSnapshot {
            per_shard: vec![LinkSnapshot::default(); 3],
            generations: vec![0; 3],
            scattered: 6,
            pruned: 2,
            failed_shards: vec![],
            per_replica: vec![vec![LinkSnapshot::default()]; 3],
            health: vec![Vec::new(); 3],
        };
        let rep = JoinReport {
            algorithm: "test",
            pairs: vec![],
            iceberg: None,
            link_r: LinkSnapshot {
                up_bytes: 300,
                ..LinkSnapshot::default()
            },
            link_s: LinkSnapshot {
                up_bytes: 100,
                ..LinkSnapshot::default()
            },
            fleet_r: Some(fleet_r),
            fleet_s: None,
            cache_r: None,
            cache_s: None,
            coverage: 1.0,
            generations_r: (0, 0),
            generations_s: (0, 0),
            cost_units: 400.0,
            peak_buffer: 0,
            stats: ExecStats::default(),
        };
        // 400 bytes over 3 R shards + 1 flat S link.
        assert_eq!(rep.mean_shard_bytes(), 100.0);
        assert_eq!(rep.pruning_rate(), 0.25);
    }
}
