//! Identified spatial objects — the unit of storage and transfer.

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};

use crate::{Point, Rect};

/// Object identifier, unique within one dataset.
pub type ObjectId = u32;

/// Hash state for sets of ids — or of `(r, s)` id pairs packed into a `u64`
/// — that arrive off the wire: one 64-bit mix (the `splitmix64` finaliser)
/// in place of SipHash. The mix is keyed with a seed drawn per set from
/// [`RandomState`], so a peer cannot choose ids that collide.
#[derive(Debug, Clone, Copy)]
pub struct IdMix(u64);

impl Default for IdMix {
    fn default() -> Self {
        IdMix(RandomState::new().hash_one(0u64))
    }
}

impl BuildHasher for IdMix {
    type Hasher = IdMix;
    fn build_hasher(&self) -> IdMix {
        *self
    }
}

impl Hasher for IdMix {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut key = [0; 8];
            key[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_ne_bytes(key));
        }
    }
    fn write_u32(&mut self, key: u32) {
        self.write_u64(key.into());
    }
    fn write_u64(&mut self, key: u64) {
        let mut z = (self.0 ^ key).wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        self.0 = z ^ (z >> 31);
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// An identified MBR: what the servers store and what travels over the
/// simulated link.
///
/// The wire encoding (see `asj-net`) is `id (4 bytes) + 4 × f32 coordinates
/// (16 bytes)` = 20 bytes, the `Bobj` of the paper's cost model. Points are
/// degenerate MBRs and use the same encoding, keeping `Bobj` constant across
/// workloads as the paper assumes.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SpatialObject {
    pub id: ObjectId,
    pub mbr: Rect,
}

impl SpatialObject {
    /// Creates an object from an id and its MBR.
    #[inline]
    pub const fn new(id: ObjectId, mbr: Rect) -> Self {
        SpatialObject { id, mbr }
    }

    /// Creates a point object.
    #[inline]
    pub fn point(id: ObjectId, x: f64, y: f64) -> Self {
        SpatialObject::new(id, Rect::point(Point::new(x, y)))
    }

    /// Center of the object's MBR (the object itself for points).
    #[inline]
    pub fn center(&self) -> Point {
        self.mbr.center()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_object_is_degenerate() {
        let o = SpatialObject::point(7, 1.0, 2.0);
        assert_eq!(o.mbr.min, o.mbr.max);
        assert_eq!(o.center(), Point::new(1.0, 2.0));
        assert_eq!(o.id, 7);
    }

    #[test]
    fn id_mix_sets_hold_ids_and_packed_pairs() {
        use std::collections::HashSet;
        // Sequential ids (what a dataset numbers its objects with) and ids at
        // the ends of the range: a set is a set whatever the seed.
        let mut ids: HashSet<ObjectId, IdMix> = HashSet::default();
        assert!((0..5000)
            .chain([u32::MAX, u32::MAX - 1])
            .all(|id| ids.insert(id)));
        assert!((0..5000).chain([u32::MAX]).all(|id| !ids.insert(id)));
        assert_eq!(ids.len(), 5002);
        let mut pairs: HashSet<u64, IdMix> = HashSet::default();
        let packed = |r: u32, s: u32| u64::from(r) << 32 | u64::from(s);
        assert!(pairs.insert(packed(3, 9)) && pairs.insert(packed(9, 3)));
        assert!(!pairs.insert(packed(3, 9)));
        // The mix is keyed per set, and a u32 hashes as the u64 it widens to.
        let digests = |mix: IdMix| (mix.hash_one(7u32), mix.hash_one(7u64), mix.hash_one(8u32));
        let (a, b) = (digests(IdMix::default()), digests(IdMix::default()));
        assert_ne!(a, b, "two sets draw two seeds");
        assert_eq!(a.0, a.1);
        assert_ne!(a.0, a.2);
        // Keys of any other shape go through the byte fallback, 8 at a time.
        let mix = IdMix::default();
        assert_ne!(mix.hash_one("0123456789"), mix.hash_one("0123456798"));
    }

    #[test]
    fn mbr_object_center() {
        let o = SpatialObject::new(1, Rect::from_coords(0.0, 0.0, 2.0, 4.0));
        assert_ne!(o.mbr.min, o.mbr.max);
        assert_eq!(o.center(), Point::new(1.0, 2.0));
    }
}
