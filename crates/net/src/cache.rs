//! The per-worker flow → next-hop route cache.
//!
//! A trie walk is up to eight dependent loads (one per stride-4 node); real
//! traffic is a handful of hot flows repeating the same destinations, so
//! the sharded router fronts its route table
//! ([`CowRouteTable`](crate::cowtrie::CowRouteTable)) with a direct-mapped
//! cache: the flow key times one odd constant indexes a slot by the
//! product's top bits (multiplicative hashing, independent of the FNV-1a
//! the dispatcher shards flows with), and a hit is one multiply plus one
//! exact compare — no walk at all.
//!
//! Two properties keep it *correct*, not just fast:
//!
//! * **Exact keys.** A slot stores the full `(src << 32) | dst` key and the
//!   lookup compares it exactly, so a hash collision is a miss, never a
//!   misroute. The cached value is `Option<next_hop>` — "no route" is
//!   cached too (negative caching), because a default-route-less table must
//!   keep dropping the same flow cheaply.
//! * **Generation invalidation.** Every routing-visible mutation bumps the
//!   route source's [`Routes::generation`]; the cache snapshots it and
//!   wholesale-clears itself the moment it observes a newer one. A cache
//!   can therefore never return a decision from before a route change —
//!   the differential property test in `tests/cache_properties.rs` drives
//!   arbitrary insert/remove/traffic interleavings against this claim.
//!
//! The cache is generic over [`Routes`], so the same code fronts an
//! exclusive [`TrieTable`](crate::lpm::TrieTable), a mutex-held one, or a
//! pinned copy-on-write view ([`crate::cowtrie::RouteView`]). Under route
//! churn the forced post-invalidation misses are *attributed*: they count in
//! `invalidation_misses` as well as `misses`, so a hit-rate drop can be
//! split into "routes changed" versus "working set outgrew the cache" —
//! experiment E15's miss-cause breakdown.

use crate::lpm::Routes;

/// One cache slot: the exact flow key plus the routing decision cached for
/// it — `Some(hop)` or a negative entry (`None`: the trie had no route).
type Slot<T> = Option<(u64, Option<T>)>;

/// Direct-mapped flow → next-hop cache over any [`Routes`] source.
///
/// Owned by exactly one router worker (no interior sharing, no locks); the
/// router reports its hit/miss/invalidation counters through the worker's
/// atomic counter block.
#[derive(Debug)]
pub struct FlowCache<T> {
    slots: Box<[Slot<T>]>,
    mask: u64,
    /// `log2(slots.len())`: [`FlowCache::slot_of`] keeps this many top
    /// bits of the hashed key.
    bits: u32,
    generation: u64,
    hits: u64,
    misses: u64,
    invalidations: u64,
    /// Misses attributable to a wholesale invalidation: refills of slots
    /// that held a decision before the last clear.
    invalidation_misses: u64,
    /// Occupied slots (so an invalidation knows how much it destroyed).
    filled: usize,
    /// Slots an invalidation emptied that have not been refilled yet; while
    /// nonzero, an empty-slot miss is attributed to invalidation.
    pending_refills: u64,
}

impl<T: Copy> FlowCache<T> {
    /// A cache with at least `slots` entries (rounded up to a power of two
    /// so the index is a mask, not a modulo).
    #[must_use]
    pub fn new(slots: usize) -> Self {
        let n = slots.max(1).next_power_of_two();
        FlowCache {
            slots: vec![None; n].into_boxed_slice(),
            mask: n as u64 - 1,
            bits: n.trailing_zeros(),
            generation: 0,
            hits: 0,
            misses: 0,
            invalidations: 0,
            invalidation_misses: 0,
            filled: 0,
            pending_refills: 0,
        }
    }

    /// Number of slots.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Cache hits so far.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses so far (every miss walked the trie).
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Wholesale clears triggered by table-generation changes.
    #[must_use]
    pub fn invalidations(&self) -> u64 {
        self.invalidations
    }

    /// The subset of [`FlowCache::misses`] attributable to wholesale
    /// invalidation rather than cold start or capacity: refills of slots a
    /// generation change emptied. `invalidation_misses ≤ misses` always;
    /// the difference is the cold/capacity miss count.
    #[must_use]
    pub fn invalidation_misses(&self) -> u64 {
        self.invalidation_misses
    }

    /// Hit rate over the cache's lifetime (0.0 when never consulted).
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// The route decision for `(src, dst)`: the cached next hop when the
    /// slot holds this exact flow at the table's current generation, the
    /// table's answer (which is then cached, `None` included) otherwise.
    #[inline]
    pub fn lookup_or_route<R: Routes<T>>(&mut self, table: &R, src: u32, dst: u32) -> Option<T> {
        if self.generation != table.generation() {
            self.invalidate(table.generation());
        }
        let key = (u64::from(src) << 32) | u64::from(dst);
        let idx = self.slot_of(src, dst);
        match self.slots[idx] {
            Some((cached_key, hop)) if cached_key == key => {
                self.hits += 1;
                return hop;
            }
            Some(_) => {
                // Occupied by another flow: a collision/capacity miss, not
                // an invalidation refill.
                self.misses += 1;
            }
            None => {
                self.misses += 1;
                if self.pending_refills > 0 {
                    // This slot (or one like it) held a decision before the
                    // last clear: the miss is the invalidation's doing.
                    self.pending_refills -= 1;
                    self.invalidation_misses += 1;
                }
                self.filled += 1;
            }
        }
        let hop = table.lookup(dst);
        self.slots[idx] = Some((key, hop));
        hop
    }

    /// The slot `(src, dst)` maps to: the top `bits` bits of the
    /// `(src << 32) | dst` key times an odd constant (splitmix64's last
    /// multiplier), rotated down, since a product's top bits depend on
    /// every key bit. Consecutive keys spread too: some odd multipliers
    /// bunch 4 096 consecutive hosts into a few hundred of 4 096 slots
    /// (`fwd_min_flows_spread_over_the_whole_cache`). The router shards on
    /// FNV-1a, which this hash does not share, so a worker's flows spread
    /// over all its slots.
    #[inline]
    #[allow(clippy::cast_possible_truncation)]
    pub(crate) fn slot_of(&self, src: u32, dst: u32) -> usize {
        let key = (u64::from(src) << 32) | u64::from(dst);
        (key.wrapping_mul(0x94D0_49BB_1331_11EB)
            .rotate_left(self.bits)
            & self.mask) as usize
    }

    /// Drops every entry and adopts the table's generation. The destroyed
    /// entries become the refill debt that attributes upcoming misses.
    fn invalidate(&mut self, generation: u64) {
        self.slots.fill(None);
        self.generation = generation;
        self.invalidations += 1;
        self.pending_refills =
            (self.pending_refills + self.filled as u64).min(self.slots.len() as u64);
        self.filled = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lpm::TrieTable;

    fn ip(a: u8, b: u8, c: u8, d: u8) -> u32 {
        u32::from_be_bytes([a, b, c, d])
    }

    fn table() -> TrieTable<u16> {
        let mut t = TrieTable::new();
        t.insert(ip(10, 0, 0, 0), 8, 1).unwrap();
        t.insert(ip(10, 1, 0, 0), 16, 2).unwrap();
        t
    }

    #[test]
    fn hit_repeats_the_trie_answer_without_walking() {
        let t = table();
        let mut c = FlowCache::new(64);
        let first = c.lookup_or_route(&t, ip(172, 16, 0, 1), ip(10, 1, 2, 3));
        let second = c.lookup_or_route(&t, ip(172, 16, 0, 1), ip(10, 1, 2, 3));
        assert_eq!(first, Some(2));
        assert_eq!(second, Some(2));
        assert_eq!(c.misses(), 1);
        assert_eq!(c.hits(), 1);
        assert!(c.hit_rate() > 0.49 && c.hit_rate() < 0.51);
    }

    #[test]
    fn no_route_is_cached_negatively() {
        let t = table();
        let mut c = FlowCache::new(64);
        assert_eq!(c.lookup_or_route(&t, 1, ip(192, 168, 0, 1)), None);
        assert_eq!(c.lookup_or_route(&t, 1, ip(192, 168, 0, 1)), None);
        assert_eq!(c.hits(), 1, "the None decision itself is cached");
    }

    #[test]
    fn table_mutation_invalidates_before_the_next_answer() {
        let mut t = table();
        let mut c = FlowCache::new(64);
        assert_eq!(c.lookup_or_route(&t, 7, ip(10, 1, 2, 3)), Some(2));
        t.insert(ip(10, 1, 2, 0), 24, 9).unwrap();
        assert_eq!(
            c.lookup_or_route(&t, 7, ip(10, 1, 2, 3)),
            Some(9),
            "a cached decision must never survive a route change"
        );
        assert_eq!(c.invalidations(), 2, "initial generation adopt + insert");
        t.remove(ip(10, 1, 2, 0), 24).unwrap();
        assert_eq!(c.lookup_or_route(&t, 7, ip(10, 1, 2, 3)), Some(2));
    }

    #[test]
    fn colliding_flows_miss_instead_of_misrouting() {
        // A 1-slot cache forces every distinct flow into the same slot; the
        // exact key compare must turn collisions into misses.
        let t = table();
        let mut c = FlowCache::new(1);
        assert_eq!(c.capacity(), 1);
        for i in 0..32u32 {
            let dst = if i % 2 == 0 {
                ip(10, 1, 0, 1)
            } else {
                ip(10, 9, 0, 1)
            };
            let expect = if i % 2 == 0 { Some(2) } else { Some(1) };
            assert_eq!(c.lookup_or_route(&t, i, dst), expect);
        }
        assert_eq!(c.hits() + c.misses(), 32);
    }

    #[test]
    fn invalidation_misses_split_churn_from_cold_start() {
        let mut t = table();
        let mut c = FlowCache::new(64);
        // Cold-start misses: nothing pending, so none attributed.
        for i in 0..8u32 {
            c.lookup_or_route(&t, i, ip(10, 1, 0, i as u8));
        }
        assert_eq!(c.misses(), 8);
        assert_eq!(c.invalidation_misses(), 0, "cold misses are not churn");
        // A route change clears 8 filled slots (assuming no collisions in a
        // 64-slot cache over 8 flows this run is deterministic either way:
        // the debt equals however many slots were actually occupied).
        let filled_before = c.filled as u64;
        t.insert(ip(10, 3, 0, 0), 16, 7).unwrap();
        // Refill the same working set: these misses are the invalidation's.
        for i in 0..8u32 {
            c.lookup_or_route(&t, i, ip(10, 1, 0, i as u8));
        }
        assert_eq!(c.invalidation_misses(), filled_before);
        assert!(c.invalidation_misses() <= c.misses());
        // Steady state again: hits, no new attribution.
        for i in 0..8u32 {
            c.lookup_or_route(&t, i, ip(10, 1, 0, i as u8));
        }
        assert_eq!(c.invalidation_misses(), filled_before);
    }

    #[test]
    fn capacity_rounds_up_to_a_power_of_two() {
        assert_eq!(FlowCache::<u16>::new(0).capacity(), 1);
        assert_eq!(FlowCache::<u16>::new(3).capacity(), 4);
        assert_eq!(FlowCache::<u16>::new(4096).capacity(), 4096);
    }

    #[test]
    #[allow(clippy::cast_possible_truncation, clippy::cast_precision_loss)]
    fn fwd_min_flows_spread_over_the_whole_cache() {
        // 4 096 flows shaped like fwd-min's (sources under 172.16/12,
        // destinations under the 32 roots 11/8–42/8) and 4 096 from one
        // source sweeping consecutive hosts should each fill about as many
        // of a 4 096-slot cache as a uniform hash would (1 − 1/e of them).
        const FLOWS: u64 = 4096;
        let c = FlowCache::<u16>::new(4096);
        let mut state = 7u64;
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) as u32
        };
        let fwd_min: Vec<(u32, u32)> = (0..FLOWS)
            .map(|_| {
                let src = 0xAC10_0000 | (next() & 0x000F_FFFF);
                let dst = ((11 + next() % 32) << 24) | (next() & 0x00FF_FFFF);
                (src, dst)
            })
            .collect();
        let sweep: Vec<(u32, u32)> = (0..FLOWS as u32)
            .map(|i| (ip(172, 16, 0, 1), ip(11, 0, 0, 0) + i))
            .collect();
        let m = c.capacity() as f64;
        let uniform = m * (1.0 - (1.0 - 1.0 / m).powf(FLOWS as f64));
        for (name, flows) in [("fwd-min", fwd_min), ("host sweep", sweep)] {
            let slots: std::collections::HashSet<usize> = flows
                .iter()
                .map(|&(src, dst)| c.slot_of(src, dst))
                .collect();
            assert!(
                slots.len() as f64 >= 0.9 * uniform,
                "{name}: {FLOWS} flows filled {} slots; a uniform hash fills {uniform:.0}",
                slots.len()
            );
        }
    }
}
