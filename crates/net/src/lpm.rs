//! Longest-prefix-match routing tables.
//!
//! [`TrieTable`] is the data plane's structure: a stride-4 multibit trie,
//! one node per four address bits, so a lookup takes at most eight
//! dependent loads independent of table size.
//! [`LinearTable`] is the obviously-correct O(n) reference the trie is
//! property-tested against — and the old `packet_router` example's
//! implementation, kept as the baseline experiment E10 measures the trie's
//! speedup over.
//!
//! Both tables **canonicalize on insert**: the stored prefix is
//! `prefix & mask(len)`. The old linear scan compared `dst & mask ==
//! prefix` against the raw prefix, so an unmasked entry like `10.1.2.9/24`
//! could never match anything — silently. Canonicalizing makes such an
//! entry mean `10.1.2.0/24`, which is what every real routing stack does.

use crate::stride::{self, Node, RouteSet, Store};
use std::fmt;

/// Error returned for malformed route operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteError {
    /// IPv4 prefix lengths run 0..=32.
    PrefixLenOutOfRange(u8),
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::PrefixLenOutOfRange(len) => {
                write!(f, "prefix length {len} out of range (0..=32)")
            }
        }
    }
}

impl std::error::Error for RouteError {}

/// The network mask for a prefix length (`mask(0) == 0`, `mask(32) == !0`).
#[inline]
#[must_use]
pub fn mask(len: u8) -> u32 {
    if len == 0 {
        0
    } else {
        u32::MAX << (32 - u32::from(len.min(32)))
    }
}

/// Canonicalizes a `(prefix, len)` pair: masks off host bits, rejects
/// out-of-range lengths.
///
/// # Errors
///
/// [`RouteError::PrefixLenOutOfRange`] when `len > 32`.
#[inline]
pub fn canonical(prefix: u32, len: u8) -> Result<u32, RouteError> {
    if len > 32 {
        return Err(RouteError::PrefixLenOutOfRange(len));
    }
    Ok(prefix & mask(len))
}

/// A read view of a routing table: what the fast path needs and nothing
/// more. The pipeline and [`crate::cache::FlowCache`] are generic over this,
/// so workers can route against an exclusive [`TrieTable`], a locked one, or
/// a pinned copy-on-write snapshot ([`crate::cowtrie::RouteView`]) without
/// the hot path knowing which.
pub trait Routes<T: Copy> {
    /// The longest-prefix match for `addr`, if any route covers it.
    fn lookup(&self, addr: u32) -> Option<T>;

    /// A version counter that changes whenever a routing decision may have
    /// changed: equal generations guarantee identical decisions, so caches
    /// key their validity on it.
    fn generation(&self) -> u64;
}

impl<T: Copy> Routes<T> for TrieTable<T> {
    #[inline]
    fn lookup(&self, addr: u32) -> Option<T> {
        TrieTable::lookup(self, addr)
    }

    #[inline]
    fn generation(&self) -> u64 {
        TrieTable::generation(self)
    }
}

impl<T: Copy, R: Routes<T>> Routes<T> for &R {
    #[inline]
    fn lookup(&self, addr: u32) -> Option<T> {
        (**self).lookup(addr)
    }

    #[inline]
    fn generation(&self) -> u64 {
        (**self).generation()
    }
}

/// A stride-4 multibit longest-prefix-match table mapping IPv4 prefixes to
/// a next-hop value.
///
/// Lookups walk at most eight nodes regardless of how many routes are
/// installed; the linear reference walks every route. Experiment E10
/// measures the two against each other (the trie wins from 5 routes). The
/// nodes are the
/// ones [`crate::cowtrie::CowRouteTable`] publishes, in one `Vec` with the
/// root first; edits go in place.
pub struct TrieTable<T> {
    nodes: Vec<Node<T>>,
    /// Indices of pruned nodes, reused before the `Vec` grows.
    free: Vec<u32>,
    routes: RouteSet<T>,
    generation: u64,
}

impl<T: Copy> Default for TrieTable<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy> fmt::Debug for TrieTable<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TrieTable")
            .field("len", &self.len())
            .field("nodes", &self.node_count())
            .field("generation", &self.generation)
            .finish_non_exhaustive()
    }
}

impl<T: Copy> TrieTable<T> {
    /// An empty table.
    #[must_use]
    pub fn new() -> Self {
        TrieTable {
            nodes: vec![Node::EMPTY],
            free: Vec::new(),
            routes: RouteSet::default(),
            generation: 0,
        }
    }

    /// Number of installed routes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// Mutation generation: bumped by every routing-visible change — an
    /// [`TrieTable::insert`] that added a route or changed a next hop, and
    /// every [`TrieTable::remove`] that removed something. A
    /// [`crate::cache::FlowCache`] snapshots this to detect that a cached
    /// next hop may be stale; any observer holding an equal generation is
    /// guaranteed no routing decision has changed since. Value-preserving
    /// re-inserts (a periodic route refresh) are generation-neutral, so they
    /// no longer wholesale-clear every worker's cache for a routing no-op.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// True when no routes are installed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.routes.len() == 0
    }

    /// Trie nodes in use, the root included.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    /// Installs `prefix/len → next_hop`, canonicalizing the prefix first.
    /// Returns the next hop it replaced, if the (canonical) route existed.
    ///
    /// # Errors
    ///
    /// [`RouteError::PrefixLenOutOfRange`] when `len > 32`.
    pub fn insert(&mut self, prefix: u32, len: u8, next_hop: T) -> Result<Option<T>, RouteError>
    where
        T: PartialEq,
    {
        let prefix = canonical(prefix, len)?;
        // Replacing a next hop with a *different* one changes routing
        // decisions just as much as a new route does; re-installing the
        // identical next hop changes nothing, and must not invalidate every
        // flow cache in the system.
        let (old, changed) = self.insert_route(prefix, len, next_hop);
        if changed.is_some() {
            self.generation += 1;
        }
        Ok(old)
    }

    /// The longest-prefix match for `addr`, if any route covers it.
    #[must_use]
    #[inline]
    pub fn lookup(&self, addr: u32) -> Option<T> {
        // SAFETY: the root is element 0, and the edits only ever link a
        // node to another element of `nodes`.
        unsafe { stride::lookup(self.nodes.as_ptr(), addr) }
    }

    /// Removes the route `prefix/len` (canonicalized), returning its next
    /// hop if it was installed. Nodes left empty are pruned.
    ///
    /// # Errors
    ///
    /// [`RouteError::PrefixLenOutOfRange`] when `len > 32`.
    pub fn remove(&mut self, prefix: u32, len: u8) -> Result<Option<T>, RouteError> {
        let prefix = canonical(prefix, len)?;
        let (removed, _) = self.remove_route(prefix, len);
        if removed.is_some() {
            self.generation += 1;
        }
        Ok(removed)
    }

    /// Every installed route as `(canonical_prefix, len, next_hop)`,
    /// depth-first (by prefix, shorter first). Used to seed other table
    /// representations and to compare them against this one.
    #[must_use]
    pub fn routes(&self) -> Vec<(u32, u8, T)> {
        self.routes.sorted()
    }

    /// The node array (root first), its free list and the route set — what
    /// [`crate::cowtrie::CowRouteTable::from_trie`] copies in one pass.
    pub(crate) fn parts(&self) -> (&[Node<T>], &[u32], &RouteSet<T>) {
        (&self.nodes, &self.free, &self.routes)
    }
}

impl<T: Copy> Store<T> for TrieTable<T> {
    fn node(&self, at: u32) -> &Node<T> {
        &self.nodes[at as usize]
    }

    fn node_mut(&mut self, at: u32) -> &mut Node<T> {
        &mut self.nodes[at as usize]
    }

    fn alloc(&mut self) -> u32 {
        if let Some(at) = self.free.pop() {
            self.nodes[at as usize] = Node::EMPTY;
            return at;
        }
        self.nodes.push(Node::EMPTY);
        u32::try_from(self.nodes.len() - 1).expect("node index fits u32")
    }

    fn writable(&mut self, at: u32) -> u32 {
        at
    }

    fn release(&mut self, at: u32) {
        self.free.push(at);
    }

    fn route_set(&mut self) -> &mut RouteSet<T> {
        &mut self.routes
    }

    fn root(&self) -> u32 {
        0
    }
}

/// The linear-scan reference table: every lookup filters all routes and
/// keeps the longest match. Correct by inspection; O(n) by construction.
#[derive(Debug, Default)]
pub struct LinearTable<T> {
    routes: Vec<(u32, u8, T)>,
}

impl<T: Copy> LinearTable<T> {
    /// An empty table.
    #[must_use]
    pub fn new() -> Self {
        LinearTable { routes: Vec::new() }
    }

    /// Number of installed routes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// True when no routes are installed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }

    /// Installs `prefix/len → next_hop` (canonicalized), replacing any
    /// existing entry for the same canonical route.
    ///
    /// # Errors
    ///
    /// [`RouteError::PrefixLenOutOfRange`] when `len > 32`.
    pub fn insert(&mut self, prefix: u32, len: u8, next_hop: T) -> Result<Option<T>, RouteError> {
        let prefix = canonical(prefix, len)?;
        for (p, l, hop) in &mut self.routes {
            if *p == prefix && *l == len {
                return Ok(Some(std::mem::replace(hop, next_hop)));
            }
        }
        self.routes.push((prefix, len, next_hop));
        Ok(None)
    }

    /// The longest-prefix match for `addr`, if any route covers it.
    #[must_use]
    pub fn lookup(&self, addr: u32) -> Option<T> {
        self.routes
            .iter()
            .filter(|(prefix, len, _)| addr & mask(*len) == *prefix)
            .max_by_key(|(_, len, _)| *len)
            .map(|(_, _, hop)| *hop)
    }

    /// Removes the route `prefix/len` (canonicalized), returning its next
    /// hop if it was installed.
    ///
    /// # Errors
    ///
    /// [`RouteError::PrefixLenOutOfRange`] when `len > 32`.
    pub fn remove(&mut self, prefix: u32, len: u8) -> Result<Option<T>, RouteError> {
        let prefix = canonical(prefix, len)?;
        let at = self
            .routes
            .iter()
            .position(|(p, l, _)| *p == prefix && *l == len);
        Ok(at.map(|i| self.routes.swap_remove(i).2))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(a: u8, b: u8, c: u8, d: u8) -> u32 {
        u32::from_be_bytes([a, b, c, d])
    }

    #[test]
    fn longest_prefix_wins() {
        let mut t = TrieTable::new();
        t.insert(ip(10, 0, 0, 0), 8, "core").unwrap();
        t.insert(ip(10, 1, 0, 0), 16, "edge").unwrap();
        t.insert(ip(10, 1, 2, 0), 24, "rack").unwrap();
        assert_eq!(t.lookup(ip(10, 9, 9, 9)), Some("core"));
        assert_eq!(t.lookup(ip(10, 1, 9, 9)), Some("edge"));
        assert_eq!(t.lookup(ip(10, 1, 2, 9)), Some("rack"));
        assert_eq!(t.lookup(ip(11, 0, 0, 1)), None);
    }

    #[test]
    fn default_route_matches_everything() {
        // The /0 route: mask(0) must be 0, not a shift-overflow artifact.
        let mut t = TrieTable::new();
        t.insert(0, 0, "gw").unwrap();
        assert_eq!(t.lookup(0), Some("gw"));
        assert_eq!(t.lookup(u32::MAX), Some("gw"));
        assert_eq!(t.lookup(ip(192, 168, 0, 1)), Some("gw"));
        let mut lin = LinearTable::new();
        lin.insert(0, 0, "gw").unwrap();
        assert_eq!(lin.lookup(u32::MAX), Some("gw"));
    }

    #[test]
    fn unmasked_prefix_is_canonicalized_not_silently_dead() {
        // Regression for the old linear scan: `10.1.2.9/24` never matched
        // because the host bits survived insert. Canonicalization makes it
        // mean `10.1.2.0/24` in both tables.
        let mut t = TrieTable::new();
        t.insert(ip(10, 1, 2, 9), 24, "rack").unwrap();
        assert_eq!(t.lookup(ip(10, 1, 2, 200)), Some("rack"));
        let mut lin = LinearTable::new();
        lin.insert(ip(10, 1, 2, 9), 24, "rack").unwrap();
        assert_eq!(lin.lookup(ip(10, 1, 2, 200)), Some("rack"));
        // And the canonical key dedups: reinserting via a different host
        // suffix replaces, not duplicates.
        assert_eq!(
            t.insert(ip(10, 1, 2, 77), 24, "rack2").unwrap(),
            Some("rack")
        );
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn host_routes_and_len_bounds() {
        let mut t = TrieTable::new();
        t.insert(ip(10, 0, 0, 1), 32, 1u16).unwrap();
        assert_eq!(t.lookup(ip(10, 0, 0, 1)), Some(1));
        assert_eq!(t.lookup(ip(10, 0, 0, 2)), None);
        assert_eq!(t.insert(0, 33, 9), Err(RouteError::PrefixLenOutOfRange(33)));
        assert_eq!(
            LinearTable::new().insert(0, 40, 9u16),
            Err(RouteError::PrefixLenOutOfRange(40))
        );
    }

    #[test]
    fn remove_restores_shorter_match_and_prunes() {
        let mut t = TrieTable::new();
        t.insert(ip(10, 0, 0, 0), 8, "core").unwrap();
        t.insert(ip(10, 1, 0, 0), 16, "edge").unwrap();
        assert_eq!(t.lookup(ip(10, 1, 5, 5)), Some("edge"));
        assert_eq!(t.remove(ip(10, 1, 0, 0), 16).unwrap(), Some("edge"));
        assert_eq!(
            t.lookup(ip(10, 1, 5, 5)),
            Some("core"),
            "falls back to the /8"
        );
        assert_eq!(t.len(), 1);
        assert_eq!(
            t.remove(ip(10, 1, 0, 0), 16).unwrap(),
            None,
            "double remove is a no-op"
        );
        // Removing an unmasked spelling removes the canonical route.
        assert_eq!(t.remove(ip(10, 255, 255, 255), 8).unwrap(), Some("core"));
        assert!(t.is_empty());
        assert_eq!(t.node_count(), 1, "interior nodes must be pruned");
    }

    #[test]
    fn generation_tracks_every_routing_change() {
        let mut t = TrieTable::new();
        assert_eq!(t.generation(), 0);
        t.insert(ip(10, 0, 0, 0), 8, 1u16).unwrap();
        assert_eq!(t.generation(), 1);
        // Value-changing replacement changes decisions, so it bumps too.
        t.insert(ip(10, 0, 0, 0), 8, 2u16).unwrap();
        assert_eq!(t.generation(), 2);
        t.remove(ip(10, 0, 0, 0), 8).unwrap();
        assert_eq!(t.generation(), 3);
        // A no-op remove leaves the generation alone.
        t.remove(ip(10, 0, 0, 0), 8).unwrap();
        assert_eq!(t.generation(), 3);
        // Lookups never bump.
        let _ = t.lookup(ip(10, 1, 1, 1));
        assert_eq!(t.generation(), 3);
    }

    #[test]
    fn noop_reinsert_is_generation_neutral() {
        // Regression: a periodic route refresh re-installing the identical
        // next hop used to bump the generation and wholesale-clear every
        // worker's flow cache for a routing no-op.
        let mut t = TrieTable::new();
        t.insert(ip(10, 0, 0, 0), 8, 1u16).unwrap();
        let gen = t.generation();
        assert_eq!(t.insert(ip(10, 0, 0, 0), 8, 1u16).unwrap(), Some(1));
        assert_eq!(t.generation(), gen, "value-preserving insert must not bump");
        // Same canonical route via an unmasked spelling: still a no-op.
        assert_eq!(t.insert(ip(10, 200, 3, 4), 8, 1u16).unwrap(), Some(1));
        assert_eq!(t.generation(), gen);
        assert_eq!(t.len(), 1);
        // A genuine replacement still bumps.
        assert_eq!(t.insert(ip(10, 0, 0, 0), 8, 2u16).unwrap(), Some(1));
        assert_eq!(t.generation(), gen + 1);
    }

    #[test]
    fn routes_enumerates_canonical_entries() {
        let mut t = TrieTable::new();
        t.insert(0, 0, 7u16).unwrap();
        t.insert(ip(10, 1, 2, 9), 24, 3).unwrap();
        t.insert(ip(10, 0, 0, 0), 8, 1).unwrap();
        t.insert(ip(10, 0, 0, 1), 32, 9).unwrap();
        let mut routes = t.routes();
        routes.sort_unstable();
        assert_eq!(
            routes,
            vec![
                (0, 0, 7),
                (ip(10, 0, 0, 0), 8, 1),
                (ip(10, 0, 0, 1), 32, 9),
                (ip(10, 1, 2, 0), 24, 3),
            ]
        );
    }

    #[test]
    fn replacement_returns_old_next_hop() {
        let mut t = TrieTable::new();
        assert_eq!(t.insert(ip(10, 0, 0, 0), 8, 1u16).unwrap(), None);
        assert_eq!(t.insert(ip(10, 0, 0, 0), 8, 2u16).unwrap(), Some(1));
        assert_eq!(t.len(), 1);
        assert_eq!(t.lookup(ip(10, 3, 3, 3)), Some(2));
    }
}
