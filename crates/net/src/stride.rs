//! The stride-4 multibit trie both route tables are built from.
//!
//! One [`Node`] consumes four address bits: sixteen child links and sixteen
//! next hops. A route is stored by *controlled prefix expansion* in the node
//! at level `(len - 1) / 4` (the `/0` default route in the root): a `/18`
//! fills the four slots its two remaining bits leave free in a level-4
//! node. The walk ([`lookup`]) then takes one dependent load per level, so a
//! `/32` costs at most eight, a `/24` six and a `/16` four, against one per
//! address bit for a unibit trie.
//!
//! Nodes live in one array per table and link by *relative* byte offset
//! (the child's address minus the node's own; `0` means no child, since a
//! node is never its own child). A link therefore needs four bytes instead
//! of a pointer's eight, a walk step is one add, and the walk needs no base
//! pointer: a reader holding the root node's address can reach everything
//! below it. That is what lets
//! [`crate::cowtrie::CowRouteTable`] publish a root as a single atomic
//! pointer into its node slab, exactly as the exclusive
//! [`crate::lpm::TrieTable`] walks from the first element of its `Vec`.
//!
//! Each slot also records the length of the route it was expanded from, so
//! an insert never overwrites a longer route's slot. A removal restores the
//! next-shorter route stored *in the same node* — found in the exact
//! [`RouteSet`] every table keeps on its writer side; shorter routes in
//! ancestor nodes need no restoring, because the walk remembers the best
//! hop it passed on the way down.
//!
//! The writer-side edits ([`Store::insert_route`], [`Store::remove_route`])
//! are shared too: a [`Store`] decides only *where* an edited node goes —
//! in place for the exclusive table, into a fresh slot (the copy-on-write
//! spine) for the published one.

use crate::lpm::mask;
use std::collections::HashMap;

/// Address bits one node consumes.
const STRIDE: u32 = 4;
/// Slots per node.
const FANOUT: usize = 1 << STRIDE;
/// Nodes on the deepest path (root plus the `/29..=/32` level).
pub(crate) const LEVELS: usize = 8;

/// One slot of a node: the child link and the hop side by side, so a walk
/// step touches one cache line.
#[derive(Clone, Copy)]
struct Slot<T> {
    /// The child's distance from this node in bytes (its index minus this
    /// node's, times the node size), so a walk step is one add; `0` when
    /// there is no child.
    child: i32,
    /// The longest route stored in this node covering the slot.
    hop: Option<T>,
}

/// One trie node. `Copy`, so a copy-on-write clone is a plain copy followed
/// by [`Node::rebase`].
#[derive(Clone, Copy)]
pub(crate) struct Node<T> {
    slot: [Slot<T>; FANOUT],
    /// Each slot's route's prefix length (meaningless where the hop is
    /// `None`). Only writers read it, so it sits apart from the slots.
    len: [u8; FANOUT],
}

impl<T: Copy> Node<T> {
    /// A node with no routes and no children.
    pub(crate) const EMPTY: Node<T> = Node {
        slot: [Slot {
            child: 0,
            hop: None,
        }; FANOUT],
        len: [0; FANOUT],
    };

    fn is_empty(&self) -> bool {
        self.slot.iter().all(|s| s.hop.is_none() && s.child == 0)
    }

    /// The byte distance from index `from` to index `to`.
    fn distance(from: u32, to: u32) -> i32 {
        let size = i64::try_from(std::mem::size_of::<Self>()).expect("node size fits i64");
        i32::try_from((i64::from(to) - i64::from(from)) * size)
            .expect("table too large for 32-bit node links")
    }

    /// The index of slot `i`'s child, for a node stored at index `at`.
    fn child(&self, at: u32, i: usize) -> Option<u32> {
        match self.slot[i].child {
            0 => None,
            off => {
                let size = i32::try_from(std::mem::size_of::<Self>()).expect("node size fits i32");
                Some(at.wrapping_add_signed(off / size))
            }
        }
    }

    fn set_child(&mut self, at: u32, i: usize, child: Option<u32>) {
        self.slot[i].child = child.map_or(0, |c| Self::distance(at, c));
    }

    /// Re-expresses the child links of a node copied from index `from` to
    /// index `to`.
    pub(crate) fn rebase(&mut self, from: u32, to: u32) {
        let shift = Self::distance(to, from);
        for s in &mut self.slot {
            if s.child != 0 {
                s.child = s
                    .child
                    .checked_add(shift)
                    .expect("table too large for 32-bit node links");
            }
        }
    }
}

/// The level whose node stores routes of length `len`.
fn level(len: u8) -> usize {
    usize::from(len.saturating_sub(1) / 4)
}

/// The shortest route length a level-`k` node stores (`/0` lives in the
/// root with the `/1..=/4` routes).
fn shortest_at(k: usize) -> u8 {
    if k == 0 {
        0
    } else {
        #[allow(clippy::cast_possible_truncation)]
        let first = 4 * k as u8 + 1;
        first
    }
}

/// The slot `addr` selects at level `k`.
#[inline]
fn nibble(addr: u32, k: usize) -> usize {
    #[allow(clippy::cast_possible_truncation)]
    let shift = 28 - STRIDE * k as u32;
    ((addr >> shift) & 0xF) as usize
}

/// The slots the canonical route `prefix/len` expands to in its node.
fn block(prefix: u32, len: u8) -> std::ops::Range<usize> {
    let k = level(len);
    let free_bits = 4 * (k + 1) - usize::from(len);
    let start = nibble(prefix, k);
    start..start + (1 << free_bits)
}

/// The longest-prefix match for `addr` below `root`.
///
/// # Safety
///
/// `root` must point at a live node whose descendants, reached by relative
/// offset, are live for the duration of the call: the exclusive table's
/// `Vec`, or a copy-on-write root loaded under an epoch pin.
#[inline]
pub(crate) unsafe fn lookup<T: Copy>(root: *const Node<T>, addr: u32) -> Option<T> {
    let mut node = root;
    let mut best = None;
    for k in 0..LEVELS {
        let slot = &(*node).slot[nibble(addr, k)];
        // Whether a slot holds a hop follows the address, not a pattern a
        // branch predictor can learn.
        best = std::hint::select_unpredictable(slot.hop.is_some(), slot.hop, best);
        match slot.child {
            0 => break,
            off => node = node.byte_offset(off as isize),
        }
    }
    best
}

/// The exact set of installed routes, kept beside the trie by every
/// writer: it answers "is this route installed, with what hop" without a
/// walk, enumerates [`crate::lpm::TrieTable::routes`], and supplies the
/// next-shorter route a removal must restore into the expanded slots.
#[derive(Clone)]
pub(crate) struct RouteSet<T> {
    map: HashMap<(u32, u8), T>,
}

impl<T> Default for RouteSet<T> {
    fn default() -> Self {
        RouteSet {
            map: HashMap::new(),
        }
    }
}

impl<T> RouteSet<T> {
    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.map.capacity()
    }
}

impl<T: Copy> RouteSet<T> {
    /// Every route as `(canonical_prefix, len, next_hop)` in depth-first
    /// trie order: by prefix, shorter first.
    pub(crate) fn sorted(&self) -> Vec<(u32, u8, T)> {
        let mut out: Vec<_> = self.map.iter().map(|(&(p, l), &h)| (p, l, h)).collect();
        out.sort_unstable_by_key(|&(p, l, _)| (p, l));
        out
    }

    /// The longest installed route shorter than `prefix/len` that lives in
    /// the same node and covers it.
    fn covering(&self, prefix: u32, len: u8) -> Option<(T, u8)> {
        (shortest_at(level(len))..len)
            .rev()
            .find_map(|l| self.map.get(&(prefix & mask(l), l)).map(|&h| (h, l)))
    }
}

/// Where a table's nodes live, and how an update obtains a node it may
/// write. The provided methods are the whole LPM edit, shared by both
/// tables; prefixes passed to them are already canonical.
pub(crate) trait Store<T: Copy> {
    /// The node at index `at`.
    fn node(&self, at: u32) -> &Node<T>;

    /// The node at index `at`, which must be writable (see
    /// [`Store::writable`]).
    fn node_mut(&mut self, at: u32) -> &mut Node<T>;

    /// A writable [`Node::EMPTY`].
    fn alloc(&mut self) -> u32;

    /// `at` made writable for this update: itself when edits go in place,
    /// a fresh copy when they must not touch published nodes.
    fn writable(&mut self, at: u32) -> u32;

    /// Takes back a writable node this update emptied and unlinked.
    fn release(&mut self, at: u32);

    /// The exact route set.
    fn route_set(&mut self) -> &mut RouteSet<T>;

    /// The current root index.
    fn root(&self) -> u32;

    /// Installs `prefix/len → hop`. Returns the replaced hop, and the new
    /// root when the tree changed — `None` for a re-install of the same
    /// hop, which touches no node.
    fn insert_route(&mut self, prefix: u32, len: u8, hop: T) -> (Option<T>, Option<u32>)
    where
        T: PartialEq,
    {
        let old = self.route_set().map.insert((prefix, len), hop);
        if old == Some(hop) {
            return (old, None);
        }
        let k = level(len);
        let root = self.writable(self.root());
        let mut at = root;
        for lvl in 0..k {
            let i = nibble(prefix, lvl);
            let next = match self.node(at).child(at, i) {
                Some(c) => self.writable(c),
                None => self.alloc(),
            };
            self.node_mut(at).set_child(at, i, Some(next));
            at = next;
        }
        let node = self.node_mut(at);
        for s in block(prefix, len) {
            if node.slot[s].hop.is_none() || node.len[s] <= len {
                node.slot[s].hop = Some(hop);
                node.len[s] = len;
            }
        }
        (old, Some(root))
    }

    /// Removes `prefix/len`. Returns its hop and the new root, or
    /// `(None, None)` when the route was not installed. Nodes left empty
    /// are released bottom-up; the root always stays.
    fn remove_route(&mut self, prefix: u32, len: u8) -> (Option<T>, Option<u32>) {
        let Some(old) = self.route_set().map.remove(&(prefix, len)) else {
            return (None, None);
        };
        let restore = self.route_set().covering(prefix, len);
        let k = level(len);
        let mut path = [0u32; LEVELS];
        path[0] = self.writable(self.root());
        for lvl in 0..k {
            let i = nibble(prefix, lvl);
            let c = self
                .node(path[lvl])
                .child(path[lvl], i)
                .expect("an installed route's spine exists");
            let w = self.writable(c);
            self.node_mut(path[lvl]).set_child(path[lvl], i, Some(w));
            path[lvl + 1] = w;
        }
        let node = self.node_mut(path[k]);
        for s in block(prefix, len) {
            if node.slot[s].hop.is_some() && node.len[s] == len {
                node.slot[s].hop = restore.map(|(h, _)| h);
                node.len[s] = restore.map_or(0, |(_, l)| l);
            }
        }
        for lvl in (1..=k).rev() {
            if !self.node(path[lvl]).is_empty() {
                break;
            }
            self.release(path[lvl]);
            let parent = path[lvl - 1];
            self.node_mut(parent)
                .set_child(parent, nibble(prefix, lvl - 1), None);
        }
        (Some(old), Some(path[0]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_and_blocks_follow_the_stride() {
        assert_eq!((level(0), level(1), level(4)), (0, 0, 0));
        assert_eq!((level(5), level(8), level(9)), (1, 1, 2));
        assert_eq!((level(24), level(29), level(32)), (5, 7, 7));
        assert_eq!(block(0, 0), 0..16);
        assert_eq!(block(0x8000_0000, 1), 8..16);
        assert_eq!(block(0x0A00_0000, 8), 0xA..0xB);
        assert_eq!(block(0x0A80_0000, 9), 8..16, "level 2, one bit fixed");
        assert_eq!(block(0xFFFF_FFFF, 32), 15..16);
        assert_eq!((shortest_at(0), shortest_at(1), shortest_at(7)), (0, 5, 29));
    }

    #[test]
    fn nodes_are_compact() {
        assert_eq!(std::mem::size_of::<Node<u16>>(), 144);
    }

    #[test]
    fn rebase_keeps_links_pointing_at_the_same_children() {
        let mut n = Node::<u16>::EMPTY;
        n.set_child(10, 3, Some(40));
        n.set_child(10, 4, Some(2));
        n.rebase(10, 100);
        assert_eq!(n.child(100, 3), Some(40));
        assert_eq!(n.child(100, 4), Some(2));
        assert_eq!(n.child(100, 5), None);
    }
}
