//! # sysnet — the packet data plane
//!
//! Where the paper's Challenge 3 (bit-precise representation) meets
//! Challenge 4 (managing shared state): a forwarding plane built on the
//! zero-copy [`sysrepr::packet`] views and the [`sysconc::channel`] bounded
//! channels, with no code the substrate rule forbids.
//!
//! Seven layers:
//!
//! * [`lpm`] — longest-prefix-match routing tables: a stride-4 multibit
//!   [`lpm::TrieTable`] (the data plane's lookup structure) and the [`lpm::LinearTable`]
//!   reference it is property-tested against. Both canonicalize prefixes on
//!   insert (`prefix & mask`), fixing the silent never-matches bug an
//!   unmasked entry like `10.1.2.9/24` used to cause. The trie carries a
//!   generation counter so caches can observe route changes. The [`lpm::Routes`]
//!   trait abstracts "something you can route against", so the cache and
//!   pipeline work identically over an exclusive trie or a concurrent view.
//! * [`cowtrie`] — concurrent route updates: [`cowtrie::CowRouteTable`]
//!   holds the same stride-4 nodes in an epoch-reclaimed slab and
//!   publishes each change as a copy-on-write spine clone behind one atomic
//!   root pointer, readers pin an epoch ([`sysmem::epoch`]) and walk a frozen
//!   snapshot with zero synchronization per lookup, and retired nodes are
//!   reclaimed only after every reader provably moved on.
//! * [`cache`] — the per-worker flow → next-hop [`cache::FlowCache`]:
//!   direct-mapped, its slot one multiply over the `(src, dst)` key,
//!   exact-keyed (collisions miss, never misroute), generation-invalidated on any table mutation,
//!   with post-invalidation misses attributed separately so route churn is
//!   distinguishable from capacity pressure.
//! * [`pipeline`] — the batched parse → validate → route fast path: total
//!   parsing (LangSec style — reject before acting), per-reason drop
//!   counters, zero allocation per packet, TTL decremented in place with
//!   RFC 1624 incremental checksum fixup.
//! * [`lb`] — L4 load balancing over conntrack: weighted rendezvous backend
//!   selection keyed by the canonical flow hash, NAT rewrite tuples stored
//!   in the flow entry (one record with two keys, so either direction
//!   finds it in one lookup),
//!   in-place header rewriting through the mutable [`sysrepr::packet`]
//!   views, and seeded health probes with drain/eject semantics.
//! * [`router`] — the sharded multi-worker router: flows hash-partition
//!   across `std::thread` workers fed through bounded channels
//!   (backpressure, not unbounded queues), per-worker counters aggregated
//!   into a router-wide snapshot. Every worker routes against one
//!   [`cowtrie::CowRouteTable`], pinned once per batch, which is also the
//!   handle live route updates go through. The dispatcher's pool of
//!   batches is allocated at start, each batch keeping its frame buffers
//!   for life and coming back over one shared return channel, so the
//!   steady state allocates nothing per packet; it sizes batches adaptively
//!   from queue occupancy, dispatching with `try_send` so one slow worker
//!   cannot head-of-line-block the rest.
//! * [`mod@bench`] — the measured trajectory: sweeps worker counts and batch
//!   sizes, reports packets/sec, cache hit rate and steady-state
//!   allocations, and renders the `BENCH_router.json` record the ROADMAP's
//!   perf north star tracks.
//!
//! ```
//! use sysnet::lpm::TrieTable;
//!
//! let mut table = TrieTable::new();
//! table.insert(u32::from_be_bytes([10, 0, 0, 0]), 8, 1u16).unwrap();
//! table.insert(u32::from_be_bytes([10, 1, 0, 0]), 16, 2u16).unwrap();
//! // Longest prefix wins.
//! assert_eq!(table.lookup(u32::from_be_bytes([10, 1, 9, 9])), Some(2));
//! assert_eq!(table.lookup(u32::from_be_bytes([10, 7, 0, 1])), Some(1));
//! ```

pub mod bench;
pub mod cache;
pub mod conntrack;
pub mod cowtrie;
pub mod ctbench;
pub mod lb;
pub mod lbbench;
pub mod lpm;
pub mod pipeline;
pub mod router;
mod stride;

pub use cache::FlowCache;
pub use conntrack::{
    Conntrack, ConntrackConfig, ConntrackShared, ConntrackStats, FlowKey, NatRewrite,
};
pub use cowtrie::{CowRouteTable, RouteReader, RouteView};
pub use lb::{BackendConfig, BackendPool, BackendState, LbConfig, LbStats};
pub use lpm::{LinearTable, RouteError, Routes, TrieTable};
pub use pipeline::{process_batch, BatchStats, DropReason};
pub use router::{CowEpochStats, RouterConfig, RouterReport, RouterStats, ShardedRouter};
