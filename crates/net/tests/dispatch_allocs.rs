//! The dispatcher's steady state allocates nothing.
//!
//! `ShardedRouter::start` allocates the whole buffer pool, so the
//! dispatch path (copying frames into pooled buffers, handing batches to
//! workers, taking drained batches back) must never touch the heap. A
//! counting global allocator counts only the allocations made on a thread
//! that switched counting on, here the dispatcher's, so the workers'
//! allocations cannot blur the figure. This binary holds a single test:
//! the observability mode it sets is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use sysnet::lpm::TrieTable;
use sysnet::router::{PortId, RouterConfig, ShardedRouter};
use sysrepr::packet::PacketBuilder;

struct ThreadCounting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn note() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: delegates allocation to `System` unchanged; the counter is a
// relaxed atomic and the flag a const-initialized thread-local, neither of
// which allocates.
unsafe impl GlobalAlloc for ThreadCounting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: ThreadCounting = ThreadCounting;

fn table() -> TrieTable<PortId> {
    let mut t = TrieTable::new();
    t.insert(u32::from_be_bytes([10, 0, 0, 0]), 8, 0).unwrap();
    t.insert(0, 0, 1).unwrap();
    t
}

#[test]
fn submit_and_flush_allocate_nothing_on_the_dispatcher() {
    sysobs::set_mode(sysobs::Mode::Disabled);
    // 64 flows of 106-byte frames (the bench harness's longest), over a
    // pool of 4 × (2 + 2) batches of 16: depth-2 queues make the dispatcher
    // requeue and wait on the return channel as well as send.
    let frames: Vec<Vec<u8>> = (0..64u8)
        .map(|i| {
            PacketBuilder::udp()
                .src_ip([172, 16, 0, i])
                .dst_ip([10, i % 4, i, 1])
                .payload(&[0x5A; 64])
                .build()
        })
        .collect();
    assert_eq!(frames[0].len(), 106);
    let cfg = RouterConfig {
        workers: 4,
        batch_size: 16,
        queue_depth: 2,
        instrument: false,
        ..RouterConfig::default()
    };
    let mut router = ShardedRouter::start(table(), 2, cfg);
    COUNTING.with(|c| c.set(true));
    for round in 0..500 {
        for frame in &frames {
            router.submit(frame);
        }
        if round % 100 == 99 {
            router.flush();
        }
    }
    router.flush();
    COUNTING.with(|c| c.set(false));
    let allocs = ALLOCS.load(Ordering::Relaxed);
    let report = router.finish();
    assert_eq!(report.stats.totals.total_frames(), 500 * 64);
    assert!(
        report.pool.batches_reused > 16,
        "batches must have come back through the return channel: {:?}",
        report.pool
    );
    assert_eq!(
        allocs, 0,
        "the dispatcher allocated {allocs} times over 32 000 frames: {:?}",
        report.pool
    );
}
