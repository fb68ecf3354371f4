//! Differential testing of every manager against a shadow model.
//!
//! The model is a plain `HashMap` of live objects and their contents. Any
//! divergence — data loss, premature reuse, resurrection, wrong liveness —
//! is a memory-safety bug in the manager. This is the strongest automated
//! statement the crate makes: all six managers implement the *same*
//! observable semantics for the mutator.

use proptest::prelude::*;
use sysmem::freelist::FreeListHeap;
use sysmem::generational::GenerationalHeap;
use sysmem::marksweep::MarkSweepHeap;
use sysmem::rc::RcHeap;
use sysmem::semispace::SemiSpaceHeap;
use sysmem::{Handle, Manager, MemError};

/// One mutator operation, chosen by proptest.
#[derive(Debug, Clone)]
enum Op {
    Alloc {
        nrefs: usize,
        nwords: usize,
    },
    Free {
        victim: usize,
    },
    Write {
        victim: usize,
        idx: usize,
        value: u64,
    },
    Read {
        victim: usize,
        idx: usize,
    },
    /// Stores a reference to a live object (or `None`) into a ref slot.
    Link {
        victim: usize,
        slot: usize,
        target: Option<usize>,
    },
    Deref {
        victim: usize,
        slot: usize,
    },
    Collect,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0usize..4, 1usize..16).prop_map(|(nrefs, nwords)| Op::Alloc { nrefs, nwords }),
        2 => any::<usize>().prop_map(|victim| Op::Free { victim }),
        3 => (any::<usize>(), any::<usize>(), any::<u64>())
            .prop_map(|(victim, idx, value)| Op::Write { victim, idx, value }),
        3 => (any::<usize>(), any::<usize>()).prop_map(|(victim, idx)| Op::Read { victim, idx }),
        3 => (any::<usize>(), any::<usize>(), any::<bool>(), any::<usize>())
            .prop_map(|(victim, slot, some, t)| Op::Link { victim, slot, target: some.then_some(t) }),
        2 => (any::<usize>(), any::<usize>()).prop_map(|(victim, slot)| Op::Deref { victim, slot }),
        1 => Just(Op::Collect),
    ]
}

/// The model of one live object.
struct Shadow {
    h: Handle,
    words: Vec<u64>,
    refs: Vec<Option<Handle>>,
}

/// Drives `mgr` and the shadow model with the same op sequence; `manual`
/// selects free-based or root-based retirement. Under root-based
/// retirement every reference to the victim is cleared first, so it is
/// garbage once its root goes; under `free` references to it dangle.
fn drive(mgr: &mut dyn Manager, ops: &[Op], manual: bool) {
    let mut live: Vec<Shadow> = Vec::new();
    let mut retired: Vec<Handle> = Vec::new();
    for op in ops {
        match *op {
            Op::Alloc { nrefs, nwords } => {
                if let Ok(h) = mgr.alloc(nrefs, nwords) {
                    if !manual {
                        mgr.add_root(h);
                    }
                    live.push(Shadow {
                        h,
                        words: vec![0; nwords],
                        refs: vec![None; nrefs],
                    });
                }
            }
            Op::Free { victim } => {
                if live.is_empty() {
                    continue;
                }
                let h = live.swap_remove(victim % live.len()).h;
                if manual {
                    mgr.free(h).expect("freeing a live object succeeds");
                } else {
                    for o in &mut live {
                        for (slot, r) in o.refs.iter_mut().enumerate() {
                            if *r == Some(h) {
                                mgr.set_ref(o.h, slot, None).expect("live object");
                                *r = None;
                            }
                        }
                    }
                    mgr.remove_root(h);
                    mgr.collect();
                }
                retired.push(h);
            }
            Op::Write { victim, idx, value } => {
                if live.is_empty() {
                    continue;
                }
                let len = live.len();
                let o = &mut live[victim % len];
                let idx = idx % o.words.len();
                mgr.set_word(o.h, idx, value)
                    .expect("write to live object succeeds");
                o.words[idx] = value;
            }
            Op::Read { victim, idx } => {
                if live.is_empty() {
                    continue;
                }
                let o = &live[victim % live.len()];
                let idx = idx % o.words.len();
                let got = mgr
                    .get_word(o.h, idx)
                    .expect("read from live object succeeds");
                assert_eq!(got, o.words[idx], "data divergence at {} word {idx}", o.h);
            }
            Op::Link {
                victim,
                slot,
                target,
            } => {
                let len = live.len();
                if len == 0 || live[victim % len].refs.is_empty() {
                    continue;
                }
                let target = target.map(|t| live[t % len].h);
                let o = &mut live[victim % len];
                let slot = slot % o.refs.len();
                mgr.set_ref(o.h, slot, target)
                    .expect("link between live objects succeeds");
                o.refs[slot] = target;
            }
            Op::Deref { victim, slot } => {
                let len = live.len();
                if len == 0 || live[victim % len].refs.is_empty() {
                    continue;
                }
                let o = &live[victim % len];
                let slot = slot % o.refs.len();
                let got = mgr.get_ref(o.h, slot).expect("deref of live object");
                assert_eq!(got, o.refs[slot], "ref divergence at {} slot {slot}", o.h);
            }
            Op::Collect => mgr.collect(),
        }
        // A retired handle stays dead for good, even once a new object
        // has taken its table slot.
        for &h in &retired {
            let dead = MemError::InvalidHandle(h);
            assert!(!mgr.is_live(h), "{h} revived");
            assert_eq!(mgr.get_word(h, 0), Err(dead.clone()));
            assert_eq!(mgr.set_word(h, 0, 1), Err(dead.clone()));
            assert_eq!(mgr.get_ref(h, 0), Err(dead.clone()));
            assert_eq!(mgr.set_ref(h, 0, None), Err(dead));
        }
    }
    // Final sweep: every live object still matches the model exactly.
    for o in &live {
        assert!(mgr.is_live(o.h));
        for (i, expected) in o.words.iter().enumerate() {
            assert_eq!(
                mgr.get_word(o.h, i).unwrap(),
                *expected,
                "final check {} word {i}",
                o.h
            );
        }
        for (slot, expected) in o.refs.iter().enumerate() {
            assert_eq!(mgr.get_ref(o.h, slot).unwrap(), *expected);
        }
    }
    let model_bytes: usize = live
        .iter()
        .map(|o| (o.words.len() + o.refs.len()) * 8)
        .sum();
    assert_eq!(mgr.live_bytes(), model_bytes, "live-byte accounting drift");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn freelist_matches_shadow_model(ops in proptest::collection::vec(arb_op(), 1..150)) {
        let mut h = FreeListHeap::new(1 << 18);
        drive(&mut h, &ops, true);
        h.pool().check_invariants();
    }

    #[test]
    fn marksweep_matches_shadow_model(ops in proptest::collection::vec(arb_op(), 1..150)) {
        let mut h = MarkSweepHeap::new(1 << 18);
        drive(&mut h, &ops, false);
    }

    #[test]
    fn semispace_matches_shadow_model(ops in proptest::collection::vec(arb_op(), 1..150)) {
        let mut h = SemiSpaceHeap::new(1 << 19);
        drive(&mut h, &ops, false);
    }

    #[test]
    fn generational_matches_shadow_model(ops in proptest::collection::vec(arb_op(), 1..150)) {
        let mut h = GenerationalHeap::new(1 << 18, 1 << 12);
        drive(&mut h, &ops, false);
    }

    #[test]
    fn refcount_matches_shadow_model(ops in proptest::collection::vec(arb_op(), 1..150)) {
        let mut h = RcHeap::new(1 << 18);
        drive(&mut h, &ops, false);
    }
}
