//! Integration smoke test: every experiment runs end to end at quick scale
//! and its structural claims hold (deterministic properties only — timing
//! magnitudes belong to EXPERIMENTS.md, measured there as paired rounds).

use plos06::experiments::{self, Scale};

#[test]
fn all_experiments_produce_tables() {
    let tables = experiments::run_all(Scale::Quick);
    // E1–E14 plus the E9b data-plane campaign.
    assert_eq!(tables.len(), 15);
    for t in &tables {
        assert!(!t.rows.is_empty(), "{} has no rows", t.title);
        assert!(!t.headers.is_empty());
        // Rendering never panics and includes the title.
        let rendered = t.to_string();
        assert!(rendered.contains(&t.title));
    }
}

#[test]
fn e1_no_manager_corrupts_memory() {
    let t = experiments::e1_alloc::run(Scale::Quick);
    let errs_col = t
        .headers
        .iter()
        .position(|h| h == "integrity errs")
        .unwrap();
    for row in &t.rows {
        assert_eq!(row[errs_col], "0", "{} corrupted data", row[0]);
    }
}

#[test]
fn e2_representations_compute_identical_results() {
    let t = experiments::e2_boxing::run(Scale::Quick);
    for row in &t.rows {
        assert_eq!(row[5], "ok");
    }
}

#[test]
fn e5_proofs_and_refutations_land_as_designed() {
    let t = experiments::e5_verify::run(Scale::Quick);
    let proved = t.rows.iter().filter(|r| r[2] == "proved").count();
    let refuted = t.rows.iter().filter(|r| r[2] == "refuted").count();
    assert_eq!(proved, 6);
    assert_eq!(refuted, 6);
}

#[test]
fn e6_protocol_cycles_are_heap_independent() {
    let t = experiments::e6_ipc::run(Scale::Quick);
    let cycles: Vec<&String> = t.rows.iter().map(|r| &r[1]).collect();
    assert!(
        cycles.windows(2).all(|w| w[0] == w[1]),
        "transparency violated: {cycles:?}"
    );
}

#[test]
fn e7_only_the_broken_bank_may_show_anomalies() {
    let t = experiments::e7_shared_state::run(Scale::Quick);
    for row in &t.rows {
        assert_eq!(row[6], "yes", "{} lost money", row[0]);
        if row[0] != "broken-composed" {
            assert_eq!(row[4], "0", "{} exposed intermediate state", row[0]);
        }
    }
}

#[test]
fn e9_campaigns_stay_available_replayable_and_verified() {
    let t = experiments::e9_faults::run(Scale::Quick);
    let avail = t.headers.iter().position(|h| h == "RT avail").unwrap();
    let replay = t.headers.iter().position(|h| h == "replay").unwrap();
    let inv = t.headers.iter().position(|h| h == "invariants").unwrap();
    for row in &t.rows {
        assert_ne!(
            row[avail], "0.0%",
            "{} fault rate lost all availability",
            row[0]
        );
        assert!(
            row[replay].ends_with('✓'),
            "{} campaign did not replay",
            row[0]
        );
        assert_eq!(row[inv], "6/6", "invariants regressed at {}", row[0]);
    }
    assert_eq!(
        t.rows[0][avail], "100.0%",
        "fault-free baseline must be perfect"
    );
}

#[test]
fn e10_trie_beats_linear_scan_and_streams_conserve_packets() {
    // The structural claim behind E10, checked on real timings: by a
    // 64-route table the stride-4 trie must out-run the O(n) linear scan.
    let point = sysnet::bench::lookup_comparison(64, 200_000, 0x5EED_0E10, 1);
    assert!(point.routes >= 64);
    assert!(
        point.speedup() > 1.0,
        "trie ({:.1} ns) must beat linear scan ({:.1} ns) at {} routes",
        point.trie_ns,
        point.linear_ns,
        point.routes
    );

    let t = experiments::e10_dataplane::run(Scale::Quick);
    let fwd = t.headers.iter().position(|h| h == "forwarded").unwrap();
    let drop = t.headers.iter().position(|h| h == "dropped").unwrap();
    let streams: Vec<_> = t
        .rows
        .iter()
        .filter(|r| r[0] == "pipeline stream")
        .collect();
    assert!(
        streams.len() >= 2,
        "at least 1-worker and multi-worker rows"
    );
    for row in &streams {
        let total: u64 = row[fwd].parse::<u64>().unwrap() + row[drop].parse::<u64>().unwrap();
        assert_eq!(total, 20_000, "stream must conserve packets: {row:?}");
    }
    // Every worker count routes the identical stream to identical outcomes.
    assert!(
        streams
            .windows(2)
            .all(|w| w[0][fwd] == w[1][fwd] && w[0][drop] == w[1][drop]),
        "sharding changed routing outcomes"
    );
}

#[test]
fn e12_cache_hits_on_skewed_traffic_and_pool_reuses_frames() {
    let t = experiments::e12_cache::run(Scale::Quick);
    assert_eq!(t.rows.len(), 6, "2 lookup rows + 2 streams × cache on/off");
    let hit = t.headers.iter().position(|h| h == "hit rate").unwrap();
    let reuse = t.headers.iter().position(|h| h == "frame reuse").unwrap();
    // Skewed traffic through the enabled cache must mostly hit — on both
    // the bare lookup path and the end-to-end stream; cache-off rows have
    // no hit rate at all.
    for row in [&t.rows[1], &t.rows[2]] {
        let pct: f64 = row[hit].trim_end_matches(" %").parse().unwrap();
        assert!(pct > 50.0, "skewed stream must hit the cache: {row:?}");
    }
    assert_eq!(t.rows[3][hit], "—", "cache off reports no hit rate");
    // The pool recycles in every stream configuration (the zero-alloc
    // claim's structural half; the measured half lives in router_bench).
    for row in &t.rows[2..] {
        let r: f64 = row[reuse].trim_end_matches(" %").parse().unwrap();
        assert!(r > 50.0, "steady state must reuse frames: {row:?}");
    }
}

#[test]
fn e13_checker_clears_correct_models_and_catches_seeded_bugs() {
    let t = experiments::e13_check::run(Scale::Quick);
    assert_eq!(t.rows.len(), 7, "3 clean models + 2 bugs × 2 modes");
    let outcome = t.headers.iter().position(|h| h == "outcome").unwrap();
    let preempts = t.headers.iter().position(|h| h == "min preempts").unwrap();
    for row in &t.rows {
        if row[0].contains("broken") || row[0].contains("wakeup") {
            assert!(
                row[outcome].starts_with("found"),
                "{} must be rediscovered: {row:?}",
                row[0]
            );
            let n: usize = row[preempts].parse().unwrap();
            assert!(
                (1..=2).contains(&n),
                "{} must shrink to 1-2 preemptions: {row:?}",
                row[0]
            );
        } else {
            assert!(
                row[outcome].starts_with("clean"),
                "{} must verify clean: {row:?}",
                row[0]
            );
        }
    }
}

#[test]
fn e8_parsers_recognize_the_same_stream() {
    let t = experiments::e8_repr::run(Scale::Quick);
    assert_eq!(t.rows[0][3], t.rows[2][3], "zero-copy vs boxed checksum");
}

#[test]
fn e14_defense_beats_the_naive_tracker_under_flood() {
    let t = experiments::e14_conntrack::run(Scale::Quick);
    let delivery = t
        .headers
        .iter()
        .position(|h| h == "benign delivery")
        .unwrap();
    let pct = |row: &Vec<String>| -> f64 { row[delivery].trim_end_matches('%').parse().unwrap() };
    let on = t
        .rows
        .iter()
        .find(|r| r[1] != "0%" && r[2] == "on")
        .expect("a defended attack row");
    let off = t
        .rows
        .iter()
        .find(|r| r[2] == "OFF")
        .expect("the defense-off contrast row");
    assert!(
        pct(on) > pct(off),
        "defense must out-deliver naive LRU under the same flood"
    );
    // Benign-only rows lose nothing at quick scale: every drop is typed
    // and attributable to the flood.
    assert_eq!(pct(&t.rows[0]), 100.0);
}

#[test]
fn e9b_net_campaign_digests_replay() {
    let t = experiments::e9_faults::run_net(Scale::Quick);
    let audits = t.headers.iter().position(|h| h == "ct audits").unwrap();
    let replay = t.headers.iter().position(|h| h == "replay").unwrap();
    for row in &t.rows {
        assert_eq!(row[audits], "0 ✓", "no injected fault may corrupt a shard");
        assert!(row[replay].ends_with('✓'), "campaigns must replay: {row:?}");
    }
}
