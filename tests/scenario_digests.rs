//! Pins the recorded scenario-campaign digests.
//!
//! `BENCH_scenario.json` records, for every full-scale standard scenario
//! and every pinned regression, three replay digests: `digest` (a fold
//! over every deterministic data-plane observable), `fault_digest` (the
//! fault logs) and `shape_digest` (the event shape of the traced run).
//! This test re-runs both campaigns (no fuzzing) and requires all three to
//! match the recorded file bit for bit. A change that should not alter
//! behaviour, such as a refactor of the data-plane pipeline, must keep
//! this test green; a change that alters behaviour on purpose re-records
//! the file with `scenario_bench` in the same change.

use sysscenario::{library, run_campaign};

/// The recorded value of `"<field>": "<hex>"` in the row named `name`.
fn recorded(json: &str, name: &str, field: &str) -> u64 {
    let row_start = json
        .find(&format!("\"name\": \"{name}\""))
        .unwrap_or_else(|| panic!("no row {name} in BENCH_scenario.json"));
    let row = &json[row_start..];
    let row = &row[..row.find('}').expect("row ends")];
    let key = format!("\"{field}\": \"0x");
    let at = row
        .find(&key)
        .unwrap_or_else(|| panic!("{name} has no {field}"))
        + key.len();
    let hex = &row[at..at + row[at..].find('"').expect("value ends")];
    u64::from_str_radix(hex, 16).expect("hex digest")
}

#[test]
fn full_campaign_digests_match_the_recorded_bench() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_scenario.json"))
        .expect("BENCH_scenario.json is checked in");
    let mut rows = 0;
    for scenarios in [library::standard(), library::regressions()] {
        for entry in run_campaign(&scenarios) {
            let o = &entry.outcome;
            let got = [
                ("digest", o.digest),
                ("fault_digest", o.fault_digest),
                ("shape_digest", entry.shape_digest),
            ];
            for (field, value) in got {
                assert_eq!(
                    format!("{value:#018x}"),
                    format!("{:#018x}", recorded(&json, &o.name, field)),
                    "{}: {field} moved from the recorded campaign",
                    o.name
                );
            }
            rows += 1;
        }
    }
    assert_eq!(rows, 10, "five standard scenarios and five regressions");
}
