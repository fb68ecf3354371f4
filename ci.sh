#!/usr/bin/env sh
# Repo CI: format, build, test, lint. Run from the repo root.
set -eu

cargo fmt --all -- --check

# Bench JSON shapes: each quick bench's stdout must parse as JSON and carry
# the top-level keys of its recorded BENCH_*.json, with the same row keys
# in every array that has rows in both, so a renamed or dropped field
# cannot drift away from the recorded schema. The quick runs write into a
# scratch directory; their exit status still gates CI as before.
quick_out=$(mktemp -d)
trap 'rm -rf "$quick_out"' EXIT
check_bench_shape() {
    python3 - "$1" "$2" <<'EOF'
import json, sys
quick_path, recorded_path = sys.argv[1:3]
quick = json.load(open(quick_path))
recorded = json.load(open(recorded_path))
assert set(quick) == set(recorded), (recorded_path, sorted(set(quick) ^ set(recorded)))
for key, rows in recorded.items():
    if isinstance(rows, list) and rows and quick[key]:
        want = {frozenset(r) for r in rows}
        got = {frozenset(r) for r in quick[key]}
        diff = sorted(set().union(*want) ^ set().union(*got))
        assert len(want) == 1 and got == want, (recorded_path, key, diff)
EOF
}
cargo build --release --workspace
cargo test -q --workspace
cargo clippy --workspace --all-targets -- -D warnings

# Docs that cannot rot: every intra-doc link in every crate must resolve to
# a public item, so a renamed type or field fails here, not in a reader's
# browser.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --keep-going

# Paper-claim smoke: the experiments behind the fallacies and challenges
# (E2/F1 boxing, E3 optimiser, E4 FFI boundary, E5 prover, E7 shared
# state, E8 representation) at quick scale, through the example binary.
cargo run --release --example experiments -- e2 e3 e4 e5 e7 e8 f1

# Data-plane smoke: the end-to-end example (asserts conservation and the
# canonicalization fix), the E10/E12 experiments at quick scale, the flow
# cache + pool differential suite, the pipeline stage-composition suite
# (a stage with nothing to do changes nothing), and the bench with its
# steady-state allocs/packet ≈ 0 assertion. router_bench --quick never
# rewrites the recorded BENCH_router.json.
cargo run --release --example packet_router
cargo run --release --example experiments -- e10 e12
cargo test -q -p sysnet --test cache_properties
cargo test -q -p sysnet --test pipeline_stages
cargo run --release --example router_bench -- --quick > "$quick_out/router.json"
check_bench_shape "$quick_out/router.json" BENCH_router.json

# Benchmark smoke: perfbench is a workspace of its own that builds against
# sysnet by path, so nothing above compiles it and an API change could
# break it silently. Build it, run both gated workloads for 3 s with the
# traced stage ladder, and require the last JSON line to report every
# check passed.
cargo build --release --offline --manifest-path perfbench/Cargo.toml
for w in fwd-min lb-nat; do
    cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$w" --seconds 3 --trace 1 | tail -n 1 | python3 -c '
import json, sys
r = json.loads(sys.stdin.read())
assert r["correct"] is True and r["failed"] == 0, {k: r[k] for k in ("correct", "attempted", "failed")}
'
done

# Heap smoke: the shadow-model differential suite over the five reclaiming
# managers (reference links, and retired handles that must stay dead after
# their table slot is reused), E1/E6/E9 at quick scale, the microkernel
# demo's grant → transfer-by-slot → revoke walk-through (it panics if the
# transfer rule refuses a legitimate transfer or the delivered reply names
# no landing slot), and a 3-s traced ipc-rt run that must be correct and
# must not grow per round trip: the kernel heap recycles handle slots, and
# a wake never queues a pid twice.
cargo test -q -p sysmem --test shadow_model
cargo run --release --example experiments -- e1 e6 e9
cargo run --release --example microkernel_demo
cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload ipc-rt --seconds 3 --trace 1 | tail -n 1 | python3 -c '
import json, sys
r = json.loads(sys.stdin.read())
assert r["correct"] is True and r["failed"] == 0, {k: r[k] for k in ("correct", "attempted", "failed")}
growth = r["metrics"]["kernel.rss_growth_b_per_rt"]["value"]
assert growth <= 1, f"ipc-rt RSS grows {growth} B per round trip"
'

# Observability smoke: E11 at quick scale, the obs bench without the budget
# gate (a loaded CI box can't referee a 5% throughput claim — obs_bench
# --quick never rewrites BENCH_obs.json) with its JSON keys checked against
# the recorded BENCH_obs.json, and the flight-recorder dump
# (asserts non-empty trace, replayable fault + shape digests).
cargo run --release --example experiments -- e11
cargo run --release --example obs_bench -- --quick > "$quick_out/obs.json"
check_bench_shape "$quick_out/obs.json" BENCH_obs.json
cargo run --release --example flight_recorder > /dev/null

# Concurrency-checker smoke: the syscheck litmus suite, the shimmed model
# tests next to the code they check (sysconc primitives, router
# dispatch/recycle, kernel IPC/watchdog interleavings), and E13 at quick
# scale — DFS + seeded-random rediscovery of both seeded bugs, shrunk to
# minimal preemption traces. All deterministic; no wall-clock stress.
cargo test -q -p syscheck
cargo test -q -p sysconc checker_
cargo test -q -p sysnet --test router_model
cargo test -q -p microkernel --test ipc_interleavings
cargo run --release --example experiments -- e13

# Conntrack smoke: the hostile-segment + differential property suite, the
# adversarial TcpView parse suite, the shared-gauge syscheck models, the
# E14/E9b experiments at quick scale, and the bench smoke — which asserts
# the capacity bound and < 0.05 steady-state allocs/packet but never
# rewrites the recorded BENCH_conntrack.json.
cargo test -q -p sysnet --test conntrack_properties
cargo test -q -p sysrepr --test tcp_adversarial
cargo test -q -p sysnet --test conntrack_model
cargo run --release --example experiments -- e14 e9net
cargo run --release --example conntrack_bench -- --quick > "$quick_out/conntrack.json"
check_bench_shape "$quick_out/conntrack.json" BENCH_conntrack.json

# Postmortem smoke: seed a drop-rate spike under sampled mode (live drop
# counters, the standard watch set, a frozen flight-recorder capture),
# then check the emitted artifact is valid JSON naming its trigger and
# carrying causal traces, and that the recorded BENCH_obs.json is the
# schema-3 form with the `sampled` arm whose budget obs_bench enforces.
# E16 at quick scale covers the rest of the campaign (exactly one
# postmortem per incident, dispatcher→worker trace reconstruction).
cargo run --release --example obs_bench -- --postmortem-smoke
python3 - <<'EOF'
import json
pm = json.load(open("POSTMORTEM_smoke.json"))
assert pm["postmortem"] == 1, pm
assert pm["trigger"] == "drop-rate-spike", pm["trigger"]
assert pm["event_count"] > 0 and pm["events"], "postmortem must carry the recorder tail"
assert pm["causal_traces"], "postmortem must carry causal traces"
assert any(k.startswith("net.drop.") for k in pm["metrics"]["counters"]), \
    "metrics snapshot must hold the drop counters that fired the watch"
bench = json.load(open("BENCH_obs.json"))
assert bench["schema"] == 3, bench["schema"]
assert {p["mode"] for p in bench["router"]} >= {"uninstrumented", "disabled", "counters", "sampled", "tracing"}
assert {p["mode"] for p in bench["ipc"]} >= {"disabled", "counters", "sampled", "tracing"}
EOF
rm -f POSTMORTEM_smoke.json
cargo test -q --test obs_model --test obs_sampler_props --test obs_postmortem
cargo run --release --example experiments -- e16

# Route-churn smoke: the epoch-reclamation models (safe domain exhaustive
# at preemption bound 2; the seeded premature free found and shrunk), the
# COW publication-visibility models, the epoch unit tests, and E15 at
# quick scale — the churn sweep through the cow-epoch table plus the
# model rows. The recorded BENCH_router.json is only rewritten by a full
# router_bench run, never here.
cargo test -q -p sysmem --test epoch_model
cargo test -q -p sysmem --lib epoch
cargo test -q -p sysnet --test cowtrie_model
cargo run --release --example experiments -- e15

# Load-balancer smoke: the hairpin/NAT-twin property suite (rides in
# conntrack_properties above), the gauge-conservation syscheck model under
# concurrent twin-insert + ejection, E17 at quick scale, and the bench
# smoke — failover recovery and allocs are asserted at every scale, but
# the ≥90% rewrite-ratio floor only on full runs (tiny CI streams are too
# noisy to referee it) and lb_bench --quick never rewrites the recorded
# BENCH_lb.json. The recorded artifact must keep its schema-2 shape with
# all four scenarios and a recovery within one probe interval. The
# failover run is a deterministic virtual-clock scenario with the same
# config at every scale, so the quick run's `failover` object must equal
# the recorded one exactly.
cargo test -q -p sysnet --test lb_model
cargo run --release --example experiments -- e17
cargo run --release --example lb_bench -- --quick > "$quick_out/lb.json"
check_bench_shape "$quick_out/lb.json" BENCH_lb.json
python3 - "$quick_out/lb.json" <<'EOF'
import json, sys
bench = json.load(open("BENCH_lb.json"))
quick = json.load(open(sys.argv[1]))
assert quick["failover"] == bench["failover"], (quick["failover"], bench["failover"])
assert bench["schema"] == 2, bench["schema"]
names = {s["name"] for s in bench["scenarios"]}
assert names >= {"baseline_no_lb", "steady", "portscan_storm", "slowloris"}, names
assert bench["headline"]["rewrite_pps_ratio"] >= 0.90, bench["headline"]
f = bench["failover"]
assert f["recovery_ns"] <= f["probe_interval_ns"], f
assert all(s["steady_allocs_per_packet"] < 0.05 for s in bench["scenarios"]), bench["scenarios"]
EOF

# Scenario-campaign smoke: the full-scale campaign digest pin (every
# digest, fault_digest and shape_digest row of BENCH_scenario.json, the
# behaviour oracle for data-plane refactors), the sysscenario suite
# (engine + fuzzer units, the adversarial dnat/snat suite, the
# replay-determinism properties), E18 at quick scale, and the campaign
# bench in quick mode — which
# asserts the triple-run replay check, every scenario/regression oracle,
# and that the packet fuzzer rediscovers the seeded trusting-parser bug
# and shrinks it, but never rewrites the recorded BENCH_scenario.json.
# Every crash artifact the quick run wrote must reproduce through its
# embedded --repro path; artifacts are scratch, so they are cleaned up.
cargo test -q --test scenario_digests
cargo test -q -p sysscenario
cargo run --release --example experiments -- e18
cargo run --release --example scenario_bench -- --quick
for f in CRASH_*.json; do
    [ -e "$f" ] || continue
    cargo run --release --example scenario_bench -- --repro "$f"
done
rm -f CRASH_*.json
python3 - <<'EOF'
import json
bench = json.load(open("BENCH_scenario.json"))
assert bench["bench"] == "scenario" and bench["schema"] == 1, bench
names = {s["name"] for s in bench["scenarios"]}
assert names >= {"flash-crowd", "route-flap-storm", "cascading-backend-death",
                 "slowloris-trickle", "mixed-attack-benign"}, names
pins = {s["name"] for s in bench["regressions"]}
assert pins >= {"regress-ttl-loop", "regress-noop-insert-cache-nuke",
                "regress-premature-epoch-free", "regress-half-pair-nat",
                "regress-parser-overread"}, pins
rows = bench["scenarios"] + bench["regressions"]
assert all(r["replay_verified"] for r in rows), "a scenario did not replay"
assert all(r["expectations_ok"] for r in rows), "a pinned oracle failed"
assert {f["target"] for f in bench["fuzz"]} == {"packet", "dns", "bitc"}
h = bench["headline"]
assert h["all_expectations_pass"] and h["all_replays_verified"] and h["seeded_bug_found"], h
EOF
