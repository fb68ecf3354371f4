#!/usr/bin/env sh
# Repo CI: format, build, test, lint. Run from the repo root.
set -eu

cargo fmt --all -- --check
cargo build --release --workspace
cargo test -q --workspace
cargo clippy --workspace --all-targets -- -D warnings

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
cargo run --release --example router_bench -- --quick

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

# Observability smoke: E11 at quick scale, the obs bench without the budget
# gate (a loaded CI box can't referee a 5% throughput claim — obs_bench
# --quick never rewrites BENCH_obs.json), and the flight-recorder dump
# (asserts non-empty trace, replayable fault + shape digests).
cargo run --release --example experiments -- e11
cargo run --release --example obs_bench -- --quick
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
cargo run --release --example conntrack_bench -- --quick

# Postmortem smoke: seed a drop-rate spike under sampled mode (live drop
# counters, the standard watch set, a frozen flight-recorder capture),
# then check the emitted artifact is valid JSON naming its trigger and
# carrying causal traces, and that the recorded BENCH_obs.json is the
# schema-2 form with the `sampled` arm whose budget obs_bench enforces.
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
assert bench["schema"] == 2, bench["schema"]
assert {p["mode"] for p in bench["router"]} >= {"uninstrumented", "disabled", "counters", "sampled", "tracing"}
assert {p["mode"] for p in bench["ipc"]} >= {"disabled", "counters", "sampled", "tracing"}
EOF
rm -f POSTMORTEM_smoke.json
cargo test -q --test obs_model --test obs_sampler_props --test obs_postmortem
cargo run --release --example experiments -- e16

# Route-churn smoke: the epoch-reclamation models (safe domain exhaustive
# at preemption bound 2; the seeded premature free found and shrunk), the
# COW publication-visibility models, the epoch unit tests, and E15 at
# quick scale — churn A/B both route modes plus the model rows. The
# recorded BENCH_router.json is only rewritten by a full router_bench run,
# never here.
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
# BENCH_lb.json. The recorded artifact must keep its schema-1 shape with
# all four scenarios and a recovery within one probe interval.
cargo test -q -p sysnet --test lb_model
cargo run --release --example experiments -- e17
cargo run --release --example lb_bench -- --quick
python3 - <<'EOF'
import json
bench = json.load(open("BENCH_lb.json"))
assert bench["schema"] == 1, bench["schema"]
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
