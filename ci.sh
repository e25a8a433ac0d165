#!/usr/bin/env bash
# Local CI: formatting, lints, full test suite, and a smoke run of the
# two tuner-driven table generators. Mirrors what a hosted pipeline
# would run; keep it green before every commit.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo test =="
cargo test --workspace -q

echo "== incremental-engine parity under debug assertions =="
# Debug builds re-derive the full schedule/report after every
# apply_move/undo and assert bit-exact equality; this run makes sure
# that paranoid path executes in CI even if the suite above ever moves
# to --release.
cargo test -q -p fm-core -- delta:: anneal
cargo test -q --test proptests incremental

echo "== flat-engine parity under debug assertions =="
# Debug builds assert every flat evaluation (interned PEs, SoA folds,
# scratch arenas) bit-identical to the reference path; the proptest
# drives random graphs/mappings/moves through flat, delta, and
# reference simultaneously, and the alloc test proves the steady state
# never touches the heap.
cargo test -q -p fm-core -- flat::
cargo test -q --test proptests flat_delta_and_reference
cargo test -q --test alloc_regression

echo "== table smoke runs (--quick) =="
cargo run --release -q -p fm-bench --bin table_e4_fft_search -- --quick >/dev/null
cargo run --release -q -p fm-bench --bin table_e8_default_mapper -- --quick >/dev/null
cargo run --release -q -p fm-bench --bin table_e14_anneal -- --quick --no-json >/dev/null
cargo run --release -q -p fm-bench --bin table_e15_serve -- --quick --no-json >/dev/null

echo "== fleet-faults: sharded-search chaos suite + E16 smoke =="
# The chaos suite runs real shard servers behind deterministic
# fault-injection proxies and checks the fleet winner stays
# bit-identical to a single-machine tune; release mode keeps the
# in-test tuning work fast.
cargo test --release -q -p fm-serve --test fleet_faults
cargo run --release -q -p fm-bench --bin table_e16_fleet -- --quick --no-json >/dev/null

echo "== E17 smoke: streaming + weighted beats a blocking baseline on a scripted straggler =="
# 2-shard topology, shard 0 scripted slow, both rows on the one fleet
# path: the baseline asks for one chunk per range from a fresh
# (cold-weighted) coordinator per tune, the streaming row for 4-candidate
# chunks from one coordinator that keeps its weights. The binary itself
# asserts winner parity, parts_merged > 0 for streaming, zero discarded
# parts, and the speedup bar, exiting non-zero on any violation.
cargo run --release -q -p fm-bench --bin table_e17_stream -- --quick --no-json >/dev/null

echo "== session-smoke: open → edits → warm tune, parity vs cold =="
# End-to-end session lifecycle over real TCP (open → 3 edit batches →
# warm SessionTune after each, winner checked bit-for-bit against a
# cold client-side tune), plus typed NoSuchSession, idle eviction, and
# concurrent disjoint sessions. Then the E18 quick run: the binary
# asserts per-row parity and the warm-vs-cold speedup bar, and must
# emit its BENCH_e18.json rows (written to a scratch dir so a smoke
# run never clobbers full-run numbers).
cargo test --release -q -p fm-serve --test session_integration
e18_dir="$(mktemp -d)"
cargo run --release -q -p fm-bench --bin table_e18_session -- --quick --json "$e18_dir/BENCH_e18.json" >/dev/null
[ -s "$e18_dir/BENCH_e18.json" ] || { echo "session-smoke: E18 emitted no JSON"; exit 1; }
rm -rf "$e18_dir"

echo "== wire-smoke: protocol negotiation + E19 quick run =="
# Negotiation matrix over real TCP: new client falls back to JSON
# against an old server, old (JSON-only) client is served by a new
# server, pipelined replies complete out of order, and dedup-batched
# admission collapses duplicate tunes — winners checked bit-for-bit
# throughout. The out-of-order and dedup tests hold the one worker with
# a scripted straggling TuneShard, so they queue work by construction,
# not by timing; five runs in a row must all pass. Then the E19 quick
# run: blocking JSON vs. pipelined binary sweep plus the four-arm dedup
# trace, with winner parity and the dedup collapse asserted by the
# binary itself. Its dedup arms also hold the worker with a straggling
# TuneShard until every duplicate is queued, so the collapse must hold
# on each of three runs.
for _ in 1 2 3 4 5; do
    cargo test --release -q -p fm-serve --test protocol_negotiation
done
# Hostile nesting (binary and JSON) and the streamed-codec oracle
# proptest again in release: the decoders recurse through typed values,
# and stack frames differ between debug and release, while the suite
# above runs debug only.
cargo test --release -q -p fm-serve --test hostile_input
cargo test --release -q -p fm-serve --test connection_loop deeply_nested_json
cargo test --release -q -p fm-serve --lib protocol::codec_oracle
cargo test --release -q -p serde_json nesting_is_bounded
e19_dir="$(mktemp -d)"
for _ in 1 2 3; do
    rm -f "$e19_dir/BENCH_e19.json"
    cargo run --release -q -p fm-bench --bin table_e19_wire -- --quick --json "$e19_dir/BENCH_e19.json" >/dev/null
    [ -s "$e19_dir/BENCH_e19.json" ] || { echo "wire-smoke: E19 emitted no JSON"; exit 1; }
done
rm -rf "$e19_dir"

echo "== costmodel-smoke: backend parity proptests + E20 quick run =="
# Parity first: cold tune, warm tune, and delta repair must agree under
# every cost backend, and the default (analytic) backend must stay
# bit-identical to the historical FigureOfMerit scoring — plus the
# hand-computed roofline fixtures for one FFT and one stencil mapping.
# Then the E20 quick run: the binary runs the sweep twice and exits
# non-zero if winner determinism breaks, if an analytic row flips, or
# if no backend changes any winner.
cargo test --release -q --test costmodel_backends
e20_dir="$(mktemp -d)"
cargo run --release -q -p fm-bench --bin table_e20_costmodels -- --quick --json "$e20_dir/BENCH_e20.json" >/dev/null
[ -s "$e20_dir/BENCH_e20.json" ] || { echo "costmodel-smoke: E20 emitted no JSON"; exit 1; }
rm -rf "$e20_dir"

echo "== churn-smoke: elastic membership chaos + E21 quick run =="
# Membership chaos first: wire join/leave reshaping a live roster, the
# throughput-cliff suffix re-dispatch, departure mid-tune, the seeded
# churn proptest, and — explicitly — a coordinator restarted against a
# deliberately corrupted weight ledger falling back to cold weights.
# Then the E21 quick run: the binary asserts winner parity in both
# arms, a fired cliff detector, persisted weights after the mid-suite
# restart, zero discarded sealed parts, and the adaptive-vs-static
# wall-clock bar, exiting non-zero on any violation.
cargo test --release -q -p fm-serve --test fleet_faults -- \
    membership_join_and_leave corrupt_ledger_falls_back \
    persisted_weights_survive throughput_cliff departed_shard seeded_churn
cargo run --release -q -p fm-bench --bin table_e21_churn -- --quick --no-json >/dev/null

echo "== evalperf-smoke: flat-engine parity + E22 quick run =="
# The E22 binary gates on bit parity before timing anything: every
# candidate's score bits and the winner index must match between the
# flat engine and the reference path, and its counting global
# allocator asserts zero steady-state allocations. The quick run
# exercises all of that end to end and must emit its BENCH_e22.json
# rows (scratch dir so a smoke run never clobbers full-run numbers).
e22_dir="$(mktemp -d)"
cargo run --release -q -p fm-bench --bin table_e22_evalperf -- --quick --json "$e22_dir/BENCH_e22.json" >/dev/null
[ -s "$e22_dir/BENCH_e22.json" ] || { echo "evalperf-smoke: E22 emitted no JSON"; exit 1; }
rm -rf "$e22_dir"

echo "== servebench-smoke: served-mapping benchmark correctness gates =="
# servebench is a package of its own with its own Cargo.lock, so the
# workspace build, clippy and tests above never compile it against the
# current crates. Build it, then run every workload for a few seconds:
# all benchmark traffic crosses the server's connection loop, and the
# binary exits non-zero if a session winner differs from a cold replay
# or a served tune from an in-process tune.
cargo build --release --offline -q --manifest-path servebench/Cargo.toml
for workload in search-wide large-graph anneal-refine session-stream; do
    cargo run --release --offline -q --manifest-path servebench/Cargo.toml -- \
        --workload "$workload" --seed 7 --seconds 3 --trace 0 >/dev/null
done

echo "== serve-smoke: daemon + fleet coordinator + example over the wire =="
# Launch the real daemon on an ephemeral port, then a second daemon
# coordinating a one-shard fleet over it. The example runs an uncached
# (hence fleet-eligible) tune through the coordinator, then a cached one
# against the daemon directly; FM_SERVE_SHUTDOWN=1 makes each run
# request its server's drain. Both daemons must exit cleanly, and the
# coordinator's exit summary must report exactly one fleet tune.
cargo build --release -q -p fm-serve --bin fm-serve
cargo build --release -q --example mapping_service
serve_log="$(mktemp)"
coord_log="$(mktemp)"
serve_pid=""
coord_pid=""
trap 'kill $serve_pid $coord_pid 2>/dev/null || true; rm -f "$serve_log" "$coord_log"' EXIT
# Wait for the "fm-serve listening on ADDR" banner in log $1.
listen_addr() {
    local addr=""
    for _ in $(seq 1 50); do
        addr="$(sed -n 's/^fm-serve listening on \([^ ]*\).*/\1/p' "$1")"
        [ -n "$addr" ] && break
        sleep 0.1
    done
    echo "$addr"
}
./target/release/fm-serve --addr 127.0.0.1:0 >"$serve_log" &
serve_pid=$!
serve_addr="$(listen_addr "$serve_log")"
[ -n "$serve_addr" ] || { echo "serve-smoke: daemon never reported its address"; exit 1; }
./target/release/fm-serve --addr 127.0.0.1:0 --fleet "$serve_addr" >"$coord_log" &
coord_pid=$!
coord_addr="$(listen_addr "$coord_log")"
[ -n "$coord_addr" ] || { echo "serve-smoke: coordinator never reported its address"; exit 1; }
FM_SERVE_ADDR="$coord_addr" FM_SERVE_UNCACHED=1 FM_SERVE_SHUTDOWN=1 \
    ./target/release/examples/mapping_service >/dev/null
wait "$coord_pid" || { echo "serve-smoke: coordinator exited non-zero"; exit 1; }
grep -q '^fm-serve: fleet — .*, 1 tunes,' "$coord_log" \
    || { echo "serve-smoke: coordinator did not report one fleet tune"; cat "$coord_log"; exit 1; }
FM_SERVE_ADDR="$serve_addr" FM_SERVE_SHUTDOWN=1 \
    ./target/release/examples/mapping_service >/dev/null
wait "$serve_pid" || { echo "serve-smoke: daemon exited non-zero"; exit 1; }
trap - EXIT
rm -f "$serve_log" "$coord_log"

echo "ci: all green"
