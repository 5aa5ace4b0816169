#!/usr/bin/env sh
# CI gate: formatting, lints on the whole workspace, tier-1 verification
# (release build + the root package's tests), then every other workspace
# crate's tests (the root package is excluded there because tier-1 already
# ran it), then end-to-end trace and serve smokes. Run from the repo root.
set -eu

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy (workspace) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== metam-analyze: workspace invariants (determinism / passivity / panic-freedom) =="
cargo run -q -p metam-analyze -- --workspace

echo "== metam-analyze: --json smoke (obs-validator schema check) =="
cargo run -q -p metam-analyze -- --workspace --json > target/analyze-report.json
cargo test -q -p metam-analyze --test json_schema

echo "== tier-1: cargo build --release && cargo test -q =="
cargo build --release
cargo test -q

echo "== workspace crate tests: cargo test -q --workspace --exclude metam =="
cargo test -q --workspace --exclude metam

echo "== trace smoke: discover --trace emits a validatable JSONL trace =="
TRACE_DIR=$(mktemp -d)
trap 'rm -rf "$TRACE_DIR"' EXIT
./target/release/metam demo "$TRACE_DIR/lake" --seed 7 >/dev/null
./target/release/metam discover "$TRACE_DIR/lake" --din din \
    --task classification:label --budget 60 --seed 7 --threads 2 \
    --trace "$TRACE_DIR/run.jsonl" >/dev/null
./target/release/metam trace-validate "$TRACE_DIR/run.jsonl"
# Warm path: the records discover left behind serve a rescan in full, and
# the sketch records are the catalog's only metadata files.
./target/release/metam scan "$TRACE_DIR/lake" > "$TRACE_DIR/scan.txt"
grep -q ', 0 re-profiled$' "$TRACE_DIR/scan.txt" \
    || { echo "warm scan re-profiled files:"; tail -2 "$TRACE_DIR/scan.txt"; exit 1; }
if ls "$TRACE_DIR/lake/.metam" | grep -q '^catalog.*\.tsv$'; then
    echo "warm scan left catalog*.tsv files in .metam"; exit 1
fi

echo "== serve smoke: daemon answers status/discover over TCP, then drains =="
SERVE_LOG="$TRACE_DIR/serve.log"
./target/release/metam serve "$TRACE_DIR/lake" --workers 2 --queue 4 \
    --stop-file "$TRACE_DIR/stop" > "$SERVE_LOG" 2>/dev/null &
SERVE_PID=$!
ADDR=""
for _ in $(seq 1 100); do
    ADDR=$(sed -n 's/^metam serve listening on //p' "$SERVE_LOG")
    [ -n "$ADDR" ] && break
    sleep 0.1
done
[ -n "$ADDR" ] || { echo "serve smoke: daemon never printed its address"; exit 1; }
./target/release/metam request "$ADDR" '{"verb":"status"}' > /dev/null
./target/release/metam request "$ADDR" \
    '{"verb":"discover","lake":"lake","din":"din","task":"classification:label","seed":7,"budget":60}' \
    > "$TRACE_DIR/serve-discover.json"
grep -q '"report":' "$TRACE_DIR/serve-discover.json"
./target/release/metam request "$ADDR" '{"verb":"shutdown"}' > /dev/null
wait "$SERVE_PID"

echo "CI OK"
