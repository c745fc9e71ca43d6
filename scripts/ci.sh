#!/usr/bin/env bash
# Tier-1 verification. The workspace has zero external dependencies, so
# everything here runs with --offline; a network fetch attempt is a bug.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release, offline) =="
cargo build --release --workspace --offline

echo "== test (offline) =="
cargo test -q --workspace --offline

echo "== doctests (offline) =="
cargo test -q --workspace --offline --doc

echo "== rustdoc (warnings are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# Style checks are skipped (with a warning) when the component is not
# installed, but when present their findings FAIL the build — a clean
# tree locally must mean a clean tree for everyone.
echo "== fmt =="
if cargo fmt --version >/dev/null 2>&1; then
    cargo fmt --all --check
else
    echo "rustfmt not installed; skipping"
fi

echo "== clippy =="
if cargo clippy --version >/dev/null 2>&1; then
    cargo clippy --workspace --offline --all-targets -- -D warnings
else
    echo "clippy not installed; skipping"
fi

echo "== cgct-lint (determinism & purity static analysis) =="
# Self-test first: every rule must fire with its exact expected span on
# seeded injected violations, or the gate below proves nothing.
target/release/cgct-lint --self-test
# The tree itself must be clean modulo the (shrink-only) baseline.
target/release/cgct-lint --root . --format json --baseline lint_baseline.json
# Injection smoke: a freshly planted violation in a pure crate must
# fail the gate — the binary wired here actually bites.
lint_dir="$(mktemp -d)"
mkdir -p "$lint_dir/crates/sim/src"
cat > "$lint_dir/crates/sim/src/bad.rs" <<'EOF'
//! Injected fixture: must trip D001, D002, and D004.
use std::collections::HashMap;
use std::time::Instant;

pub fn bad() -> Option<String> {
    let _: HashMap<u8, u8> = HashMap::new();
    let _ = Instant::now();
    std::env::var("CGCT_INJECTED").ok()
}
EOF
if target/release/cgct-lint --root "$lint_dir" > /dev/null; then
    echo "cgct-lint failed to flag an injected violation"
    rm -rf "$lint_dir"
    exit 1
fi
rm -rf "$lint_dir"
echo "cgct-lint clean; self-test and injection smoke passed"

echo "== exhaustive model checker (3 nodes x 1 region x 2 lines) =="
cargo run --release -p cgct-verify --offline --bin cgct-verify -- --nodes 3 --lines 2

echo "== exhaustive model checker: directory + hierarchical machines =="
cargo run --release -p cgct-verify --offline --bin cgct-verify -- --protocol dir-cgct
cargo run --release -p cgct-verify --offline --bin cgct-verify -- \
    --protocol hierarchical --clusters 2
# The new-mode fault injections must be *caught*: each seeded mutation
# exits nonzero with a counterexample trace.
if cargo run --release -p cgct-verify --offline --bin cgct-verify -- \
    --protocol dir-cgct --mutate stale-region-dir-cache > /dev/null 2>&1; then
    echo "stale-region-dir-cache fault was not caught"
    exit 1
fi
if cargo run --release -p cgct-verify --offline --bin cgct-verify -- \
    --protocol hierarchical --clusters 2 --mutate skip-cluster-invalidation \
    > /dev/null 2>&1; then
    echo "skip-cluster-invalidation fault was not caught"
    exit 1
fi
echo "new-mode fixpoints clean; seeded faults caught"

echo "== perfbench: harness tests and one checked pass of every workload =="
# perfbench is a package of its own (BENCHMARK.json's command), so the
# workspace steps above never build it. A run exits 1 when a modelled
# digest, a checker golden or an invariant check fails.
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml
# Both seeds, so both digests in perfbench/digests.txt are checked.
for seed in 1 7919; do
    cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- \
        --workload all --seed "$seed" --seconds 1 --trace 0
done
# perfbench times its own copy of the run loop in a traced pass; the
# pass checks that copy's results against Machine::run_warmed.
cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- \
    --workload bus4-private --trace 1 --seconds 3

echo "== event-driven vs cycle-stepped equivalence =="
cargo test -q --release -p cgct-system --offline --test skip_equivalence

echo "== sanitizer smoke: experiments all --quick, byte-compared (and against results/quick/) =="
san_dir="$(mktemp -d)"
trap 'rm -rf "$san_dir"' EXIT
CGCT_JOBS=1 target/release/experiments all --quick --json "$san_dir/plain" \
    > "$san_dir/plain.md"
CGCT_JOBS=1 CGCT_SANITIZE=1 CGCT_SANITIZE_INTERVAL=4096 \
    target/release/experiments all --quick --json "$san_dir/sanitized" \
    > "$san_dir/sanitized.md"
# The sanitizer is read-only: every artifact except the wall-clock
# timing log must be byte-identical with and without it.
for f in "$san_dir"/plain/*.json; do
    name="$(basename "$f")"
    [ "$name" = "timing.json" ] && continue
    cmp -s "$f" "$san_dir/sanitized/$name" || {
        echo "sanitized artifact differs: $name"
        exit 1
    }
done
cmp -s "$san_dir/plain.md" "$san_dir/sanitized.md" || {
    echo "sanitized report differs"
    exit 1
}
echo "sanitized artifacts byte-identical"
# The committed quick results are the code's output: the plain leg must
# reproduce results/quick/ byte for byte (report and every JSON file but
# the wall-clock timing log). A change that moves a reported number
# fails here until results/quick/ is regenerated (see README.md).
for f in "$san_dir"/plain/*.json; do
    name="$(basename "$f")"
    [ "$name" = "timing.json" ] && continue
    [ -f "results/quick/$name" ] || {
        echo "results/quick/ has no $name; regenerate it"
        exit 1
    }
done
for f in results/quick/*.json; do
    cmp -s "$f" "$san_dir/plain/$(basename "$f")" || {
        echo "results/quick/$(basename "$f") differs from a fresh run; regenerate it"
        exit 1
    }
done
cmp -s results/quick/report.md "$san_dir/plain.md" || {
    echo "results/quick/report.md differs from a fresh run; regenerate it"
    exit 1
}
echo "fresh run matches results/quick/"

echo "== trace smoke: experiments directory --quick --trace, validated =="
trace_dir="$san_dir/trace"
CGCT_JOBS=1 target/release/experiments directory --quick \
    --trace "$trace_dir" --json "$san_dir/traced_json" > "$san_dir/traced.md"
# Tracing is pure observation: every non-trace artifact must be
# byte-identical to an untraced run of the same command.
CGCT_JOBS=1 target/release/experiments directory --quick \
    --json "$san_dir/untraced_json" > "$san_dir/untraced.md"
for f in "$san_dir"/untraced_json/*.json; do
    name="$(basename "$f")"
    [ "$name" = "timing.json" ] && continue
    cmp -s "$f" "$san_dir/traced_json/$name" || {
        echo "traced artifact differs: $name"
        exit 1
    }
done
cmp -s "$san_dir/traced.md" "$san_dir/untraced.md" || {
    echo "traced report differs"
    exit 1
}
# Chrome JSON parses and is per-track monotonic; the summary
# round-trips byte-exactly and obeys the Figure 6 latency ordering.
target/release/trace_check "$trace_dir"
echo "trace artifacts validated, non-trace artifacts byte-identical"

echo "== checkpoint smoke: run ocean (default, dir-cgct, hier), interrupt, resume, byte-compared =="
CGCT_JOBS=1 target/release/experiments run ocean --quick --seed 3 \
    > "$san_dir/full_run.json" 2> /dev/null
CGCT_JOBS=1 target/release/experiments run ocean --quick --seed 3 \
    --checkpoint "$san_dir/ck.json" --checkpoint-every 3000 --stop-after 4 \
    > /dev/null 2> /dev/null
CGCT_JOBS=1 target/release/experiments run --resume "$san_dir/ck.json" --quick \
    > "$san_dir/resumed_run.json" 2> /dev/null
cmp -s "$san_dir/full_run.json" "$san_dir/resumed_run.json" || {
    echo "resumed run differs from uninterrupted run"
    exit 1
}
# The scale-out RCA machines keep derived state (the RCA-holder mask)
# that a resume must rebuild; interrupt and resume each of them too.
for mode in dir-cgct-512B hier-512B; do
    CGCT_JOBS=1 target/release/experiments run ocean --quick --seed 3 --mode "$mode" \
        > "$san_dir/full_$mode.json" 2> /dev/null
    CGCT_JOBS=1 target/release/experiments run ocean --quick --seed 3 --mode "$mode" \
        --checkpoint "$san_dir/ck_$mode.json" --checkpoint-every 3000 --stop-after 4 \
        > /dev/null 2> /dev/null
    CGCT_JOBS=1 target/release/experiments run --resume "$san_dir/ck_$mode.json" --quick \
        --mode "$mode" > "$san_dir/resumed_$mode.json" 2> /dev/null
    cmp -s "$san_dir/full_$mode.json" "$san_dir/resumed_$mode.json" || {
        echo "resumed $mode run differs from uninterrupted run"
        exit 1
    }
done
echo "resumed runs byte-identical to uninterrupted runs"

echo "== bench harness smoke (one command, quick) =="
smoke_out="$(mktemp)"
CGCT_BENCH_CMD=directory scripts/bench.sh "$smoke_out"
rm -f "$smoke_out"

echo "ci.sh: OK"
