#!/usr/bin/env bash
# End-to-end benchmark of the simulator (see DESIGN.md, "Time
# advancement").
#
# Runs `experiments all --quick` on one worker (CGCT_JOBS=1) with
# pinned seeds — once plain, once with request-lifetime tracing on
# (CGCT_TRACE=1) — byte-compares every figure artifact between the
# runs, and writes BENCH_cgct.json with wall-clock seconds, simulated
# cycles/sec, memory events/sec, and the tracing overhead ratio. The
# ratio is only reported if the artifacts are byte-identical: it must
# be the cost of simulating the *same* machine trajectory, not a
# different one. Tracing overhead above 25% fails the run.
#
# A third leg benchmarks the content-addressed result cache: the same
# command cold (fresh cache dir, every cell simulated and stored) and
# warm (every cell restored from disk). The warm/cold ratio is refused
# unless the two runs' artifacts are byte-identical, and a warm re-run
# slower than 10x cold fails the run. All other legs run with
# CGCT_CACHE=0 so repeated legs measure simulation, not the cache.
#
# Usage: scripts/bench.sh [output.json]
#   CGCT_BENCH_CMD=fig7  restrict to one command (default: all)
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_cgct.json}"
cmd="${CGCT_BENCH_CMD:-all}"
# Wall times depend on the host; record its CPU count with them.
host_cpus="$(nproc 2>/dev/null || echo 1)"
workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

echo "== build (release, offline) =="
cargo build --release -p cgct-bench --offline

bin=target/release/experiments

run_mode() { # $1 = leg tag
    local tag="$1"
    mkdir -p "$workdir/$tag"
    local t0 t1
    t0=$(date +%s%N)
    # Cache off unless the caller (the cache leg) turns it on: every
    # other leg must measure simulation, not disk reads.
    CGCT_JOBS=1 CGCT_CACHE="${CGCT_CACHE:-0}" "$bin" "$cmd" --quick \
        --json "$workdir/$tag" \
        > "$workdir/$tag.md" 2> "$workdir/$tag.log"
    t1=$(date +%s%N)
    echo $(( (t1 - t0) / 1000000 )) # milliseconds
}

echo "== $cmd --quick, event-driven loop (CGCT_JOBS=1) =="
skip_ms=$(run_mode skip)
echo "   ${skip_ms} ms"

echo "== $cmd --quick, request-lifetime tracing on (CGCT_TRACE=1) =="
traced_ms=$(CGCT_TRACE=1 run_mode traced)
echo "   ${traced_ms} ms"

echo "== $cmd --quick, result cache cold (fresh dir) =="
cachecold_ms=$(CGCT_CACHE=1 CGCT_CACHE_DIR="$workdir/cache_entries" run_mode cachecold)
echo "   ${cachecold_ms} ms"

echo "== $cmd --quick, result cache warm (all cells restored) =="
cachewarm_ms=$(CGCT_CACHE=1 CGCT_CACHE_DIR="$workdir/cache_entries" run_mode cachewarm)
echo "   ${cachewarm_ms} ms"

echo "== comparing artifacts =="
identical=true
for f in "$workdir"/skip/*.json; do
    name="$(basename "$f")"
    [ "$name" = timing.json ] && continue # wall times differ by design
    if ! cmp -s "$f" "$workdir/traced/$name"; then
        echo "MISMATCH: $name differs between skip and traced"
        identical=false
    fi
done
if ! cmp -s "$workdir/skip.md" "$workdir/traced.md"; then
    echo "MISMATCH: report markdown differs between skip and traced"
    identical=false
fi
if [ "$identical" != true ]; then
    echo "bench.sh: FAILED — legs disagree; the tracing ratio would be meaningless" >&2
    exit 1
fi
echo "   all artifacts byte-identical"

echo "== comparing cache-leg artifacts (warm vs cold vs uncached) =="
cache_identical=true
for f in "$workdir"/cachecold/*.json; do
    name="$(basename "$f")"
    [ "$name" = timing.json ] && continue # wall times and hit flags differ
    if ! cmp -s "$f" "$workdir/cachewarm/$name"; then
        echo "MISMATCH: $name differs between cachecold and cachewarm"
        cache_identical=false
    fi
    # The cached runs use the same engine as the uncached skip leg, so
    # their artifacts must match it too.
    if ! cmp -s "$f" "$workdir/skip/$name"; then
        echo "MISMATCH: $name differs between cachecold and skip"
        cache_identical=false
    fi
done
if ! cmp -s "$workdir/cachecold.md" "$workdir/cachewarm.md"; then
    echo "MISMATCH: report markdown differs between cachecold and cachewarm"
    cache_identical=false
fi
if [ "$cache_identical" != true ]; then
    echo "bench.sh: FAILED — cached runs disagree; the cache speedup would be meaningless" >&2
    exit 1
fi
echo "   cache-leg artifacts byte-identical"

# total_sim_cycles and total_mem_events are identical in both runs
# (same trajectory); read them from the skip run's timing.json.
sim_cycles=$(grep -o '"total_sim_cycles": [0-9]*' "$workdir/skip/timing.json" \
    | head -1 | grep -o '[0-9]*')
sim_cycles=${sim_cycles:-0}
mem_events=$(grep -o '"total_mem_events": [0-9]*' "$workdir/skip/timing.json" \
    | head -1 | grep -o '[0-9]*')
mem_events=${mem_events:-0}

# Fixed-point arithmetic (no bc in the image): x1000 for three decimals.
skip_cps=$(( sim_cycles * 1000 / (skip_ms > 0 ? skip_ms : 1) ))
skip_eps=$(( mem_events * 1000 / (skip_ms > 0 ? skip_ms : 1) ))
trace_overhead_milli=$(( traced_ms * 1000 / (skip_ms > 0 ? skip_ms : 1) ))
cache_speedup_milli=$(( cachecold_ms * 1000 / (cachewarm_ms > 0 ? cachewarm_ms : 1) ))

# Gate: recording trace events may cost at most 25% wall clock.
# Repeated runs of identical code on a single-CPU host measure the ratio
# anywhere from 1.02 to 1.18 (a true cost of ~8-10% plus up to +/-8%
# run-to-run noise); 1.250 sits outside that band and still fails
# loudly if recording ever becomes structurally expensive.
if [ "$trace_overhead_milli" -gt 1250 ]; then
    echo "bench.sh: FAILED — tracing overhead $((trace_overhead_milli / 10 - 100))% exceeds the 25% budget" >&2
    exit 1
fi
echo "   tracing overhead ratio: $((trace_overhead_milli / 1000)).$(printf '%03d' $((trace_overhead_milli % 1000))) (budget 1.250)"

# Gate: a warm re-run restores every cell from disk and must be at
# least 10x faster than simulating them cold.
if [ "$cache_speedup_milli" -lt 10000 ]; then
    echo "bench.sh: FAILED — warm cache re-run only $((cache_speedup_milli / 1000)).$(printf '%03d' $((cache_speedup_milli % 1000)))x faster than cold (floor 10x)" >&2
    exit 1
fi
echo "   warm-cache speedup: $((cache_speedup_milli / 1000)).$(printf '%03d' $((cache_speedup_milli % 1000)))x (floor 10x)"

cat > "$out" <<EOF
{
  "command": "experiments $cmd --quick",
  "jobs": 1,
  "artifacts_identical": true,
  "total_sim_cycles": $sim_cycles,
  "total_mem_events": $mem_events,
  "skip": {
    "host_cpus": $host_cpus,
    "wall_seconds": $((skip_ms / 1000)).$(printf '%03d' $((skip_ms % 1000))),
    "sim_cycles_per_sec": $skip_cps,
    "memory_events_per_sec": $skip_eps
  },
  "trace": {
    "host_cpus": $host_cpus,
    "wall_seconds": $((traced_ms / 1000)).$(printf '%03d' $((traced_ms % 1000))),
    "overhead_ratio": $((trace_overhead_milli / 1000)).$(printf '%03d' $((trace_overhead_milli % 1000))),
    "budget_ratio": 1.250
  },
  "cache": {
    "host_cpus": $host_cpus,
    "artifacts_identical": true,
    "cold_wall_seconds": $((cachecold_ms / 1000)).$(printf '%03d' $((cachecold_ms % 1000))),
    "warm_wall_seconds": $((cachewarm_ms / 1000)).$(printf '%03d' $((cachewarm_ms % 1000))),
    "speedup": $((cache_speedup_milli / 1000)).$(printf '%03d' $((cache_speedup_milli % 1000))),
    "floor": 10.0
  }
}
EOF
echo "== wrote $out =="
cat "$out"
