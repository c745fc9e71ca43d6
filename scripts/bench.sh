#!/usr/bin/env bash
# End-to-end benchmark of the simulator (see DESIGN.md, "Time
# advancement").
#
# Runs `experiments all --quick` on one worker (CGCT_JOBS=1) with
# pinned seeds in five alternating pairs: once plain, once with
# request-lifetime tracing on (CGCT_TRACE=1). It byte-compares every
# figure artifact of every leg against the first plain leg and writes
# BENCH_cgct.json with wall-clock seconds, simulated cycles/sec, memory
# events/sec, and the tracing overhead ratio.
#
# The plain legs reuse repeated cells in-process; the traced legs must
# simulate every cell. So the overhead ratio is like for like: the
# rows of the two legs' timing.json files are matched by label, and
# the traced leg's summed cell seconds are divided by the plain leg's
# over the cells both legs simulated. Every simulated cell has a row.
# The gate is the median of the five pairs' ratios: above 1.25 fails
# the run. It is only reported if the artifacts are byte-identical, so
# that it is the cost of simulating the *same* machine trajectories.
#
# Usage: scripts/bench.sh [output.json]
#   CGCT_BENCH_CMD=fig7  restrict to one command (default: all)
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_cgct.json}"
cmd="${CGCT_BENCH_CMD:-all}"
pairs=5
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
    CGCT_JOBS=1 "$bin" "$cmd" --quick --json "$workdir/$tag" \
        > "$workdir/$tag.md" 2> "$workdir/$tag.log"
    t1=$(date +%s%N)
    echo $(( (t1 - t0) / 1000000 )) # milliseconds
}

total_of() { # $1 = leg tag, $2 = timing.json total field
    local n
    n=$(grep -o "\"$2\": [0-9]*" "$workdir/$1/timing.json" | head -1 | grep -o '[0-9]*')
    echo "${n:-0}"
}

cells_of() { # $1 = leg tag; prints "label<TAB>seconds<TAB>reused" per cell row
    awk '
        /"label": / { label = $0; sub(/^[^:]*: "/, "", label); sub(/",?$/, "", label) }
        /"seconds": / { secs = $2; sub(/,$/, "", secs) }
        /"reused": / { reused = $2; sub(/,$/, "", reused); print label "\t" secs "\t" reused }
    ' "$workdir/$1/timing.json"
}

like_for_like() { # $1 = plain leg, $2 = traced leg
    # Prints "cells plain_seconds traced_seconds ratio_x1000" over the
    # cells both legs simulated; fails unless every cell the plain leg
    # simulated has a simulated row in the traced leg.
    awk -F'\t' '
        NR == FNR { if ($3 == "false") { plain[$1] = $2; want++ } next }
        ($1 in plain) && $3 == "false" { p += plain[$1]; t += $2; n++ }
        END {
            if (n == 0 || n != want) exit 1
            printf "%d %.3f %.3f %d\n", n, p, t, (p > 0 ? t * 1000 / p : 0)
        }
    ' <(cells_of "$1") <(cells_of "$2")
}

same_artifacts() { # $1 = leg tag; compares against plain1
    local ok=true f name
    for f in "$workdir"/plain1/*.json; do
        name="$(basename "$f")"
        [ "$name" = timing.json ] && continue # wall times differ by design
        if ! cmp -s "$f" "$workdir/$1/$name"; then
            echo "MISMATCH: $name differs between plain1 and $1" >&2
            ok=false
        fi
    done
    if ! cmp -s "$workdir/plain1.md" "$workdir/$1.md"; then
        echo "MISMATCH: report markdown differs between plain1 and $1" >&2
        ok=false
    fi
    [ "$ok" = true ]
}

median() { # prints the middle of its integer arguments
    printf '%s\n' "$@" | sort -n | sed -n "$(( ($# + 1) / 2 ))p"
}

milli() { # renders x1000 fixed point as d.ddd
    echo "$(($1 / 1000)).$(printf '%03d' $(($1 % 1000)))"
}

plain_walls=()
traced_walls=()
ratios=()
identical=true
for i in $(seq 1 "$pairs"); do
    echo "== pair $i/$pairs: $cmd --quick, plain then traced (CGCT_JOBS=1) =="
    p_ms=$(run_mode "plain$i")
    t_ms=$(CGCT_TRACE=1 run_mode "traced$i")
    same_artifacts "traced$i" || identical=false
    if [ "$i" -gt 1 ]; then
        same_artifacts "plain$i" || identical=false
    fi
    if ! read -r cells p_secs t_secs ratio < <(like_for_like "plain$i" "traced$i"); then
        echo "bench.sh: FAILED — traced$i has no row for a cell plain$i simulated" >&2
        exit 1
    fi
    echo "   plain ${p_ms} ms, traced ${t_ms} ms; over the ${cells} cells both simulated: plain ${p_secs} s, traced ${t_secs} s, ratio $(milli "$ratio")"
    plain_walls+=("$p_ms")
    traced_walls+=("$t_ms")
    ratios+=("$ratio")
done

if [ "$identical" != true ]; then
    echo "bench.sh: FAILED — legs disagree; the tracing ratio would be meaningless" >&2
    exit 1
fi
echo "   all artifacts byte-identical"

plain_ms=$(median "${plain_walls[@]}")
traced_ms=$(median "${traced_walls[@]}")
trace_overhead_milli=$(median "${ratios[@]}")
# The plain legs' totals count only the cells they simulated; reused
# cells add no cycles, so cycles/s measures simulation speed.
sim_cycles=$(total_of plain1 total_sim_cycles)
mem_events=$(total_of plain1 total_mem_events)
skip_cps=$(( sim_cycles * 1000 / (plain_ms > 0 ? plain_ms : 1) ))
skip_eps=$(( mem_events * 1000 / (plain_ms > 0 ? plain_ms : 1) ))

# Gate: recording trace events may cost at most 25% of the time to
# simulate the same cells. The median of five alternating pairs keeps one slow leg on a
# shared host from deciding the outcome.
if [ "$trace_overhead_milli" -gt 1250 ]; then
    echo "bench.sh: FAILED — tracing overhead $((trace_overhead_milli / 10 - 100))% exceeds the 25% budget" >&2
    exit 1
fi
echo "   tracing overhead ratio (median of $pairs): $(milli "$trace_overhead_milli") (budget 1.250)"

cat > "$out" <<EOF
{
  "command": "experiments $cmd --quick",
  "jobs": 1,
  "host_cpus": $host_cpus,
  "pairs": $pairs,
  "artifacts_identical": true,
  "total_sim_cycles": $sim_cycles,
  "total_mem_events": $mem_events,
  "skip": {
    "wall_seconds": $(milli "$plain_ms"),
    "sim_cycles_per_sec": $skip_cps,
    "memory_events_per_sec": $skip_eps
  },
  "trace": {
    "wall_seconds": $(milli "$traced_ms"),
    "overhead_ratio": $(milli "$trace_overhead_milli"),
    "budget_ratio": 1.250
  }
}
EOF
echo "== wrote $out =="
cat "$out"
