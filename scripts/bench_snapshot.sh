#!/bin/sh
# bench_snapshot.sh — capture a benchmark snapshot of the measurement
# campaign into BENCH_campaign.json at the repository root.
#
# For every per-experiment benchmark it records ns/op, B/op, allocs/op
# and the pass metric (1 = the reproduced artifact matched the paper's
# claim on every check), plus the hot-path and batch-kernel
# microbenchmarks. End-to-end campaign wall time is perfbench's job
# (workload paper_quick), not this snapshot's.
#
# The snapshot itself is written through `benchgate -update`, which
# preserves the hand-tuned per-benchmark tolerance overrides
# (allocs_rel_tol / bytes_rel_tol / ns_rel_tol) committed in the
# baseline — regenerating the file never silently widens or drops a
# gate.
#
# Usage: scripts/bench_snapshot.sh [benchtime]
#   benchtime defaults to 1x (one campaign replay per benchmark).
set -eu

cd "$(dirname "$0")/.."
benchtime="${1:-1x}"
out=BENCH_campaign.json
raw=$(mktemp)
trap 'rm -f "$raw"' EXIT

echo "running benchmarks (-benchtime $benchtime)..." >&2
go test -run '^$' -bench '^Benchmark(Table1|Fig|Aggregation|Ablation|Blockage|Dense|Coexist|Campaign)' \
    -benchmem -benchtime "$benchtime" . | tee "$raw" >&2

# The ManyWalls tracer-scaling family (indexed vs brute-force across
# floor sizes) is millisecond scale and carries ns_rel_tol gates, so it
# always runs at a fixed iteration count for a stable ns/op regardless
# of the campaign benchtime.
echo "running tracer scaling benchmarks (-benchtime 20x)..." >&2
go test -run '^$' -bench '^BenchmarkManyWalls' -benchmem -benchtime 20x . | tee -a "$raw" >&2

# The hot-path and batch-kernel microbenchmarks are nanosecond-to-
# microsecond scale, so they get a fixed iteration count instead of the
# campaign benchtime: one iteration would make ns/op meaningless while
# allocs/op stays exact either way.
echo "running hot-path microbenchmarks (-benchtime 1000x)..." >&2
go test -run '^$' -bench '^Benchmark' -benchmem -benchtime 1000x \
    ./internal/sim/ ./internal/rf/ ./internal/antenna/ | tee -a "$raw" >&2

go run ./cmd/benchgate -baseline "$out" -bench "$raw" -update >&2

echo "wrote $out" >&2
