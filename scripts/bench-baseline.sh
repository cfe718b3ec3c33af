#!/bin/sh
# bench-baseline: capture the serving-path performance trajectory in
# BENCH_10.json so future PRs have concrete numbers to regress against.
# The committed BENCH_4.json / BENCH_5.json / BENCH_7.json / BENCH_8.json
# stay in place as prior markers, so the files side by side show the
# trajectory across PRs.
#
# Records, per benchmark: ns/op, inv/s (where reported), B/op, and
# allocs/op for the single-invoke and batched dispatch paths, the
# HTTP-level serving benchmark crossing the two
# wire framings (JSON vs binary, docs/WIRE.md) with payloads from 64 B
# to 1 MiB (the ISSUE 10 large-payload rows), the per-scenario rows of
# the mixed multi-tenant benchmark (interactive transcodes vs an SSB
# analytics flood vs storage scans under byte-fair DRR — each tenant's
# inv/s, wire MB/s, and p99), the journaled serving modes (ServingJournal off vs
# on-unkeyed vs on-keyed — the off/on-unkeyed delta is the cost of
# merely enabling `-journal`, which must stay under 2% since unkeyed
# traffic writes no records), the journal append path itself (memory vs
# file vs batched file, docs/JOURNAL.md), plus the mutex-vs-sharded
# counter contention probe at -cpu 1 and 4. The HTTP-level serving
# benchmarks run -count 3 and report the mean (they are noisy enough on
# shared machines that single draws mislead); the in-process ones run
# once. These are trajectory markers, not publication-grade
# measurements — rerun on the machine you compare against.
set -eu
cd "$(dirname "$0")/.."

out=BENCH_10.json
tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

go test -run XXX -bench 'BenchmarkInvokeBatch|BenchmarkPlatformInvoke' \
    -benchmem -benchtime 1s -count 1 . >"$tmp"
go test -run XXX -bench 'BenchmarkServingHTTP|BenchmarkServingJournal|BenchmarkMixedTenants' \
    -benchmem -benchtime 2s -count 3 . >>"$tmp"
go test -run XXX -bench 'BenchmarkJournalAppend' \
    -benchmem -benchtime 1s -count 1 ./internal/journal/ >>"$tmp"
go test -run XXX -bench 'BenchmarkStatsContention' \
    -benchtime 1s -cpu 1,4 -count 1 . >>"$tmp"

{
    printf '{\n'
    printf '  "issue": 10,\n'
    printf '  "generated_by": "make bench-baseline",\n'
    printf '  "goos_goarch_cpu": "%s",\n' \
        "$(awk '/^goos:/{os=$2} /^goarch:/{arch=$2} /^cpu:/{sub(/^cpu: */,""); cpu=$0} END{printf "%s/%s %s", os, arch, cpu}' "$tmp")"
    printf '  "benchmarks": {\n'
    awk '
        function fmt(v) {
            if (v == int(v)) return sprintf("%d", v)
            if (v >= 100) return sprintf("%.0f", v)
            return sprintf("%.3f", v)
        }
        # Repeated benchmark names (-count > 1) are averaged per metric.
        /^Benchmark/ {
            name = $1
            sub(/^Benchmark/, "", name)
            if (!(name in seen)) { seen[name] = 1; order[++nnames] = name }
            for (i = 3; i < NF; i += 2) {
                u = $(i+1)
                if (!((name, u) in cnt)) units[name] = units[name] u "\n"
                sum[name, u] += $i
                cnt[name, u]++
            }
        }
        END {
            for (j = 1; j <= nnames; j++) {
                name = order[j]
                printf "%s    \"%s\": {", sep, name
                inner = ""
                m = split(units[name], ul, "\n")
                for (k = 1; k < m; k++) {
                    u = ul[k]
                    printf "%s\"%s\": %s", inner, u, fmt(sum[name, u] / cnt[name, u])
                    inner = ", "
                }
                printf "}"
                sep = ",\n"
            }
            printf "\n"
        }
    ' "$tmp"
    printf '  }\n'
    printf '}\n'
} >"$out"

echo "bench-baseline: wrote $out"
