#!/usr/bin/env bash
# run.sh — build soteriad and the benchmark from this checkout's sources
# into .bench_build/, then run the benchmark with the given arguments:
#
#   bash benchmark/run.sh --workload corpus --seed 1 --seconds 20 --trace 0
#
# The Go build cache and temp files are kept under .bench_build/ too, so
# a run writes nothing outside the checkout. Outside a full checkout
# (no root go.mod) the build fails and the script exits non-zero.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gotmp" "$out/gomodcache" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache"
# The go command keeps telemetry under the user config directory. With
# telemetry on (its default mode is "local") it starts a detached upload
# process that outlives the build, so turn it off before the first go call.
export XDG_CONFIG_HOME="$out/config"
mkdir -p "$out/config/go/telemetry"
printf 'off\n' > "$out/config/go/telemetry/mode"
export GOPROXY=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local
# peak_rss_mb is defined with the Go runtime at its defaults.
unset GOGC GOMEMLIMIT GOMAXPROCS
cd "$root"
go build -o "$out/bin/soteriad" ./cmd/soteriad
(cd "$root/benchmark" && go build -o "$out/bin/soteria-benchmark" .)
exec "$out/bin/soteria-benchmark" --workdir "$out" "$@"
