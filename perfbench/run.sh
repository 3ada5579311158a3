#!/usr/bin/env bash
# Builds murakkabd and the load generator from the checkout's source into
# .bench_build/, then runs one benchmark invocation:
#
#   bash perfbench/run.sh --workload mixed-rw --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Every file it writes (binaries, the Go
# build cache, the daemon's logs) stays under .bench_build/.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/murakkabd || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/murakkabd and perfbench/ must exist)" >&2
	exit 2
fi

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0

go build -o "$out/murakkabd" ./cmd/murakkabd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -daemon "$out/murakkabd" -workdir "$out" "$@"
