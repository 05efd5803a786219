#!/usr/bin/env bash
# Builds cubebench and runs it against this checkout. Run from the
# repository root; arguments pass through, e.g.
#
#   bash bench/run.sh --workload paper --seed 1 --seconds 10 --trace 0
#
# Every build artefact, Go cache and temporary file stays under
# .bench_build/ in the checkout, and no module is fetched.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/bench/go.mod" || ! -f "$root/go.mod" || ! -d "$root/cmd/cube-server" ]]; then
	echo "bench/run.sh: run from the repository root (no go.mod or cmd/cube-server here)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/bench" && go build -o "$build/cubebench" ./cubebench)
exec "$build/cubebench" "$@"
