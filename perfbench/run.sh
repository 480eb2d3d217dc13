#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload ysb --seed 1 --seconds 10 --trace 0
#
# Every build artefact, the Go build cache and the toolchain's config files go
# under $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail
root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
commit=$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" -commit "$commit" "$@"
