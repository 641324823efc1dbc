#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Every file the Go
# toolchain writes (build cache, temp files, the binary) stays under
# .bench_build in the directory this is run from, the repository root.
#
#   bash cfbench/run.sh --workload paper-eval --seed 1 --seconds 30 --trace 0
set -euo pipefail

root=$PWD
out=$root/.bench_build
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/home"
export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp GOPATH=$out/gopath
export HOME=$out/home XDG_CONFIG_HOME=$out/home/.config XDG_CACHE_HOME=$out/home/.cache
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off

# The commit is stamped from version control when there is one.
go -C "$root/cfbench" build -o "$out/cfbench" . >&2 ||
	go -C "$root/cfbench" build -buildvcs=false -o "$out/cfbench" . >&2
exec "$out/cfbench" "$@"
