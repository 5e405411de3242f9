#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#   bash perfbench/run.sh --workload mc_eof --seed 1 --seconds 10 --trace 0
# Every build product, Go cache and temporary file stays under
# .bench_build/ in the current directory.
set -euo pipefail
root="$(pwd)"
out="${root}/.bench_build"
mkdir -p "${out}/gocache" "${out}/gomod" "${out}/tmp" "${out}/config"
export GOCACHE="${out}/gocache" GOMODCACHE="${out}/gomod" GOPATH="${out}/gopath" \
  GOTMPDIR="${out}/tmp" TMPDIR="${out}/tmp" XDG_CONFIG_HOME="${out}/config" \
  GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
(cd "${root}/perfbench" && go build -o "${out}/perfbench" .)
exec "${out}/perfbench" --out "${out}" "$@"
