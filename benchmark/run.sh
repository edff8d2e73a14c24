#!/usr/bin/env bash
# The one command of the repo benchmark (see README.md beside this file).
#
#   benchmark/run.sh                     the suite: every workload, 5 interleaved
#                                        repetitions each, then one traced run each
#   benchmark/run.sh --quick             the same at smoke sizes, under a minute
#   benchmark/run.sh --sets 2            two run sets, the second held against the first
#   benchmark/run.sh --workload NAME --seed N --seconds N --trace 0|1
#                                        one run (what BENCHMARK.json's command does)
#
# Builds the standalone package in this directory from source (offline; the
# root workspace and its lockfile are not touched) and passes the arguments
# through.  Outputs go to benchmark/out/.
set -euo pipefail
here="$(dirname "$0")"
# Pin glibc malloc's thresholds (their defaults adapt to the order of frees):
# with them adaptive the same run's peak RSS is 21 or 25 MB and a 4 MB table
# copy page-faults or not, depending on what was freed before it.  Fixed,
# everything below 32 MB comes from a heap that is never trimmed.
export MALLOC_MMAP_THRESHOLD_="${MALLOC_MMAP_THRESHOLD_:-33554432}"
export MALLOC_TRIM_THRESHOLD_="${MALLOC_TRIM_THRESHOLD_:-1073741824}"
exec cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- --out "$here/out" "$@"
