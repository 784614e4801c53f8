#!/usr/bin/env bash
# Build the benchmark and the hlsbd daemon from source, then run one
# measurement. Run from the repository root:
#   bash perfbench/run.sh --workload table1 --seed 1 --seconds 18 --trace 0
# Build output goes to standard error; the last line of standard output
# is the result record.
#
# The measurement runs pinned to one CPU, the last this process may use.
# The load is a closed loop, so only one process is busy at a time; on
# one CPU the client and the daemon hand off without cross-CPU wake-ups,
# which made store-hit latency swing 25% between runs when unpinned.
set -euo pipefail
dune build --root . perfbench/main.exe bin/hlsbd.exe 1>&2
cpus=$(awk '/^Cpus_allowed_list/ {print $2}' /proc/self/status)
exec taskset -c "${cpus##*[,-]}" ./_build/default/perfbench/main.exe "$@"
