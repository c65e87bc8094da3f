#!/usr/bin/env bash
# Same-runner A/B benchmark gate. Runs PAIRS alternating pairs of one
# bench/ workload on BASE_REV (side A) and on this checkout (side B), then
# fails when `bench/run.sh -compare A B` calls any end-to-end metric
# regressed. A wrong output digest on either side fails it too.
#
#   bash .github/scripts/bench-ab.sh BASE_REV WORKLOAD PAIRS
#
# The run documents and the -compare table land in bench-ab-out/WORKLOAD/.
set -euo pipefail
[ $# -eq 3 ] || { echo "usage: $0 BASE_REV WORKLOAD PAIRS" >&2; exit 2; }
rev=$1 workload=$2 pairs=$3
root=$(git rev-parse --show-toplevel)
out="$root/bench-ab-out/$workload"
seconds=$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$root/BENCHMARK.json")
base=$(mktemp -d)
trap 'git -C "$root" worktree remove --force "$base"' EXIT
git -C "$root" worktree add --detach "$base" "$rev"
rm -rf "$out"
mkdir -p "$out/A" "$out/B"
# Each run is a plain statement, not part of an && list, so set -e stops
# the script on the first failing run.
run() { # side pair
	local dir=$base
	if [ "$1" = B ]; then dir=$root; fi
	bash "$dir/bench/run.sh" -workload "$workload" -seed 1 -seconds "$seconds" -trace 0 -out "$out/run"
	mv "$out/run/$workload-seed1-trace0.json" "$out/$1/pair$2.json"
}
for ((i = 1; i <= pairs; i++)); do
	if ((i % 2)); then run A "$i"; run B "$i"; else run B "$i"; run A "$i"; fi
done
rmdir "$out/run"
bash "$root/bench/run.sh" -compare "$out/A" "$out/B" | tee "$out/compare.txt"
