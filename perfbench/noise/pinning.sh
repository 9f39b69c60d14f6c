#!/bin/sh
# Pinned vs unpinned closed loop: interleaved pairs of `wavesyn server`
# and `wavesyn loadgen` (n=1024, B=128, --cache, batch 8), once with
# both processes on one CPU and once free to use every CPU.
#
#   sh perfbench/noise/pinning.sh [pairs] [requests]
#
# Run from the checkout root. Prints the loadgen summary and wall time
# of every run; throughput is requests / wall seconds.
set -eu
pairs=${1:-6}
requests=${2:-120000}
dune build --root . ./bin/wavesyn_cli.exe 2>/dev/null
cli=$PWD/_build/default/bin/wavesyn_cli.exe
cpu=$(nproc --all); cpu=$((cpu - 1))
dir=.perfbench-run/pin$$
mkdir -p "$dir"
trap 'rm -rf "$dir"; rmdir .perfbench-run 2>/dev/null || true' EXIT
one() { # $1 = pin|free
    pre=""; [ "$1" = pin ] && pre="taskset -c $cpu"
    $pre "$cli" server --listen "$dir/s.sock" --gen zipf -n 1024 -B 128 --cache >/dev/null &
    spid=$!
    "$cli" query --connect "$dir/s.sock" --wait-ms 30000 --ping >/dev/null
    t0=$(date +%s.%N)
    $pre "$cli" loadgen --connect "$dir/s.sock" --requests "$requests" --batch 8 --seed 7 | tail -1
    t1=$(date +%s.%N)
    "$cli" query --connect "$dir/s.sock" --shutdown >/dev/null 2>&1 || kill "$spid"
    wait "$spid" || true
    python3 -c "print('$1 wall %.2f s  %.0f req/s' % ($t1 - $t0, $requests / ($t1 - $t0)))"
}
i=0
while [ "$i" -lt "$pairs" ]; do
    one pin; one free
    i=$((i + 1))
done
