#!/usr/bin/env python3
"""Self-check of the serving benchmark, at tiny sizes.

    python3 perfbench/test/selfcheck.py

Run from the root of a wavesyn checkout. For every workload it runs the
benchmark in timed and traced mode and checks that:

- every run passes the correctness gate with no failed request;
- the metric names and units are exactly those BENCHMARK.json lists
  (end_to_end when timed, per_layer when traced), all finite;
- two runs with the same seed give the same warm-up CRC and
  max_point_err, and so does a run served by the real `wavesyn server`
  (`run.py --cli`), so the benchmark's own copy of the server set-up
  cannot drift from the CLI's;
- runs with different seeds send the same number of requests of each
  kind and cause the same number of UPDATEs, full re-cuts and
  checkpoints (and cache fills, unless a run had to confirm an
  unanswerable QUANTILE);
- the traced run reports a nonzero value for every layer the workload
  crosses;
- a full-size run too long for its key space is refused with no result.
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
COUNTS = ("points", "ranges", "quantiles", "update_requests", "updates",
          "full_recuts", "checkpoints")
# Cache traffic is fixed too, except that each unanswerable QUANTILE on
# live-write adds one confirming full-domain RANGE.
CACHE_COUNTS = ("cache_fills", "cache_hits")

EVERY = ["wire.encode_ns_per_frame", "wire.decode_ns_per_frame",
         "wire.words_per_frame", "transport.us_per_frame", "admit.cycle_ns",
         "server.round_us_p50", "server.round_us_p99", "server.words_per_req",
         "rcache.lookups", "rcache.find_ns", "rcache.words_per_find",
         "fusion.plan_us", "eval.point_ns", "eval.range_ns",
         "eval.words_per_req", "minmax_dp.solve_ms",
         "minmax_dp.words_per_solve", "minmax_dp.major_mib_per_solve"]
CROSSED = {
    "read-cold": EVERY + ["eval.quantile_ns"],
    "read-hot": EVERY + ["eval.quantile_ns", "rcache.hit_ratio"],
    "live-write": EVERY + [
        "eval.quantile_ns", "write_p50_ms", "write_p99_ms",
        "rcache.invalidations_per_req", "journal.append_us",
        "journal.fsyncs_per_update", "journal.bytes_per_update",
        "snapshot.checkpoint_ms", "snapshot.checkpoints_per_kupdate",
        "incremental.refresh_us", "incremental.dirty_coeffs_per_update",
        "recut.full_per_kupdate", "recut.full_ms"],
    "read-sharded": EVERY + ["shard.rpcs_per_req", "shard.eval_us",
                             "shard.memo_hit_ratio", "shard.memo_lookups"],
}

failures = []


def check(ok, what):
    if not ok:
        failures.append(what)
        print("FAIL " + what, flush=True)


def invoke(workload, seed, trace, *extra, seconds=20):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        + list(extra),
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=300)


def run(workload, seed, trace):
    r = invoke(workload, seed, trace, "--tiny")
    tag = "%s seed=%d trace=%d" % (workload, seed, trace)
    lines = r.stdout.strip().splitlines()
    check(r.returncode == 0 and len(lines) >= 2,
          "%s: exit %d\n%s" % (tag, r.returncode, r.stderr[-2000:]))
    if r.returncode != 0 or len(lines) < 2:
        return tag, None, None
    return tag, json.loads(lines[-1]), json.loads(lines[-2])["notes"]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expect = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for w in bench["workloads"]:
        name = w["name"]
        runs = {}
        for seed, trace in ((7, 0), (7, 0), (8, 0), (7, 1), (7, 1)):
            tag, res, notes = run(name, seed, trace)
            if res is None:
                continue
            runs.setdefault((seed, trace), []).append((res, notes))
            check(set(res) == {"correct", "attempted", "failed", "metrics"},
                  tag + ": result keys")
            check(res["correct"] is True, tag + ": violations %s" % notes["violations"])
            check(res["failed"] == 0 and res["attempted"] >= 1,
                  tag + ": attempted %s failed %s" % (res["attempted"], res["failed"]))
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == expect[trace], tag + ": metric names/units differ from BENCHMARK.json")
            for k, v in res["metrics"].items():
                check(isinstance(v["value"], (int, float)) and math.isfinite(v["value"]),
                      "%s: %s is not finite" % (tag, k))
            if trace == 1:
                for k in CROSSED[name]:
                    check(res["metrics"].get(k, {}).get("value", 0) > 0,
                          "%s: crossed layer metric %s is 0" % (tag, k))
            print("ok   " + tag, flush=True)
        for key, pair in runs.items():
            if len(pair) == 2:
                (_, a), (_, b) = pair
                for k in ("warmup_crc", "max_point_err"):
                    check(a[k] == b[k], "%s %s: %s differs between same-seed runs (%s, %s)"
                          % (name, key, k, a[k], b[k]))
        if (7, 0) in runs:
            r = invoke(name, 7, 0, "--tiny", "--cli")
            lines = r.stdout.strip().splitlines()
            check(r.returncode == 0 and len(lines) >= 2,
                  "%s --cli: exit %d\n%s" % (name, r.returncode, r.stderr[-2000:]))
            if r.returncode == 0 and len(lines) >= 2:
                a, b = runs[(7, 0)][0][1], json.loads(lines[-2])["notes"]
                for k in ("warmup_crc", "max_point_err"):
                    check(a[k] == b[k], "%s: %s differs under wavesyn server (%s, %s)"
                          % (name, k, a[k], b[k]))
        if (7, 0) in runs and (8, 0) in runs:
            a, b = runs[(7, 0)][0][1], runs[(8, 0)][0][1]
            keys = COUNTS
            if a["live.quantile_unanswerable"] == b["live.quantile_unanswerable"] == 0:
                keys += CACHE_COUNTS
            for k in keys:
                check(a[k] == b[k], "%s: %s differs across seeds (%s, %s)" % (name, k, a[k], b[k]))
    r = invoke("read-sharded", 7, 0, seconds=1000)
    check(r.returncode != 0 and "distinct RANGE keys" in r.stderr
          and not r.stdout.strip(),
          "an over-long run was not refused: exit %d\n%s" % (r.returncode, r.stderr[-500:]))
    if failures:
        print("%d self-check failures" % len(failures))
        sys.exit(1)
    print("self-check passed")


if __name__ == "__main__":
    main()
