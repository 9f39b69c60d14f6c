#!/usr/bin/env python3
"""Serving benchmark entry point (see perfbench/NOTES.md).

    python3 perfbench/run.py --workload read-cold --seed 1 --seconds 10 --trace 0

Run from the root of a wavesyn checkout. It builds the benchmark
executable with dune, pins itself (and so the load generator and the server it
forks) to one CPU, and runs one workload under a watchdog in a private
run directory that is removed on every exit path. The last line of
standard output is the result object; the line before it holds the
run's notes. `--tiny` runs the self-check sizes; `--cli` serves the
timed run from the real `wavesyn server` instead of the benchmark's own
copy of its set-up (the self-check compares the two).
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

WSBENCH = "perfbench/wsbench.exe"
CLI = "bin/wavesyn_cli.exe"
RUN_ROOT = ".perfbench-run"
WORKLOADS = ("read-cold", "read-hot", "live-write", "read-sharded")


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build(targets):
    for need in ("dune-project", os.path.join("lib", "server", "server.ml")):
        if not os.path.exists(need):
            fail("not a wavesyn checkout: %s is missing" % need)
    if shutil.which("dune") is None:
        fail("dune is not on PATH")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", "."] + ["./" + t for t in targets],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, timeout=850)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if r.returncode != 0:
        sys.stderr.write(r.stdout.decode(errors="replace"))
        fail("build failed")


def built(target):
    return os.path.abspath(os.path.join("_build", "default", target))


def pin():
    """Pin to the last CPU this process may use; children inherit it."""
    cpus = sorted(os.sched_getaffinity(0))
    cpu = cpus[-1]
    os.sched_setaffinity(0, {cpu})
    return cpu, os.cpu_count() or len(cpus)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--cli", action="store_true")
    args = ap.parse_args()
    build([WSBENCH, CLI] if args.cli else [WSBENCH])
    cpu, nproc = pin()
    run_dir = os.path.abspath(os.path.join(RUN_ROOT, "r%d" % os.getpid()))
    os.makedirs(run_dir)
    cmd = [built(WSBENCH), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace, "--dir", run_dir,
           "--cpu", str(cpu), "--nproc", str(nproc)]
    if args.tiny:
        cmd.append("--tiny")
    if args.cli:
        cmd += ["--cli", built(CLI)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, start_new_session=True)
    # A terminated run still kills its process group and removes its
    # directory (the finally clause below).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        # wsbench's own watchdog (Spec.deadline_s, 60 s + 5 s a slice, at
        # most max(2, seconds) slices) fires first; this is the backstop.
        out, _ = proc.communicate(timeout=65 + 5 * max(2, args.seconds))
        code = proc.returncode
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        out, code = b"", 124
    finally:
        # The load generator reaps its servers; this catches anything a crash
        # left behind in its process group.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(RUN_ROOT)
        except OSError:
            pass
    if code == 1:
        # The correctness gate failed: the result says "correct": false.
        sys.stdout.write(out.decode())
        fail("correctness violations (see the notes line)", 1)
    if code != 0:
        # A run that cannot finish prints no result.
        fail("run failed with exit code %d" % code, code)
    sys.stdout.write(out.decode())
    sys.stdout.flush()


if __name__ == "__main__":
    main()
