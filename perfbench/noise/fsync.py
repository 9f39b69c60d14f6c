#!/usr/bin/env python3
"""fsync latency spread: 40-byte append + fsync, like one journal record.

    python3 perfbench/noise/fsync.py [runs] [appends]

Run from the checkout root; the scratch file lives in .perfbench-run/
and is removed afterwards. Prints p50/p99 in microseconds per run.
"""
import os
import sys
import time

runs = int(sys.argv[1]) if len(sys.argv) > 1 else 6
appends = int(sys.argv[2]) if len(sys.argv) > 2 else 1000
os.makedirs(".perfbench-run", exist_ok=True)
path = os.path.join(".perfbench-run", "fsync-%d.log" % os.getpid())
record = b"12345 678 0x1.8p+1 deadbeef padding....\n"[:40]
try:
    for r in range(runs):
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC | os.O_APPEND, 0o644)
        lat = []
        for _ in range(appends):
            t = time.perf_counter()
            os.write(fd, record)
            os.fsync(fd)
            lat.append((time.perf_counter() - t) * 1e6)
        os.close(fd)
        lat.sort()
        print("run %d: p50 %.0f us  p99 %.0f us" % (r + 1, lat[len(lat) // 2], lat[int(len(lat) * 0.99) - 1]))
finally:
    try:
        os.remove(path)
        os.rmdir(".perfbench-run")
    except OSError:
        pass
