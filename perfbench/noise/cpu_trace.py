#!/usr/bin/env python3
"""CPU speed over time: one fixed loop, timed every ~0.1 s, on one CPU.

    python3 perfbench/noise/cpu_trace.py [cpu] [samples]

On a quiet machine every sample reads the same; on a shared host the
samples show how far and how long the speed of one core wanders, which
bounds how steady any wall-clock metric of a 20 s run can be.
"""
import os
import statistics
import sys
import time

cpu = int(sys.argv[1]) if len(sys.argv) > 1 else sorted(os.sched_getaffinity(0))[-1]
samples = int(sys.argv[2]) if len(sys.argv) > 2 else 80
os.sched_setaffinity(0, {cpu})
ms = []
for _ in range(samples):
    t = time.perf_counter()
    x = 0
    for i in range(400_000):
        x += i * i
    ms.append((time.perf_counter() - t) * 1e3)
print(" ".join("%.0f" % m for m in ms))
print("cpu %d: min %.0f ms  median %.0f ms  max %.0f ms" % (cpu, min(ms), statistics.median(ms), max(ms)))
