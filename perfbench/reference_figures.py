"""Reference figures for perfbench/README.md, measured from outside.

    python3 perfbench/reference_figures.py [--repeats 11]

Prints, for single commands timed in-process with ``time.perf_counter``:

* the per-command rows of the ROADMAP baseline table (median of repeats);
* ``sweep disappearing_full --random 100`` with the program's thread pool
  against the same command with the pool replaced by a serial loop.  The
  replacement rebinds ``router_sim.cli.ThreadPoolExecutor`` to an executor
  whose ``map`` is the builtin ``map``; nothing under ``src/`` changes, and
  the two outputs are checked to be byte-identical.

Pool and serial repeats alternate, so drift in machine speed hits both.
Each figure is given as measured and at the reference host speed of
``run.py``: five calibration kernels are timed before every command, and
the median is scaled by the interquartile mean of its row's kernel times.  Spreads are
the interquartile range over the median, as measured.
"""

from __future__ import annotations

import argparse
import io
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(1, ROOT)

from perfbench.run import (  # noqa: E402
    REFERENCE_KERNEL_S,
    interquartile_mean,
    kernel_time,
)
from router_sim import cli  # noqa: E402

CIRCUITS = os.path.join(ROOT, "src", "router_sim", "circuits")

BASELINE_ROWS = [
    ("run disappearing_full", ["run", "disappearing_full"]),
    ("run bell_test", ["run", "bell_test"]),
    ("run stricter_6beam", ["run", "stricter_6beam"]),
    ("simulate fig4.circuit", ["simulate", os.path.join(CIRCUITS, "fig4.circuit")]),
    ("sweep disappearing_full --random 200",
     ["sweep", "disappearing_full", "--random", "200", "--seed", "7"]),
]
POOL_ARGV = ["sweep", "disappearing_full", "--random", "100", "--seed", "7"]


class SerialExecutor:
    """Stand-in for ThreadPoolExecutor that maps in the calling thread."""

    def __init__(self, max_workers=None):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


def timed(argv):
    """(seconds as measured, calibration kernel times, stdout)."""
    kernels = [kernel_time() for _ in range(5)]
    stream = io.StringIO()
    start = time.perf_counter()
    code = cli.main(list(argv), stream)
    elapsed = time.perf_counter() - start
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited {code}")
    return elapsed, kernels, stream.getvalue()


def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def describe(times, unit=1e3, suffix="ms"):
    raw = [t[0] for t in times]
    scale = REFERENCE_KERNEL_S / interquartile_mean([k for t in times for k in t[1]])
    median = statistics.median(raw)
    return (f"median {median * unit:8.2f} {suffix} (spread {spread(raw):4.0%}), "
            f"at reference speed {median * scale * unit:8.2f} {suffix}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=11)
    args = parser.parse_args(argv)

    for label, command in BASELINE_ROWS:
        timed(command)  # warm-up
        times = [timed(command)[:2] for _ in range(args.repeats)]
        print(f"{label:38s} {describe(times)}")

    pooled, serial = [], []
    original = cli.ThreadPoolExecutor
    timed(POOL_ARGV)
    for _ in range(args.repeats):
        *t_pool, out_pool = timed(POOL_ARGV)
        cli.ThreadPoolExecutor = SerialExecutor
        try:
            *t_serial, out_serial = timed(POOL_ARGV)
        finally:
            cli.ThreadPoolExecutor = original
        if out_pool != out_serial:
            raise SystemExit("serial sweep output differs from the pooled one")
        pooled.append(t_pool)
        serial.append(t_serial)
    for label, times in (("pool", pooled), ("serial", serial)):
        print(f"sweep --random 100 [{label:6s}]{'':12s} "
              f"{describe(times, 1.0, 's')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
