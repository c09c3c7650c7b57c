"""router-sim benchmark: one workload per run, closed loop, one caller.

    python3 perfbench/run.py --workload one-shot --seed 1 --seconds 30 --trace 0

The program under test is the ``router_sim`` package in ``src/`` of the
checkout this file sits in.  Its inputs are generated from ``--seed`` into
a temporary directory before timing starts; the program receives only argv
and those files.  Each command is a call of ``router_sim.cli.main(argv,
stream)`` in this process, timed from outside with ``time.perf_counter``
and scaled to a reference host speed by calibration kernels timed between
commands.  Runs are whole passes over the workload's command list.  Every output is
checked (see ``workloads.py``), and repeats of a command must print the
same bytes.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` prints the
per-layer metrics instead, from passes made with ``trace.Tracer``
installed, plus the tracing overhead against untraced passes of the same
run.  ``--workload all`` runs every workload, each in its own interpreter.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("one-shot", "alpha-sweep", "large-circuits")
WORK = os.path.join(ROOT, ".bench_work")

# A run times at least this many commands, so that latency_p90_ms rests
# on at least ten samples beyond it.
MIN_COMMANDS = 100
# Fresh interpreters started per run to time set-up; the median is reported.
SETUP_SAMPLES = 9
# Time of ``calibration_kernel`` at the reference host speed.  Command
# times are scaled by REFERENCE_KERNEL_S / (interquartile mean of the kernel
# times of their pass); see "Host speed" in README.md.
REFERENCE_KERNEL_S = 1.0e-3

END_TO_END_UNITS = {
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "evaluations_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


def calibration_kernel(n=1500):
    """Fixed pure-Python work (tuple keys, dict updates, complex numbers),
    independent of router_sim, that gauges the host's current speed."""
    amps = {}
    for i in range(n):
        key = (i % 7, i % 11, i % 13)
        amps[key] = amps.get(key, 0j) + complex(i, 1) * 0.5
    total = 0.0
    for key, value in amps.items():
        total += abs(value) * len(key)
    return total


def interquartile_mean(values):
    """Mean of the middle half: follows the share of slow and fast kernel
    times continuously, unlike the median, yet ignores preempted outliers."""
    values = sorted(values)
    cut = len(values) // 4
    return statistics.fmean(values[cut:len(values) - cut])


def kernel_time():
    start = time.perf_counter()
    calibration_kernel()
    return time.perf_counter() - start


class Runner:
    """Calls the CLI, times it, and tallies failed commands per argv."""

    def __init__(self, cli, workload):
        self.cli = cli
        self.workload = workload
        self.first = {}  # op key -> stdout of its first run
        self.runs = {}  # op key -> executions
        self.bad = {}  # op key -> executions that failed on their own
        self.nondeterministic = False
        self.messages = []

    def run(self, op):
        stream = io.StringIO()
        start = time.perf_counter()
        try:
            code = self.cli.main(list(op.argv), stream)
        except Exception as exc:  # a traceback is a failed command
            code = f"exception {exc!r}"
        elapsed = time.perf_counter() - start
        out = stream.getvalue()
        key = op.key
        self.runs[key] = self.runs.get(key, 0) + 1
        first = self.first.setdefault(key, out)
        problem = None
        if code != 0:
            problem = f"exit {code}"
        elif out != first:
            problem = "stdout differs from the first run of this command"
            self.nondeterministic = True
        if problem is not None:
            self.bad[key] = self.bad.get(key, 0) + 1
            self.messages.append(f"{key}: {problem}")
        return elapsed

    def run_pass(self):
        """One pass over the workload, a calibration kernel before each
        command.  Returns (raw latencies, speed scale of the pass)."""
        latencies, kernels = [], []
        for op in self.workload.ops:
            kernels.append(kernel_time())
            latencies.append(self.run(op))
        return latencies, REFERENCE_KERNEL_S / interquartile_mean(kernels)

    def verdict(self):
        """(correct, attempted, failed) after checking every first output.

        A command whose output fails a check fails on every execution; one
        that exited nonzero or printed different bytes fails on that run.
        """
        errors = self.workload.check(self.first)
        for key, msgs in errors.items():
            self.messages += [f"{key}: {m}" for m in msgs]
        failed = sum(n if key in errors else self.bad.get(key, 0)
                     for key, n in self.runs.items())
        correct = not errors and not self.nondeterministic
        return correct, sum(self.runs.values()), failed


def measure_setup():
    """Wall time of a fresh interpreter importing the CLI and building its
    parser, as every ``router-sim`` invocation does.  Reported as measured:
    a calibration kernel of a few milliseconds cannot gauge the speed of a
    quarter-second child that may run on the other CPU."""
    code = (f"import sys; sys.path.insert(0, {SRC!r}); "
            "from router_sim import cli; cli.build_parser()")
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                   stdin=subprocess.DEVNULL)
    return time.perf_counter() - start


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_run(runner, seconds):
    """Passes until ``seconds`` have gone and MIN_COMMANDS were timed.

    The 90th percentile is taken within each pass and reported as the
    median over passes, so that the few passes a host slowdown hits do not
    set it.  Set-up samples are spread over the run, between passes, so
    that their median sees the same machine as the commands do.  Returns
    the metrics at reference host speed and, for the record, as measured.
    """
    runner.run_pass()  # warm-up, untimed: lazy imports and first-call costs
    evals_per_pass = sum(op.evaluations for op in runner.workload.ops)
    setup, raw, scaled, scales = [], [], [], []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(setup) < SETUP_SAMPLES * min(1.0, elapsed / seconds):
            setup.append(measure_setup())
        if elapsed >= seconds and sum(map(len, raw)) >= MIN_COMMANDS:
            break
        lat, scale = runner.run_pass()
        raw.append(lat)
        scaled.append([t * scale for t in lat])
        scales.append(scale)
    while len(setup) < SETUP_SAMPLES:
        setup.append(measure_setup())

    def summary(passes, setup_times):
        latencies = [t for p in passes for t in p]
        return {
            "latency_p50_ms": statistics.median(latencies) * 1e3,
            "latency_p90_ms": statistics.median(
                statistics.quantiles(p, n=10, method="inclusive")[8]
                for p in passes) * 1e3,
            "evaluations_per_s": evals_per_pass * len(passes) / sum(latencies),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mib": peak_rss_mib(),
        }

    info = {"passes": len(raw), "commands": sum(map(len, raw)),
            "host speed scale": round(statistics.median(scales), 4)}
    return summary(scaled, setup), summary(raw, setup), info


def traced_run(runner, seconds):
    """Alternate untraced and traced passes, so that drift in machine speed
    affects both sides of the overhead ratio alike."""
    from perfbench import trace

    runner.run_pass()  # warm-up, untimed
    tracer = trace.Tracer()
    untraced, traced, per_pass = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        lat, scale = runner.run_pass()
        untraced.append(sum(lat) * scale)
        tracer.install()
        try:
            tracer.reset()
            lat, scale = runner.run_pass()
        finally:
            tracer.uninstall()
        traced.append(sum(lat) * scale)
        layer = trace.layer_metrics(*tracer.totals())
        per_pass.append({name: value * scale if per_layer_unit(name) == "ms"
                         else value for name, value in layer.items()})
    metrics = {name: statistics.median(p[name] for p in per_pass)
               for name in per_pass[0]}
    for name, value in metrics.items():
        if per_layer_unit(name) == "count" and value == int(value):
            metrics[name] = int(value)
    metrics["trace.overhead"] = statistics.median(traced) / statistics.median(untraced)
    return metrics, {"untraced passes": len(untraced), "traced passes": len(traced)}


def per_layer_unit(name):
    if name == "trace.overhead":
        return "ratio"
    if name.endswith("_ms") or name.endswith(".ms"):
        return "ms"
    if name.endswith("configs_per_call"):
        return "configs/call"
    return "count"


def run_workload(args):
    if not os.path.isfile(os.path.join(SRC, "router_sim", "cli.py")):
        print(f"error: no router_sim package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(1, ROOT)
    from router_sim import cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"error: router_sim imported from {cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from perfbench import workloads

    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        workload = workloads.build(args.workload, args.seed, ROOT, workdir)
        runner = Runner(cli, workload)
        raw = {}
        if args.trace:
            metrics, info = traced_run(runner, args.seconds)
            units = {name: per_layer_unit(name) for name in metrics}
        else:
            metrics, raw, info = timed_run(runner, args.seconds)
            units = END_TO_END_UNITS
        correct, attempted, failed = runner.verdict()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass

    for msg in runner.messages[:20]:
        print(f"FAILED {msg}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          + ", ".join(f"{k} {v}" for k, v in {**workload.description, **info}.items()))
    print(f"attempted {attempted} failed {failed} correct {correct}")
    for name, value in metrics.items():
        as_measured = f" (as measured {raw[name]:.6g})" if name in raw else ""
        print(f"{name} {value:.6g} {units[name]}{as_measured}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def run_all(args):
    """Every workload in its own interpreter; the last line merges them."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, stdin=subprocess.DEVNULL)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(merged))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="router-sim benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
