"""Layered solve benchmark for the metzstab package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: it imports the package from ``src/``.
One closed-loop caller solves a seeded deck of instances one after another,
timing only the public solver call; generation and the independent check
run untimed around it. ``--seconds`` sizes the deck: the run solves
``round(S / ROUND_SECONDS[workload])`` rounds, which took about S seconds on
the reference machine (2 cores), so a fixed seed always means the same
instances and, with ``--trace 1``, the same counters.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` solves half as
many rounds, each instance once untraced and once traced (alternating which
goes first), and prints the per-layer metrics. Both print a report, list
every failed or wrong instance, write ``perfbench/results/`` and end with
one JSON line: {"correct", "attempted", "failed", "metrics"}. ``attempted``
is always the whole deck: instances left unsolved at the deadline count as
failed, so a cut-short run cannot look like one with fewer defects.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

# Wall seconds of one round (solve, generation and check) on the reference
# machine; they turn --seconds into a fixed number of rounds.
ROUND_SECONDS = {"reducible-small": 0.5, "linf-dense": 3.9, "large-dim": 3.0}
# Import time only gains from noise (other processes, cold caches), so the
# minimum over several fresh interpreters is the steadiest estimate. The
# imports are spread evenly over the run, so a busy spell of the machine
# cannot cover all of them.
SETUP_REPEATS = 7
# Stop starting new instances after this many seconds, so a badly slowed
# program still reports in bounded time.
DEADLINE_S = 140.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.ROUNDS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


class SetupClock:
    """Wall time from spawning a fresh interpreter to ``import metzstab.cli`` done.

    The child reads the system-wide monotonic clock when the import returns:
    waiting for its exit with a timeout would poll every 50 ms and round the
    time up to that step.
    """

    def __init__(self):
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ,
                        PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
        self.cmd = [sys.executable, "-c",
                    "import metzstab.cli; import time; print(time.monotonic())"]
        self.times: list[float] = []
        subprocess.run(self.cmd, env=self.env, cwd=ROOT, check=True, timeout=120,
                       stdout=subprocess.DEVNULL)  # bytecode caches

    def sample(self) -> None:
        t0 = time.monotonic()
        out = subprocess.run(self.cmd, env=self.env, cwd=ROOT, check=True, timeout=120,
                             capture_output=True, text=True).stdout
        self.times.append(float(out) - t0)


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    return target.read_text().strip() if target.is_file() else None


def machine_facts() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "numpy_blas": blas,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "git_commit": _git_commit(),
    }


def _quantile(values: list[float], q: int) -> float:
    """q-th percentile (q in 1..99) as statistics.quantiles gives it."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


class Run:
    """One closed-loop pass over a workload's deck."""

    def __init__(self, ms, workload: str, seed: int, rounds: int):
        self.ops = workloads.build_ops(ms)
        self.workload, self.seed, self.rounds = workload, seed, rounds
        self.size = rounds * len(workloads.ROUNDS[workload])
        self.times: list[float] = []
        self.op_times: dict[str, list[float]] = {}
        self.failures: list[tuple] = []  # raised or returned nothing
        self.wrong: list[tuple] = []     # returned a result the checker rejects
        self.not_run = 0                 # deck instances left at the deadline

    def warm_up(self) -> None:
        """One untimed solve per operation, on instances outside the deck."""
        slots = workloads.ROUNDS[self.workload]
        first = {}
        for slot, (op, _) in enumerate(slots):
            first.setdefault(op, slot)
        for op, slot in first.items():
            _, raw = workloads.instance(self.workload, self.seed, slot, 1,
                                        stream=workloads.WARMUP_STREAM)
            try:
                self.ops[op].solve(self.ops[op].prepare(raw))
            except Exception:  # a warm-up failure shows again in the deck
                pass

    @staticmethod
    def _timed(fn, arg):
        t0 = time.perf_counter()
        try:
            out, err = fn(arg), None
        except Exception as exc:  # any exception is a failed instance
            out, err = None, exc
        return time.perf_counter() - t0, out, err

    def solve_one(self, index: int, tracer=None) -> tuple[float, float]:
        """Generate, solve, check and drop one instance.

        Returns (untraced seconds, traced seconds); with a tracer the
        instance is solved once each way and the traced result is checked.
        """
        op_name, raw = workloads.instance(self.workload, self.seed, index, self.rounds)
        op = self.ops[op_name]
        arg = op.prepare(raw)
        plain = traced = 0.0
        if tracer is None:
            plain, out, err = self._timed(op.solve, arg)
        else:
            def run_traced():
                with tracer.installed(index):
                    return self._timed(op.solve, arg)
            if index % 2:
                traced, out, err = run_traced()
                plain = self._timed(op.solve, arg)[0]
            else:
                plain = self._timed(op.solve, arg)[0]
                traced, out, err = run_traced()
        key = (self.workload, self.seed, index, op_name)
        if err is not None or out is None:
            self.failures.append(key + (type(err).__name__ if err else "NoResult",
                                        str(err)[:200] if err else ""))
        else:
            try:
                reason = op.check(raw, out)
            except Exception as exc:  # a malformed result is a wrong result
                reason = f"checker raised {type(exc).__name__}: {exc}"
            if reason:
                self.wrong.append(key + ("WrongResult", reason))
        seconds = traced if tracer is not None else plain
        self.times.append(seconds)
        self.op_times.setdefault(op_name, []).append(seconds)
        return plain, traced

    def loop(self, deadline: float, tracer=None, pause=None) -> tuple[float, float]:
        """Solve the deck; ``pause(index)``, if given, runs untimed before each instance."""
        plain_total = traced_total = 0.0
        for index in range(self.size):
            if index and time.perf_counter() > deadline:
                self.not_run = self.size - index
                print(f"deadline: stopped after {index} of {self.size} instances",
                      file=sys.stderr)
                break
            if pause is not None:
                pause(index)
            plain, traced = self.solve_one(index, tracer)
            plain_total += plain
            traced_total += traced
        return plain_total, traced_total

    @property
    def solved(self) -> int:
        return len(self.times)


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def main(argv=None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    if not (SRC / "metzstab" / "__init__.py").is_file():
        print(f"perfbench: no package at {SRC / 'metzstab'}; run from the root "
              "of a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import metzstab as ms

    per_round = ROUND_SECONDS[args.workload] * (2 if args.trace else 1)
    rounds = max(1, round(args.seconds / per_round))
    run = Run(ms, args.workload, args.seed, rounds)
    facts = machine_facts()
    metrics: dict[str, tuple[float, str]] = {}

    if args.trace:
        run.warm_up()
        tracer = spans.Tracer()
        plain_s, traced_s = run.loop(started + DEADLINE_S, tracer)
        units = dict(spans.PER_LAYER)
        for name, value in tracer.summary(traced_s, plain_s).items():
            metrics[name] = (value, units[name])
    else:
        clock = SetupClock()
        run.warm_up()
        # SETUP_REPEATS - 1 imports at even steps through the deck, one after it.
        marks = {index * run.size // (SETUP_REPEATS - 1)
                 for index in range(SETUP_REPEATS - 1)}

        def pause(index):
            if index in marks:
                clock.sample()

        plain_s, _ = run.loop(started + DEADLINE_S, pause=pause)
        clock.sample()
        metrics["setup_s"] = (min(clock.times), "s")
        metrics["instances_per_s"] = (run.solved / plain_s, "1/s")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")

    # Reported, not gated: across seeds the median and p90 jump between the
    # clusters of no-stall and stalled solves, and the ratios are often 0.
    n = run.solved
    reported = {
        "solve_s_p50": (statistics.median(run.times), "s"),
        "solve_s_p90": (_quantile(run.times, 90), "s"),
        "fail_ratio": (len(run.failures) / n, "ratio"),
        "wrong_ratio": (len(run.wrong) / n, "ratio"),
    }
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"rounds={rounds} deck={run.size} solved={n} not_run={run.not_run}")
    print("machine " + json.dumps(facts, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"  {name:24s} {_fmt(value):>12s} {unit}")
    print(f"  reported with n={n} solves ({len(run.failures)} failed, {len(run.wrong)} wrong):")
    for name, (value, unit) in reported.items():
        print(f"  {name:24s} {_fmt(value):>12s} {unit}")
    for op, ts in sorted(run.op_times.items()):
        print(f"    {op:20s} n={len(ts):4d} p50={_fmt(statistics.median(ts))} s "
              f"sum={_fmt(sum(ts))} s")
    for label, rows in (("failed", run.failures), ("wrong", run.wrong)):
        for row in rows:
            print(f"  {label} " + json.dumps(list(row[:5])) + f"  {row[5]}")

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": rounds, "deck": run.size,
        "not_run": run.not_run, "machine": facts,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "reported": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
        "failures": [list(r) for r in run.failures], "wrong": [list(r) for r in run.wrong],
        "op_times": run.op_times,
    }
    if not args.trace:
        report["setup_times"] = clock.times
    if args.trace:
        report["not_wrapped"] = sorted(tracer.missing)
        tracer.write(RESULTS / f"{stem}-spans.jsonl")
    (RESULTS / f"{stem}.json").write_text(json.dumps(report, indent=1))

    print(json.dumps({
        "correct": not run.wrong,
        "attempted": run.size,
        "failed": len(run.failures) + len(run.wrong) + run.not_run,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
