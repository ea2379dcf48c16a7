"""
Benchmark for grothpoly: one workload per claim of the paper.

    python3 bench/run.py --workload cauchy --seed 1 --seconds 20 --trace 0

Run from anywhere; it imports grothpoly from the ``src`` directory next
to this one.  A run sets up (import, seeded inputs, warm-up), then runs
whole rounds of its ops until ``--seconds`` have passed, each round in a
process forked from the set-up one, checking every result outside the
timed interval; in each round the first result that passes is also
corrupted and must then fail the checks.  Times are rescaled to a
reference machine speed (see Speedometer).  The last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of
``tracer.PER_LAYER`` and ``trace.perms_per_s`` with ``--trace 1``.  The
same object, with unscaled figures or the per-function table of a
traced run, is written under ``.bench_runs/``.  See README.md here.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
from pathlib import Path
import pickle
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
# set-up is timed in this process and in this many fresh ones
SETUP_CHILDREN = 4
CHILD_TIMEOUT_S = 60
WORKLOAD_NAMES = ("cauchy", "tableaux", "qschur")
CALIBRATION_STEPS = 20_000
# Times are rescaled to a machine on which calibrate() takes this long.
CALIBRATION_S = 0.005
# while an op runs, the loop also runs this often
TICK_S = 0.5


def calibrate() -> float:
    """Time a fixed loop of the dict and tuple work grothpoly does.  The
    garbage collector is held off, so that a collection of an op's heap
    does not land in the loop."""
    counts: dict = {}
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for i in range(CALIBRATION_STEPS):
            key = (i % 500, i % 7)
            counts[key] = counts.get(key, 0) + 1
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


class Speedometer:
    """
    How fast the machine ran during a timed interval.

    On a machine whose cores are shared, the same work takes up to twice
    as long at some moments as at others, for seconds at a time.  Inside
    ``with speedometer:`` the calibration loop runs right at the start,
    right at the end and, from a SIGALRM handler, every TICK_S in
    between; ``rescale`` states a time measured there at the reference
    speed CALIBRATION_S, by the median loop time.  ``spent`` is the time
    the handler took, which the Clock leaves out of the op's time.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(calibrate())
        self.spent += time.perf_counter() - start

    def __enter__(self) -> "Speedometer":
        self.spent = 0.0
        self.samples = [calibrate()]
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.samples.append(calibrate())

    def rescale(self, seconds: float) -> float:
        return seconds * CALIBRATION_S / statistics.median(self.samples)


class Clock:
    """Times the calls into grothpoly that make up one op."""

    def __init__(self, speed: Speedometer | None = None, tracer=None) -> None:
        self.total = 0.0
        self.speed = speed
        self.tracer = tracer

    def call(self, fn, *args):
        tracer = self.tracer
        if tracer is not None:
            tracer.active = True
        spent = self.speed.spent if self.speed else 0.0
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.total += time.perf_counter() - start
            if self.speed:
                self.total -= self.speed.spent - spent
            if tracer is not None:
                tracer.active = False


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument(
        "--setup-only", action="store_true",
        help="set up, print the set-up time as JSON and exit",
    )
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def set_up(name: str, seed: int):
    """Import grothpoly, make the seeded inputs and warm up on inputs the
    timed rounds do not use.  Returns the workload, its ops and the time
    all this took."""
    with Speedometer() as speed:
        start = time.perf_counter()
        sys.path.insert(0, str(SRC))
        from workloads import WORKLOADS

        workload = WORKLOADS[name](seed)
        ops = workload.inputs(0)
        workload.warm_up(Clock())
        took = time.perf_counter() - start - speed.spent
    return workload, ops, speed.rescale(took)


def child_set_up(name: str, seed: int) -> float:
    env = {k: v for k, v in os.environ.items() if k != "GROTH_THREADS"}
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", name, "--seed", str(seed), "--seconds", "1",
        "--trace", "0", "--setup-only",
    ]
    done = subprocess.run(
        cmd, env=env, capture_output=True, text=True, check=True,
        timeout=CHILD_TIMEOUT_S,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def self_test(workload, w, result) -> bool:
    """The checks must reject a corrupted copy of a passing result."""
    problems = workload.check(w, workload.corrupt(result))
    print(
        f"self-test on {w}: corrupted result "
        + (f"rejected ({problems[0]})" if problems else "NOT rejected"),
        file=sys.stderr,
    )
    return bool(problems)


def run_round(workload, ops, clock: Clock) -> dict:
    """Run and check one round of ops."""
    times: list[float] = []
    unscaled: list[float] = []
    failed = 0
    self_test_ok = None
    for w in ops:
        clock.total = 0.0
        try:
            with clock.speed:
                result = workload.op(w, clock)
        except Exception as exc:
            failed += 1
            print(f"op {w} raised {exc!r}", file=sys.stderr)
            continue
        times.append(clock.speed.rescale(clock.total))
        unscaled.append(clock.total)
        try:
            problems = workload.check(w, result)
        except Exception as exc:
            problems = [f"check raised {exc!r}"]
        if problems:
            failed += 1
            print(f"op {w} failed: {'; '.join(problems)}", file=sys.stderr)
        elif self_test_ok is None:
            self_test_ok = self_test(workload, w, result)
        # the next op must not find this result still in memory
        del result
    done = {
        "times": times,
        "unscaled_times": unscaled,
        "attempted": len(ops),
        "failed": failed,
        "self_test_ok": self_test_ok,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if clock.tracer is not None:
        done["layers"] = clock.tracer.metrics()
        done["by_label"] = clock.tracer.by_label()
    return done


def in_child(fn):
    """Call fn in a process forked from this one and return its result."""
    sys.stdout.flush()
    sys.stderr.flush()
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read)
        code = 0
        try:
            with os.fdopen(write, "wb") as out:
                pickle.dump(fn(), out)
        except BaseException:
            traceback.print_exc()
            code = 1
        finally:
            sys.stderr.flush()
            os._exit(code)
    os.close(write)
    with os.fdopen(read, "rb") as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError(f"round process ended with status {status}")
    return pickle.loads(data)


def measure(workload, ops, seconds: int, clock: Clock) -> list[dict]:
    """Run whole rounds until the seconds are up; ops is the first
    round, drawn during set-up.  Every round runs the same bases, so each
    runs in a process of its own, forked from the set-up process: nothing
    that one round leaves in memory, a cached final result included,
    can serve a later one."""
    rounds: list[dict] = []
    start = time.perf_counter()
    while True:
        if rounds:
            ops = workload.inputs(len(rounds))
        rounds.append(in_child(lambda: run_round(workload, ops, clock)))
        if time.perf_counter() - start >= seconds:
            break
    return rounds


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.pop("GROTH_THREADS", None)
    if not (SRC / "grothpoly" / "__init__.py").is_file():
        print(f"error: no grothpoly sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    workload, ops, setup_s = set_up(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    rounds = measure(workload, ops, args.seconds, Clock(Speedometer(), tracer))
    failed = sum(r["failed"] for r in rounds)
    correct = failed == 0 and all(r["self_test_ok"] for r in rounds)
    times = [t for r in rounds for t in r["times"]]
    perms_per_s = len(times) / sum(times) if times else 0.0
    unscaled = [t for r in rounds for t in r["unscaled_times"]]
    record = {
        "unscaled_perms_per_s": len(unscaled) / sum(unscaled) if unscaled else 0.0,
        "unscaled_perm_p50_ms": statistics.median(unscaled) * 1000 if unscaled else 0.0,
    }
    if tracer is None:
        peak_rss_kib = max(
            [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss]
            + [r["peak_rss_kib"] for r in rounds]
        )
        setups = [setup_s] + [
            child_set_up(args.workload, args.seed) for _ in range(SETUP_CHILDREN)
        ]
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "perms_per_s": (perms_per_s, "perm/s"),
            "perm_p50_ms": (statistics.median(times) * 1000 if times else 0.0, "ms"),
            "peak_rss_mib": (peak_rss_kib / 1024, "MiB"),
        }
        record["setups_s"] = setups
    else:
        from tracer import PER_LAYER, by_label_total, per_round

        values = per_round([r["layers"] for r in rounds])
        metrics = {name: (values[name], unit) for name, unit in PER_LAYER.items()}
        metrics["trace.perms_per_s"] = (perms_per_s, "perm/s")
        record["self_s_and_calls"] = by_label_total([r["by_label"] for r in rounds])
    result = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    RUNS.mkdir(exist_ok=True)
    out = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record["rounds"] = len(rounds)
    out.write_text(json.dumps({**result, **record}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
