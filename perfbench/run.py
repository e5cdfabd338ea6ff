"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload {verify-all,long-steps,families} \
        --seed N --seconds S --trace {0,1}

One process, one client, a closed loop: each operation is an in-process
``quadfock.cli.main(argv)`` call, started when the previous one has been
checked.  Rounds are run whole, so every run measures the same mix of
operations.  A run makes ceil(S / round_s) rounds, round_s being the
workload's round time at the commit that added this benchmark: S seconds
of work on that host.  The number of rounds follows neither the host's
momentary load nor the program's speed, either of which would move the
median and the tail from one kind of operation to another.

``setup_s`` is the median of SETUP_PASSES cold set-ups, each in a fresh
process: import, build round 0 with its oracle references, and run one
warm-up operation.  Each pass is scaled by the host speed measured right
after it, as below.

The end-to-end times are wall seconds scaled to one host speed.  After
every operation the run times ``calibrate()``, a fixed piece of pure-Python
work that does not touch quadfock.  A run divides its operation wall times
by host_slowdown = mean calibration time / CALIBRATION_REF_S.  On a shared
host the speed of the same Python code drifts by up to 30% from one minute
to the next, and this drift moves the calibration and the operations alike;
a change to quadfock moves only the operations.  The info line carries the
unscaled wall times and host_slowdown.

With ``--trace 0`` the last line reports the end-to-end metrics.  With
``--trace 1`` the run makes about S/2 seconds worth of rounds and runs each
group of operations twice on the same inputs, untraced and then traced; it
reports the per-layer metrics and the tracing overhead, and writes the spans
to ``.perfbench/spans-<workload>.jsonl.gz``.  The line before the result
carries the tail percentile, failures and the machine fingerprint.
"""

from __future__ import annotations

import os

# Pin numpy's BLAS threads (eigvalsh in gram_min_eig) before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import importlib
import io
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from workloads import ROOT, WORKLOADS, Result, load_quadfock

SETUP_PASSES = 3
SETUP_CALIBRATIONS = 5
# Sets the scale only: calibrate() takes 0.035 to 0.06 s on a 2-vCPU Intel
# Xeon VM with Python 3.11, depending on that shared host's load.
CALIBRATION_REF_S = 0.045


def host_slowdown(calibrations: list[float]) -> float:
    """The mean, not the median: the host's slow spells are short and
    skewed, and operation times pay for them in proportion to their share."""
    return statistics.fmean(calibrations) / CALIBRATION_REF_S


def calibrate() -> float:
    """Seconds taken by fixed interpreter-bound work of the kinds quadfock
    does: Fraction and complex arithmetic, dict updates and a sort."""
    t0 = time.perf_counter()
    acc, z, table = Fraction(0), 0j, {}
    for i in range(1, 2000):
        acc += Fraction(i, i + 7) * Fraction(3, 2 ** (i % 9))
        for j in range(25):
            z = z * 0.5 + complex(i, j) / (j + 1)
            table[(i * j) % 911] = table.get((i * j) % 911, 0) + j
    sorted(table.items(), key=lambda kv: kv[1])
    return time.perf_counter() - t0


def call(main, argv, tracer=None, op_id=None) -> tuple[Result, float]:
    """One operation: main(argv) with stdout and stderr captured, timed."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = tracer.run_op(op_id, main, argv) if tracer else main(argv)
    except Exception as exc:  # an exception escaping main is a failed operation
        return Result(None, error=f"{type(exc).__name__}: {exc}"), time.perf_counter() - t0
    elapsed = time.perf_counter() - t0
    try:
        return Result(code, json.loads(out.getvalue())), elapsed
    except json.JSONDecodeError as exc:
        return Result(code, error=f"stdout is not one JSON document: {exc}"), elapsed


class Loop:
    """Runs rounds of a workload and keeps what the metrics need."""

    def __init__(self, main, workload):
        self.main = main
        self.workload = workload
        self.ok_times: list[float] = []
        self.op_time = 0.0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.calibrations: list[float] = []

    def run_round(self, groups, tracer=None) -> None:
        """Run and check each group; a group with any error fails as a whole,
        since its outputs could not all be verified."""
        for group in groups:
            results, times = [], []
            for argv in group.argvs:
                res, dt = call(self.main, argv, tracer, self.attempted)
                self.calibrations.append(calibrate())
                results.append(res)
                times.append(dt)
                self.attempted += 1
            self.op_time += sum(times)
            error = next((res.error or f"exit code {res.code}, expected {want}"
                          for res, want in zip(results, group.expect)
                          if res.error or res.code != want), None)
            if error is None:
                try:
                    error = group.oracle(results)
                except (KeyError, TypeError, ValueError) as exc:
                    error = f"malformed output: {exc!r}"
            if error:
                self.failed += len(results)
                self.failures.append(f"{group.label}: {error}")
            else:
                self.ok_times += times

    def run(self, seconds: float, first_groups) -> None:
        """ceil(seconds / round_s) whole rounds."""
        for r in range(math.ceil(seconds / self.workload.round_s)):
            self.run_round(first_groups if r == 0 else self.workload.round(r))

    def ops_per_s(self) -> float:
        return len(self.ok_times) / self.op_time


def tail(times: list[float]) -> tuple[float, float, int]:
    """Value at the highest percentile with at least 10 samples beyond it:
    (value, percentile, samples beyond).  Below 11 samples, the maximum."""
    xs = sorted(times)
    i = len(xs) - 11 if len(xs) >= 11 else len(xs) - 1
    return xs[i], 100.0 * (i + 1) / len(xs), len(xs) - 1 - i


def setup(workload_cls, seed):
    """One cold set-up: import quadfock, numpy and the oracle's modules,
    build round 0 with its oracle references and run the warm-up operation.
    Returns (seconds, main, workload, round 0)."""
    t0 = time.perf_counter()
    main = load_quadfock()
    import numpy  # noqa: F401  (imported by quadfock; timed with it)
    for name in workload_cls.extra_imports:
        importlib.import_module(name)
    workload = workload_cls(seed)
    first = workload.round(0)
    call(main, workload.warmup())
    return time.perf_counter() - t0, main, workload, first


def setup_slowdown() -> float:
    return host_slowdown([calibrate() for _ in range(SETUP_CALIBRATIONS)])


def cold_setup(workload: str, seed: int) -> list[float]:
    """[seconds, host slowdown] of setup() in a fresh process, so that costs
    paid once per process (imports, tables built on first use) count in
    every pass."""
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                           "--workload", workload, "--seed", str(seed), "--seconds", "0",
                           "--setup-only"],
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def fingerprint() -> dict:
    import numpy
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu_model": cpu, "commit": git_commit()}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(loop: Loop, setup_passes: list) -> tuple[dict, dict]:
    """setup_passes: [seconds, host slowdown] of each set-up pass."""
    if not loop.ok_times:
        return {}, {}
    tail_s, pct, beyond = tail(loop.ok_times)
    wall = {"op_s_p50": statistics.median(loop.ok_times), "op_s_tail": tail_s,
            "ops_per_s": loop.ops_per_s(),
            "setup_s": statistics.median(s for s, _ in setup_passes)}
    slowdown = host_slowdown(loop.calibrations)
    metrics = {
        "op_s_p50": metric(wall["op_s_p50"] / slowdown, "s"),
        "op_s_tail": metric(wall["op_s_tail"] / slowdown, "s"),
        "ops_per_s": metric(wall["ops_per_s"] * slowdown, "1/s"),
        "ok_ratio": metric(len(loop.ok_times) / loop.attempted, "ratio"),
        "setup_s": metric(statistics.median(s / k for s, k in setup_passes), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    info = {"op_s_tail_percentile": pct, "op_s_tail_samples_beyond": beyond,
            "samples": len(loop.ok_times), "failed_ratio": loop.failed / loop.attempted,
            "host_slowdown": slowdown, "wall": wall}
    return metrics, info


def layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return "ratio" if name.endswith("ratio") else "count"


def traced(loop: Loop, seconds: float, first) -> tuple[dict, dict]:
    """About seconds / 2 worth of rounds (at least one).  Each group of
    operations runs twice on the same inputs, untraced and then traced, so
    that both see the same host load; the overhead ratio is the untraced time
    over the traced time, i.e. traced over untraced throughput."""
    from tracing import Tracer

    traced_loop = Loop(loop.main, loop.workload)
    tracer = Tracer()
    for r in range(max(1, round(seconds / 2 / loop.workload.round_s))):
        for group in first if r == 0 else loop.workload.round(r):
            loop.run_round([group])
            with tracer:
                traced_loop.run_round([group], tracer)
    roots = sum(end - start for _, start, end, parent, _ in tracer.spans if parent < 0)
    layers = tracer.layer_metrics()
    layers["trace.overhead_ratio"] = loop.op_time / traced_loop.op_time
    layers["trace.loop_self_s"] = traced_loop.op_time - roots
    loop.attempted += traced_loop.attempted
    loop.failed += traced_loop.failed
    loop.failures += traced_loop.failures
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{loop.workload.name}.jsonl.gz"
    tracer.dump(spans_path)
    metrics = {k: metric(v, layer_unit(k)) for k, v in layers.items()}
    return metrics, {"spans": len(tracer.spans),
                     "spans_file": str(spans_path.relative_to(ROOT))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one cold set-up and print its seconds")
    args = parser.parse_args(argv)

    setup_s, main_fn, workload, first = setup(WORKLOADS[args.workload], args.seed)
    if args.setup_only:
        print(json.dumps([setup_s, setup_slowdown()]))
        return 0
    own_slowdown = setup_slowdown()
    loop = Loop(main_fn, workload)
    if args.trace:
        metrics, info = traced(loop, args.seconds, first)
    else:
        loop.run(args.seconds, first)
        passes = [[setup_s, own_slowdown]] + [cold_setup(workload.name, args.seed)
                                              for _ in range(SETUP_PASSES - 1)]
        metrics, info = end_to_end(loop, passes)
    info.update(workload=workload.name, seed=args.seed, trace=args.trace,
                attempted=loop.attempted, failures=loop.failures[:5],
                fingerprint=fingerprint())
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": not loop.failures and bool(metrics),
                      "attempted": loop.attempted, "failed": loop.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
