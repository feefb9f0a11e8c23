"""circdeg benchmark: seeded closed-loop workloads, measured end to end.

    python3 perfbench/run.py --workload deg-oracle --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports ``circdeg`` from its
``src`` directory.  One client in this process sends the workload's ops
(``circdeg`` commands through ``cli.main``) one after another; each op's
output is checked after the timed interval.  The op list is run in whole
passes until ``--seconds`` have been measured, with the library's lru
caches cleared before each pass so that every pass does the same work.
Latencies are scaled to a reference host speed (see CALIBRATION_EVERY_S).

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see tracing.py).  Every run appends one record to
``.perfbench/results.jsonl`` (see compare.py).  The last line of stdout is
one JSON object: correct, attempted, failed, metrics.  The exit status is 0
when every op was correct.  See README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import workloads
from tracing import WORK_SIZES, Tracer, circdeg_modules, lru_caches
from workloads import WORKLOADS, Op

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
DIGESTS = HERE / "digests.json"
MIN_OPS = 100  # so that at least ten latencies lie beyond the 90th percentile
SETUP_PROBES = 7


def load_circdeg():
    """Import circdeg from this checkout's src, refusing any other copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import circdeg.cli
    except ImportError as exc:
        raise SystemExit(f"error: cannot import circdeg from {src}: {exc}")
    if not Path(circdeg.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"error: imported circdeg from {circdeg.__file__}, not {src}")
    return circdeg.cli


def setup_probe(workload: str, seed: int) -> None:
    """Child side of a set-up measurement: import, build inputs, report."""
    load_circdeg()
    workloads.make_ops(workload, seed)
    print(repr(time.perf_counter()), flush=True)


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from starting a fresh interpreter to its first op being ready.

    perf_counter is the system-wide monotonic clock on Linux, so the child's
    reading and the parent's start time compare directly.  These times are
    not scaled: the calibration loops time a busy process, and a few
    milliseconds of them cannot tell a fresh one's speed.
    """
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        child = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, cwd=ROOT, check=True,
        )
        times.append(float(child.stdout.split()[-1]) - t0)
    return times


class Fault:
    """Replaces one name in circdeg.cli for a single op (the self-test)."""

    def __init__(self, kind: str, binding: str, corrupt):
        self.kind, self.binding, self.corrupt = kind, binding, corrupt

    @contextlib.contextmanager
    def applied(self, cli):
        original = getattr(cli, self.binding)
        setattr(cli, self.binding, self.corrupt(original))
        try:
            yield
        finally:
            setattr(cli, self.binding, original)


def _drop_first_witness(prime_census):
    def corrupted(*args, **kwargs):
        record = prime_census(*args, **kwargs)
        return type(record)(**{**vars(record), "witnesses": record.witnesses[1:]})
    return corrupted


def _off_by_one(fn):
    return lambda *args, **kwargs: fn(*args, **kwargs) + 1


FAULTS = {
    # Caught by the op's own check: the CLI reports a disagreement (exit 3).
    "degree": ("deg-oracle", Fault("deg", "algebraic_degree", _off_by_one)),
    # Caught by the harness: fewer witnesses than the Mobius count.
    "witness": ("census", Fault("census", "prime_census", _drop_first_witness)),
    # Caught by the op's own check: brute force disagrees with the formula.
    "brute": ("reproduce", Fault("integral", "count_connected_integral_bruteforce", _off_by_one)),
    # Passes every per-op check; only the result digest catches it.
    "fix-order": ("deg-oracle", Fault(
        "deg", "fixing_subgroup", lambda fn: lambda symbol: fn(symbol).elements[1:])),
}


# The host's speed drifts by up to 1.8x over tens of seconds (other guests
# share its cores), far more than the bounds in BENCHMARK.json.  Between ops,
# every CALIBRATION_EVERY_S, a fixed pure-Python loop and a fixed numpy
# gather-and-add loop are timed; each latency is divided by the slowdown
# they show within CALIBRATION_WINDOW_S of the op, against their times in
# this host's fast state (a 2-vCPU Intel Xeon guest).  Interpreter-bound
# code slows more than numpy-bound code, so the slowdown mixes the two loops
# by the op's numpy share of time.  Only deg-oracle uses numpy much, and
# there the share grows with the op: short ops are interpreter-bound, long
# ones spend most of their time in eigenvalue_matrix.  So the share rises
# from 0 at NUMPY_SHARE_RAMP_S[0] to NUMPY_SHARE at NUMPY_SHARE_RAMP_S[1],
# on a log scale.  Raw times go to the results file as well.
CALIBRATION_EVERY_S = 0.1
CALIBRATION_WINDOW_S = 0.5
CALIBRATION_REFERENCE_S = (0.23e-3, 0.55e-3)  # (Python loop, numpy loop)
NUMPY_SHARE = {"deg-oracle": 0.8, "census": 0.0, "reproduce": 0.0}
NUMPY_SHARE_RAMP_S = (2e-3, 100e-3)

_MATRIX = np.arange(500 * 200, dtype=np.int64).reshape(500, 200)
_ROWS = np.arange(500, dtype=np.int64)
# Preallocated, so that the loop's time does not depend on whether the
# allocator has to fault in fresh pages.
_GATHERED = np.empty_like(_MATRIX)
_SUM = np.empty_like(_MATRIX)


def python_kernel() -> int:
    units = frozenset(range(1, 120))
    return sum({k * x % 1009 for x in units} == units for k in range(2, 30))


def numpy_kernel() -> np.ndarray:
    _SUM.fill(0)
    for s in (3, 7, 11):
        np.take(_MATRIX, (_ROWS * s) % 500, axis=0, out=_GATHERED)
        np.add(_SUM, _GATHERED, out=_SUM)
    return _SUM


def calibration_sample() -> tuple[float, float, float]:
    """(midpoint, Python loop seconds, numpy loop seconds)."""
    t0 = time.perf_counter()
    python_kernel()
    t1 = time.perf_counter()
    numpy_kernel()
    t2 = time.perf_counter()
    return (t0 + t2) / 2, t1 - t0, t2 - t1


def slowdown(samples: list[tuple[float, float, float]], start: float, end: float,
             numpy_share: float) -> float:
    """Host slowdown near [start, end] against the fast-state reference.

    samples are in time order.
    """
    lo = bisect.bisect_left(samples, (start - CALIBRATION_WINDOW_S,))
    hi = bisect.bisect_right(samples, (end + CALIBRATION_WINDOW_S,))
    near = samples[lo:hi]
    python = statistics.median(s[1] for s in near) / CALIBRATION_REFERENCE_S[0]
    numpy_ = statistics.median(s[2] for s in near) / CALIBRATION_REFERENCE_S[1]
    return (1 - numpy_share) * python + numpy_share * numpy_


class Runner:
    """Runs whole passes of one workload's op list and checks every op."""

    def __init__(self, cli, workload: str, seed: int, ops: list[Op], fault: Fault | None):
        self.cli = cli
        self.read_cache = cli.read_cache  # bound before any tracing wraps it
        self.workload, self.seed, self.ops = workload, seed, ops
        self.caches = lru_caches(circdeg_modules())
        self.fault = fault
        self.fault_op = next((i for i, op in enumerate(ops) if fault and op.kind == fault.kind), None)
        OUT_DIR.mkdir(exist_ok=True)
        self.cache_path = OUT_DIR / f"envelopes-{os.getpid()}.jsonl"
        self.expected_digest = json.loads(DIGESTS.read_text()).get(workload, {}).get(str(seed))
        self.first_digest = None
        self.passes = 0
        self.untraced_passes = 0
        self.latencies: list[float] = []
        self.op_times: list[tuple[float, float]] = []
        self.calibration: list[tuple[float, float, float]] = []
        self.wall = 0.0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.cache_stats = {name: [0, 0, 0] for name in self.caches}  # hits, misses, size
        self.envelope_bytes = 0
        self.envelopes = 0

    def run_pass(self, tracer=None) -> float:
        """One pass over the op list; returns its wall time."""
        for fn in self.caches.values():
            fn.cache_clear()
        self.cache_path.unlink(missing_ok=True)
        gc.collect()
        argv_prefix = ["--cache", str(self.cache_path)]
        outputs = []
        if tracer:
            tracer.install()
        try:
            pass_start = last_calibration = time.perf_counter()
            self.calibrate()
            for i, op in enumerate(self.ops):
                if time.perf_counter() - last_calibration >= CALIBRATION_EVERY_S:
                    self.calibrate()
                    last_calibration = time.perf_counter()
                fault = self.fault if self.passes == 0 and i == self.fault_op else None
                if tracer:
                    tracer.current_op = self.passes * len(self.ops) + i
                stdout = io.StringIO()
                with contextlib.ExitStack() as stack:
                    if fault:
                        stack.enter_context(fault.applied(self.cli))
                    stack.enter_context(contextlib.redirect_stdout(stdout))
                    stack.enter_context(contextlib.redirect_stderr(io.StringIO()))
                    t0 = time.perf_counter()
                    try:
                        status = self.cli.main([*argv_prefix, *op.argv])
                    except (Exception, SystemExit):  # a crashing op is a failed op
                        status = traceback.format_exc(limit=-1).strip().splitlines()[-1]
                    t1 = time.perf_counter()
                self.latencies.append(t1 - t0)
                self.op_times.append((t0, t1))
                outputs.append((status, stdout.getvalue()))
            wall = time.perf_counter() - pass_start
            self.calibrate()
        finally:
            if tracer:
                tracer.uninstall()
        self.wall += wall
        self._record_caches()
        self._check(outputs)
        self.passes += 1
        return wall

    def calibrate(self, samples: int = 3) -> None:
        self.calibration += [calibration_sample() for _ in range(samples)]

    def scaled_latencies(self, first: int = 0, stop: int | None = None) -> list[float]:
        lo, hi = (math.log(t) for t in NUMPY_SHARE_RAMP_S)
        scaled = []
        for latency, (t0, t1) in zip(self.latencies[first:stop], self.op_times[first:stop]):
            ramp = min(max((math.log(latency) - lo) / (hi - lo), 0.0), 1.0)
            share = NUMPY_SHARE[self.workload] * ramp
            scaled.append(latency / slowdown(self.calibration, t0, t1, share))
        return scaled

    def _record_caches(self) -> None:
        for name, fn in self.caches.items():
            info = fn.cache_info()
            stats = self.cache_stats[name]
            stats[0] += info.hits
            stats[1] += info.misses
            stats[2] = info.currsize

    def _check(self, outputs) -> None:
        bad = {}
        for i, (op, (status, stdout)) in enumerate(zip(self.ops, outputs)):
            try:
                reason = workloads.check_output(op, status, stdout)
            except (ValueError, KeyError, TypeError) as exc:
                reason = f"unreadable output: {exc!r}"
            if reason:
                bad[i] = reason
        self.envelope_bytes += self.cache_path.stat().st_size if self.cache_path.exists() else 0
        envelopes = self.read_cache(str(self.cache_path))
        self.envelopes += len(envelopes)
        results, k = [], 0
        for i, op in enumerate(self.ops):
            result = None
            if k < len(envelopes) and workloads.envelope_is_for(op, envelopes[k]):
                try:
                    result = workloads.envelope_result(op, envelopes[k])
                except (ValueError, KeyError, TypeError, AttributeError):
                    result = None
                k += 1
                if result is None:
                    bad.setdefault(i, "cached envelope is inconsistent")
            else:
                bad.setdefault(i, "no envelope in the result cache")
            results.append(result)
        self.attempted += len(self.ops)
        self.failed += len(bad)
        self.failures += [f"op {i} ({' '.join(self.ops[i].argv)[:80]}): {r}" for i, r in bad.items()]
        pass_digest = workloads.digest(results)
        expected = self.expected_digest or self.first_digest
        self.first_digest = self.first_digest or pass_digest
        if expected and pass_digest != expected:
            self.failed += 1
            self.failures.append(f"pass {self.passes}: result digest {pass_digest[:16]} != {expected[:16]}")

    def run_for(self, seconds: float, min_ops: int, tracer=None) -> None:
        """Whole passes, at least one, until both limits are met."""
        ops, wall = 0, 0.0
        while ops == 0 or wall < seconds or ops < min_ops:
            wall += self.run_pass(tracer)
            ops += len(self.ops)

    def close(self) -> None:
        self.cache_path.unlink(missing_ok=True)

    def cache_metrics(self) -> dict[str, float]:
        out = {}
        for name, (hits, misses, size) in self.cache_stats.items():
            lookups = hits + misses
            out[f"{name}.hit_ratio"] = hits / lookups if lookups else 0.0
            out[f"{name}.hit_ratio.base"] = lookups / self.passes
            out[f"{name}.currsize"] = size
        return out


def latency_metrics(latencies: list[float]) -> dict[str, float]:
    return {
        "op_p50_s": statistics.median(latencies),
        "op_p90_s": statistics.quantiles(latencies, n=10)[8],
        "ops_per_s": len(latencies) / sum(latencies),
    }


def end_to_end(runner: Runner, setup: list[float]) -> tuple[dict, dict]:
    """End-to-end metrics from scaled latencies, and the raw wall-clock ones."""
    metrics = latency_metrics(runner.scaled_latencies())
    metrics["setup_s"] = statistics.median(setup)
    metrics["failed_frac"] = runner.failed / runner.attempted
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    raw = latency_metrics(runner.latencies)
    raw["ops_per_s_wall"] = len(runner.latencies) / runner.wall
    return metrics, raw


def per_layer(runner: Runner, tracer, first_traced: int) -> dict[str, float]:
    """Per-pass span totals of the traced passes, counters, and tracing cost.

    Span times are raw wall-clock seconds; the overhead compares the scaled
    op time of the traced passes with that of the untraced ones.
    """
    traced_passes = runner.passes - runner.untraced_passes
    out = tracer.summary(traced_passes)
    out.update(runner.cache_metrics())
    passes = runner.passes
    out["cli.append_cache.bytes"] = runner.envelope_bytes / passes
    out["cli.envelopes"] = runner.envelopes / passes
    untraced_s = sum(runner.scaled_latencies(0, first_traced)) / runner.untraced_passes
    traced_s = sum(runner.scaled_latencies(first_traced)) / traced_passes
    out["trace.overhead_frac"] = (traced_s - untraced_s) / traced_s
    traced_op_s = sum(runner.latencies[first_traced:]) / traced_passes
    out["trace.op_time_s"] = traced_op_s
    self_sum = sum(v for k, v in out.items() if k.count(".") == 1 and k.endswith(".self_s"))
    out["trace.self_sum_s"] = self_sum
    out["trace.unattributed_frac"] = 1 - self_sum / traced_op_s
    return out


UNITS = {
    "setup_s": "s", "op_p50_s": "s", "op_p90_s": "s", "ops_per_s": "1/s",
    "failed_frac": "fraction", "peak_rss_mb": "MB",
}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    suffix_units = {
        ".self_s": "s/pass", ".calls": "calls/pass", ".errors": "errors/pass",
        ".hit_ratio": "ratio", ".base": "count/pass", ".currsize": "entries",
        "_frac": "fraction", ".bytes": "B/pass", ".envelopes": "count/pass",
        ".spans": "spans/pass", "_s": "s/pass", ".keep_ratio": "ratio",
        ".eigen_cells": "cells/pass", ".unit_products": "products/pass",
        ".masks_visited": "masks/pass", ".masks": "masks/pass",
    }
    for suffix, unit in suffix_units.items():
        if name.endswith(suffix):
            return unit
    raise KeyError(f"no unit for metric {name}")


def environment() -> dict:
    import numpy

    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": platform.processor() or platform.machine(),
        "git_sha": None,
    }
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu_model"] = line.split(":", 1)[1].strip()
                break
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.CalledProcessError):
            env["git_sha"] = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True).stdout.strip()
    return env


def run_workload(args) -> int:
    cli = load_circdeg()
    ops = workloads.make_ops(args.workload, args.seed)
    fault = None
    if args.inject_fault:
        fault_workload, fault = FAULTS[args.inject_fault]
        if fault_workload != args.workload:
            raise SystemExit(f"error: fault {args.inject_fault} applies to {fault_workload}")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    runner = Runner(cli, args.workload, args.seed, ops, fault)
    try:
        if args.trace:
            runner.run_for(args.seconds / 2, 0)
            runner.untraced_passes = runner.passes
            tracer = Tracer()
            first_traced = len(runner.latencies)
            runner.run_for(args.seconds / 2, 0, tracer)
            metrics = per_layer(runner, tracer, first_traced)
            raw = {}
            wanted = [m["name"] for m in benchmark["per_layer"]]
            spans_path = OUT_DIR / f"spans-{args.workload}.npz"
            tracer.save(str(spans_path))
        else:
            setup = measure_setup(args.workload, args.seed)
            runner.run_for(args.seconds, MIN_OPS)
            metrics, raw = end_to_end(runner, setup)
            wanted = [m["name"] for m in benchmark["end_to_end"]]
    finally:
        runner.close()

    correct = runner.failed == 0
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "passes": runner.passes,
        "attempted": runner.attempted, "failed": runner.failed, "correct": correct,
        "fault": args.inject_fault,
        "digest": runner.first_digest, "digest_expected": runner.expected_digest,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(metrics.items())},
        "computed": [k for k, _ in WORK_SIZES.values() if k in metrics],
        "inputs": workloads.input_properties(args.workload, ops),
        "env": environment(),
        "raw": raw,
        "calibration": {
            "python_median_s": statistics.median(c[1] for c in runner.calibration),
            "numpy_median_s": statistics.median(c[2] for c in runner.calibration),
            "reference_s": CALIBRATION_REFERENCE_S,
            "numpy_share_max": NUMPY_SHARE[args.workload],
            "samples": len(runner.calibration),
        },
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    out_path = Path(args.out) if args.out else OUT_DIR / "results.jsonl"
    with open(out_path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")

    print(f"workload {args.workload} seed {args.seed} passes {runner.passes} "
          f"ops {runner.attempted} failed {runner.failed}")
    print(f"inputs {json.dumps(record['inputs'], sort_keys=True)}")
    digest_state = ("matches the recorded digest" if runner.expected_digest and correct
                    else "no recorded digest for this seed" if not runner.expected_digest
                    else "see failures")
    print(f"digest {runner.first_digest[:16]} ({digest_state})")
    for line in runner.failures[:10]:
        print(f"FAILED {line}")
    for name, entry in record["metrics"].items():
        label = " (computed)" if name in record["computed"] else ""
        print(f"{name} {entry['value']!r} {entry['unit']}{label}")
    for name, value in raw.items():
        print(f"raw wall-clock {name} {value!r}")
    cal = record["calibration"]
    print(f"calibration loops: Python {cal['python_median_s']!r} s, numpy "
          f"{cal['numpy_median_s']!r} s (fast state {CALIBRATION_REFERENCE_S} s, "
          f"numpy share up to {cal['numpy_share_max']})")
    if args.trace:
        print(f"spans written to {spans_path.relative_to(ROOT)}")
    missing = [name for name in wanted if name not in metrics]
    if missing:
        raise SystemExit(f"error: metrics not produced: {missing}")
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit_of(name)} for name in wanted},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in turn, each in its own process; prints all results."""
    status, summary = 0, {}
    for workload in WORKLOADS:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        if args.out:
            argv += ["--out", args.out]
        child = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
        sys.stdout.write(child.stdout)
        sys.stderr.write(child.stderr)
        lines = child.stdout.strip().splitlines()
        summary[workload] = json.loads(lines[-1]) if child.returncode in (0, 1) and lines else None
        status = max(status, child.returncode)
    print(json.dumps(summary))
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="results file to append to (default .perfbench/results.jsonl)")
    parser.add_argument("--inject-fault", choices=sorted(FAULTS),
                        help="corrupt one op of the first pass; the run must then fail")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
