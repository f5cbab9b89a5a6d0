"""Pipeline benchmark for pcikit: end-to-end times per CLI pass, and
per-layer numbers from a traced run.

    python3 perfbench/run.py --workload small-corpus --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30    # every workload, as a table
    python3 perfbench/run.py --smoke                        # one operation per workload

Run from the repository root.  The program under test is ``src/pcikit`` of
that checkout, imported from source.  Each pass is one fresh worker process
running every operation of the workload once, in an order shuffled from the
seed.  Passes repeat until the next one would overrun ``--seconds``; after
each, fresh processes probe the set-up time.  End-to-end times are scaled
to a reference machine speed by a calibration loop timed beside each
operation (see README.md, "Machine speed").  With ``--trace 0`` the last
line of stdout is the result with the end-to-end metrics (medians over the
passes); with ``--trace 1`` untraced and traced passes alternate and the
result holds the per-layer metrics (medians over the traced passes) plus
the tracing overhead.  The line before it records the environment and the
end-to-end times in wall seconds.  See README.md for the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
from workloads import SMOKE_OPS, WORKLOADS, Op

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
PROBES_PER_PASS = 2  # set-up samples after each pass, besides the pass's own
# The calibration loop's time (worker.calibrate) at the reference machine's
# full speed.  A time t taken while the loop took c seconds is reported as
# t * REFERENCE_CALIBRATION_S / c: seconds at the reference speed.
REFERENCE_CALIBRATION_S = 0.004
WORKER_TIMEOUT_S = 150


class BenchmarkError(Exception):
    pass


def _worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMBA_NUM_THREADS"):
        env[var] = "1"
    return env


def _start_worker(job: dict) -> tuple[float, dict]:
    """Run one worker to completion; returns its launch time and report."""
    launched = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER)],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_worker_env(),
        cwd=ROOT,
        text=True,
    )
    try:
        out, err = proc.communicate(json.dumps(job), timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchmarkError(f"worker exceeded {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchmarkError(f"worker exited {proc.returncode}:\n{err}")
    return launched, json.loads(out.splitlines()[-1])


def at_reference_speed(seconds: float, calibration_s: float) -> float:
    return seconds * REFERENCE_CALIBRATION_S / calibration_s


def setup_sample() -> tuple[float, float]:
    """Set-up of one fresh process: wall seconds and its calibration."""
    launched, report = _start_worker({"setup_only": True})
    return report["ready"] - launched, report["calibration_s"]


def pass_times(report: dict) -> tuple[float, float]:
    """A pass's time and its slowest operation, at the reference speed."""
    times = [at_reference_speed(op["seconds"], op["calibration_s"]) for op in report["ops"]]
    return sum(times), max(times)


def wall_pass_s(report: dict) -> float:
    return sum(op["seconds"] for op in report["ops"])


class Run:
    """Passes over one workload, with outputs checked as they arrive."""

    def __init__(self, ops: tuple[Op, ...], seed: int, work_dir: Path):
        self.ops = ops
        self.rng = random.Random(seed)
        self.work_dir = work_dir
        self.verified: dict[int, str] = {}  # op index -> digest of its checked output
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.setup: list[tuple[float, float]] = []  # (wall seconds, calibration)
        self.passes: dict[bool, list[dict]] = {False: [], True: []}
        self.versions: dict = {}

    def one_pass(self, trace: bool) -> None:
        order = self.rng.sample(range(len(self.ops)), len(self.ops))
        job = {
            "ops": [(i, self.ops[i].argv) for i in order],
            "out_dir": str(self.work_dir),
            "trace": trace,
        }
        launched, report = _start_worker(job)
        self.setup.append((report["ready"] - launched, report["calibration_s"]))
        self.versions = {k: report[k] for k in ("numpy", "numba_importable", "backend")}
        for result in report["ops"]:
            self._check(result)
        self.passes[trace].append(report)

    def _check(self, result: dict) -> None:
        op = self.ops[result["index"]]
        self.attempted += 1
        if result["error"] is not None:
            self.failed += 1
            self.errors.append(f"{op}: raised\n{result['error']}")
            return
        data = (self.work_dir / f"{result['index']}.out").read_bytes()
        digest = hashlib.sha256(data + str(result["code"]).encode()).hexdigest()
        if self.verified.get(result["index"]) == digest:
            return  # byte-identical to an output already checked in this run
        problem = checks.check(op, result["code"], data.decode("utf-8"))
        if problem is None:
            self.verified[result["index"]] = digest
        else:
            self.errors.append(f"{op}: {problem}")

    def end_to_end(self) -> dict[str, float]:
        plain = [pass_times(r) for r in self.passes[False]]
        return {
            "setup_s": statistics.median(at_reference_speed(*sample) for sample in self.setup),
            "pass_s": statistics.median(total for total, _ in plain),
            "slowest_op_s": statistics.median(slowest for _, slowest in plain),
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in self.passes[False]),
        }

    def wall(self) -> dict[str, float]:
        """The end-to-end times in wall seconds, with the calibration."""
        plain = self.passes[False]
        return {
            "setup_s": statistics.median(wall for wall, _ in self.setup),
            "pass_s": statistics.median(wall_pass_s(r) for r in plain),
            "slowest_op_s": statistics.median(max(op["seconds"] for op in r["ops"]) for r in plain),
            "calibration_s": statistics.median(
                op["calibration_s"] for r in plain for op in r["ops"]
            ),
        }

    def per_layer(self) -> dict[str, float]:
        traced = self.passes[True]
        out = {
            name: statistics.median(r["layers"][name] for r in traced)
            for name in traced[0]["layers"]
        }
        out["trace.pass_s"] = statistics.median(wall_pass_s(r) for r in traced)
        out["trace.overhead_s"] = (
            statistics.median(pass_times(r)[0] for r in traced) - self.end_to_end()["pass_s"]
        )
        out["trace.unaccounted_s"] = statistics.median(
            wall_pass_s(r) - sum(v for k, v in r["layers"].items() if k.endswith(".self_s"))
            for r in traced
        )
        return out


def run_workload(ops, seed: int, seconds: float, trace: bool, max_passes=None, probes=True) -> Run:
    """Passes until the next would overrun the budget, each followed by
    set-up probes, so that set-up is sampled across the whole run.

    Under tracing, untraced and traced passes alternate, so both sides of
    the overhead see the same machine load."""
    start = time.monotonic()
    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as work_dir:
        run = Run(ops, seed, Path(work_dir))
        if probes:
            setup_sample()  # untimed: compiles pcikit's bytecode in a fresh checkout
        kinds = [False, True] if trace else [False]
        longest = 0.0
        count = 0
        while True:
            t0 = time.monotonic()
            run.one_pass(kinds[count % len(kinds)])
            if probes:
                run.setup += [setup_sample() for _ in range(PROBES_PER_PASS)]
            count += 1
            longest = max(longest, time.monotonic() - t0)
            if count < len(kinds):
                continue
            if max_passes is not None and count >= max_passes:
                break
            if time.monotonic() - start + longest > seconds:
                break
    return run


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def commit_hash() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown (not a git checkout)"
    return out.stdout.strip()


def environment(run: Run, workload: str, seed: int) -> dict:
    return {
        "python": platform.python_version(),
        **run.versions,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "commit": commit_hash(),
        "workload": workload,
        "seed": seed,
        "passes": {"untraced": len(run.passes[False]), "traced": len(run.passes[True])},
        "setup_samples": len(run.setup),
        "wall": run.wall(),
        "reference_calibration_s": REFERENCE_CALIBRATION_S,
    }


def result_line(run: Run, trace: bool, spec: dict) -> dict:
    kind = "per_layer" if trace else "end_to_end"
    values = run.per_layer() if trace else run.end_to_end()
    units = {m["name"]: m["unit"] for m in spec[kind]}
    if set(values) != set(units):
        raise BenchmarkError(
            f"{kind} metrics differ from BENCHMARK.json: "
            f"extra {sorted(set(values) - set(units))}, missing {sorted(set(units) - set(values))}"
        )
    return {
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def report_errors(run: Run) -> None:
    for error in run.errors[:10]:
        print(f"perfbench: {error}", file=sys.stderr)


def smoke(spec: dict) -> int:
    """One operation per workload, untraced and traced; checks that every
    metric of BENCHMARK.json is emitted and that nothing failed."""
    ok = True
    for name, op in SMOKE_OPS.items():
        # A traced run has an untraced and a traced pass, enough for both lines.
        run = run_workload((op,), seed=0, seconds=0, trace=True, max_passes=2, probes=False)
        report_errors(run)
        for trace in (False, True):
            result = result_line(run, trace, spec)
            ok = ok and result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
            print(f"{name:13} trace={int(trace)} {op}: attempted {result['attempted']} "
                  f"failed {result['failed']} correct {result['correct']} "
                  f"metrics {len(result['metrics'])}")
    print(json.dumps({"smoke": "pass" if ok else "fail"}))
    return 0 if ok else 1


def table(spec: dict, seed: int, seconds: float) -> int:
    """Every end-to-end metric for every workload, with units."""
    rows = {}
    for name, ops in WORKLOADS.items():
        run = run_workload(ops, seed, seconds, trace=False)
        report_errors(run)
        rows[name] = result_line(run, False, spec)
        print(json.dumps({name: rows[name]}))
    metrics = [m["name"] for m in spec["end_to_end"]]
    print(f"{'workload':14}" + "".join(f"{m:>16}" for m in metrics) + f"{'attempted':>11}{'failed':>8}")
    for name, res in rows.items():
        cells = "".join(
            f"{res['metrics'][m]['value']:>12.4f} {res['metrics'][m]['unit']:<3}" for m in metrics
        )
        print(f"{name:14}{cells}{res['attempted']:>11}{res['failed']:>8}")
    return 0 if all(r["correct"] and not r["failed"] for r in rows.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "pcikit" / "__init__.py").is_file():
        print(f"perfbench: no pcikit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.smoke:
        return smoke(spec)
    if args.workload is None:
        parser.error("--workload or --smoke is required")
    if args.workload == "all":
        return table(spec, args.seed, args.seconds)
    trace = bool(args.trace)
    run = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, trace)
    report_errors(run)
    result = result_line(run, trace, spec)
    print(json.dumps({"environment": environment(run, args.workload, args.seed)}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(1)
