#!/usr/bin/env python3
"""Experiment benchmark for open_rebalance, driven through the public CLI.

    python3 perfbench/run.py --workload sweep-eta --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the repository root; the package is imported from ``src/``. One
process runs one workload as a closed loop with a single client: each CLI
command starts when the previous one returns. The workload's commands are
repeated until ``--seconds`` of measurement have passed, and every timing is
the median over those repeats, in reference seconds (see ``REF_S``).

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced repeats and prints the per-layer metrics of the traced
ones, plus the tracing overhead (traced minus untraced wall time).
Outputs are checked after every repeat, and their digest must be the same
across repeats and between traced and untraced repeats. The last stdout line
is the result JSON; the line before it holds the details (environment,
digests, exact counts, per-repeat times).
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
# Timings are reported in reference seconds: measured seconds scaled by
# REF_S / (measured duration of _reference() run next to them). On a shared
# 2-vCPU VM the CPU speed drifts by up to 2x over minutes; the same drift
# slows the reference, so the scaled times stay comparable between runs.
REF_S = 0.005
_REF_A = np.arange(512, dtype=np.float64).reshape(32, 16) / 512.0
_REF_W = np.full((16, 8), 0.01)
# Counts that must repeat exactly from one traced repeat to the next.
EXACT_COUNTS = ("train.steps", "oracle.bayes_predict.calls", "data.read_mb",
                "data.write_mb", "metrics.samples_scored")


def _digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(path.relative_to(out).as_posix().encode() + b"\0")
        with open(path, "rb") as f:
            for chunk in iter(lambda: f.read(1 << 20), b""):
                h.update(chunk)
        h.update(b"\0")
    return h.hexdigest()


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment(scipy, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                threads = int(fn())
                break
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads, "nproc": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(), "seed": seed,
    }


class Runner:
    """Runs one workload's repeats and checks each repeat's outputs."""

    def __init__(self, workload, cli, work: Path, seed: int):
        self.workload = workload
        self.seed = seed
        self.cli = cli
        self.inputs = work / "inputs"
        self.out = work / "out"
        self.attempted = 0
        self.failed = 0
        self.failed_points = 0
        self.failures: list[str] = []
        self.digests: list[tuple[str, str]] = []  # (kind, digest)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    def _command(self, command: str, config: Path, tracer):
        argv = [command, "--config", str(config), "--out", str(self.out)]
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            try:
                if tracer is None:
                    code = self.cli.main(argv)
                else:
                    code = tracer.call(f"cli.{command}", self.cli.main, argv)
            except Exception as exc:  # noqa: BLE001 - a crash is a failed operation
                code = f"{type(exc).__name__}: {exc}"
        return code, stderr.getvalue().splitlines()

    def repeat(self, tracer=None) -> dict:
        """One closed-loop pass over the measured commands, then the checks."""
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        times = {}
        results = []
        first = time.perf_counter()
        for command, config in self.workload.commands(self.inputs):
            t0 = time.perf_counter()
            code, lines = self._command(command, config, tracer)
            times[command] = times.get(command, 0.0) + time.perf_counter() - t0
            results.append((command, code, lines))
        wall = time.perf_counter() - first

        points = self.workload.points(self.inputs)
        for command, code, lines in results:
            self.attempted += 1
            if code != 0:
                self.fail(f"{command}: exit {code}: {' | '.join(lines[-3:])}")
            failed_lines = [ln for ln in lines if ln.startswith("failed:")]
            if command == "sweep":
                self.attempted += points
                done = sum(1 for ln in lines if ": done in " in ln)
                for i in range(points - done):
                    self.failed_points += 1
                    reason = failed_lines[i] if i < len(failed_lines) else "no result"
                    self.fail(f"sweep point: {reason}")
            elif failed_lines:
                self.fail(f"{command}: {failed_lines[0]}")
        for name, ok in self.workload.check(self.inputs, self.out):
            self.attempted += 1
            if not ok:
                self.fail(f"check {name}")
        self.digests.append(("traced" if tracer else "untraced", _digest(self.out)))
        return {"wall_s": wall, "command_s": times}

    def setup(self) -> float:
        """Write the inputs once; return the time it took."""
        shutil.rmtree(self.inputs, ignore_errors=True)
        self.inputs.mkdir(parents=True)
        t0 = time.perf_counter()
        with contextlib.redirect_stderr(io.StringIO()):
            self.workload.setup(self.cli.main, self.inputs, self.seed)
        return time.perf_counter() - t0


def _reference() -> float:
    """Seconds for 1,000 small matmul+relu+sum steps, median of five runs."""
    runs = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(1000):
            np.maximum(_REF_A @ _REF_W, 0.0).sum()
        runs.append(time.perf_counter() - t0)
    return statistics.median(runs)


def _median(values):
    return statistics.median(values) if values else 0.0


def _summary(values) -> dict:
    """Median and the highest of p99/p90/p75 with at least ten samples above it."""
    out = {"n": len(values), "median": _median(values)}
    for p in (99, 90, 75):
        if len(values) * (100 - p) / 100 >= 10:
            out[f"p{p}"] = statistics.quantiles(values, n=100)[p - 1]
            break
    return out


def _import_times() -> list[float]:
    """Seconds to import the package, each in a fresh interpreter.

    The process importing once would give a single, noisy sample; the
    interpreter's own start-up is not counted.
    """
    code = ("import time; t = time.perf_counter(); import open_rebalance.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True, timeout=120)
        times.append(float(proc.stdout))
    return times


def run_workload(args) -> int:
    if not (ROOT / "src" / "open_rebalance" / "__init__.py").is_file():
        print(f"error: no open_rebalance sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    refs = [_reference()]
    import_times = _import_times()
    refs.append(_reference())
    sys.path.insert(0, str(ROOT / "src"))
    import scipy

    import open_rebalance
    from open_rebalance import cli
    from tracer import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    runner = Runner(workload, cli, work, args.seed)
    try:
        setup_times = []
        setup_digests = set()
        for _ in range(SETUP_REPEATS):
            setup_times.append(runner.setup())
            setup_digests.add(_digest(runner.inputs))
        refs.append(_reference())
        raw_setup_s = _median(import_times) + _median(setup_times)
        setup_s = (_median(import_times) * 2 * REF_S / (refs[0] + refs[1])
                   + _median(setup_times) * 2 * REF_S / (refs[1] + refs[2]))
        if len(setup_digests) != 1:
            runner.attempted += 1
            runner.fail("setup is not deterministic")
        work_units = workload.work(runner.inputs)

        def calibrated(result):
            refs.append(_reference())
            result["scale"] = 2 * REF_S / (refs[-2] + refs[-1])
            return result

        tracer = Tracer() if args.trace else None
        untraced, traced, rounds = [], [], []
        begin = time.perf_counter()
        # Start another round only if a median round still fits in --seconds.
        while not rounds or (time.perf_counter() - begin + _median(rounds) <= args.seconds):
            t0 = time.perf_counter()
            untraced.append(calibrated(runner.repeat()))
            if tracer is not None:
                tracer.repeat_id = len(traced)
                tracer.install(open_rebalance)
                try:
                    traced.append(runner.repeat(tracer))
                finally:
                    tracer.uninstall()
                refs.append(_reference())
            rounds.append(time.perf_counter() - t0)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        digests = {kind: sorted({d for k, d in runner.digests if k == kind})
                   for kind in ("untraced", "traced") if any(k == kind for k, _ in runner.digests)}
        runner.attempted += 1
        if len({d for _, d in runner.digests}) != 1:
            runner.fail(f"output digests differ across repeats: {digests}")

        wall = [r["wall_s"] for r in untraced]
        rates = [work_units / r["command_s"][workload.work_command] for r in untraced]
        ref_wall = [r["wall_s"] * r["scale"] for r in untraced]
        ref_rates = [rate / r["scale"] for rate, r in zip(rates, untraced)]
        detail = {
            "workload": workload.name, "why": workload.why,
            "environment": _environment(scipy, args.seed),
            "seconds": args.seconds, "repeats": len(untraced),
            "traced_repeats": len(traced),
            "work_per_repeat": {"count": work_units, "unit": workload.work_unit},
            "wall_s_per_repeat": wall, "wall_s_summary": _summary(wall),
            "measured": {"wall_s": _median(wall), "setup_s": raw_setup_s,
                         "work_per_s": _median(rates)},
            "reference_s": {"nominal": REF_S, "median": _median(refs), "min": min(refs),
                            "max": max(refs), "n": len(refs)},
            "import_s_per_repeat": import_times, "setup_s_per_repeat": setup_times,
            "input_digest": sorted(setup_digests), "output_digest": digests,
            "failures": runner.failures,
        }
        if tracer is None:
            metrics = {
                "wall_s": (_median(ref_wall), "s"),
                "setup_s": (setup_s, "s"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
                "work_per_s": (_median(ref_rates), "1/s"),
            }
        else:
            metrics = _layer_metrics(tracer, traced, untraced, runner, detail)
            spans = work.parent / f"spans-{args.workload}-{args.seed}.csv.gz"
            tracer.write(spans)
            detail["spans_file"] = str(spans.relative_to(ROOT))
        correct = runner.failed == 0
        detail["correct"] = correct
        print(json.dumps({"detail": detail}, sort_keys=True))
        print(json.dumps({
            "correct": correct, "attempted": runner.attempted, "failed": runner.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


def _layer_metrics(tracer, traced, untraced, runner, detail) -> dict:
    per_repeat = [tracer.repeat_metrics(i) for i in range(len(traced))]
    counts = {key: sorted({m[key] for m in per_repeat}) for key in EXACT_COUNTS}
    runner.attempted += 1
    if any(len(v) != 1 for v in counts.values()):
        runner.fail(f"exact counts differ across repeats: {counts}")
    detail["exact_counts"] = {k: v[0] if len(v) == 1 else v for k, v in counts.items()}
    detail["bindings"] = tracer.bindings
    detail["spans"] = len(tracer.start)

    traced_wall = _median([r["wall_s"] for r in traced])
    out = {}
    for key in per_repeat[0]:
        if key == "cli.span_s":
            continue
        value = _median([m[key] for m in per_repeat])
        if isinstance(per_repeat[0][key], int):
            value = int(value)
        out[key] = (value, _unit(key))
    out["cli.failed_points"] = (runner.failed_points, "count")
    out["trace.wall_s"] = (traced_wall, "s")
    # Each traced repeat directly follows an untraced one; pairing them
    # cancels most of the machine's slow drift.
    out["trace.overhead_s"] = (
        _median([t["wall_s"] - u["wall_s"] for t, u in zip(traced, untraced)]), "s")
    out["trace.bench_gap_s"] = (
        _median([r["wall_s"] - m["cli.span_s"] for r, m in zip(traced, per_repeat)]), "s")
    return out


def _unit(key: str) -> str:
    if key.endswith(".calls") or key in ("train.steps", "metrics.samples_scored"):
        return "count"
    if key.endswith("_mb"):
        return "MB"
    if ".us_per_step." in key:
        return "us"
    return "s"


def run_all(args) -> int:
    """Run every workload in its own process and print a table of the results."""
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}")
            status = 1
            continue
        result = json.loads(lines[-1])
        error_rate = result["failed"] / result["attempted"]
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} error_rate={error_rate:g}")
        for key, m in result["metrics"].items():
            print(f"  {key:<44s} {m['value']:>14.6g} {m['unit']}")
        status |= not result["correct"]
    return status


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="sweep-eta, sweep-methods, cifar-ood, bayes-oracle or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.workload == "all":
        return run_all(args)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
