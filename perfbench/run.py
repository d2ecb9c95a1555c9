"""Benchmark of the randomx-eval CLI as a single-client batch job.

Run from the repository root:

    python3 perfbench/run.py --workload decompose_ls --seed 1 --seconds 20 --trace 0

Each invocation is the user's command in a fresh process (``python3 -m
randomx_eval.cli``, package taken from ``src/``), one at a time.  With
``--trace 0`` the run alternates set-up-size and full-size invocations for
``--seconds`` seconds and reports the end-to-end metrics; with ``--trace 1``
it alternates untraced and traced ``--threads 1`` invocations and reports the
per-layer metrics.  Every invocation's output is checked.  The last line of
stdout is the JSON result; a fuller record goes to ``perfbench/out/``.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import tracer
from workloads import DEFAULT_SEED, HELDOUT_SEED, WHY, CheckError, Command, Workload, make_workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "reps_per_s": "replicates/s",
    "rows_per_s": "rows/s",
    "peak_rss_mb": "MB",
}
POOL_UNITS = {
    "_pool.speedup": "ratio",
    "_pool.reps_per_s.threads1": "replicates/s",
    "_pool.reps_per_s.threads2": "replicates/s",
    "trace.overhead_frac": "ratio",
}
PER_LAYER_UNITS = {**tracer.LAYER_UNITS, **POOL_UNITS}

MIN_ITERATIONS = {0: 3, 1: 2}
#: A run that would pass this gives up on further invocations.
RUN_DEADLINE_S = 170.0
RSS_POLL_S = 0.02
BLAS_ENV = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "GOTO_NUM_THREADS", "RANDOMX_EVAL_THREADS",
)


# --------------------------------------------------------------------------
# one invocation
# --------------------------------------------------------------------------

class TreeRss:
    """Polls the summed resident memory of a process and its descendants."""

    def __init__(self, pid: int):
        self.pid = pid
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll, daemon=True)
        self._thread.start()

    def _tree_kb(self, pid: int) -> int:
        try:
            with open(f"/proc/{pid}/status") as fh:
                kb = next((int(line.split()[1]) for line in fh if line.startswith("VmRSS:")), 0)
            for task in os.listdir(f"/proc/{pid}/task"):
                with open(f"/proc/{pid}/task/{task}/children") as fh:
                    kb += sum(self._tree_kb(int(child)) for child in fh.read().split())
        except (OSError, ValueError):
            return 0
        return kb

    def _poll(self) -> None:
        while not self._stop.wait(RSS_POLL_S):
            self.peak_kb = max(self.peak_kb, self._tree_kb(self.pid))

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()


@dataclass
class Sample:
    wall_s: float
    rss_mb: float
    ok: bool


def run_process(argv: list[str], env: dict, timeout: float, stderr_path: Path) -> tuple[float, float, int]:
    """Run ``argv`` from the repository root; return wall time, peak RSS (MB) and exit code."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
    rss = TreeRss(proc.pid)
    killer = threading.Timer(max(timeout, 1.0), proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
        rss.stop()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss (kB) is exact for the largest single process; the poll adds
    # up the whole tree when there is more than one
    return wall, max(usage.ru_maxrss, rss.peak_kb) / 1024.0, proc.returncode


class Harness:
    """Runs and checks invocations, and counts the attempted and failed ones."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.canonical: dict[tuple[str, str], str] = {}
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.last_spans: dict | None = None

    def invoke(self, cmd: Command, size: str = "full", threads: int | None = None,
               traced: bool = False) -> Sample:
        """Run one invocation of ``cmd`` at ``size`` ("full" or "setup") and check it."""
        out = self.workdir / f"{cmd.label}-{size}.csv"
        out.unlink(missing_ok=True)
        cli_args = cmd.argv(size, threads, out)
        spans = self.workdir / "spans.json"
        if traced:
            argv = [sys.executable, str(HERE / "tracer.py"), str(spans)] + cli_args
        else:
            argv = [sys.executable, "-m", "randomx_eval.cli"] + cli_args
        timeout = self.deadline - time.monotonic()
        wall, rss, code = run_process(argv, self.env, timeout, self.workdir / "stderr.txt")
        ok = self.verify(cmd, size, out, code)
        if traced and ok:
            self.last_spans = json.loads(spans.read_text())
        return Sample(wall, rss, ok)

    def verify(self, cmd: Command, size: str, out: Path, code: int) -> bool:
        """Count one attempted invocation; check its exit code and CSV."""
        self.attempted += 1
        try:
            if code != 0:
                stderr = (self.workdir / "stderr.txt").read_text(errors="replace").strip()
                raise CheckError(f"exit code {code}: {stderr[-300:]}")
            try:
                text = out.read_text()
            except OSError as exc:
                raise CheckError(f"no output: {exc}") from None
            getattr(cmd, size).check(text)
            # every run of one command at one size and seed, at any thread
            # count and traced or not, must write the same bytes
            if self.canonical.setdefault((cmd.label, size), text) != text:
                raise CheckError("CSV differs from this command's first CSV")
        except CheckError as exc:
            self.failed += 1
            self.problems.append(f"{cmd.label}/{size}: {exc}")
            return False
        return True

    def expired(self) -> bool:
        return time.monotonic() >= self.deadline


# --------------------------------------------------------------------------
# runs
# --------------------------------------------------------------------------

def quartiles(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def keep_going(start: float, iterations: list, seconds: float, trace: int, smoke: bool,
               harness: Harness) -> bool:
    """Another iteration, unless the run would end nearer to ``seconds`` without it."""
    if smoke or harness.expired():
        return not iterations
    if len(iterations) < MIN_ITERATIONS[trace]:
        return True
    elapsed = time.monotonic() - start
    return elapsed + 0.5 * elapsed / len(iterations) < seconds


def steady_rate(work: float, full: list[float], setup: list[float]) -> float:
    return work / (statistics.median(full) - statistics.median(setup))


def warm_up(wl: Workload, harness: Harness) -> None:
    """One untimed invocation, so that the first timed one finds warm file caches."""
    harness.invoke(wl.commands[-1], "setup")


def untraced_run(wl: Workload, harness: Harness, seconds: float, smoke: bool) -> tuple[dict, dict]:
    """Set-up and full-size invocations in turn; returns metric values and their spread."""
    walls, setups, rss = [], [], []
    warm_up(wl, harness)
    start = time.monotonic()
    while keep_going(start, walls, seconds, 0, smoke, harness):
        samples = [(harness.invoke(c, "setup"), harness.invoke(c, "full")) for c in wl.commands]
        setups.append(sum(s.wall_s for s, _ in samples))
        walls.append(sum(f.wall_s for _, f in samples))
        rss.append(max(max(s.rss_mb, f.rss_mb) for s, f in samples))
    if wl.parallel:
        # untimed: the --threads 1 CSV must equal the --threads 2 CSV
        for c in wl.commands:
            harness.invoke(c, "full", threads=1)

    reps, rows = wl.steady_reps, wl.steady_rows
    per_iteration_rows = [rows / (w - s) for w, s in zip(walls, setups)]
    if reps:
        reps_per_s = steady_rate(reps, walls, setups)
        per_iteration_reps = [reps / (w - s) for w, s in zip(walls, setups)]
    else:
        # eval has no replicate loop: count full-size fits per second of wall time
        fits = len(wl.commands)
        reps_per_s = fits / statistics.median(walls)
        per_iteration_reps = [fits / w for w in walls]
    values = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "reps_per_s": reps_per_s,
        "rows_per_s": steady_rate(rows, walls, setups),
        "peak_rss_mb": statistics.median(rss),
    }
    spread = {
        "wall_s": quartiles(walls), "setup_s": quartiles(setups), "peak_rss_mb": quartiles(rss),
        "reps_per_s": quartiles(per_iteration_reps), "rows_per_s": quartiles(per_iteration_rows),
    }
    return values, spread


def traced_run(wl: Workload, harness: Harness, seconds: float, smoke: bool) -> tuple[dict, dict]:
    """Untraced and traced ``--threads 1`` invocations in turn, plus the pool's speed-up."""
    plain, traced, layers = [], [], []
    pool = {"setup1": [], "full1": [], "setup2": [], "full2": []}
    warm_up(wl, harness)
    start = time.monotonic()
    while keep_going(start, plain, seconds, 1, smoke, harness):
        plain.append(sum(harness.invoke(c, "full", threads=1).wall_s for c in wl.commands))
        per_layer: dict[str, float] = {}
        wall = 0.0
        for c in wl.commands:
            sample = harness.invoke(c, "full", threads=1, traced=True)
            wall += sample.wall_s
            if sample.ok:
                for key, value in tracer.layer_metrics(harness.last_spans).items():
                    per_layer[key] = per_layer.get(key, 0) + value
        traced.append(wall)
        layers.append(per_layer)
        if wl.parallel:
            pool["full1"].append(plain[-1])
            for threads in (1, 2):
                pool[f"setup{threads}"].append(
                    sum(harness.invoke(c, "setup", threads=threads).wall_s for c in wl.commands))
            pool["full2"].append(sum(harness.invoke(c, "full").wall_s for c in wl.commands))

    values = {key: statistics.median(d.get(key, 0) for d in layers) for key in tracer.LAYER_UNITS}
    values["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    if wl.parallel:
        rate1 = steady_rate(wl.steady_reps, pool["full1"], pool["setup1"])
        rate2 = steady_rate(wl.steady_reps, pool["full2"], pool["setup2"])
        values.update({"_pool.speedup": rate2 / rate1,
                       "_pool.reps_per_s.threads1": rate1, "_pool.reps_per_s.threads2": rate2})
    else:
        # the workload has no parallel path; 0 marks "not measured"
        values.update({"_pool.speedup": 0.0,
                       "_pool.reps_per_s.threads1": 0.0, "_pool.reps_per_s.threads2": 0.0})
    spread = {"untraced_wall_s": quartiles(plain), "traced_wall_s": quartiles(traced)}
    spread.update({k: quartiles(v) for k, v in pool.items() if v})
    return values, spread


# --------------------------------------------------------------------------
# environment record
# --------------------------------------------------------------------------

def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return None


def environment() -> dict:
    import scipy

    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor() or None)
    caches = {}
    for index in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}"
        level, size = _read(f"{base}/level"), _read(f"{base}/size")
        if level and size and level.strip() in ("2", "3"):
            caches[f"l{level.strip()}_cache"] = size.strip()
    blas = {
        lib.__name__: "{name} {version}".format_map(lib.show_config(mode="dicts")["Build Dependencies"]["blas"])
        for lib in (np, scipy)
    }
    commit = dirty = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        git = ["git", "-C", str(ROOT)]
        commit = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True).stdout.strip()
        dirty = bool(subprocess.run(git + ["status", "--porcelain"], capture_output=True, text=True).stdout)
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        **caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_env": {key: os.environ.get(key) for key in BLAS_ENV},
        "git_commit": commit,
        "git_dirty": dirty,
    }


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WHY))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; {HELDOUT_SEED} is held out "
                             "for confirming a gain on inputs not used in tuning)")
    parser.add_argument("--seconds", type=float, default=25.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one iteration at minimal size, to test the benchmark itself")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "randomx_eval" / "cli.py").is_file():
        print(f"error: no randomx_eval package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        wl = make_workload(args.workload, args.seed, workdir, ROOT, smoke=args.smoke)
        harness = Harness(workdir, time.monotonic() + RUN_DEADLINE_S)
        run = traced_run if args.trace else untraced_run
        values, spread = run(wl, harness, args.seconds, args.smoke)
        if args.trace:
            spans = harness.last_spans
            if spans is not None:
                (OUT / f"spans-{args.workload}.json").write_text(json.dumps(spans))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    result = {
        "correct": harness.failed == 0,
        "attempted": harness.attempted,
        "failed": harness.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    record = {
        "workload": args.workload, "why": wl.why, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "fail_frac": harness.failed / max(harness.attempted, 1),
        "problems": harness.problems, "spread": spread,
        "environment": environment(), "result": result,
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    for problem in harness.problems:
        print(f"FAILED {problem}")
    print(f"{args.workload} seed={args.seed} trace={args.trace}: fail_frac {record['fail_frac']:.4g} "
          f"({harness.failed} of {harness.attempted} invocations failed)")
    for name, stats in spread.items():
        print(f"  {name:<28} median {stats['median']:.6g}  q1 {stats['q1']:.6g}  "
              f"q3 {stats['q3']:.6g}  n={stats['n']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
