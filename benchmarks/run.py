"""Wall time to a certificate: levyq's benchmark.

Usage (from the root of a checkout):

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run of a workload is one levyq CLI command in a fresh, single-threaded
child process, with ``src/`` on PYTHONPATH.  Every run's outputs are checked
(see checks.py), and every run must reproduce the digests and exact counts
of the first run with the same code and config.

``--trace 0`` measures the end-to-end metrics: ``setup_s`` is the median of
several one-step runs, then full runs repeat for ``--seconds`` and report
median ``wall_s`` and ``peak_rss_mb``, and ``final_bound``.  ``--trace 1``
alternates untraced runs with runs of traced_cli.py for ``--seconds`` and
reports the median per-layer metrics plus the tracing overhead.

The metrics printed are those BENCHMARK.json lists.  The last line of
stdout is one JSON object {correct, attempted, failed, metrics}; a full
record with the environment goes to .bench_work/results/.  Exit code 2,
with no result, when the checkout cannot run the benchmark.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from checks import Outcome, Registry, check_run
from spans import EXACT_COUNTS, layer_metrics
from workloads import WORKLOADS, Workload, cli_args, grid_delta, make_config, one_step_config

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
WORK = Path(".bench_work")
SETUP_REPS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
UNTRACED = "import sys; from levyq.cli import main; sys.exit(main())"
PROBE = (
    "import json, platform, numpy, scipy, levyq.cli; print(json.dumps({"
    "'levyq': levyq.cli.__file__, 'python': platform.python_version(), "
    "'numpy': numpy.__version__, 'scipy': scipy.__version__}))"
)


class SetupError(Exception):
    """The checkout cannot run the benchmark."""


@dataclass
class Child:
    code: int
    wall_s: float
    peak_rss_mb: float


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_child(argv: list[str], log_path: Path) -> Child:
    """Run one child to completion; wall time from spawn to exit."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=log,
                                stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0)


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _caches() -> dict:
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            out[f"L{level}"] = size
    return out


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return r.stdout.strip() or None


def preflight(workload: Workload, log_dir: Path) -> dict:
    """Check the checkout can run the workload; warm imports; return versions."""
    missing = [p for p in ("src/levyq/cli.py", workload.config, "BENCHMARK.json")
               if not (ROOT / p).is_file()]
    if missing:
        raise SetupError(f"not a levyq checkout: missing {missing}")
    log = log_dir / "probe.log"
    child = run_child([sys.executable, "-c", PROBE], log)
    if child.code != 0:
        raise SetupError(f"cannot import levyq from src/:\n{log.read_text()}")
    versions = json.loads(log.read_text().splitlines()[-1])
    if not Path(versions["levyq"]).resolve().is_relative_to((ROOT / "src").resolve()):
        raise SetupError(f"levyq imported from {versions['levyq']}, not from src/")
    return versions


def environment(versions: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": versions["python"],
        "numpy": versions["numpy"],
        "scipy": versions["scipy"],
        "git_commit": _git_commit(),
        "source_sha256": source_digest(),
        "threads": {var: "1" for var in THREAD_VARS},
    }


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


class Session:
    """One benchmark invocation: its configs, runs and failure tally."""

    def __init__(self, workload: Workload, seed: int, trace: int, source: str):
        self.workload = workload
        self.dir = WORK / "runs" / f"{workload.name}-seed{seed}-trace{trace}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        base = json.loads((ROOT / workload.config).read_text())
        full = make_config(base, workload, seed)
        self.configs = {"full": full, "setup": one_step_config(full)}
        for name, cfg in self.configs.items():
            (self.dir / f"{name}.json").write_text(json.dumps(cfg, indent=1))
        self.delta = float(grid_delta(full))
        self.source = source
        self.registry = Registry(WORK / "registry")
        self.runs = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def key(self, config: str) -> str:
        ident = {
            "source": self.source,
            "config": self.configs[config],
            "command": [self.workload.command, *self.workload.extra_args],
        }
        return hashlib.sha256(json.dumps(ident, sort_keys=True).encode()).hexdigest()[:32]

    def run(self, config: str, traced: bool = False) -> tuple[Child, Outcome, dict | None]:
        """One CLI run of the named config, checked and tallied."""
        self.runs += 1
        label = f"run {self.runs} ({config}{', traced' if traced else ''})"
        out = self.dir / "out"
        shutil.rmtree(out, ignore_errors=True)
        args = cli_args(self.workload, str(self.dir / f"{config}.json"), str(out))
        spans_path = self.dir / "spans.json"
        spans_path.unlink(missing_ok=True)
        if traced:
            argv = [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(spans_path), *args]
        else:
            argv = [sys.executable, "-c", UNTRACED, *args]
        child = run_child(argv, self.dir / f"run{self.runs}.log")
        outcome = check_run(out, child.code, self.delta)
        counts = {"final_bound": outcome.final_bound}
        layers = None
        if traced:
            if spans_path.is_file():
                data = json.loads(spans_path.read_text())
                layers = layer_metrics(data["spans"], data["facts"], outcome.bytes_written)
                counts.update({name: layers[name][0] for name in EXACT_COUNTS})
                b0 = layers.get("bounds.initial", (None,))[0]
                if b0 is None or not 0.0 <= b0 <= self.delta:
                    outcome.problems.append(f"b0 = {b0!r} outside [0, delta]")
            else:
                outcome.problems.append("traced child wrote no spans")
        outcome.problems += self.registry.check(self.key(config), outcome.digests, counts)
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.problems += [f"{label}: {p}" for p in outcome.problems]
        return child, outcome, layers


def measure_end_to_end(session: Session, seconds: float) -> tuple[dict, dict]:
    setup = [session.run("setup")[0].wall_s for _ in range(SETUP_REPS)]
    walls, rss, bounds = [], [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        child, outcome, _ = session.run("full")
        walls.append(child.wall_s)
        rss.append(child.peak_rss_mb)
        if outcome.final_bound is not None:
            bounds.append(outcome.final_bound)
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "final_bound": (statistics.median(bounds) if bounds else 0.0, "W1"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }
    samples = {"setup_s": setup, "wall_s": walls, "peak_rss_mb": rss, "final_bound": bounds}
    return metrics, samples


def measure_layers(session: Session, seconds: float) -> tuple[dict, dict]:
    plain, traced, layer_runs = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        # alternate which of the pair goes first, so order effects cancel
        for is_traced in (False, True) if len(traced) % 2 == 0 else (True, False):
            child, _, layers = session.run("full", traced=is_traced)
            if is_traced:
                traced.append(child.wall_s)
                if layers is not None:
                    layer_runs.append(layers)
            else:
                plain.append(child.wall_s)
    metrics = {}
    if layer_runs:
        for name, (_, unit) in layer_runs[0].items():
            # median_low keeps counts integral when the number of runs is even
            metrics[name] = (statistics.median_low(run[name][0] for run in layer_runs), unit)
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    samples = {"untraced_wall_s": plain, "traced_wall_s": traced}
    return metrics, samples


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    try:
        (WORK / "runs").mkdir(parents=True, exist_ok=True)
        versions = preflight(workload, WORK / "runs")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except SetupError as exc:
        print(f"benchmark setup failed: {exc}", file=sys.stderr)
        return 2
    env = environment(versions)
    session = Session(workload, args.seed, args.trace, env["source_sha256"])
    if args.trace:
        measured, samples = measure_layers(session, args.seconds)
        wanted = spec["per_layer"]
    else:
        measured, samples = measure_end_to_end(session, args.seconds)
        wanted = spec["end_to_end"]

    metrics = {}
    for entry in wanted:
        name = entry["name"]
        if name not in measured:
            session.problems.append(f"metric {name} was not measured")
            continue
        value, unit = measured[name]
        if unit != entry["unit"]:
            session.problems.append(f"metric {name}: unit {unit}, BENCHMARK.json says {entry['unit']}")
        metrics[name] = {"value": value, "unit": entry["unit"]}

    record = {
        "workload": workload.name, "why": workload.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "environment": env,
        "samples": samples, "metrics": metrics, "attempted": session.attempted,
        "failed": session.failed, "problems": session.problems,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{session.dir.name}.json").write_text(json.dumps(record, indent=1))

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"runs {session.runs}  ops {session.attempted}  failed {session.failed}")
    print("environment " + json.dumps(env, sort_keys=True))
    for name, values in samples.items():
        print(f"  samples {name}: " + " ".join(f"{v:.6g}" for v in values))
    for name, m in metrics.items():
        print(f"  {name:<28} {m['value']:<24.10g} {m['unit']}")
    for problem in session.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    correct = not session.problems and session.failed == 0
    print(json.dumps({"correct": correct, "attempted": session.attempted,
                      "failed": session.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
