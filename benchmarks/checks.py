"""Correctness checks on the outputs of one levyq CLI run.

An *operation* is one CLI run, plus one per snapshot that ``validate``
checked against the oracle.  A CLI run fails when it exits non-zero or when
any of its outputs fails a check below; a validated snapshot fails when its
empirical distance exceeds ``bound + 3 * se``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

MASS_TOL = 1e-9  # same tolerance as levyq's DiscreteDist check
LEDGER_RTOL = 1e-12


@dataclass
class Outcome:
    problems: list[str] = field(default_factory=list)  # of the CLI run as a whole
    snapshots: int = 0
    snapshots_failed: int = 0
    final_bound: float | None = None
    digests: dict = field(default_factory=dict)
    bytes_written: int = 0

    @property
    def attempted(self) -> int:
        return 1 + self.snapshots

    @property
    def failed(self) -> int:
        return int(bool(self.problems)) + self.snapshots_failed


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _rows(path: Path) -> list[dict]:
    with path.open(newline="") as f:
        return list(csv.DictReader(f))


def density_problems(path: Path) -> list[str]:
    masses = [float(r["mass"]) for r in _rows(path)]
    problems = []
    if any(m < 0.0 for m in masses):
        problems.append(f"{path.name}: negative mass")
    total = math.fsum(masses)
    if abs(total - 1.0) > MASS_TOL:
        problems.append(f"{path.name}: masses sum to {total!r}")
    return problems


@dataclass
class Ledger:
    cumulative: list[float]
    components: list[tuple[float, float, float, float]]  # per step >= 1

    @property
    def b0(self) -> float:
        return self.cumulative[0]

    @property
    def final(self) -> float:
        return self.cumulative[-1]


_COMPONENTS = ("jump_aggregation", "jump_cut", "truncation_weighted", "slack")


def parse_ledger(path: Path) -> Ledger:
    rows = _rows(path)
    return Ledger(
        cumulative=[float(r["cumulative"]) for r in rows],
        components=[tuple(float(r[c]) for c in _COMPONENTS) for r in rows[1:]],
    )


def ledger_problems(ledger: Ledger, delta: float) -> list[str]:
    """Cumulative is non-decreasing, b0 <= delta, and cumulative equals b0
    plus the running sum of the step components (summed as the solver does)."""
    problems = []
    b0 = ledger.b0
    if not 0.0 <= b0 <= delta:
        problems.append(f"ledger: b0 = {b0!r} outside [0, delta = {delta!r}]")
    cum = ledger.cumulative
    if any(b < a for a, b in zip(cum, cum[1:])):
        problems.append("ledger: cumulative decreases")
    running = 0.0
    for k, comps in enumerate(ledger.components, start=1):
        running += sum(comps)
        expected = b0 + running
        if abs(cum[k] - expected) > LEDGER_RTOL * abs(expected):
            problems.append(
                f"ledger: cumulative[{k}] = {cum[k]!r}, components give {expected!r}"
            )
            break
    return problems


def check_run(out_dir: Path, exit_code: int, delta: float) -> Outcome:
    """Check every output of one CLI run in out_dir."""
    res = Outcome()
    if exit_code != 0:
        res.problems.append(f"exit code {exit_code}")
    manifest_path = out_dir / "manifest.json"
    if not manifest_path.is_file():
        res.problems.append("no manifest.json")
        return res
    res.digests = json.loads(manifest_path.read_text()).get("outputs", {})
    for name, digest in sorted(res.digests.items()):
        path = out_dir / name
        if not path.is_file():
            res.problems.append(f"{name}: listed in the manifest but missing")
        elif sha256_file(path) != digest:
            res.problems.append(f"{name}: digest does not match the manifest")
    res.bytes_written = sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file())

    for path in sorted(out_dir.glob("density_t*.csv")):
        res.problems += density_problems(path)
    ledger_path = out_dir / "ledger.csv"
    if ledger_path.is_file():
        ledger = parse_ledger(ledger_path)
        res.problems += ledger_problems(ledger, delta)
        res.final_bound = ledger.final
    validation_path = out_dir / "validation.csv"
    if validation_path.is_file():
        rows = _rows(validation_path)
        for r in rows:
            res.snapshots += 1
            est, se = float(r["empirical_wd"]), float(r["std_error"])
            bound = float(r["certified_bound"])
            if r["status"] != "pass" or not est <= bound + 3.0 * se:
                res.snapshots_failed += 1
                res.problems.append(
                    f"validation at t={r['time']}: {est!r} > {bound!r} + 3*{se!r}"
                )
        if rows:
            res.final_bound = float(max(rows, key=lambda r: float(r["time"]))["certified_bound"])
    if res.final_bound is None:
        res.problems.append("no certified bound in the outputs")
    return res


class Registry:
    """First-seen output digests and exact counts, per run key.

    A key names one (source tree, config, command); every later run with the
    same key, traced or not, must reproduce the stored digests and counts
    exactly.  Records persist in the checkout across benchmark invocations.
    """

    def __init__(self, directory: Path):
        self.directory = directory
        directory.mkdir(parents=True, exist_ok=True)

    def check(self, key: str, digests: dict, counts: dict) -> list[str]:
        path = self.directory / f"{key}.json"
        ref = json.loads(path.read_text()) if path.is_file() else {"digests": None, "counts": {}}
        problems = []
        if ref["digests"] is None:
            ref["digests"] = digests
        elif ref["digests"] != digests:
            changed = sorted(
                n for n in set(digests) | set(ref["digests"])
                if digests.get(n) != ref["digests"].get(n)
            )
            problems.append(f"replay: output digests differ from the first run: {changed}")
        for name, value in sorted(counts.items()):
            first = ref["counts"].setdefault(name, value)
            if first != value:
                problems.append(f"count drift: {name} = {value!r}, first run had {first!r}")
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(ref, sort_keys=True))
        tmp.replace(path)
        return problems
