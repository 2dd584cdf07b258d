"""Batch front end: solve / validate / matrix subcommands over a JSON config.

The config format accepts numbers either as JSON numbers or as decimal /
rational strings ("0.002", "1/500"); grid arithmetic is validated with exact
rationals so that near-multiples are rejected instead of silently rounded.
Outputs are plain CSV files (17 significant digits, round-trippable) plus a
JSON run manifest echoing the full configuration and the SHA-256 digest of
every written file; re-running a manifest reproduces the outputs bit for
bit.

Exit codes: 0 success, 2 invalid configuration, 3 certification requirement
not met (e.g. the M/G/1 bound with an infinite-mean job-size law),
4 validation failure (empirical distance exceeded the certified bound).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import jobsize, oracle, solver
from .errors import CertificationError, ConfigError, LevyqError
from .kernel import ModelKind, ModelSpec, build_kernel
from .measure import GeneralMeasure

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CERTIFICATION = 3
EXIT_VALIDATION = 4

_FAMILIES = {
    "uniform": (jobsize.Uniform, ("lo", "hi")),
    "exponential": (jobsize.Exponential, ("rate",)),
    "erlang": (jobsize.Erlang, ("shape", "rate")),
    "pareto": (jobsize.Pareto, ("x_min", "alpha")),
    "deterministic": (jobsize.Deterministic, ("value",)),
}


_CONFIG_KEYS = (
    "model", "grid", "initial", "horizon", "bound_mode", "queries", "validation",
    "output",
)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _as_fraction(value, what: str) -> Fraction:
    try:
        if isinstance(value, str):
            return Fraction(value)
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, float):
            return Fraction(value).limit_denominator(10**12)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"{what}: cannot parse {value!r} as a number") from exc
    raise ConfigError(f"{what}: cannot parse {value!r} as a number")


def _as_float(value, what: str) -> float:
    if isinstance(value, str):
        return float(_as_fraction(value, what))
    if isinstance(value, (int, float)):
        return float(value)
    raise ConfigError(f"{what}: expected a number, got {value!r}")


def parse_job(cfg: dict) -> jobsize.JobSize:
    family = cfg.get("family")
    if family == "tabulated":
        params = cfg.get("params", {})
        return jobsize.TabulatedCdf(
            np.asarray(params["xs"], dtype=float),
            np.asarray(params["cdf"], dtype=float),
        )
    if family not in _FAMILIES:
        raise ConfigError(f"unknown job-size family {family!r}")
    cls, names = _FAMILIES[family]
    params = cfg.get("params", {})
    missing = [k for k in names if k not in params]
    if missing:
        raise ConfigError(f"job family {family!r} is missing parameters {missing}")
    kwargs = {}
    for k in names:
        v = params[k]
        kwargs[k] = int(v) if k == "shape" else _as_float(v, f"job.params.{k}")
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"invalid job-size parameters: {exc}") from exc


def parse_initial(cfg: dict) -> GeneralMeasure:
    try:
        if "dirac" in cfg:
            return GeneralMeasure.dirac(_as_float(cfg["dirac"], "initial.dirac"))
        atoms = [
            (_as_float(x, "initial.atoms"), _as_float(w, "initial.atoms"))
            for x, w in cfg.get("atoms", [])
        ]
        pieces = [
            (
                _as_float(a, "initial.uniform_pieces"),
                _as_float(b, "initial.uniform_pieces"),
                _as_float(w, "initial.uniform_pieces"),
            )
            for a, b, w in cfg.get("uniform_pieces", [])
        ]
        return GeneralMeasure(atoms=atoms, pieces=pieces)
    except ValueError as exc:
        raise ConfigError(f"invalid initial law: {exc}") from exc


class RunConfig:
    """Validated run configuration (see README for the schema)."""

    def __init__(self, raw: dict):
        self.raw = raw
        # a key this version ignores would make a replayed run differ from
        # the run that wrote it, so it is refused rather than dropped
        unknown = sorted(set(raw) - set(_CONFIG_KEYS))
        if unknown:
            raise ConfigError(
                f"unknown config keys {unknown}; known: {list(_CONFIG_KEYS)}"
            )
        model = raw.get("model")
        if not isinstance(model, dict):
            raise ConfigError("config needs a 'model' object")
        kind_name = model.get("kind")
        try:
            kind = ModelKind(kind_name)
        except ValueError:
            raise ConfigError(
                f"model.kind must be 'mg1' or 'spectrally_negative', got {kind_name!r}"
            ) from None
        lam = _as_float(model.get("lambda"), "model.lambda")
        if lam <= 0:
            raise ConfigError("model.lambda must be positive")
        job = parse_job(model.get("job", {}))
        absorbing = bool(model.get("absorbing_zero", False))
        try:
            self.spec = ModelSpec(kind, lam, job, absorbing)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

        grid = raw.get("grid")
        if not isinstance(grid, dict):
            raise ConfigError("config needs a 'grid' object")
        delta_frac = _as_fraction(grid.get("delta"), "grid.delta")
        m_frac = _as_fraction(grid.get("m"), "grid.m")
        if delta_frac <= 0 or m_frac <= 0:
            raise ConfigError("grid.delta and grid.m must be positive")
        ratio = m_frac / delta_frac
        m_delta = round(ratio)
        if abs(ratio - m_delta) > Fraction(1, 10**9) * max(1, m_delta):
            raise ConfigError(
                f"grid.m = {grid.get('m')} is not a multiple of delta = {grid.get('delta')}"
            )
        self.delta = float(delta_frac)
        self.grid = self.spec.grid_for(self.delta, int(m_delta))
        self.delta_frac = delta_frac

        self.initial = parse_initial(raw.get("initial", {}))

        horizon = raw.get("horizon")
        if not isinstance(horizon, dict):
            raise ConfigError("config needs a 'horizon' object")
        t_end = _as_fraction(horizon.get("t_end"), "horizon.t_end")
        self.horizon_steps = self._steps_of(t_end, "horizon.t_end")
        self.snapshot_steps = sorted(
            {self._steps_of(_as_fraction(t, "snapshot_times"), "snapshot_times")
             for t in horizon.get("snapshot_times", [])}
            | {0, self.horizon_steps}
        )

        self.bound_mode = raw.get("bound_mode", "refined")
        if self.bound_mode not in ("basic", "refined"):
            raise ConfigError("bound_mode must be 'basic' or 'refined'")

        self.queries = []
        snapshot_set = set(self.snapshot_steps)
        for q in raw.get("queries", []):
            t = _as_fraction(q.get("time"), "queries.time")
            step = self._steps_of(t, "queries.time")
            snapshot_set.add(step)  # certified answers need a snapshot there
            self.queries.append(
                {
                    "time": float(t),
                    "step": step,
                    "threshold": _as_float(q.get("threshold"), "queries.threshold"),
                    "slack": _as_float(q.get("slack"), "queries.slack"),
                }
            )
        self.snapshot_steps = sorted(snapshot_set)
        val = raw.get("validation", {})
        self.validation_enabled = bool(val.get("enabled", False))
        self.n_paths = int(val.get("n_paths", 100_000))
        self.seed = int(val.get("seed", 42))
        self.output = raw.get("output")

    def _steps_of(self, t: Fraction, what: str) -> int:
        ratio = t / self.delta_frac
        steps = round(ratio)
        if abs(ratio - steps) > Fraction(1, 10**9) * max(1, steps):
            raise ConfigError(f"{what} = {t} is not a multiple of grid.delta")
        if steps < 0:
            raise ConfigError(f"{what} must be >= 0")
        return int(steps)


def load_config(path: str) -> RunConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    if "config" in raw and isinstance(raw["config"], dict):
        raw = raw["config"]  # accept a previously written manifest
    return RunConfig(raw)


# ---------------------------------------------------------------------------
# output writers
# ---------------------------------------------------------------------------


def _write_csv(path: Path, header: list[str], rows) -> None:
    with path.open("w") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(x if isinstance(x, str) else _fmt(x) for x in row) + "\n")


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _time_label(t: float) -> str:
    return f"{t:.6f}".rstrip("0").rstrip(".").replace(".", "_")


def run_solve(cfg: RunConfig, out_dir: Path) -> tuple[int, dict]:
    out_dir.mkdir(parents=True, exist_ok=True)
    result = solver.solve(
        cfg.spec,
        cfg.grid,
        cfg.initial,
        cfg.horizon_steps,
        snapshot_steps=cfg.snapshot_steps,
        bound_mode=cfg.bound_mode,
    )
    files = {}
    for t, dist in zip(result.times, result.distributions):
        name = f"density_t{_time_label(t)}.csv"
        _write_csv(
            out_dir / name,
            ["interval_lo", "interval_hi", "mass", "density"],
            dist.to_csv_rows(),
        )
        files[name] = _digest(out_dir / name)
    _write_csv(
        out_dir / "ledger.csv",
        ["step", "time", "jump_aggregation", "jump_cut", "truncation_weighted",
         "slack", "cumulative"],
        result.ledger.rows(cfg.grid.delta),
    )
    files["ledger.csv"] = _digest(out_dir / "ledger.csv")

    print(f"{'time':>10} {'bound':>14} {'P(Q=0)':>12} {'mean':>12}")
    for t, dist, b in zip(result.times, result.distributions, result.bounds):
        print(f"{t:>10.4g} {b:>14.6e} {dist.atom0:>12.6g} {dist.mean():>12.6g}")
    for q in cfg.queries:
        idx = int(np.searchsorted(result.snapshot_steps, q["step"]))
        lo, hi = solver.certified_tail(result, idx, q["threshold"], q["slack"])
        print(
            f"P(Q > {q['threshold']:g}) at t={q['time']:g} with slack {q['slack']:g}: "
            f"[{lo:.6g}, {hi:.6g}]"
        )
    return EXIT_OK, {"files": files, "result": result}


def run_validate(cfg: RunConfig, out_dir: Path) -> tuple[int, dict]:
    out_dir.mkdir(parents=True, exist_ok=True)
    result = solver.solve(
        cfg.spec,
        cfg.grid,
        cfg.initial,
        cfg.horizon_steps,
        snapshot_steps=cfg.snapshot_steps,
        bound_mode=cfg.bound_mode,
    )
    rows = []
    ok = True
    for i, (t, dist, bound) in enumerate(
        zip(result.times, result.distributions, result.bounds)
    ):
        if t == 0.0:
            continue
        samples = oracle.simulate(
            oracle.SimConfig(cfg.spec, cfg.initial, float(t), cfg.n_paths, cfg.seed + i)
        )
        est, se = oracle.empirical_wasserstein(samples, dist, seed=cfg.seed + i)
        passed = est <= bound + 3.0 * se
        ok = ok and passed
        rows.append((float(t), float(cfg.n_paths), est, se, float(bound),
                     "pass" if passed else "fail"))
        print(
            f"t={t:g}: empirical {est:.6e} vs bound {bound:.6e} + 3*{se:.2e} "
            f"-> {'pass' if passed else 'FAIL'}"
        )
    _write_csv(
        out_dir / "validation.csv",
        ["time", "n_paths", "empirical_wd", "std_error", "certified_bound", "status"],
        rows,
    )
    files = {"validation.csv": _digest(out_dir / "validation.csv")}
    return (EXIT_OK if ok else EXIT_VALIDATION), {"files": files}


def run_matrix(cfg: RunConfig, out_dir: Path) -> tuple[int, dict]:
    if cfg.grid.m_delta > 2000:
        raise ConfigError(
            "matrix dump is meant for small grids (m_delta <= 2000); "
            f"got {cfg.grid.m_delta}"
        )
    out_dir.mkdir(parents=True, exist_ok=True)
    kern = build_kernel(cfg.spec, cfg.grid)
    dense = kern.dense()
    states = cfg.grid.states()
    header = ["state"] + [str(int(j)) for j in states]
    rows = ([str(int(i))] + list(dense[a]) for a, i in enumerate(states))
    _write_csv(out_dir / "matrix.csv", header, rows)
    print(f"wrote {dense.shape[0]}x{dense.shape[1]} matrix to {out_dir/'matrix.csv'}")
    return EXIT_OK, {"files": {"matrix.csv": _digest(out_dir / "matrix.csv")}}


def _write_manifest(cfg: RunConfig, out_dir: Path, command: str, files: dict) -> None:
    manifest = {
        "command": command,
        "config": {**cfg.raw, "bound_mode": cfg.bound_mode},  # effective config
        "outputs": files,
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="levyq",
        description="Certified transient analysis of queues with one-sided "
        "compound-Poisson input",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("solve", "run the discretized chain and write densities + bound ledger"),
        ("validate", "compare the certified bound against exact Monte Carlo paths"),
        ("matrix", "dump the dense transition matrix (small grids only)"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="JSON config file (or a previous manifest)")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--bound-mode", choices=["basic", "refined"], default=None)
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        if args.bound_mode:
            cfg.bound_mode = args.bound_mode
        out_dir = Path(args.out or cfg.output or "levyq-out")
        runner = {"solve": run_solve, "validate": run_validate, "matrix": run_matrix}[
            args.command
        ]
        code, extra = runner(cfg, out_dir)
        _write_manifest(cfg, out_dir, args.command, extra.get("files", {}))
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CertificationError as exc:
        print(f"certification error: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATION
    except LevyqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
