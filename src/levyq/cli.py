"""Batch front end: solve / validate / matrix subcommands over a JSON config.

The config format accepts numbers either as JSON numbers or as decimal /
rational strings ("0.002", "1/500"); grid arithmetic is validated with exact
rationals so that near-multiples are rejected instead of silently rounded.
Only a JSON float, itself a rounded decimal, may miss a multiple of
grid.delta, by at most 1e-9 of the step count.
Outputs are plain CSV files (17 significant digits, round-trippable) plus a
JSON run manifest echoing the full configuration and the SHA-256 digest of
every written file; re-running a manifest reproduces the outputs bit for
bit.

Exit codes: 0 success, 2 invalid configuration, 3 certification requirement
not met (e.g. the M/G/1 bound with an infinite-mean job-size law),
4 validation failure (empirical distance exceeded the certified bound plus
its statistical allowance, see ``run_validate``).
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import jobsize, oracle, solver
from .errors import CertificationError, ConfigError, LevyqError
from .kernel import ModelKind, ModelSpec, build_kernel
from .measure import WORK_BUDGET, GeneralMeasure, Grid, LiftedDistribution

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
    "tabulated": (jobsize.TabulatedCdf, ("xs", "cdf")),
}  # family: (constructor, its arguments in order)


_CONFIG_KEYS = (
    "model", "grid", "initial", "horizon", "bound_mode", "queries", "validation",
    "output",
)


def _as_fraction(value, what: str) -> Fraction:
    """Exact value of a JSON number or a decimal / rational string (finite only)."""
    if isinstance(value, bool):  # JSON true / false, though Python's bool is an int
        raise ConfigError(f"{what}: expected a number, got {value!r}")
    try:
        if isinstance(value, str):
            return Fraction(value)
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, float):
            return Fraction(value).limit_denominator(10**12)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:  # NaN, inf
        raise ConfigError(f"{what}: cannot parse {value!r} as a number") from exc
    raise ConfigError(f"{what}: cannot parse {value!r} as a number")


def _as_float(value, what: str) -> float:
    if isinstance(value, str):
        value = _as_fraction(value, what)
    elif isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{what}: expected a number, got {value!r}")
    try:
        out = float(value)
    except OverflowError:  # an integer or fraction beyond the float range
        out = math.inf
    if not math.isfinite(out):
        raise ConfigError(f"{what}: expected a finite number, got {value!r}")
    return out


def _as_int(value, what: str) -> int:
    frac = _as_fraction(value, what)
    if frac.denominator != 1:
        raise ConfigError(f"{what}: expected an integer, got {value!r}")
    return int(frac)


def _as_object(value, what: str, keys: tuple[str, ...]) -> dict:
    """``value`` as a JSON object whose keys are all among ``keys``.

    A key this version ignores would make a replayed run differ from the run
    that wrote it, so it is refused rather than dropped.
    """
    if not isinstance(value, dict):
        raise ConfigError(f"{what} must be a JSON object, got {value!r}")
    unknown = sorted(set(value) - set(keys))
    if unknown:
        raise ConfigError(f"unknown {what} keys {unknown}; known: {list(keys)}")
    return value


def _as_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{what} must be a JSON list, got {value!r}")
    return value


def _job_param(name: str, value):
    what = f"job.params.{name}"
    if name == "shape":
        return _as_int(value, what)
    if name in ("xs", "cdf"):  # tabulated knots and CDF values
        return np.array([_as_float(v, what) for v in _as_list(value, what)])
    return _as_float(value, what)


def parse_job(cfg: dict) -> jobsize.JobSize:
    family = cfg.get("family")
    if family not in _FAMILIES:
        raise ConfigError(f"unknown job-size family {family!r}")
    cls, names = _FAMILIES[family]
    params = _as_object(cfg.get("params", {}), "model.job.params", names)
    missing = [k for k in names if k not in params]
    if missing:
        raise ConfigError(f"job family {family!r} is missing parameters {missing}")
    args = [_job_param(k, params[k]) for k in names]
    try:
        return cls(*args)
    except ValueError as exc:
        raise ConfigError(f"invalid job-size parameters: {exc}") from exc


def parse_initial(cfg: dict) -> GeneralMeasure:
    if "dirac" in cfg:
        others = sorted(set(cfg) & {"atoms", "uniform_pieces"})
        if others:
            named = ", ".join(f"initial.{k}" for k in others)
            raise ConfigError(f"initial.dirac cannot be combined with {named}")
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
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid initial law: {exc}") from exc


class RunConfig:
    """Validated run configuration (see README for the schema)."""

    def __init__(self, raw: dict):
        self.raw = _as_object(raw, "config", _CONFIG_KEYS)
        model = _as_object(raw.get("model"), "model", ("kind", "lambda", "job"))
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
        job = parse_job(
            _as_object(model.get("job", {}), "model.job", ("family", "params"))
        )
        self.spec = ModelSpec(kind, lam, job)

        grid = _as_object(raw.get("grid"), "grid", ("delta", "m"))
        delta_frac = _as_fraction(grid.get("delta"), "grid.delta")
        m_frac = _as_fraction(grid.get("m"), "grid.m")
        if delta_frac <= 0 or m_frac <= 0:
            raise ConfigError("grid.delta and grid.m must be positive")
        self.delta_frac = delta_frac
        self.delta = float(delta_frac)
        self.grid = Grid(self.delta, self._steps_of(grid.get("m"), "grid.m"))

        self.initial = parse_initial(
            _as_object(raw.get("initial", {}), "initial", ("dirac", "atoms", "uniform_pieces"))
        )

        horizon = _as_object(raw.get("horizon"), "horizon", ("t_end", "snapshot_times"))
        self.horizon_steps = self._steps_of(horizon.get("t_end"), "horizon.t_end")
        snapshot_set = {0, self.horizon_steps}
        for t in _as_list(horizon.get("snapshot_times", []), "horizon.snapshot_times"):
            snapshot_set.add(self._time_step(t, "horizon.snapshot_times"))

        self.bound_mode = raw.get("bound_mode", "refined")
        if self.bound_mode not in ("basic", "refined"):
            raise ConfigError("bound_mode must be 'basic' or 'refined'")

        self.queries = []
        for q in _as_list(raw.get("queries", []), "queries"):
            q = _as_object(q, "queries entry", ("time", "threshold", "slack"))
            step = self._time_step(q.get("time"), "queries.time")
            snapshot_set.add(step)  # certified answers need a snapshot there
            slack = _as_float(q.get("slack"), "queries.slack")
            if slack <= 0:
                raise ConfigError(f"queries.slack must be positive, got {slack!r}")
            self.queries.append(
                {
                    "time": float(_as_fraction(q["time"], "queries.time")),
                    "step": step,
                    "threshold": _as_float(q.get("threshold"), "queries.threshold"),
                    "slack": slack,
                }
            )
        self.snapshot_steps = sorted(snapshot_set)
        val = _as_object(
            raw.get("validation", {}), "validation", ("enabled", "n_paths", "seed")
        )
        self.validation_enabled = val.get("enabled", True)
        if not isinstance(self.validation_enabled, bool):
            raise ConfigError(
                "validation.enabled must be a JSON boolean (true or false), "
                f"got {self.validation_enabled!r}"
            )
        self.n_paths = _as_int(val.get("n_paths", 100_000), "validation.n_paths")
        if self.n_paths < 2:
            raise ConfigError(f"validation.n_paths must be >= 2, got {self.n_paths}")
        self.seed = _as_int(val.get("seed", 42), "validation.seed")
        if self.seed < 0:
            raise ConfigError(f"validation.seed must be >= 0, got {self.seed}")
        # snapshot i is simulated and resampled with seed + i
        if self.seed + len(self.snapshot_steps) - 1 >= 2**64:
            raise ConfigError(
                f"validation.seed + {len(self.snapshot_steps) - 1} (one per snapshot "
                f"after the first) must stay below 2**64, got seed {self.seed}"
            )
        self.output = raw.get("output")
        if self.output is not None and not isinstance(self.output, str):
            raise ConfigError(f"output must be a directory path string, got {self.output!r}")

    def _steps_of(self, value, what: str) -> int:
        ratio = _as_fraction(value, what) / self.delta_frac
        steps = round(ratio)
        tol = Fraction(1, 10**9) * max(1, steps) if isinstance(value, float) else 0
        if abs(ratio - steps) > tol:
            raise ConfigError(f"{what} = {value} is not a multiple of grid.delta")
        if steps < 0:
            raise ConfigError(f"{what} must be >= 0")
        return int(steps)

    def _time_step(self, value, what: str) -> int:
        """Grid step of a snapshot or query time, which must not pass t_end."""
        step = self._steps_of(value, what)
        if step > self.horizon_steps:
            raise ConfigError(f"{what} = {value} is past horizon.t_end")
        return step


def load_config(path: str) -> RunConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:  # a directory, unreadable, not UTF-8
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
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


_BLOCK_VALUES = WORK_BUDGET  # values formatted by one `%`: 2 048 density rows


def _write_csv(path: Path, header: list[str], blocks) -> str:
    """Write a CSV file from blocks of (row format, values); return its SHA-256.

    Numbers are formatted with "%.17g" (17 significant digits,
    round-trippable).  Each block is one ``format % values`` over a few
    thousand values, and its bytes are hashed as they are written, so no file
    is held whole in memory or read back for its digest.
    """
    sha = hashlib.sha256()
    texts = (fmt % tuple(values) for fmt, values in blocks)
    with path.open("wb") as f:
        for text in itertools.chain([",".join(header) + "\n"], texts):
            data = text.encode()
            f.write(data)
            sha.update(data)
    return sha.hexdigest()


def _rows_per_block(n_values: int) -> int:
    return max(1, _BLOCK_VALUES // n_values)


def _block_formats(labels, n_values: int):
    """Row formats of a table, joined per block of rows.

    Row i is the i-th of ``labels`` (literal leading cells, each followed by a
    comma) and then ``n_values`` cells in "%.17g".  ``labels`` may be lazy;
    only one block of it is held at a time.
    """
    cells = ",".join(["%.17g"] * n_values) + "\n"
    labels = iter(labels)
    while block := list(itertools.islice(labels, _rows_per_block(n_values))):
        yield "".join(label + cells for label in block)


def _table_blocks(formats, table: np.ndarray):
    """Pair each block format of :func:`_block_formats` with its rows' values."""
    step = _rows_per_block(table.shape[1])
    for start, fmt in zip(range(0, len(table), step), formats, strict=True):
        yield fmt, table[start:start + step].ravel().tolist()


def _density_formats(grid: Grid) -> list[str]:
    """Block formats of a density file's interval rows, "<lo>,<hi>,%.17g,%.17g".

    The grid edges are formatted once per run here, with one ``%`` over each
    block's edges, and every snapshot fills in only its mass and density.
    """
    edges = grid.edges()
    step = _rows_per_block(2)
    formats = []
    for start in range(0, grid.m_delta, step):
        rows = min(step, grid.m_delta - start)
        cells = ("%.17g," * (rows + 1) % tuple(edges[start:start + rows + 1].tolist()))
        cells = cells.split(",")
        pairs = [""] * (2 * rows)  # lo and hi of each row, interleaved
        pairs[0::2] = cells[:rows]
        pairs[1::2] = cells[1:rows + 1]
        formats.append("%s,%s,%%.17g,%%.17g\n" * rows % tuple(pairs))
    return formats


def _density_blocks(formats: list[str], dist: LiftedDistribution):
    """Pair each density block format with its rows' (mass, density) values.

    One block of rows is filled at a time from a slice of the masses (the
    density is ``dist.densities()`` slice by slice), so no whole table is built.
    """
    mass, delta = dist.interval_mass, dist.grid.delta
    step = _rows_per_block(2)
    rows = np.empty((step, 2))
    for start, fmt in zip(range(0, len(mass), step), formats, strict=True):
        block = mass[start:start + step]
        table = rows[: len(block)]
        table[:, 0] = block
        np.divide(block, delta, out=table[:, 1])
        yield fmt, table.ravel().tolist()


def _write_density(path: Path, dist: LiftedDistribution, formats: list[str]) -> str:
    """One snapshot's density file: the atom at 0 (no density), then the intervals."""
    atom = ("0,0,%.17g,\n", (dist.atom0,))
    return _write_csv(
        path,
        ["interval_lo", "interval_hi", "mass", "density"],
        itertools.chain([atom], _density_blocks(formats, dist)),
    )


def _time_label(t: float) -> str:
    return f"{t:.6f}".rstrip("0").rstrip(".").replace(".", "_")


def _solve(cfg: RunConfig) -> solver.TransientResult:
    return solver.solve(
        cfg.spec,
        cfg.grid,
        cfg.initial,
        cfg.horizon_steps,
        snapshot_steps=cfg.snapshot_steps,
        bound_mode=cfg.bound_mode,
    )


def run_solve(cfg: RunConfig, out_dir: Path) -> tuple[int, dict]:
    names = [f"density_t{_time_label(k * cfg.grid.delta)}.csv" for k in cfg.snapshot_steps]
    if len(set(names)) < len(names):
        raise ConfigError(f"snapshot times share density files (6 decimals): {names}")
    result = _solve(cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    files = {}
    formats = _density_formats(cfg.grid)
    for name, dist in zip(names, result.distributions, strict=True):
        files[name] = _write_density(out_dir / name, dist, formats)
    ledger = result.ledger.table(cfg.grid.delta)
    files["ledger.csv"] = _write_csv(
        out_dir / "ledger.csv",
        ["step", "time", *solver.StepComponents._fields, "cumulative"],
        _table_blocks(_block_formats(itertools.repeat("", len(ledger)), ledger.shape[1]), ledger),
    )

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
    return EXIT_OK, files


def run_validate(cfg: RunConfig, out_dir: Path) -> tuple[int, dict]:
    """Check each snapshot's certified bound against exact sample paths.

    A snapshot passes when the empirical W1 ``est`` of ``n_paths`` paths is
    at most ``bound + bias + 3 * se``: ``se`` is the bootstrap standard
    error and ``bias`` the allowance for the empirical W1's upward bias
    (:func:`oracle.bias_allowance`), which shrinks like n_paths^-1/2.
    """
    if not cfg.validation_enabled:
        raise ConfigError("validation.enabled is false; nothing to validate")
    if cfg.horizon_steps == 0:  # only t = 0, which validate skips
        raise ConfigError("horizon.t_end is 0; nothing to validate")
    result = _solve(cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
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
        bias = oracle.bias_allowance(dist, cfg.n_paths)
        passed = est <= bound + bias + 3.0 * se
        ok = ok and passed
        status = "pass" if passed else "fail"
        rows.append(("%.17g,%.17g,%.17g,%.17g,%.17g," + status + ",%.17g\n",
                     (float(t), float(cfg.n_paths), est, se, float(bound), bias)))
        print(
            f"t={t:g}: empirical {est:.6e} vs bound {bound:.6e} + bias {bias:.2e} "
            f"+ 3*{se:.2e} -> {'pass' if passed else 'FAIL'}"
        )
    files = {"validation.csv": _write_csv(
        out_dir / "validation.csv",
        ["time", "n_paths", "empirical_wd", "std_error", "certified_bound", "status",
         "bias_allowance"],
        rows,
    )}
    return (EXIT_OK if ok else EXIT_VALIDATION), files


def run_matrix(cfg: RunConfig, out_dir: Path) -> tuple[int, dict]:
    if cfg.grid.m_delta > 2000:
        raise ConfigError(
            "matrix dump is meant for small grids (m_delta <= 2000); "
            f"got {cfg.grid.m_delta}"
        )
    out_dir.mkdir(parents=True, exist_ok=True)
    kern = build_kernel(cfg.spec, cfg.grid)
    dense = kern.dense()
    states = kern.states()
    labels = (f"{int(i)}," for i in states)
    digest = _write_csv(
        out_dir / "matrix.csv",
        ["state"] + [str(int(j)) for j in states],
        _table_blocks(_block_formats(labels, dense.shape[1]), dense),
    )
    print(f"wrote {dense.shape[0]}x{dense.shape[1]} matrix to {out_dir/'matrix.csv'}")
    return EXIT_OK, {"matrix.csv": digest}


def _write_manifest(cfg: RunConfig, out_dir: Path, command: str, files: dict) -> None:
    manifest = {
        "command": command,
        "config": {**cfg.raw, "bound_mode": cfg.bound_mode},  # effective config
        "outputs": files,
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))


def _check_out_dir(out_dir: Path) -> None:
    """Refuse an output path that cannot become a directory; create nothing.

    The path, or else its nearest existing ancestor, must be a directory, so
    a run is not thrown away at the end for want of a place to write.
    """
    existing = next(p for p in (out_dir, *out_dir.parents) if p.exists() or p.is_symlink())
    if not existing.is_dir():
        raise ConfigError(f"output directory {out_dir}: {existing} is not a directory")


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
        if name != "matrix":  # the transition matrix does not depend on it
            p.add_argument("--bound-mode", choices=["basic", "refined"], default=None)
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        if getattr(args, "bound_mode", None):
            cfg.bound_mode = args.bound_mode
        out_dir = Path(args.out or cfg.output or "levyq-out")
        _check_out_dir(out_dir)
        runner = {"solve": run_solve, "validate": run_validate, "matrix": run_matrix}[
            args.command
        ]
        code, files = runner(cfg, out_dir)
        _write_manifest(cfg, out_dir, args.command, files)
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
