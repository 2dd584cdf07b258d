"""CLI: config validation, subcommands, outputs, and manifest round-trips."""

import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from levyq import (
    BoundLedger,
    ConfigError,
    GeneralMeasure,
    Grid,
    LiftedDistribution,
    ModelKind,
    ModelSpec,
    Uniform,
    solve,
)
from levyq.cli import (
    EXIT_CERTIFICATION,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_VALIDATION,
    _as_float,
    _as_fraction,
    _density_formats,
    _solve,
    _write_density,
    load_config,
    main,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def base_config(**overrides):
    cfg = {
        "model": {
            "kind": "mg1",
            "lambda": "1/4",
            "job": {"family": "uniform", "params": {"lo": 1, "hi": 5}},
        },
        "grid": {"delta": "1/10", "m": 15},
        "initial": {"dirac": 1},
        "horizon": {"t_end": 1, "snapshot_times": [0.5, 1]},
        "bound_mode": "refined",
        "queries": [{"time": 1, "threshold": 5, "slack": 0.1}],
    }
    cfg.update(overrides)
    return cfg


SPECNEG_MODEL = {
    "kind": "spectrally_negative",
    "lambda": 0.5,
    "job": {"family": "pareto", "params": {"x_min": 1, "alpha": 1.5}},
}


def erlang_job(shape):
    return {"family": "erlang", "params": {"shape": shape, "rate": 2}}


def tabulated_job(**params):
    return {"family": "tabulated", "params": params}


def query(time=1, slack=0.1):
    return {"time": time, "threshold": 5, "slack": slack}


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestConfigParsing:
    def test_rational_strings(self, tmp_path):
        cfg = load_config(write_config(tmp_path, base_config()))
        assert cfg.grid.m_delta == 150
        assert cfg.grid.delta == pytest.approx(0.1)
        assert cfg.horizon_steps == 10
        assert cfg.snapshot_steps == [0, 5, 10]

    def test_non_multiple_rejected(self, tmp_path):
        cfg = base_config(grid={"delta": "1/10", "m": 15.03})
        with pytest.raises(Exception, match="multiple"):
            load_config(write_config(tmp_path, cfg))

    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"grid": {"delta": "1/500", "m": "50.00000001"}}, "grid.m"),
            (
                {
                    "grid": {"delta": "1/100", "m": 20},
                    "horizon": {"t_end": "10.00000001", "snapshot_times": []},
                },
                "horizon.t_end",
            ),
        ],
        ids=["grid.m", "t_end"],
    )
    def test_near_multiple_strings_rejected(self, tmp_path, capsys, overrides, field):
        # an exact decimal a hair off a multiple once ran at the multiple while
        # the manifest recorded the value asked for
        cfg = base_config(**overrides)
        out = tmp_path / "out"
        assert main(["solve", write_config(tmp_path, cfg), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert field in err and "not a multiple" in err
        assert not out.exists()

    def test_near_multiple_floats_accepted(self, tmp_path):
        cfg = base_config(grid={"delta": 0.1, "m": 15.000000000001})
        parsed = load_config(write_config(tmp_path, cfg))
        assert parsed.grid.m_delta == 150

    def test_snapshot_off_grid_rejected(self, tmp_path):
        cfg = base_config(horizon={"t_end": 1, "snapshot_times": [0.55]})
        with pytest.raises(Exception, match="multiple"):
            load_config(write_config(tmp_path, cfg))

    def test_unknown_key_named(self, tmp_path, capsys):
        # a removed option cannot be replayed, so it is refused, not ignored
        cfg = base_config(refined_weighting="per_interval")
        assert main(["solve", write_config(tmp_path, cfg)]) == EXIT_CONFIG
        assert "refined_weighting" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "path, key",
        [
            pytest.param(("model",), "lam", id="model"),
            pytest.param(("model", "job"), "kind", id="job"),
            pytest.param(("model", "job", "params"), "rate", id="job-params"),
            pytest.param(("grid",), "M", id="grid"),
            pytest.param(("horizon",), "snapshot_time", id="horizon"),
            pytest.param(("initial",), "atom", id="initial"),
            pytest.param(("validation",), "n_path", id="validation-n-path"),
            pytest.param(("validation",), "sed", id="validation-seed-typo"),
            pytest.param(("queries", 0), "treshold", id="query"),
        ],
    )
    def test_unknown_nested_key_refused(self, tmp_path, capsys, path, key):
        # a misspelt field would otherwise fall back to its default silently
        cfg = base_config(validation={"enabled": True, "n_paths": 50, "seed": 3})
        parent = cfg
        for part in path:
            parent = parent[part]
        parent[key] = 1
        out = tmp_path / "out"
        args = ["validate", write_config(tmp_path, cfg), "--out", str(out)]
        assert main(args) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and repr(key) in err
        assert not out.exists()

    @pytest.mark.parametrize("value", [True, False], ids=["true", "false"])
    @pytest.mark.parametrize("command", ["solve", "validate", "matrix"])
    def test_absorbing_zero_key_refused(self, tmp_path, capsys, command, value):
        # the absorbing-zero variant is gone; a config or manifest that still
        # sets the flag is refused rather than replayed without it
        cfg = base_config(model={**SPECNEG_MODEL, "absorbing_zero": value})
        out = tmp_path / "out"
        args = [command, write_config(tmp_path, cfg), "--out", str(out)]
        assert main(args) == EXIT_CONFIG
        assert "absorbing_zero" in capsys.readouterr().err
        assert not out.exists()

    def test_specneg_atom_at_zero_refused(self, tmp_path, capsys):
        # the spectrally negative chain has no state for workload exactly 0
        cfg = base_config(model=SPECNEG_MODEL, initial={"dirac": 0})
        out = tmp_path / "out"
        assert main(["solve", write_config(tmp_path, cfg), "--out", str(out)]) == EXIT_CONFIG
        assert "no zero state" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "raw", [["model"], ["config"], 5], ids=["list", "list-config", "number"]
    )
    def test_non_object_config_refused(self, tmp_path, capsys, raw):
        assert main(["solve", write_config(tmp_path, raw)]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "value",
        [float("nan"), float("inf"), float("-inf"), "nan", "inf"],
        ids=["nan", "inf", "-inf", "nan-string", "inf-string"],
    )
    def test_non_finite_numbers_refused(self, value):
        with pytest.raises(ConfigError):
            _as_float(value, "x")
        with pytest.raises(ConfigError):
            _as_fraction(value, "x")

    @pytest.mark.parametrize("value", [True, False], ids=["true", "false"])
    def test_booleans_are_not_numbers(self, tmp_path, value):
        # bool is an int in Python: JSON true must not load as 1
        with pytest.raises(ConfigError, match="expected a number"):
            _as_float(value, "x")
        with pytest.raises(ConfigError, match="expected a number"):
            _as_fraction(value, "x")
        cfg = base_config(validation={"n_paths": value})
        with pytest.raises(ConfigError, match="n_paths: expected a number"):
            load_config(write_config(tmp_path, cfg))

    @pytest.mark.parametrize(
        "path, value",
        [
            pytest.param(("model", "lambda"), float("nan"), id="lambda-nan"),
            pytest.param(("model", "lambda"), float("inf"), id="lambda-inf"),
            pytest.param(("grid", "delta"), float("inf"), id="delta-inf"),
            pytest.param(("initial", "dirac"), float("nan"), id="dirac-nan"),
            pytest.param(("model", "job"), erlang_job(2.5), id="erlang-shape-float"),
            pytest.param(("model", "job"), erlang_job("2.5"), id="erlang-shape-string"),
            pytest.param(("model", "job"), tabulated_job(xs=[2, 1], cdf=[0.5, 1]),
                         id="tabulated-xs-decreasing"),
            pytest.param(("model", "job"), tabulated_job(cdf=[0.5, 1]),
                         id="tabulated-xs-missing"),
            pytest.param(("model", "job"), tabulated_job(xs=2, cdf=1),
                         id="tabulated-xs-scalar"),
            pytest.param(("model", "job"), "uniform", id="job-not-object"),
            pytest.param(("validation",), [1], id="validation-not-object"),
            pytest.param(("validation", "n_paths"), "abc", id="n-paths-string"),
            pytest.param(("validation", "n_paths"), 1, id="n-paths-one"),
            pytest.param(("validation", "seed"), -1, id="seed-negative"),
            # the snapshots after the first are validated with seed + 1, seed + 2
            pytest.param(("validation", "seed"), 2**64 - 1, id="seed-overflows"),
            pytest.param(("validation", "enabled"), "false", id="enabled-string"),
            pytest.param(("validation", "enabled"), 1, id="enabled-number"),
            pytest.param(("validation", "enabled"), None, id="enabled-null"),
            pytest.param(("initial", "atoms"), [[2, 1]], id="dirac-with-atoms"),
            pytest.param(("initial", "uniform_pieces"), [[0, 2, 1]], id="dirac-with-pieces"),
            pytest.param(("initial",), 5, id="initial-not-object"),
            pytest.param(("horizon", "snapshot_times"), [2], id="snapshot-past-horizon"),
            pytest.param(("horizon", "snapshot_times"), 1, id="snapshot-times-not-list"),
            pytest.param(("queries",), [query(time=2)], id="query-past-horizon"),
            pytest.param(("queries",), [query(slack=0)], id="query-slack-zero"),
            pytest.param(("queries",), [query(slack=-1)], id="query-slack-negative"),
            pytest.param(("queries",), [3], id="query-not-object"),
            pytest.param(("queries",), 5, id="queries-not-list"),
            pytest.param(("output",), 5, id="output-not-string"),
            pytest.param(("model", "lambda"), True, id="lambda-bool"),
            pytest.param(("horizon", "t_end"), True, id="t-end-bool"),
            pytest.param(("model", "job"), erlang_job(True), id="erlang-shape-bool"),
            pytest.param(("validation", "n_paths"), True, id="n-paths-bool"),
        ],
    )
    def test_malformed_field_fails_at_load(self, tmp_path, capsys, path, value):
        # refused while loading: exit 2, a config error and no output directory
        cfg = base_config()
        parent = cfg
        for key in path[:-1]:
            parent = parent.setdefault(key, {})
        parent[path[-1]] = value
        out = tmp_path / "out"
        args = ["validate", write_config(tmp_path, cfg), "--out", str(out)]
        assert main(args) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("case", ["file", "under-file", "dangling-link"])
    @pytest.mark.parametrize("command", ["solve", "validate", "matrix"])
    def test_unusable_output_path_refused_before_the_run(
        self, tmp_path, capsys, command, case
    ):
        # mkdir would fail only after the whole run; an unwritable parent is
        # not tested, since a superuser may write every directory
        blocker = tmp_path / "blocker"
        blocker.write_text("keep")
        out = {"file": blocker, "under-file": blocker / "sub", "dangling-link": tmp_path / "link"}
        if case == "dangling-link":
            out[case].symlink_to(tmp_path / "missing")
        args = [command, write_config(tmp_path, base_config()), "--out", str(out[case])]
        assert main(args) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err
        assert blocker.read_text() == "keep"
        assert not (tmp_path / "missing").exists()

    def test_seed_range_covers_every_snapshot(self, tmp_path):
        # one positive snapshot is validated with seed + 1
        horizon = {"t_end": 1}
        ok = base_config(horizon=horizon, queries=[], validation={"seed": 2**64 - 2})
        assert load_config(write_config(tmp_path, ok)).seed == 2**64 - 2
        bad = base_config(horizon=horizon, queries=[], validation={"seed": 2**64 - 1})
        with pytest.raises(ConfigError, match="validation.seed"):
            load_config(write_config(tmp_path, bad))

    def test_conflicting_or_mistyped_field_named(self, tmp_path, capsys):
        # a Dirac start next to atoms or pieces used to drop them silently,
        # and bool("false") is True
        out = tmp_path / "out"
        initial = {"dirac": 1, "atoms": [[2, 0.5]], "uniform_pieces": [[0, 2, 0.5]]}
        cfg = base_config(initial=initial)
        assert main(["solve", write_config(tmp_path, cfg), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert all(f"initial.{key}" in err for key in initial)
        cfg = base_config(validation={"enabled": "false"})
        assert main(["solve", write_config(tmp_path, cfg), "--out", str(out)]) == EXIT_CONFIG
        assert "validation.enabled" in capsys.readouterr().err
        assert not out.exists()

    def test_validate_refuses_disabled_validation(self, tmp_path, capsys):
        cfg = base_config(validation={"enabled": False, "n_paths": 50, "seed": 3})
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["validate", path, "--out", str(out)]) == EXIT_CONFIG
        assert "validation.enabled" in capsys.readouterr().err
        assert not out.exists()
        # solve does not read the field
        assert main(["solve", path, "--out", str(out)]) == EXIT_OK

    def test_validate_refuses_zero_horizon(self, tmp_path, capsys):
        # t = 0 is never validated, so a zero horizon would validate nothing
        cfg = base_config(
            validation={"enabled": True, "n_paths": 50, "seed": 3},
            horizon={"t_end": 0, "snapshot_times": []},
            queries=[],
        )
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["validate", path, "--out", str(out)]) == EXIT_CONFIG
        assert "horizon.t_end" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_family(self, tmp_path):
        cfg = base_config()
        cfg["model"]["job"] = {"family": "zeta", "params": {}}
        assert main(["solve", write_config(tmp_path, cfg)]) == EXIT_CONFIG

    def test_invalid_json_reports_location(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{\n  broken\n}")
        assert main(["solve", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "bad.json:2" in err

    @pytest.mark.parametrize("kind", ["missing", "directory", "non-utf8"])
    def test_missing_file(self, tmp_path, capsys, monkeypatch, kind):
        # a path that cannot be read as a UTF-8 text file is a config error
        # (exit 2, no output directory), not a traceback
        path = tmp_path / "config.json"
        if kind == "directory":
            path.mkdir()
        elif kind == "non-utf8":
            path.write_bytes(b'{"model": "\xff"}')
        monkeypatch.chdir(tmp_path)
        assert main(["solve", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config file not found" in err if kind == "missing" else str(path) in err
        assert not (tmp_path / "levyq-out").exists()


class TestSolveCommand:
    def test_writes_outputs(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        assert main(["solve", path, "--out", str(out)]) == EXIT_OK
        assert (out / "ledger.csv").exists()
        assert (out / "manifest.json").exists()
        assert (out / "density_t1.csv").exists()
        printed = capsys.readouterr().out
        assert "P(Q=0)" in printed
        assert "P(Q > 5)" in printed

    def test_density_csv_roundtrip(self, tmp_path):
        path = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        main(["solve", path, "--out", str(out)])
        with (out / "density_t1.csv").open() as f:
            rows = list(csv.DictReader(f))
        # atom row plus one row per interval
        assert len(rows) == 1 + 150
        assert rows[0]["density"] == ""
        total = float(rows[0]["mass"]) + sum(float(r["mass"]) for r in rows[1:])
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_ledger_csv_consistent(self, tmp_path):
        path = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        main(["solve", path, "--out", str(out)])
        with (out / "ledger.csv").open() as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 11  # step 0 plus 10 steps
        cum = [float(r["cumulative"]) for r in rows]
        assert all(b >= a for a, b in zip(cum, cum[1:]))
        parts = sum(
            float(rows[k][c])
            for k in range(1, 11)
            for c in ("jump_aggregation", "jump_cut", "truncation_weighted", "slack")
        )
        assert cum[-1] == pytest.approx(cum[0] + parts, rel=1e-12)

    @pytest.mark.parametrize(
        "flags", [(), ("--bound-mode", "basic")], ids=["plain", "bound-mode-override"]
    )
    def test_manifest_roundtrip_bit_identical(self, tmp_path, flags):
        # the manifest records the effective config, CLI overrides included
        path = write_config(tmp_path, base_config())
        out1 = tmp_path / "o1"
        out2 = tmp_path / "o2"
        assert main(["solve", path, "--out", str(out1), *flags]) == EXIT_OK
        manifest = out1 / "manifest.json"
        assert main(["solve", str(manifest), "--out", str(out2)]) == EXIT_OK
        d1 = json.loads(manifest.read_text())["outputs"]
        d2 = json.loads((out2 / "manifest.json").read_text())["outputs"]
        assert d1 == d2

    def test_heavy_tail_mg1_refused(self, tmp_path, capsys):
        cfg = base_config()
        cfg["model"]["job"] = {"family": "pareto", "params": {"x_min": 1, "alpha": 0.9}}
        args = ["solve", write_config(tmp_path, cfg), "--out", str(tmp_path / "out")]
        assert main(args) == EXIT_CERTIFICATION
        assert "mean" in capsys.readouterr().err

    @pytest.mark.parametrize("refusal", ["infinite-mean", "mass-drift"])
    @pytest.mark.parametrize("command", ["solve", "validate"])
    def test_refused_run_creates_no_output_dir(
        self, tmp_path, capsys, leak_mass, command, refusal
    ):
        cfg = base_config()
        if refusal == "infinite-mean":
            cfg["model"]["job"] = {"family": "pareto", "params": {"x_min": 1, "alpha": 0.9}}
        else:  # the chain gains 1e-8 of mass per step, beyond the 1e-9 tolerance
            leak_mass(1e-8)
        out = tmp_path / "out"
        args = [command, write_config(tmp_path, cfg), "--out", str(out)]
        assert main(args) == EXIT_CERTIFICATION
        assert not out.exists()
        assert capsys.readouterr().err.startswith("certification error: ")

    def test_snapshot_times_sharing_a_file_name_refused(self, tmp_path, capsys):
        # density file names keep 6 decimals of the time, so the snapshots at
        # 0, 1e-7, 2e-7 and 3e-7 would all be written to density_t0.csv
        cfg = base_config(
            grid={"delta": "1/10000000", "m": "1/100000"},
            horizon={"t_end": "3/10000000", "snapshot_times": ["1/10000000", "2/10000000"]},
            queries=[],
        )
        out = tmp_path / "out"
        assert main(["solve", write_config(tmp_path, cfg), "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()
        assert "density_t0.csv" in capsys.readouterr().err

    def test_bound_mode_flag(self, tmp_path):
        path = write_config(tmp_path, base_config())
        out_b = tmp_path / "basic"
        out_r = tmp_path / "refined"
        main(["solve", path, "--out", str(out_b), "--bound-mode", "basic"])
        main(["solve", path, "--out", str(out_r), "--bound-mode", "refined"])
        def final(out):
            with (out / "ledger.csv").open() as f:
                return float(list(csv.DictReader(f))[-1]["cumulative"])
        assert final(out_r) <= final(out_b) + 1e-15


class TestCsvText:
    """Exact bytes of tiny outputs: 17 significant digits, empty atom density."""

    CONFIG = {
        "model": {
            "kind": "mg1",
            "lambda": "1/4",
            "job": {"family": "uniform", "params": {"lo": 1, "hi": 5}},
        },
        "grid": {"delta": "1/2", "m": 2},
        "initial": {"dirac": 1},
        "horizon": {"t_end": 1, "snapshot_times": ["1/2"]},
        "validation": {"n_paths": 10, "seed": 3},
    }

    def test_solve_outputs(self, tmp_path):
        out = tmp_path / "out"
        args = ["solve", write_config(tmp_path, self.CONFIG), "--out", str(out)]
        assert main(args) == EXIT_OK
        assert (out / "density_t1.csv").read_text() == (
            "interval_lo,interval_hi,mass,density\n"
            "0,0,0.77880078307140477,\n"
            "0,0.5,0.16074531712366674,0.32149063424733348\n"
            "0.5,1,0.019514665543616978,0.039029331087233957\n"
            "1,1.5,0.025767639428445493,0.051535278856890986\n"
            "1.5,2,0.015171594832865964,0.030343189665731927\n"
        )
        assert (out / "ledger.csv").read_text() == (
            "step,time,jump_aggregation,jump_cut,truncation_weighted,slack,cumulative\n"
            "0,0,0,0,0,0,0.25\n"
            "1,0.5,0.00057453348746778024,0.044063661530776746,0.33093633846922327,"
            "2.0198751127271928e-05,0.62559473223859507\n"
            "2,1,0.00056661123710652469,0.044063661530776746,0.31572538567485986,"
            "6.1419839022153135e-05,0.98601181052036035\n"
        )

    def test_validation_output(self, tmp_path):
        out = tmp_path / "out"
        main(["validate", write_config(tmp_path, self.CONFIG), "--out", str(out)])
        # bias_allowance: 1/2 * sum sqrt(F (1 - F)) over the four pieces at
        # their mean F, over sqrt(10); at t = 1/2, F runs 0, 0.8825, 0.9793,
        # 0.9862, 1 and the sum is 0.9630
        assert (out / "validation.csv").read_text() == (
            "time,n_paths,empirical_wd,std_error,certified_bound,status,bias_allowance\n"
            "0.5,10,0.85978275182590869,0.47298567099132194,0.62559473223859507,pass,"
            "0.1522709487421342\n"
            "1,10,0.090502520521613214,0.078653900269182161,0.98601181052036035,pass,"
            "0.12951370596024486\n"
        )


def reference_density(dist):
    """A density file's lines, built row by row as the writer once did.

    Files are compared as lists of lines: pytest reports the first differing
    line, where a diff of two long strings would take minutes.
    """
    edges = dist.grid.edges()
    dens = dist.densities()
    lines = ["interval_lo,interval_hi,mass,density\n"]
    lines.append("%.17g,%.17g,%.17g,%s\n" % (0.0, 0.0, dist.atom0, ""))
    for i in range(dist.grid.m_delta):
        row = (edges[i], edges[i + 1], float(dist.interval_mass[i]), float(dens[i]))
        lines.append("%.17g,%.17g,%.17g,%.17g\n" % row)
    return lines


class TestCsvWriter:
    """Files of several write blocks against row-by-row references."""

    M_DELTA = 4321  # more than two blocks of 2 048 rows, not a multiple of it

    def test_atom_row_and_densities(self, tmp_path):
        g = Grid(0.5, 2)
        m = LiftedDistribution(g, 0.5, np.array([0.25, 0.25]))
        _write_density(tmp_path / "d.csv", m, _density_formats(g))
        rows = (tmp_path / "d.csv").read_text().splitlines()[1:]
        assert rows[0] == "0,0,0.5,"  # atom row first, without a density
        assert float(rows[1].split(",")[3]) == pytest.approx(0.5, abs=1e-15)  # 0.25 / 0.5
        assert len(rows) == 3

    def test_special_values_across_blocks(self, tmp_path):
        grid = Grid(0.01, self.M_DELTA)
        mass = np.zeros(self.M_DELTA)
        mass[[0, 2047, 2048, 4095, 4096, -1]] = [
            5e-324,  # smallest subnormal
            0.01,  # density exactly 1.0, last row of the first block
            1e-310,  # subnormal, first row of the second block
            1 / 3,  # last row of the second block
            0.1,  # first row of the third block
            2.2250738585072014e-308,  # smallest normal, last row of the file
        ]
        special = LiftedDistribution(grid, 1.0 - mass.sum(), mass)
        atom_only = LiftedDistribution(grid, 1.0, np.zeros(self.M_DELTA))
        formats = _density_formats(grid)  # shared, as by the snapshots of a run
        for k, dist in enumerate([special, atom_only]):
            path = tmp_path / f"d{k}.csv"
            digest = _write_density(path, dist, formats)
            assert path.read_text().splitlines(True) == reference_density(dist)
            assert digest == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_density_file_matches_column_stack_table(self, tmp_path):
        # the writer slices the masses block by block; the file must be the
        # one formatted from the whole (mass, density) table
        spec = ModelSpec(ModelKind.MG1, 0.25, Uniform(1.0, 5.0))
        grid = Grid(0.01, self.M_DELTA)
        res = solve(spec, grid, GeneralMeasure.dirac(1.0), 20, snapshot_steps=[20])
        dist = res.distributions[-1]
        table = np.column_stack((dist.interval_mass, dist.densities()))
        edges = grid.edges()
        want = ["interval_lo,interval_hi,mass,density\n", "0,0,%.17g,\n" % dist.atom0]
        want += [
            "%.17g,%.17g,%.17g,%.17g\n" % (edges[i], edges[i + 1], *row)
            for i, row in enumerate(table.tolist())
        ]
        path = tmp_path / "d.csv"
        _write_density(path, dist, _density_formats(grid))
        assert path.read_bytes().decode().splitlines(True) == want

    def test_solve_outputs_match_reference(self, tmp_path):
        cfg = base_config(
            grid={"delta": "1/100", "m": "43.21"},
            initial={"dirac": 0},
            horizon={"t_end": "1/50", "snapshot_times": ["1/100"]},
            bound_mode="basic",
            queries=[],
        )
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["solve", path, "--out", str(out)]) == EXIT_OK
        parsed = load_config(path)
        result = solve(
            parsed.spec, parsed.grid, parsed.initial, parsed.horizon_steps,
            snapshot_steps=parsed.snapshot_steps, bound_mode="basic",
        )
        names = ["density_t0.csv", "density_t0_01.csv", "density_t0_02.csv"]
        for name, dist in zip(names, result.distributions, strict=True):
            assert (out / name).read_text().splitlines(True) == reference_density(dist)
        ledger = result.ledger
        lines = ["step,time,jump_aggregation,jump_cut,truncation_weighted,slack,cumulative"]
        lines.append("%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g" % (0, 0, 0, 0, 0, 0, ledger.b0))
        for k, c in enumerate(ledger.steps, start=1):
            row = (k, k * parsed.delta, c.jump_aggregation, c.jump_cut,
                   c.truncation_weighted, c.slack, ledger.cumulative[k])
            lines.append("%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g" % row)
        assert (out / "ledger.csv").read_text().splitlines() == lines
        outputs = json.loads((out / "manifest.json").read_text())["outputs"]
        assert sorted(outputs) == sorted(names + ["ledger.csv"])
        for name, digest in outputs.items():
            assert digest == hashlib.sha256((out / name).read_bytes()).hexdigest()


class TestMatrixCommand:
    @pytest.mark.parametrize("model", [None, SPECNEG_MODEL], ids=["mg1", "specneg"])
    def test_dense_dump_matches_kernel(self, tmp_path, model):
        import levyq

        cfg = base_config()
        if model is not None:
            cfg["model"] = model
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["matrix", path, "--out", str(out)]) == EXIT_OK
        data = np.genfromtxt(out / "matrix.csv", delimiter=",", skip_header=1)
        dense_csv = data[:, 1:]
        parsed = load_config(path)
        kern = levyq.build_kernel(parsed.spec, parsed.grid)
        assert np.max(np.abs(dense_csv - kern.dense())) < 1e-12
        # the labels are the model's states: 0..n for M/G/1, 1..n without state 0
        first = 0 if model is None else 1
        states = [str(i) for i in range(first, parsed.grid.m_delta + 1)]
        lines = (out / "matrix.csv").read_text().splitlines()
        assert lines[0].split(",") == ["state", *states]
        assert [line.split(",", 1)[0] for line in lines[1:]] == states
        assert np.max(np.abs(dense_csv.sum(axis=1) - 1.0)) <= 1e-12

    def test_large_grid_refused(self, tmp_path):
        cfg = base_config(grid={"delta": "1/500", "m": 50})
        assert main(["matrix", write_config(tmp_path, cfg)]) == EXIT_CONFIG

    def test_bound_mode_flag_refused(self, tmp_path, capsys):
        # the transition matrix does not depend on the bound mode
        out = tmp_path / "out"
        args = ["matrix", write_config(tmp_path, base_config()), "--out", str(out)]
        with pytest.raises(SystemExit) as exc:
            main([*args, "--bound-mode", "basic"])
        assert exc.value.code == EXIT_CONFIG
        assert "--bound-mode" in capsys.readouterr().err
        assert not out.exists()


class TestValidateCommand:
    def test_small_run_passes(self, tmp_path, capsys):
        cfg = base_config(
            validation={"enabled": True, "n_paths": 20000, "seed": 42},
            horizon={"t_end": 1, "snapshot_times": [1]},
        )
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        code = main(["validate", path, "--out", str(out)])
        printed = capsys.readouterr().out
        assert (out / "validation.csv").exists()
        with (out / "validation.csv").open() as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 1
        assert rows[0]["status"] in ("pass", "fail")
        assert code in (EXIT_OK, 4)
        assert "empirical" in printed


    def test_tabulated_law_validates(self, tmp_path, capsys):
        # F(x) = (x/5)^2 tabulated at 2 000 knots: the exact path that
        # replaced callable-CDF quadrature
        xs = np.linspace(0.0, 5.0, 2000)
        cdf = (xs / 5.0) ** 2
        cfg = base_config(
            model={"kind": "mg1", "lambda": "1/4",
                   "job": tabulated_job(xs=xs.tolist(), cdf=cdf.tolist())},
            grid={"delta": "1/50", "m": 50},
            horizon={"t_end": 1, "snapshot_times": [0.5]},
            queries=[],
            validation={"n_paths": 20000, "seed": 42},
        )
        out = tmp_path / "out"
        assert main(["validate", write_config(tmp_path, cfg), "--out", str(out)]) == EXIT_OK
        with (out / "validation.csv").open() as f:
            rows = list(csv.DictReader(f))
        assert [row["status"] for row in rows] == ["pass", "pass"]


def coarse_validate(tmp_path, name, m, n_paths):
    """``levyq validate`` on a shipped config at delta = 1/10 and M = m, to
    t = 1/2 with a snapshot at 1/10, seed 42: its exit code and rows."""
    raw = json.loads((CONFIG_DIR / name).read_text())
    raw.pop("output", None)
    raw.update(
        grid={"delta": "1/10", "m": m},
        horizon={"t_end": "1/2", "snapshot_times": ["1/10"]},
        queries=[],
        validation={"enabled": True, "n_paths": n_paths, "seed": 42},
    )
    out = tmp_path / f"out_{n_paths}"
    code = main(["validate", write_config(tmp_path, raw, name), "--out", str(out)])
    with (out / "validation.csv").open() as f:
        return code, list(csv.DictReader(f))


class TestValidateBias:
    """The empirical W1 of n paths is biased upward by up to J1 / sqrt(n);
    validate allows for that, and still catches a bound that is too small."""

    def test_small_sample_passes(self, tmp_path, capsys):
        # 200 paths: at t = 1/10 the empirical W1 exceeds bound + 3 se by its
        # upward bias, not by an error of the bound: 2 000 and 20 000 paths of
        # the same run pass
        code, rows = coarse_validate(tmp_path, "specneg_pareto.json", 20, 200)
        assert code == EXIT_OK
        est, se, bound, bias = (float(rows[0][k]) for k in (
            "empirical_wd", "std_error", "certified_bound", "bias_allowance"))
        assert est > bound + 3.0 * se
        assert est <= bound + bias + 3.0 * se
        for n_paths in (2000, 20000):
            assert coarse_validate(tmp_path, "specneg_pareto.json", 20, n_paths)[0] == EXIT_OK

    @pytest.mark.parametrize("n_paths", [2000, 20000])
    @pytest.mark.parametrize("name, m", [("specneg_pareto.json", 20), ("mg1_uniform.json", 50)])
    def test_bound_divided_by_ten_fails(self, tmp_path, monkeypatch, capsys, name, m, n_paths):
        # at t = 1/10 most paths have not jumped, and the lift spreads their
        # mass over an interval: the chain's true error sits near its bound,
        # far above a tenth of it plus the allowance
        def tenth(cfg):
            res = _solve(cfg)
            res.ledger = BoundLedger(res.ledger.b0 / 10.0, res.ledger.rows / 10.0)
            return res

        monkeypatch.setattr("levyq.cli._solve", tenth)
        code, rows = coarse_validate(tmp_path, name, m, n_paths)
        assert code == EXIT_VALIDATION
        assert rows[0]["status"] == "fail"


class TestShippedConfigs:
    """The checked-in example files parse and run at reduced resolution."""

    @pytest.mark.parametrize(
        "name", ["mg1_uniform.json", "mg1_erlang_heavy.json", "specneg_pareto.json"]
    )
    def test_reduced_resolution_run(self, name, tmp_path):
        raw = json.loads((CONFIG_DIR / name).read_text())
        raw["grid"]["delta"] = "1/4"
        raw["horizon"]["t_end"] = 2
        raw["horizon"]["snapshot_times"] = [1, 2]
        raw["queries"] = []
        raw.pop("output", None)
        path = write_config(tmp_path, raw, name)
        out = tmp_path / "out"
        assert main(["solve", str(path), "--out", str(out)]) == EXIT_OK
        with (out / "ledger.csv").open() as f:
            rows = list(csv.DictReader(f))
        assert float(rows[-1]["cumulative"]) > 0.0


def run_python(code: str) -> str:
    """Stdout of ``code`` run in a fresh interpreter with levyq on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_no_command_imports_scipy(tmp_path):
    # numpy is the only runtime dependency: with scipy blocked from import,
    # every command runs on a small config of each job family
    jobs = {
        "uniform": {"lo": 1, "hi": 5},
        "exponential": {"rate": 1},
        "erlang": {"shape": 3, "rate": 2},
        "pareto": {"x_min": 1, "alpha": 1.5},
        "deterministic": {"value": 2},
        "tabulated": {"xs": [0.5, 1, 2.5], "cdf": [0.2, 0.5, 1]},
    }
    models = [SPECNEG_MODEL] + [
        {"kind": "mg1", "lambda": "1/4", "job": {"family": family, "params": params}}
        for family, params in jobs.items()
    ]
    configs = [
        write_config(
            tmp_path,
            base_config(model=model, queries=[], validation={"n_paths": 50, "seed": 3}),
            f"{i}.json",
        )
        for i, model in enumerate(models)
    ]
    runs = [
        [command, path, "--out", str(tmp_path / f"{i}-{command}")]
        for i, path in enumerate(configs)
        for command in ("solve", "validate", "matrix")
    ]
    code = (
        "import sys; sys.modules['scipy'] = None; from levyq.cli import main; "
        f"print([main(args) for args in {runs!r}])"
    )
    codes = json.loads(run_python(code).splitlines()[-1])
    assert codes[0::3] == [EXIT_OK] * len(configs)  # solve
    assert set(codes[1::3]) <= {EXIT_OK, EXIT_VALIDATION}  # validate ran its check
    assert codes[2::3] == [EXIT_OK] * len(configs)  # matrix


def test_package_sets_no_allocator_options():
    # the CLI and the Python API take one run path: no module reaches into
    # the C allocator
    for path in sorted((SRC_DIR / "levyq").glob("*.py")):
        text = path.read_text()
        assert "ctypes" not in text and "mallopt" not in text, path.name


def test_solve_and_validate_load_no_numpy_ma(tmp_path):
    # np.unique and np.union1d import numpy.ma on their first call
    cfg = base_config(validation={"n_paths": 50, "seed": 3})
    path = write_config(tmp_path, cfg)
    runs = [
        [command, path, "--out", str(tmp_path / command)]
        for command in ("solve", "validate")
    ]
    code = (
        "import sys; from levyq.cli import main; "
        f"codes = [main(args) for args in {runs!r}]; "
        "print(codes[0], codes[1] in (0, 4), 'numpy.ma' in sys.modules)"
    )
    assert run_python(code).splitlines()[-1] == "0 True False"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts glibc page faults")
@pytest.mark.parametrize("entry", ["cli", "api"])
def test_fine_grid_solve_maps_few_fresh_pages(tmp_path, entry):
    # 25 001 states, 100 refined steps: the setup sweeps stay within their
    # work budget and the step loop reuses freed buffers, so the whole run
    # after import faults in ~900 pages; a step that mapped its ~1 MB of
    # buffers afresh would fault in ~260 on its own.  The CLI and a Python
    # caller of ``solve`` take the same path, with no allocator settings.
    if entry == "cli":
        raw = json.loads((CONFIG_DIR / "mg1_uniform.json").read_text())
        raw["horizon"] = {"t_end": "1/5", "snapshot_times": []}
        raw["queries"] = []
        raw.pop("output")
        args = ["solve", write_config(tmp_path, raw), "--out", str(tmp_path / "out")]
        setup, run = "from levyq.cli import main", f"code = main({args!r})"
    else:
        setup = (
            "from levyq import GeneralMeasure, Grid, ModelKind, ModelSpec, Uniform, solve; "
            "spec = ModelSpec(ModelKind.MG1, 0.25, Uniform(1.0, 5.0)); "
            "grid = Grid(1 / 500, 25_000)"
        )
        run = "solve(spec, grid, GeneralMeasure.dirac(1.0), 100); code = 0"
    code = (
        f"import resource; {setup}; "
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt; "
        f"{run}; "
        "print(code, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)"
    )
    exit_code, faults = map(int, run_python(code).splitlines()[-1].split())
    assert exit_code == EXIT_OK
    assert faults < 1200


def test_outputs_do_not_depend_on_blas_threads(tmp_path):
    # a spectrally negative solve on 20 000 states: the kernel's state-1
    # column and every bound term are reductions over all states, which a
    # threaded BLAS dot would split by the thread count
    raw = json.loads((CONFIG_DIR / "specneg_pareto.json").read_text())
    raw["grid"] = {"delta": "1/1000", "m": 20}
    raw["horizon"] = {"t_end": "1/200", "snapshot_times": []}
    raw["queries"] = []
    raw.pop("output")
    path = write_config(tmp_path, raw)
    digests = []
    for threads in ("1", "2"):
        out = tmp_path / f"out-{threads}"
        code = (
            "import os, json; "
            f"os.environ['OPENBLAS_NUM_THREADS'] = {threads!r}; "
            "from levyq.cli import main; "
            f"assert main(['solve', {str(path)!r}, '--out', {str(out)!r}]) == 0; "
            f"print(json.dumps(json.load(open({str(out / 'manifest.json')!r}))['outputs']))"
        )
        digests.append(json.loads(run_python(code).splitlines()[-1]))
    assert sorted(digests[0]) == ["density_t0.csv", "density_t0_005.csv", "ledger.csv"]
    assert digests[0] == digests[1]
