"""Tests of the benchmark's own logic, on grids that run in seconds.

Run from the checkout root: python3 -m pytest benchmarks
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from checks import Ledger, Registry, check_run, ledger_problems, parse_ledger, sha256_file
from spans import EXACT_COUNTS, Tracer, layer_metrics, percentile, self_times, total_time
from workloads import WORKLOADS, make_config, one_step_config

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent

TINY_MG1 = {
    "model": {"kind": "mg1", "lambda": "1/4",
              "job": {"family": "uniform", "params": {"lo": 1, "hi": 5}}},
    "grid": {"delta": "1/10", "m": 15},
    "initial": {"dirac": 1},
    "horizon": {"t_end": 1, "snapshot_times": ["1/2"]},
    "queries": [{"time": 1, "threshold": 5, "slack": 0.1}],
}
TINY_SPECNEG = {
    "model": {"kind": "spectrally_negative", "lambda": "1/3",
              "job": {"family": "pareto", "params": {"x_min": 1, "alpha": 1.5}}},
    "grid": {"delta": "1/10", "m": 12},
    "initial": {"dirac": 5},
    "horizon": {"t_end": "1/2", "snapshot_times": []},
    "validation": {"enabled": True, "n_paths": 2000, "seed": 3},
}


def levyq(args: list[str], traced_spans: Path | None = None) -> int:
    """Run the levyq CLI in a child, as the benchmark does."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    if traced_spans is None:
        argv = [sys.executable, "-c", "import sys; from levyq.cli import main; sys.exit(main())"]
    else:
        argv = [sys.executable, str(BENCH / "traced_cli.py"), str(traced_spans)]
    return subprocess.run(argv + args, cwd=ROOT, env=env, stdout=subprocess.DEVNULL).returncode


def write(path: Path, cfg: dict) -> str:
    path.write_text(json.dumps(cfg))
    return str(path)


# -- spans ------------------------------------------------------------------


def test_span_nesting_and_self_time():
    tracer = Tracer(clock=iter([0, 1, 3, 4, 7, 10]).__next__)
    inner = tracer.wrap("inner", lambda x: x + 1)

    def outer_fn():
        return inner(1) + inner(2)

    outer = tracer.wrap("outer", outer_fn)
    assert outer() == 5
    # outer [0, 10] holds inner [1, 3] and inner [4, 7]
    assert [s[:4] for s in tracer.spans] == [
        ["outer", 0, 10, -1], ["inner", 1, 3, 0], ["inner", 4, 7, 0]
    ]
    assert self_times(tracer.spans) == [5, 2, 3]
    assert total_time(tracer.spans, "inner") == 5


def test_recursive_span_counted_once_and_attrs_kept():
    tracer = Tracer(clock=iter(range(100)).__next__)

    def fact(n):
        return 1 if n <= 1 else n * traced(n - 1)

    traced = tracer.wrap("fact", fact, attrs=lambda a, k, r: {"n": a[0]}, keep=True)
    assert tracer.wrap("root", traced)(3) == 6
    top = tracer.spans[1]
    assert top[3] == 0 and top[4] == {"n": 3}
    assert total_time(tracer.spans, "fact") == top[2] - top[1]
    assert tracer.last["fact"] == 6


def test_span_ends_when_the_call_raises():
    tracer = Tracer(clock=iter([0, 2]).__next__)

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap("boom", boom)()
    assert tracer.spans == [["boom", 0, 2, -1, None]]


def test_percentile_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert percentile(values, 50) == 50.0
    assert percentile(values, 99) == 99.0
    assert percentile([4.0], 99) == 4.0
    assert percentile([], 50) == 0.0


# -- configs ----------------------------------------------------------------


def test_workload_config_and_one_step_rewrite():
    base = json.loads((ROOT / "configs/mg1_uniform.json").read_text())
    full = make_config(base, WORKLOADS["mg1-fine-refined"], seed=7)
    assert full["horizon"] == {"t_end": "1/5", "snapshot_times": ["1/10"]}
    assert full["queries"] == []  # the t = 1 query lies past the horizon
    assert full["validation"]["seed"] == 7
    assert "output" not in full
    assert base["horizon"]["t_end"] == 30  # base config untouched

    basic = make_config(base, WORKLOADS["mg1-fine-basic"], seed=7)
    assert [q["time"] for q in basic["queries"]] == [1]

    setup = one_step_config(full)
    assert setup["horizon"] == {"t_end": "1/500", "snapshot_times": []}
    assert setup["queries"] == []
    assert setup["grid"] == full["grid"] and setup["validation"] == full["validation"]


def test_one_step_run_has_one_ledger_step(tmp_path):
    cfg = write(tmp_path / "setup.json", one_step_config(TINY_MG1))
    assert levyq(["solve", cfg, "--out", str(tmp_path / "out")]) == 0
    ledger = parse_ledger(tmp_path / "out" / "ledger.csv")
    assert len(ledger.cumulative) == 2
    outcome = check_run(tmp_path / "out", 0, 0.1)
    assert outcome.problems == [] and outcome.final_bound == ledger.final


# -- output checks and failure counting ---------------------------------------


@pytest.fixture(scope="module")
def solved(tmp_path_factory):
    d = tmp_path_factory.mktemp("solve")
    cfg = write(d / "cfg.json", TINY_MG1)
    assert levyq(["solve", cfg, "--out", str(d / "out")]) == 0
    return d / "out"


def test_clean_solve_passes_every_check(solved):
    outcome = check_run(solved, 0, 0.1)
    assert outcome.problems == []
    assert (outcome.attempted, outcome.failed) == (1, 0)
    ledger = parse_ledger(solved / "ledger.csv")
    assert len(ledger.cumulative) == 11  # steps 0..10
    assert outcome.final_bound == ledger.final > ledger.b0 > 0
    assert set(outcome.digests) == {
        "density_t0.csv", "density_t0_5.csv", "density_t1.csv", "ledger.csv"
    }
    assert outcome.bytes_written == sum(p.stat().st_size for p in solved.iterdir())


def test_nonzero_exit_fails_the_run(solved):
    outcome = check_run(solved, 3, 0.1)
    assert outcome.failed == 1 and outcome.problems == ["exit code 3"]


def test_corrupted_density_is_one_failed_operation(solved, tmp_path):
    out = Path(shutil.copytree(solved, tmp_path / "out"))
    path = out / "density_t1.csv"
    lines = path.read_text().splitlines()
    lo, hi, mass, dens = lines[-1].split(",")
    lines[-1] = ",".join([lo, hi, "-" + mass, dens])
    path.write_text("\n".join(lines) + "\n")
    outcome = check_run(out, 0, 0.1)
    assert any("digest" in p for p in outcome.problems)
    assert any("negative mass" in p for p in outcome.problems)
    assert (outcome.attempted, outcome.failed) == (1, 1)


def test_ledger_checks():
    good = Ledger(cumulative=[0.05, 0.05 + 0.25, 0.05 + 0.25 + 0.5],
                  components=[(0.125, 0.125, 0.0, 0.0), (0.25, 0.25, 0.0, 0.0)])
    assert ledger_problems(good, delta=0.1) == []
    assert ledger_problems(good, delta=0.01)[0].startswith("ledger: b0")
    bad_sum = Ledger(cumulative=[0.05, 0.3, 0.9], components=good.components)
    assert "components give" in ledger_problems(bad_sum, 0.1)[0]
    falling = Ledger(cumulative=[0.05, 0.3, 0.2], components=[(0.25, 0, 0, 0), (-0.1, 0, 0, 0)])
    assert ledger_problems(falling, 0.1) == ["ledger: cumulative decreases"]


def test_validation_rows_count_as_operations(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "validation.csv").write_text(
        "time,n_paths,empirical_wd,std_error,certified_bound,status\n"
        "1,100,0.01,0.001,0.02,pass\n"
        "2,100,0.05,0.001,0.02,fail\n"
        "3,100,0.03,0.001,0.02,pass\n"  # status says pass, but 0.03 > 0.02 + 3*0.001
    )
    digest = sha256_file(out / "validation.csv")
    (out / "manifest.json").write_text(json.dumps({"outputs": {"validation.csv": digest}}))
    outcome = check_run(out, 4, 0.1)
    assert outcome.snapshots == 3 and outcome.snapshots_failed == 2
    assert (outcome.attempted, outcome.failed) == (4, 3)
    assert outcome.final_bound == 0.02


def test_registry_flags_replay_mismatch_and_count_drift(tmp_path):
    reg = Registry(tmp_path)
    assert reg.check("k", {"a.csv": "1"}, {"solver.steps": 5}) == []
    assert reg.check("k", {"a.csv": "1"}, {"solver.steps": 5}) == []
    assert "a.csv" in reg.check("k", {"a.csv": "2"}, {"solver.steps": 5})[0]
    assert reg.check("k", {"a.csv": "1"}, {"solver.steps": 6}) == [
        "count drift: solver.steps = 6, first run had 5"
    ]
    assert reg.check("other", {"a.csv": "2"}, {}) == []


# -- traced child -------------------------------------------------------------


def traced_and_plain(tmp_path: Path, command: str, cfg: dict):
    path = write(tmp_path / "cfg.json", cfg)
    spans_path = tmp_path / "spans.json"
    assert levyq([command, path, "--out", str(tmp_path / "plain")]) == 0
    assert levyq([command, path, "--out", str(tmp_path / "traced")], spans_path) == 0
    plain = check_run(tmp_path / "plain", 0, 0.1)
    traced = check_run(tmp_path / "traced", 0, 0.1)
    assert plain.problems == [] and traced.problems == []
    assert traced.digests == plain.digests  # the wrappers change no output
    data = json.loads(spans_path.read_text())
    return layer_metrics(data["spans"], data["facts"], traced.bytes_written), traced


def test_traced_solve_reports_every_layer(tmp_path):
    layers, outcome = traced_and_plain(tmp_path, "solve", TINY_MG1)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expected.pop("trace.overhead_s")  # from the parent's untraced/traced pair
    assert {name: unit for name, (_, unit) in layers.items()} == expected
    value = {name: v for name, (v, _) in layers.items()}
    assert value["solver.steps"] == 10
    assert value["kernel.n_states"] == 151
    assert value["kernel.conv_len"] == value["kernel.n_states"] + value["kernel.band_len"] - 1
    assert value["bounds.subgrid_len"] == 64 and value["bounds.refiner_sparse"] == 1
    assert value["oracle.resamples"] == 0 and value["measure.wasserstein_calls"] == 1
    assert value["cli.bytes_written"] == outcome.bytes_written
    assert 0 < value["solver.solve_s"] < value["cli.import_s"] + value["solver.solve_s"]
    split = sum(value[k] for k in ("bounds.initial", "bounds.jump_aggregation",
                                   "bounds.jump_cut", "bounds.truncation", "bounds.slack"))
    assert split == pytest.approx(outcome.final_bound, rel=1e-12)
    assert value["kernel.mass_defect"] < 1e-12
    assert set(EXACT_COUNTS) <= set(value)


def test_traced_validate_reports_oracle_layers(tmp_path):
    layers, outcome = traced_and_plain(tmp_path, "validate", TINY_SPECNEG)
    value = {name: v for name, (v, _) in layers.items()}
    assert outcome.snapshots == 1 and outcome.failed == 0
    assert value["oracle.resamples"] == 200
    assert value["measure.wasserstein_calls"] == 1 + 1 + 200  # initial, estimate, resamples
    assert value["oracle.paths_per_s"] > 0 and value["oracle.bootstrap_s"] > 0
    assert value["solver.steps"] == 5
