"""The benchmark's workloads and the configs it generates for them.

Each workload is one levyq CLI command on one of the repository's configs,
with the horizon shortened so that a run fits the benchmark's time budget.
The benchmark seed goes into ``validation.seed``; the solver itself uses no
randomness, so solve workloads produce the same outputs for every seed.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # levyq subcommand
    config: str  # repository config, relative to the checkout root
    t_end: str
    snapshot_times: tuple[str, ...]
    extra_args: tuple[str, ...] = ()
    why: str = ""


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="mg1-fine-refined",
            command="solve",
            config="configs/mg1_uniform.json",
            t_end="1/5",
            snapshot_times=("1/10",),
            why="acceptance geometry (25 001 states) with the default refined "
            "bound: the per-step bound term dominates, on the refiner's sparse path",
        ),
        Workload(
            name="mg1-fine-basic",
            command="solve",
            config="configs/mg1_uniform.json",
            t_end="1",
            snapshot_times=("1/4", "1/2", "3/4"),
            extra_args=("--bound-mode", "basic"),
            why="same geometry with the basic bound: kernel apply, solver loop "
            "and CSV output dominate, the bound term is near zero",
        ),
        Workload(
            name="specneg-validate",
            command="validate",
            config="configs/specneg_pareto.json",
            t_end="1/2",
            snapshot_times=(),
            why="spectrally negative heavy-tailed model on the refiner's FFT "
            "path, plus the Monte Carlo oracle and bootstrap of validate",
        ),
    )
}


def grid_delta(raw: dict) -> Fraction:
    return Fraction(str(raw["grid"]["delta"]))


def make_config(base: dict, workload: Workload, seed: int) -> dict:
    """The workload's full-horizon config: base config, shortened horizon.

    Queries later than the new horizon are dropped (the solver rejects
    snapshot steps beyond the horizon); the seed goes to validation.seed.
    """
    cfg = copy.deepcopy(base)
    t_end = Fraction(workload.t_end)
    cfg["horizon"] = {"t_end": workload.t_end, "snapshot_times": list(workload.snapshot_times)}
    cfg["queries"] = [q for q in cfg.get("queries", []) if Fraction(str(q["time"])) <= t_end]
    cfg.setdefault("validation", {})["seed"] = int(seed)
    cfg.pop("output", None)
    return cfg


def one_step_config(cfg: dict) -> dict:
    """The same config with its horizon cut to one grid step (for setup_s)."""
    out = copy.deepcopy(cfg)
    delta = grid_delta(cfg)
    out["horizon"] = {"t_end": str(delta), "snapshot_times": []}
    out["queries"] = [q for q in out.get("queries", []) if Fraction(str(q["time"])) <= delta]
    return out


def cli_args(workload: Workload, config_path: str, out_dir: str) -> list[str]:
    """Arguments of the levyq CLI for one run of the workload."""
    return [workload.command, config_path, "--out", out_dir, *workload.extra_args]
