"""Run the levyq CLI with spans around calls into each of its modules.

Usage: python3 benchmarks/traced_cli.py SPANS_JSON levyq-args...

Public names are wrapped where their callers look them up, then
``levyq.cli.main`` runs unchanged.  Spans stay in memory; when main returns,
they are written to SPANS_JSON together with facts read off the objects the
run built (kernel and refiner sizes, the ledger's certificate split, the
final mass defect).  The exit code is main's.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
import sys

from spans import Tracer


def _n_boot(fn):
    sig = inspect.signature(fn)

    def attrs(args, kwargs, result):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return {"n_boot": int(bound.arguments["n_boot"])}

    return attrs


def install(tracer: Tracer) -> None:
    import levyq.bounds
    import levyq.cli
    import levyq.kernel
    import levyq.oracle
    import levyq.solver

    cli, solver, oracle = levyq.cli, levyq.solver, levyq.oracle
    w = tracer.wrap
    cli.load_config = w("cli.load_config", cli.load_config)
    cli.run_solve = w("cli.run", cli.run_solve)
    cli.run_validate = w("cli.run", cli.run_validate)
    solver.solve = w("solver.solve", solver.solve, keep=True)
    solver.discretize_initial = w("solver.discretize_initial", solver.discretize_initial)
    solver.lift = w("solver.lift", solver.lift)
    solver.build_kernel = w("kernel.build", solver.build_kernel, keep=True)
    solver.BoundContext = w("bounds.ctx_build", solver.BoundContext, keep=True)
    solver.wasserstein = w("measure.wasserstein", solver.wasserstein)
    kernel_cls = levyq.kernel.TransitionKernel
    kernel_cls.apply = w("kernel.apply", kernel_cls.apply)
    ctx_cls = levyq.bounds.BoundContext
    ctx_cls.components = w("bounds.components", ctx_cls.components)
    oracle.simulate = w(
        "oracle.simulate", oracle.simulate,
        attrs=lambda args, kwargs, result: {"n_paths": len(result)},
    )
    oracle.empirical_wasserstein = w(
        "oracle.empirical_wasserstein", oracle.empirical_wasserstein,
        attrs=_n_boot(oracle.empirical_wasserstein),
    )
    oracle.wasserstein = w("measure.wasserstein", oracle.wasserstein)


def facts(last: dict) -> dict:
    """Sizes, path choices and the certificate split of the traced run."""
    out = {}
    kern = last.get("kernel.build")
    if kern is not None:
        n, band = len(kern.diag), len(kern.toeplitz)
        out["kernel.n_states"] = (n, "count")
        out["kernel.band_len"] = (band, "count")
        out["kernel.conv_len"] = (n + band - 1, "count")
    ctx = last.get("bounds.ctx_build")
    refiner = getattr(ctx, "refiner", None)
    out["bounds.refiner_sparse"] = (int(bool(getattr(refiner, "use_sparse", 0))), "flag")
    out["bounds.nz_blocks"] = (len(getattr(refiner, "nz_blocks", ())), "count")
    out["bounds.subgrid_len"] = (int(getattr(refiner, "L", 0)), "count")
    result = last.get("solver.solve")
    if result is not None:
        ledger = result.ledger
        split = {
            "bounds.initial": [ledger.b0],
            "bounds.jump_aggregation": [c.jump_aggregation for c in ledger.steps],
            "bounds.jump_cut": [c.jump_cut for c in ledger.steps],
            "bounds.truncation": [c.truncation_weighted for c in ledger.steps],
            "bounds.slack": [c.slack for c in ledger.steps],
        }
        for name, values in split.items():
            out[name] = (math.fsum(values), "W1")
        final = result.distributions[-1]
        mass = math.fsum([final.atom0, *final.interval_mass.tolist()])
        out["kernel.mass_defect"] = (abs(mass - 1.0), "mass")
    return out


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    cli = tracer.wrap("cli.import", importlib.import_module)("levyq.cli")
    install(tracer)
    code = tracer.wrap("cli.main", cli.main)(cli_args)
    with open(spans_path, "w") as f:
        json.dump({"spans": tracer.spans, "facts": facts(tracer.last)}, f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
