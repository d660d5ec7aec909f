"""The benchmark under `perfbench/` times lahoc's layers by wrapping functions
by name in the modules that call them (`perfbench/spans.py`'s `WRAPPED`). A
renamed or moved function is then only reported as absent, and its per-layer
metrics read 0. These tests keep those seams in place; `spans.py` is read,
never imported as a package or written."""

import importlib
import sys
import types
from pathlib import Path

import pytest

from lahoc import BasisConfig, SolverConfig, builtin_problem_31, solve_ocp

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    module = types.ModuleType("perfbench_spans")
    sys.modules[module.__name__] = module  # its dataclasses look their module up
    try:
        exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module


@pytest.fixture(scope="module")
def modules(spans):
    """lahoc's modules by the names `WRAPPED` uses, as the benchmark hands them to its tracer."""
    return {mod: importlib.import_module(f"lahoc.{mod}") for mod, _, _ in spans.WRAPPED}


def test_every_wrapped_name_exists(spans, modules):
    missing = [f"{mod}.{attr}" for mod, attr, _ in spans.WRAPPED
               if not callable(getattr(modules[mod], attr, None))]
    assert missing == []


def test_one_solve_builds_one_rule_and_one_operator(spans, modules):
    tracer = spans.Tracer()
    tracer.install(modules)
    try:
        config = SolverConfig(hbar=-0.6, basis=BasisConfig(beta=6.0, n_order=20), max_order=3)
        with tracer.operation(0):
            solve_ocp(builtin_problem_31(), config)
    finally:
        tracer.uninstall()
    assert tracer.absent == []
    names = [s.name for s in tracer.spans]
    assert names.count("sham_engine.build_rule") == 1
    assert names.count("sham_engine.assemble_operator") == 1


def test_the_order_counter_reads_the_kept_orders_of_a_diverged_run(spans, modules):
    # N=20 at beta=6 diverges; its best partial sum is order 14
    tracer = spans.Tracer()
    tracer.install(modules)
    try:
        config = SolverConfig(hbar=-0.6, basis=BasisConfig(beta=6.0, n_order=20),
                              max_order=150, tail_tol=1e-13)
        with tracer.operation(0):
            solve_ocp(builtin_problem_31(), config)
    finally:
        tracer.uninstall()
    (run,) = [s for s in tracer.spans if s.name == "ocp_model.run_sham"]
    assert run.counts == {"sham_engine.orders": 14}
