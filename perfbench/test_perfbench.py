"""Tests of the benchmark's own logic: span arithmetic, wrapping, result checks
and failure counting. From the repository root:

    python3 -m pytest -q perfbench
"""

import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import calibrate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from lahoc import builtin_problem_31, builtin_problem_32, parse_problem  # noqa: E402
from spans import Span, Tracer, per_op_layers, self_times  # noqa: E402
from workloads import Outcome  # noqa: E402

pytestmark = pytest.mark.filterwarnings("ignore::lahoc.laguerre_basis.QuadratureOverflowWarning")


def test_self_time_subtracts_direct_children_only():
    tree = [
        Span("root", 0.0, 10.0, None, 0),
        Span("child", 1.0, 5.0, 0, 0),
        Span("grandchild", 2.0, 3.0, 1, 0),
        Span("child2", 6.0, 7.0, 0, 0),
    ]
    assert self_times(tree) == pytest.approx([5.0, 3.0, 1.0, 1.0])


def test_per_op_layers_sums_self_time_and_counts_per_operation():
    tree = [
        Span("ocp_model.run_sham", 0.0, 10.0, None, 1, {"sham_engine.orders": 2}),
        Span("sham_engine.deformation_step", 1.0, 4.0, 0, 1),
        Span("sham_engine.cauchy_order_term", 1.5, 3.5, 1, 1),
        Span("sham_engine.deformation_step", 5.0, 6.0, 0, 1),
        Span("ocp_model.run_sham", 20.0, 21.0, None, 2, {"sham_engine.orders": 1}),
    ]
    ops = per_op_layers(tree)
    assert sorted(ops) == [1, 2]
    assert ops[1]["sham_engine.run_sham_self_s"] == pytest.approx(6.0)
    assert ops[1]["sham_engine.order_solve_s"] == pytest.approx(2.0)
    assert ops[1]["sham_engine.nonlinear_s"] == pytest.approx(2.0)
    assert ops[1]["sham_engine.nonlinear_calls"] == 1
    assert ops[1]["sham_engine.orders"] == 2
    assert ops[2]["sham_engine.nonlinear_s"] == 0.0
    assert ops[2]["sham_engine.run_sham_self_s"] == pytest.approx(1.0)


def _fake_module():
    mod = types.SimpleNamespace()
    mod.inner = lambda x: x * 2
    mod.outer = lambda x: mod.inner(x) + 1
    return mod


def test_tracer_wraps_in_caller_namespace_and_skips_absent_names():
    mod = _fake_module()
    inner, outer = mod.inner, mod.outer
    tracer = Tracer()

    def broken(args, kwargs, result):
        raise AttributeError("result changed shape")

    tracer.install({"m": mod}, wrapped=(
        ("m", "outer", (("m.result", lambda a, k, r: r), ("m.broken", broken))),
        ("m", "inner", ()),
        ("m", "gone", ()),
        ("missing_module", "f", ()),
    ))
    assert tracer.absent == ["m.gone", "missing_module.f"]
    assert mod.outer(3) == 7  # outside an operation: no spans
    assert tracer.spans == []
    with tracer.operation(4):
        with tracer.span("bench.solve"):
            assert mod.outer(3) == 7
    names = [(s.name, s.parent, s.op) for s in tracer.spans]
    assert names == [("bench.solve", None, 4), ("m.outer", 0, 4), ("m.inner", 1, 4)]
    assert tracer.spans[1].counts == {"m.result": 7}
    tracer.uninstall()
    assert mod.inner is inner and mod.outer is outer


def _rows(costs, terms=None):
    terms = terms or {}
    return [{"n": f"{float(n)}", "termination": terms.get(n, "Converged"), "orders_used": "67",
             "final_tail_norm": "1e-13", "cost": "" if c is None else repr(c)}
            for n, c in costs.items()]


NS = (20, 30, 40, 50)


def test_cost_sweep_check_passes_on_converging_costs_and_counts_diverged_rows():
    rows = _rows({20: 159.6, 30: 0.2313, 40: 0.2109388, 50: 0.2109383}, {20: "Diverged"})
    problems, failed = workloads.check_cost_sweep(rows, NS)
    assert problems == []
    assert failed == 1


@pytest.mark.parametrize("rows, n_failed", [
    (_rows({20: 0.3, 30: 0.5, 40: 0.2109388, 50: 0.2109383}), 0),      # not decreasing
    (_rows({20: 0.3, 30: 0.25, 40: 0.22, 50: 0.21}), 0),              # never settles
    (_rows({20: 0.3, 30: 0.2109383, 40: 0.2209, 50: 0.2109383}), 0),  # leaves after settling
    (_rows({20: None, 30: 0.25, 40: 0.2109388, 50: 0.2109383}, {20: "error: boom"}), 1),
    (_rows({20: 0.3, 30: 0.25, 40: 0.2109388}), 1),                     # a missing row
])
def test_cost_sweep_check_fails(rows, n_failed):
    problems, failed = workloads.check_cost_sweep(rows, NS)
    assert problems
    assert failed == n_failed


class _Fake:
    def __init__(self, at, worst=0.0):
        self.at = at
        self._worst = worst

    def worst(self):
        return self._worst


def _table_at(offset):
    times = workloads.TP31_TABLE_TIMES

    def at(t):
        nearest = np.abs(np.asarray(t)[:, None] - times[None, :]).argmin(axis=1)
        return workloads.TP31_TABLE_VALUES[nearest].T + offset

    return at


def test_tp31_check_passes_and_fails():
    good = _Fake(_table_at(0.0))
    assert workloads.check_tp31(good, None, _Fake(None, 2e-6), published=True) == []
    assert len(workloads.check_tp31(_Fake(_table_at(1e-5)), None, _Fake(None, 2e-5),
                                    published=True)) == 2
    # away from seed 0 only the oracle check applies
    assert workloads.check_tp31(_Fake(_table_at(1e-5)), None, _Fake(None, 2e-6),
                                published=False) == []


def test_tp32_check_passes_and_fails():
    def at(offset):
        return lambda t: np.vstack([np.repeat(workloads.TP32_RHO[:, None], len(t), axis=1),
                                    np.zeros((9, len(t)))]) + offset

    assert workloads.check_tp32(_Fake(at(0.0)), _Fake(at(0.0)), None, published=True) == []
    problems = workloads.check_tp32(_Fake(at(0.01)), _Fake(at(0.1)), None, published=True)
    assert len(problems) == 2


def test_failure_counting_over_operations():
    outcomes = [
        Outcome(1.0, 0.1, 11, 1),                                     # N=20 diverges, checks pass
        Outcome(1.0, 0.1, 11, 2, problems=["cost error not decreasing"]),
        Outcome(None, None, 11, 11, problems=["operation raised"]),
    ]
    assert run.failure_counts(outcomes) == (33, 14, 2)


def test_slowdown_is_the_median_sample_over_the_reference():
    ref = calibrate.REFERENCE_S
    assert calibrate.slowdown([ref, 2 * ref, 9 * ref]) == pytest.approx(2.0)


def test_meter_scales_a_piece_by_the_samples_taken_around_it(monkeypatch):
    ref = calibrate.REFERENCE_S
    batches = iter([[2 * ref, 2 * ref, 3 * ref], [4 * ref], [8 * ref, 8 * ref]])
    monkeypatch.setattr(calibrate, "measure", lambda seconds: next(batches))
    meter = calibrate.Meter()
    assert meter.scale(4.0) == pytest.approx(4.0 / 2)   # no samples before the first piece
    assert meter.scale(5.0) == pytest.approx(5.0 / 2.5)   # median of 2, 2, 3 and 4
    assert meter.scale(6.0) == pytest.approx(6.0 / 8)     # median of 4, 8 and 8
    assert len(meter.samples) == 6


def test_solve_time_sums_the_median_of_each_piece():
    outcomes = [Outcome(3.0, 0.1, 11, 0, solve_ref={"n=20": 1.0, "n=30": 2.0}),
                Outcome(9.0, 0.1, 11, 0, solve_ref={"n=20": 5.0, "n=30": 4.0}),
                Outcome(4.0, 0.1, 11, 0, solve_ref={"n=20": 2.0, "n=30": 2.0}),
                Outcome(None, None, 11, 11, problems=["operation raised"])]
    assert run.solve_ref_s(outcomes) == pytest.approx(2.0 + 2.0)
    assert run.solve_ref_s(outcomes[3:]) is None


def test_sweep_times_each_row_and_checks_the_whole_sweep(tmp_path):
    sweep = workloads.SweepWorkload(ns=(20, 40, 80), max_order=12, mesh=200)
    inputs = sweep.prepare(3)
    outcome = run.run_op(sweep, inputs, tmp_path, Tracer(), calibrate.Meter(), 0, traced=False)
    assert list(outcome.solve_ref) == ["n=20", "n=40", "n=80"]
    assert all(v > 0 for v in outcome.solve_ref.values()) and outcome.verify_ref > 0
    assert outcome.solves == 3
    assert any("settle" in p for p in outcome.problems)  # 12 orders are too few to settle


def test_an_operation_that_raises_counts_every_solve_as_failed():
    class Raising:
        solves = 11

        def execute(self, inputs, tracer, out_dir, meter):
            raise RuntimeError("boom")

    outcome = run.run_op(Raising(), None, None, Tracer(), None, 0, traced=False)
    assert (outcome.solves, outcome.failed_solves) == (11, 11)
    assert outcome.problems


def test_tiny_solve_is_checked_and_its_failure_counted(tmp_path):
    """A real but tiny tp31 operation: too coarse for the published table."""
    tiny = workloads.PaperWorkload("tp31", n_order=20, beta=6.0, hbar=-0.6, max_order=10,
                                   tail_tol=1e-12, mesh=200, check=workloads.check_tp31)
    inputs = tiny.prepare(0)
    outcome = run.run_op(tiny, inputs, tmp_path, Tracer(), calibrate.Meter(), 0, traced=False)
    assert outcome.solve_s > 0 and outcome.verify_s > 0
    assert any("published table" in p for p in outcome.problems)
    assert outcome.failed_solves == 1
    assert outcome.cost_err is not None and np.isfinite(outcome.cost_err)


def test_tiny_solve_traced_records_every_layer(tmp_path):
    import lahoc

    tiny = workloads.PaperWorkload("tp31", n_order=20, beta=6.0, hbar=-0.6, max_order=3,
                                   tail_tol=1e-12, mesh=200, check=workloads.check_tp31)
    tracer = Tracer()
    tracer.install({m: getattr(lahoc, m) for m in ("sham_engine", "ocp_model", "oracle_bvp", "cli")})
    try:
        run.run_op(tiny, tiny.prepare(0), tmp_path, tracer, calibrate.Meter(), 1, traced=True)
    finally:
        tracer.uninstall()
    assert tracer.absent == []
    layers = spans.layer_means(tracer.spans)
    assert layers["laguerre_basis.build_rule_calls"] == 1
    assert layers["sham_engine.operator_rows"] == 4 * 21
    assert layers["sham_engine.orders"] == 3
    assert layers["sham_engine.nonlinear_calls"] == 3 * 9
    assert layers["oracle_bvp.newton_iters"] >= 1
    assert all(layers[m] > 0 for m in spans.SELF_TIME if not m.startswith("cli."))


def test_seed_zero_is_published_and_other_seeds_stay_in_band():
    assert workloads.x0_factor(0) == 1.0
    factors = [workloads.x0_factor(s) for s in range(1, 50)]
    assert factors == [workloads.x0_factor(s) for s in range(1, 50)]
    assert all(0 < abs(f - 1.0) <= workloads.X0_BAND for f in factors)


@pytest.mark.parametrize("make", [builtin_problem_31, builtin_problem_32])
def test_problem_text_round_trips_through_the_cli_parser(make):
    problem = workloads.scale_x0(make(), 1.0003)
    back = parse_problem(workloads.problem_text(problem))
    for a, b in zip(problem.subsystems, back.subsystems):
        for name in ("a_mat", "b_mat", "q_mat", "r_mat", "x0"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        assert a.f_terms == b.f_terms


def test_missing_sources_exit_without_a_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "tp31_paper", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
