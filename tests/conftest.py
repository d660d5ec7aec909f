import numpy as np
import pytest

from lahoc import (
    BasisConfig,
    DecayAtInfinity,
    HomotopySeries,
    InitialValue,
    SolverConfig,
    SystemSpec,
    build_rule,
)


@pytest.fixture(scope="session")
def rule_n30():
    return build_rule(BasisConfig(beta=1.0, n_order=30))


def linear_decay_spec(rate: float = 1.0, x0: float = 1.0) -> SystemSpec:
    """Scalar z' = -rate * z, z(0) = x0; exact solution x0 * exp(-rate t)."""
    return SystemSpec(
        dim=1,
        sigma=np.array([[rate]]),
        nonlinear=((),),
        bc=(InitialValue(x0),),
    )


def coupled_linear_spec() -> SystemSpec:
    """2x2 linear system with one initial-value and one decay component."""
    sigma = np.array([[1.5, -0.25], [0.5, 2.0]])
    return SystemSpec(
        dim=2,
        sigma=sigma,
        nonlinear=((), ()),
        bc=(InitialValue(0.7), DecayAtInfinity()),
    )


# x' = -x + u - x^3 from x0 = 1e103: x0^3 overflows a double, so order 1's
# right-hand side is inf and the run ends Diverged with order 0 kept
OVERFLOWING_CUBIC = (
    "lahoc-problem v1\nsubsystem\ndim 1\ninputs 1\nA -1\nB 1\nQ 1\nR 1\n"
    "x0 1e103\nf 0 -1 : 3\n"
)


def series_of(orders, chains) -> HomotopySeries:
    """A homotopy series holding exactly `orders`, built from the first and
    filled by `append`, on the chain table `chains`."""
    series = HomotopySeries(orders[0], len(orders) - 1, chains)
    for z in orders[1:]:
        series.append(z)
    return series


def solver_config(beta=1.0, n=30, hbar=-1.0, max_order=30, tail_tol=1e-12):
    return SolverConfig(
        hbar=hbar,
        basis=BasisConfig(beta=beta, n_order=n),
        max_order=max_order,
        tail_tol=tail_tol,
    )
