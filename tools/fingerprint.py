"""Print a bit-identity fingerprint of lahoc's solves and oracle, one line each.

A change meant to leave every number as it was (a refactor, a deletion) is
checked by running this script on both sides and comparing the output. It
imports lahoc from this checkout's `src/` and runs NumPy's bundled OpenBLAS
on one thread. Run from anywhere, with no options:

    python tools/fingerprint.py

It prints 15 lines. The solve lines are tp31 (N=100, beta=1, hbar=-0.6,
100 orders), tp32 (N=50, beta=0.5, hbar=-1, 20 orders) and the cost sweep's
11 rows (tp31, beta=6, hbar=-0.6, 150 orders, tol 1e-13, N=20..120). Each
reads

    <name> <termination> <orders used> <repr(cost)> <sha1>

the SHA-1 taken over the node solution, the per-order costs and the tail
norms. The oracle lines are tp31 at mesh 2000 and tp32 at mesh 1200, both at
t_end 40. Each reads

    oracle <name> <band solves> <factorizations> <sha1>

the SHA-1 taken over the mesh values and slopes.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from lahoc import (  # noqa: E402
    BasisConfig,
    SolverConfig,
    TruncationConfig,
    builtin_problem_31,
    builtin_problem_32,
    derive_tpbvp,
    solve_ocp,
    solve_truncated,
)
from lahoc.openblas import one_thread  # noqa: E402

# name, problem, N, beta, hbar, orders, tail tolerance
SOLVES = [
    ("tp31", builtin_problem_31, 100, 1.0, -0.6, 100, 1e-12),
    ("tp32", builtin_problem_32, 50, 0.5, -1.0, 20, 1e-12),
    *[(f"sweep n={n}", builtin_problem_31, n, 6.0, -0.6, 150, 1e-13) for n in range(20, 121, 10)],
]
ORACLES = [("tp31", builtin_problem_31, 2000), ("tp32", builtin_problem_32, 1200)]


def sha1(*arrays) -> str:
    digest = hashlib.sha1()
    for array in arrays:
        digest.update(np.ascontiguousarray(array, dtype=float).tobytes())
    return digest.hexdigest()


def main() -> None:
    with one_thread():
        for name, problem, n, beta, hbar, orders, tol in SOLVES:
            config = SolverConfig(hbar, BasisConfig(beta=beta, n_order=n), orders, tol)
            bundle = solve_ocp(problem(), config, report_times=())
            digest = sha1(bundle.solution, bundle.per_order_costs, bundle.tail_norms)
            print(name, bundle.termination.value, len(bundle.tail_norms) - 1,
                  repr(bundle.cost), digest)
        for name, problem, mesh in ORACLES:
            oracle = solve_truncated(derive_tpbvp(problem()), TruncationConfig(40.0, mesh))
            print("oracle", name, oracle.newton_iters, oracle.factorizations,
                  sha1(oracle.values, oracle.slopes))


if __name__ == "__main__":
    main()
