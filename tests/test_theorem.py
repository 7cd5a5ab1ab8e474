"""The paper's theorem on the exact LP oracle.

Under a type-invariant dependency structure, selling each good
separately by its own optimal menu is optimal among all joint
mechanisms.  The simultaneous LP optimizes over every joint mechanism of
the discretized instance, so it could refute the claim: on invariant
families its value must equal the separate-selling value.  A drifting
coupling is a witness that the claim needs invariance.
"""

import pytest

from screenforge import model as M
from screenforge import oracle as O

CLAYTON = {"name": "clayton", "alpha": 2.0}
GAUSSIAN = {"name": "gaussian", "rho": 0.5}

INVARIANT = [
    ({"name": "cl_uniform", "goods": 2}, 3, [3, 3]),
    ({"name": "cl_uniform", "goods": 2}, 4, [4, 4]),
    ({"name": "cl_uniform", "goods": 2, "copula": CLAYTON}, 3, [3, 3]),
    ({"name": "cl_uniform", "goods": 2, "copula": CLAYTON}, 4, [4, 4]),
    ({"name": "cl_uniform", "goods": 2, "copula": {"name": "gaussian", "rho": 0.5}}, 3, [3, 3]),
    ({"name": "cl_uniform", "goods": 2, "copula": {"name": "gaussian", "rho": 0.5}}, 4, [4, 4]),
    ({"name": "logistic_shift", "goods": 2, "copula": CLAYTON}, 3, [3, 3]),
    ({"name": "logistic_shift", "goods": 2, "copula": CLAYTON}, 4, [4, 4]),
    ({"name": "logistic_shift", "goods": 3, "copula": CLAYTON}, 2, [3, 3, 3]),
    ({"name": "logistic_shift", "goods": 4, "copula": GAUSSIAN}, 3, [3] * 4),
    ({"name": "logistic_shift", "goods": 4, "copula": {"name": "gaussian", "rho": -0.3}}, 3, [3] * 4),
    ({"name": "logistic_shift", "goods": 6, "copula": GAUSSIAN}, 3, [2] * 6),
]

DRIFTING = {"name": "logistic_shift", "goods": 2,
            "copula": {"name": "gaussian", "rho": -0.8, "rho_slope": 1.6}}


def _gap(family, gamma_cells, theta_cells):
    inst = O.discretize(M.build_model(family), gamma_cells, theta_cells)
    return O.solve_simultaneous(inst).value - O.separate_selling_value(inst)


def _label(family, gamma_cells, theta_cells):
    copula = family.get("copula", {"name": "independence"})
    # a negative rho is named: two 4-good Gaussian rows differ in nothing else
    name = copula["name"] + (f"_rho{copula['rho']}" if copula.get("rho", 0.0) < 0.0 else "")
    cells = "x".join(str(c) for c in [gamma_cells, *theta_cells])
    return f"{family['name']}-{name}-{cells}"


@pytest.mark.parametrize("family,gamma_cells,theta_cells", INVARIANT,
                         ids=[_label(*case) for case in INVARIANT])
def test_separate_selling_is_optimal_under_invariance(family, gamma_cells, theta_cells):
    assert abs(_gap(family, gamma_cells, theta_cells)) <= 1e-9


@pytest.mark.parametrize("gamma_cells", [2, 3])
def test_drifting_coupling_is_a_witness(gamma_cells):
    assert _gap(DRIFTING, gamma_cells, [3, 3]) >= 0.01
