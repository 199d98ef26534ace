import itertools
import time
from importlib import resources

import numpy as np
import pytest

import ossctl as oc
import ossctl.kkt
import ossctl.oracle
from ossctl.oracle import OracleError
from tests.conftest import D_SEGMENTS, random_quadratic_instance


def test_quadratic_oracle_matches_newton(plant_stable, geometry_stable, quadratic_obj):
    for d in D_SEGMENTS:
        newton = oc.solve_steady_state(
            plant_stable, geometry_stable, quadratic_obj, d
        )
        direct = oc.solve_quadratic_closed_form(
            plant_stable, geometry_stable, quadratic_obj, d
        )
        assert np.linalg.norm(newton.yu() - direct.yu()) < 1e-8


def test_oracle_residuals_small(plant_stable, geometry_stable, cosh_obj):
    for d in D_SEGMENTS:
        res = oc.solve_steady_state(plant_stable, geometry_stable, cosh_obj, d)
        assert res.kkt_feas < 1e-7
        assert res.kkt_grad < 1e-7


def test_oracle_beats_feasible_point(plant_stable, geometry_stable, cosh_obj):
    d = D_SEGMENTS[0]
    res = oc.solve_steady_state(plant_stable, geometry_stable, cosh_obj, d)
    z = -np.linalg.pinv(plant_stable.stacked_AB()) @ d  # a forced equilibrium
    feasible_value = cosh_obj.value(plant_stable.C @ z[:4], z[4:])
    assert res.objective_value <= feasible_value + 1e-12


def test_oracle_optimal_over_perturbations(plant_stable, geometry_stable, cosh_obj):
    # moving along the feasible subspace can only increase the objective
    d = D_SEGMENTS[1]
    res = oc.solve_steady_state(plant_stable, geometry_stable, cosh_obj, d)
    z_star = np.concatenate([res.x_star, res.u_star])
    rng = np.random.default_rng(4)
    for _ in range(20):
        z = z_star + geometry_stable.Q @ rng.normal(size=1)
        y = plant_stable.C @ z[:4]
        assert cosh_obj.value(y, z[4:]) >= res.objective_value - 1e-12


def test_random_instances_match_closed_form():
    rng = np.random.default_rng(5)
    for _ in range(10):
        plant, geometry, obj = random_quadratic_instance(rng)
        d = rng.normal(size=plant.n)
        newton = oc.solve_steady_state(plant, geometry, obj, d)
        direct = oc.solve_quadratic_closed_form(plant, geometry, obj, d)
        assert np.linalg.norm(newton.yu() - direct.yu()) < 1e-6


def test_iteration_cap_raises_with_gradient_norm(
    monkeypatch, plant_stable, geometry_stable, cosh_obj
):
    monkeypatch.setattr(ossctl.oracle, "MAX_ITER", 1)
    with pytest.raises(OracleError, match=r"1 iterations at gradient norm \d"):
        oc.solve_steady_state(
            plant_stable, geometry_stable, cosh_obj, D_SEGMENTS[0], w0=np.array([30.0])
        )


def test_failed_line_search_raises_with_gradient_norm(plant_stable, geometry_stable):
    # a value that rises at every evaluation: no step passes the Armijo test
    calls = itertools.count()
    rising = oc.SteadyStateObjective(
        value=lambda y, u: float(next(calls)),
        gradient=lambda y, u: np.ones(3),
        hessian=lambda y, u: np.eye(3),
        p=2,
        m=1,
        kappa=1.0,
        lipschitz=1.0,
    )
    with pytest.raises(OracleError, match=r"line search failed at gradient norm \d"):
        oc.solve_steady_state(plant_stable, geometry_stable, rising, D_SEGMENTS[0])


def test_unbounded_objective_detected(plant_stable, geometry_stable):
    # linear objective with descent direction along the feasible subspace
    q = np.zeros(3)
    obj = oc.quadratic_objective(np.zeros((3, 3)), q, p=2)
    grad_dir = geometry_stable.R.T @ np.ones(3)
    assert abs(grad_dir) > 1e-6  # nonzero slope along the subspace
    linear = oc.SteadyStateObjective(
        value=lambda y, u: float(y[0] + y[1] + u[0]),
        gradient=lambda y, u: np.ones(3),
        hessian=lambda y, u: np.zeros((3, 3)),
        p=2,
        m=1,
        kappa=0.0,
        lipschitz=1.0,
    )
    # the gradient step doubles while Armijo holds, so the value crosses the
    # unboundedness threshold within a few iterations
    t0 = time.perf_counter()
    with pytest.raises(OracleError, match="unbounded"):
        oc.solve_steady_state(plant_stable, geometry_stable, linear, D_SEGMENTS[0])
    assert time.perf_counter() - t0 < 0.05


def test_oracle_solves_on_the_geometry_it_is_given(monkeypatch):
    # the oracle needs no second SVD: with the geometry builder unavailable it
    # still solves example_vb's three segments from the geometry it is handed
    scn = oc.load_scenario(
        str(resources.files("ossctl").joinpath("scenarios/example_vb.json"))
    )
    geometry = oc.build_kkt_geometry(scn.plant)

    def unavailable(plant):
        raise AssertionError("the oracle rebuilt the KKT geometry")

    for module in (ossctl.oracle, ossctl.kkt):
        monkeypatch.setattr(module, "build_kkt_geometry", unavailable, raising=False)
    assert len(scn.schedule.values) == 3
    for d in scn.schedule.values:
        res = oc.solve_steady_state(scn.plant, geometry, scn.objective, d)
        assert res.kkt_feas < 1e-8 and res.kkt_grad < 1e-8


@pytest.mark.parametrize(
    "H, message",
    [
        # no curvature: the KKT matrix is singular in exact arithmetic
        (np.zeros((2, 2)), "singular KKT system: optimizer not unique"),
        (1e-14 * np.eye(2), r"ill-conditioned KKT system \(cond=1\.\d+e\+14\)"),
    ],
)
def test_closed_form_refuses_a_flat_cost(H, message):
    # x' = -x + u + d, y = x: the feasible set is the line u = x - d
    plant = oc.LtiPlant(A=[[-1.0]], B=[[1.0]], C=[[1.0]])
    geometry = oc.build_kkt_geometry(plant)
    obj = oc.quadratic_objective(H, np.zeros(2), p=1)
    with pytest.raises(OracleError, match=message):
        oc.solve_quadratic_closed_form(plant, geometry, obj, np.zeros(1))


def test_closed_form_needs_a_quadratic_cost(plant_stable, geometry_stable, cosh_obj):
    with pytest.raises(OracleError, match="the closed form needs a quadratic cost"):
        oc.solve_quadratic_closed_form(
            plant_stable, geometry_stable, cosh_obj, D_SEGMENTS[0]
        )
