import math
import warnings
from importlib import resources

import numpy as np
import pytest

import ossctl as oc
import ossctl.controller as controller
from ossctl.controller import MAX_ITER, TOL, _solve_implicit_input
from ossctl.scenario import load_scenario
from ossctl.sim import _affine_closed_loop
from tests.conftest import random_quadratic_instance


def test_gain_validation():
    with pytest.raises(ValueError):
        oc.DynamicStabilizer.pi(np.eye(2), np.zeros((2, 2)), 2)  # singular K_I
    with pytest.raises(ValueError):
        oc.DynamicStabilizer.pi(np.eye(2), np.eye(3), 2)  # size mismatch


@pytest.mark.parametrize(
    "K_P, K_I",
    [(np.eye(1), [[np.nan]]), ([[np.inf]], np.eye(1)), ([[-np.inf]], np.eye(1))],
)
def test_non_finite_pi_gains_rejected(K_P, K_I):
    # a NaN K_I must not reach the condition-number test, which would raise
    # numpy's LinAlgError; an infinite K_P has no condition number to fail
    with pytest.raises(ValueError, match="D_s must be finite"):
        oc.DynamicStabilizer.pi(K_P, K_I, 2)


def test_non_finite_stabilizer_rejected():
    A_s = np.array([[-1.0, 0.0], [0.0, np.nan]])
    with pytest.raises(ValueError, match="A_s must be finite"):
        oc.DynamicStabilizer(
            A_s=A_s, B_s=np.zeros((2, 4)), C_s=np.zeros((1, 2)), D_s=np.zeros((1, 4)),
            p=2, m=1,
        )


def _pi_at(loop, plant, objective, eta, y):
    """(e, u) of the PI loop at the integrator state eta and a plant state
    with output y: the eta rows of the loop's derivative are e."""
    # a plant state with output y; the loop's state is (x, eta)
    x = np.linalg.lstsq(plant.C, y, rcond=None)[0]
    s_dot, u = oc.stabilizer_dynamics(
        loop, objective, np.concatenate([x, eta]), np.zeros(x.size + eta.size)
    )
    return s_dot[x.size :], u


def test_input_fixed_point_quadratic(plant_stable, geometry_stable, quadratic_obj):
    # u = K_I eta + K_P e, with e = -R' grad_g(y, u) the error signal
    K_P, K_I = 10.0 * np.eye(1), 5.0 * np.eye(1)
    pi = oc.DynamicStabilizer.pi(K_P, K_I, 2)
    loop = oc.closed_loop(plant_stable, geometry_stable, pi)
    rng = np.random.default_rng(7)
    eta = rng.normal(size=1)
    y = rng.normal(size=2)
    e, u = _pi_at(loop, plant_stable, quadratic_obj, eta, y)
    assert np.allclose(e, -geometry_stable.R.T @ quadratic_obj.gradient(y, u))
    assert np.allclose(u, K_I @ eta + K_P @ e, atol=1e-10)


def test_input_fixed_point_cosh(plant_stable, geometry_stable, cosh_obj):
    K_P, K_I = 10.0 * np.eye(1), 5.0 * np.eye(1)
    pi = oc.DynamicStabilizer.pi(K_P, K_I, 2)
    loop = oc.closed_loop(plant_stable, geometry_stable, pi)
    rng = np.random.default_rng(8)
    for _ in range(10):
        eta = rng.normal(size=1)
        y = rng.normal(size=2, scale=2.0)
        e, u = _pi_at(loop, plant_stable, cosh_obj, eta, y)
        assert np.allclose(e, -geometry_stable.R.T @ cosh_obj.gradient(y, u))
        assert np.allclose(u, K_I @ eta + K_P @ e, atol=1e-8)


def test_input_without_proportional_term(plant_stable, geometry_stable, cosh_obj):
    # with K_P = 0 there is no algebraic loop: u = K_I eta exactly
    pi = oc.DynamicStabilizer.pi(np.zeros((1, 1)), 2.0 * np.eye(1), 2)
    loop = oc.closed_loop(plant_stable, geometry_stable, pi)
    eta = np.array([0.7])
    _, u = _pi_at(loop, plant_stable, cosh_obj, eta, np.zeros(2))
    assert np.allclose(u, 2.0 * eta)


def test_quadratic_and_newton_paths_agree(plant_stable, geometry_stable, quadratic_obj):
    # the Newton solve of a quadratic loop matches its affine closed form,
    # u = (I + K_P R'H_u)^-1 (K_I eta - K_P R'(H_y y + q))
    K_P, K_I = 3.0 * np.eye(1), 2.0 * np.eye(1)
    pi = oc.DynamicStabilizer.pi(K_P, K_I, 2)
    loop = oc.closed_loop(plant_stable, geometry_stable, pi)
    H, q = np.diag([2.0, 1.0, 1.0]), np.zeros(3)  # the quadratic_obj fixture
    RT = geometry_stable.R.T
    rng = np.random.default_rng(9)
    for _ in range(5):
        eta = rng.normal(size=1)
        y = rng.normal(size=2)
        u_direct = np.linalg.solve(
            np.eye(1) + K_P @ RT @ H[:, 2:],
            K_I @ eta - K_P @ RT @ (H[:, :2] @ y + q),
        )
        u_newton = _pi_at(loop, plant_stable, quadratic_obj, eta, y)[1]
        assert np.allclose(u_direct, u_newton, atol=1e-8)


def test_newton_matches_affine_closed_form_with_several_inputs():
    # with m >= 2 inputs the Newton step is a linear solve, not a division;
    # on a quadratic cost it must land on the affine loop's u = M s + m0.
    # Dividing by J[0, 0] instead stagnates on 4 of these 10 loops
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 10:
        plant, geometry, obj = random_quadratic_instance(rng)
        if plant.m < 2:
            continue
        m = plant.m
        pi = oc.DynamicStabilizer.pi(np.eye(m), np.eye(m), plant.p)
        loop = oc.closed_loop(plant, geometry, pi)
        _, _, M, m0 = _affine_closed_loop(loop, geometry, obj)
        s = rng.normal(size=plant.n + m)
        _, u = oc.stabilizer_dynamics(loop, obj, s, np.zeros(s.size))
        u_affine = (M @ s + m0)[:m]
        assert np.allclose(u, u_affine, rtol=1e-9, atol=1e-9 * np.linalg.norm(u_affine))
        checked += 1


def test_singular_scalar_jacobian_is_an_algebraic_loop_error():
    # u = offset + 0.5 du g with du g = 2u + q_u: the Jacobian 1 - 0.5 * 2 is
    # exactly 0 and the residual -offset - 0.5 q_u does not depend on u
    obj = oc.quadratic_objective(np.diag([1.0, 1.0, 2.0]), np.array([0.0, 0.0, 1.0]), 2)
    D_u = np.array([[0.0, 0.0, 0.5]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no division by the zero Jacobian
        with pytest.raises(oc.AlgebraicLoopError):
            _solve_implicit_input(D_u, 1.0, obj, np.zeros(2), 0.0)


def test_singular_matrix_jacobian_is_an_algebraic_loop_error():
    # D_u swaps the two inputs' gradients, so J = [[1, -1], [-1, 1]] is
    # exactly singular and the residual's sum F1 + F2 does not depend on u;
    # the fallback step ends in the loop error, not in numpy's LinAlgError
    # or a warning
    obj = oc.quadratic_objective(np.eye(3), np.array([0.0, 1.0, 2.0]), 1)
    D_u = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(oc.AlgebraicLoopError):
            _solve_implicit_input(
                D_u, np.array([1.0, -2.0]), obj, np.zeros(1), np.array([0.3, 0.0])
            )


def _array_newton(D_u, offset, objective, y, u0):
    """(u, w, step halvings) of the implicit-input solve done on 1-element
    arrays, as it was before the one-input path ran on floats: the residual,
    Jacobian and norms by numpy, the step by dividing by J[0, 0]."""
    p = objective.p

    def residual(u):
        w = objective.gradient(y, u)
        return u - offset - D_u @ w, w

    u = u0.copy()
    F, w = residual(u)
    nF = math.sqrt(F @ F)
    halvings = 0
    for _ in range(MAX_ITER):
        if nF <= TOL * (1.0 + math.sqrt(u @ u)):
            return u, w, halvings
        J = -(D_u @ objective.hessian(y, u)[:, p:])
        J.flat[:: u.size + 1] += 1.0
        j = J[0, 0]
        step = -F / j if j != 0.0 else -F
        t = 1.0
        for _ in range(40):
            u_new = u + t * step
            F_new, w_new = residual(u_new)
            nF_new = math.sqrt(F_new @ F_new)
            if nF_new < nF:
                break
            t *= 0.5
            halvings += 1
        else:
            raise AssertionError("the reference Newton stagnated")
        u, F, w, nF = u_new, F_new, w_new, nF_new
    raise AssertionError("the reference Newton reached its iteration limit")


def _log_cosh_input_objective():
    """example_vb's cost with 4 log cosh(u) + 0.05 u^2 in place of u^2: the
    input gradient saturates, so Newton from a far start overshoots."""

    def value(y, u):
        return (
            math.cosh(y[0] / 2.0) + math.cosh(y[1] / 3.0)
            + 4.0 * (abs(u[0]) + math.log1p(math.exp(-2.0 * abs(u[0]))) - math.log(2.0))
            + 0.05 * u[0] ** 2
        )

    def gradient(y, u):
        return np.array(
            [
                0.5 * math.sinh(y[0] / 2.0),
                math.sinh(y[1] / 3.0) / 3.0,
                4.0 * math.tanh(u[0]) + 0.1 * u[0],
            ]
        )

    def hessian(y, u):
        return np.diag(
            [
                math.cosh(y[0] / 2.0) / 4.0,
                math.cosh(y[1] / 3.0) / 9.0,
                4.0 * (1.0 - math.tanh(u[0]) ** 2) + 0.1,
            ]
        )

    return oc.SteadyStateObjective(
        value=value, gradient=gradient, hessian=hessian, p=2, m=1,
        kappa=0.1, lipschitz=np.inf,
    )


def test_one_input_newton_is_bitwise_the_array_newton():
    # on example_vb's PI (10, 5) loop, the float path gives the array path's
    # s_dot, u and w to the last bit, from the previous draw's u, from the
    # loop's own start (None) and from a far start; vb's cost is quadratic in
    # u, so Newton lands in one or two steps there, and a cost with a
    # saturating input gradient makes the far starts backtrack
    scn = load_scenario(str(resources.files("ossctl").joinpath("scenarios/example_vb.json")))
    loop = oc.closed_loop(scn.plant, oc.build_kkt_geometry(scn.plant), scn.controller)
    A, B, C, D = loop
    n, p = scn.plant.n, scn.objective.p
    rng = np.random.default_rng(27)

    def far():
        return np.array([rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(1, 12)])

    for objective, starts in (
        (scn.objective, ("previous", "none", "far")),
        (_log_cosh_input_objective(), ("far",)),
    ):
        halvings = 0
        u_prev = None
        for _ in range(500):
            s = rng.normal(scale=3.0, size=A.shape[0])
            drift = np.concatenate([rng.normal(size=n), np.zeros(s.size - n)])
            for start in starts:
                if start == "none":
                    u_prev = None
                elif start == "far":
                    u_prev = far()
                z = C @ s
                u0 = z[p:] if u_prev is None else u_prev
                u_want, w_want, k = _array_newton(D[p:], z[p:], objective, z[:p], u0)
                halvings += k
                s_dot, u = oc.stabilizer_dynamics(loop, objective, s, drift, u_prev)
                _, w = _solve_implicit_input(D[p:], z.item(p), objective, z[:p], u0.item(0))
                assert np.array_equal(s_dot, A @ s + B @ w_want + drift)
                assert np.array_equal(u, u_want)
                assert np.array_equal(w, w_want)
                u_prev = u
        assert (halvings > 0) == (objective is not scn.objective)


def test_iteration_limit_is_an_algebraic_loop_error(monkeypatch, cosh_obj):
    # with one Newton step allowed, a start off the solution ends in the
    # iteration-limit error on the one-input path and on the matrix path
    monkeypatch.setattr(controller, "MAX_ITER", 1)
    with pytest.raises(oc.AlgebraicLoopError, match="iteration limit"):
        _solve_implicit_input(
            np.array([[0.0, 0.0, -6.0]]), 1.0, cosh_obj, np.array([0.5, -1.0]), 5.0
        )
    obj = oc.quadratic_objective(np.eye(3), np.array([0.0, 1.0, 2.0]), 1)
    D_u = np.array([[0.0, -1.0, 0.5], [0.0, 0.5, -2.0]])
    with pytest.raises(oc.AlgebraicLoopError, match="iteration limit"):
        _solve_implicit_input(
            D_u, np.array([1.0, -2.0]), obj, np.zeros(1), np.array([3.0, 4.0])
        )


def test_stop_rule_never_accepts_an_infinite_tolerance(cosh_obj):
    # from |u| = 1e155, u * u overflows.  The one-input path's tolerance is
    # on |u|, so it stays finite, and Newton solves u = 1 - 6 (2u) to 1/13;
    # it is infinite only from u = inf, which raises.  The matrix path's
    # tolerance is inf, and it raises instead of returning the start unsolved
    D_u, y = np.array([[0.0, 0.0, -6.0]]), np.array([0.5, -1.0])
    u, w = _solve_implicit_input(D_u, 1.0, cosh_obj, y, 1e155)
    assert u[0] == pytest.approx(1.0 / 13.0, rel=1e-12)
    assert abs(u[0] - 1.0 - D_u[0] @ w) <= TOL * (1.0 + abs(u[0]))
    with pytest.raises(oc.AlgebraicLoopError, match="too large for the stop rule"):
        _solve_implicit_input(D_u, 1.0, cosh_obj, y, np.inf)
    obj = oc.quadratic_objective(np.eye(3), np.array([0.0, 1.0, 2.0]), 1)
    D_u = np.array([[0.0, -1.0, 0.5], [0.0, 0.5, -2.0]])
    with np.errstate(over="ignore"), pytest.raises(
        oc.AlgebraicLoopError, match="too large for the stop rule"
    ):
        _solve_implicit_input(
            D_u, np.array([1.0, -2.0]), obj, np.zeros(1), np.array([1e155, 0.0])
        )


def test_stabilizer_shape_validation():
    # a 2-state law for p = 2 and m = 1, with one matrix mis-shaped at a time
    for name, shape, message in (
        ("A_s", (2, 3), "A_s must be square"),
        # B_s must be 2 x (p + 2m) = 2 x 4
        ("B_s", (2, 3), r"B_s must be 2x4 \(sigma = \(y, eta, e\)\)"),
        ("C_s", (2, 2), "C_s must be 1x2"),
        ("C_s", (1, 3), "C_s must be 1x2"),
        ("D_s", (1, 3), "D_s must be 1x4"),
    ):
        shapes = {"A_s": (2, 2), "B_s": (2, 4), "C_s": (1, 2), "D_s": (1, 4), name: shape}
        with pytest.raises(ValueError, match=f"^{message}$"):
            oc.DynamicStabilizer(**{k: np.zeros(v) for k, v in shapes.items()}, p=2, m=1)
