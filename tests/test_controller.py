import numpy as np
import pytest

import ossctl as oc


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


def test_stabilizer_shape_validation():
    with pytest.raises(ValueError):
        oc.DynamicStabilizer(
            A_s=np.zeros((2, 2)),
            B_s=np.zeros((2, 3)),  # should be 2 x (p + 2m) = 2 x 4
            C_s=np.zeros((1, 2)),
            D_s=np.zeros((1, 4)),
            p=2,
            m=1,
        )
