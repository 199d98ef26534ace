import numpy as np
import pytest

import ossctl as oc
from ossctl.controller import pi_as_stabilizer, pi_dynamics


def test_gain_validation():
    with pytest.raises(ValueError):
        oc.PiGains(K_P=np.eye(2), K_I=np.zeros((2, 2)))  # singular K_I
    with pytest.raises(ValueError):
        oc.PiGains(K_P=np.eye(2), K_I=np.eye(3))  # size mismatch


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
    gains = oc.PiGains.from_scalars(10.0, 5.0, 1)
    loop = oc.closed_loop(plant_stable, geometry_stable, gains)
    rng = np.random.default_rng(7)
    eta = rng.normal(size=1)
    y = rng.normal(size=2)
    e, u = _pi_at(loop, plant_stable, quadratic_obj, eta, y)
    assert np.allclose(e, -geometry_stable.R.T @ quadratic_obj.gradient(y, u))
    assert np.allclose(u, gains.K_I @ eta + gains.K_P @ e, atol=1e-10)


def test_input_fixed_point_cosh(plant_stable, geometry_stable, cosh_obj):
    gains = oc.PiGains.from_scalars(10.0, 5.0, 1)
    loop = oc.closed_loop(plant_stable, geometry_stable, gains)
    rng = np.random.default_rng(8)
    for _ in range(10):
        eta = rng.normal(size=1)
        y = rng.normal(size=2, scale=2.0)
        e, u = _pi_at(loop, plant_stable, cosh_obj, eta, y)
        assert np.allclose(e, -geometry_stable.R.T @ cosh_obj.gradient(y, u))
        assert np.allclose(u, gains.K_I @ eta + gains.K_P @ e, atol=1e-8)


def test_input_without_proportional_term(plant_stable, geometry_stable, cosh_obj):
    # with K_P = 0 there is no algebraic loop: u = K_I eta exactly
    gains = oc.PiGains(K_P=np.zeros((1, 1)), K_I=2.0 * np.eye(1))
    loop = oc.closed_loop(plant_stable, geometry_stable, gains)
    eta = np.array([0.7])
    _, u = _pi_at(loop, plant_stable, cosh_obj, eta, np.zeros(2))
    assert np.allclose(u, 2.0 * eta)


def test_quadratic_and_newton_paths_agree(plant_stable, geometry_stable, quadratic_obj):
    # the Newton solve of a quadratic loop matches its affine closed form,
    # u = (I + K_P R'H_u)^-1 (K_I eta - K_P R'(H_y y + q))
    gains = oc.PiGains.from_scalars(3.0, 2.0, 1)
    loop = oc.closed_loop(plant_stable, geometry_stable, gains)
    H, q = np.diag([2.0, 1.0, 1.0]), np.zeros(3)  # the quadratic_obj fixture
    RT = geometry_stable.R.T
    rng = np.random.default_rng(9)
    for _ in range(5):
        eta = rng.normal(size=1)
        y = rng.normal(size=2)
        u_direct = np.linalg.solve(
            np.eye(1) + gains.K_P @ RT @ H[:, 2:],
            gains.K_I @ eta - gains.K_P @ RT @ (H[:, :2] @ y + q),
        )
        u_newton = _pi_at(loop, plant_stable, quadratic_obj, eta, y)[1]
        assert np.allclose(u_direct, u_newton, atol=1e-8)


def test_pi_as_stabilizer_matches_pi(
    plant_stable, geometry_stable, quadratic_obj, cosh_obj
):
    # pi_dynamics, the PI law on its own, against the same law run as a
    # zero-order stabilizer; on the cosh cost both take Newton steps
    gains = oc.PiGains.from_scalars(10.0, 5.0, 1)
    stab = pi_as_stabilizer(gains, p=2)
    assert stab.order == 0
    loop = oc.closed_loop(plant_stable, geometry_stable, stab)
    rng = np.random.default_rng(10)
    for obj in (quadratic_obj, cosh_obj):
        for _ in range(5):
            eta = rng.normal(size=1)
            y = rng.normal(size=2)
            e_pi, u_pi = pi_dynamics(gains, geometry_stable, obj, eta, y)
            # the integrator: eta' = e = -R' grad_g(y, u)
            e = -geometry_stable.R.T @ obj.gradient(y, u_pi)
            assert np.allclose(e_pi, e, atol=1e-10)
            e_st, u_st = _pi_at(loop, plant_stable, obj, eta, y)
            assert np.allclose(u_pi, u_st, atol=1e-10)
            assert np.allclose(e_pi, e_st, atol=1e-10)


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
