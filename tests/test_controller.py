import numpy as np
import pytest

import ossctl as oc
from ossctl.controller import ControllerState, pi_as_stabilizer
from ossctl.synthesis import closed_loop_system, open_loop


def test_gain_validation():
    with pytest.raises(ValueError):
        oc.PiGains(K_P=np.eye(2), K_I=np.zeros((2, 2)))  # singular K_I
    with pytest.raises(ValueError):
        oc.PiGains(K_P=np.eye(2), K_I=np.eye(3))  # size mismatch


def test_error_signal_definition(geometry_stable, quadratic_obj):
    rng = np.random.default_rng(6)
    y = rng.normal(size=2)
    u = rng.normal(size=1)
    e = oc.error_signal(geometry_stable, quadratic_obj, y, u)
    expected = -geometry_stable.R.T @ quadratic_obj.gradient(y, u)
    assert np.allclose(e, expected)


def test_resolve_input_fixed_point_quadratic(geometry_stable, quadratic_obj):
    gains = oc.PiGains.from_scalars(10.0, 5.0, 1)
    rng = np.random.default_rng(7)
    eta = rng.normal(size=1)
    y = rng.normal(size=2)
    u = oc.resolve_input(gains, geometry_stable, quadratic_obj, eta, y)
    e = oc.error_signal(geometry_stable, quadratic_obj, y, u)
    assert np.allclose(u, gains.K_I @ eta + gains.K_P @ e, atol=1e-10)


def test_resolve_input_fixed_point_cosh(geometry_stable, cosh_obj):
    gains = oc.PiGains.from_scalars(10.0, 5.0, 1)
    rng = np.random.default_rng(8)
    for _ in range(10):
        eta = rng.normal(size=1)
        y = rng.normal(size=2, scale=2.0)
        u = oc.resolve_input(gains, geometry_stable, cosh_obj, eta, y)
        e = oc.error_signal(geometry_stable, cosh_obj, y, u)
        assert np.allclose(u, gains.K_I @ eta + gains.K_P @ e, atol=1e-8)


def test_resolve_input_no_proportional_term(geometry_stable, cosh_obj):
    # with K_P = 0 there is no algebraic loop: u = K_I eta exactly
    gains = oc.PiGains(K_P=np.zeros((1, 1)), K_I=2.0 * np.eye(1))
    eta = np.array([0.7])
    u = oc.resolve_input(gains, geometry_stable, cosh_obj, eta, np.zeros(2))
    assert np.allclose(u, 2.0 * eta)


def test_quadratic_and_newton_paths_agree(geometry_stable, quadratic_obj):
    # the Newton solve of a quadratic loop matches its affine closed form,
    # u = (I + K_P R'H_u)^-1 (K_I eta - K_P R'(H_y y + q))
    gains = oc.PiGains.from_scalars(3.0, 2.0, 1)
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
        u_newton = oc.resolve_input(gains, geometry_stable, quadratic_obj, eta, y)
        assert np.allclose(u_direct, u_newton, atol=1e-8)


def test_pi_dynamics_integrator(geometry_stable, quadratic_obj):
    gains = oc.PiGains.from_scalars(1.0, 1.0, 1)
    state = ControllerState(eta=np.array([0.3]))
    eta_dot, u = oc.pi_dynamics(
        gains, geometry_stable, quadratic_obj, state, np.array([1.0, -1.0])
    )
    e = oc.error_signal(geometry_stable, quadratic_obj, np.array([1.0, -1.0]), u)
    assert np.allclose(eta_dot, e)


def test_pi_as_stabilizer_matches_pi(plant_stable, geometry_stable, quadratic_obj):
    gains = oc.PiGains.from_scalars(10.0, 5.0, 1)
    stab = pi_as_stabilizer(gains, p=2)
    assert stab.order == 0
    loop = closed_loop_system(open_loop(plant_stable, geometry_stable), stab)
    rng = np.random.default_rng(10)
    for _ in range(5):
        eta = rng.normal(size=1)
        y = rng.normal(size=2)
        e_pi, u_pi = oc.pi_dynamics(
            gains, geometry_stable, quadratic_obj, ControllerState(eta), y
        )
        # a plant state with output y; the loop's state is (x, eta)
        x = np.linalg.lstsq(plant_stable.C, y, rcond=None)[0]
        s_dot, u_st = oc.stabilizer_dynamics(
            loop, quadratic_obj, np.concatenate([x, eta]), np.zeros(x.size + 1)
        )
        e_st = s_dot[x.size :]
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
