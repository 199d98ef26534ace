import numpy as np
import pytest

import ossctl as oc
from ossctl.kkt import KktError

Q_PRINTED = np.array([0.1661, 0.2491, -0.6644, 0.1661, 0.6644])


def test_q_is_orthonormal_nullspace_basis(plant_stable, geometry_stable):
    Q = geometry_stable.Q
    assert Q.shape == (5, 1)
    assert np.allclose(Q.T @ Q, np.eye(1), atol=1e-12)
    assert np.linalg.norm(plant_stable.stacked_AB() @ Q) < 1e-10


def test_q_matches_published_row(geometry_stable):
    q = geometry_stable.Q.ravel()
    sign = np.sign(q[0]) or 1.0
    assert np.allclose(sign * q, Q_PRINTED, atol=5e-4)


def test_r_projection(plant_stable, geometry_stable):
    n, m, p = plant_stable.n, plant_stable.m, plant_stable.p
    blk = np.block(
        [
            [plant_stable.C, np.zeros((p, m))],
            [np.zeros((m, n)), np.eye(m)],
        ]
    )
    assert np.allclose(geometry_stable.R, blk @ geometry_stable.Q)


def test_residual_zero_at_optimizer(plant_stable, geometry_stable, quadratic_obj):
    d = np.array([-1.0, 3.0, 1.0, 2.0])
    ref = oc.solve_quadratic_closed_form(
        plant_stable, geometry_stable, quadratic_obj, d
    )
    feas, grad = oc.kkt_residual(
        plant_stable, geometry_stable, quadratic_obj, ref.x_star, ref.u_star, d
    )
    assert feas < 1e-8
    assert grad < 1e-8


def test_residual_nonzero_off_optimizer(plant_stable, geometry_stable, quadratic_obj):
    d = np.array([-1.0, 3.0, 1.0, 2.0])
    z = -np.linalg.pinv(plant_stable.stacked_AB()) @ d
    feas, grad = oc.kkt_residual(
        plant_stable, geometry_stable, quadratic_obj, z[:4], z[4:], d
    )
    assert feas < 1e-8  # feasible by construction
    assert grad > 1e-3  # but not optimal


def test_rank_deficient_AB_rejected():
    plant = oc.LtiPlant(
        A=np.zeros((2, 2)), B=np.array([[1.0], [0.0]]), C=np.eye(2)
    )
    with pytest.raises(KktError):
        oc.build_kkt_geometry(plant)
