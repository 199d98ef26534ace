"""Acceptance criteria for the toolkit, with pinned tolerances.

Each test maps to one acceptance criterion.  Two are known not to hold at
the pinned thresholds and are left failing on purpose rather than loosened:

* criterion 2 (full certification grid): two corner gain pairs are
  infeasible for the sector LMI, so 98 of 100 certify, not 100.
  verify_stability returns a frequency witness for each of them, a
  frequency at which T(w)* M T(w) has a positive eigenvalue, and the test
  evaluates that eigenvalue itself.
* criterion 3 (tracking threshold 1e-3 at 5 s segments): the closed loop's
  slowest mode near the equilibria is about -0.48, which caps the achievable
  terminal error near 1e-2 for the given segment lengths and gains.
"""

import itertools
import time

import numpy as np
import pytest

import ossctl as oc
from tests.conftest import (
    D_SEGMENTS,
    random_quadratic_instance,
    scalar_pi,
    sector_lmi,
    witness_value,
)

GRID_VA = [round(0.2 * k, 1) for k in range(1, 11)]
GRID_VC = [10.0 ** k for k in range(-3, 4)]


# -- criterion 1: nullspace basis reproduction ------------------------------

def test_criterion_1_q_reproduction(plant_stable):
    t0 = time.time()
    geometry = oc.build_kkt_geometry(plant_stable)
    elapsed = time.time() - t0
    q = geometry.Q.ravel()
    sign = np.sign(q[0]) or 1.0
    assert np.allclose(
        sign * q, [0.1661, 0.2491, -0.6644, 0.1661, 0.6644], atol=5e-4
    )
    assert elapsed < 1.0


# -- criterion 2: full certification sweep (known 98/100) -------------------

def test_criterion_2_certification_sweep(plant_stable, geometry_stable):
    failures = []
    for kp, ki in itertools.product(GRID_VA, GRID_VA):
        cert = oc.verify_stability(
            plant_stable,
            geometry_stable,
            scalar_pi(kp, ki),
            1.0 / 9.0,
            1.0,
        )
        if cert.feasible:
            # certificate re-validation by eigenvalue check
            _, _, _, S_of = sector_lmi(
                plant_stable, geometry_stable, scalar_pi(kp, ki),
                1.0 / 9.0, 1.0,
            )
            S = S_of(cert.P, cert.alpha)
            assert np.linalg.eigvalsh(0.5 * (S + S.T)).max() < 0
        else:
            assert cert.status == "infeasible", (kp, ki)
            assert witness_value(
                plant_stable, geometry_stable, kp, ki, 1.0 / 9.0, 1.0, cert.witness
            ) > 0, (kp, ki, cert.witness)
            failures.append((kp, ki))
    # known to fail: [(0.2, 1.8), (0.2, 2.0)], both "infeasible" with a
    # frequency witness at w = 1.989 and 2.105 rad/s, where
    # lambda_max(T* M T) = 0.169 and 0.330
    assert failures == []


# -- criterion 3: tracking threshold (known ~1e-2 floor, see ledger) --------

@pytest.fixture(scope="module")
def vb_trace(plant_stable, geometry_stable, cosh_obj):
    schedule = oc.DisturbanceSchedule(
        times=[0.0, 5.0, 10.0], values=D_SEGMENTS.tolist()
    )
    return oc.simulate(
        plant_stable,
        geometry_stable,
        cosh_obj,
        scalar_pi(10.0, 5.0),
        schedule,
        15.0,
        dt=1e-3,
    )


def test_criterion_3_tracking(vb_trace):
    metrics = oc.convergence_metrics(vb_trace)
    assert len(metrics) == 3
    worst = max(m["terminal_error"] for m in metrics)
    assert worst < 1e-3  # known to fail: floor is ~1.1e-2 (slow mode -0.48)


# -- criterion 4: modified multiplier is infeasible everywhere --------------

def test_criterion_4_modified_multiplier_infeasible(plant_stable, geometry_stable):
    for kp, ki in itertools.product(GRID_VA, GRID_VA):
        cert = oc.verify_stability(
            plant_stable,
            geometry_stable,
            scalar_pi(kp, ki),
            1.0 / 9.0,
            np.inf,
        )
        assert cert.status == "infeasible", (kp, ki)
        kind, omega, lam = cert.witness
        assert kind == "frequency" and omega == np.inf and lam > 0
        # the witness re-validates independently of the library's code
        assert witness_value(
            plant_stable, geometry_stable, kp, ki, 1.0 / 9.0, np.inf, cert.witness
        ) > 0


# -- criterion 5: unstable-plant grid certifies nothing ---------------------

def test_criterion_5_unstable_grid_negative(plant_unstable, geometry_unstable):
    # every pair is ruled out, each by a witness the test evaluates itself
    for kp, ki in itertools.product(GRID_VC, GRID_VC):
        cert = oc.verify_stability(
            plant_unstable, geometry_unstable, scalar_pi(kp, ki), 1.0, 2.0
        )
        assert cert.status == "infeasible", (kp, ki)
        assert witness_value(
            plant_unstable, geometry_unstable, kp, ki, 1.0, 2.0, cert.witness
        ) > 0, (kp, ki, cert.witness)


# -- criterion 6: synthesis succeeds and tracks the optimizer ---------------

def test_criterion_6_synthesis(
    plant_unstable, geometry_unstable, quadratic_obj, vb_trace
):
    result = oc.synthesize_stabilizer(plant_unstable, geometry_unstable, 1.0, 2.0)
    assert result.gamma < 1.0
    # segment lengths stretched relative to the original figure so the slow
    # certified loop actually settles (see ledger)
    schedule = oc.DisturbanceSchedule(
        times=[0.0, 150.0, 300.0], values=D_SEGMENTS.tolist()
    )
    trace = oc.simulate(
        plant_unstable,
        geometry_unstable,
        quadratic_obj,
        result.stabilizer,
        schedule,
        450.0,
        dt=1e-3,
    )
    metrics = oc.convergence_metrics(trace)
    assert len(metrics) == 3
    for m in metrics:
        assert m["terminal_error"] < 1e-2
    # qualitative ordering: synthesized loop overshoots more than the PI loop
    pi_metrics = oc.convergence_metrics(vb_trace)
    overshoot = max(m["peak_error"] / m["initial_error"] for m in metrics)
    pi_overshoot = max(m["peak_error"] / m["initial_error"] for m in pi_metrics)
    assert overshoot > pi_overshoot


# -- criterion 7: equilibrium correspondence on random scenarios ------------

def test_criterion_7_equilibrium_correspondence():
    rng = np.random.default_rng(17)
    count = 0
    while count < 50:
        plant, geometry, obj = random_quadratic_instance(rng)
        K_I = 0.5 * np.eye(plant.m)
        pi = oc.DynamicStabilizer.pi(0.5 * np.eye(plant.m), K_I, plant.p)
        from ossctl.sim import _affine_closed_loop

        loop = oc.closed_loop(plant, geometry, pi)
        F = _affine_closed_loop(loop, geometry, obj)[0]
        decay = -np.linalg.eigvals(F).real.max()
        if decay < 0.05:  # resample: only convergent loops reach equilibrium
            continue
        count += 1
        d = rng.normal(size=plant.n)
        ref = oc.solve_quadratic_closed_form(plant, geometry, obj, d)
        schedule = oc.DisturbanceSchedule.constant(d)
        t_final = min(400.0, max(20.0, 16.0 / decay))
        trace = oc.simulate(
            plant, geometry, obj, pi, schedule, t_final,
            dt=1e-3,
        )
        final = np.concatenate([trace.y[-1], trace.u[-1]])
        assert np.linalg.norm(final - ref.yu()) < 1e-4
        # converse: the optimal equilibrium s = (x*, eta*) is a rest point
        # of the loop: both its x rows and its eta rows (e) vanish
        eta_star = np.linalg.solve(K_I, ref.u_star)
        s_dot, _ = oc.stabilizer_dynamics(
            loop, obj, np.concatenate([ref.x_star, eta_star]),
            np.concatenate([d, np.zeros(plant.m)]),
        )
        assert np.linalg.norm(s_dot[: plant.n]) < 1e-7
        assert np.linalg.norm(s_dot[plant.n :]) < 1e-7


# -- criterion 8: oracle equivalence ----------------------------------------

def test_criterion_8_oracle_equivalence():
    # with the cost's exact Hessian one Newton step lands on the optimizer;
    # draws 23, 26 and 42 (0-based) are those where an approximate Hessian
    # leaves the reduced gradient floored above the stop rule
    rng = np.random.default_rng(18)
    for _ in range(50):
        plant, geometry, obj = random_quadratic_instance(rng)
        d = rng.normal(size=plant.n)
        newton = oc.solve_steady_state(plant, geometry, obj, d)
        direct = oc.solve_quadratic_closed_form(plant, geometry, obj, d)
        assert np.linalg.norm(newton.yu() - direct.yu()) < 1e-10
        assert newton.iterations <= 2


# -- criterion 9: numerical hygiene -----------------------------------------

def _hessian_fd_error(obj, points, h=1e-5):
    """Max relative error between the declared Hessian and central
    differences of the declared gradient."""
    worst = 0.0
    for z in points:
        H = obj.hessian(z[: obj.p], z[obj.p :])
        fd = np.column_stack(
            [
                (obj.grad_stacked(z + h * e) - obj.grad_stacked(z - h * e)) / (2 * h)
                for e in np.eye(z.size)
            ]
        )
        worst = max(worst, np.linalg.norm(H - fd) / max(np.linalg.norm(H), 1.0))
    return worst


def test_criterion_9_gradient_fd(cosh_obj):
    # the declared gradient against the value, the declared Hessian against
    # the gradient, on the same points
    rng = np.random.default_rng(19)
    points = rng.uniform(-3, 3, (50, 3))
    assert oc.check_gradient_fd(cosh_obj, points) < 1e-5
    assert _hessian_fd_error(cosh_obj, points) < 1e-5
    G = rng.normal(size=(5, 5))
    quad = oc.quadratic_objective(G @ G.T + np.eye(5), rng.normal(size=5), p=3)
    points = rng.uniform(-2, 2, (50, 5))
    assert oc.check_gradient_fd(quad, points) < 1e-5
    assert _hessian_fd_error(quad, points) < 1e-5


def test_criterion_9_lmi_affinity(plant_stable, geometry_stable):
    _, _, _, S = sector_lmi(
        plant_stable, geometry_stable, scalar_pi(1.0, 1.0),
        1.0 / 9.0, 1.0,
    )
    rng = np.random.default_rng(20)
    P1 = rng.normal(size=(5, 5))
    P1 += P1.T
    P2 = rng.normal(size=(5, 5))
    P2 += P2.T
    combo = S(0.3 * P1 + 0.7 * P2, 0.3 * 2.0 + 0.7 * 0.5)
    assert np.linalg.norm(combo - (0.3 * S(P1, 2.0) + 0.7 * S(P2, 0.5))) < 1e-12
    assert np.linalg.norm(S(P1, 1.0) - S(P1, 1.0).T) < 1e-12


def test_criterion_9_riccati_scalar_pair():
    # the bounded-real Riccati equation of 1/(s + 1) at level g,
    # -2P + P^2/g^2 + 1 = 0: above the norm 1 its stabilizing solution is
    # g^2 - g sqrt(g^2 - 1); below it the Hamiltonian has eigenvalues
    # +-j sqrt(1/g^2 - 1) on the imaginary axis and no solution
    from ossctl._linalg import _stabilizing_solution

    def hamiltonian(g):
        return np.array([[-1.0, 1.0 / g**2], [-1.0, 1.0]])

    P = _stabilizing_solution(hamiltonian(2.0))
    assert P.shape == (1, 1)
    assert P[0, 0] == pytest.approx(4.0 - 2.0 * np.sqrt(3.0), rel=1e-12)
    assert _stabilizing_solution(hamiltonian(0.5)) is None


# -- criterion 10: excluded by design ---------------------------------------

@pytest.mark.skip(
    reason="pointwise figure reproduction is excluded by design: the source "
    "plots leave initial conditions and solver unspecified; criteria 3 and 6 "
    "are the property-based replacements"
)
def test_criterion_10_pointwise_figures_excluded():
    pass
