import csv
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import ossctl as oc
import ossctl.lmi as lmi
from ossctl.cli import main
from ossctl.lmi import LmiError, build_multiplier
from tests.conftest import (
    member_growth,
    random_quadratic_instance,
    scalar_pi,
    sector_lmi,
    witness_value,
)

KAPPA_A, L_A = 1.0 / 9.0, 1.0

DATA = Path(__file__).resolve().parent / "data"


def test_realization_shapes(plant_stable, geometry_stable):
    pi = scalar_pi(2.0, 2.0)
    A, B, C, D = oc.closed_loop(plant_stable, geometry_stable, pi)
    assert A.shape == (5, 5)
    assert B.shape == (5, 3)
    assert C.shape == (3, 5)
    assert D.shape == (3, 3)
    # integrator rows of the state matrix are zero
    assert np.allclose(A[4:, :], 0.0)


def test_pi_realization_is_its_stabilizer_realization(plant_stable, geometry_stable):
    # over example_va's grid, the loop a PI law closes as a zero-order
    # stabilizer is the PI loop written out, with input w = grad_g:
    # x' = A x + B u, eta' = e, u = k_i eta + k_p e, and e = -R' w
    grid = [round(0.2 * k, 1) for k in range(1, 11)]
    RT = geometry_stable.R.T
    A, B, C = plant_stable.A, plant_stable.B, plant_stable.C
    for kp in grid:
        for ki in grid:
            loop = oc.closed_loop(plant_stable, geometry_stable, scalar_pi(kp, ki))
            written = (
                np.block([[A, B * ki], [np.zeros((1, 5))]]),
                np.vstack([-kp * B @ RT, -RT]),
                np.block([[C, np.zeros((2, 1))], [np.zeros((1, 4)), ki * np.eye(1)]]),
                np.vstack([np.zeros((2, 3)), -kp * RT]),
            )
            for got, want in zip(loop, written):
                assert np.allclose(got, want, rtol=1e-15, atol=1e-15)


def _sector_form(M, s):
    """(z, w)' M (z, w) on the linear gradient w = s z, at z = (1, 1, 1)."""
    z = np.ones(3)
    zw = np.concatenate([z, s * z])
    return zw @ M @ zw


def test_multiplier_finite_sector():
    M = build_multiplier(KAPPA_A, L_A, 3)
    assert M.shape == (6, 6)
    assert np.allclose(M, M.T)
    # the form is nonnegative on the sector's linear members w = s z, zero
    # at both of its ends, and negative outside it
    for s in np.linspace(KAPPA_A, L_A, 9):
        assert _sector_form(M, s) >= -1e-12
    for s in (KAPPA_A, L_A):
        assert _sector_form(M, s) == pytest.approx(0.0, abs=1e-12)
    for s in (KAPPA_A / 2, 2 * L_A):
        assert _sector_form(M, s) < -1e-3


def test_multiplier_infinite_sector():
    M = build_multiplier(KAPPA_A, np.inf, 3)
    for s in (KAPPA_A, 0.5, 1.0, 100.0, 1e6):
        assert _sector_form(M, s) >= -1e-12
    assert _sector_form(M, KAPPA_A) == pytest.approx(0.0, abs=1e-12)
    for s in (0.0, KAPPA_A / 2, 0.9 * KAPPA_A):
        assert _sector_form(M, s) < -1e-3


def test_multiplier_validation():
    with pytest.raises(LmiError):
        build_multiplier(-0.1, 1.0, 2)
    with pytest.raises(LmiError):
        build_multiplier(2.0, 1.0, 2)


def test_lmi_affinity_and_symmetry(plant_stable, geometry_stable):
    # S(P, alpha) must be symmetric and affine in (P, alpha) to 1e-12
    pi = scalar_pi(1.0, 1.0)
    _, _, _, S = sector_lmi(plant_stable, geometry_stable, pi, KAPPA_A, L_A)
    rng = np.random.default_rng(12)
    P1 = rng.normal(size=(5, 5))
    P1 = P1 + P1.T
    P2 = rng.normal(size=(5, 5))
    P2 = P2 + P2.T
    a1, a2 = 0.7, 1.3
    lhs = S(0.25 * P1 + 0.75 * P2, 0.25 * a1 + 0.75 * a2)
    rhs = 0.25 * S(P1, a1) + 0.75 * S(P2, a2)
    assert np.linalg.norm(lhs - rhs) < 1e-12
    assert np.linalg.norm(S(P1, a1) - S(P1, a1).T) < 1e-12


def test_verify_certifies_example_gain(plant_stable, geometry_stable):
    cert = oc.verify_stability(
        plant_stable,
        geometry_stable,
        scalar_pi(2.0, 2.0),
        KAPPA_A,
        L_A,
    )
    assert cert.feasible
    # certificate re-validates by eigenvalue check
    assert cert.eig_S_max < 0
    assert cert.eig_P_min > 0
    assert cert.alpha >= 0


def test_certificate_eigenvalue_revalidation(plant_stable, geometry_stable):
    pi = scalar_pi(1.0, 1.0)
    cert = oc.verify_stability(plant_stable, geometry_stable, pi, KAPPA_A, L_A)
    assert cert.feasible
    _, _, _, S_of = sector_lmi(plant_stable, geometry_stable, pi, KAPPA_A, L_A)
    S = S_of(cert.P, cert.alpha)
    S = 0.5 * (S + S.T)
    assert np.linalg.eigvalsh(S).max() < 0
    assert np.linalg.eigvalsh(cert.P).min() > 0


def test_unstable_loop_not_certified(plant_unstable, geometry_unstable):
    # this loop has a closed-loop eigenvalue in the right half plane; any
    # sound certificate search must fail on it
    pi = scalar_pi(1.0, 1.0)
    cert = oc.verify_stability(plant_unstable, geometry_unstable, pi, 1.0, 2.0)
    assert not cert.feasible
    # the sector's lower edge kappa = 1 is itself a destabilizing member
    kind, kappa, growth = cert.witness
    assert (kind, kappa) == ("member", 1.0)
    assert growth == pytest.approx(
        member_growth(plant_unstable, geometry_unstable, pi, 1.0), rel=1e-9
    )
    assert growth > 0


def test_grid_search_records(plant_stable, geometry_stable):
    records = oc.gain_grid_search(
        plant_stable, geometry_stable, [0.5, 1.0], [0.5, 1.0], KAPPA_A, L_A
    )
    assert len(records) == 4
    assert all(r["certified"] for r in records)
    # the rows are tune.csv's, in its column order
    assert {tuple(r) for r in records} == {("k_P", "k_I", "certified", "status", "margin")}
    assert all(r["margin"] > 0 for r in records)


def _lmi_data(plant, geometry, kp, ki):
    return sector_lmi(plant, geometry, scalar_pi(kp, ki), KAPPA_A, L_A)


def test_p_terms_vanish_on_frequency_direction(plant_stable, geometry_stable):
    # on xi = [(jwI - A)^-1 B w; w] the P terms cancel for every symmetric P,
    # which is what makes a positive xi* MM xi a witness
    A, B, _, S = _lmi_data(plant_stable, geometry_stable, 0.2, 1.8)
    rng = np.random.default_rng(21)
    nm, pm = B.shape
    for omega in (1e-3, 0.7, 1.8, 40.0):
        P = rng.normal(size=(nm, nm))
        P = P + P.T
        w = rng.normal(size=pm) + 1j * rng.normal(size=pm)
        x = np.linalg.solve(1j * omega * np.eye(nm) - A, B @ w)
        xi = np.concatenate([x, w])
        L0 = S(P, 0.0)
        assert abs(xi.conj() @ L0 @ xi) < 1e-12 * np.linalg.norm(L0) * (xi.conj() @ xi).real


VA_GRID = [round(0.2 * k, 1) for k in range(1, 11)]


def test_va_grid_witnesses_and_certificates_exclude_each_other(
    plant_stable, geometry_stable
):
    # each certified pair's frequency form is negative on a dense grid, and
    # each pair ruled out carries a witness that re-validates; exactly the
    # two known corners are ruled out
    omegas = np.logspace(-3, 3, 200)
    ruled_out = []
    for kp in VA_GRID:
        for ki in VA_GRID:
            cert = oc.verify_stability(
                plant_stable, geometry_stable, scalar_pi(kp, ki), KAPPA_A, L_A
            )
            A, B, MM, _ = _lmi_data(plant_stable, geometry_stable, kp, ki)
            x = np.linalg.solve(1j * omegas[:, None, None] * np.eye(A.shape[0]) - A, B)
            xi = np.concatenate([x, np.broadcast_to(np.eye(3), (omegas.size, 3, 3))], axis=1)
            form = np.linalg.eigvalsh(np.conj(np.swapaxes(xi, 1, 2)) @ MM @ xi)[:, -1]
            if cert.feasible:
                assert form.max() < 0, (kp, ki)
            else:
                assert cert.status == "infeasible"
                assert form.max() > 0
                assert witness_value(
                    plant_stable, geometry_stable, kp, ki, KAPPA_A, L_A, cert.witness
                ) > 0
                ruled_out.append((kp, ki))
    assert ruled_out == [(0.2, 1.8), (0.2, 2.0)]


def test_infeasible_pair_carries_witness(plant_stable, geometry_stable):
    cert = oc.verify_stability(
        plant_stable, geometry_stable, scalar_pi(0.2, 2.0), KAPPA_A, L_A
    )
    assert cert.status == "infeasible"
    assert not cert.feasible
    kind, omega, lam = cert.witness
    assert kind == "frequency"
    assert 1.0 < omega < 3.0
    assert lam > 0
    # the witness matches a direct evaluation at its frequency
    A, B, MM, _ = _lmi_data(plant_stable, geometry_stable, 0.2, 2.0)
    x = np.linalg.solve(1j * omega * np.eye(A.shape[0]) - A, B)
    xi = np.vstack([x, np.eye(B.shape[1])])
    assert np.linalg.eigvalsh(xi.conj().T @ MM @ xi).max() == pytest.approx(lam, rel=1e-9)


@pytest.mark.parametrize("kp, ki", [(0.001, 0.001), (0.01, 0.001), (0.1, 0.001)])
def test_slow_loops_are_certified(plant_stable, geometry_stable, kp, ki):
    # with k_I = 1e-3 the shifted loop's slowest mode is near -1e-3; the
    # whole form raised by delta I gives a P with S(P, 1) <= -delta I, so a
    # rung of the ladder passes the check
    pi = scalar_pi(kp, ki)
    cert = oc.verify_stability(plant_stable, geometry_stable, pi, KAPPA_A, L_A)
    assert cert.status == "feasible"
    _, _, _, S_of = sector_lmi(plant_stable, geometry_stable, pi, KAPPA_A, L_A)
    S = S_of(cert.P, cert.alpha)
    assert np.linalg.eigvalsh(0.5 * (S + S.T)).max() < -1e-8 * np.linalg.norm(S)
    assert np.linalg.eigvalsh(cert.P).min() > 0


def test_slowest_loop_is_undecided(plant_stable, geometry_stable):
    # with k_I = 1e-4 no witness is found, and no Riccati candidate on the
    # ladder passes the eigenvalue check.  If a later change decides this
    # pair, move the test to a pair it still leaves open
    pi = scalar_pi(0.1, 1e-4)
    cert = oc.verify_stability(plant_stable, geometry_stable, pi, KAPPA_A, L_A)
    assert cert.status == "undecided"
    assert not cert.P.any()
    assert cert.witness is None


def test_grid_search_repeats_verify_stability(plant_stable, geometry_stable):
    # a grid row is the pair's own decision: no state passes between pairs
    records = oc.gain_grid_search(
        plant_stable, geometry_stable, VA_GRID, VA_GRID, KAPPA_A, L_A
    )
    for r in records:
        cert = oc.verify_stability(
            plant_stable, geometry_stable, scalar_pi(r["k_P"], r["k_I"]), KAPPA_A, L_A
        )
        assert (r["status"], r["margin"]) == (cert.status, -cert.eig_S_max)
    assert sum(r["certified"] for r in records) == 98


def test_grid_decides_each_pair_as_it_alone(monkeypatch, plant_stable, geometry_stable):
    # random plants and quadratic costs, 4 x 4 grids of gains log-uniform in
    # [1e-2, 10], and a grid on example_va's plant that holds its slowest
    # loops, decided as one stack: each pair's certificate is bit for bit
    # the one verify_stability gives it alone, and the grids reach every
    # outcome
    grids = []
    decide = lmi._decide
    monkeypatch.setattr(lmi, "_decide", lambda *a: grids.append(decide(*a)) or grids[-1])
    instances = [(plant_stable, geometry_stable, [0.1, 1.0], [1e-4, 1e-3, 2.0], KAPPA_A, L_A)]
    rng = np.random.default_rng(11)
    for _ in range(40):
        plant, geometry, obj = random_quadratic_instance(rng)
        kp, ki = 10.0 ** rng.uniform(-2.0, 1.0, (2, 4))
        instances.append((plant, geometry, kp, ki, obj.kappa, obj.lipschitz))
    outcomes = set()
    for plant, geometry, kp, ki, kappa, lipschitz in instances:
        rows = oc.gain_grid_search(plant, geometry, kp, ki, kappa, lipschitz)
        grid = grids[-1]
        assert len(rows) == len(grid) == len(kp) * len(ki)
        for r, cert in zip(rows, grid):
            I = np.eye(plant.m)
            pi = oc.DynamicStabilizer.pi(r["k_P"] * I, r["k_I"] * I, plant.p)
            alone = oc.verify_stability(plant, geometry, pi, kappa, lipschitz)
            assert (r["status"], r["margin"]) == (alone.status, -alone.eig_S_max)
            assert (cert.status, cert.eig_S_max, cert.eig_P_min, cert.alpha) == (
                alone.status, alone.eig_S_max, alone.eig_P_min, alone.alpha
            )
            assert cert.witness == alone.witness
            assert np.array_equal(cert.P, alone.P)
            if cert.witness is None:
                outcomes.add(cert.status)
            else:
                kind, at, _ = cert.witness
                outcomes.add("infinity" if at == np.inf else kind)
    assert outcomes == {"feasible", "undecided", "infinity", "frequency", "member"}


def test_grid_raises_the_error_of_its_first_failing_pair(plant_stable, geometry_stable):
    # an overflowing pair raises its own LmiError, a singular, infinite or
    # NaN gain DynamicStabilizer.pi's ValueError, and of two failing pairs the
    # first in grid order (k_P the outer loop) raises, as pair by pair
    def error(call):
        with pytest.raises((LmiError, ValueError)) as info:
            call()
        return type(info.value), str(info.value)

    def grid(kp, ki):
        return error(lambda: oc.gain_grid_search(
            plant_stable, geometry_stable, kp, ki, KAPPA_A, L_A
        ))

    def alone(kp, ki):
        return error(lambda: oc.verify_stability(
            plant_stable, geometry_stable, scalar_pi(kp, ki), KAPPA_A, L_A
        ))

    overflow, singular = alone(1e300, 1.0), alone(1.0, 0.0)
    infinite, nan = alone(np.inf, 1.0), alone(1.0, np.nan)
    assert overflow[0] is LmiError and singular[0] is infinite[0] is nan[0] is ValueError
    assert grid([0.5, 1e300], [1.0, 2.0]) == overflow
    assert grid([0.5, 1.0], [1.0, 0.0]) == singular
    assert grid([0.5, np.inf], [1.0]) == infinite
    assert grid([0.5], [1.0, np.nan]) == nan
    assert grid([1e300, 1.0], [1.0, 0.0]) == overflow
    assert grid([1.0, 1e300], [0.0, 1.0]) == singular


def test_random_loops_are_all_decided():
    # random stable plants, quadratic costs and PI gains log-uniform in
    # [1e-2, 10]: no pair is left undecided, every certificate passes the
    # tests' own eigenvalue check, and every witness re-validates
    rng = np.random.default_rng(5)
    statuses = []
    for _ in range(50):
        plant, geometry, obj = random_quadratic_instance(rng)
        kp, ki = 10.0 ** rng.uniform(-2.0, 1.0, 2)
        pi = oc.DynamicStabilizer.pi(kp * np.eye(plant.m), ki * np.eye(plant.m), plant.p)
        cert = oc.verify_stability(plant, geometry, pi, obj.kappa, obj.lipschitz)
        statuses.append(cert.status)
        if cert.feasible:
            _, _, _, S_of = sector_lmi(plant, geometry, pi, obj.kappa, obj.lipschitz)
            S = S_of(cert.P, cert.alpha)
            assert np.linalg.eigvalsh(0.5 * (S + S.T)).max() < 0
            assert np.linalg.eigvalsh(cert.P).min() > 0
        else:
            assert cert.status == "infeasible"
            assert witness_value(
                plant, geometry, kp, ki, obj.kappa, obj.lipschitz, cert.witness
            ) > 0, cert.witness
    assert "feasible" in statuses and "infeasible" in statuses


def test_tune_csv_repeats_byte_for_byte(tmp_path):
    scenario = str(resources.files("ossctl").joinpath("scenarios/example_va.json"))
    texts = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert main(["tune", "--scenario", scenario, "--out", str(out)]) == 0
        texts.append((out / "tune.csv").read_bytes())
    assert texts[0] == texts[1]


def test_tune_csv_matches_the_recorded_grid(tmp_path):
    # example_va's tune.csv against a recorded copy: the gains, certified
    # and status columns exactly and each margin within 16 ulp, so a change
    # in the decision's arithmetic fails here, where comparing the grid with
    # verify_stability cannot see it (both run the same code)
    scenario = str(resources.files("ossctl").joinpath("scenarios/example_va.json"))
    assert main(["tune", "--scenario", scenario, "--out", str(tmp_path)]) == 0
    tables = []
    for path in (tmp_path / "tune.csv", DATA / "example_va_tune.csv"):
        with open(path, newline="") as fh:
            tables.append(list(csv.DictReader(fh)))
    got, want = tables
    assert len(got) == len(want) == 100

    def keys(rows):
        return [(r["k_P"], r["k_I"], r["certified"], r["status"]) for r in rows]

    assert keys(got) == keys(want)
    g, w = (np.array([float(r["margin"]) for r in rows]) for rows in tables)
    moved = np.flatnonzero(~(np.abs(g - w) <= 16 * np.spacing(np.abs(w))))
    assert moved.size == 0, [tuple(want[i].values()) for i in moved]
