import numpy as np
import pytest

from ossctl import hinf_norm

# hinf_norm returns the certified end of an interval of relative width 2e-6
RTOL = 3e-6


def gains(A, B, C, D, omegas):
    """sigma_max of C (jw I - A)^-1 B + D at each frequency."""
    jw = 1j * omegas[:, None, None] * np.eye(A.shape[0])
    G = C @ np.linalg.solve(jw - A, np.broadcast_to(B, (omegas.size, *B.shape))) + D
    return np.linalg.norm(G, 2, axis=(-2, -1))


def test_first_order_gain_above_one():
    # 5/(s+1) peaks at omega = 0
    value = hinf_norm(np.array([[-1.0]]), np.array([[1.0]]), np.array([[5.0]]), np.zeros((1, 1)))
    assert 5.0 <= value <= 5.0 * (1 + RTOL)


def test_lightly_damped_resonance():
    # wn^2 / (s^2 + 2 zeta wn s + wn^2) peaks at wn sqrt(1 - 2 zeta^2), off
    # every |lambda(A)| = wn, so the first level has crossings
    zeta, wn = 0.05, 3.0
    A = np.array([[0.0, 1.0], [-wn * wn, -2 * zeta * wn]])
    B = np.array([[0.0], [wn * wn]])
    C = np.array([[1.0, 0.0]])
    norm = 1 / (2 * zeta * np.sqrt(1 - zeta * zeta))
    value = hinf_norm(A, B, C, np.zeros((1, 1)))
    assert norm <= value <= norm * (1 + RTOL)


def test_mimo_with_feedthrough_bounds_a_frequency_grid():
    rng = np.random.default_rng(0)
    n, m, p = 6, 3, 2
    M = rng.normal(size=(n, n))
    A = M - (np.linalg.eigvals(M).real.max() + 0.5) * np.eye(n)
    B, C, D = rng.normal(size=(n, m)), rng.normal(size=(p, n)), rng.normal(size=(p, m))
    value = hinf_norm(A, B, C, D)
    omegas = np.append(0.0, np.logspace(-3, 3, 4000))
    g = gains(A, B, C, D, omegas)
    assert g.max() <= value
    # a second grid around the peak measures the norm closely enough to
    # bound the result from above as well
    i = int(np.argmax(g))
    fine = gains(A, B, C, D, np.linspace(omegas[max(i - 1, 0)], omegas[i + 1], 4001))
    assert value <= fine.max() * (1 + RTOL)


@pytest.mark.parametrize("scale", [0.0, 2e-14])
def test_norm_below_the_floor_reads_the_floor(scale):
    # the first level is 1e-12 (1 + 2e-6) at the least: a zero channel and a
    # system of norm 2e-14 report it
    value = hinf_norm(np.array([[-1.0]]), np.array([[1.0]]), np.array([[scale]]), np.zeros((1, 1)))
    assert value == 1e-12 * (1.0 + 2e-6)


@pytest.mark.parametrize("growth", [0.0, 0.5])
def test_unstable_system_has_infinite_norm(growth):
    A = np.diag([-1.0, growth])
    assert hinf_norm(A, np.eye(2), np.eye(2), np.zeros((2, 2))) == np.inf


def test_stabilizing_solution_matches_scipy():
    # A'P + PA - P B B' P + Q = 0 on seeded random stabilizable pairs, its
    # Hamiltonian read by the helper against scipy's Schur-method solver
    from scipy.linalg import solve_continuous_are

    from ossctl._linalg import _stabilizing_solution

    rng = np.random.default_rng(5)
    for n, m in [(1, 1), (2, 1), (3, 2), (5, 2), (8, 3)]:
        A = rng.normal(size=(n, n))
        B = rng.normal(size=(n, m))
        C = rng.normal(size=(n, n))
        Q = C.T @ C + 0.1 * np.eye(n)
        H = np.block([[A, -B @ B.T], [-Q, -A.T]])
        P = _stabilizing_solution(H)
        want = solve_continuous_are(A, B, Q, np.eye(m))
        assert np.max(np.abs(P - want)) <= 1e-8 * np.max(np.abs(want))
        assert np.linalg.eigvals(A - B @ B.T @ P).real.max() < 0


def test_a_singular_subspace_fails_only_its_own_hamiltonian():
    # diag(1, -1) has the stable eigenvector (0, 1), so U1 = 0 and no
    # stabilizing solution: in a stack, that one Hamiltonian gets none, and
    # the others keep the bits of their own solves, real and complex
    from ossctl._linalg import _stabilizing_solution, _stabilizing_solutions

    real = np.array([[-1.0, 0.25], [-1.0, 1.0]])  # eigenvalues +-sqrt(3)/2
    singular = np.diag([1.0, -1.0])
    spiral = np.array([[-1.0, 2.0, 0.0, -1.0], [-2.0, -1.0, -1.0, 0.0],
                       [-1.0, 0.0, 1.0, 2.0], [0.0, -1.0, -2.0, 1.0]])
    P, ok = _stabilizing_solutions(np.stack([real, singular, real]))
    assert ok.tolist() == [True, False, True]
    assert np.array_equal(P[0], _stabilizing_solution(real)) and np.array_equal(P[0], P[2])
    assert not P[1].any() and _stabilizing_solution(singular) is None
    assert np.iscomplexobj(np.linalg.eigvals(spiral))
    A = np.diag([-1.0, -2.0])
    real2 = np.block([[A, -0.25 * np.eye(2)], [-np.eye(2), -A.T]])
    P, ok = _stabilizing_solutions(np.stack([spiral, real2]))
    assert ok.all()
    assert np.array_equal(P[0], _stabilizing_solution(spiral))
    assert np.array_equal(P[1], _stabilizing_solution(real2))


def test_kyp_hamiltonian_is_invariant_under_an_input_change_of_variables():
    # w = K x + V w~ turns the form (x, w)' MM (x, w) on x' = A x + B w into
    # T' MM T on x' = (A + B K) x + B V w~, T = [[I, 0], [K, V]]; the Riccati
    # equation, and so its Hamiltonian, is the same (the sector LMI's steps 3
    # and 4 read the loop's own form for the one shifted to its lower edge)
    from ossctl._linalg import _kyp_hamiltonian, _t

    rng, k = np.random.default_rng(3), 20
    for n, m in [(1, 1), (3, 1), (4, 2), (6, 3)]:
        A, B = rng.normal(size=(k, n, n)), rng.normal(size=(k, n, m))
        G = rng.normal(size=(k, n + m, n + m))
        MM = G + _t(G)
        R = rng.normal(size=(k, m, m))
        MM[:, n:, n:] = -(R @ _t(R)) - 0.1 * np.eye(m)
        K, V = rng.normal(size=(k, m, n)), rng.normal(size=(k, m, m)) + 2.0 * np.eye(m)
        T = np.block([[np.broadcast_to(np.eye(n), (k, n, n)), np.zeros((k, n, m))], [K, V]])
        H = _kyp_hamiltonian(A, B, MM)
        H_shifted = _kyp_hamiltonian(A + B @ K, B @ V, _t(T) @ MM @ T)
        err = np.linalg.norm(H_shifted - H, axis=(-2, -1))
        assert (err <= 1e-11 * np.linalg.norm(H, axis=(-2, -1))).all(), err.max()
