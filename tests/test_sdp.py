import numpy as np
import pytest

import ossctl as oc
from ossctl._linalg import smat, svec
from ossctl.sdp import solve_feasibility


def lyapunov_blocks(a):
    """Scalar Lyapunov problem: find p with 2 a p < 0 and p > 0."""

    def S_main(v):
        return np.array([[2.0 * a * v[0]]])

    def S_pos(v):
        return np.array([[-v[0]]])

    def certificate(v):
        ok = 2.0 * a * v[0] < -1e-10 and v[0] > 1e-10
        return ok, (2.0 * a * v[0], v[0])

    return [S_main, S_pos], certificate


def test_scalar_lyapunov_feasible():
    blocks, cert = lyapunov_blocks(-1.0)
    res = solve_feasibility(blocks, q=1, margins=[1.0, 1e-4], certificate=cert)
    assert res.feasible
    assert res.v[0] > 0


def test_scalar_lyapunov_infeasible():
    blocks, cert = lyapunov_blocks(+1.0)
    res = solve_feasibility(blocks, q=1, margins=[1.0, 1e-4], certificate=cert)
    assert not res.feasible
    assert res.status in ("stalled", "undecided")


def test_matrix_lyapunov_feasible():
    rng = np.random.default_rng(11)
    A = rng.normal(size=(3, 3))
    A -= (np.linalg.eigvals(A).real.max() + 0.5) * np.eye(3)
    from ossctl._linalg import smat, svec_dim

    d = svec_dim(3)

    def S_main(v):
        P = smat(v[:d], 3)
        S = A.T @ P + P @ A
        return 0.5 * (S + S.T)

    def S_pos(v):
        return -smat(v[:d], 3)

    def cert(v):
        P = smat(v[:d], 3)
        S = S_main(v)
        ok = (
            np.linalg.eigvalsh(S).max() < -1e-10
            and np.linalg.eigvalsh(P).min() > 1e-10
        )
        return ok, None

    res = solve_feasibility(
        [S_main, S_pos],
        q=d,
        margins=[1.0, 1e-2],
        certificate=cert,
    )
    assert res.feasible
    # returned P actually solves the Lyapunov inequality
    P = smat(res.v, 3)
    assert np.linalg.eigvalsh(A.T @ P + P @ A).max() < 0
    assert np.linalg.eigvalsh(P).min() > 0


def test_margin_count_validated():
    with pytest.raises(ValueError):
        solve_feasibility(
            [lambda v: np.array([[v[0]]])],
            q=1,
            margins=[1.0, 1.0],
            certificate=lambda v: (False, None),
        )


def test_svec_smat_roundtrip():
    rng = np.random.default_rng(13)
    for n in range(1, 9):
        S = rng.normal(size=(n, n))
        S = S + S.T
        v = svec(S)
        assert v.shape == (n * (n + 1) // 2,)
        assert np.dot(v, v) == pytest.approx(np.sum(S * S), rel=1e-14)
        back = smat(v, n)
        # the diagonal is unscaled and the result symmetric, both exactly;
        # off-diagonals pass through * sqrt(2) and * (1 / sqrt(2)), which
        # leaves at most one rounding step in binary floating point
        assert np.array_equal(back, back.T)
        assert np.array_equal(np.diag(back), np.diag(S))
        np.testing.assert_array_max_ulp(back, S, maxulp=1)


def test_svec_smat_results_not_aliased():
    # svec and smat cache their index tables per n; what they return must
    # be fresh arrays, so writing into one cannot change a later result
    S = np.arange(16.0).reshape(4, 4)
    S = S + S.T
    v = svec(S)
    expected_v = v.copy()
    v[:] = -1.0
    assert np.array_equal(svec(S), expected_v)
    M = smat(expected_v, 4)
    expected_M = M.copy()
    M[:] = 7.0
    assert np.array_equal(smat(expected_v, 4), expected_M)
    assert np.array_equal(svec(S), expected_v)
