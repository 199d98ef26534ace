"""Shared dense linear algebra helpers: numerical rank, symmetric vectorization,
and an H-infinity norm computation via Hamiltonian bisection."""

import functools

import numpy as np

_SQRT2 = np.sqrt(2.0)


def numerical_rank(M: np.ndarray) -> int:
    """Rank of M by SVD.

    A singular value counts toward the rank iff it exceeds
    max(M.shape) * eps * sigma_max (the standard convention).
    """
    s = np.linalg.svd(M, compute_uv=False)
    if s.size == 0:
        return 0
    return int(np.count_nonzero(s > max(M.shape) * np.finfo(float).eps * s[0]))


@functools.lru_cache(maxsize=None)
def _tri(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Upper-triangle index pair of an n x n matrix with the svec scale and
    its inverse.  Cached per n and read-only, so callers never alias them."""
    rows, cols = np.triu_indices(n)
    diag = rows == cols
    tables = (rows, cols, np.where(diag, 1.0, _SQRT2), np.where(diag, 1.0, 1.0 / _SQRT2))
    for t in tables:
        t.flags.writeable = False
    return tables


def svec(S: np.ndarray) -> np.ndarray:
    """Isometric vectorization of a symmetric matrix (off-diagonals scaled by
    sqrt(2) so that Frobenius inner products are preserved)."""
    rows, cols, scale, _ = _tri(S.shape[0])
    return S[rows, cols] * scale


def smat(v: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`svec`."""
    rows, cols, _, unscale = _tri(n)
    S = np.empty((n, n))
    S[rows, cols] = S[cols, rows] = v * unscale
    return S


def svec_dim(n: int) -> int:
    return n * (n + 1) // 2


def is_hurwitz(A: np.ndarray) -> bool:
    return bool(np.linalg.eigvals(A).real.max() < 0.0)


def hinf_norm(A, B, C, D) -> float:
    """H-infinity norm of a state-space system by bisection on the associated
    Hamiltonian matrix, to a relative width of 1e-6.  Returns inf if A is not
    Hurwitz."""
    A = np.atleast_2d(A)
    if A.size and np.linalg.eigvals(A).real.max() >= 0:
        return np.inf
    D = np.atleast_2d(D)
    nw = B.shape[1]
    nz = C.shape[0]

    def has_imaginary_eig(g: float) -> bool:
        Rm = g * g * np.eye(nw) - D.T @ D
        try:
            Ri = np.linalg.inv(Rm)
        except np.linalg.LinAlgError:
            return True
        H11 = A + B @ Ri @ D.T @ C
        H12 = B @ Ri @ B.T
        H21 = -C.T @ (np.eye(nz) + D @ Ri @ D.T) @ C
        H = np.block([[H11, H12], [H21, -H11.T]])
        ev = np.linalg.eigvals(H)
        return bool(np.any(np.abs(ev.real) < 1e-8 * (1 + np.abs(ev.imag))))

    lo = max(np.linalg.svd(D, compute_uv=False).max() if D.size else 0.0, 1e-12)
    hi = max(2 * lo, 1.0)
    while has_imaginary_eig(hi):
        hi *= 2
        if hi > 1e12:
            return np.inf
    while hi - lo > 1e-6 * hi:
        mid = 0.5 * (hi + lo)
        if has_imaginary_eig(mid):
            lo = mid
        else:
            hi = mid
    return hi
