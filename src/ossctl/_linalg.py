"""Shared dense linear algebra helpers: numerical rank, and the one
frequency-domain test: the imaginary-axis crossings of a KYP form's
Hamiltonian, with the form evaluated between them.  The sector LMI and the
H-infinity norm (level-set method) are both built on it, and the sector
LMI's certificates and the synthesis Riccati solutions are both read off
such a Hamiltonian's stable invariant subspace."""

import numpy as np

# Hamiltonian eigenvalues within this distance of the imaginary axis,
# relative to max(|lambda|, 1), are crossing candidates; callers evaluate
# the form between them, so a spurious candidate decides nothing
_AXIS_RTOL = 1e-6


def numerical_rank(M: np.ndarray) -> int:
    """Rank of M by SVD.

    A singular value counts toward the rank iff it exceeds
    max(M.shape) * eps * sigma_max (the standard convention).
    """
    s = np.linalg.svd(M, compute_uv=False)
    if s.size == 0:
        return 0
    return int(np.count_nonzero(s > max(M.shape) * np.finfo(float).eps * s[0]))


def _t(M: np.ndarray) -> np.ndarray:
    """Each matrix of a stack transposed (M.T of a single matrix)."""
    return np.swapaxes(M, -1, -2)


def _kyp_hamiltonian(A: np.ndarray, B: np.ndarray, MM: np.ndarray) -> np.ndarray:
    """Hamiltonian of the Riccati equation F'P + PF - P G P + Q~ = 0 of the
    KYP form (x, w)' MM (x, w) on x' = A x + B w, with MM = [Q S; S' R],
    F = A - B R^-1 S', G = B R^-1 B' and Q~ = Q - S R^-1 S'.  Broadcasts
    over a leading axis of stacked forms."""
    n = A.shape[-1]
    Q, S, R = MM[..., :n, :n], MM[..., :n, n:], MM[..., n:, n:]
    Ri = np.linalg.inv(R)
    F = A - B @ Ri @ _t(S)
    top = np.concatenate([F, -B @ Ri @ _t(B)], axis=-1)
    bottom = np.concatenate([S @ Ri @ _t(S) - Q, -_t(F)], axis=-1)
    return np.concatenate([top, bottom], axis=-2)


def _stabilizing_solutions(H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The stabilizing solutions P = U2 U1^-1 of a stack of Hamiltonians'
    Riccati equations, from their stable invariant subspaces [U1; U2]
    (Laub, IEEE TAC 1979), and which exist: none where H has imaginary-axis
    eigenvalues or U1 is singular (P is then 0).  Every subspace is solved
    in complex arithmetic, so each P has the bits of the same solve on its
    Hamiltonian alone."""
    k, n = H.shape[0], H.shape[-1] // 2
    ev, V = np.linalg.eig(H)
    stable = ev.real < 0
    ok = (np.count_nonzero(stable, axis=-1) == n) & ~_on_axis(ev).any(axis=-1)
    idx = np.flatnonzero(ok)
    # the stable columns in the order V[:, stable] keeps them
    cols = np.argsort(~stable[idx], axis=-1, kind="stable")[:, None, :n]
    U = np.take_along_axis(V[idx], cols, axis=-1).astype(complex, copy=False)
    U1t, U2t = _t(U[:, :n]), _t(U[:, n:])
    try:
        X = np.linalg.solve(U1t, U2t)
    except np.linalg.LinAlgError:  # one singular U1 fails the stack
        X = np.zeros_like(U2t)
        for j, i in enumerate(idx):
            try:
                X[j] = np.linalg.solve(U1t[j], U2t[j])
            except np.linalg.LinAlgError:
                ok[i] = False
    P = np.zeros((k, n, n))
    P[idx] = _t(X).real
    return 0.5 * (P + _t(P)), ok


def _stabilizing_solution(H: np.ndarray) -> np.ndarray | None:
    """The stabilizing solution of one Hamiltonian's Riccati equation, or
    None (_stabilizing_solutions)."""
    P, ok = _stabilizing_solutions(H[None])
    return P[0] if ok[0] else None


def _on_axis(ev: np.ndarray) -> np.ndarray:
    """Which eigenvalues lie on the imaginary axis, to _AXIS_RTOL."""
    return np.abs(ev.real) <= _AXIS_RTOL * np.maximum(np.abs(ev), 1.0)


def _crossing_midpoints(ev: np.ndarray) -> np.ndarray:
    """The positive midpoints between consecutive distinct frequencies of a
    Hamiltonian's imaginary-axis eigenvalues ev, with 0 as the first."""
    edges = np.append(0.0, np.sort(np.abs(ev.imag[_on_axis(ev)])))
    # distinct edges; np.unique would import numpy.ma on its first call
    edges = edges[np.append(True, edges[1:] != edges[:-1])]
    omegas = 0.5 * (edges[1:] + edges[:-1])
    return omegas[omegas > 0]


def _xi(A: np.ndarray, B: np.ndarray, omegas: np.ndarray) -> np.ndarray:
    """Stacked xi(w) = [(jwI - A)^-1 B; I] over finite frequencies w."""
    nm, pm = B.shape
    jw = 1j * omegas[:, None, None] * np.eye(nm)
    x = np.linalg.solve(jw - A, np.broadcast_to(B, (omegas.size, nm, pm)))
    return np.concatenate([x, np.broadcast_to(np.eye(pm), (omegas.size, pm, pm))], axis=1)


def _form_max(xi: np.ndarray, MM: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Largest eigenvalue and Frobenius norm of xi* MM xi, over a stack of xi."""
    H = np.conj(np.swapaxes(xi, -1, -2)) @ MM @ xi
    return np.linalg.eigvalsh(H)[..., -1], np.linalg.norm(H, axis=(-2, -1))


def hinf_norm(A, B, C, D) -> float:
    """H-infinity norm of a state-space system, at most a relative 2e-6 above
    it, by the level-set method (Bruinsma & Steinbuch, SCL 1990): the gain is
    re-measured between the crossings of a level just above the largest gain
    so far, until none exceeds it.  Returns inf if A is not Hurwitz."""
    A, D = np.atleast_2d(A), np.atleast_2d(D)
    poles = np.linalg.eigvals(A)
    if poles.size and poles.real.max() >= 0:
        return np.inf
    CD = np.hstack([C, D])
    MM = CD.T @ CD  # xi* MM xi = G(jw)* G(jw)
    n, nw = B.shape

    def gain(omegas):  # the largest gain at these frequencies, 0 at none
        return float(np.sqrt(_form_max(_xi(A, B, omegas), MM)[0].max(initial=0.0)))

    lo = max(np.linalg.norm(D, 2) if D.size else 0.0, gain(np.append(0.0, np.abs(poles))), 1e-12)
    while True:
        # the norm lies in [lo, level]: lo is measured, and the gain minus
        # level keeps its sign between crossings, so if no midpoint's gain
        # exceeds lo, none exceeds level anywhere
        level = (1.0 + 2e-6) * lo
        MM_level = MM.copy()
        MM_level[n:, n:] -= level * level * np.eye(nw)
        H = _kyp_hamiltonian(A, B, MM_level)
        top = gain(_crossing_midpoints(np.linalg.eigvals(H)))
        if top <= lo:
            return level
        lo = top
