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


def _kyp_hamiltonian(A: np.ndarray, B: np.ndarray, MM: np.ndarray) -> np.ndarray:
    """Hamiltonian of the Riccati equation F'P + PF - P G P + Q~ = 0 of the
    KYP form (x, w)' MM (x, w) on x' = A x + B w, with MM = [Q S; S' R],
    F = A - B R^-1 S', G = B R^-1 B' and Q~ = Q - S R^-1 S'."""
    n = A.shape[0]
    Q, S, R = MM[:n, :n], MM[:n, n:], MM[n:, n:]
    Ri = np.linalg.inv(R)
    F = A - B @ Ri @ S.T
    return np.block([[F, -B @ Ri @ B.T], [S @ Ri @ S.T - Q, -F.T]])


def _stabilizing_solution(H: np.ndarray) -> np.ndarray | None:
    """The stabilizing solution P = U2 U1^-1 of a Hamiltonian's Riccati
    equation, from its stable invariant subspace [U1; U2] (Laub, IEEE TAC
    1979), or None if H has imaginary-axis eigenvalues or U1 is singular."""
    n = H.shape[0] // 2
    ev, V = np.linalg.eig(H)
    U = V[:, ev.real < 0]
    if U.shape[1] != n or _on_axis(ev).any():
        return None
    try:
        P = np.linalg.solve(U[:n].T, U[n:].T).T.real
    except np.linalg.LinAlgError:
        return None
    return 0.5 * (P + P.T)


def _on_axis(ev: np.ndarray) -> np.ndarray:
    """Which eigenvalues lie on the imaginary axis, to _AXIS_RTOL."""
    return np.abs(ev.real) <= _AXIS_RTOL * np.maximum(np.abs(ev), 1.0)


def _crossing_midpoints(H: np.ndarray) -> np.ndarray:
    """The positive midpoints between consecutive distinct frequencies of H's
    imaginary-axis eigenvalues, with 0 as the first."""
    ev = np.linalg.eigvals(H)
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
        top = gain(_crossing_midpoints(_kyp_hamiltonian(A, B, MM_level)))
        if top <= lo:
            return level
        lo = top
