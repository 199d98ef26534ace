"""Semidefinite feasibility by operator splitting, for the bounded-real LMI
of stabilizer synthesis.

Problems are posed as: find v in R^q such that S_i(v) < 0 (negative
definite) for every affine matrix-valued block S_i.  A block is the callable
v -> S_i(v) itself; its side length is read from S_i(0).  Strict feasibility is encoded by
shifting each block by a margin times the identity and splitting between

  * the affine set  { (v, Z_1..Z_k) : svec(Z_i) = -svec(S_i(v)) - margin_i svec(I) }
  * the cone        { Z_i >= 0 }

with a Douglas-Rachford iteration.  Because the splitting iterate is only a
candidate, every acceptance goes through a caller-supplied certificate check
on the actual matrices; a returned "feasible" status therefore never rests
on the splitting having converged, only on eigenvalues of the certificate.
"""

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dsyevd

from ._linalg import smat, svec, svec_dim

#: relative fixed-point tolerance at which the iteration is declared stalled
_STALL_RTOL = 1e-12


@dataclass(frozen=True)
class FeasibilityResult:
    status: str  # "feasible" | "stalled" | "undecided"
    v: np.ndarray
    sweeps: int
    certificate_info: tuple | None

    @property
    def feasible(self) -> bool:
        return self.status == "feasible"


def solve_feasibility(
    blocks: Sequence[Callable[[np.ndarray], np.ndarray]],
    q: int,
    margins: Sequence[float] | None = None,
    max_sweeps: int = 4000,
    check_every: int = 20,
    *,
    certificate: Callable[[np.ndarray], tuple[bool, tuple]],
) -> FeasibilityResult:
    """Run the splitting until a candidate passes the certificate check.

    Each block maps v (length q) to a symmetric matrix S(v), affinely in v.
    certificate(v) -> (ok, info) validates a candidate against the original
    (unshifted, unscaled) inequalities; it is consulted every ``check_every``
    sweeps and at termination.

    Statuses: "feasible" (certified), "stalled" (fixed point reached but the
    certificate rejects it -- strong evidence of infeasibility at the given
    margins), "undecided" (sweep cap hit).
    """
    if margins is None:
        margins = [1.0] * len(blocks)
    if len(margins) != len(blocks):
        raise ValueError("one margin per block required")

    # matrix representation of each affine block, by probing unit vectors
    A_list = []
    s0_list = []
    dims = []
    zeros = np.zeros(q)
    for blk in blocks:
        S0 = blk(zeros)
        dims.append(S0.shape[0])
        s0 = svec(S0)
        cols = np.empty((q, s0.size))
        for j in range(q):
            e = np.zeros(q)
            e[j] = 1.0
            cols[j] = svec(blk(e)) - s0
        A_list.append(cols.T)
        s0_list.append(s0)
    sdims = [svec_dim(n) for n in dims]

    # column scaling keeps the affine projection well conditioned when the
    # decision variables enter at very different magnitudes
    colnorm = np.linalg.norm(np.vstack(A_list), axis=0)
    colnorm[colnorm == 0] = 1.0
    D = 1.0 / colnorm

    ztot = sum(sdims)
    width = q + ztot
    E = np.zeros((ztot, width))
    b = np.zeros(ztot)
    off = 0
    for i, n in enumerate(dims):
        d = sdims[i]
        E[off : off + d, :q] = A_list[i] * D[None, :]
        E[off : off + d, q + off : q + off + d] = np.eye(d)
        b[off : off + d] = -s0_list[i] - margins[i] * svec(np.eye(n))
        off += d

    # projection onto {w : E w = b} is w - K (E w - b) with K = E'(EE')^-1;
    # precomputing it makes each sweep's projection one affine matvec
    cho = np.linalg.cholesky(E @ E.T + 1e-13 * np.eye(ztot))
    K = scipy.linalg.cho_solve((cho, True), E).T
    Pa = np.eye(width) - K @ E
    c = K @ b

    def project_affine(w: np.ndarray) -> np.ndarray:
        return Pa @ w + c

    def project_cone(w: np.ndarray) -> np.ndarray:
        w = w.copy()
        off = q
        for i, n in enumerate(dims):
            d = sdims[i]
            ev, V, info = dsyevd(smat(w[off : off + d], n), lower=1)
            if info != 0:
                raise np.linalg.LinAlgError(
                    f"dsyevd failed on a {n} x {n} cone block (info = {info})"
                )
            np.clip(ev, 0.0, None, out=ev)
            w[off : off + d] = svec((V * ev) @ V.T)
            off += d
        return w

    def extract(w: np.ndarray) -> np.ndarray:
        return w[:q] * D

    z = np.zeros(width)
    x = z
    for sweep in range(1, max_sweeps + 1):
        x = project_cone(z)
        y = project_affine(2 * x - z)
        z = z + (y - x)
        if sweep % check_every == 0:
            for cand in (x, y):
                v = extract(cand)
                ok, info = certificate(v)
                if ok:
                    return FeasibilityResult("feasible", v, sweep, info)
        if np.linalg.norm(y - x) < _STALL_RTOL * (1.0 + np.linalg.norm(x)):
            v = extract(x)
            ok, info = certificate(v)
            return FeasibilityResult("feasible" if ok else "stalled", v, sweep, info)

    v = extract(x)
    ok, info = certificate(v)
    return FeasibilityResult("feasible" if ok else "undecided", v, max_sweeps, info)
