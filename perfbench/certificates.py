"""Make the store of sector-LMI certificates for the certify_grid workload.

    python3 perfbench/certificates.py

For every gain pair of example_va's grid, searches for (P, alpha) with
P > 0 and S(P, alpha) < 0, using the LMI assembled in checks.py and a solver
of its own (a log-sum-exp bound on the largest eigenvalue, minimised by
L-BFGS), and writes the pairs it can certify to certificates.json. The
program's solver plays no part. Each run of the benchmark re-checks every
stored certificate by eigenvalues.
"""

import json
import sys

import numpy as np
import scipy.optimize

import checks

SCENARIO = "example_va"
# stored certificates clear the eigenvalue test by this much, so that the
# re-check does not hinge on the last digits of the stored numbers
STORE_MARGIN = 1e-6


def _basis(nm):
    """Symmetric unit matrices spanning nm x nm symmetric matrices."""
    out = []
    for i in range(nm):
        for j in range(i, nm):
            E = np.zeros((nm, nm))
            E[i, j] = E[j, i] = 1.0
            out.append(E)
    return out


def find_certificate(L0, G, nm):
    """(P, 1.0) passing the eigenvalue test with STORE_MARGIN, or None.

    alpha is fixed to 1 without loss: S is homogeneous in (P, alpha), and
    alpha = 0 leaves the input block of S zero, so no certificate has it.
    """
    basis = _basis(nm)
    # W(v) = blkdiag(S(P(v), 1), -P(v)) = W0 + sum_j v_j W_j
    size = G.shape[0] + nm
    W0 = np.zeros((size, size))
    W0[: G.shape[0], : G.shape[0]] = G
    Wj = []
    for E in basis:
        W = np.zeros((size, size))
        W[: G.shape[0], : G.shape[0]] = L0(E)
        W[G.shape[0] :, G.shape[0] :] = -E
        Wj.append(W)
    Wj = np.array(Wj)

    def smax(v, tau):
        W = W0 + np.tensordot(v, Wj, axes=1)
        lam, U = np.linalg.eigh(W)
        top = lam.max()
        w = np.exp(tau * (lam - top))
        f = top + np.log(w.sum()) / tau
        w /= w.sum()
        grad = np.einsum("kij,ia,a,ja->k", Wj, U, w, U)
        return f, grad

    v = np.eye(nm)[np.triu_indices(nm)]
    for tau in (1.0, 10.0, 100.0, 1000.0):
        v = scipy.optimize.minimize(
            smax, v, args=(tau,), jac=True, method="L-BFGS-B",
            options={"maxiter": 2000},
        ).x
        P = sum(vj * E for vj, E in zip(v, basis))
        ls, lp = checks.certificate_margins(L0, G, P, 1.0)
        if ls < -STORE_MARGIN and lp > STORE_MARGIN:
            return P
    return None


def make_store():
    scn = checks.load_scenario(SCENARIO)
    _, R = checks.kkt_basis(scn["A"], scn["B"], scn["C"])
    certificates, without = [], []
    for kp in scn["kp_grid"]:
        for ki in scn["ki_grid"]:
            L0, G, nm = checks.sector_lmi(scn, R, kp, ki)
            P = find_certificate(L0, G, nm)
            if P is None:
                without.append([kp, ki])
            else:
                certificates.append(
                    {"k_P": kp, "k_I": ki, "alpha": 1.0, "P": P.tolist()}
                )
    return {
        "scenario": SCENARIO,
        "note": "made by perfbench/certificates.py; pairs listed under "
        "'without' have no certificate here",
        "certificates": certificates,
        "without": without,
    }


if __name__ == "__main__":
    store = make_store()
    certificates = store.pop("certificates")
    head = json.dumps(store)[:-1]
    with open(checks.STORE, "w") as fh:
        # one certificate per line
        fh.write(head + ', "certificates": [\n')
        fh.write(",\n".join(json.dumps(c) for c in certificates))
        fh.write("\n]}\n")
    store["certificates"] = certificates
    print(
        f"{len(store['certificates'])} certificates, "
        f"{len(store['without'])} pairs without -> {checks.STORE}",
        file=sys.stderr,
    )
