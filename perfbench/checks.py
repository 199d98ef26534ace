"""Output checks computed apart from the program.

Nothing here imports ``ossctl``. Scenario files are parsed directly, the
nullspace basis, closed loops, sector LMI and steady-state optimizers are
rebuilt from the plant matrices, and each output file of a CLI command is
compared against them. Every check returns ``(attempted, failed, notes)``,
where one operation is one gain pair, one disturbance segment or one
stabilizer.
"""

import csv
import json
import math
import os

import numpy as np

SCENARIO_DIR = os.path.join("src", "ossctl", "scenarios")
# sector-LMI certificates for example_va's grid, made by certificates.py
STORE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "certificates.json")

# relative tolerances; trace.csv stores 12 significant digits
REF_RTOL = 1e-6  # (y*, u*) columns against the benchmark's optimizer
LAW_RTOL = 1e-8  # u = K_I eta + K_P e and ||e|| = ||R' grad g|| per row
# at a segment's last row the distance to the optimizer, and the plant
# equilibrium residual, must have shrunk to this share of their value at the
# first row after the switch
CONVERGED_SHARE = 0.01


# -- scenario data ------------------------------------------------------------

def _matrix(obj):
    return np.asarray(obj["data"], dtype=float).reshape(obj["rows"], obj["cols"])


def load_scenario(name):
    """Plain dict view of a bundled scenario JSON file."""
    with open(os.path.join(SCENARIO_DIR, f"{name}.json")) as fh:
        raw = json.load(fh)
    obj = raw["objective"]
    scn = {
        "name": raw["name"],
        "A": _matrix(raw["plant"]["A"]),
        "B": _matrix(raw["plant"]["B"]),
        "C": _matrix(raw["plant"]["C"]),
        "objective": obj["name"],
        "kappa": float(obj["kappa"]),
        "lipschitz": float(obj["lipschitz"]),
        "controller": raw["controller"],
        "times": np.asarray(raw["disturbance"]["times"], dtype=float),
        "values": np.asarray(raw["disturbance"]["values"], dtype=float),
        "t_final": float(raw["simulation"]["t_final"]),
        "kp_grid": [float(v) for v in raw["verification"]["kp_grid"]],
        "ki_grid": [float(v) for v in raw["verification"]["ki_grid"]],
    }
    if obj["name"] == "quadratic":
        scn["H"] = _matrix(obj["H"])
        scn["q"] = np.asarray(obj.get("q", np.zeros(scn["H"].shape[0])), dtype=float)
    return scn


def kkt_basis(A, B, C):
    """(Q, R): the right singular vectors of [A B] for its zero singular
    values, as LAPACK returns them, and R = blkdiag(C, I) Q.

    The closed loop depends on the orientation of Q, so this follows the
    construction the program documents rather than normalising the sign.
    """
    AB = np.hstack([A, B])
    _, s, Vt = np.linalg.svd(AB)
    rank = int(np.count_nonzero(s > max(AB.shape) * np.finfo(float).eps * s[0]))
    Q = Vt[rank:].T
    n, m, p = A.shape[0], B.shape[1], C.shape[0]
    blk = np.block([[C, np.zeros((p, m))], [np.zeros((m, n)), np.eye(m)]])
    return Q, blk @ Q


# -- closed loops under sector-linear gradients -------------------------------

def sector_family(kappa, lipschitz, dim):
    """Fixed symmetric matrices H with kappa I <= H <= L I: every diagonal
    with entries in {kappa, L}, plus those spectra in two fixed rotated
    bases. A gradient H z + q of such a cost lies in the sector."""
    corners = [np.array(c, dtype=float) for c in np.ndindex(*(2,) * dim)]
    spectra = [kappa + (lipschitz - kappa) * c for c in corners]
    spectra.append(np.full(dim, 0.5 * (kappa + lipschitz)))
    bases = [np.eye(dim)]
    for seed_matrix in (
        np.arange(1.0, dim * dim + 1).reshape(dim, dim) + np.eye(dim) * dim,
        np.cos(np.arange(dim * dim, dtype=float)).reshape(dim, dim),
    ):
        bases.append(np.linalg.qr(seed_matrix)[0])
    return [V @ np.diag(lam) @ V.T for V in bases for lam in spectra]


def closed_loop_matrix(A, B, C, R, H, A_s, B_s, C_s, D_s):
    """State matrix of plant + stabilizer driven by sigma = (y, eta, e), with
    the gradient replaced by the linear map H on (y, u).

    A PI law is the zero-order case D_s = [0, K_I, K_P]. States are
    (x, x_s, eta); the e-channel algebraic loop is solved exactly.
    """
    n, m, p = A.shape[0], B.shape[1], C.shape[0]
    ns = A_s.shape[0]
    Gy = R.T @ H[:, :p]
    Gu = R.T @ H[:, p:]
    Dy, Deta, De = D_s[:, :p], D_s[:, p : p + m], D_s[:, p + m :]
    By, Beta, Be = B_s[:, :p], B_s[:, p : p + m], B_s[:, p + m :]
    Linv = np.linalg.inv(np.eye(m) + De @ Gu)
    # u = Ux x + Us x_s + Ue eta, e = Ex x + Es x_s + Ee eta
    Ux = Linv @ (Dy - De @ Gy) @ C
    Us = Linv @ C_s
    Ue = Linv @ Deta
    Ex = -(Gy @ C + Gu @ Ux)
    Es = -Gu @ Us
    Ee = -Gu @ Ue
    return np.block(
        [
            [A + B @ Ux, B @ Us, B @ Ue],
            [By @ C + Be @ Ex, A_s + Be @ Es, Beta + Be @ Ee],
            [Ex, Es, Ee],
        ]
    )


def pi_as_blocks(k_p, k_i, p, m):
    return (
        np.zeros((0, 0)),
        np.zeros((0, p + 2 * m)),
        np.zeros((m, 0)),
        np.hstack([np.zeros((m, p)), k_i * np.eye(m), k_p * np.eye(m)]),
    )


def robustly_hurwitz(scn, R, blocks):
    """Largest real part over the sector family; negative means every
    closed loop in it is Hurwitz."""
    dim = scn["C"].shape[0] + scn["B"].shape[1]
    worst = -np.inf
    for H in sector_family(scn["kappa"], scn["lipschitz"], dim):
        F = closed_loop_matrix(scn["A"], scn["B"], scn["C"], R, H, *blocks)
        worst = max(worst, float(np.linalg.eigvals(F).real.max()))
    return worst


# -- the sector LMI, assembled here -------------------------------------------

def sector_lmi(scn, R, k_p, k_i):
    """(L0, G, nm): S(P, alpha) = L0(P) + alpha G for the PI loop, where
    L0(P) = N1' P N2 + N2' P N1 and G = N3' M N3 (see ossctl.lmi)."""
    A, B, C = scn["A"], scn["B"], scn["C"]
    n, m, p = A.shape[0], B.shape[1], C.shape[0]
    kappa, L = scn["kappa"], scn["lipschitz"]
    KP, KI, RT = k_p * np.eye(m), k_i * np.eye(m), R.T
    pm = p + m
    AH = np.block([[A, B @ KI], [np.zeros((m, n + m))]])
    BH = np.vstack([B @ KP @ RT, RT])
    CH = np.block([[C, np.zeros((p, m))], [np.zeros((m, n)), KI]])
    DH = np.vstack([np.zeros((p, pm)), KP @ RT])
    nm = n + m
    if math.isinf(L):
        core = np.array([[-2.0 * kappa, -1.0], [-1.0, 0.0]])
    else:
        core = np.array([[-2.0 * kappa * L, -(kappa + L)], [-(kappa + L), -2.0]])
    M = np.kron(core, np.eye(pm))
    N1 = np.hstack([np.eye(nm), np.zeros((nm, pm))])
    N2 = np.hstack([AH, BH])
    N3 = np.vstack([np.hstack([CH, DH]), np.hstack([np.zeros((pm, nm)), np.eye(pm)])])
    G = N3.T @ M @ N3

    def L0(P):
        S = N1.T @ P @ N2
        return S + S.T

    return L0, G, nm


def certificate_margins(L0, G, P, alpha):
    """(max eig of S relative to ||S||, min eig of P relative to ||P||)."""
    S = L0(P) + alpha * G
    S = 0.5 * (S + S.T)
    ls = float(np.linalg.eigvalsh(S).max()) / max(np.linalg.norm(S), 1e-300)
    lp = float(np.linalg.eigvalsh(P).min()) / max(np.linalg.norm(P), 1e-300)
    return ls, lp


def certificate_valid(L0, G, P, alpha):
    """The eigenvalue test the program applies to its own certificates."""
    ls, lp = certificate_margins(L0, G, P, alpha)
    return alpha >= 0.0 and ls < -1e-8 and lp > 1e-10


# -- steady-state optimizers ---------------------------------------------------

def _cosh_terms(y, u):
    g = np.array([0.5 * math.sinh(y[0] / 2.0), math.sinh(y[1] / 3.0) / 3.0, 2.0 * u[0]])
    h = np.diag([math.cosh(y[0] / 2.0) / 4.0, math.cosh(y[1] / 3.0) / 9.0, 2.0])
    return g, h


def gradient_on_yu(scn, y, u):
    """grad g(y, u) for the scenario's cost, rows of y and u at once."""
    z = np.hstack([y, u])
    if scn["objective"] == "quadratic":
        return z @ scn["H"].T + scn["q"]
    return np.column_stack(
        [0.5 * np.sinh(y[:, 0] / 2.0), np.sinh(y[:, 1] / 3.0) / 3.0, 2.0 * u[:, 0]]
    )


def optimizer(scn, d):
    """(y*, u*) minimising g(Cx, u) subject to Ax + Bu + d = 0.

    Quadratic cost: one linear KKT solve. cosh cost: Newton on the KKT system
    in (x, u, lambda) with analytic derivatives and a residual line search.
    """
    A, B, C = scn["A"], scn["B"], scn["C"]
    n, m, p = A.shape[0], B.shape[1], C.shape[0]
    AB = np.hstack([A, B])
    Cb = np.block([[C, np.zeros((p, m))], [np.zeros((m, n)), np.eye(m)]])
    if scn["objective"] == "quadratic":
        K = np.block([[Cb.T @ scn["H"] @ Cb, AB.T], [AB, np.zeros((n, n))]])
        sol = np.linalg.solve(K, np.concatenate([-Cb.T @ scn["q"], -d]))
        z = sol[: n + m]
        return C @ z[:n], z[n:]
    if scn["objective"] != "cosh_example":
        raise ValueError(f"no optimizer for objective {scn['objective']!r}")

    def residual(w):
        z, lam = w[: n + m], w[n + m :]
        yu = Cb @ z
        g, h = _cosh_terms(yu[:p], yu[p:])
        r = np.concatenate([Cb.T @ g + AB.T @ lam, AB @ z + d])
        J = np.block([[Cb.T @ h @ Cb, AB.T], [AB, np.zeros((n, n))]])
        return r, J

    w = np.concatenate([-np.linalg.pinv(AB) @ d, np.zeros(n)])
    r, J = residual(w)
    for _ in range(100):
        if np.linalg.norm(r) < 1e-13 * (1.0 + np.linalg.norm(w)):
            break
        step = np.linalg.solve(J, -r)
        t = 1.0
        while t > 1e-12:
            r_new, J_new = residual(w + t * step)
            if np.linalg.norm(r_new) < np.linalg.norm(r):
                break
            t *= 0.5
        w, r, J = w + t * step, r_new, J_new
    else:
        raise ArithmeticError("KKT Newton did not converge")
    yu = Cb @ w[: n + m]
    return yu[:p], yu[p:]


# -- checks of CLI outputs ---------------------------------------------------

def load_store():
    with open(STORE) as fh:
        return json.load(fh)


def read_tune_csv(path):
    with open(path, newline="") as fh:
        return {
            (float(r["k_P"]), float(r["k_I"])): r["certified"] == "True"
            for r in csv.DictReader(fh)
        }


def check_tune(scn, rows, store):
    """One operation per grid pair. A pair the program certifies must give a
    robustly Hurwitz closed loop; a pair whose stored certificate passes the
    eigenvalue test must be certified; other pairs pass either way."""
    _, R = kkt_basis(scn["A"], scn["B"], scn["C"])
    p, m = scn["C"].shape[0], scn["B"].shape[1]
    stored = {(c["k_P"], c["k_I"]): c for c in store["certificates"]}
    attempted, failed, notes = 0, 0, []
    for kp in scn["kp_grid"]:
        for ki in scn["ki_grid"]:
            attempted += 1
            if (kp, ki) not in rows:
                failed += 1
                notes.append(f"pair ({kp}, {ki}) missing from tune.csv")
                continue
            certified = rows[(kp, ki)]
            if certified:
                worst = robustly_hurwitz(scn, R, pi_as_blocks(kp, ki, p, m))
                if not worst < 0.0:
                    failed += 1
                    notes.append(f"({kp}, {ki}) certified but a sector-linear loop has Re eig {worst:.3g}")
                    continue
            cert = stored.get((kp, ki))
            if cert is not None and not certified:
                L0, G, _ = sector_lmi(scn, R, kp, ki)
                if certificate_valid(L0, G, np.asarray(cert["P"]), cert["alpha"]):
                    failed += 1
                    notes.append(f"({kp}, {ki}) has a valid stored certificate but was not certified")
    return attempted, failed, notes


def read_trace_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {name: data[:, i] for i, name in enumerate(header)}


def _cols(trace, prefix):
    names = sorted(
        (k for k in trace if k.startswith(prefix) and k[len(prefix) :].isdigit()),
        key=lambda k: int(k[len(prefix) :]),
    )
    return np.column_stack([trace[k] for k in names])


def segment_rows(scn, t):
    """Per segment: (index of its first row that carries its own reference,
    index of its last row). The row at a switching time belongs to the new
    segment's disturbance but is excluded; see CHANGES.md."""
    times = list(scn["times"]) + [np.inf]
    eps = 1e-9
    out = []
    for i in range(len(scn["times"])):
        if times[i] >= scn["t_final"]:
            break
        lo = t >= times[i] - eps if i == 0 else t > times[i] + eps
        hi = t <= scn["t_final"] + eps if times[i + 1] == np.inf else t < times[i + 1] - eps
        idx = np.flatnonzero(lo & hi)
        out.append((int(idx[0]), int(idx[-1])))
    return out


def check_tracking(scn, trace, check_law):
    """One operation per disturbance segment: reference columns, convergence
    and plant equilibrium at the segment's end, and (PI runs) the control law
    on every row of the segment."""
    A, B, C = scn["A"], scn["B"], scn["C"]
    t = trace["t"]
    x, y, u = _cols(trace, "x"), _cols(trace, "y"), _cols(trace, "u")
    ystar, ustar = _cols(trace, "ystar"), _cols(trace, "ustar")
    if check_law:
        _, R = kkt_basis(A, B, C)
        ctrl = scn["controller"]
        eta, e = _cols(trace, "eta"), _cols(trace, "e")
        law = ctrl["k_i"] * eta + ctrl["k_p"] * e
        law_bad = np.abs(u - law).max(axis=1) > LAW_RTOL * (
            1.0 + np.abs(ctrl["k_i"] * eta).max(axis=1) + np.abs(ctrl["k_p"] * e).max(axis=1)
        )
        e_norm = np.linalg.norm(e, axis=1)
        proj = np.linalg.norm(gradient_on_yu(scn, y, u) @ R, axis=1)
        law_bad |= np.abs(e_norm - proj) > LAW_RTOL * (1.0 + proj)
    attempted, failed, notes = 0, 0, []
    segments = segment_rows(scn, t)
    for i, (first, last) in enumerate(segments):
        attempted += 1
        d = scn["values"][i]
        y_opt, u_opt = optimizer(scn, d)
        rows = slice(first, last + 1)
        ref_err = max(
            np.abs(ystar[rows] - y_opt).max() / (1.0 + np.abs(y_opt).max()),
            np.abs(ustar[rows] - u_opt).max() / (1.0 + np.abs(u_opt).max()),
        )
        opt = np.concatenate([y_opt, u_opt])
        dist = lambda k: float(np.linalg.norm(np.concatenate([y[k], u[k]]) - opt))
        plant = lambda k: float(np.linalg.norm(A @ x[k] + B @ u[k] + d))
        problems = []
        if ref_err > REF_RTOL:
            problems.append(f"y*/u* columns off by {ref_err:.3g} (relative)")
        if not dist(last) <= CONVERGED_SHARE * dist(first):
            problems.append(f"distance to optimizer {dist(last):.3g} against {dist(first):.3g} after the switch")
        if not plant(last) <= CONVERGED_SHARE * plant(first):
            problems.append(f"||Ax+Bu+d|| {plant(last):.3g} against {plant(first):.3g} after the switch")
        if check_law:
            lo = 0 if i == 0 else segments[i - 1][1] + 1
            bad = int(np.count_nonzero(law_bad[lo : last + 1]))
            if bad:
                problems.append(f"{bad} rows break u = K_I eta + K_P e or ||e|| = ||R' grad g||")
        if problems:
            failed += 1
            notes.append(f"segment {i}: " + "; ".join(problems))
    if len(segments) != len(scn["values"]):
        attempted += 1
        failed += 1
        notes.append(f"trace covers {len(segments)} of {len(scn['values'])} segments")
    return attempted, failed, notes


def check_stabilizer(scn, report):
    """One operation: gamma < 1, the achieved H-inf norm does not exceed
    gamma, and the stabilized loop is Hurwitz over the sector family."""
    _, R = kkt_basis(scn["A"], scn["B"], scn["C"])
    gamma, achieved = report["gamma"], report["hinf_achieved"]
    blocks = []
    for key in ("A_s", "B_s", "C_s", "D_s"):
        blocks.append(np.atleast_2d(np.asarray(report[key], dtype=float)))
    problems = []
    if not gamma < 1.0:
        problems.append(f"gamma {gamma:.4g} is not below 1")
    if not achieved <= gamma:
        problems.append(f"achieved H-inf {achieved:.4g} exceeds gamma {gamma:.4g}")
    worst = robustly_hurwitz(scn, R, blocks)
    if not worst < 0.0:
        problems.append(f"a sector-linear closed loop has Re eig {worst:.3g}")
    notes = ["stabilizer: " + "; ".join(problems)] if problems else []
    return 1, int(bool(problems)), notes
