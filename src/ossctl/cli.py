"""Scenario-driven command line: analyze | verify | tune | synth | simulate.

Exit codes: 0 success, 1 bad input, 2 assumption failure, 3 certification
failure, 4 synthesis failure, 5 divergence.  Each error class in
ossctl.errors carries its code; main() prints one "<label>: <message>" line
to stderr and returns that code.  A command line argparse rejects is bad
input too (--help still exits 0).  An unreadable scenario or an unwritable
--out directory (OSError) is bad input too; --out is created before the
scenario loads, so an unwritable one fails before any work is done.
Certification failure is the decision of verify and tune, not an error.
Commands run with numpy's floating-point warnings silenced, so stderr holds
that one line and nothing else.
"""

import argparse
import csv
import json
import os
import sys

import numpy as np

from .errors import (
    EXIT_ASSUMPTION,
    EXIT_BAD_INPUT,
    EXIT_CERTIFICATION,
    EXIT_DIVERGENCE,
    EXIT_OK,
    EXIT_SYNTHESIS,
    OracleError,
    OssctlError,
    ScenarioError,
)
from .kkt import build_kkt_geometry
from .lmi import gain_grid_search, verify_stability
from .oracle import solve_steady_state
from .plant import check_detectable, check_full_row_rank_AB, check_stabilizable
from .scenario import Scenario, load_scenario
from .sim import convergence_metrics, simulate
from .synthesis import synthesize_stabilizer

# the stderr prefix of an error, by its exit code
_LABELS = {
    EXIT_BAD_INPUT: "error",
    EXIT_ASSUMPTION: "assumption failure",
    EXIT_SYNTHESIS: "synthesis failure",
    EXIT_DIVERGENCE: "divergence",
}

# certificate.json's names for the two numbers of an infeasibility witness
_WITNESS_KEYS = {"frequency": ("omega", "lambda"), "member": ("kappa", "max_re_eig")}


def _write_json(out_dir: str, name: str, payload: dict) -> str:
    path = os.path.join(out_dir, name)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, default=str, allow_nan=False)
        fh.write("\n")
    return path


def cmd_analyze(scn: Scenario, out_dir: str, dt: float) -> int:
    plant = scn.plant
    checks = {
        "stabilizable": check_stabilizable(plant),
        "detectable": check_detectable(plant),
        "full_row_rank_AB": check_full_row_rank_AB(plant),
    }
    report = {
        "scenario": scn.name,
        "dimensions": {"n": plant.n, "m": plant.m, "p": plant.p},
        "checks": checks,
        "eigenvalues": [
            {"re": float(ev.real), "im": float(ev.imag)}
            for ev in np.linalg.eigvals(plant.A)
        ],
    }
    ok = all(checks.values())
    if ok:
        geometry = build_kkt_geometry(plant)
        report["Q"] = geometry.Q.tolist()
        report["R"] = geometry.R.tolist()
        segments = []
        for i, d in enumerate(scn.schedule.values):
            try:
                ref = solve_steady_state(plant, geometry, scn.objective, d)
                segments.append(
                    {
                        "segment": i,
                        "t_start": float(scn.schedule.times[i]),
                        "y_star": ref.y_star.tolist(),
                        "u_star": ref.u_star.tolist(),
                        "objective_value": ref.objective_value,
                    }
                )
            except OracleError as exc:
                segments.append({"segment": i, "error": str(exc)})
                ok = False
        report["optimizers"] = segments
    else:
        failed = [k for k, v in checks.items() if not v]
        report["failed_checks"] = failed
    _write_json(out_dir, "analyze.json", report)
    print(json.dumps(report["checks"]))
    return EXIT_OK if ok else EXIT_ASSUMPTION


def cmd_verify(scn: Scenario, out_dir: str, dt: float) -> int:
    if scn.controller == "synthesize":
        raise ScenarioError(
            "verify needs a pi or stabilizer controller, not 'synthesize'"
        )
    geometry = build_kkt_geometry(scn.plant)
    cert = verify_stability(
        scn.plant,
        geometry,
        scn.controller,
        scn.objective.kappa,
        scn.objective.lipschitz,
    )
    witness = None
    if cert.witness is not None:
        kind, at, value = cert.witness
        # JSON has no infinity: a witness at omega = inf is written as "inf"
        at = "inf" if at == np.inf else at
        witness = dict(zip(("kind", *_WITNESS_KEYS[kind]), (kind, at, value)))
    report = {
        "scenario": scn.name,
        "certified": cert.feasible,
        "status": cert.status,
        "eig_S_max": cert.eig_S_max,
        "eig_P_min": cert.eig_P_min,
        "witness": witness,
        "P": cert.P.tolist(),
    }
    _write_json(out_dir, "certificate.json", report)
    print(f"certified={cert.feasible} status={cert.status}")
    return EXIT_OK if cert.feasible else EXIT_CERTIFICATION


def cmd_tune(scn: Scenario, out_dir: str, dt: float) -> int:
    if not scn.verification.kp_grid or not scn.verification.ki_grid:
        raise ScenarioError("tune requires verification.kp_grid and .ki_grid")
    rows = gain_grid_search(
        scn.plant,
        build_kkt_geometry(scn.plant),
        scn.verification.kp_grid,
        scn.verification.ki_grid,
        scn.objective.kappa,
        scn.objective.lipschitz,
    )
    path = os.path.join(out_dir, "tune.csv")
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    n_cert = sum(r["certified"] for r in rows)
    print(f"certified {n_cert}/{len(rows)} gain pairs -> {path}")
    return EXIT_OK if n_cert > 0 else EXIT_CERTIFICATION


def _synthesize(scn: Scenario, geometry):
    """The stabilizer synthesized for the scenario's plant and sector."""
    return synthesize_stabilizer(
        scn.plant, geometry, scn.objective.kappa, scn.objective.lipschitz
    )


def cmd_synth(scn: Scenario, out_dir: str, dt: float) -> int:
    result = _synthesize(scn, build_kkt_geometry(scn.plant))
    stab = result.stabilizer
    payload = {
        "A_s": stab.A_s.tolist(),
        "B_s": stab.B_s.tolist(),
        "C_s": stab.C_s.tolist(),
        "D_s": stab.D_s.tolist(),
        "p": stab.p,
        "m": stab.m,
        "gamma": result.gamma,
        "rate": result.rate,
        "hinf_achieved": result.hinf_achieved,
    }
    path = _write_json(out_dir, "stabilizer.json", payload)
    print(
        f"gamma={result.gamma:.4g} (H-inf {result.hinf_achieved:.4g}) "
        f"rate={result.rate:.4g} -> {path}"
    )
    return EXIT_OK


def cmd_simulate(scn: Scenario, out_dir: str, dt: float) -> int:
    geometry = build_kkt_geometry(scn.plant)
    controller = scn.controller
    if controller == "synthesize":
        controller = _synthesize(scn, geometry).stabilizer
    trace = simulate(
        scn.plant,
        geometry,
        scn.objective,
        controller,
        scn.schedule,
        scn.simulation.t_final,
        dt=dt if dt is not None else scn.simulation.dt,
        x0=scn.simulation.x0,
        eta0=scn.simulation.eta0,
        xs0=scn.simulation.xs0,
    )
    metrics = convergence_metrics(trace)
    csv_path = os.path.join(out_dir, "trace.csv")
    trace.to_csv(csv_path)
    _write_json(out_dir, "metrics.json", {"scenario": scn.name, "segments": metrics})
    worst = max(m["terminal_error"] for m in metrics)
    print(f"simulated {trace.t[-1]:.6g}s, worst terminal error {worst:.3e} -> {csv_path}")
    return EXIT_OK


_COMMANDS = {
    "analyze": cmd_analyze,
    "verify": cmd_verify,
    "tune": cmd_tune,
    "synth": cmd_synth,
    "simulate": cmd_simulate,
}


class _Parser(argparse.ArgumentParser):
    """argparse with its syntax errors raised as bad input, not printed as a
    usage message with exit status 2."""

    def error(self, message):
        raise OssctlError(message)


def main(argv=None) -> int:
    parser = _Parser(
        prog="ossctl",
        description="Optimal steady-state control: analyze, certify, synthesize, simulate.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--scenario", required=True, help="scenario JSON path")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--dt", type=float, default=None, help="override time step")
    try:
        args = parser.parse_args(argv)
        os.makedirs(args.out, exist_ok=True)
        scn = load_scenario(args.scenario)
        # every decision rests on an explicit finiteness check, so numpy's
        # overflow and invalid-value warnings would only precede the result
        with np.errstate(all="ignore"):
            return _COMMANDS[args.command](scn, args.out, args.dt)
    except OssctlError as exc:
        print(f"{_LABELS[exc.exit_code]}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
