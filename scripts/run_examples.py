#!/usr/bin/env python3
"""Run the three bundled example scenarios end to end and print a summary.

Usage: python scripts/run_examples.py [--out OUTDIR] [--quick]

--quick shrinks the certification grids and simulation horizons so the whole
script finishes in well under a minute; the full run reproduces the complete
grid sweeps.
"""

import argparse
import os
import time
from importlib import resources

import numpy as np

import ossctl as oc
from ossctl.scenario import load_scenario


def scenario_path(name: str) -> str:
    return str(resources.files("ossctl").joinpath(f"scenarios/{name}"))


def run_va(out_dir: str, quick: bool) -> None:
    scn = load_scenario(scenario_path("example_va.json"))
    geo = oc.build_kkt_geometry(scn.plant)
    print("== example A: nullspace geometry and certification grid ==")
    print("Q' =", np.round(geo.Q.ravel(), 4))
    kp = scn.verification.kp_grid[:3] if quick else scn.verification.kp_grid
    ki = scn.verification.ki_grid[:3] if quick else scn.verification.ki_grid
    t0 = time.time()
    records = oc.gain_grid_search(
        scn.plant, geo, kp, ki, scn.objective.kappa, scn.objective.lipschitz
    )
    certified = sum(r["certified"] for r in records)
    print(
        f"certified {certified}/{len(records)} gain pairs "
        f"in {time.time() - t0:.1f}s"
    )
    for r in records:
        if not r["certified"]:
            print(f"  not certified: k_P={r['k_P']}, k_I={r['k_I']} ({r['status']})")


def run_vb(out_dir: str, quick: bool) -> None:
    scn = load_scenario(scenario_path("example_vb.json"))
    geo = oc.build_kkt_geometry(scn.plant)
    print("== example B: non-Lipschitz objective tracking ==")
    t_final = 5.0 if quick else scn.simulation.t_final
    t0 = time.time()
    trace = oc.simulate(
        scn.plant,
        geo,
        scn.objective,
        scn.controller,
        scn.schedule,
        t_final,
        dt=scn.simulation.dt,
    )
    trace.to_csv(os.path.join(out_dir, "example_vb_trace.csv"))
    for m in oc.convergence_metrics(trace):
        print(
            f"  segment {m['segment']}: terminal error {m['terminal_error']:.2e}, "
            f"peak {m['peak_error']:.2e}"
        )
    print(f"({time.time() - t0:.1f}s, trace -> {out_dir}/example_vb_trace.csv)")


def run_vc(out_dir: str, quick: bool) -> None:
    scn = load_scenario(scenario_path("example_vc.json"))
    geo = oc.build_kkt_geometry(scn.plant)
    print("== example C: unstable plant, stabilizer synthesis ==")
    t0 = time.time()
    result = oc.synthesize_stabilizer(
        scn.plant, geo, scn.objective.kappa, scn.objective.lipschitz
    )
    print(
        f"synthesized order-{result.stabilizer.order} stabilizer: "
        f"gamma = {result.gamma:.4g}, H-inf check = {result.hinf_achieved:.4g}, "
        f"certified decay rate = {result.rate:.4g} ({time.time() - t0:.1f}s)"
    )
    t_final = 150.0 if quick else scn.simulation.t_final
    trace = oc.simulate(
        scn.plant, geo, scn.objective, result.stabilizer, scn.schedule, t_final,
        dt=1e-3,
    )
    trace.to_csv(os.path.join(out_dir, "example_vc_trace.csv"))
    for m in oc.convergence_metrics(trace):
        print(
            f"  segment {m['segment']}: terminal error {m['terminal_error']:.2e}, "
            f"peak {m['peak_error']:.2e}"
        )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="example_outputs")
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()
    os.makedirs(args.out, exist_ok=True)
    run_va(args.out, args.quick)
    run_vb(args.out, args.quick)
    run_vc(args.out, args.quick)


if __name__ == "__main__":
    main()
