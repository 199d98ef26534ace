"""Show that each output check reports a failed operation on a bad output.

    python3 perfbench/selftest.py

Runs every workload once, confirms its outputs pass, then corrupts one
output at a time (in memory) and runs the same check on it. Exits 0 when
every clean output passes and every corruption is caught.
"""

import copy
import json
import os
import sys

import numpy as np

import checks
import run


def _tune_cases(out_dir):
    va = checks.load_scenario("example_va")
    store = checks.load_store()
    rows = checks.read_tune_csv(os.path.join(out_dir, "tune.csv"))
    yield "clean tune.csv", False, lambda: checks.check_tune(va, rows, store)

    stored = (store["certificates"][0]["k_P"], store["certificates"][0]["k_I"])
    flipped = dict(rows)
    flipped[stored] = False
    yield f"certified pair {stored} with a stored certificate flipped to rejected", True, (
        lambda: checks.check_tune(va, flipped, store))

    missing = dict(rows)
    del missing[stored]
    yield f"pair {stored} dropped from tune.csv", True, (
        lambda: checks.check_tune(va, missing, store))

    # every pair of example_va's grid, the two rejected ones included, gives
    # a Hurwitz loop for every sector-linear gradient, so a rejected pair
    # flipped to certified there cannot be caught; on example_vc's unstable
    # plant no PI pair of its grid stabilizes, so claiming them is caught
    vc = checks.load_scenario("example_vc")
    claimed = {(kp, ki): True for kp in vc["kp_grid"] for ki in vc["ki_grid"]}
    yield "every example_vc grid pair claimed certified", True, (
        lambda: checks.check_tune(vc, claimed, {"certificates": []}))


def _trace_cases(scn, trace, law):
    yield f"clean {scn['name']} trace.csv", False, lambda: checks.check_tracking(scn, trace, law)
    segments = checks.segment_rows(scn, trace["t"])
    first, last = segments[1]

    shifted = dict(trace, ystar1=trace["ystar1"].copy())
    shifted["ystar1"][first : last + 1] += 1e-3
    yield "ystar1 shifted by 1e-3 in segment 1", True, (
        lambda: checks.check_tracking(scn, shifted, law))

    stalled = {k: v.copy() for k, v in trace.items()}
    for k in stalled:
        if k != "t" and not k.startswith(("ystar", "ustar")):
            stalled[k][last] = trace[k][first]
    yield "segment 1 ends where it started", True, (
        lambda: checks.check_tracking(scn, stalled, law))

    off_plant = dict(trace, x1=trace["x1"].copy())
    off_plant["x1"][last] += 0.5
    yield "x1 moved off the plant equilibrium at segment 1's end", True, (
        lambda: checks.check_tracking(scn, off_plant, law))

    if law:
        broken = dict(trace, u1=trace["u1"].copy())
        broken["u1"][first + 100] += 1e-6
        yield "u = K_I eta + K_P e broken in one row", True, (
            lambda: checks.check_tracking(scn, broken, law))

        flipped = dict(trace, e1=trace["e1"].copy(), eta1=trace["eta1"].copy())
        row = first + 100
        # keep u = K_I eta + K_P e but change ||e||
        k_p, k_i = scn["controller"]["k_p"], scn["controller"]["k_i"]
        flipped["e1"][row] *= 2.0
        flipped["eta1"][row] -= k_p * trace["e1"][row] / k_i
        yield "||e|| doubled in one row, law kept", True, (
            lambda: checks.check_tracking(scn, flipped, law))


def _stabilizer_cases(scn, report):
    yield "clean stabilizer.json", False, lambda: checks.check_stabilizer(scn, report)

    high = dict(report, gamma=1.2, hinf_achieved=min(report["hinf_achieved"], 1.2))
    yield "gamma 1.2", True, lambda: checks.check_stabilizer(scn, high)

    over = dict(report, hinf_achieved=report["gamma"] * 1.01)
    yield "achieved H-inf above gamma", True, lambda: checks.check_stabilizer(scn, over)

    unstable = copy.deepcopy(report)
    A_s = np.asarray(unstable["A_s"]) + 10.0 * np.eye(len(unstable["A_s"]))
    unstable["A_s"] = A_s.tolist()
    yield "stabilizer A_s shifted by +10 I", True, lambda: checks.check_stabilizer(scn, unstable)


def main():
    if not os.path.isfile(os.path.join("src", "ossctl", "cli.py")):
        print("error: run from the root of an ossctl checkout", file=sys.stderr)
        return 2
    store = checks.load_store()
    cases = []
    for workload in ("certify_grid", "track_nonlinear", "stabilize_track"):
        result = run.run_round(workload, False, store)
        out_dir = os.path.join(run.OUT, workload)
        print(f"{workload}: round checked {result['check'][:2]}")
        if workload == "certify_grid":
            cases += _tune_cases(out_dir)
            continue
        scn = checks.load_scenario("example_vb" if workload == "track_nonlinear" else "example_vc")
        trace = checks.read_trace_csv(os.path.join(out_dir, "trace.csv"))
        cases += _trace_cases(scn, trace, workload == "track_nonlinear")
        if workload == "stabilize_track":
            with open(os.path.join(out_dir, "stabilizer.json")) as fh:
                cases += _stabilizer_cases(scn, json.load(fh))
    ok = True
    for label, corrupt, check in cases:
        attempted, failed, notes = check()
        good = (failed > 0) == corrupt
        ok &= good
        verdict = "caught" if corrupt and good else "passes" if good else "WRONG"
        print(f"{verdict:7s} {label}: {failed}/{attempted} failed")
        for n in notes[:2]:
            print(f"        {n}")
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
