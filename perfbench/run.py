"""Benchmark of the ossctl CLI on its three bundled scenarios.

    python3 perfbench/run.py --workload certify_grid --seed 1 --seconds 32 --trace 0

Run from the root of a checkout; the program is used from ``src`` as it
stands there, not from an installed copy. A run repeats rounds of the
workload's CLI commands until ``--seconds`` have passed (at least one
round), and times fresh interpreters doing the program's set-up before and
after the rounds.
Each round runs in a fresh process and its outputs are checked against
computations made here (checks.py). The last line printed is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``, the
end-to-end metrics with ``--trace 0`` and the per-layer metrics with
``--trace 1``. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracing  # noqa: E402
from worker import WORKLOADS, scenario_path  # noqa: E402

OUT = os.path.join("perfbench", "out")
SETUP_REPEATS = 4  # timed start-ups before the rounds, and again after them
PROCESS_TIMEOUT_S = 150
# The tune pool keeps the program's default size, os.cpu_count(). OpenBLAS
# gets one thread: numpy and scipy each load an OpenBLAS of their own with
# os.cpu_count() threads, more runnable threads than the machine has cores,
# and on a shared 2-CPU host that doubled the spread of single rounds
THREAD_ENV = ("OSSCTL_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
_perf = time.perf_counter


def _env():
    env = {k: v for k, v in os.environ.items() if k not in THREAD_ENV}
    env["OPENBLAS_NUM_THREADS"] = "1"
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _worker(*args):
    """Run worker.py to its end; (wall seconds, its JSON result)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    t0 = _perf()
    proc = subprocess.run(
        cmd, env=_env(), capture_output=True, text=True, timeout=PROCESS_TIMEOUT_S
    )
    wall = _perf() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"worker {' '.join(args)} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    return wall, json.loads(lines[-1])


def measure_setup(workload, discard=False):
    """Wall time of fresh interpreters that import ossctl.cli, load the
    workload's first scenario and build its KKT geometry. With discard, one
    start-up first warms the file and bytecode caches and is not timed."""
    path = scenario_path(WORKLOADS[workload][0][1])
    if discard:
        _worker("setup", path)
    return [_worker("setup", path) for _ in range(SETUP_REPEATS)]


def _operations(workload):
    """Operations one round attempts: gain pairs, segments, stabilizers."""
    if workload == "certify_grid":
        scn = checks.load_scenario("example_va")
        return len(scn["kp_grid"]) * len(scn["ki_grid"])
    scn = checks.load_scenario(WORKLOADS[workload][-1][1])
    return len(scn["values"]) + (workload == "stabilize_track")


def check_round(workload, out_dir, store):
    """(attempted, failed, notes) for the outputs of one round."""
    if workload == "certify_grid":
        scn = checks.load_scenario("example_va")
        return checks.check_tune(scn, checks.read_tune_csv(os.path.join(out_dir, "tune.csv")), store)
    scn = checks.load_scenario(WORKLOADS[workload][-1][1])
    trace = checks.read_trace_csv(os.path.join(out_dir, "trace.csv"))
    attempted, failed, notes = checks.check_tracking(scn, trace, workload == "track_nonlinear")
    if workload == "stabilize_track":
        with open(os.path.join(out_dir, "stabilizer.json")) as fh:
            a, f, n = checks.check_stabilizer(scn, json.load(fh))
        attempted, failed, notes = attempted + a, failed + f, notes + n
    return attempted, failed, notes


def run_round(workload, traced, store):
    out_dir = os.path.join(OUT, workload)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    _, result = _worker("round", workload, out_dir, "1" if traced else "0")
    expected = _operations(workload)
    bad = {c: code for c, code in result["exit_codes"].items() if code != 0}
    if bad:
        result["check"] = (expected, expected, [f"exit codes {bad}"])
    else:
        try:
            result["check"] = check_round(workload, out_dir, store)
        except (OSError, ValueError, KeyError, ArithmeticError) as exc:
            result["check"] = (expected, expected, [f"output unreadable: {exc!r}"])
    if traced:
        result["layers"] = tracing.summarize(tracing.read_spans(os.path.join(out_dir, "spans.jsonl")))
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="recorded only: the workloads draw no random inputs")
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join("src", "ossctl", "cli.py")):
        print("error: run from the root of an ossctl checkout (src/ossctl missing)", file=sys.stderr)
        return 2
    store = checks.load_store() if args.workload == "certify_grid" else None

    # start-ups are timed on both sides of the rounds, so that their median
    # spans the same stretch of time as the rounds
    setups = measure_setup(args.workload, discard=True)
    # a traced run alternates untraced and traced rounds, so that the two
    # sides of the tracing overhead come from the same stretch of time
    rounds, untraced = [], []
    t0 = _perf()
    while not rounds or _perf() - t0 < args.seconds:
        if args.trace and len(untraced) <= len(rounds):
            untraced.append(run_round(args.workload, False, store))
        else:
            rounds.append(run_round(args.workload, bool(args.trace), store))
    setups += measure_setup(args.workload)

    checked = rounds + untraced
    attempted = sum(r["check"][0] for r in checked)
    failed = sum(r["check"][1] for r in checked)
    notes = [n for r in checked for n in r["check"][2]]
    command_s = [sum(r["command_s"].values()) for r in rounds]
    correct = True
    if args.trace:
        counts = {tuple(r["layers"][k] for k in tracing.COUNTS) for r in rounds}
        if len(counts) != 1:
            correct = False
            notes.append("per-layer counts differ between traced rounds")
        metrics = {
            "import.ossctl_s": (statistics.median(s[1]["import_s"] for s in setups), "s"),
            "scenario.load_s": (statistics.median(s[1]["load_s"] for s in setups), "s"),
            "kkt.build_s": (statistics.median(s[1]["kkt_s"] for s in setups), "s"),
        }
        for name in rounds[0]["layers"]:
            metrics[name] = (
                statistics.median(r["layers"][name] for r in rounds), tracing.unit_of(name)
            )
        plain = statistics.fmean(sum(r["command_s"].values()) for r in untraced)
        traced = statistics.fmean(command_s)
        metrics["tracing.overhead_s"] = (traced - plain, "s")
        metrics["tracing.overhead_frac"] = (traced / plain - 1.0, "ratio")
    else:
        metrics = {
            "setup_s": (statistics.median(s[0] for s in setups), "s"),
            # the mean, not the median of a few rounds: on a shared host the
            # speed drifts within a run, and only the mean covers all of it
            "command_s": (statistics.fmean(command_s), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in rounds), "MB"),
        }

    for label, group in (("untraced round", untraced), ("round", rounds)):
        for r in group:
            print(label + " " + " ".join(f"{c}_s={t:.4f}" for c, t in r["command_s"].items())
                  + f" peak_rss_mb={r['peak_rss_mb']:.1f}")
    print(f"command_s over {len(command_s)} rounds: min {min(command_s):.4f}, "
          f"mean {statistics.fmean(command_s):.4f}, max {max(command_s):.4f} s")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"settings {json.dumps(rounds[0]['settings'])}")
    print(f"seed {args.seed} (no random inputs), rounds {len(rounds)}, "
          f"operations attempted {attempted}, failed {failed}")
    for n in notes:
        print(f"check: {n}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(OUT, f"result-{args.workload}-trace{args.trace}.json"), "w") as fh:
        json.dump({**result, "rounds": rounds, "untraced_rounds": untraced,
                   "setups": setups, "seed": args.seed}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
