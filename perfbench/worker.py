"""One benchmark process; run.py starts a fresh one for every measurement.

    python3 perfbench/worker.py setup <scenario.json>
    python3 perfbench/worker.py round <workload> <out_dir> <trace 0|1>

``setup`` imports ossctl.cli, loads the scenario and builds the KKT
geometry, and prints how long each took. ``round`` runs the workload's CLI
commands through ``ossctl.cli.main`` and prints the wall time of each call,
the exit codes, the peak resident memory and the threading settings. With
trace 1 it first installs the spans of tracing.py and writes them to
<out_dir>/spans.jsonl when the round ends.

Both expect the checkout's ``src`` first on PYTHONPATH.
"""

import json
import os
import resource
import sys
import time

_perf = time.perf_counter

# (command, scenario, extra arguments) calls per workload, in order.
# stabilize_track simulates at dt 2.5e-3 instead of the scenario's 1e-3: a
# round then takes about 11 s instead of 24 s, so a run holds several rounds
# and its median is steady (see README.md)
WORKLOADS = {
    "certify_grid": (("tune", "example_va", ()),),
    "track_nonlinear": (("simulate", "example_vb", ()),),
    "stabilize_track": (
        ("synth", "example_vc", ()),
        ("simulate", "example_vc", ("--dt", "0.0025")),
    ),
}


def scenario_path(name):
    return os.path.join("src", "ossctl", "scenarios", f"{name}.json")


def setup(path):
    t0 = _perf()
    import ossctl.cli as cli

    t1 = _perf()
    scn = cli.load_scenario(path)
    t2 = _perf()
    cli.build_kkt_geometry(scn.plant)
    t3 = _perf()
    return {"import_s": t1 - t0, "load_s": t2 - t1, "kkt_s": t3 - t2}


def _openblas_threads():
    """Thread count of each OpenBLAS loaded in this process, by library."""
    import ctypes

    out = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({l.split()[-1] for l in fh if "openblas" in l.lower()})
    except OSError:
        return out
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = fn()
                break
    return out


def settings():
    import numpy
    import scipy

    import ossctl.cli as cli

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu_count": os.cpu_count(),
        "OSSCTL_THREADS": os.environ.get("OSSCTL_THREADS"),
        "tune_pool_workers": cli._thread_count() if hasattr(cli, "_thread_count") else None,
        "openblas_threads": _openblas_threads(),
    }


def run_round(workload, out_dir, traced):
    import ossctl.cli as cli

    rec = None
    if traced:
        import tracing

        rec = tracing.Recorder()
        tracing.install(rec)
    times, codes = {}, {}
    for command, scenario, extra in WORKLOADS[workload]:
        argv = [command, "--scenario", scenario_path(scenario), "--out", out_dir, *extra]
        t0 = _perf()
        codes[command] = cli.main(argv)
        times[command] = _perf() - t0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if rec is not None:
        rec.write(os.path.join(out_dir, "spans.jsonl"))
    return {
        "command_s": times,
        "exit_codes": codes,
        "peak_rss_mb": peak,
        "settings": settings(),
    }


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "setup":
        result = setup(sys.argv[2])
    else:
        result = run_round(sys.argv[2], sys.argv[3], sys.argv[4] == "1")
    # the program prints to stdout too; the result is the last line
    print(json.dumps(result))
