"""Spans around the calls into each ossctl module, recorded from outside.

``install`` replaces each public function under the name its caller looks
up (``ossctl.lmi.solve_feasibility`` is the one ``verify_stability`` calls,
``ossctl.sim.pi_dynamics`` the one ``simulate`` calls, and so on) with a
wrapper that records a span: id, name, start, end, parent span, thread, and
a few attributes of the result. Spans stay in memory until ``write``.
``summarize`` turns the spans of one round into the per-layer metrics.
"""

import dataclasses
import itertools
import json
import os
import statistics
import threading
import time

_perf = time.perf_counter


class Recorder:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.grad_calls = 0
        return stack

    def span(self, name, fn, attrs=None):
        """fn wrapped so that each call records a span; attrs(result, args)
        gives the span's attributes. Every span also carries the number of
        objective-gradient calls made inside it, on its thread."""
        local = self._local

        def wrapper(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else 0
            grad0 = local.grad_calls
            stack.append(sid)
            start = _perf()
            done = False
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                end = _perf()
                stack.pop()
                info = attrs(result, args) if attrs is not None and done else {}
                info["grad"] = local.grad_calls - grad0
                self.spans.append(
                    (sid, name, start, end, parent, threading.get_ident(), info)
                )

        return wrapper

    def count_gradient(self, fn):
        local = self._local

        def counted(*args):
            self._stack()
            local.grad_calls += 1
            return fn(*args)

        return counted

    def write(self, path):
        with open(path, "w") as fh:
            for sid, name, start, end, parent, thread, info in self.spans:
                fh.write(json.dumps([sid, name, start, end, parent, thread, info]) + "\n")


def _solve_attrs(result, args):
    return {"status": result.status, "sweeps": result.sweeps}


def _verify_attrs(result, args):
    return {"status": result.status, "sweeps": result.sweeps, "certified": result.feasible}


def _simulate_attrs(result, args):
    return {"steps": int(result.t.size) - 1}


def install(rec):
    """Wrap the calls between ossctl's modules. Import-time references are
    replaced where the caller looks them up, so the program's own code paths
    are unchanged."""
    import ossctl.cli as cli
    import ossctl.lmi as lmi
    import ossctl.sim as sim
    import ossctl.synthesis as synthesis

    load = cli.load_scenario

    def load_counted(path):
        scn = load(path)
        obj = dataclasses.replace(
            scn.objective, gradient=rec.count_gradient(scn.objective.gradient)
        )
        return dataclasses.replace(scn, objective=obj)

    cli.load_scenario = load_counted
    cli.verify_stability = rec.span("lmi.verify", cli.verify_stability, _verify_attrs)
    lmi.solve_feasibility = rec.span("sdp.lmi", lmi.solve_feasibility, _solve_attrs)
    cli.synthesize_stabilizer = rec.span("synthesis", cli.synthesize_stabilizer)
    synthesis.solve_feasibility = rec.span(
        "sdp.synthesis", synthesis.solve_feasibility, _solve_attrs
    )
    synthesis.hinf_norm = rec.span("linalg.hinf", synthesis.hinf_norm)
    cli.simulate = rec.span("sim.simulate", cli.simulate, _simulate_attrs)
    sim.pi_dynamics = rec.span("controller.pi_dynamics", sim.pi_dynamics)
    sim.stabilizer_dynamics = rec.span(
        "controller.stabilizer_dynamics", sim.stabilizer_dynamics
    )
    sim.solve_steady_state = rec.span("oracle.solve", sim.solve_steady_state)
    cli.convergence_metrics = rec.span("sim.metrics", cli.convergence_metrics)
    sim.Trace.to_csv = rec.span(
        "trace.write",
        sim.Trace.to_csv,
        lambda _, args: {"rows": int(args[0].t.size), "bytes": os.path.getsize(args[1])},
    )


def read_spans(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh]


# per-layer metrics, in BENCHMARK.json order; set-up metrics come from the
# set-up processes and the tracing.* ones from run.py
COUNTS = (
    "lmi.pairs", "lmi.certified", "lmi.undecided",
    "sdp.lmi.calls", "sdp.lmi.sweeps",
    "synthesis.gamma_solves", "sdp.synthesis.sweeps",
    "oracle.calls",
    "controller.pi_dynamics_calls", "objective.gradient_calls",
    "sim.steps", "trace.rows", "trace.bytes",
)


def unit_of(name):
    if name in COUNTS:
        return "bytes" if name == "trace.bytes" else "count"
    if name.endswith("_ms"):
        return "ms"
    if "us_per" in name:
        return "us"
    if name.endswith("_frac"):
        return "ratio"
    return "s"


def summarize(spans):
    """Per-layer metrics of one round from its spans. Counts are exact;
    times are seconds unless the name says otherwise."""
    by = {}
    children = {}
    for s in spans:
        by.setdefault(s[1], []).append(s)
        children.setdefault(s[4], []).append(s)

    def dur(s):
        return s[3] - s[2]

    def total(name):
        return sum(dur(s) for s in by.get(name, ()))

    def count(name):
        return len(by.get(name, ()))

    def attr_sum(name, key, pred=lambda s: True):
        return sum(s[6].get(key, 0) for s in by.get(name, ()) if pred(s))

    def per(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    m = {}
    verify = sorted(dur(s) for s in by.get("lmi.verify", ()))
    m["lmi.pairs"] = len(verify)
    m["lmi.certified"] = attr_sum("lmi.verify", "certified")
    m["lmi.undecided"] = sum(s[6]["status"] == "undecided" for s in by.get("lmi.verify", ()))
    if verify:
        q = statistics.quantiles(verify, n=10, method="inclusive")
        m["lmi.verify_p50_ms"] = statistics.median(verify) * 1e3
        m["lmi.verify_p90_ms"] = q[8] * 1e3
    else:
        m["lmi.verify_p50_ms"] = m["lmi.verify_p90_ms"] = 0.0
    m["lmi.verify_sum_s"] = sum(verify)

    sweeps = attr_sum("sdp.lmi", "sweeps")
    m["sdp.lmi.calls"] = count("sdp.lmi")
    m["sdp.lmi.sweeps"] = sweeps
    m["sdp.lmi.us_per_sweep"] = per(total("sdp.lmi"), sweeps, 1e6)
    decided = attr_sum("sdp.lmi", "sweeps", lambda s: s[6]["status"] != "undecided")
    m["sdp.lmi.decided_sweep_frac"] = per(decided, sweeps)

    syn_sweeps = attr_sum("sdp.synthesis", "sweeps")
    m["synthesis.s"] = total("synthesis")
    m["synthesis.gamma_solves"] = count("sdp.synthesis")
    m["sdp.synthesis.sweeps"] = syn_sweeps
    m["sdp.synthesis.us_per_sweep"] = per(total("sdp.synthesis"), syn_sweeps, 1e6)
    m["linalg.hinf_s"] = total("linalg.hinf")

    m["oracle.calls"] = count("oracle.solve")
    m["oracle.s"] = total("oracle.solve")

    m["controller.pi_dynamics_calls"] = count("controller.pi_dynamics")
    m["controller.pi_dynamics_s"] = total("controller.pi_dynamics")
    m["objective.gradient_calls"] = attr_sum(
        "controller.pi_dynamics", "grad"
    ) + attr_sum("controller.stabilizer_dynamics", "grad")

    sim_spans = by.get("sim.simulate", ())
    steps = attr_sum("sim.simulate", "steps")
    sim_self = sum(dur(s) - sum(dur(c) for c in children.get(s[0], ())) for s in sim_spans)
    m["sim.steps"] = steps
    m["sim.self_s"] = sim_self
    m["sim.us_per_step"] = per(sim_self, steps, 1e6)
    m["sim.metrics_s"] = total("sim.metrics")

    rows = attr_sum("trace.write", "rows")
    m["trace.rows"] = rows
    m["trace.bytes"] = attr_sum("trace.write", "bytes")
    m["trace.write_s"] = total("trace.write")
    m["trace.us_per_row"] = per(total("trace.write"), rows, 1e6)
    return m
