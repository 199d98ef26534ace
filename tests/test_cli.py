import csv
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from importlib import resources

import ossctl
import ossctl.synthesis as synthesis
from ossctl.cli import (
    EXIT_ASSUMPTION,
    EXIT_BAD_INPUT,
    EXIT_CERTIFICATION,
    EXIT_DIVERGENCE,
    EXIT_OK,
    EXIT_SYNTHESIS,
    main,
)
from ossctl.kkt import build_kkt_geometry
from ossctl.lmi import gain_grid_search
from ossctl.scenario import load_scenario, matrix_to_json
from tests.conftest import shifted_loop

DATA = Path(__file__).resolve().parent / "data"


def bundled(name):
    return str(resources.files("ossctl").joinpath(f"scenarios/{name}"))


def run(args):
    return main(args)


def test_analyze_va(tmp_path):
    code = run(["analyze", "--scenario", bundled("example_va.json"), "--out", str(tmp_path)])
    assert code == EXIT_OK
    report = json.loads((tmp_path / "analyze.json").read_text())
    assert report["checks"] == {
        "stabilizable": True,
        "detectable": True,
        "full_row_rank_AB": True,
    }
    q = np.array(report["Q"]).ravel()
    sign = np.sign(q[0]) or 1.0
    assert np.allclose(
        sign * q, [0.1661, 0.2491, -0.6644, 0.1661, 0.6644], atol=5e-4
    )
    assert len(report["optimizers"]) == 1


def test_analyze_reports_unstable_eigenvalue(tmp_path):
    code = run(["analyze", "--scenario", bundled("example_vc.json"), "--out", str(tmp_path)])
    assert code == EXIT_OK
    report = json.loads((tmp_path / "analyze.json").read_text())
    assert max(ev["re"] for ev in report["eigenvalues"]) == pytest.approx(1.0)


@pytest.mark.parametrize("name", ["example_va.json", "example_vc.json"])
def test_analyze_optimizers_match_closed_form(tmp_path, name):
    # the written y*/u* of a quadratic cost are the KKT solution to rounding
    code = run(["analyze", "--scenario", bundled(name), "--out", str(tmp_path)])
    assert code == EXIT_OK
    report = json.loads((tmp_path / "analyze.json").read_text())
    scn = load_scenario(bundled(name))
    geometry = build_kkt_geometry(scn.plant)
    assert len(report["optimizers"]) == len(scn.schedule.values)
    for seg, d in zip(report["optimizers"], scn.schedule.values):
        ref = ossctl.solve_quadratic_closed_form(scn.plant, geometry, scn.objective, d)
        written = np.concatenate([seg["y_star"], seg["u_star"]])
        assert np.max(np.abs(written - ref.yu())) < 1e-12


def test_analyze_flags_assumption_failure(tmp_path):
    scenario = {
        "name": "bad",
        "plant": {
            "A": matrix_to_json(np.eye(2)),
            "B": matrix_to_json(np.zeros((2, 1))),
            "C": matrix_to_json(np.eye(2)),
        },
        "objective": {
            "name": "quadratic",
            "H": matrix_to_json(np.eye(3)),
            "q": [0, 0, 0],
        },
        "controller": {"type": "pi", "k_p": 1.0, "k_i": 1.0},
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(scenario))
    code = run(["analyze", "--scenario", str(path), "--out", str(tmp_path)])
    assert code == EXIT_ASSUMPTION
    report = json.loads((tmp_path / "analyze.json").read_text())
    assert "stabilizable" in report["failed_checks"]


def test_analyze_records_an_oracle_error_segment(tmp_path):
    # the cosh cost's derivative overflows at the second segment's
    # disturbance of 1e300: analyze.json holds that segment's OracleError
    # message beside the other segments' optimizers, and analyze exits 2
    data = json.loads(open(bundled("example_vb.json")).read())
    data["disturbance"]["values"][1][0] = 1e300
    path = tmp_path / "vb.json"
    path.write_text(json.dumps(data))
    code = run(["analyze", "--scenario", str(path), "--out", str(tmp_path)])
    assert code == EXIT_ASSUMPTION
    report = json.loads((tmp_path / "analyze.json").read_text())
    assert all(report["checks"].values())
    first, second, third = report["optimizers"]
    assert second == {"segment": 1, "error": "cost derivative overflow at this disturbance"}
    assert (first["segment"], third["segment"]) == (0, 2)
    assert "y_star" in first and "y_star" in third


CERTIFICATE_KEYS = [
    "P", "certified", "eig_P_min", "eig_S_max", "scenario", "status", "witness",
]


def test_verify_va_certifies(tmp_path):
    code = run(["verify", "--scenario", bundled("example_va.json"), "--out", str(tmp_path)])
    assert code == EXIT_OK
    cert = json.loads((tmp_path / "certificate.json").read_text())
    assert sorted(cert) == CERTIFICATE_KEYS
    assert cert["certified"] is True
    assert cert["eig_S_max"] < 0
    assert cert["witness"] is None


def test_verify_reports_infeasibility_witness(tmp_path):
    data = json.loads(open(bundled("example_va.json")).read())
    data["controller"] = {"type": "pi", "k_p": 0.2, "k_i": 1.8}
    path = tmp_path / "va_corner.json"
    path.write_text(json.dumps(data))
    code = run(["verify", "--scenario", str(path), "--out", str(tmp_path)])
    assert code == EXIT_CERTIFICATION
    cert = json.loads((tmp_path / "certificate.json").read_text())
    assert cert["status"] == "infeasible"
    assert cert["witness"]["kind"] == "frequency"
    assert cert["witness"]["omega"] > 0
    assert cert["witness"]["lambda"] > 0
    assert "sweeps" not in cert


def test_verify_reports_undecided(tmp_path):
    # example_va with (k_P, k_I) = (0.1, 1e-4): neither a witness nor a
    # certificate (see test_lmi.test_slowest_loop_is_undecided)
    data = json.loads(open(bundled("example_va.json")).read())
    data["controller"] = {"type": "pi", "k_p": 0.1, "k_i": 1e-4}
    path = tmp_path / "va_slow.json"
    path.write_text(json.dumps(data))
    code = run(["verify", "--scenario", str(path), "--out", str(tmp_path)])
    assert code == EXIT_CERTIFICATION
    text = (tmp_path / "certificate.json").read_text()
    assert '"status": "undecided"' in text
    assert '"witness": null' in text


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def test_certificate_json_is_strict_at_infinite_frequency(tmp_path):
    # example_vb's PI law is ruled out at omega = inf; strict parsers (jq,
    # JavaScript) reject the Infinity token, so omega is written as "inf"
    code = run(["verify", "--scenario", bundled("example_vb.json"), "--out", str(tmp_path)])
    assert code == EXIT_CERTIFICATION
    text = (tmp_path / "certificate.json").read_text()
    cert = json.loads(text, parse_constant=_reject_constant)
    assert sorted(cert) == CERTIFICATE_KEYS
    witness = cert["witness"]
    assert witness["kind"] == "frequency"
    assert witness["omega"] == "inf"
    assert witness["lambda"] > 0


def test_verify_vc_fails_certification(tmp_path):
    # same scenario but with a fixed PI gain: certification must fail
    data = json.loads(open(bundled("example_vc.json")).read())
    data["controller"] = {"type": "pi", "k_p": 1.0, "k_i": 1.0}
    path = tmp_path / "vc_pi.json"
    path.write_text(json.dumps(data))
    code = run(["verify", "--scenario", str(path), "--out", str(tmp_path)])
    assert code == EXIT_CERTIFICATION
    # the sector's lower edge, kappa = 1, is a destabilizing member
    witness = json.loads((tmp_path / "certificate.json").read_text())["witness"]
    assert witness["kind"] == "member"
    assert witness["kappa"] == 1.0
    assert witness["max_re_eig"] > 0


def test_verify_certifies_synthesized_stabilizer(tmp_path, synthesis_result):
    # example_vc with its synthesized stabilizer as the scenario controller:
    # the sector LMI certifies the loop that small gain certified
    data = json.loads(open(bundled("example_vc.json")).read())
    stab = synthesis_result.stabilizer
    data["controller"] = {"type": "stabilizer"} | {
        name: matrix_to_json(getattr(stab, name)) for name in ("A_s", "B_s", "C_s", "D_s")
    }
    path = tmp_path / "vc_stabilizer.json"
    path.write_text(json.dumps(data))
    code = run(["verify", "--scenario", str(path), "--out", str(tmp_path)])
    assert code == EXIT_OK
    cert = json.loads((tmp_path / "certificate.json").read_text())
    assert cert["status"] == "feasible"
    n_states = 4 + 1 + stab.order  # (x, eta, x_s)
    assert np.array(cert["P"]).shape == (n_states, n_states)


def test_verify_rejects_synthesize_controller(tmp_path, capsys):
    code = run(["verify", "--scenario", bundled("example_vc.json"), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == EXIT_BAD_INPUT
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert not (tmp_path / "certificate.json").exists()


def test_simulate_vb_writes_trace(tmp_path):
    code = run(
        [
            "simulate", "--scenario", bundled("example_vb.json"),
            "--out", str(tmp_path), "--dt", "0.002",
        ]
    )
    assert code == EXIT_OK
    with open(tmp_path / "trace.csv") as fh:
        header = next(csv.reader(fh))
    assert header[:6] == ["t", "x1", "x2", "x3", "x4", "eta1"]
    metrics = json.loads((tmp_path / "metrics.json").read_text())
    assert len(metrics["segments"]) == 3


def test_tune_small_grid(tmp_path):
    data = json.loads(open(bundled("example_va.json")).read())
    data["verification"]["kp_grid"] = [0.5, 1.0]
    data["verification"]["ki_grid"] = [0.5, 1.0]
    path = tmp_path / "va_small.json"
    path.write_text(json.dumps(data))
    code = run(["tune", "--scenario", str(path), "--out", str(tmp_path)])
    assert code == EXIT_OK
    with open(tmp_path / "tune.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    assert all(r["certified"] == "True" for r in rows)
    # the CLI writes exactly the library's grid records
    scn = load_scenario(str(path))
    records = gain_grid_search(
        scn.plant, build_kkt_geometry(scn.plant),
        scn.verification.kp_grid, scn.verification.ki_grid,
        scn.objective.kappa, scn.objective.lipschitz,
    )
    assert rows == [{key: str(value) for key, value in r.items()} for r in records]


def test_missing_scenario_is_bad_input(tmp_path):
    code = run(["analyze", "--scenario", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert code == EXIT_BAD_INPUT


@pytest.mark.parametrize(
    "args",
    [
        ["simulate"],
        ["simulate", "--dt", "abc"],
        ["simulate", "--dt", "-inf"],
        ["simulate", "--no-such-option"],
        ["no-such-command"],
    ],
    ids=["no_scenario", "dt_not_a_number", "dt_minus_inf", "unknown_option",
         "unknown_command"],
)
def test_command_line_syntax_error_is_bad_input(tmp_path, capsys, args):
    # argparse's own usage message and exit status 2 would read as an
    # assumption failure; a bad command line is bad input, in one line
    scenario = [] if args == ["simulate"] else ["--scenario", bundled("example_va.json")]
    out = tmp_path / "out"
    assert run(args + scenario + ["--out", str(out)]) == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert not out.exists()


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: ossctl")


def test_synth_example_vc(tmp_path):
    code = run(["synth", "--scenario", bundled("example_vc.json"), "--out", str(tmp_path)])
    assert code == EXIT_OK
    data = json.loads((tmp_path / "stabilizer.json").read_text())
    assert sorted(data) == [
        "A_s", "B_s", "C_s", "D_s", "gamma", "hinf_achieved", "m", "p", "rate",
    ]
    assert data["gamma"] < 1.0
    assert data["hinf_achieved"] <= data["gamma"]
    assert data["rate"] >= 0
    A_s, B_s, C_s, D_s = (np.array(data[k]) for k in ("A_s", "B_s", "C_s", "D_s"))
    p, m = data["p"], data["m"]
    # the loop shifted by the reported rate keeps the gain below gamma
    scn = load_scenario(bundled("example_vc.json"))
    geometry = build_kkt_geometry(scn.plant)
    stab = ossctl.DynamicStabilizer(A_s=A_s, B_s=B_s, C_s=C_s, D_s=D_s, p=p, m=m)
    Acl, Bcl, Ccl, Dcl = shifted_loop(
        scn.plant, geometry, stab, scn.objective.kappa, scn.objective.lipschitz
    )
    shifted = Acl + data["rate"] * np.eye(Acl.shape[0])
    assert ossctl.hinf_norm(shifted, Bcl, Ccl, Dcl) <= data["gamma"]
    ns = A_s.shape[0]
    assert (p, m) == (2, 1)
    assert A_s.shape == (ns, ns)
    assert B_s.shape == (ns, p + 2 * m)
    assert C_s.shape == (m, ns)
    assert D_s.shape == (m, p + 2 * m)


def test_synth_json_matches_the_recorded_stabilizer(tmp_path):
    # example_vc's stabilizer.json against a recorded copy: the matrices
    # and the achieved norm each within 16 ulp, gamma, rate, p and m
    # exactly, so a change in the synthesis arithmetic fails here
    code = run(["synth", "--scenario", bundled("example_vc.json"), "--out", str(tmp_path)])
    assert code == EXIT_OK
    got = json.loads((tmp_path / "stabilizer.json").read_text())
    want = json.loads((DATA / "example_vc_stabilizer.json").read_text())
    assert sorted(got) == sorted(want)
    for key in ("gamma", "rate", "p", "m"):
        assert got[key] == want[key], key
    for key in ("A_s", "B_s", "C_s", "D_s", "hinf_achieved"):
        g, w = np.array(got[key], dtype=float), np.array(want[key], dtype=float)
        assert g.shape == w.shape, key
        moved = np.argwhere(~(np.abs(g - w) <= 16 * np.spacing(np.abs(w))))
        assert moved.size == 0, (key, moved.tolist())


def test_synthesize_scenario_takes_xs0(tmp_path, capsys):
    # example_vc synthesizes an order-5 stabilizer: a zero xs0 of length 5
    # is the default start, and length 6 is refused by simulate
    data = json.loads(open(bundled("example_vc.json")).read())
    data["simulation"]["t_final"] = 2.0
    traces = []
    for xs0 in (None, [0.0] * 5, [0.0] * 6):
        data["simulation"]["xs0"] = xs0
        path = tmp_path / "vc.json"
        path.write_text(json.dumps(data))
        out = tmp_path / str(len(traces))
        code = run(["simulate", "--scenario", str(path), "--out", str(out)])
        traces.append((code, (out / "trace.csv").read_bytes() if code == EXIT_OK else None))
    assert traces[0] == traces[1] and traces[0][0] == EXIT_OK
    assert traces[2] == (EXIT_BAD_INPUT, None)
    err = capsys.readouterr().err
    assert err.endswith("error: xs0 has length 6, expected length 5\n")


def _zero_stabilizer(aug, *variables):
    nsig = aug.p + 2 * aug.m
    return ossctl.DynamicStabilizer(
        A_s=np.zeros((0, 0)), B_s=np.zeros((0, nsig)), C_s=np.zeros((aug.m, 0)),
        D_s=np.zeros((aug.m, nsig)), p=aug.p, m=aug.m,
    )


@pytest.mark.parametrize(
    "name, replacement, message",
    [
        # example_vc's plant is unstable, so with no controller the
        # synthesized loop is too, and hinf_norm reports inf
        ("_central_controller", _zero_stabilizer, "synthesized closed loop is not Hurwitz"),
        ("hinf_norm", lambda *system: 2.0, "independent gain check failed"),
    ],
)
def test_synth_rejects_unvalidated_controller(
    tmp_path, capsys, monkeypatch, name, replacement, message
):
    monkeypatch.setattr(synthesis, name, replacement)
    code = run(["synth", "--scenario", bundled("example_vc.json"), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == EXIT_SYNTHESIS
    assert err.startswith("synthesis failure: " + message)
    assert err.count("\n") == 1
    assert not (tmp_path / "stabilizer.json").exists()


def test_synth_failure_is_one_line(tmp_path, capsys, monkeypatch):
    # with no central controller on any rung, synth reports that none was
    # found at gamma = 0.99; a regularized Riccati failure is no proof that
    # none exists, and the message does not claim one
    rungs = []

    def none_found(aug, rate):
        rungs.append(rate)

    monkeypatch.setattr(synthesis, "_central_controller", none_found)
    code = run(["synth", "--scenario", bundled("example_vc.json"), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == EXIT_SYNTHESIS
    assert rungs == list(synthesis._RATES)
    assert err.startswith("synthesis failure: no controller found at gamma = 0.99")
    assert "exist" not in err
    assert err.count("\n") == 1
    assert not (tmp_path / "stabilizer.json").exists()


def _non_square_A(data):
    data["plant"]["A"] = matrix_to_json(np.ones((4, 3)))


def _kappa_above_L(data):
    data["objective"]["kappa"] = 2.0


def _zero_k_i(data):
    data["controller"] = {"type": "pi", "k_p": 2.0, "k_i": 0.0}


def _singular_K_I_matrix(data):
    data["controller"] = {
        "type": "pi",
        "K_P": matrix_to_json(np.eye(1)),
        "K_I": matrix_to_json(np.zeros((1, 1))),
    }


def _unequal_K_P_K_I(data):
    data["controller"] = {
        "type": "pi",
        "K_P": matrix_to_json(np.eye(2)),
        "K_I": matrix_to_json(np.eye(1)),
    }


def _schedule_not_at_zero(data):
    data["disturbance"]["times"] = [1.0]


def _indefinite_H(data):
    data["objective"]["H"] = matrix_to_json(np.diag([1.0, -1.0, 1.0]))


def _missing_H(data):
    del data["objective"]["H"]


def _pi_without_k_i(data):
    data["controller"] = {"type": "pi", "k_p": 2.0}


def _plant_as_list(data):
    data["plant"] = list(data["plant"].values())


def _top_level_list(data):
    return json.dumps([data]).encode()


def _binary_file(data):
    return bytes(range(256))


def _nan_t_final(data):
    data["simulation"]["t_final"] = float("nan")


def _zero_in_ki_grid(data):
    data["verification"]["ki_grid"][0] = 0.0


@pytest.mark.parametrize(
    "mutate",
    [
        _non_square_A,
        _kappa_above_L,
        _zero_k_i,
        _singular_K_I_matrix,
        _unequal_K_P_K_I,
        _schedule_not_at_zero,
        _indefinite_H,
        _missing_H,
        _pi_without_k_i,
        _plant_as_list,
        _top_level_list,
        _binary_file,
        _nan_t_final,
        _zero_in_ki_grid,
    ],
)
def test_malformed_scenario_is_one_line_error(tmp_path, capsys, mutate):
    data = json.loads(open(bundled("example_va.json")).read())
    content = mutate(data)  # the whole file, or None to write the mutated data
    path = tmp_path / "bad.json"
    path.write_bytes(json.dumps(data).encode() if content is None else content)
    code = run(["simulate", "--scenario", str(path), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == EXIT_BAD_INPUT
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


def _rank_deficient_AB(data, tmp_path):
    # row 0 of B is 0, so a zero row 0 in A makes [A B] lose rank
    data["plant"]["A"]["data"][:4] = [0.0] * 4


def _zero_sector(data, tmp_path):
    data["objective"]["kappa"] = 0.0
    data["objective"]["lipschitz"] = 0.0


def _huge_k_p(data, tmp_path=None):
    data["controller"]["k_p"] = 1e300


def _huge_k_i(data, tmp_path=None):
    data["controller"]["k_i"] = 1e300


def _zero_t_final(data, tmp_path):
    data["simulation"]["t_final"] = 0.0


def _huge_t_final(data, tmp_path):
    data["simulation"]["t_final"] = 1e300


def _far_initial_state(data, tmp_path):
    # cosh(y1 / 2) overflows a double beyond |y1| ~ 1420
    data["simulation"]["x0"] = [1e4, 0.0, 0.0, 0.0]


def _huge_disturbance(data, tmp_path):
    data["disturbance"]["values"][1][0] = 1e300


def _singular_quadratic_loop(data, tmp_path, k_p=-1.505199322349037):
    # 1 + k_p R'H_u = 0 exactly: the affine loop has no input solution
    data["controller"]["k_p"] = k_p
    data["simulation"]["t_final"] = 0.05


def _singular_loop_one_ulp_up(data, tmp_path):
    # invertible, but cond(I - H D) is far above 1e12
    _singular_quadratic_loop(data, tmp_path, -1.5051993223490368)


def _singular_loop_one_ulp_down(data, tmp_path):
    _singular_quadratic_loop(data, tmp_path, -1.5051993223490372)


def _overflowing_quadratic_loop(data, tmp_path):
    # k_p R'H_u overflows, so I - H D is not finite
    _singular_quadratic_loop(data, tmp_path, 1.7e308)


def _no_grid(data, tmp_path):
    del data["verification"]


def _negative_dt(data, tmp_path):
    return ["--dt", "-1"]


def _infinite_dt(data, tmp_path):
    return ["--dt", "inf"]


def _nan_dt(data, tmp_path):
    return ["--dt", "nan"]


def _out_below_file(data, tmp_path):
    (tmp_path / "file").write_text("")
    return ["--out", str(tmp_path / "file" / "out")]


@pytest.mark.parametrize(
    "command, name, mutate, code, prefix",
    [
        ("verify", "va", _rank_deficient_AB, EXIT_ASSUMPTION, "assumption failure: "),
        ("verify", "va", _zero_sector, EXIT_BAD_INPUT, "error: "),
        ("verify", "va", _huge_k_p, EXIT_BAD_INPUT, "error: "),
        ("simulate", "va", _zero_t_final, EXIT_BAD_INPUT, "error: "),
        ("simulate", "va", _negative_dt, EXIT_BAD_INPUT, "error: "),
        ("simulate", "va", _infinite_dt, EXIT_BAD_INPUT, "error: "),
        ("simulate", "va", _nan_dt, EXIT_BAD_INPUT, "error: "),
        ("simulate", "va", _huge_t_final, EXIT_BAD_INPUT, "error: "),
        ("analyze", "va", _out_below_file, EXIT_BAD_INPUT, "error: "),
        ("tune", "va", _no_grid, EXIT_BAD_INPUT, "error: tune requires verification"),
        ("simulate", "vb", _far_initial_state, EXIT_DIVERGENCE, "divergence: "),
        ("simulate", "vb", _huge_disturbance, EXIT_ASSUMPTION, "assumption failure: "),
        ("simulate", "va", _singular_quadratic_loop, EXIT_ASSUMPTION, "assumption failure: "),
        ("simulate", "va", _singular_loop_one_ulp_up, EXIT_ASSUMPTION, "assumption failure: "),
        ("simulate", "va", _singular_loop_one_ulp_down, EXIT_ASSUMPTION, "assumption failure: "),
        ("simulate", "va", _overflowing_quadratic_loop, EXIT_ASSUMPTION, "assumption failure: "),
    ],
)
def test_runtime_error_exit_code(tmp_path, capsys, command, name, mutate, code, prefix):
    """Errors raised while a command runs, not while the scenario loads, end
    in one stderr line and their documented exit code."""
    data = json.loads(open(bundled(f"example_{name}.json")).read())
    extra = mutate(data, tmp_path) or []
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(data))
    argv = [command, "--scenario", str(path), "--out", str(tmp_path)] + extra
    assert run(argv) == code
    err = capsys.readouterr().err
    assert err.startswith(prefix)
    assert err.count("\n") == 1
    assert "Traceback" not in err


def test_unwritable_out_fails_before_work(tmp_path, capsys):
    # --out is created before the scenario loads, so a simulation that takes
    # seconds is never started when its outputs cannot be written
    (tmp_path / "file").write_text("")
    argv = ["simulate", "--scenario", bundled("example_vb.json"),
            "--out", str(tmp_path / "file" / "out")]
    t0 = time.perf_counter()
    code = run(argv)
    elapsed = time.perf_counter() - t0
    err = capsys.readouterr().err
    assert code == EXIT_BAD_INPUT
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert elapsed < 1.0


# (scenario, mutation, exit code, stderr prefix); the finite but extreme
# gains overflow inside numpy, whose warnings must not reach stderr
PROCESS_CASES = [
    ("va", _nan_t_final, EXIT_BAD_INPUT, "error: simulation.t_final"),
    ("va", _huge_k_i, EXIT_DIVERGENCE, "divergence: "),
    ("vb", _huge_k_p, EXIT_ASSUMPTION, "assumption failure: "),
]


def test_process_exit_status_and_stderr(tmp_path):
    """The installed entry point's real exit status, and one stderr line."""
    src = str(Path(ossctl.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    for name, mutate, code, prefix in PROCESS_CASES:
        data = json.loads(open(bundled(f"example_{name}.json")).read())
        mutate(data)
        path = tmp_path / f"{mutate.__name__}.json"
        path.write_text(json.dumps(data))
        proc = subprocess.run(
            [sys.executable, "-m", "ossctl.cli", "simulate", "--scenario", str(path),
             "--out", str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert (mutate.__name__, proc.returncode) == (mutate.__name__, code)
        assert proc.stderr.startswith(prefix), proc.stderr
        assert proc.stderr.count("\n") == 1, proc.stderr


# run in a fresh interpreter: pytest's own process may already hold scipy.
# numpy.ma (imported by np.unique, among others) is held out too: it adds
# start-up time to the first command that touches it
_SCIPY_GUARD = """
import json, os, sys
import ossctl.cli as cli

def banned_modules():
    return sorted(
        m for m in sys.modules
        if m in ("scipy", "numpy.ma", "numpy.char", "numpy.strings")
        or m.startswith(("scipy.", "numpy.ma.", "numpy.char.", "numpy.strings."))
    )

assert not banned_modules(), banned_modules()
scenarios, out = sys.argv[1], sys.argv[2]
def scenario(name, t_final=None):
    path = os.path.join(scenarios, name + ".json")
    if t_final is None:
        return path
    data = json.load(open(path))
    data["simulation"]["t_final"] = t_final
    path = os.path.join(out, name + "_short.json")
    json.dump(data, open(path, "w"))
    return path
calls = [
    ("analyze", scenario("example_va")),
    ("tune", scenario("example_va")),
    ("verify", scenario("example_va")),
    ("verify", scenario("example_vb")),
    ("synth", scenario("example_vc")),
    ("simulate", scenario("example_va", 0.5)),
    ("simulate", scenario("example_vb", 0.5)),
    ("simulate", scenario("example_vc", 0.5)),
]
for command, path in calls:
    code = cli.main([command, "--scenario", path, "--out", out])
    assert code in (0, 3), (command, path, code)
    assert not banned_modules(), (command, path, banned_modules())
"""


def test_no_command_imports_scipy(tmp_path):
    """Every command runs on numpy alone, without numpy.ma, numpy.char or
    numpy.strings: scipy is a test dependency only."""
    src = str(Path(ossctl.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    scenarios = str(resources.files("ossctl").joinpath("scenarios"))
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_GUARD, scenarios, str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
