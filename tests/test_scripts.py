import os
import subprocess
import sys

from tests.conftest import SCRIPTS, load_script


def test_run_examples_full_va_grid_reports_uncertified_pairs(tmp_path, capsys):
    # the quick grid certifies every pair, so only the full one reaches the
    # report of uncertified pairs
    run_examples = load_script("run_examples")
    run_examples.run_va(str(tmp_path), quick=False)
    out = capsys.readouterr().out
    assert "certified 98/100 gain pairs" in out
    assert "not certified: k_P=0.2, k_I=1.8 (infeasible)" in out


def test_run_examples_quick_vc(tmp_path, capsys):
    # synthesizes, then simulates 150 s on the affine path
    run_examples = load_script("run_examples")
    run_examples.run_vc(str(tmp_path), quick=True)
    out = capsys.readouterr().out
    assert "gamma = 0.99" in out
    assert (tmp_path / "example_vc_trace.csv").is_file()


def test_traced_benchmark_names_exist():
    # the traced benchmark replaces ossctl functions under the names their
    # callers look up; installing it fails if one of those names is gone
    root = SCRIPTS.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "perfbench"), str(root / "src")]
    ))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import tracing; tracing.install(tracing.Recorder())"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
