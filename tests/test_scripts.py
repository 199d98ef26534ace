import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_examples_full_va_grid_reports_uncertified_pairs(tmp_path, capsys):
    # the quick grid certifies every pair, so only the full one reaches the
    # report of uncertified pairs
    run_examples = load_script("run_examples")
    run_examples.run_va(str(tmp_path), quick=False)
    out = capsys.readouterr().out
    assert "certified 98/100 gain pairs" in out
    assert "not certified: k_P=0.2, k_I=1.8" in out
