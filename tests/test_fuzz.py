"""Mutated bundled scenarios: every command run ends in a documented exit
code and at most one stderr line, never in an exception."""

import contextlib
import copy
import io
import json
import math
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ossctl.cli import main

_DELETE = object()
# what a mutated field or section becomes
_VALUES = [_DELETE, None, "x", -1, 0, [], {}, [[1.0], [1.0, 2.0]], 1e300, math.nan, True]


def _bundled(name):
    with open(resources.files("ossctl").joinpath(f"scenarios/{name}.json")) as fh:
        data = json.load(fh)
    # short simulations
    data["simulation"]["t_final"] = 0.05
    return data


def _key_paths(data, prefix=()):
    for key, value in data.items():
        path = prefix + (key,)
        yield path
        if isinstance(value, dict):
            yield from _key_paths(value, path)


_BASES = {name: _bundled(name) for name in ("example_va", "example_vb")}
_PATHS = {name: list(_key_paths(data)) for name, data in _BASES.items()}


def _mutate(data, path, value):
    parent = data
    for key in path[:-1]:
        parent = parent.get(key) if isinstance(parent, dict) else None
    if not isinstance(parent, dict) or path[-1] not in parent:
        return  # an earlier mutation replaced an enclosing section
    if value is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(value)


@pytest.fixture(scope="module")
def scenario_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "scenario.json"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    name=st.sampled_from(sorted(_BASES)),
    command=st.sampled_from(["analyze", "verify", "simulate"]),
    data=st.data(),
)
def test_mutated_scenarios_end_in_exit_code(scenario_path, name, command, data):
    scenario = copy.deepcopy(_BASES[name])
    for _ in range(data.draw(st.integers(1, 2), label="mutations")):
        path = data.draw(st.sampled_from(_PATHS[name]), label="path")
        value = data.draw(st.sampled_from(_VALUES), label="value")
        _mutate(scenario, path, value)
    scenario_path.write_text(json.dumps(scenario))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(
            [command, "--scenario", str(scenario_path), "--out", str(scenario_path.parent)]
        )
    assert code in range(6)
    assert err.getvalue().count("\n") <= 1
