import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ossctl as oc
from ossctl.objective import ObjectiveError, check_gradient_fd


def test_quadratic_moduli():
    obj = oc.quadratic_objective(np.diag([2.0, 1.0, 1.0]), np.zeros(3), p=2)
    assert obj.kappa == pytest.approx(1.0)
    assert obj.lipschitz == pytest.approx(2.0)
    assert obj.is_quadratic


def test_quadratic_value_and_gradient():
    H = np.array([[2.0, 0.5], [0.5, 1.0]])
    q = np.array([1.0, -1.0])
    obj = oc.quadratic_objective(H, q, p=1)
    y = np.array([2.0])
    u = np.array([-3.0])
    z = np.concatenate([y, u])
    assert obj.value(y, u) == pytest.approx(0.5 * z @ H @ z + q @ z)
    assert np.allclose(obj.gradient(y, u), H @ z + q)


def test_quadratic_rejects_asymmetric():
    with pytest.raises(ObjectiveError):
        oc.quadratic_objective(np.array([[1.0, 2.0], [0.0, 1.0]]), np.zeros(2), p=1)


@pytest.mark.parametrize(
    "H, q",
    [(np.zeros((2, 3)), np.zeros(2)), (np.eye(3), np.zeros(2)), (np.eye(2), np.zeros(3))],
)
def test_quadratic_rejects_mis_shaped_data(H, q):
    with pytest.raises(ObjectiveError, match="^H must be square and q of matching length$"):
        oc.quadratic_objective(H, q, p=1)


@pytest.mark.parametrize("p", [0, 3, -1])
def test_quadratic_needs_an_output_and_an_input(p):
    # z = (y, u) has 3 entries: p = 0 leaves no output, p = 3 no input
    with pytest.raises(ObjectiveError, match=r"^need 0 < p < p \+ m$"):
        oc.quadratic_objective(np.eye(3), np.zeros(3), p=p)


def test_quadratic_rejects_indefinite():
    with pytest.raises(ObjectiveError):
        oc.quadratic_objective(np.diag([1.0, -1.0]), np.zeros(2), p=1)


def test_cosh_moduli(cosh_obj):
    assert cosh_obj.kappa == pytest.approx(1.0 / 9.0)
    assert np.isinf(cosh_obj.lipschitz)
    assert not cosh_obj.is_quadratic


def test_cosh_gradient_fd(cosh_obj):
    rng = np.random.default_rng(0)
    points = rng.uniform(-3, 3, size=(25, 3))
    assert check_gradient_fd(cosh_obj, points) < 1e-5


def test_quadratic_gradient_fd():
    rng = np.random.default_rng(1)
    G = rng.normal(size=(4, 4))
    obj = oc.quadratic_objective(G @ G.T + np.eye(4), rng.normal(size=4), p=2)
    points = rng.uniform(-2, 2, size=(25, 4))
    assert check_gradient_fd(obj, points) < 1e-5


@settings(max_examples=30, deadline=None)
@given(
    a=st.lists(st.floats(-5, 5), min_size=3, max_size=3),
    b=st.lists(st.floats(-5, 5), min_size=3, max_size=3),
)
def test_cosh_gradient_strongly_monotone(a, b):
    # (grad(a) - grad(b))' (a - b) >= kappa ||a - b||^2
    obj = oc.cosh_example_objective()
    a = np.asarray(a)
    b = np.asarray(b)
    ga = obj.grad_stacked(a)
    gb = obj.grad_stacked(b)
    lhs = (ga - gb) @ (a - b)
    assert lhs >= obj.kappa * np.dot(a - b, a - b) - 1e-9
