import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from mixedkde.bumps import (bump_k, bump_k_deriv, bump_l1, g_deriv, g_function,
                            g_norm, lambda_bar, lambda_deriv, lambda_value)
from mixedkde.quadrature import integrate_1d, partial_fd_field
from oracles import adaptive_simpson

BUMP_INTEGRAL = 0.4439938161680793  # adaptive-Simpson reference, rel tol < 1e-12


def test_bump_point_values():
    assert float(bump_k(0.0)) == pytest.approx(np.exp(-1.0), rel=1e-15)
    assert float(bump_k(1.0)) == 0.0
    assert float(bump_k(-1.0)) == 0.0
    assert float(bump_k(2.3)) == 0.0


def test_bump_l1_matches_oracle():
    oracle = adaptive_simpson(lambda u: float(bump_k(np.array([u]))[0]), -1, 1, tol=1e-13)
    assert oracle == pytest.approx(BUMP_INTEGRAL, rel=1e-12)
    assert bump_l1() == pytest.approx(BUMP_INTEGRAL, rel=1e-10)


def test_lambda_is_pdf():
    total = integrate_1d(lambda_value, -1.0, 1.0, panels=128, nodes=10)
    assert total == pytest.approx(1.0, abs=1e-10)


def test_lambda_peak_value():
    assert float(lambda_value(0.0)) == pytest.approx(np.exp(-1.0) / BUMP_INTEGRAL, rel=1e-10)


@given(st.floats(0.0, 1.2))
@settings(max_examples=30, deadline=None)
def test_lambda_even(u):
    assert float(lambda_value(u)) == pytest.approx(float(lambda_value(-u)), abs=1e-15)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_bump_derivatives_match_finite_differences(m):
    # nested central differences carry O(h^2 f^(m+2)) truncation error and
    # the bump's high derivatives are huge near the edges: loose tolerance
    for u0 in (0.0, 0.37, -0.62, 0.9):
        analytic = float(bump_k_deriv(m, u0))
        field = partial_fd_field(lambda pts: bump_k(pts[:, 0]), (m,), step=1e-3)
        fd = field(np.array([[u0]]))[0]
        assert fd == pytest.approx(analytic, rel=5e-3, abs=1e-5)


def test_bump_derivatives_vanish_at_edges():
    for m in range(1, 7):
        assert float(bump_k_deriv(m, 1.0)) == 0.0
        assert float(bump_k_deriv(m, -1.0)) == 0.0
        assert float(bump_k_deriv(m, 0.9999999)) == pytest.approx(0.0, abs=1e-200)


def test_lambda_bar_clamps_and_centers():
    assert float(lambda_bar(-1.5)) == 0.0
    assert float(lambda_bar(1.5)) == 1.0
    assert float(lambda_bar(0.0)) == pytest.approx(0.5, abs=1e-12)
    grid = np.linspace(-1.2, 1.2, 2001)
    vals = lambda_bar(grid)
    assert np.all(np.diff(vals) >= -1e-15)


def test_g_is_odd_and_bounded():
    grid = np.linspace(0.0, 2.5, 4001)
    assert np.max(np.abs(g_function(grid) + g_function(-grid))) < 1e-12
    assert np.max(np.abs(g_function(np.linspace(-2.5, 2.5, 8001)))) <= 1.0


def test_g_point_values_and_support():
    assert abs(float(g_function(0.0))) < 1e-12
    assert float(g_function(2.5)) == 0.0
    assert float(g_function(-2.5)) == 0.0
    assert float(g_function(2.0)) == pytest.approx(0.0, abs=1e-12)


def test_g_integral_zero():
    val = integrate_1d(g_function, -2.0, 2.0, panels=512, nodes=10)
    assert val == pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_g_derivatives_match_finite_differences(m):
    for t0 in (0.3, -0.9, 1.4):
        analytic = float(g_deriv(m, t0))
        field = partial_fd_field(lambda pts: g_function(pts[:, 0]), (m,), step=1e-3)
        fd = field(np.array([[t0]]))[0]
        assert fd == pytest.approx(analytic, rel=5e-3, abs=1e-5)


def test_g_norm_cached_consistency():
    direct = integrate_1d(lambda t: np.abs(g_function(t)) ** 2, -2.0, 2.0,
                          panels=256, nodes=10) ** 0.5
    assert g_norm(2.0) == pytest.approx(direct, rel=1e-12)


def test_lambda_deriv_scaling():
    u = np.array([0.25, -0.6])
    assert np.allclose(lambda_deriv(2, u), bump_k_deriv(2, u) / bump_l1(), rtol=1e-15)
