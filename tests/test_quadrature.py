import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from mixedkde.quadrature import (Box, QuadRule, integrate, integrate_1d, lp_norm,
                                 lp_norm_1d, partial_fd_field)
from oracles import adaptive_simpson

RULE_2D = QuadRule(8, (8, 8))
RULE_1D = QuadRule(8, (16,))

# frozen reference: adaptive Simpson on exp(-1/(1-u^2)), rel tol < 1e-12
BUMP_INTEGRAL = 0.4439938161680793


def bump_scalar(u):
    if abs(u) >= 1.0:
        return 0.0
    return float(np.exp(-1.0 / (1.0 - u * u)))


def test_constant_on_unit_square():
    val = integrate(lambda pts: np.ones(pts.shape[0]), Box((0, 0), (1, 1)), RULE_2D)
    assert val == pytest.approx(1.0, abs=1e-14)


def test_odd_integrand_vanishes():
    val = integrate(lambda pts: pts[:, 0], Box((-1,), (1,)), RULE_1D)
    assert abs(val) < 1e-14


def test_bump_against_adaptive_oracle():
    oracle = adaptive_simpson(bump_scalar, -1.0, 1.0, tol=1e-13)
    assert oracle == pytest.approx(BUMP_INTEGRAL, rel=1e-10)

    def bump(pts):
        u = pts[:, 0]
        eps = 1.0 - u * u
        out = np.zeros_like(u)
        m = eps > 0
        out[m] = np.exp(-1.0 / eps[m])
        return out

    val = integrate(bump, Box((-1,), (1,)), QuadRule(10, (64,)))
    assert val == pytest.approx(BUMP_INTEGRAL, rel=1e-10)


def test_non_finite_value_names_node():
    def bad(pts):
        out = np.ones(pts.shape[0])
        out[pts[:, 0] > 0.5] = np.nan
        return out

    with pytest.raises(FloatingPointError, match="node"):
        integrate(bad, Box((0,), (1,)), RULE_1D)


def test_lp_norm_constant():
    val = lp_norm(lambda pts: 2.0 * np.ones(pts.shape[0]), Box((0,), (1,)), 3.0, RULE_1D)
    assert val == pytest.approx(2.0, rel=1e-14)


def test_lp_norm_zero():
    val = lp_norm(lambda pts: np.zeros(pts.shape[0]), Box((0,), (1,)), 2.0, RULE_1D)
    assert val == 0.0


def test_lp_norm_linear_function():
    val = lp_norm(lambda pts: pts[:, 0], Box((0,), (1,)), 2.0, RULE_1D)
    assert val == pytest.approx(1.0 / np.sqrt(3.0), rel=1e-13)


def test_lp_norm_rejects_p_below_one():
    with pytest.raises(ValueError, match="p >= 1"):
        lp_norm(lambda pts: pts[:, 0], Box((0,), (1,)), 0.5, RULE_1D)


def test_lp_norm_1d_non_finite_value_names_node():
    with np.errstate(invalid="ignore"):
        with pytest.raises(FloatingPointError, match="node"):
            lp_norm_1d(np.log, -1.0, 1.0, 2.0)


@given(st.integers(min_value=0, max_value=15), st.integers(min_value=0, max_value=15))
@settings(max_examples=30, deadline=None)
def test_polynomial_exactness(deg_x, deg_y):
    # 8 nodes per panel: exact through per-axis degree 15
    rng = np.random.default_rng(deg_x * 16 + deg_y)
    cx = rng.uniform(-1, 1, deg_x + 1)
    cy = rng.uniform(-1, 1, deg_y + 1)

    def f(pts):
        return (np.polynomial.polynomial.polyval(pts[:, 0], cx)
                * np.polynomial.polynomial.polyval(pts[:, 1], cy))

    box = Box((-1, -0.5), (0.7, 1.2))
    val = integrate(f, box, QuadRule(8, (3, 3)))
    ix = np.polynomial.polynomial.polyint(cx)
    iy = np.polynomial.polynomial.polyint(cy)
    pv = np.polynomial.polynomial.polyval
    exact = ((pv(box.upper[0], ix) - pv(box.lower[0], ix))
             * (pv(box.upper[1], iy) - pv(box.lower[1], iy)))
    assert val == pytest.approx(exact, abs=1e-12, rel=1e-12)


@given(st.floats(-5, 5), st.floats(-5, 5))
@settings(max_examples=25, deadline=None)
def test_linearity(a, b):
    box = Box((-1,), (1,))
    f = lambda pts: np.sin(pts[:, 0])
    g = lambda pts: pts[:, 0] ** 2
    lhs = integrate(lambda pts: a * f(pts) + b * g(pts), box, RULE_1D)
    rhs = a * integrate(f, box, RULE_1D) + b * integrate(g, box, RULE_1D)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


@given(st.floats(-10, 10).filter(lambda c: abs(c) > 1e-6))
@settings(max_examples=25, deadline=None)
def test_lp_norm_homogeneity_and_abs(c):
    box = Box((-1,), (1,))
    f = lambda pts: np.cos(3 * pts[:, 0]) - 0.2
    scaled = lp_norm(lambda pts: c * f(pts), box, 2.5, RULE_1D)
    assert scaled == pytest.approx(abs(c) * lp_norm(f, box, 2.5, RULE_1D), rel=1e-12)
    negated = lp_norm(lambda pts: -f(pts), box, 2.5, RULE_1D)
    assert negated == pytest.approx(lp_norm(f, box, 2.5, RULE_1D), rel=1e-14)


def test_partial_fd_mixed_polynomial():
    f = lambda pts: pts[:, 0] ** 2 * pts[:, 1]
    val = partial_fd_field(f, (1, 1), step=1e-4)(np.array([[1.0, 1.0]]))[0]
    assert val == pytest.approx(2.0, abs=1e-6)


def test_partial_fd_constant():
    f = lambda pts: np.full(pts.shape[0], 7.5)
    for alpha in [(1,), (2,), (3,)]:
        assert abs(partial_fd_field(f, alpha)(np.array([[0.3]]))[0]) < 1e-8


def test_partial_fd_sin_second_derivative_at_zero():
    f = lambda pts: np.sin(pts[:, 0])
    assert abs(partial_fd_field(f, (2,))(np.array([[0.0]]))[0]) < 1e-6


@pytest.mark.parametrize("alpha", [(1, 0), (0, 1), (2, 0), (1, 1), (2, 2), (3, 1)])
def test_partial_fd_monomials(alpha):
    # total degree <= 4, step 1e-3: 1e-5 relative accuracy
    powers = (3, 2)

    def f(pts):
        return pts[:, 0] ** powers[0] * pts[:, 1] ** powers[1]

    point = np.array([1.3, 0.8])
    expected = 1.0
    for ax in range(2):
        k, a = powers[ax], alpha[ax]
        if a > k:
            expected = 0.0
            break
        coef = 1.0
        for j in range(a):
            coef *= (k - j)
        expected *= coef * point[ax] ** (k - a)
    val = partial_fd_field(f, alpha, step=1e-3)(point[None, :])[0]
    if expected == 0.0:
        assert abs(val) < 1e-5
    else:
        assert val == pytest.approx(expected, rel=1e-5)


def test_partial_fd_rejects_high_order():
    f = lambda pts: pts[:, 0]
    with pytest.raises(ValueError, match="unsupported"):
        partial_fd_field(f, (4, 3))


@pytest.mark.parametrize("alpha, step, message", [
    ((-1, 1), 1e-3, "non-negative"),
    ((1, 1), 0.0, "step"),
])
def test_partial_fd_field_validates(alpha, step, message):
    f = lambda pts: pts[:, 0] * pts[:, 1]
    with pytest.raises(ValueError, match=message):
        partial_fd_field(f, alpha, step=step)


def test_partial_fd_field_matches_pointwise():
    f = lambda pts: np.exp(pts[:, 0]) * pts[:, 1] ** 2
    field = partial_fd_field(f, (1, 1), step=1e-4)
    pts = np.array([[0.1, 0.5], [-0.4, 1.2]])
    vals = field(pts)
    for row, v in zip(pts, vals):
        assert v == pytest.approx(field(row[None, :])[0], rel=1e-12)


def test_box_validation():
    with pytest.raises(ValueError, match="lower"):
        Box((0, 1), (1, 0.5))
    with pytest.raises(ValueError):
        Box((), ())


def test_quad_rule_validation():
    with pytest.raises(ValueError):
        QuadRule(1, (4,))
    with pytest.raises(ValueError):
        QuadRule(4, (0,))


def test_rule_for_box_panel_cap():
    box = Box((0, 0), (2, 4))
    rule = QuadRule.for_box(box, feature_scale=1.0)
    assert rule.panels_per_axis == (4, 8)


def test_integrate_1d_matches_integrate():
    f1 = lambda u: np.exp(-u ** 2)
    f2 = lambda pts: np.exp(-pts[:, 0] ** 2)
    a = integrate_1d(f1, -1.0, 2.0, panels=16, nodes=8)
    b = integrate(f2, Box((-1,), (2,)), QuadRule(8, (16,)))
    assert a == pytest.approx(b, rel=1e-14)
