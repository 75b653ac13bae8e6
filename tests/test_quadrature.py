import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from mixedkde import quadrature
from mixedkde.quadrature import (Box, QuadRule, integrate, integrate_1d, integrate_many, lp_norm,
                                 lp_norm_1d, tensor_product)
from oracles import adaptive_simpson, grid_field, grid_points, partial_fd_field

RULE_2D = QuadRule(8, (8, 8))
RULE_1D = QuadRule(8, (16,))

# frozen reference: adaptive Simpson on exp(-1/(1-u^2)), rel tol < 1e-12
BUMP_INTEGRAL = 0.4439938161680793


def bump_scalar(u):
    if abs(u) >= 1.0:
        return 0.0
    return float(np.exp(-1.0 / (1.0 - u * u)))


def test_constant_on_unit_square():
    val = integrate(grid_field(lambda pts: np.ones(pts.shape[0])), Box((0, 0), (1, 1)), RULE_2D)
    assert val == pytest.approx(1.0, abs=1e-14)


def test_odd_integrand_vanishes():
    val = integrate(grid_field(lambda pts: pts[:, 0]), Box((-1,), (1,)), RULE_1D)
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

    val = integrate(grid_field(bump), Box((-1,), (1,)), QuadRule(10, (64,)))
    assert val == pytest.approx(BUMP_INTEGRAL, rel=1e-10)


def test_non_finite_value_names_node():
    def bad(pts):
        out = np.ones(pts.shape[0])
        out[pts[:, 0] > 0.5] = np.nan
        return out

    with pytest.raises(FloatingPointError, match="node"):
        integrate(grid_field(bad), Box((0,), (1,)), RULE_1D)


class RecordingField:
    """Grid field ``x_0 + 10 x_1 + 100 x_2 + ...`` on integer nodes that
    counts how often each node is visited and how large each call is."""

    def __init__(self, shape):
        self.visits = np.zeros(shape, dtype=int)
        self.sizes = []

    def _record(self, pts):
        self.sizes.append(len(pts))
        np.add.at(self.visits, tuple(pts.astype(int).T), 1)
        return pts @ (10.0 ** np.arange(pts.shape[1]))

    def on_grid(self, axes):
        return self._record(grid_points(axes)).reshape([len(a) for a in axes])


@pytest.mark.parametrize("shape, chunk", [
    ((3, 5, 7), 16),   # one leading slice (35 nodes) exceeds the chunk
    ((50,), 16),       # a 1-d axis longer than the chunk
    ((7, 3), 10),      # 21 nodes in slabs of 9
])
@pytest.mark.parametrize("grid", [True, False])
def test_slabs_bounded_and_cover_grid(monkeypatch, shape, chunk, grid):
    monkeypatch.setattr(quadrature, "_CHUNK", chunk)
    rec = RecordingField(shape)
    field = rec if grid else grid_field(rec._record)
    nodes = [np.arange(n, dtype=float) for n in shape]
    weights = [np.linspace(0.5, 1.5, n) for n in shape]
    total = quadrature._tensor_reduce(field, nodes, weights, power=None)
    assert max(rec.sizes) <= chunk
    assert np.all(rec.visits == 1)
    values = grid_points(nodes) @ (10.0 ** np.arange(len(shape)))
    assert total == pytest.approx(float(tensor_product(weights).ravel() @ values), rel=1e-14)


@pytest.mark.parametrize("chunk", [10 ** 6, 16])   # one slab; many slabs
def test_integrate_many_has_the_bits_of_integrate(monkeypatch, chunk):
    monkeypatch.setattr(quadrature, "_CHUNK", chunk)
    box, rule = Box((0, -1, 0.5), (1, 2, 1.5)), QuadRule(3, (2, 3, 2))
    fields = [lambda pts: np.sin(pts @ [1.0, 2.0, 3.0]), lambda pts: np.exp(-pts[:, 1] ** 2),
              lambda pts: pts[:, 0] * pts[:, 2]]

    def arrays(axes, slab):
        for f in fields:
            yield f(grid_points(axes)).reshape([len(a) for a in axes])

    assert integrate_many(arrays, box, rule) == [integrate(grid_field(f), box, rule)
                                                 for f in fields]


@pytest.mark.parametrize("chunk", [10 ** 6, 9])   # one slab; a slab per row
def test_integrate_many_array_not_yielded_adds_zero(monkeypatch, chunk):
    # the second field vanishes on rows with x_0 < 0.5, where slabs yield only
    # the first: the first slabs make one sum, later ones two, then one again
    monkeypatch.setattr(quadrature, "_CHUNK", chunk)
    box, rule = Box((0, -1), (1, 2)), QuadRule(3, (4, 3))

    def first(pts):
        return np.cos(pts @ [1.0, 2.0])

    def second(pts):
        return np.where((pts[:, 0] < 0.5) | (pts[:, 0] > 0.8), 0.0, np.exp(pts[:, 1]))

    def arrays(axes, slab):
        pts, shape = grid_points(axes), [len(a) for a in axes]
        yield first(pts).reshape(shape)
        if np.any(second(pts)):
            yield second(pts).reshape(shape)

    assert integrate_many(arrays, box, rule) == [integrate(grid_field(first), box, rule),
                                                 integrate(grid_field(second), box, rule)]


@pytest.mark.parametrize("chunk", [100, 5])   # one slab; a slab per row
def test_grid_field_non_finite_value_names_node(monkeypatch, chunk):
    monkeypatch.setattr(quadrature, "_CHUNK", chunk)

    def point(pts):
        return np.ones(len(pts))

    def on_grid(axes):
        x, y = np.meshgrid(*axes, indexing="ij")
        return np.where((x == 2.0) & (y == 3.0), np.inf, 1.0)

    point.on_grid = on_grid
    nodes = [np.arange(4.0), np.arange(5.0)]
    with pytest.raises(FloatingPointError, match=r"inf at node \[2\.0, 3\.0\]"):
        quadrature._tensor_reduce(point, nodes, [np.ones(4), np.ones(5)], power=None)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("power", [None, 1.5])
@pytest.mark.parametrize("grid", [True, False])
def test_non_finite_value_on_a_later_slab_names_first_node(monkeypatch, bad, power, grid):
    # 120 nodes in 20 slabs of 6: the first non-finite value lies in the
    # sixth slab, a second in the same slab after it and a third in the 13th
    monkeypatch.setattr(quadrature, "_CHUNK", 6)
    marked = [((1.0, 0.0, 3.0), bad), ((1.0, 0.0, 5.0), np.nan), ((2.0, 2.0, 0.0), np.inf)]

    def point(pts):
        out = np.ones(len(pts))
        for node, value in marked:
            out[np.all(pts == node, axis=1)] = value
        return out

    if grid:
        point.on_grid = lambda axes: point(grid_points(axes)).reshape([len(a) for a in axes])
    nodes = [np.arange(4.0), np.arange(5.0), np.arange(6.0)]
    weights = [np.linspace(0.5, 1.5, len(x)) for x in nodes]
    with pytest.raises(FloatingPointError) as err:
        quadrature._tensor_reduce(point if grid else grid_field(point), nodes, weights, power=power)
    assert str(err.value) == f"integrand returned non-finite value {bad} at node [1.0, 0.0, 3.0]"
    # the same values as the k-th of three arrays of one sweep, the next
    # array holding an inf only on the 13th slab: the same message
    for k in range(3):
        def arrays(axes, slab):
            shape = [len(a) for a in axes]
            for j in range(3):
                vals = np.ones(shape)
                if j == k:
                    vals = point(grid_points(axes)).reshape(shape)
                elif j == (k + 1) % 3:
                    vals[np.all(grid_points(axes) == (2.0, 2.0, 0.0), axis=1).reshape(shape)] = np.inf
                yield vals

        with pytest.raises(FloatingPointError) as several:
            quadrature._slab_sums(arrays, nodes, weights, power=power)
        assert str(several.value) == str(err.value)


@pytest.mark.parametrize("grid", [True, False])
def test_lp_norm_overflowing_power_is_inf(monkeypatch, grid):
    # finite values whose p-th power overflows: inf, with numpy's overflow
    # warning on every slab, and no FloatingPointError
    monkeypatch.setattr(quadrature, "_CHUNK", 16)

    def point(pts):
        return np.full(len(pts), 1e200)

    if grid:
        point.on_grid = lambda axes: np.full([len(a) for a in axes], 1e200)
    with pytest.warns(RuntimeWarning, match="overflow encountered in power"):
        field = point if grid else grid_field(point)
        assert lp_norm(field, Box((0, 0), (1, 1)), 2.0, QuadRule(2, (4, 4))) == np.inf


def test_grid_field_wrong_shape_rejected():
    def point(pts):
        return np.ones(len(pts))

    point.on_grid = lambda axes: np.ones(len(axes[0]) * len(axes[1]))
    with pytest.raises(ValueError, match="shape"):
        integrate(point, Box((0, 0), (1, 1)), RULE_2D)


def test_lp_norm_constant():
    field = grid_field(lambda pts: 2.0 * np.ones(pts.shape[0]))
    val = lp_norm(field, Box((0,), (1,)), 3.0, RULE_1D)
    assert val == pytest.approx(2.0, rel=1e-14)


def test_lp_norm_zero():
    val = lp_norm(grid_field(lambda pts: np.zeros(pts.shape[0])), Box((0,), (1,)), 2.0, RULE_1D)
    assert val == 0.0


def test_lp_norm_linear_function():
    val = lp_norm(grid_field(lambda pts: pts[:, 0]), Box((0,), (1,)), 2.0, RULE_1D)
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
    val = integrate(grid_field(f), box, QuadRule(8, (3, 3)))
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
    f = grid_field(lambda pts: np.sin(pts[:, 0]))
    g = grid_field(lambda pts: pts[:, 0] ** 2)
    lhs = integrate(grid_field(lambda pts: a * f(pts) + b * g(pts)), box, RULE_1D)
    rhs = a * integrate(f, box, RULE_1D) + b * integrate(g, box, RULE_1D)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


@given(st.floats(-10, 10).filter(lambda c: abs(c) > 1e-6))
@settings(max_examples=25, deadline=None)
def test_lp_norm_homogeneity_and_abs(c):
    box = Box((-1,), (1,))
    f = grid_field(lambda pts: np.cos(3 * pts[:, 0]) - 0.2)
    scaled = lp_norm(grid_field(lambda pts: c * f(pts)), box, 2.5, RULE_1D)
    assert scaled == pytest.approx(abs(c) * lp_norm(f, box, 2.5, RULE_1D), rel=1e-12)
    negated = lp_norm(grid_field(lambda pts: -f(pts)), box, 2.5, RULE_1D)
    assert negated == pytest.approx(lp_norm(f, box, 2.5, RULE_1D), rel=1e-14)


# self-tests of the finite-difference derivative oracle

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
    for lower, upper in [((-np.inf, 0), (1, 1)), ((0, 0), (1, np.inf))]:
        with pytest.raises(ValueError, match="both finite"):
            Box(lower, upper)
    with pytest.raises(ValueError):
        Box((), ())


def test_quad_rule_validation():
    with pytest.raises(ValueError):
        QuadRule(1, (4,))
    with pytest.raises(ValueError):
        QuadRule(4, (0,))


def test_edge_rule_matches_uniform_rule_and_is_exact_per_panel():
    box = Box((-1.0, 0.0), (2.0, 1.5))
    uniform = QuadRule(4, (6, 3))
    on_edges = QuadRule.on_edges(4, [np.linspace(-1.0, 2.0, 7), np.linspace(0.0, 1.5, 4)])
    assert on_edges.panels_per_axis == uniform.panels_per_axis
    for a, b in zip(quadrature.grid_nodes(box, uniform), quadrature.grid_nodes(box, on_edges)):
        for u, e in zip(a, b):
            np.testing.assert_allclose(e, u, rtol=0, atol=1e-15)
    # uneven panels, each exact for degree 2 * 4 - 1 on either side of a kink at x = 0.3
    rule = QuadRule.on_edges(4, [[-1.0, -0.2, 0.3, 0.35, 2.0], [0.0, 0.1, 1.5]])
    f = lambda pts: np.abs(pts[:, 0] - 0.3) ** 7 * pts[:, 1] ** 3
    exact = (1.3 ** 8 + 1.7 ** 8) / 8.0 * 1.5 ** 4 / 4.0
    assert integrate(grid_field(f), box, rule) == pytest.approx(exact, rel=1e-13)


def test_grid_nodes_rejects_bad_edges_naming_the_axis():
    box = Box((0.0, 0.0), (1.0, 2.0))
    good = [0.0, 0.5, 1.0]
    for edges, axis in [([good, [0.0, 1.5, 1.0, 2.0]], 1),   # not ascending
                        ([good, [0.0, 1.0, 1.0, 2.0]], 1),   # a repeated edge
                        ([[0.1, 0.5, 1.0], [0.0, 2.0]], 0),  # starts inside the box
                        ([good, [0.0, 1.0, 2.5]], 1),        # ends past the box
                        ([[0.0, np.nan, 1.0], [0.0, 2.0]], 0)]:
        with pytest.raises(ValueError, match=f"axis {axis}: edges must ascend strictly"):
            quadrature.grid_nodes(box, QuadRule.on_edges(2, edges))
    with pytest.raises(ValueError, match="rule has 1 axes but box has 2"):
        quadrature.grid_nodes(box, QuadRule.on_edges(2, [good]))
    # one count for every axis: 4,800 nodes per axis pass the cap on the third axis
    with pytest.raises(ValueError, match="axis 2: grid would pass 134217728 nodes"):
        quadrature.grid_nodes(Box((0, 0, 0), (1, 1, 1)), QuadRule(8, (600,)))
    with pytest.raises(ValueError, match="refusing"):
        QuadRule.on_edges(8, [np.linspace(0.0, 1.0, 5001)] * 2)
    with pytest.raises(ValueError, match="count the panels"):
        QuadRule(2, (3,), edges=((0.0, 1.0),))
    with pytest.raises(ValueError, match="equal panels"):
        quadrature.trapezoid_axes(box, QuadRule.on_edges(2, [good, [0.0, 2.0]]))


def test_rule_for_box_panel_cap():
    box = Box((0, 0), (2, 4))
    rule = QuadRule.for_box(box, feature_scale=1.0)
    assert rule.panels_per_axis == (4, 8)


def test_integrate_1d_matches_integrate():
    f1 = lambda u: np.exp(-u ** 2)
    f2 = grid_field(lambda pts: np.exp(-pts[:, 0] ** 2))
    a = integrate_1d(f1, -1.0, 2.0, panels=16, nodes=8)
    b = integrate(f2, Box((-1,), (2,)), QuadRule(8, (16,)))
    assert a == pytest.approx(b, rel=1e-14)
