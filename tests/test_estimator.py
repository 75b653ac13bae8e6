import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from mixedkde.densities import plateau_density, tensor_bump_density
from mixedkde.estimator import (_CHUNK, KdeModel, _AxisPlan, _kernel_nodes, bandwidth_rule,
                                bias_lp, kde_on_grid, mean_field_on_axes)
from mixedkde.kernels import UnivariateKernel, build_order_kernel
from mixedkde.product import ProductKernel, tensor_kernel, verify_class, top_abs_moment
from mixedkde.quadrature import Box, QuadRule, grid_nodes, lp_norm, tensor_product
from oracles import brute_force_kde_grid, grid_field, kde_mass, kernel_variable_mean_field
from test_lower_bound import small_family

UNIFORM2 = tensor_kernel(build_order_kernel(1, True), 1,
                         build_order_kernel(1, True), 1, 1, 1)
STRICT21 = tensor_kernel(build_order_kernel(2, True), 1,
                         build_order_kernel(1, True), 1, 2, 1)
STRICT44 = tensor_kernel(build_order_kernel(4, True), 1,
                         build_order_kernel(4, True), 1, 4, 4)


def kde_at(model, point):
    return kde_on_grid(model, [np.array([x], dtype=float) for x in point]).item()


def test_bandwidth_examples():
    assert bandwidth_rule(4096, 4, 1, 1, 1) == pytest.approx(0.5, rel=1e-14)
    assert bandwidth_rule(4096, 2, 1, 1, 1) == pytest.approx(2.0 ** -1.5, rel=1e-14)
    hs = [bandwidth_rule(n, 2, 1, 1, 1) for n in (10, 100, 1000, 10**6)]
    assert all(b < a for a, b in zip(hs, hs[1:]))
    assert all(0 < h < 1 for h in hs)


def test_bandwidth_needs_two_points():
    with pytest.raises(ValueError):
        bandwidth_rule(1, 1, 1, 1, 1)


def test_single_sample_point_value():
    model = KdeModel(kernel=UNIFORM2, h=0.5, sample=np.array([[0.0, 0.0]]))
    assert kde_at(model, [0.0, 0.0]) == pytest.approx(1.0, rel=1e-14)


def test_far_point_is_zero():
    model = KdeModel(kernel=UNIFORM2, h=0.5, sample=np.array([[0.0, 0.0]]))
    assert kde_at(model, [0.51, 0.0]) == 0.0
    assert kde_at(model, [5.0, 5.0]) == 0.0


def test_dimension_mismatch():
    model = KdeModel(kernel=UNIFORM2, h=0.5, sample=np.array([[0.0, 0.0]]))
    with pytest.raises(ValueError, match="dimension"):
        kde_at(model, [0.0, 0.0, 0.0])


def test_model_validation():
    with pytest.raises(ValueError, match="bandwidth"):
        KdeModel(kernel=UNIFORM2, h=1.5, sample=np.zeros((1, 2)))
    with pytest.raises(ValueError, match="nonempty"):
        KdeModel(kernel=UNIFORM2, h=0.5, sample=np.zeros((0, 2)))


def test_mass_is_one_over_padded_box():
    rng = np.random.default_rng(11)
    sample = rng.uniform(-1, 1, size=(300, 2))
    for kernel in (UNIFORM2, STRICT21):
        coeffs = [kernel.factor(j).poly_coeffs for j in range(kernel.dim)]
        mass = kde_mass(sample, 0.4, coeffs, (-1.4, -1.4), (1.4, 1.4))
        assert mass == pytest.approx(1.0, abs=1e-8)


def test_mass_matches_quadrature():
    rng = np.random.default_rng(4)
    sample = rng.uniform(-0.5, 0.5, size=(40, 2))
    model = KdeModel(kernel=UNIFORM2, h=0.3, sample=sample)
    box = Box((-0.9, -0.9), (0.9, 0.9))
    coeffs = [UNIFORM2.factor(j).poly_coeffs for j in range(2)]
    exact = kde_mass(sample, 0.3, coeffs, box.lower, box.upper)
    assert exact == pytest.approx(1.0, abs=1e-12)
    # generic quadrature only resolves the kernel-support kinks coarsely
    axes, weights = grid_nodes(box, QuadRule(8, (40, 40)))
    approx = float(np.sum(tensor_product(weights) * np.abs(kde_on_grid(model, axes))))
    assert approx == pytest.approx(exact, abs=5e-2)


@given(st.floats(-3, 3), st.floats(-3, 3))
@settings(max_examples=20, deadline=None)
def test_translation_equivariance(dx, dy):
    rng = np.random.default_rng(8)
    sample = rng.uniform(-1, 1, size=(50, 2))
    shift = np.array([dx, dy])
    model = KdeModel(kernel=STRICT21, h=0.35, sample=sample)
    shifted = KdeModel(kernel=STRICT21, h=0.35, sample=sample + shift)
    for q in ([0.2, -0.1], [0.0, 0.0], [-0.6, 0.8]):
        q = np.asarray(q)
        a = kde_at(model, q)
        b = kde_at(shifted, q + shift)
        assert b == pytest.approx(a, rel=1e-12, abs=1e-15)


def test_sample_concatenation_linearity():
    rng = np.random.default_rng(21)
    s1 = rng.uniform(-1, 1, size=(30, 2))
    s2 = rng.uniform(-1, 1, size=(70, 2))
    h = 0.45
    m1 = KdeModel(kernel=UNIFORM2, h=h, sample=s1)
    m2 = KdeModel(kernel=UNIFORM2, h=h, sample=s2)
    m = KdeModel(kernel=UNIFORM2, h=h, sample=np.vstack([s1, s2]))
    q = np.array([0.1, -0.2])
    combined = (30 * kde_at(m1, q) + 70 * kde_at(m2, q)) / 100
    assert kde_at(m, q) == pytest.approx(combined, rel=1e-13)


def test_grid_matches_pointwise():
    rng = np.random.default_rng(13)
    sample = rng.uniform(-1, 1, size=(120, 2))
    model = KdeModel(kernel=STRICT21, h=0.3, sample=sample)
    ax = np.linspace(-1.2, 1.2, 23)
    ay = np.linspace(-1.1, 1.1, 19)
    grid = kde_on_grid(model, [ax, ay])
    coeffs = [STRICT21.kappa1.poly_coeffs, STRICT21.kappa2.poly_coeffs]
    brute = brute_force_kde_grid(sample, 0.3, coeffs, [ax, ay])
    assert grid == pytest.approx(brute, rel=1e-12, abs=1e-15)
    # one and three dimensions
    k2, k1 = STRICT21.kappa1, STRICT21.kappa2
    one_d = ProductKernel(kappa1=k2, kappa2=k1, d1=1, d2=0, s1=2, s2=1)
    axes = [ax, np.sort(rng.permutation(np.linspace(-1.1, 1.1, 11))),
            np.linspace(-1.0, 1.0, 7)]
    three_d = tensor_kernel(k2, 2, k1, 1, 2, 1)
    for kernel in (one_d, three_d):
        sample = rng.uniform(-1, 1, size=(90, kernel.dim))
        model = KdeModel(kernel=kernel, h=0.3, sample=sample)
        coeffs = [kernel.factor(j).poly_coeffs for j in range(kernel.dim)]
        brute = brute_force_kde_grid(sample, 0.3, coeffs, axes[:kernel.dim])
        assert kde_on_grid(model, axes[:kernel.dim]) == pytest.approx(brute, rel=1e-12,
                                                                      abs=1e-15)
    # several sample chunks; the longest axis first, middle and last, an
    # axis with a duplicated node, one and three dimensions
    n = 3 * _CHUNK + 17
    long, short = np.linspace(-1.3, 1.3, 31), np.linspace(-1.2, 1.2, 9)
    repeated = np.sort(rng.permutation(np.concatenate([short, short[[3]]])))
    cases = [(STRICT21, [long, short]), (STRICT21, [short, long]),
             (STRICT21, [repeated, long]), (STRICT21, [long, repeated]),
             (one_d, [repeated]), (three_d, [short, long, repeated]),
             (three_d, [repeated, short[:5], long[::3]])]
    for kernel, axes in cases:
        sample = rng.uniform(-1.2, 1.2, size=(n, kernel.dim))
        model = KdeModel(kernel=kernel, h=0.3, sample=sample)
        coeffs = [kernel.factor(j).poly_coeffs for j in range(kernel.dim)]
        brute = brute_force_kde_grid(sample, 0.3, coeffs, axes)
        assert kde_on_grid(model, axes) == pytest.approx(brute, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("seed", range(8))
def test_three_dimensional_grids_match_pointwise_over_seeds(seed):
    # two degree-2 axes: the sums cancel at many nodes, where the tolerance
    # is the absolute 1e-15 of values about 0.1; measured at most 0.4 of it
    k2, k1 = STRICT21.kappa1, STRICT21.kappa2
    kernel = tensor_kernel(k2, 2, k1, 1, 2, 1)
    coeffs = [kernel.factor(j).poly_coeffs for j in range(3)]
    rng = np.random.default_rng(100 + seed)
    long, short = np.linspace(-1.3, 1.3, 31), np.linspace(-1.2, 1.2, 9)
    repeated = np.sort(rng.permutation(np.concatenate([short, short[[3]]])))
    for axes in ([short, long, repeated], [repeated, short[:5], long[::3]],
                 [long, long[::2], short]):
        sample = rng.uniform(-1.2, 1.2, size=(_CHUNK + 17, 3))
        model = KdeModel(kernel=kernel, h=0.3, sample=sample)
        brute = brute_force_kde_grid(sample, 0.3, coeffs, axes)
        assert kde_on_grid(model, axes) == pytest.approx(brute, rel=1e-12, abs=1e-15)


def test_unsorted_or_non_finite_grids_and_samples_are_rejected():
    model = KdeModel(kernel=STRICT21, h=0.3, sample=np.zeros((5, 2)))
    good, index = np.linspace(-1.0, 1.0, 9), np.arange(9)
    for bad, message in [(good[::-1], "is not in ascending order"),
                         (np.where(index == 4, np.nan, good), "has a non-finite node"),
                         (np.where(index == 8, np.inf, good), "has a non-finite node")]:
        for j in range(2):
            axes = [good, good]
            axes[j] = bad
            with pytest.raises(ValueError, match=f"grid axis {j} {message}"):
                kde_on_grid(model, axes)
    for value in (np.nan, -np.inf):
        with pytest.raises(ValueError, match="sample has a non-finite value"):
            KdeModel(kernel=STRICT21, h=0.3, sample=np.array([[0.0, 0.1], [0.2, value]]))


def test_grid_memory_stays_below_one_factor_matrix():
    # the criterion-4 grid at n = 2^14: a dense n x 385 factor matrix is 50 MB
    axes = [np.linspace(-1.5, 1.5, 169), np.linspace(-3.5, 3.5, 385)]
    n = 2 ** 14
    sample = np.random.default_rng(5).uniform([-1.0, -3.0], [1.0, 3.0], size=(n, 2))
    model = KdeModel(kernel=STRICT21, h=bandwidth_rule(n, 2, 1, 1, 1), sample=sample)
    tracemalloc.start()
    try:
        kde_on_grid(model, axes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * 385 * 8 / 4


def _factor_cases():
    rng = np.random.default_rng(23)
    uniform = np.linspace(-1.0, 1.0, 41)
    repeated = np.sort(rng.permutation(np.concatenate([uniform[:-1], [uniform[7]]])))
    h = 0.17
    edges = np.concatenate([uniform[[0, 7, 20, 40]] + h, uniform[[0, 7, 20, 40]] - h])
    for axis in (uniform, repeated):
        yield axis, rng.uniform(-1.2, 1.2, 200), h
        yield axis, edges, h
        yield axis, np.array([-0.3, 50.0, -1e6]), h
        yield axis, rng.uniform(-1.5, 1.5, 30), 0.99
        yield axis, rng.uniform(-1.5, 1.5, 30), 3.0
        yield axis, np.array([uniform[7] + h]), h
    for node in (0.0, 0.4):
        yield np.array([node]), np.array([-0.1, 0.2, node + h, node - h, 9.0]), h
        yield np.array([node]), np.array([node - h]), h
    # duplicated nodes one ulp outside [x - h, x + h] whose u still rounds to +-1
    x = np.array([0.16158123897629065, -0.1569871736659199])
    outside = [np.nextafter(x[0] - 0.1, -np.inf), np.nextafter(x[1] + 0.1, np.inf)]
    yield np.sort(np.concatenate([outside * 2, uniform])), x, 0.1


@pytest.mark.parametrize("order", [1, 2, 4])
def test_support_ranges_match_dense_membership(order):
    kappa = build_order_kernel(order, True)
    for axis, x, h in _factor_cases():
        plan = _AxisPlan.build(axis, h, kappa)
        lo, hi = plan.support(x, h)
        index = np.arange(axis.size)
        covered = (index >= lo[:, None]) & (index < hi[:, None])
        dense = np.abs((x[:, None] - axis[None, :]) / h) <= 1.0
        assert np.array_equal(covered, dense), (axis.size, x.size, h)
        # a support reaches at most ``pieces`` tiles
        assert plan.pieces == 3 or (plan.pieces == 1 and plan.bounds.size == 2)
        live = lo < hi
        assert np.all(plan.tile_of[hi[live] - 1] - plan.tile_of[lo[live]] < plan.pieces)
        # about its tile's centre the expansion gives the kernel factor
        xi = (x[:, None] - plan.centres[plan.tile_of[index]]) / h
        expanded = sum(xi ** l * row[:axis.size] for l, row in enumerate(plan.poly))
        exact = kappa((x[:, None] - plan.nodes[None, :]) / h)
        assert np.max(np.abs(np.where(covered, expanded, 0.0) - exact)) <= 1e-12


def _wide_axes_cases():
    """Product kernels on a first axis whose half-width is 7, 50 and 200
    bandwidths, even or with 400 of its nodes within half a bandwidth of 0."""
    two_quadratic = tensor_kernel(build_order_kernel(2, True), 2,
                                  build_order_kernel(1, True), 1, 2, 1)
    h = 0.1
    for ratio in (7, 50, 200):
        wide = np.linspace(-ratio * h, ratio * h, 401)
        uneven = np.sort(np.concatenate([wide[::8], np.linspace(-h / 2, h / 2, 400)]))
        yield STRICT44, h, [wide, np.linspace(-0.5, 0.5, 15)]
        yield STRICT44, h, [uneven, np.linspace(-0.5, 0.5, 15)]
        yield two_quadratic, h, [wide, np.linspace(-0.3, 0.3, 7), np.linspace(-0.2, 0.2, 3)]


def test_fast_sums_stay_accurate_on_wide_axes():
    # measured: at most 1.1e-13 of the largest value (s = 4), 3.8e-15 (three axes)
    rng = np.random.default_rng(29)
    for kernel, h, axes in _wide_axes_cases():
        sample = rng.uniform([a[0] for a in axes], [a[-1] for a in axes], size=(400, kernel.dim))
        model = KdeModel(kernel=kernel, h=h, sample=sample)
        coeffs = [kernel.factor(j).poly_coeffs for j in range(kernel.dim)]
        brute = brute_force_kde_grid(sample, h, coeffs, axes)
        error = np.max(np.abs(kde_on_grid(model, axes) - brute))
        assert np.max(np.abs(brute)) > 0.0
        assert error <= 1e-10 * np.max(np.abs(brute)), (kernel.dim, axes[0][-1] / h)


def test_one_node_axes_match_brute_force():
    rng = np.random.default_rng(31)
    sample = rng.uniform(-1.0, 1.0, size=(500, 2))
    model = KdeModel(kernel=STRICT44, h=0.3, sample=sample)
    coeffs = [STRICT44.factor(j).poly_coeffs for j in range(2)]
    for point in ([0.1, -0.2], [0.95, 0.95], [-1.25, 0.0]):
        axes = [np.array([c]) for c in point]
        brute = brute_force_kde_grid(sample, 0.3, coeffs, axes).item()
        assert kde_at(model, point) == pytest.approx(brute, rel=1e-12, abs=1e-15)


def test_uncovered_nodes_are_exact_zeros():
    # samples in two clusters leave most of the grid uncovered
    rng = np.random.default_rng(37)
    sample = np.vstack([rng.normal([-0.6, 0.4], 0.05, size=(60, 2)),
                        rng.normal([0.5, -0.5], 0.05, size=(60, 2))])
    axes = [np.linspace(-1.2, 1.2, 97), np.linspace(-1.1, 1.1, 89)]
    for kernel in (STRICT21, STRICT44):
        grid = kde_on_grid(KdeModel(kernel=kernel, h=0.2, sample=sample), axes)
        covered = np.zeros(grid.shape, dtype=bool)
        for x in sample:
            inside = [np.abs((x[j] - axes[j]) / 0.2) <= 1.0 for j in range(2)]
            covered |= np.outer(*inside)
        assert 0 < np.count_nonzero(covered) < covered.size // 2
        assert np.all(grid[~covered] == 0.0)
        assert not np.any(np.signbit(grid[~covered]))


def test_nodes_reached_only_where_the_kernel_vanishes_are_exact_zeros():
    # kappa(+-1) = 0; each sample lies exactly h from a node on its first axis
    epanechnikov = UnivariateKernel(order=2, poly_coeffs=(0.75, 0.0, -0.75))
    kernel = tensor_kernel(epanechnikov, 1, epanechnikov, 1, 2, 2)
    h = 0.25
    axes = [np.linspace(-1.0, 1.0, 23), np.linspace(-1.1, 1.1, 29)]
    rng = np.random.default_rng(41)
    first = axes[0][rng.integers(3, 20, size=200)] + rng.choice([-h, h], size=200)
    first = first[np.any((first[:, None] - axes[0]) / h == 1.0, axis=1)
                  | np.any((first[:, None] - axes[0]) / h == -1.0, axis=1)][:12]
    sample = np.column_stack([first, rng.uniform(-1.0, 1.0, size=first.size)])
    grid = kde_on_grid(KdeModel(kernel=kernel, h=h, sample=sample), axes)
    brute = brute_force_kde_grid(sample, h, [epanechnikov.poly_coeffs] * 2, axes)
    reached = np.zeros(grid.shape, dtype=bool)
    for x in sample:
        reached |= np.outer(*[np.abs((x[j] - axes[j]) / h) <= 1.0 for j in range(2)])
    assert np.count_nonzero(reached & (brute == 0.0)) > 20
    assert np.all(grid[brute == 0.0] == 0.0)
    assert not np.any(np.signbit(grid))
    assert grid == pytest.approx(brute, rel=1e-12, abs=1e-15)


def test_nonnegative_kernel_gives_nonnegative_estimate():
    rng = np.random.default_rng(17)
    sample = rng.uniform(-1, 1, size=(100, 2))
    model = KdeModel(kernel=UNIFORM2, h=0.25, sample=sample)
    axes = [np.sort(axis) for axis in rng.uniform(-1.3, 1.3, size=(2, 300))]
    assert np.all(kde_on_grid(model, axes) >= 0.0)


def test_mean_field_reproduces_plateau():
    f0 = plateau_density(20.0, 1.0, 2)
    vals = mean_field_on_axes(STRICT21, 0.25, f0, [np.array([0.0, 3.0]), np.array([0.0, -2.0])])
    assert np.allclose(vals, (1.0 / 20.0) ** 2, atol=1e-10)


def test_mean_field_small_h_limit():
    tb = tensor_bump_density([1.0, 1.0])
    point = np.array([[0.2, -0.3]])
    mean = mean_field_on_axes(STRICT21, 1e-3, tb, list(point.T)).item()
    assert mean == pytest.approx(float(tb(point)[0]), abs=1e-4)


def test_mean_field_matches_dense_data_quadrature():
    # oracle integrates in the data variable instead of the kernel variable
    from mixedkde.quadrature import Box as QBox, QuadRule as QRule, integrate

    tb = tensor_bump_density([1.0, 1.0])
    h = 0.3
    x0 = np.array([0.15, -0.25])

    def integrand(z):
        return tb.field.eval(z) * STRICT21((z - x0[None, :]) / h) / h ** 2

    window = QBox(tuple(x0 - h), tuple(x0 + h))
    direct = integrate(grid_field(integrand), window, QRule(12, (24, 24)))
    mean = mean_field_on_axes(STRICT21, h, tb, list(x0[:, None])).item()
    assert mean == pytest.approx(direct, abs=1e-8)


def test_mean_field_factorized_matches_generic():
    tb = tensor_bump_density([1.0, 2.0])
    axes = [np.linspace(-1.3, 1.3, 21), np.linspace(-2.3, 2.3, 17)]
    grid = mean_field_on_axes(STRICT21, 0.35, tb, axes)
    u_nodes, u_weights = _kernel_nodes(0.35, tb)
    coeffs = [STRICT21.kappa1.poly_coeffs, STRICT21.kappa2.poly_coeffs]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    generic = kernel_variable_mean_field(tb.field.eval, 0.35, coeffs, u_nodes, u_weights, pts)
    assert np.allclose(grid, generic.reshape(grid.shape), atol=1e-13)


def test_mean_field_needs_product_truth(small_family):
    # one rule: a family member has no axis factors, so it has neither a
    # per-axis mean field nor an inverse-CDF sampler
    member = small_family.member(small_family.code[-1])
    axes = [np.linspace(-1.0, 1.0, 5)] * 2
    for count in (0, 10):
        with pytest.raises(ValueError, match="sampling needs a product density"):
            member.sample(1, count)
    with pytest.raises(ValueError, match="product truth"):
        mean_field_on_axes(STRICT21, 0.3, member, axes)
    with pytest.raises(ValueError, match="product truth"):
        bias_lp(STRICT21, 0.3, member, 2.0, Box((-1.0, -1.0), (1.0, 1.0)), QuadRule(4, (2, 2)))


def test_bias_zero_for_locally_constant_truth():
    f0 = plateau_density(20.0, 1.0, 2)
    h = 0.3
    # deep inside the plateau the convolution reproduces the constant
    box = Box((-5.0, -5.0), (5.0, 5.0))
    rule = QuadRule(8, (16, 16))
    assert bias_lp(STRICT21, h, f0, 2.0, box, rule) == pytest.approx(0.0, abs=1e-10)


def test_bias_halving_slope_order_11():
    # strict (1,1) kernel: halving h divides the bias by about 2^(s1+s2)
    tb = tensor_bump_density([2.0, 2.0])
    box = Box((-2.5, -2.5), (2.5, 2.5))
    rule = QuadRule.for_box(box, feature_scale=0.2)
    K = tensor_kernel(build_order_kernel(1, True), 1, build_order_kernel(1, True), 1, 1, 1)
    vals = [bias_lp(K, h, tb, 2.0, box, rule) for h in (0.4, 0.2, 0.1, 0.05)]
    for a, b in zip(vals, vals[1:]):
        assert abs(np.log2(a / b) - 2.0) <= 0.3


def test_bias_order_matches_h_power_for_22():
    # for the strict (2,2) pair the bias genuinely scales like h^{s1+s2};
    # the asymptotic slope needs small h relative to the bump width
    s1 = s2 = 2
    K = tensor_kernel(build_order_kernel(s1, True), 1, build_order_kernel(s2, True), 1, s1, s2)
    tb = tensor_bump_density([3.0, 3.0])
    box = Box((-3.5, -3.5), (3.5, 3.5))
    rule = QuadRule.for_box(box, feature_scale=0.1)
    vals = [bias_lp(K, h, tb, 2.0, box, rule) for h in (0.15, 0.075, 0.0375)]
    for a, b in zip(vals, vals[1:]):
        assert abs(np.log2(a / b) - 4.0) <= 0.5


@pytest.mark.parametrize("s1,s2", [(1, 1), (2, 2)])
@pytest.mark.xfail(strict=True, reason=(
    "the stated bias bound keeps only the top mixed derivative; the "
    "per-block Taylor remainders it drops contribute h^{s_i+1} and "
    "h^{s_i+s_i'} curvature terms whose norms exceed the retained "
    "cross-derivative term for every bump-based tensor truth"))
def test_bias_bound_printed_form(s1, s2):
    K = tensor_kernel(build_order_kernel(s1, True), 1, build_order_kernel(s2, True), 1, s1, s2)
    tb = tensor_bump_density([1.0, 1.0])
    box = Box((-1.5, -1.5), (1.5, 1.5))
    rule = QuadRule.for_box(box, feature_scale=0.2)
    p = 2.0
    i_top = top_abs_moment(K)
    field = tb.field.partial_field((s1, s2))
    deriv_norm = lp_norm(field, tb.support, p, QuadRule(10, (48, 48)))
    h = 0.1
    assert bias_lp(K, h, tb, p, box, rule) <= i_top * h ** (s1 + s2) * deriv_norm * (1 + 1e-9)
