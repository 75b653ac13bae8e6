import numpy as np
import pytest

from mixedkde.densities import pdf_ok, plateau_density, tensor_bump_density
from mixedkde.quadrature import QuadRule, integrate, multi_indices
from oracles import (gauss_legendre_box, grid_field, grid_points, inverse_cdf_sample,
                     tensor_trapezoid)


def test_plateau_point_values():
    f0 = plateau_density(20.0, 1.0, 2)
    # (kappa / N)^D = (1 / 20)^2
    assert float(f0([[0.0, 0.0]])[0]) == pytest.approx(0.0025, rel=1e-12)
    # support boundary (N+2)/(2 kappa) = 11
    assert float(f0([[11.0, 0.0]])[0]) == 0.0
    assert float(f0([[-11.5, 3.0]])[0]) == 0.0
    # everywhere on the plateau cube the value is exactly constant
    for x in (-8.9, 0.0, 4.4, 8.9):
        assert float(f0([[x, x / 2]])[0]) == pytest.approx(0.0025, rel=1e-14)


def test_plateau_unit_mass_against_trapezoid_oracle():
    f0 = plateau_density(20.0, 1.0, 2)
    direct = tensor_trapezoid(f0.field.eval, f0.support.lower, f0.support.upper,
                              pts_per_axis=2201)
    assert direct == pytest.approx(1.0, abs=2e-6)
    mass, low = gauss_legendre_box(f0, f0.support.lower, f0.support.upper, (256, 256), 10)
    assert abs(mass - 1.0) < 1e-8
    assert low >= 0.0


def test_plateau_parameter_validation():
    with pytest.raises(ValueError, match="N > 8"):
        plateau_density(8.0, 1.0, 2)
    with pytest.raises(ValueError, match="kappa"):
        plateau_density(10.0, 1.5, 2)


def test_tensor_bump_is_pdf():
    tb = tensor_bump_density([1.0, 2.0])
    mass, low = gauss_legendre_box(tb, tb.support.lower, tb.support.upper, (64, 96), 10)
    assert pdf_ok(abs(mass - 1.0), low)


def test_sampler_zero_count():
    tb = tensor_bump_density([1.0, 1.0])
    assert tb.sample(7, 0).shape == (0, 2)


def test_sampler_determinism():
    tb = tensor_bump_density([1.0, 2.0])
    a = tb.sample(12345, 500)
    b = tb.sample(12345, 500)
    assert np.array_equal(a, b)
    c = tb.sample(54321, 500)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("density", [
    tensor_bump_density([1.0, 2.0]),
    tensor_bump_density([1.0, 3.0, 0.5], centers=[0.5, -1.0, 2.0]),
    plateau_density(20.0, 1.0, 2),
], ids=["bump2", "bump3", "plateau2"])
def test_sample_equals_draw_order_inversion_oracle(density):
    # searching sorted keys must keep every draw's bits and place
    tables = [factor.cdf_table() for factor in density.axis_factors]
    for seed in (0, 12345, 2**64 - 1):
        for count in (1, 2, 2047, 2049, 16384):
            np.testing.assert_array_equal(density.sample(seed, count),
                                          inverse_cdf_sample(tables, seed, count))


def test_plateau_sample_symmetry():
    f0 = plateau_density(20.0, 1.0, 2)
    pts = f0.sample(99, 100_000)
    std = pts.std(axis=0)
    mean = pts.mean(axis=0)
    assert np.all(np.abs(mean) <= 3.0 * std / np.sqrt(len(pts)))


def test_marginal_ks_against_tabulated_cdf():
    # per-axis inverse-CDF samples must track the tabulated CDF itself
    tb = tensor_bump_density([1.0, 2.0])
    count = 100_000
    pts = tb.sample(4242, count)
    for j, factor in enumerate(tb.axis_factors):
        x, cdf = factor.cdf_table()
        empirical = np.searchsorted(np.sort(pts[:, j]), x, side="right") / count
        ks = np.max(np.abs(empirical - cdf))
        assert ks < 1.63 / np.sqrt(count)


def test_sample_inside_support():
    tb = tensor_bump_density([1.0, 3.0], centers=[0.5, -1.0])
    pts = tb.sample(5, 2000)
    assert np.all(pts >= np.asarray(tb.support.lower)[None, :])
    assert np.all(pts <= np.asarray(tb.support.upper)[None, :])


def test_tensor_bump_validation():
    with pytest.raises(ValueError, match="widths"):
        tensor_bump_density([1.0, -1.0])
    with pytest.raises(ValueError, match="length"):
        tensor_bump_density([1.0], centers=[0.0, 0.0])


@pytest.mark.parametrize("density", [
    tensor_bump_density([1.5]),
    tensor_bump_density([1.0, 3.0], centers=[0.5, -1.0]),
    tensor_bump_density([1.0, 2.0, 0.5]),
    plateau_density(10.0, 1.0, 1),
    plateau_density(12.0, 0.5, 2),
    plateau_density(9.5, 1.0, 3),
], ids=["bump1", "bump2", "bump3", "plateau1", "plateau2", "plateau3"])
def test_product_field_grid_path_equals_point_path(density):
    box = density.support
    # odd counts put nodes on the support edges, the centre and outside
    axes = [np.linspace(lo - 0.3, hi + 0.3, 17 + 2 * j)
            for j, (lo, hi) in enumerate(zip(box.lower, box.upper))]
    shape = [len(a) for a in axes]
    for alpha in multi_indices(density.dim, 2):
        field = density.field.partial_field(alpha)
        np.testing.assert_array_equal(field.on_grid(axes),
                                      field(grid_points(axes)).reshape(shape))
    np.testing.assert_array_equal(density.on_grid(axes), density.field.eval.on_grid(axes))
    rule = QuadRule(4, (6,) * density.dim)
    grid = integrate(density.field.eval, box, rule)
    point = integrate(grid_field(density.field.eval), box, rule)
    assert grid == pytest.approx(point, rel=1e-13, abs=0.0)
