import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from mixedkde.bumps import lambda_deriv, lambda_value
from mixedkde.densities import TensorField, plateau_density, tensor_bump_density
from mixedkde.quadrature import Box, QuadRule, integrate_1d, lp_norm_1d
from mixedkde.sobolev import SmoothnessSpec, index_set, sobolev_norm
from oracles import PartialsField

RULE = QuadRule(8, (24, 24))


def bump_field(widths=(1.0, 1.0)) -> TensorField:
    return tensor_bump_density(list(widths)).field


def test_index_set_aniso_example():
    spec = SmoothnessSpec(s1=4, s2=1, d1=1, d2=1, p=2.0, variant="aniso")
    got = set(index_set(spec))
    assert got == {(0, 0), (1, 0), (2, 0), (3, 0), (4, 0), (0, 1)}


def test_index_set_equal_orders_matches_classical():
    aniso = SmoothnessSpec(s1=2, s2=2, d1=1, d2=1, p=2.0, variant="aniso")
    classical = SmoothnessSpec(s1=2, s2=2, d1=1, d2=1, p=2.0, variant="classical")
    assert set(index_set(aniso)) == set(index_set(classical))


def test_index_set_mixed():
    spec = SmoothnessSpec(s1=2, s2=1, d1=1, d2=1, p=2.0, variant="mixed")
    got = set(index_set(spec))
    assert got == {(a, b) for a in range(3) for b in range(2)}


def test_aniso_subset_of_mixed():
    spec_a = SmoothnessSpec(s1=3, s2=2, d1=2, d2=1, p=2.0, variant="aniso")
    spec_m = SmoothnessSpec(s1=3, s2=2, d1=2, d2=1, p=2.0, variant="mixed")
    assert set(index_set(spec_a)) <= set(index_set(spec_m))


def test_zero_field_has_zero_norm():
    field = PartialsField(lambda alpha: lambda pts: np.zeros(pts.shape[0]), Box((-1, -1), (1, 1)))
    for variant in ("mixed", "classical", "aniso"):
        spec = SmoothnessSpec(2, 1, 1, 1, 2.0, variant)
        assert sobolev_norm(field, spec, RULE) == 0.0


def test_mixed_norm_tensor_factorization():
    # for f = f1 (x) f2, the double sum factorizes into per-axis sums; both
    # sides use the same per-axis panel layout so they converge together
    widths = (1.0, 1.5)
    panels = (60, 90)
    field = bump_field(widths)
    spec = SmoothnessSpec(s1=2, s2=1, d1=1, d2=1, p=2.0, variant="mixed")
    got = sobolev_norm(field, spec, QuadRule(10, panels))

    def axis_sum(width, top, n_panels):
        total = 0.0
        for m in range(top + 1):
            total += lp_norm_1d(
                lambda u, m=m: lambda_deriv(m, u / width) / width ** (m + 1)
                if m else lambda_value(u / width) / width,
                -width, width, 2.0, panels=n_panels, nodes=10)
        return total

    expected = axis_sum(widths[0], 2, panels[0]) * axis_sum(widths[1], 1, panels[1])
    assert got == pytest.approx(expected, rel=1e-9)


def test_classical_norm_two_terms():
    width = 1.0
    field = bump_field((width, width))
    # s = 1 on a 1-d slice is easier to pin: use a univariate field instead
    uni = PartialsField(lambda alpha: lambda pts: lambda_deriv(alpha[0], pts[:, 0]),
                        Box((-1,), (1,)))
    spec = SmoothnessSpec(s1=1, s2=1, d1=1, d2=1, p=2.0, variant="classical")
    # classical variant uses s1 over all axes; build a 1-axis spec by hand
    norm = sum(lp_norm_1d(lambda u, m=m: lambda_deriv(m, u) if m else lambda_value(u),
                          -1, 1, 2.0, panels=64, nodes=10) for m in (0, 1))
    from mixedkde.quadrature import lp_norm
    direct = (lp_norm(uni.eval, uni.support, 2.0, QuadRule(10, (64,)))
              + lp_norm(uni.partial_field((1,)), uni.support, 2.0, QuadRule(10, (64,))))
    assert direct == pytest.approx(norm, rel=1e-12)


@pytest.mark.parametrize("s1,s2", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_norm_chain(s1, s2):
    field = bump_field((1.0, 1.3))
    p = 2.0
    lo = sobolev_norm(field, SmoothnessSpec(min(s1, s2), min(s1, s2), 1, 1, p, "classical"), RULE)
    mid = sobolev_norm(field, SmoothnessSpec(s1, s2, 1, 1, p, "mixed"), RULE)
    hi = sobolev_norm(field, SmoothnessSpec(s1 + s2, s1 + s2, 1, 1, p, "classical"), RULE)
    assert lo <= mid + 1e-9
    assert mid <= hi + 1e-9


def test_aniso_below_mixed():
    field = bump_field((1.0, 0.8))
    spec_a = SmoothnessSpec(3, 2, 1, 1, 2.0, "aniso")
    spec_m = SmoothnessSpec(3, 2, 1, 1, 2.0, "mixed")
    assert sobolev_norm(field, spec_a, RULE) <= sobolev_norm(field, spec_m, RULE) + 1e-9


@given(st.floats(-4.0, 4.0).filter(lambda c: abs(c) > 1e-3))
@settings(max_examples=10, deadline=None)
def test_homogeneity(c):
    base = bump_field((1.0, 1.0))
    scaled = PartialsField(lambda alpha: lambda pts: c * base.partial_field(alpha)(pts),
                           base.support)
    spec = SmoothnessSpec(1, 1, 1, 1, 2.0, "mixed")
    rule = QuadRule(8, (12, 12))
    assert sobolev_norm(scaled, spec, rule) == pytest.approx(
        abs(c) * sobolev_norm(base, spec, rule), rel=1e-10)


def test_triangle_inequality():
    f = bump_field((1.0, 1.0))
    g = bump_field((0.7, 1.2))
    support = Box((-1, -1), (1, 1))

    both = PartialsField(
        lambda alpha: lambda pts: f.partial_field(alpha)(pts) + g.partial_field(alpha)(pts),
        support)
    f_clip = PartialsField(f.partial_field, support)
    g_clip = PartialsField(g.partial_field, support)
    spec = SmoothnessSpec(1, 1, 1, 1, 2.0, "mixed")
    rule = QuadRule(8, (16, 16))
    assert (sobolev_norm(both, spec, rule)
            <= sobolev_norm(f_clip, spec, rule) + sobolev_norm(g_clip, spec, rule) + 1e-9)


def test_pdf_norm_at_p1_exceeds_one():
    # a pdf at p = 1 has L1 norm one, so derivative terms push it past 1
    spec = SmoothnessSpec(1, 1, 1, 1, 1.0, "mixed")
    assert sobolev_norm(bump_field((1.0, 1.0)), spec, RULE) > 1.0


def test_f0_norm_against_construction_bound():
    # the plateau density norm is controlled by N^{-D} ||LambdaTilde||^D
    f0 = plateau_density(20.0, 1.0, 2)
    spec = SmoothnessSpec(1, 1, 1, 1, 2.0, "mixed")
    rule = QuadRule.for_box(f0.support, feature_scale=0.25)
    norm = sobolev_norm(f0.field, spec, rule)
    assert norm > 0

    factor = f0.axis_factors[0]
    tilde = 0.0
    for m in range(3):
        fn = factor.pdf if m == 0 else factor.deriv(m)
        # the factor is (1/N) LambdaTilde here (kappa = 1), undo the 1/N
        tilde += 20.0 * lp_norm_1d(fn, factor.lo, factor.hi, 2.0, panels=256, nodes=8)
    bound = 20.0 ** (-2) * tilde ** 2
    assert norm <= bound * (1 + 1e-9)


def test_spec_validation():
    with pytest.raises(ValueError, match="variant"):
        SmoothnessSpec(1, 1, 1, 1, 2.0, "foo")
    with pytest.raises(ValueError):
        SmoothnessSpec(0, 1, 1, 1, 2.0)
    with pytest.raises(ValueError):
        SmoothnessSpec(1, 1, 1, 1, 0.5)
