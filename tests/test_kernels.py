import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from mixedkde.kernels import (MAX_ORDER, UnivariateKernel, abs_moment, build_order_kernel,
                              kernel_from_dict, kernel_to_dict, moment, q_norm_1d,
                              verify_order)
from mixedkde.product import (mixed_moment, product_kernel_from_dict,
                              product_kernel_to_dict, q_norm,
                              required_moment_indices, tensor_kernel, verify_class)
from oracles import polyval_kernel, tensor_trapezoid

UNIFORM = build_order_kernel(1, strict=True)  # 1/2 on [-1, 1]


# ------------------------------ univariate ------------------------------

def test_order2_is_uniform():
    k = build_order_kernel(2)
    coeffs = np.asarray(k.poly_coeffs)
    assert coeffs[0] == pytest.approx(0.5, abs=1e-15)
    assert np.all(np.abs(coeffs[1:]) < 1e-15)


def test_order4_closed_form():
    # symbolic Legendre sum gives (9 - 15 u^2) / 8
    k = build_order_kernel(4)
    expected = np.zeros(len(k.poly_coeffs))
    expected[0] = 9.0 / 8.0
    expected[2] = -15.0 / 8.0
    assert np.allclose(k.poly_coeffs, expected[:len(k.poly_coeffs)], atol=1e-14)


def test_strict_even_adds_one_term():
    k2 = build_order_kernel(2, strict=True)
    k4 = build_order_kernel(4, strict=False)
    # strict order 2 coincides with the non-strict order-4 polynomial
    assert np.allclose(
        np.trim_zeros(np.asarray(k2.poly_coeffs), "b"),
        np.trim_zeros(np.asarray(k4.poly_coeffs), "b"), atol=1e-14)
    assert moment(k2, 2) == pytest.approx(0.0, abs=1e-12)


def test_strict_odd_keeps_term_count():
    k = build_order_kernel(3, strict=True)
    assert k.strict
    assert moment(k, 3) == pytest.approx(0.0, abs=1e-12)


def test_moment_examples():
    assert moment(build_order_kernel(2), 0) == pytest.approx(1.0, abs=1e-10)
    assert moment(build_order_kernel(4), 2) == pytest.approx(0.0, abs=1e-8)
    assert moment(UNIFORM, 2) == pytest.approx(1.0 / 3.0, rel=1e-12)


@pytest.mark.parametrize("nu", [1, 3, 5, 7])
def test_odd_moments_vanish(nu):
    for s in (2, 3, 4, 6):
        assert moment(build_order_kernel(s), nu) == pytest.approx(0.0, abs=1e-12)


def test_verify_order_examples():
    assert verify_order(build_order_kernel(4), 4, 1e-8).passed
    rep = verify_order(UNIFORM, 3, 1e-8)
    assert not rep.passed
    assert rep.worst_violation == pytest.approx(1.0 / 3.0, rel=1e-10)
    assert verify_order(build_order_kernel(2), 2, 1e-8).passed


@pytest.mark.parametrize("s", range(1, 9))
@pytest.mark.parametrize("strict", [False, True])
def test_verify_order_all_orders(s, strict):
    rep = verify_order(build_order_kernel(s, strict), s, 1e-8)
    assert rep.passed, (s, strict, rep)


def test_symmetry_even_coefficients_only():
    for s in range(1, 9):
        coeffs = np.asarray(build_order_kernel(s, strict=True).poly_coeffs)
        assert np.all(coeffs[1::2] == 0.0)


def test_rebuild_is_bitwise_identical():
    a = build_order_kernel(6, strict=True)
    b = build_order_kernel(6, strict=True)
    assert a.poly_coeffs == b.poly_coeffs


@pytest.mark.parametrize("s", [0, 13])
def test_order_bounds(s):
    with pytest.raises(ValueError, match="order"):
        build_order_kernel(s)
    if s < 1:
        # order 0 would check no moment, so every kernel would pass
        with pytest.raises(ValueError, match="order"):
            verify_order(build_order_kernel(1), s, 1e-8)


def test_degree_is_last_nonzero_coefficient():
    assert build_order_kernel(4, strict=True).degree == 4
    assert UnivariateKernel(order=2, poly_coeffs=(0.5, -1.0, 0.0, 0.0)).degree == 1
    assert UnivariateKernel(order=1, poly_coeffs=(0.0, 0.0)).degree == 0


def test_support_clamps_to_zero():
    k = build_order_kernel(4)
    assert k(np.array([1.5]))[0] == 0.0
    assert k(np.array([-2.0]))[0] == 0.0


@pytest.mark.parametrize("strict", [False, True])
def test_horner_matches_polyval_bit_for_bit(strict):
    one, zero = np.nextafter(1.0, [0.0, 2.0]), [0.0, -0.0]
    edges = np.concatenate([[1.0, -1.0], one, -one, zero, [np.inf, -np.inf, np.nan]])
    u = np.concatenate([edges, np.random.default_rng(3).uniform(-1.5, 1.5, 2000)])
    for order in range(1, 13):
        kernel = build_order_kernel(order, strict)
        for arg in (u, u[:2002].reshape(-1, 7), *edges):
            got, want = kernel(arg), polyval_kernel(kernel.poly_coeffs, arg)
            assert got.shape == want.shape, order
            assert np.array_equal(got, want), order
            assert np.array_equal(np.signbit(got), np.signbit(want)), order


def test_q_norm_order4_l2():
    # exact: int ((9 - 15 u^2)/8)^2 du over [-1, 1] = 9/8
    k = build_order_kernel(4)
    assert q_norm_1d(k, 2.0) ** 2 == pytest.approx(9.0 / 8.0, rel=1e-12)


def test_abs_moment_uniform():
    assert abs_moment(UNIFORM, 2) == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_serialization_roundtrip_and_digits():
    for order, strict in itertools.product(range(1, MAX_ORDER + 1), (False, True)):
        k = build_order_kernel(order, strict=strict)
        text = json.dumps(kernel_to_dict(k), indent=2)
        assert kernel_from_dict(json.loads(text)) == k
        doc = json.loads(text)
        assert doc["order"] == order and doc["strict"] is strict
        # every coefficient is printed in Python's shortest round-trip repr
        # (at most 17 significant digits)
        lines = (line.strip().rstrip(",") for line in text.splitlines())
        tokens = [t for t in lines if t[0] in "-0123456789"]
        assert tokens == [repr(c) for c in k.poly_coeffs]


# ------------------------------ product ------------------------------

def test_uniform_tensor_value():
    K = tensor_kernel(UNIFORM, 1, UNIFORM, 1, 1, 1)
    assert K(np.array([[0.3, -0.7]]))[0] == pytest.approx(0.25, abs=1e-15)
    assert K(np.array([[1.5, 0.0]]))[0] == 0.0


def test_uniform_tensor_d1_2():
    K = tensor_kernel(UNIFORM, 2, UNIFORM, 1, 1, 1)
    assert K(np.zeros((1, 3)))[0] == pytest.approx(0.125, abs=1e-15)


def test_eval_point_strict22():
    k1 = build_order_kernel(2, strict=True)
    k2 = build_order_kernel(2, strict=True)
    K = tensor_kernel(k1, 1, k2, 1, 2, 2)
    assert K(np.zeros((1, 2)))[0] == pytest.approx(float(k1(0.0)) * float(k2(0.0)))


def test_eval_dimension_check():
    K = tensor_kernel(UNIFORM, 1, UNIFORM, 1, 1, 1)
    with pytest.raises(ValueError, match="dimension"):
        K(np.zeros((1, 3)))


def test_markov_defect_tiny():
    K = tensor_kernel(UNIFORM, 2, UNIFORM, 2, 1, 1)
    rep = verify_class(K, tol=1e-8)
    assert rep.markov_defect < 1e-10


def test_verify_class_strict_21():
    K = tensor_kernel(build_order_kernel(2, True), 1, build_order_kernel(1, True), 1, 2, 1)
    rep = verify_class(K, tol=1e-8)
    assert rep.passed
    assert np.isfinite(rep.i_s1_s2) and np.isfinite(rep.sup_norm)


def test_uniform_fails_as_order22():
    K = tensor_kernel(UNIFORM, 1, UNIFORM, 1, 2, 2)
    rep = verify_class(K, tol=1e-8)
    assert not rep.passed
    assert rep.worst_moment == pytest.approx(1.0 / 3.0, rel=1e-10)


@pytest.mark.parametrize("s1,s2", list(itertools.product((1, 2, 3), repeat=2)))
def test_verify_class_strict_grid(s1, s2):
    K = tensor_kernel(build_order_kernel(s1, True), 1,
                      build_order_kernel(s2, True), 1, s1, s2)
    assert verify_class(K, tol=1e-8).passed


def test_required_indices_exclude_top_pair():
    K = tensor_kernel(build_order_kernel(2, True), 1, build_order_kernel(1, True), 1, 2, 1)
    idx = required_moment_indices(K)
    assert ((2,), (1,)) not in idx
    assert ((1,), (0,)) in idx and ((0,), (1,)) in idx and ((2,), (0,)) in idx


def test_q_norm_uniform_product():
    K = tensor_kernel(UNIFORM, 1, UNIFORM, 1, 1, 1)
    # int K^2 = 4 * (1/4)^2 = 1/4 over [-1,1]^2, so the norm is 1/2
    assert q_norm(K, 2.0) == pytest.approx(0.5, rel=1e-12)
    assert q_norm(K, 1.0) == pytest.approx(1.0, rel=1e-12)
    assert q_norm(K, np.inf) == pytest.approx(0.25, rel=1e-12)
    with pytest.raises(ValueError, match="q"):
        q_norm(K, 0.5)


def test_moment_factorization_against_tensor_quadrature():
    # direct full tensor quadrature guards the univariate factorization
    from mixedkde.quadrature import Box, QuadRule, integrate

    K = tensor_kernel(build_order_kernel(2, True), 1, build_order_kernel(1, True), 2, 2, 1)
    box = Box((-1,) * 3, (1,) * 3)
    rule = QuadRule(8, (2, 2, 2))
    for a1, a2 in [((0,), (0, 0)), ((1,), (0, 0)), ((2,), (1, 0)), ((0,), (1, 1))]:
        factored = mixed_moment(K, a1, a2)
        alpha = a1 + a2

        def integrand(pts):
            mono = np.ones(pts.shape[0])
            for j, a in enumerate(alpha):
                mono *= pts[:, j] ** a
            return mono * K(pts)

        direct = integrate(integrand, box, rule)
        assert factored == pytest.approx(direct, abs=1e-10)


def test_integral_factorization_identity():
    from mixedkde.quadrature import Box, QuadRule, integrate

    K = tensor_kernel(build_order_kernel(3, True), 1, build_order_kernel(2, True), 1, 3, 2)
    direct = integrate(lambda pts: K(pts), Box((-1, -1), (1, 1)), QuadRule(8, (2, 2)))
    factored = mixed_moment(K, (0,), (0,))
    assert factored == pytest.approx(direct, rel=1e-10)
    assert factored == pytest.approx(1.0, abs=1e-10)
    # independent dense trapezoid sanity check at its own accuracy
    coarse = tensor_trapezoid(lambda pts: K(pts), [-1, -1], [1, 1], pts_per_axis=2001)
    assert factored == pytest.approx(coarse, rel=1e-5)


def test_product_serialization_roundtrip():
    K = tensor_kernel(build_order_kernel(2, True), 1, build_order_kernel(1, True), 3, 2, 1)
    back = product_kernel_from_dict(json.loads(json.dumps(product_kernel_to_dict(K))))
    assert back == K


@given(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5))
@settings(max_examples=40, deadline=None)
def test_product_eval_is_factor_product(u1, u2):
    k1 = build_order_kernel(2, True)
    k2 = build_order_kernel(1, True)
    K = tensor_kernel(k1, 1, k2, 1, 2, 1)
    expected = float(k1(np.array([u1]))[0]) * float(k2(np.array([u2]))[0])
    assert K(np.array([[u1, u2]]))[0] == pytest.approx(expected, abs=1e-15)
