"""Truncated series arithmetic against ordinary-polynomial oracles.

The oracle converts factorial-normalized coefficients to plain polynomial
coefficients (divide by n!), runs schoolbook polynomial arithmetic, and
converts back.  Any disagreement is a real bug in the convolution logic.
"""

import random
from fractions import Fraction
from math import factorial

import pytest

from implicitseries.algebra import NotInvertibleError, as_coefficient, fsym
from implicitseries.series import (
    BivariateEGF,
    ConstantTermError,
    MixedOrderError,
    TaylorEGF,
)


def _rand_coeffs(rng, order, zero_chance=0.2):
    out = []
    for _ in range(order + 1):
        if rng.random() < zero_chance:
            out.append(Fraction(0))
        else:
            out.append(Fraction(rng.randrange(-6, 7), rng.randrange(1, 5)))
    return out


def _to_plain(coeffs):
    return [c / factorial(n) for n, c in enumerate(coeffs)]


def _from_plain(coeffs):
    return [c * factorial(n) for n, c in enumerate(coeffs)]


def _poly_mul_plain(a, b, order):
    out = [Fraction(0)] * (order + 1)
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in enumerate(b):
            if i + j > order:
                break
            out[i + j] += ai * bj
    return out


def test_mul_matches_plain_polynomial_oracle():
    rng = random.Random(31)
    for _ in range(60):
        order = rng.randrange(0, 9)
        a = _rand_coeffs(rng, order)
        b = _rand_coeffs(rng, order)
        got = TaylorEGF(a) * TaylorEGF(b)
        want = _from_plain(_poly_mul_plain(_to_plain(a), _to_plain(b), order))
        assert list(got.coeffs) == want


def test_mul_binomial_convolution_value():
    # (x) * (x) = x^2 with EGF coefficient 2
    x = TaylorEGF.identity(4)
    assert list((x * x).coeffs) == [0, 0, 2, 0, 0]


def test_add_sub_neg_scalar():
    a = TaylorEGF([1, 2, 3])
    b = TaylorEGF([0, 1, Fraction(1, 2)])
    assert list((a + b).coeffs) == [1, 3, Fraction(7, 2)]
    assert list((a - b).coeffs) == [1, 1, Fraction(5, 2)]
    assert -a == TaylorEGF([-1, -2, -3])
    assert a * 2 == a + a
    assert 2 * a == a + a
    assert a * Fraction(1, 2) + a * Fraction(1, 2) == a


@pytest.mark.parametrize("factor", [
    0, 3, -1, Fraction(-2, 3), Fraction(3, 2), fsym(1, 1), -2 * fsym(0, 1) ** -1,
], ids=str)
def test_scalar_products_are_entrywise_and_pass_zeros_through(factor):
    coeffs = [0, Fraction(2, 3), 0, 4, Fraction(-1, 2)]
    box = [coeffs[i:] + coeffs[:i] for i in range(len(coeffs))]
    for series, entries in ((TaylorEGF(coeffs), coeffs),
                            (BivariateEGF(box), [c for row in box for c in row])):
        for prod in (series * factor, factor * series):
            assert type(prod) is type(series)
            got = prod.coeffs if isinstance(prod, TaylorEGF) else [
                c for row in prod.coeffs for c in row]
            for c, g in zip(entries, got, strict=True):
                want = as_coefficient(c * factor) if c else 0
                assert g == want and type(g) is type(want)


def test_mixed_orders_rejected():
    a = TaylorEGF([1, 2, 3])
    b = TaylorEGF([1, 2])
    for op in (lambda: a + b, lambda: a - b, lambda: a * b, lambda: a.compose(b)):
        with pytest.raises(MixedOrderError):
            op()


def test_truncate():
    a = TaylorEGF([1, 2, 3, 4])
    assert a.truncate(1) == TaylorEGF([1, 2])
    assert a.truncate(3) == a
    with pytest.raises(ValueError):
        a.truncate(4)


def test_reciprocal_of_geometric():
    n = 8
    got = TaylorEGF([1, -1] + [0] * (n - 1)).reciprocal()
    assert list(got.coeffs) == [factorial(i) for i in range(n + 1)]


def test_reciprocal_random_round_trip():
    rng = random.Random(5)
    for _ in range(30):
        order = rng.randrange(0, 8)
        coeffs = _rand_coeffs(rng, order)
        while not coeffs[0]:
            coeffs[0] = Fraction(rng.randrange(-6, 7), rng.randrange(1, 5))
        a = TaylorEGF(coeffs)
        assert a * a.reciprocal() == TaylorEGF.one(order)


def test_reciprocal_needs_unit():
    with pytest.raises(NotInvertibleError):
        TaylorEGF([0, 1, 1]).reciprocal()


def test_pow_int():
    rng = random.Random(17)
    for _ in range(20):
        a = TaylorEGF(_rand_coeffs(rng, 6))
        assert a.pow_int(0) == TaylorEGF.one(6)
        assert a.pow_int(1) == a
        assert a.pow_int(3) == a * a * a
    u = TaylorEGF([2, 1, 1, 1])
    assert u.pow_int(-2) == u.reciprocal() * u.reciprocal()
    assert u.pow_int(-2) * u.pow_int(2) == TaylorEGF.one(3)


def test_coeff_of_power():
    a = TaylorEGF([0, 1, 1, 1, 0, 0])
    for k in range(0, 4):
        p = a.pow_int(k)
        for n in range(0, 6):
            assert a.coeff_of_power(k, n) == p.coeffs[n]
    with pytest.raises(ValueError):
        a.coeff_of_power(2, 7)


def _compose_plain(outer, inner, order):
    # plain-coefficient composition by Horner over the truncated ring
    acc = [Fraction(0)] * (order + 1)
    for c in reversed(outer):
        acc = _poly_mul_plain(acc, inner, order)
        acc[0] += c
    return acc


def test_compose_matches_plain_oracle():
    rng = random.Random(23)
    for _ in range(40):
        order = rng.randrange(1, 8)
        outer = _rand_coeffs(rng, order)
        inner = _rand_coeffs(rng, order)
        inner[0] = Fraction(0)
        got = TaylorEGF(outer).compose(TaylorEGF(inner))
        want = _from_plain(
            _compose_plain(_to_plain(outer), _to_plain(inner), order))
        assert list(got.coeffs) == want


def test_compose_requires_zero_inner_constant():
    with pytest.raises(ConstantTermError):
        TaylorEGF([1, 1]).compose(TaylorEGF([1, 1]))


def test_exp_log_basics():
    n = 7
    x = TaylorEGF.identity(n)
    assert list(x.exp().coeffs) == [1] * (n + 1)
    one_plus_x = TaylorEGF([1, 1] + [0] * (n - 1))
    # log(1+x) has EGF coefficients (-1)^(m-1) (m-1)!
    want = [0] + [Fraction((-1) ** (m - 1) * factorial(m - 1)) for m in range(1, n + 1)]
    assert list(one_plus_x.log().coeffs) == want


def test_exp_log_round_trips():
    rng = random.Random(64)
    for _ in range(25):
        order = rng.randrange(1, 8)
        v = _rand_coeffs(rng, order)
        v[0] = Fraction(0)
        a = TaylorEGF(v)
        assert a.exp().log() == a
        w = list(v)
        w[0] = Fraction(1)
        b = TaylorEGF(w)
        assert b.log().exp() == b


def test_exp_log_domain_errors():
    with pytest.raises(ConstantTermError):
        TaylorEGF([1, 1]).exp()
    with pytest.raises(ConstantTermError):
        TaylorEGF([2, 1]).log()
    with pytest.raises(ConstantTermError):
        TaylorEGF([0, 1]).log()


def test_exp_is_homomorphism_from_addition():
    rng = random.Random(90)
    for _ in range(15):
        order = rng.randrange(1, 7)
        a = _rand_coeffs(rng, order)
        b = _rand_coeffs(rng, order)
        a[0] = b[0] = Fraction(0)
        sa, sb = TaylorEGF(a), TaylorEGF(b)
        assert (sa + sb).exp() == sa.exp() * sb.exp()


def test_reversion_is_two_sided_inverse():
    rng = random.Random(77)
    for _ in range(30):
        order = rng.randrange(1, 8)
        g = _rand_coeffs(rng, order)
        g[0] = Fraction(0)
        while not g[1]:
            g[1] = Fraction(rng.randrange(-6, 7), rng.randrange(1, 5))
        s = TaylorEGF(g)
        h = s.reversion()
        ident = TaylorEGF.identity(order) if order >= 1 else None
        assert h.compose(s) == ident
        assert s.compose(h) == ident


def test_reversion_known_value():
    # reversion of exp(x) - 1 is log(1 + x)
    n = 8
    expm1 = TaylorEGF([0] + [1] * n)
    assert expm1.reversion() == TaylorEGF([1, 1] + [0] * (n - 1)).log()


def test_reversion_domain_errors():
    with pytest.raises(ConstantTermError):
        TaylorEGF([1, 1]).reversion()
    with pytest.raises(NotInvertibleError):
        TaylorEGF([0, 0, 1]).reversion()


def test_symbolic_coefficients_flow_through():
    f01 = fsym(0, 1)
    a = TaylorEGF([f01, fsym(1, 1), 0])
    r = a.reciprocal()
    assert r.coeffs[0] == f01 ** -1
    assert r.coeffs[1] == -fsym(1, 1) * f01 ** -2
    assert a * r == TaylorEGF([1, 0, 0])


# -- bivariate ------------------------------------------------------------


def _rand_box(rng, order, zero_chance=0.3):
    return [
        [Fraction(0) if rng.random() < zero_chance
         else Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
         for _ in range(order + 1)]
        for _ in range(order + 1)
    ]


def _box_to_plain(box):
    return [[c / (factorial(m) * factorial(n)) for n, c in enumerate(row)]
            for m, row in enumerate(box)]


def _box_from_plain(box):
    return [[c * factorial(m) * factorial(n) for n, c in enumerate(row)]
            for m, row in enumerate(box)]


def _box_mul_plain(a, b, order):
    out = [[Fraction(0)] * (order + 1) for _ in range(order + 1)]
    for m1, row in enumerate(a):
        for n1, c in enumerate(row):
            if not c:
                continue
            for m2 in range(order + 1 - m1):
                for n2 in range(order + 1 - n1):
                    d = b[m2][n2]
                    if d:
                        out[m1 + m2][n1 + n2] += c * d
    return out


def test_bivariate_mul_matches_plain_oracle():
    rng = random.Random(13)
    for _ in range(25):
        order = rng.randrange(0, 6)
        a = _rand_box(rng, order)
        b = _rand_box(rng, order)
        got = BivariateEGF(a) * BivariateEGF(b)
        want = _box_from_plain(
            _box_mul_plain(_box_to_plain(a), _box_to_plain(b), order))
        assert [list(r) for r in got.coeffs] == want


def test_bivariate_exp_of_x_plus_y():
    f = BivariateEGF.var_x(4) + BivariateEGF.var_y(4)
    assert all(c == 1 for row in f.exp().coeffs for c in row)


def test_bivariate_exp_log_round_trip():
    rng = random.Random(41)
    for _ in range(10):
        order = rng.randrange(1, 5)
        box = _rand_box(rng, order)
        box[0][0] = Fraction(0)
        f = BivariateEGF(box)
        assert f.exp().log() == f
        box[0][0] = Fraction(1)
        g = BivariateEGF(box)
        assert g.log().exp() == g


def test_bivariate_reciprocal_round_trip():
    rng = random.Random(55)
    for _ in range(12):
        order = rng.randrange(0, 5)
        box = _rand_box(rng, order)
        while not box[0][0]:
            box[0][0] = Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
        f = BivariateEGF(box)
        assert f * f.reciprocal() == BivariateEGF.const(1, order)
        assert f.pow_int(-2) == f.reciprocal() * f.reciprocal()


def test_bivariate_domain_errors():
    f = BivariateEGF.var_x(3)
    with pytest.raises(NotInvertibleError):
        f.reciprocal()
    with pytest.raises(ConstantTermError):
        BivariateEGF.const(1, 3).exp()
    with pytest.raises(ConstantTermError):
        BivariateEGF.const(2, 3).log()
    with pytest.raises(MixedOrderError):
        BivariateEGF.var_x(3) + BivariateEGF.var_x(2)


def _subst_plain(box, u, order):
    # substitute y := u(x) into the plain bivariate polynomial, truncating
    out = [Fraction(0)] * (order + 1)
    for m in range(order + 1):
        for n in range(order + 1):
            c = box[m][n]
            if not c:
                continue
            # c * x^m * u(x)^n
            term = [Fraction(0)] * (order + 1)
            if m <= order:
                term[m] = c
            for _ in range(n):
                term = _poly_mul_plain(term, u, order)
            for i, v in enumerate(term):
                out[i] += v
    return out


def test_substitute_y_matches_plain_oracle():
    rng = random.Random(71)
    for _ in range(20):
        order = rng.randrange(1, 6)
        box = _rand_box(rng, order)
        u = _rand_coeffs(rng, order)
        u[0] = Fraction(0)
        got = BivariateEGF(box).substitute_y(TaylorEGF(u))
        want = _from_plain(
            _subst_plain(_box_to_plain(box), _to_plain(u), order))
        assert list(got.coeffs) == want


def test_substitute_y_truncation_consistency():
    # the m-th output coefficient must not depend on anything above m
    rng = random.Random(83)
    for _ in range(10):
        big = 6
        small = rng.randrange(1, big)
        box = _rand_box(rng, big)
        u = _rand_coeffs(rng, big)
        u[0] = Fraction(0)
        full = BivariateEGF(box).substitute_y(TaylorEGF(u), order=big)
        part = BivariateEGF(box).substitute_y(TaylorEGF(u), order=small)
        assert full.truncate(small) == part


def test_substitute_y_requires_zero_constant():
    with pytest.raises(ConstantTermError):
        BivariateEGF.var_y(3).substitute_y(TaylorEGF([1, 0, 0, 0]))


def test_substitute_y_order_limits():
    f = BivariateEGF.var_y(3)
    with pytest.raises(MixedOrderError):
        f.substitute_y(TaylorEGF.identity(2), order=3)


def test_box_shape_validation():
    with pytest.raises(ValueError):
        BivariateEGF([[1, 2], [3]])
    with pytest.raises(ValueError):
        BivariateEGF([])
