"""Truncated series arithmetic against ordinary-polynomial oracles.

The oracle converts factorial-normalized coefficients to plain polynomial
coefficients (divide by n!), runs schoolbook polynomial arithmetic, and
converts back.  Any disagreement is a real bug in the convolution logic.
"""

import random
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from implicitseries import implicit, series
from implicitseries.algebra import (
    LaurentPoly,
    NotInvertibleError,
    as_coefficient,
    dot,
    fsym,
    invert_scalar,
    power,
)
from implicitseries.implicit import CoeffTable
from implicitseries.series import (
    BivariateEGF,
    ConstantTermError,
    MixedOrderError,
    TaylorEGF,
    _convolve,
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


def test_division_by_an_int_is_entrywise_and_exact():
    t = TaylorEGF([6, Fraction(3, 4), 0, 4 * fsym(1, 0) + 2, -9])
    b = BivariateEGF([[0, 6, 6 * fsym(0, 2)], [Fraction(1, 3), 0], [0]])
    for n in (1, 2, 3, -4):
        assert t / n == t * Fraction(1, n)
        assert b / n == b * Fraction(1, n)
    assert (t / 3).coeffs[0] == 2 and type((t / 3).coeffs[0]) is int
    assert type((b / 2).coeffs[0][1]) is int
    with pytest.raises(TypeError):
        t / Fraction(1, 2)
    # zero is refused whatever the coefficients, all-zero series included
    for s in (t, b, TaylorEGF.zero(2), BivariateEGF.const(0, 2)):
        with pytest.raises(ZeroDivisionError):
            s / 0


@pytest.mark.parametrize("factor", [
    0, 3, -1, Fraction(-2, 3), Fraction(3, 2), fsym(1, 1), -2 * fsym(0, 1) ** -1,
], ids=str)
def test_scalar_products_are_entrywise_and_pass_zeros_through(factor):
    coeffs = [0, Fraction(2, 3), 0, 4, Fraction(-1, 2)]
    box = [coeffs[i:] for i in range(len(coeffs))]  # a triangle
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
    with pytest.raises(NotInvertibleError, match="constant term is not invertible: 0"):
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
    with pytest.raises(ConstantTermError, match="composition needs a zero inner constant term"):
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
    for c0 in (2, 0):
        with pytest.raises(ConstantTermError, match="log needs constant term 1"):
            TaylorEGF([c0, 1]).log()


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
    with pytest.raises(ConstantTermError, match="reversion needs a zero constant term"):
        TaylorEGF([1, 1]).reversion()
    with pytest.raises(NotInvertibleError, match="linear term is not invertible: 0"):
        TaylorEGF([0, 0, 1]).reversion()
    with pytest.raises(NotInvertibleError, match="linear term is not invertible"):
        TaylorEGF([0, fsym(1, 0), 1]).reversion()


@pytest.mark.parametrize("build,error", [
    (lambda: TaylorEGF([1, 2]).truncate(-1), ValueError),
    (lambda: TaylorEGF.zero(-1), ValueError),
    (lambda: TaylorEGF.one(-1), ValueError),
    (lambda: BivariateEGF.zero(-1), ValueError),
    (lambda: BivariateEGF.const(1, -1), ValueError),
    (lambda: implicit.as_bivariate(CoeffTable(2, {(0, 1): 1}), -1), implicit.TableError),
    (lambda: BivariateEGF.const(1, 2).substitute_y(TaylorEGF([0, 1, 0]), order=-1), ValueError),
    (lambda: TaylorEGF([0]).reversion(), ValueError),
], ids=["truncate", "taylor-zero", "taylor-one", "bivariate-zero", "bivariate-const",
        "as-bivariate", "substitute-y", "order-0-reversion"])
def test_negative_orders_and_order_0_reversion_raise(build, error):
    # an order below 0, or reversion at order 0, is refused before any work
    with pytest.raises(error, match="order"):
        build()


def test_symbolic_coefficients_flow_through():
    f01 = fsym(0, 1)
    a = TaylorEGF([f01, fsym(1, 1), 0])
    r = a.reciprocal()
    assert r.coeffs[0] == f01 ** -1
    assert r.coeffs[1] == -fsym(1, 1) * f01 ** -2
    assert a * r == TaylorEGF([1, 0, 0])


def test_fused_and_plain_row_sums_agree():
    # symbolic coefficients take the fused dot in the series product,
    # compose and reversion; specialized to numbers they take the plain
    # series product, and the two must agree
    rng = random.Random(12)
    syms = [fsym(1, 0), fsym(2, 0), fsym(1, 1)]
    values = {s.single_variable_code(): Fraction(rng.randrange(1, 7), rng.randrange(1, 4))
              for s in syms}
    f01 = fsym(0, 1)
    values[f01.single_variable_code()] = Fraction(3, 2)

    def rand_coeff():
        return sum((rng.randrange(-3, 4) * s for s in syms), LaurentPoly.const(rng.randrange(-2, 3)))

    def num(series):
        return TaylorEGF([c.eval(values) if isinstance(c, LaurentPoly) else c
                          for c in series.coeffs])

    for _ in range(4):
        a = TaylorEGF([0] + [rand_coeff() for _ in range(5)])
        b = TaylorEGF([f01] + [rand_coeff() for _ in range(5)])
        one = TaylorEGF([1] + list(a.coeffs[1:]))
        unit_linear = TaylorEGF([0, f01] + list(a.coeffs[2:]))
        pairs = [
            (a * b, num(a) * num(b)),
            (a.exp(), num(a).exp()),
            (one.log(), num(one).log()),
            (b.reciprocal(), num(b).reciprocal()),
            (b.compose(a), num(b).compose(num(a))),
            (unit_linear.reversion(), num(unit_linear).reversion()),
        ]
        for fused, plain in pairs:
            assert num(fused) == plain


def test_series_product_picks_the_fused_kernel_by_either_operand(monkeypatch):
    # a product whose operands' first nonzero coefficients include a
    # polynomial goes through one dot per output coefficient, also when the
    # other operand holds ints; a product of numbers never does
    from implicitseries import series
    calls = []

    def counted(triples):
        calls.append(1)
        return dot(triples)

    monkeypatch.setattr(series, "dot", counted)
    sym = TaylorEGF([0, fsym(1, 0), fsym(2, 0), fsym(1, 1)])
    one = TaylorEGF.one(3)
    mixed = TaylorEGF([1, fsym(0, 1), 0, fsym(2, 0)])
    for a, b in ((sym, one), (one, sym), (mixed, sym), (sym, mixed)):
        calls.clear()
        assert a * b == TaylorEGF([sum((comb(n, i) * a[i] * b[n - i] for i in range(n + 1)), 0)
                                   for n in range(4)])
        assert len(calls) == 4
    calls.clear()
    numbers = TaylorEGF([Fraction(1, 2), 3, 0, Fraction(-2, 7)])
    numbers * numbers * one
    assert calls == []


# -- products over one common denominator ------------------------------


def _mul_oracle(a, b):
    """The plain double loop, one Fraction per product and per partial sum."""
    return [sum((comb(n, i) * a[i] * b[n - i] for i in range(n + 1)), Fraction(0))
            for n in range(len(a))]


def _box_mul_oracle(a, b):
    """The plain loop over the triangles m + n <= N of a and b, N their
    order: every product whose slot stays in the triangle."""
    order = len(a) - 1
    out = [[Fraction(0)] * (order + 1 - m) for m in range(order + 1)]
    for m1, row_a in enumerate(a):
        for n1, c in enumerate(row_a):
            for m2, row_b in enumerate(b[:order + 1 - m1 - n1]):
                for n2, d in enumerate(row_b[:order + 1 - m1 - n1 - m2]):
                    out[m1 + m2][n1 + n2] += comb(m1 + m2, m1) * comb(n1 + n2, n1) * c * d
    return out


def _canonical_coefficient(c):
    return (type(c) is int or (type(c) is Fraction and c.denominator != 1)
            or type(c) is LaurentPoly)


_INTS = st.one_of(st.just(0), st.integers(-30, 30))
_FRACTIONS = st.fractions(min_value=-30, max_value=30, max_denominator=40)
_MIXED = st.one_of(st.just(0), st.integers(-30, 30), _FRACTIONS)
_POLYS = st.builds(lambda k, j, c: k * fsym(1, 0) + j * fsym(0, 1) ** -1 + c,
                   st.integers(-3, 3), st.integers(-3, 3), _MIXED)


@st.composite
def _coefficients(draw, size):
    """size coefficients, all ints, all Fractions, all zero or mixed, or an
    int first and then polynomials and numbers, which the numeric product
    scales by multiplication."""
    kind = draw(st.sampled_from(["int", "fraction", "zero", "mixed", "int, then polynomials"]))
    if kind == "zero":
        return [0] * size
    if kind == "int, then polynomials":
        lead = draw(st.integers(1, size))
        return ([0] * (lead - 1) + [draw(st.integers(-5, 5).filter(bool))]
                + draw(st.lists(st.one_of(_POLYS, _MIXED), min_size=size - lead,
                                max_size=size - lead)))
    elements = {"int": _INTS, "fraction": _FRACTIONS, "mixed": _MIXED}[kind]
    return draw(st.lists(elements, min_size=size, max_size=size))


@st.composite
def _series_pairs(draw):
    size = draw(st.integers(1, 11))
    return draw(_coefficients(size)), draw(_coefficients(size))


@st.composite
def _box_pairs(draw):
    size = draw(st.integers(1, 5))
    return tuple([draw(_coefficients(size - m)) for m in range(size)] for _ in "ab")


@settings(max_examples=100, deadline=None)
@given(_series_pairs())
def test_series_product_is_the_plain_fraction_loop(pair):
    a, b = (TaylorEGF(c) for c in pair)
    got = a * b
    assert list(got.coeffs) == _mul_oracle(a.coeffs, b.coeffs)
    assert all(map(_canonical_coefficient, got.coeffs))


@settings(max_examples=40, deadline=None)
@given(_box_pairs())
def test_box_product_is_the_plain_fraction_loop(pair):
    a, b = (BivariateEGF(c) for c in pair)
    got = a * b
    assert [list(row) for row in got.coeffs] == _box_mul_oracle(a.coeffs, b.coeffs)
    assert all(map(_canonical_coefficient, (c for row in got.coeffs for c in row)))


@settings(max_examples=60, deadline=None)
@given(_box_pairs(), st.one_of(_MIXED, _POLYS))
def test_trusted_sums_and_scalar_products_are_what_the_validating_constructor_builds(pair, k):
    # +, -, unary - and the scalar product build through BivariateEGF._raw
    # and canonicalize only their non-int results
    a, b = (BivariateEGF(c) for c in pair)
    cases = [(a + b, [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a.coeffs, b.coeffs)]),
             (a - b, [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a.coeffs, b.coeffs)]),
             (-a, [[-x for x in row] for row in a.coeffs]),
             (a * k, [[x * k if x else x for x in row] for row in a.coeffs]),
             (k * a, [[x * k if x else x for x in row] for row in a.coeffs])]
    for got, entries in cases:
        assert _canon(got) == _canon(BivariateEGF(entries))


def test_trusted_sums_make_an_integral_fraction_an_int():
    half = BivariateEGF([[Fraction(1, 2), 0], [Fraction(3, 2)]])
    assert _canon(half + half) == [("int", 1), ("int", 0), ("int", 3)]
    assert _canon(half - half * 3) == [("int", -1), ("int", 0), ("int", -3)]
    assert _canon(half * Fraction(2, 3)) == [("Fraction", Fraction(1, 3)), ("int", 0), ("int", 1)]


def test_exact_rational_sums_make_no_fraction_arithmetic(monkeypatch):
    # the series products and dot's scalar sum run on ints over one common
    # denominator: no Fraction is multiplied or added, and only the results
    # are built as Fractions
    rng = random.Random(20)
    a, b = (TaylorEGF(_rand_coeffs(rng, 20)) for _ in "ab")
    box_a, box_b = (BivariateEGF(_rand_box(rng, 6)) for _ in "ab")

    def number():
        return Fraction(rng.randrange(-9, 10), rng.randrange(1, 30)) if rng.randrange(3) else 7

    triples = [(rng.randrange(-5, 6), number(), number()) for _ in range(40)]
    want = (_mul_oracle(a.coeffs, b.coeffs), _box_mul_oracle(box_a.coeffs, box_b.coeffs),
            sum(k * x * y for k, x, y in triples))
    calls = []

    def counted(name):
        method = getattr(Fraction, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return method(*args, **kwargs)
        return staticmethod(wrapper) if name == "__new__" else wrapper

    def run(operation):
        calls.clear()
        for name in ("__new__", "__mul__", "__rmul__", "__add__", "__radd__",
                     "__sub__", "__rsub__", "__truediv__", "__rtruediv__"):
            monkeypatch.setattr(Fraction, name, counted(name))
        try:
            return operation()
        finally:
            monkeypatch.undo()

    got = run(lambda: a * b)
    assert list(got.coeffs) == want[0]
    assert set(calls) <= {"__new__"} and len(calls) <= 21
    got = run(lambda: box_a * box_b)
    assert [list(row) for row in got.coeffs] == want[1]
    assert set(calls) <= {"__new__"} and len(calls) <= 7 * 8 // 2
    got = run(lambda: dot(triples))
    assert got == want[2] and calls == ["__new__"]
    # so do the Miller steps of a rational g_j.  Column 1's reciprocal is
    # built first: it runs the recurrence of _ode_rows on Fractions
    table = CoeffTable(11, {(m, n): number() for m in range(7) for n in range(7)
                            if (m, n) != (0, 0)} | {(0, 1): Fraction(3, 7)}, "rational")
    want = implicit._partition_g(table, {}, 5, 6)
    powers = {}
    implicit._column_power(table, powers, 1, -1, 6)
    got = run(lambda: implicit._lagrange_g(table, powers, 5, 6))
    assert got == want
    # at most one per coefficient of the 13 series built: c_1^-2..c_1^-5,
    # each c_(i+1) / c_1 and its quotient by i + 1, and g_5
    assert set(calls) <= {"__new__"} and len(calls) <= 13 * 7


def test_every_exact_product_sums_through_the_one_kernel(monkeypatch):
    # a numeric series product, a bivariate product (one call per output
    # row, at the row's order)
    # and each Miller step of a rational g_j call series._convolve, which
    # implicit imports under the same name
    calls = []

    def wrap(module):
        kernel = module._convolve

        def counted(terms, order):
            calls.append((module.__name__, order))
            return kernel(terms, order)
        monkeypatch.setattr(module, "_convolve", counted)

    wrap(series)
    wrap(implicit)
    rng = random.Random(44)
    a, b = (TaylorEGF(_rand_coeffs(rng, 8)) for _ in "ab")
    assert list((a * b).coeffs) == _mul_oracle(a.coeffs, b.coeffs)
    assert calls == [("implicitseries.series", 8)]
    calls.clear()
    box_a, box_b = (BivariateEGF(_rand_box(rng, 4)) for _ in "ab")
    assert [list(row) for row in (box_a * box_b).coeffs] == _box_mul_oracle(
        box_a.coeffs, box_b.coeffs)
    assert calls == [("implicitseries.series", 4 - m) for m in range(5)]
    table = CoeffTable(9, {(m, n): Fraction(m + 2 * n + 1, n + 2) for m in range(6)
                           for n in range(6) if (m, n) != (0, 0)}, "rational")
    want = implicit._partition_g(table, {}, 4, 5)
    calls.clear()
    assert implicit._lagrange_g(table, {}, 4, 5) == want
    assert calls.count(("implicitseries.implicit", 5)) == 3


@st.composite
def _kernel_cases(draw):
    """An order and up to three (weight, outer pairs, inner row) terms of
    ints, sparse or dense; the outer operand may run past the order."""
    order = draw(st.integers(0, 10))
    nonzero = st.integers(-40, 40).filter(bool)
    entries = draw(st.sampled_from([nonzero, st.one_of(nonzero, st.just(0)),
                                    st.one_of(nonzero, *[st.just(0)] * 4)]))
    terms = []
    for _ in range(draw(st.integers(0, 3))):
        outer = draw(st.lists(entries, max_size=order + 4))
        row = draw(st.lists(entries, min_size=order + 1, max_size=order + 1))
        terms.append((draw(st.integers(-6, 6)), [(i, c) for i, c in enumerate(outer) if c], row))
    return order, terms


@settings(max_examples=150, deadline=None)
@given(_kernel_cases())
def test_the_kernel_is_the_plain_fraction_egf_convolution(case):
    # n! [x^n] of sum k (sum_i c_i x^i / i!) (sum_j r_j x^j / j!), summed in
    # Fractions, for n = 0..order
    order, terms = case
    want = [factorial(n) * sum((Fraction(k * c * row[n - i], factorial(i) * factorial(n - i))
                                for k, pairs, row in terms for i, c in pairs if i <= n),
                               Fraction(0))
            for n in range(order + 1)]
    got = _convolve(terms, order)
    assert got == want and all(type(c) is int for c in got)


# -- bivariate ------------------------------------------------------------


def _rand_box(rng, order, zero_chance=0.3):
    """A random triangle of the given order: row m holds order + 1 - m
    entries."""
    return [
        [Fraction(0) if rng.random() < zero_chance
         else Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
         for _ in range(order + 1 - m)]
        for m in range(order + 1)
    ]


def _box_to_plain(box):
    return [[c / (factorial(m) * factorial(n)) for n, c in enumerate(row)]
            for m, row in enumerate(box)]


def _box_from_plain(box):
    return [[c * factorial(m) * factorial(n) for n, c in enumerate(row)]
            for m, row in enumerate(box)]


def _box_mul_plain(a, b, order):
    # the ordinary product of two triangles, truncated to m + n <= order
    out = [[Fraction(0)] * (order + 1 - m) for m in range(order + 1)]
    for m1, row in enumerate(a):
        for n1, c in enumerate(row):
            if not c:
                continue
            for m2 in range(order + 1 - m1 - n1):
                for n2 in range(order + 1 - m1 - n1 - m2):
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


# -- exp, log and reciprocal against their defining sums --------------------


def _power_sum_exp(f, one):
    """exp f as the sum of f^k / k!; f kills its constant term, so the
    powers vanish after finitely many steps (k <= order for a triangle)."""
    result = power = one
    k = 1
    while True:
        power = power * f / k
        if power.is_zero():
            return result
        result = result + power
        k += 1


def _power_sum_log(f, one):
    """log f as the sum of (-1)^(k+1) (f - 1)^k / k."""
    v = f - one
    result = one - one
    power = one
    k = 1
    while True:
        power = power * v
        if power.is_zero():
            return result
        result = (result + power / k) if k % 2 else (result - power / k)
        k += 1


def _geometric_reciprocal(f, one, c0):
    """1 / f as inv0 * sum (1 - inv0 f)^k, inv0 = 1 / c0."""
    inv0 = invert_scalar(c0)
    rest = one - f * inv0
    result = power = one
    while True:
        power = power * rest
        if power.is_zero():
            return result * inv0
        result = result + power


def _canon(series):
    # type and value of every entry: a result must be equal and canonical
    rows = series.coeffs if isinstance(series, BivariateEGF) else [series.coeffs]
    return [(type(c).__name__, c) for row in rows for c in row]


def _random_series(rng, order, bivariate, constant):
    if bivariate:
        box = _rand_box(rng, order)
        box[0][0] = constant
        return BivariateEGF(box), BivariateEGF.const(1, order)
    coeffs = _rand_coeffs(rng, order)
    coeffs[0] = constant
    return TaylorEGF(coeffs), TaylorEGF.one(order)


@pytest.mark.parametrize("bivariate", [False, True], ids=["taylor", "bivariate"])
def test_exp_log_reciprocal_match_their_defining_sums(bivariate):
    rng = random.Random(97)
    for order in range(8):
        for _ in range(3):
            f, one = _random_series(rng, order, bivariate, Fraction(0))
            assert _canon(f.exp()) == _canon(_power_sum_exp(f, one))
            g, one = _random_series(rng, order, bivariate, Fraction(1))
            assert _canon(g.log()) == _canon(_power_sum_log(g, one))
            c0 = Fraction(rng.choice([-3, -1, 2, 5]), rng.randrange(1, 4))
            h, one = _random_series(rng, order, bivariate, c0)
            assert _canon(h.reciprocal()) == _canon(_geometric_reciprocal(h, one, c0))


def test_bivariate_reciprocal_with_a_unit_monomial_constant():
    rng = random.Random(101)
    for order in range(6):
        c0 = Fraction(-2, 3) * fsym(0, 1) ** 2
        f, one = _random_series(rng, order, True, c0)
        if order:
            f = f + BivariateEGF.var_y(order) * fsym(1, 1)
        got = f.reciprocal()
        assert _canon(got) == _canon(_geometric_reciprocal(f, one, c0))
        assert f * got == one


@st.composite
def _power_bases(draw):
    """(order, coefficients, bivariate) of a base whose constant term is a
    nonzero number, negative or a Fraction, with entries from dense to
    sparse."""
    order = draw(st.integers(0, 5))
    bivariate = draw(st.booleans())
    entry = st.one_of(*[st.just(0)] * draw(st.integers(0, 3)),
                      st.fractions(min_value=-5, max_value=5, max_denominator=4))
    size = (order + 1) * (order + 2) // 2 if bivariate else order + 1
    flat = draw(st.lists(entry, min_size=size, max_size=size))
    flat[0] = draw(st.fractions(min_value=-4, max_value=4, max_denominator=5).filter(bool))
    if bivariate:
        # row m of the triangle is the next order + 1 - m entries
        starts = [m * (2 * order + 3 - m) // 2 for m in range(order + 2)]
        return order, [flat[starts[m]:starts[m + 1]] for m in range(order + 1)], True
    return order, flat, False


@settings(max_examples=150, deadline=None)
@given(_power_bases(), st.integers(-6, 6))
def test_power_rows_equal_repeated_squaring(base, k):
    # Miller's recurrence against algebra.power, for every k, the ones that
    # pow_int squares included; F^k F^-k = 1 checks a negative k
    order, coeffs, bivariate = base
    if bivariate:
        f = BivariateEGF(coeffs)
        rows = f._rows()
        got = BivariateEGF([g.coeffs for g in series._ode_rows(
            rows, rows[0].pow_int(k), k, series._divider(rows[0]))])
        one = BivariateEGF.const(1, order)
    else:
        f = TaylorEGF(coeffs)
        c0, inv0 = f.coeffs[0], invert_scalar(f.coeffs[0])
        got = TaylorEGF(series._ode_rows(f.coeffs, c0 ** k if k > 0 else inv0 ** -k, k,
                                         lambda s: inv0 * s))
        one = TaylorEGF.one(order)
    if k >= 0:
        assert got == (power(f, k) if k else one)
    else:
        assert got * power(f, -k) == one
    assert got == f.pow_int(k)
    entries = got.coeffs if not bivariate else [c for row in got.coeffs for c in row]
    assert all(_canonical_coefficient(c) for c in entries)


def test_division_by_f0_equals_the_product_with_its_reciprocal():
    rng = random.Random(23)
    cases = []
    for order in range(7):
        f0 = _rand_coeffs(rng, order)
        f0[0] = Fraction(rng.choice([-7, -2, 3, 5]), rng.randrange(1, 6))
        cases.append((f0, _rand_coeffs(rng, order)))
    # trailing zeros in the divisor, the dividend or both
    cases += [([Fraction(3, 2), 1, 0, 0, 0], [1, 2, 0, 0, 0]),
              ([-1, 0, 0, 0], [0, 0, 0, 5]), ([2, Fraction(1, 3), 0], [0, 0, 0])]
    # a unit-monomial LaurentPoly constant, with polynomial and rational terms
    c0 = Fraction(-2, 3) * fsym(0, 1) ** 2
    cases += [([c0, fsym(1, 1), Fraction(1, 2), 0], [1, fsym(2, 0), 0, Fraction(3, 4)]),
              ([c0, 0, 0], [Fraction(1, 5), 0, fsym(1, 0)])]
    for f0, s in cases:
        f0, s = TaylorEGF(f0), TaylorEGF(s)
        got = series._divider(f0)(s)
        assert _canon(got) == _canon(f0.reciprocal() * s)
        assert f0 * got == s


def test_box_quotient_equals_the_product_with_the_reciprocal():
    rng = random.Random(31)
    for order in range(6):
        a = BivariateEGF(_rand_box(rng, order))
        box = _rand_box(rng, order)
        box[0][0] = Fraction(rng.choice([-3, 2, 7]), rng.randrange(1, 4))
        b = BivariateEGF(box)
        got = a / b
        assert _canon(got) == _canon(a * _geometric_reciprocal(b, BivariateEGF.const(1, order),
                                                               box[0][0]))
        assert got * b == a


def test_bivariate_mul_is_commutative_on_sparse_and_dense_operands():
    rng = random.Random(19)
    for _ in range(12):
        order = rng.randrange(1, 6)
        sparse = _rand_box(rng, order, zero_chance=0.9)
        dense = _rand_box(rng, order, zero_chance=0.0)
        want = _box_from_plain(
            _box_mul_plain(_box_to_plain(sparse), _box_to_plain(dense), order))
        a, b = BivariateEGF(sparse), BivariateEGF(dense)
        assert [list(r) for r in (a * b).coeffs] == want
        assert [list(r) for r in (b * a).coeffs] == want


def _subst_plain(box, u, order):
    # substitute y := u(x) into the plain bivariate polynomial, truncating
    out = [Fraction(0)] * (order + 1)
    for m, row in enumerate(box):
        for n, c in enumerate(row):
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


@st.composite
def _substitutions(draw):
    """(triangle, u) of one order 0..8 for substitute_y.  Each row of the
    triangle, and u, holds ints, Fractions or small polynomials among ints;
    the Fractions of the triangle have denominators 3, 7 or 9 and those of
    u 2, 4 or 5, so the two common denominators differ.  u has valuation 1
    to 3, so that from valuation 2 on a power u^n / n! vanishes before
    n reaches the order."""
    order = draw(st.integers(0, 8))

    def entries(denominators, size):
        elements = draw(st.sampled_from([
            _INTS, st.builds(Fraction, st.integers(-9, 9), st.sampled_from(denominators)),
            st.one_of(_INTS, _POLYS)]))
        return draw(st.lists(elements, min_size=size, max_size=size))

    box = [entries((3, 7, 9), order + 1 - m) for m in range(order + 1)]
    v = min(draw(st.integers(1, 3)), order + 1)
    return box, [0] * v + entries((2, 4, 5), order + 1 - v)


@settings(max_examples=150, deadline=None)
@given(_substitutions())
def test_substitute_y_matches_the_plain_oracle_on_drawn_entries(case):
    box, u = case
    order = len(u) - 1
    got = BivariateEGF(box).substitute_y(TaylorEGF(u))

    def exact(row):
        # the oracle divides by factorials, which an int would do in floats
        return [c if isinstance(c, LaurentPoly) else Fraction(c) for c in row]

    want = _subst_plain(_box_to_plain(list(map(exact, box))), _to_plain(exact(u)), order)
    assert list(got.coeffs) == _from_plain(want)
    assert all(map(_canonical_coefficient, got.coeffs))


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


@pytest.mark.parametrize("order", [7, 5])
def test_substitute_y_reads_only_the_triangle_that_reaches_the_output(monkeypatch, order):
    # row n reaches the output only through x^(order - n): entries of the
    # order-8 triangle past the smaller one change nothing and enter no
    # common denominator
    huge = 2**127 - 1  # a prime
    rng = random.Random(97)
    box = _rand_box(rng, 8)
    u = _rand_coeffs(rng, 8)
    u[0] = Fraction(0)
    outside = [[Fraction(1, huge) if m + n > order else c for n, c in enumerate(row)]
               for m, row in enumerate(box)]
    zeroed = [[0 if m + n > order else c for n, c in enumerate(row)]
              for m, row in enumerate(box)]
    want = BivariateEGF(zeroed).substitute_y(TaylorEGF(u), order=order)
    denominators = []
    over_one_denominator = series._over_one_denominator

    def recording(rows):
        d, rows = over_one_denominator(rows)
        denominators.append(d)
        return d, rows

    monkeypatch.setattr(series, "_over_one_denominator", recording)
    assert BivariateEGF(outside).substitute_y(TaylorEGF(u), order=order) == want
    assert denominators and not any(d % huge == 0 for d in denominators)


def test_an_exp_with_a_zero_first_row_makes_no_empty_product(monkeypatch):
    # F = y (1 + x^2): its row F_1 is zero, and no kernel call is made for it
    order = 6
    box = [[0] * (order + 1 - m) for m in range(order + 1)]
    box[0][1], box[2][1] = 1, 2
    outers = []

    def recording(terms, order):
        outers.extend(pairs for _, pairs, _ in terms)
        return _convolve(terms, order)

    monkeypatch.setattr(series, "_convolve", recording)
    got = BivariateEGF(box).exp()
    # exp(y (1 + x^2)) = sum_n y^n (1 + x^2)^n / n!
    assert got == BivariateEGF([[factorial(m) * comb(n, m // 2) if m % 2 == 0 else 0
                                 for n in range(order + 1 - m)] for m in range(order + 1)])
    assert outers and all(outers)


def test_substitute_y_requires_zero_constant():
    with pytest.raises(ConstantTermError):
        BivariateEGF.var_y(3).substitute_y(TaylorEGF([1, 0, 0, 0]))


def test_substitute_y_order_limits():
    f = BivariateEGF.var_y(3)
    with pytest.raises(MixedOrderError):
        f.substitute_y(TaylorEGF.identity(2), order=3)


def test_box_shape_validation():
    # row m of an order-N series holds N + 1 - m entries
    assert BivariateEGF([[1, 2], [3]]).order == 1
    assert BivariateEGF([[1, 2, 3], [4, 5], [6]]).coeffs == ((1, 2, 3), (4, 5), (6,))
    for rows in ([[1, 2], [3, 4]], [[1, 2, 3], [4], [5, 6]], [[1, 2, 3], [4, 5]], [[]], []):
        with pytest.raises(ValueError):
            BivariateEGF(rows)
