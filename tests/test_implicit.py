"""The three expansion paths, their agreement, and the table plumbing.

The Newton path never touches the combinatorial machinery, so agreement of
all three methods on random tables is a genuine cross-check, not an echo.
"""

import random
import sys
import time
from fractions import Fraction
from functools import lru_cache
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from implicitseries import implicit
from implicitseries.algebra import LaurentPoly, as_coefficient, fsym, invert_scalar
from implicitseries.expr import table_from_expr
from implicitseries.implicit import (
    CoeffTable,
    InvariantError,
    NotExpandableError,
    TableError,
    as_bivariate,
    builtin_table,
    column_series,
    ensure_valid,
    expand,
    expand_compose,
    expand_direct,
    expand_newton,
    inverse_taylor_coeff,
    monomial_count,
    specialize,
    validate_table,
    y_coeff_direct,
    _inverse_coeff_series,
)
from implicitseries.series import BivariateEGF, TaylorEGF


def _random_table(rng, order, zero_chance=0.35):
    entries = {}
    for m in range(order + 1):
        for n in range(order + 1):
            if (m, n) == (0, 0) or rng.random() < zero_chance:
                continue
            entries[(m, n)] = Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
    f01 = Fraction(0)
    while not f01:
        f01 = Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
    entries[(0, 1)] = f01
    return CoeffTable(order, entries, "rational")


# -- table construction and validation -------------------------------------


def test_validate_table_flags_problems():
    t = CoeffTable(2, {(0, 0): 1, (0, 1): 1})
    assert any("f(0,0)" in p for p in validate_table(t))
    t = CoeffTable(2, {(1, 0): 1})
    assert any("f(0,1)" in p for p in validate_table(t))
    t = CoeffTable(2, {(0, 1): 1, (1, 0): -1})
    assert validate_table(t) == []
    sym = CoeffTable(2, {(0, 1): fsym(0, 1) + fsym(1, 0)}, "symbolic")
    assert any("invertible" in p for p in validate_table(sym))


def test_ensure_valid_raises():
    with pytest.raises(NotExpandableError):
        ensure_valid(CoeffTable(2, {(0, 0): 1, (0, 1): 1}))


def test_table_entry_access_and_errors():
    t = CoeffTable(3, {(0, 1): Fraction(1, 2)})
    assert t.entry(0, 1) == Fraction(1, 2)
    assert t.entry(3, 3) == 0
    with pytest.raises(TableError):
        t.entry(4, 0)
    with pytest.raises(TableError):
        CoeffTable(0, {})
    with pytest.raises(TableError):
        CoeffTable(2, {(5, 0): 1})
    with pytest.raises(TableError):
        CoeffTable(2, {(0, 1): fsym(0, 1)}, "rational")
    with pytest.raises(TableError):
        CoeffTable(2, {}, "other")


def test_symbolic_table_shape():
    t = CoeffTable.symbolic(3)
    assert t.mode == "symbolic"
    assert t.entry(0, 0) == 0
    assert t.entry(2, 3) == fsym(2, 3)
    assert validate_table(t) == []


def test_builtin_tables():
    g = builtin_table("geometric", 4)
    assert g.entry(0, 1) == 1 and g.entry(1, 0) == -1 and g.entry(1, 1) == -1
    lam = builtin_table("lambert", 4)
    assert lam.entry(1, 0) == -1
    assert [lam.entry(0, n) for n in range(5)] == [0, 1, 2, 3, 4]
    with pytest.raises(TableError):
        builtin_table("cubic", 4)


def test_column_series_and_bivariate_view():
    t = builtin_table("lambert", 3)
    col0 = column_series(t, 0)
    assert list(col0.coeffs) == [0, -1, 0, 0]
    col1 = column_series(t, 1, order=2)
    assert list(col1.coeffs) == [1, 0, 0]
    f = as_bivariate(t, 2)
    assert f.coeffs[1][0] == -1 and f.coeffs[0][2] == 2
    with pytest.raises(TableError):
        column_series(t, 4)


# -- the inverse-relation coefficients --------------------------------------


def test_inverse_taylor_coeff_known_symbolic_values():
    t = CoeffTable.symbolic(4)
    f = fsym
    assert inverse_taylor_coeff(t, 1, 0) == f(0, 1) ** -1
    assert inverse_taylor_coeff(t, 1, 1) == -f(1, 1) * f(0, 1) ** -2
    assert inverse_taylor_coeff(t, 2, 0) == -f(0, 2) * f(0, 1) ** -3


def test_inverse_taylor_coeff_matches_series_evaluation():
    # same quantity through an unrelated pipeline: evaluate the inversion
    # polynomial at the column series and read off coefficient l
    rng = random.Random(321)
    for _ in range(8):
        t = _random_table(rng, 5)
        for k in range(1, 6):
            series = _inverse_coeff_series(t, k, 5)
            for l in range(0, 6):
                assert inverse_taylor_coeff(t, k, l) == series.coeffs[l], (k, l)


def test_inverse_taylor_coeff_symbolic_matches_series_evaluation():
    t = CoeffTable.symbolic(3)
    for k in range(1, 4):
        series = _inverse_coeff_series(t, k, 3)
        for l in range(0, 4):
            assert inverse_taylor_coeff(t, k, l) == series.coeffs[l], (k, l)


def test_inverse_taylor_coeff_bounds():
    t = CoeffTable.symbolic(3)
    with pytest.raises(TableError):
        inverse_taylor_coeff(t, 0, 1)
    with pytest.raises(TableError):
        inverse_taylor_coeff(t, 1, 4)
    with pytest.raises(TableError):
        inverse_taylor_coeff(t, 4, 0)


# -- the expansion itself ----------------------------------------------------


def test_paper_first_two_coefficients_symbolically():
    t = CoeffTable.symbolic(2)
    f = fsym
    y1 = -f(1, 0) * f(0, 1) ** -1
    y2 = (2 * f(0, 1) ** -2 * f(1, 0) * f(1, 1)
          - f(0, 1) ** -1 * f(2, 0)
          - f(0, 1) ** -3 * f(0, 2) * f(1, 0) ** 2)
    for method in ("direct", "compose", "newton"):
        r = expand(t, 2, method)
        assert r.y[0] == y1, method
        assert r.y[1] == y2, method


def test_known_census_counts():
    t = CoeffTable.symbolic(4)
    r = expand_direct(t)
    assert [monomial_count(v) for v in r.y] == [1, 3, 9, 24]


def test_geometric_and_lambert_closed_forms():
    g = builtin_table("geometric", 10)
    for method in ("direct", "compose", "newton"):
        assert expand(g, 10, method).y == [factorial(n) for n in range(1, 11)]
    lam = builtin_table("lambert", 8)
    for method in ("direct", "compose", "newton"):
        assert expand(lam, 8, method).y == [Fraction((-n) ** (n - 1))
                                            for n in range(1, 9)]


def test_methods_agree_on_random_tables():
    rng = random.Random(777)
    for _ in range(12):
        t = _random_table(rng, 5)
        rd = expand_direct(t)
        rc = expand_compose(t)
        rn = expand_newton(t)
        assert rd.y == rc.y == rn.y


def test_methods_agree_symbolically():
    for order in (4, 6):
        t = CoeffTable.symbolic(order)
        assert expand_direct(t).y == expand_compose(t).y == expand_newton(t).y


def test_compose_builds_each_g_k_only_through_n_minus_k(monkeypatch):
    # f(x,0)^k / k! has valuation k, so only x^0..x^(N-k) of g_k can reach
    # the result; compose must not build g_k any further
    requests = []
    inverse_coeff_series = implicit._inverse_coeff_series

    def recording(table, k, order):
        requests.append((k, order))
        return inverse_coeff_series(table, k, order)

    monkeypatch.setattr(implicit, "_inverse_coeff_series", recording)
    dense = _random_table(random.Random(808), 6, zero_chance=0.0)
    for table, order in ((CoeffTable.symbolic(6), 6), (dense, 4)):
        requests.clear()
        got = expand_compose(table, order).y
        assert requests == [(k, order - k) for k in range(1, order + 1)]
        assert got == expand_direct(table, order).y


def test_scaling_in_x():
    # replacing f(m,n) by lam^m f(m,n) is f(x,y) -> f(lam*x, y), whose
    # solution is y(lam*x); EGF coefficients pick up lam^m
    rng = random.Random(99)
    for lam in (Fraction(2), Fraction(-1), Fraction(1, 3)):
        t = _random_table(rng, 5)
        scaled = CoeffTable(
            5, {(m, n): lam ** m * v for (m, n), v in t.entries().items()})
        base = expand_newton(t).y
        got = expand_newton(scaled).y
        assert got == [lam ** m * v for m, v in enumerate(base, 1)]


def test_scaling_in_y():
    # replacing f(m,n) by mu^n f(m,n) is f(x, mu*y), solved by y(x)/mu
    rng = random.Random(98)
    for mu in (Fraction(2), Fraction(-1), Fraction(1, 3)):
        t = _random_table(rng, 5)
        scaled = CoeffTable(
            5, {(m, n): mu ** n * v for (m, n), v in t.entries().items()})
        base = expand_newton(t).y
        got = expand_newton(scaled).y
        assert got == [v / mu for v in base]


def test_specialization_consistency():
    # generic coefficients evaluated at a table equal that table's expansion
    rng = random.Random(4242)
    sym = expand_direct(CoeffTable.symbolic(4)).y
    for _ in range(10):
        t = _random_table(rng, 4)
        concrete = expand_newton(t).y
        assert [specialize(v, t) for v in sym] == concrete


def test_truncation_stability():
    rng = random.Random(31337)
    t = _random_table(rng, 6)
    full = expand_direct(t, 6).y
    for k in (1, 3, 5):
        assert expand_direct(t, k).y == full[:k]
    assert expand_compose(t, 4).y == full[:4]
    assert expand_newton(t, 4).y == full[:4]


@pytest.mark.parametrize("method", ["direct", "compose", "newton"])
@pytest.mark.parametrize("order", [0, -1, 4])
def test_expand_rejects_orders_outside_the_table(method, order):
    t = builtin_table("geometric", 3)
    with pytest.raises(TableError, match=r"outside 1\.\.3"):
        expand(t, order, method)


def test_expand_order_and_validity_errors():
    t = builtin_table("geometric", 3)
    with pytest.raises(TableError):
        expand_direct(t, 4)
    with pytest.raises(ValueError):
        expand(t, 3, "divination")
    bad = CoeffTable(2, {(1, 0): 1})
    for fn in (expand_direct, expand_compose, expand_newton):
        with pytest.raises(NotExpandableError):
            fn(bad)


def test_result_diagnostics_and_accessors():
    t = builtin_table("geometric", 4)
    r = expand_direct(t)
    assert r.order == 4 and r.method == "direct"
    assert r.coeff(1) == 1 and r.coeff(4) == 24
    with pytest.raises(IndexError):
        r.coeff(5)
    assert len(r.diagnostics) == 4
    for d in r.diagnostics:
        assert d["monomials"] == 1
        assert d["seconds"] >= 0.0


def test_monomial_count_on_scalars():
    assert monomial_count(Fraction(3, 2)) == 1
    assert monomial_count(Fraction(0)) == 0
    assert monomial_count(fsym(1, 0) + 1) == 2


def test_zero_column_zero_solution():
    # f with no pure-x terms has y = 0 identically
    t = CoeffTable(4, {(0, 1): 1, (1, 1): 2, (0, 2): 3})
    for method in ("direct", "compose", "newton"):
        assert expand(t, 4, method).y == [0, 0, 0, 0]


def test_direct_coefficient_bounds():
    t = CoeffTable.symbolic(2)
    with pytest.raises(TableError):
        y_coeff_direct(t, 3)
    with pytest.raises(TableError):
        y_coeff_direct(t, 0)


def test_newton_handles_symbolic_tables():
    t = CoeffTable.symbolic(3)
    r = expand_newton(t)
    assert isinstance(r.y[2], LaurentPoly)
    assert monomial_count(r.y[2]) == 9


def test_specialize_rejects_foreign_symbols():
    from implicitseries.algebra import xsym
    t = builtin_table("geometric", 2)
    with pytest.raises(ValueError):
        specialize(xsym(1), t)


# -- canonical scalars, bounded state, diagnostics ---------------------------


def _has_integral_fraction(value):
    coeffs = value.terms().values() if isinstance(value, LaurentPoly) else [value]
    return any(type(c) is not int and c.denominator == 1 for c in coeffs)


@pytest.mark.parametrize("method", ["direct", "compose", "newton"])
def test_integral_coefficients_are_stored_as_ints(method):
    for table in (CoeffTable.symbolic(7), builtin_table("lambert", 12)):
        ys = expand(table, table.order, method).y
        assert not any(_has_integral_fraction(v) for v in ys)


@lru_cache(maxsize=None)
def _generic_y(method):
    return tuple(expand(CoeffTable.symbolic(5), 5, method).y)


_small_rationals = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def _small_rational_tables(draw):
    order = draw(st.integers(1, 5))
    entries = {
        (m, n): draw(_small_rationals)
        for m in range(order + 1)
        for n in range(order + 1)
        if (m, n) != (0, 0)
    }
    entries[(0, 1)] = draw(_small_rationals.filter(bool))
    return CoeffTable(order, entries, "rational")


@settings(max_examples=25, deadline=None)
@given(_small_rational_tables())
def test_generic_coefficients_specialize_to_rational_ones(t):
    for method in ("direct", "compose", "newton"):
        want = expand(t, t.order, method).y
        got = [specialize(v, t) for v in _generic_y(method)[: t.order]]
        assert got == want
        assert not any(_has_integral_fraction(v) for v in got + want)


# -- the online Newton recurrence against per-order substitution --------------


def _newton_by_substitution(table, order):
    """The reference for expand_newton: substitute the partial solution
    afresh at every order and read off coefficient m of the residual."""
    f = as_bivariate(table, order)
    inv01 = invert_scalar(table.entry(0, 1))
    ys = []
    for m in range(1, order + 1):
        residual = f.substitute_y(TaylorEGF([0] + ys, order=m), order=m)
        ys.append(as_coefficient(-(residual.coeffs[m] * inv01)))
    return ys


def _assert_same_canonical(got, want):
    """Equal values of equal types, and every scalar canonical.  (Inside a
    LaurentPoly the kernel may keep an integral Fraction; the algebra
    module's docstring says why.)"""
    assert got == want
    assert [type(v) for v in got] == [type(v) for v in want]
    for v in got:
        if not isinstance(v, LaurentPoly):
            assert type(v) is (int if v.denominator == 1 else Fraction)


_sparse_rationals = st.one_of(st.just(0), _small_rationals)


@st.composite
def _rational_tables_and_orders(draw, max_size=8):
    size = draw(st.integers(1, max_size))
    entries = {
        (m, n): draw(_sparse_rationals)
        for m in range(size + 1)
        for n in range(size + 1)
        if (m, n) != (0, 0)
    }
    entries[(0, 1)] = draw(_small_rationals.filter(bool))
    return CoeffTable(size, entries, "rational"), draw(st.integers(1, size))


@st.composite
def _symbolic_tables(draw):
    """Tables mixing zeros, rationals and rational multiples of symbols."""
    size = draw(st.integers(1, 5))
    entries = {}
    for m in range(size + 1):
        for n in range(size + 1):
            if (m, n) == (0, 0):
                continue
            c = draw(_sparse_rationals)
            entries[(m, n)] = c * fsym(m, n) if draw(st.booleans()) else c
    f01 = draw(_small_rationals.filter(bool))
    entries[(0, 1)] = f01 * fsym(0, 1) if draw(st.booleans()) else f01
    return CoeffTable(size, entries, "symbolic")


@settings(max_examples=60, deadline=None)
@given(_rational_tables_and_orders())
def test_newton_recurrence_matches_substitution_on_rational_tables(case):
    t, order = case
    _assert_same_canonical(expand_newton(t, order).y, _newton_by_substitution(t, order))


@settings(max_examples=25, deadline=None)
@given(_symbolic_tables())
def test_newton_recurrence_matches_substitution_on_symbolic_tables(t):
    _assert_same_canonical(expand_newton(t).y, _newton_by_substitution(t, t.order))


# -- the three methods agree on random input ----------------------------------


def _assert_methods_agree(table, order):
    want = expand(table, order, "direct").y
    for method in ("compose", "newton"):
        _assert_same_canonical(expand(table, order, method).y, want)


@settings(max_examples=40, deadline=None)
@given(_rational_tables_and_orders(max_size=6))
def test_methods_agree_on_random_rational_tables(case):
    _assert_methods_agree(*case)


_leaves = st.one_of(st.just("x"), st.just("y"), _small_rationals.map(lambda c: f"({c})"))


@st.composite
def _trees(draw, leaves):
    """Expression text: a tree of + - * over x, y and rational literals,
    any node of which may be raised to a power 0..3."""
    if leaves == 1:
        tree = draw(_leaves)
    else:
        left = draw(st.integers(1, leaves - 1))
        op = draw(st.sampled_from("+-*"))
        tree = f"({draw(_trees(left))} {op} {draw(_trees(leaves - left))})"
    if draw(st.integers(0, 3)) == 0:
        tree = f"({tree}^{draw(st.integers(0, 3))})"
    return tree


@st.composite
def _expression_tables(draw):
    """f = y + x*T(x,y) for a random tree T, so f(0,0) = 0 and f(0,1) = 1."""
    tree = draw(_trees(draw(st.integers(2, 6))))
    return table_from_expr(f"y + x*{tree}", draw(st.integers(1, 6)))


@settings(max_examples=150, deadline=None)
@given(_expression_tables())
def test_methods_agree_on_random_expression_tables(t):
    _assert_methods_agree(t, t.order)


def test_newton_substitutes_once_for_the_final_residual(monkeypatch):
    orders = []
    substitute_y = BivariateEGF.substitute_y

    def counting(self, u, order=None):
        orders.append(order)
        return substitute_y(self, u, order)

    monkeypatch.setattr(BivariateEGF, "substitute_y", counting)
    for t in (builtin_table("lambert", 9), CoeffTable.symbolic(4)):
        orders.clear()
        expand_newton(t)
        assert orders == [t.order]
        orders.clear()
        expand_newton(t, 3)
        assert orders == [3]


def test_newton_raises_on_a_nonzero_final_residual(monkeypatch):
    substitute_y = BivariateEGF.substitute_y

    def off_by_one_at_the_top(self, u, order=None):
        r = substitute_y(self, u, order)
        return r + TaylorEGF([0] * r.order + [1])

    monkeypatch.setattr(BivariateEGF, "substitute_y", off_by_one_at_the_top)
    with pytest.raises(InvariantError):
        expand_newton(builtin_table("lambert", 6))


def _module_state_sizes():
    sizes = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "implicitseries" or name.startswith("implicitseries.")):
            continue
        for attr, value in vars(module).items():
            if attr.startswith("__"):
                continue
            info = getattr(value, "cache_info", None)
            if callable(info):
                sizes[name, attr] = info().currsize
            elif isinstance(value, (dict, list, set)):
                sizes[name, attr] = len(value)
    return sizes


def test_distinct_tables_leave_no_growing_module_cache():
    rng = random.Random(606)
    methods = ("direct", "compose", "newton")
    # a dense table reaches every order-keyed cache entry a sparser one can
    for method in methods:
        expand(_random_table(rng, 6, zero_chance=0.0), 6, method)
    before = _module_state_sizes()
    for _ in range(20):
        t = _random_table(rng, 6)
        for method in methods:
            expand(t, 6, method)
    assert _module_state_sizes() == before


@pytest.mark.parametrize("method", ["direct", "compose", "newton"])
def test_diagnostic_seconds_sum_to_at_most_the_call(method):
    t = CoeffTable.symbolic(6)
    t0 = time.perf_counter()
    r = expand(t, 6, method)
    wall = time.perf_counter() - t0
    assert len(r.diagnostics) == 6
    assert sum(d["seconds"] for d in r.diagnostics) <= wall
