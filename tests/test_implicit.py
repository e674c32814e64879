"""The three expansion paths, their agreement, and the table plumbing.

The Newton path never touches the combinatorial machinery, so agreement of
all three methods on random tables is a genuine cross-check, not an echo.
"""

import gc
import random
import sys
import time
import tracemalloc
from fractions import Fraction
from functools import lru_cache
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from implicitseries import algebra, implicit
from implicitseries.algebra import (
    LaurentPoly,
    as_coefficient,
    decode,
    fcode,
    fsym,
    invert_scalar,
)
from implicitseries.combinatorics import (
    compositions,
    generic_monomial_count,
    inverse_partition_terms,
)
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
    # the square 0 <= m, n <= order is accepted, and what lies past the
    # triangle m + n <= order is dropped: no expansion reads it
    t = CoeffTable(3, {(0, 1): Fraction(1, 2), (2, 2): 5, (3, 3): 1})
    assert t.entry(0, 1) == Fraction(1, 2)
    assert t.entry(3, 0) == t.entry(1, 2) == 0
    assert t.entries() == {(0, 1): Fraction(1, 2)}
    for m, n in ((4, 0), (2, 2), (3, 3), (-1, 1)):
        with pytest.raises(TableError):
            t.entry(m, n)
    with pytest.raises(TableError):
        CoeffTable(0, {})
    with pytest.raises(TableError):
        CoeffTable(2, {(5, 0): 1})
    with pytest.raises(TableError):
        CoeffTable(2, {(2, 2): fsym(0, 1)}, "rational")
    with pytest.raises(TableError):
        CoeffTable(2, {(0, 1): fsym(0, 1)}, "rational")
    with pytest.raises(TableError):
        CoeffTable(2, {}, "other")


def test_symbolic_table_shape():
    # one symbol per slot of the triangle m + n <= 3 but (0, 0), which is
    # all an expansion to order 3 reads and all the table holds
    t = CoeffTable.symbolic(3)
    assert t.mode == "symbolic"
    assert t.entry(0, 0) == 0
    assert t.entry(1, 2) == fsym(1, 2)
    with pytest.raises(TableError):
        t.entry(2, 3)
    assert t.entries() == {(m, n): fsym(m, n) for m in range(4) for n in range(4 - m)
                           if (m, n) != (0, 0)}
    assert len(CoeffTable.symbolic(15).entries()) == 135
    assert validate_table(t) == []


def test_builtin_tables():
    g = builtin_table("geometric", 4)
    assert g.entry(0, 1) == 1 and g.entry(1, 0) == -1 and g.entry(1, 1) == -1
    lam = builtin_table("lambert", 4)
    assert lam.entry(1, 0) == -1
    assert [lam.entry(0, n) for n in range(5)] == [0, 1, 2, 3, 4]
    with pytest.raises(TableError):
        builtin_table("cubic", 4)
    for name in ("geometric", "lambert"):
        with pytest.raises(TableError, match="at least 1"):
            builtin_table(name, 0)


def test_column_series_and_bivariate_view():
    t = builtin_table("lambert", 3)
    col0 = column_series(t, 0)
    assert list(col0.coeffs) == [0, -1, 0, 0]
    # column n runs through x^(N-n), its part of the triangle
    col1 = column_series(t, 1)
    assert list(col1.coeffs) == [1, 0, 0]
    assert column_series(t, 1, order=1).coeffs == (1, 0)
    f = as_bivariate(t, 2)
    assert f.coeffs == ((0, 1, 2), (-1, 0), (0,))
    assert as_bivariate(t).coeffs == ((0, 1, 2, 3), (-1, 0, 0), (0, 0), (0,))
    for n, order in ((4, None), (1, 3), (3, 1)):
        with pytest.raises(TableError):
            column_series(t, n, order)


# -- the inverse-relation coefficients --------------------------------------


def test_inverse_taylor_coeff_known_symbolic_values():
    t = CoeffTable.symbolic(4)
    f = fsym
    assert inverse_taylor_coeff(t, 1, 0) == f(0, 1) ** -1
    assert inverse_taylor_coeff(t, 1, 1) == -f(1, 1) * f(0, 1) ** -2
    assert inverse_taylor_coeff(t, 2, 0) == -f(0, 2) * f(0, 1) ** -3


def _inverse_coeff_by_compositions(table, k, l):
    """a(k, l) by the product rule: for each partition term of the
    first-kind polynomial of index (k, 1), spread l x-derivatives over its
    column powers in every weak composition of l, with weights l!/prod j!.
    Shares neither the series g_k nor the column-power cache with
    inverse_taylor_coeff."""
    total = 0
    for r, weight in inverse_partition_terms(k):
        slots = [(1, r[0] - 2 * k + 1)]
        slots.extend((nu, r[nu - 1]) for nu in range(2, k + 1) if r[nu - 1])
        powers = [column_series(table, nu, l).pow_int(e).coeffs for nu, e in slots]
        for j in compositions(l, len(slots)):
            term = weight * factorial(l)
            for coeffs, jv in zip(powers, j):
                term = term * coeffs[jv] * Fraction(1, factorial(jv))
            total = total + term
    return as_coefficient(total)


def test_inverse_taylor_coeff_matches_composition_reference():
    rng = random.Random(321)
    for _ in range(8):
        t = _random_table(rng, 5)
        for k in range(1, 6):
            for l in range(0, 6 - k):
                want = _inverse_coeff_by_compositions(t, k, l)
                assert inverse_taylor_coeff(t, k, l) == want, (k, l)


def test_inverse_taylor_coeff_symbolic_matches_composition_reference():
    t = CoeffTable.symbolic(5)
    for k in range(1, 6):
        for l in range(0, 6 - k):
            want = _inverse_coeff_by_compositions(t, k, l)
            assert inverse_taylor_coeff(t, k, l) == want, (k, l)


def test_inverse_taylor_coeff_bounds():
    # a(k, l) exists for k + l <= N: g_k is exact through x^(N-k)
    t = CoeffTable.symbolic(3)
    assert inverse_taylor_coeff(t, 1, 2) and inverse_taylor_coeff(t, 3, 0)
    for k, l in ((0, 1), (1, -1), (1, 3), (2, 2), (3, 1), (4, 0)):
        with pytest.raises(TableError):
            inverse_taylor_coeff(t, k, l)


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


def test_generic_monomial_count_matches_the_direct_census():
    r = expand_direct(CoeffTable.symbolic(10))
    assert [monomial_count(v) for v in r.y] == [
        generic_monomial_count(n) for n in range(1, 11)]


def test_generic_monomial_count_matches_the_direct_y_16():
    # one past the published y_15 census
    y = y_coeff_direct(CoeffTable.symbolic(16), 16)
    assert monomial_count(y) == generic_monomial_count(16) == 168_883


def test_generic_coefficient_signs_follow_the_f01_power():
    # a monomial with the factor F(0,1)^-k has sign (-1)^k, and its other
    # exponents r satisfy the two sums that generic_monomial_count counts
    f01 = fcode(0, 1)
    for n, y in enumerate(expand_direct(CoeffTable.symbolic(8)).y, 1):
        for mon, c in y.terms().items():
            exps = dict(zip(mon[::2], mon[1::2]))
            k = -exps.pop(f01)
            assert (c > 0) == (k % 2 == 0), (n, mon, c)
            slots = [(decode(code)[1:], e) for code, e in exps.items()]
            assert sum(e for _, e in slots) == k
            assert sum(m * e for (m, _), e in slots) == n
            assert sum((nn - 1) * e for (_, nn), e in slots) == -1


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


def _recording_build_g(monkeypatch):
    """The (j, order) of every `_build_g` call from here on, in order."""
    builds = []
    build_g = implicit._build_g

    def recording(table, powers, j, order):
        builds.append((j, order))
        return build_g(table, powers, j, order)

    monkeypatch.setattr(implicit, "_build_g", recording)
    return builds


def test_compose_builds_each_g_k_only_through_n_minus_k(monkeypatch):
    # f(x,0)^k / k! has valuation k, so only x^0..x^(N-k) of g_k can reach
    # a y_m, N the table order; compose at M <= N builds g_k no further,
    # and only for k <= M
    builds = _recording_build_g(monkeypatch)
    dense = _random_table(random.Random(808), 6, zero_chance=0.0)
    for table, order in ((CoeffTable.symbolic(6), 6), (dense, 4)):
        builds.clear()
        got = expand_compose(table, order).y
        assert builds == [(k, 6 - k) for k in range(1, order + 1)]
        built, _ = table._cache["inverse"]
        assert [g.order for g in built] == [6 - k for k in range(1, order + 1)]
        assert got == expand_direct(table, order).y
    # (-f(x,0))^k has valuation 3k when f(x,0) = -x^3, so only g_1 and g_2
    # reach x^7; a zero f(x,0) column needs no g_k at all
    for src, want in (("y*exp(y) + x*y - x^3", [(1, 8), (2, 7)]), ("y*exp(x + y)", [])):
        table = table_from_expr(src, 9)
        builds.clear()
        got = expand_compose(table, 7).y
        assert builds == want
        assert len(table._cache["inverse"][0]) == len(want)
        assert got == expand_direct(table, 7).y


def test_compose_sums_through_one_substitution(monkeypatch):
    # compose is G(x, -f(x,0)) by BivariateEGF.substitute_y, the routine
    # newton's final check uses, and makes no sum of its own
    calls = []
    substitute_y = BivariateEGF.substitute_y

    def recording(self, u, order=None):
        calls.append(u)
        return substitute_y(self, u, order)

    monkeypatch.setattr(BivariateEGF, "substitute_y", recording)
    for table in (CoeffTable.symbolic(5), builtin_table("lambert", 8)):
        calls.clear()
        expand_compose(table)
        assert calls == [-column_series(table, 0)]


def test_direct_builds_the_top_column_power_only_to_its_constant_term():
    # column1^-(2N-1) occurs only in g_N, which y_m reads at x^0
    order = 6
    t = CoeffTable.symbolic(order)
    expand_direct(t)
    _, powers = t._cache["inverse"]
    assert powers[(1, -(2 * order - 1))].order == 0


def test_direct_then_compose_build_each_column_power_once(monkeypatch):
    builds = {}
    column_power = implicit._column_power

    def counting(table, powers, n, exponent, order):
        before = powers.get((n, exponent))
        val = column_power(table, powers, n, exponent, order)
        if powers.get((n, exponent)) is not before:
            builds[(n, exponent)] = builds.get((n, exponent), 0) + 1
        return val

    monkeypatch.setattr(implicit, "_column_power", counting)
    dense = _random_table(random.Random(909), 6, zero_chance=0.0)
    for table in (CoeffTable.symbolic(6), dense):
        builds.clear()
        direct = expand_direct(table).y
        assert expand_compose(table).y == direct
        assert builds and set(builds.values()) == {1}, builds


def _series_orders(table):
    return [g.order for g in table._cache["inverse"][0]]


def test_inverse_taylor_coeff_is_exact_in_any_call_order():
    # every a(k, l) reads the one memo, which holds each g_k it builds
    # through x^(N-k), so no call order changes what another call reads
    order = 6
    calls = [(6, 0), (5, 0), (3, 3), (5, 1)] + [(k, order - k) for k in (1, 2, 4)]
    fresh = {(k, l): inverse_taylor_coeff(CoeffTable.symbolic(order), k, l)
             for k, l in calls}
    for seq in (calls, calls[::-1], sorted(calls, key=lambda c: (c[1], -c[0]))):
        t = CoeffTable.symbolic(order)
        for k, l in seq:
            assert inverse_taylor_coeff(t, k, l) == fresh[(k, l)], (k, l)
        for k, l in seq:
            assert inverse_taylor_coeff(t, k, l) == fresh[(k, l)], (k, l)
        assert _series_orders(t) == [order - k for k in range(1, order + 1)]


def test_each_g_k_is_exact_through_n_minus_k():
    # the memo holds g_k through x^(N-k), and no entry past the triangle
    # moves what it holds: the generic table of order N + 2, whose symbols
    # fill a larger triangle, holds the same g_k through x^(N-k)
    order = 6
    t = CoeffTable.symbolic(order)
    direct = expand_direct(t).y
    assert _series_orders(t) == [order - k for k in range(1, order + 1)]
    held = list(t._cache["inverse"][0])
    larger = CoeffTable.symbolic(order + 2)
    for k in range(1, order + 1):
        assert [inverse_taylor_coeff(larger, k, l) for l in range(order - k + 1)] == list(
            held[k - 1].coeffs)
    assert _series_orders(larger) == [order + 2 - k for k in range(1, order + 1)]
    assert t._cache["inverse"][0] == held
    assert expand_compose(t).y == direct


def test_direct_makes_no_inverse_taylor_coeff_call(monkeypatch):
    # direct reads each g_k from the memo once per coefficient, not a(k, l)
    # through the public, checked accessor once per term
    calls = []
    inverse_taylor = implicit.inverse_taylor_coeff

    def recording(table, k, l):
        calls.append((k, l))
        return inverse_taylor(table, k, l)

    monkeypatch.setattr(implicit, "inverse_taylor_coeff", recording)
    t = CoeffTable.symbolic(6)
    assert expand_direct(t).y == expand_newton(t).y
    assert calls == []


@pytest.mark.parametrize("table", [
    CoeffTable.symbolic(4),
    _random_table(random.Random(1212), 6, zero_chance=0.0),
], ids=["symbolic4", "dense6"])
def test_the_inverse_memo_stays_bounded_and_replaces_nothing(table):
    # direct, compose at every order and every public a(k, l), in any order:
    # the table holds the Bell memo and one inverse memo, each g_j in it
    # exact through x^(N-j), and a g_j or a column power, once held, is
    # never replaced
    order = table.order

    def direct(t):
        expand_direct(t)

    def compose(t):
        for m in range(1, order + 1):
            expand_compose(t, m)

    def public(t):
        for k in range(1, order + 1):
            for l in range(order - k + 1):
                inverse_taylor_coeff(t, k, l)

    for steps in ((direct, compose, public), (compose, public, direct),
                  (public, direct, compose)):
        t = CoeffTable(order, table.entries(), table.mode)
        seen = {}
        for step in steps:
            step(t)
            gs, powers = t._cache["inverse"]
            for name, value in [*enumerate(gs), *powers.items()]:
                assert seen.setdefault(name, value) is value, name
        assert set(t._cache) == {"bell", "inverse"}
        assert _series_orders(t) == [order - j for j in range(1, order + 1)]


def test_each_g_k_is_built_once_whatever_order_the_methods_run_in(monkeypatch):
    # compose below the table order, then direct, then every a(k, l) that
    # the memo covers: one build of each g_j in all
    builds = _recording_build_g(monkeypatch)
    for table in (CoeffTable.symbolic(6), builtin_table("lambert", 8),
                  _random_table(random.Random(1414), 6, zero_chance=0.0)):
        order = table.order
        builds.clear()
        compose = expand_compose(table, order - 2).y
        direct = expand_direct(table).y
        assert compose == direct[:order - 2]
        for k in range(1, order + 1):
            for l in range(order - k + 1):
                inverse_taylor_coeff(table, k, l)
        assert builds == [(j, order - j) for j in range(1, order + 1)]


@pytest.mark.parametrize("table", [CoeffTable.symbolic(6), builtin_table("lambert", 8)],
                         ids=["symbolic6", "lambert8"])
def test_compose_below_the_table_order_reads_direct_s_g_k(monkeypatch, table):
    # the memo holds each g_k through x^(N-k), which covers what compose
    # at N-1 reads, so compose builds no g_k
    order = table.order
    direct = expand_direct(table).y
    builds = []
    for name in ("_partition_g", "_lagrange_g"):
        monkeypatch.setattr(implicit, name, lambda *args: builds.append(args))
    assert expand_compose(table, order - 1).y == direct[:-1]
    assert builds == []


_column_kinds = st.sampled_from(["zero", "constant", "polynomial", "dense"])


@st.composite
def _lagrange_tables(draw):
    """Rational tables whose columns are zero, constant, polynomials of low
    degree or dense in x; column 1 starts with a unit such as 2 or 1/3, and
    is that unit alone in about a third of the draws, so that the Miller
    steps of g_j stop short of its order."""
    size = draw(st.integers(1, 8))
    unit_column_1 = draw(st.sampled_from([True, False, False]))
    entries = {(m, 0): draw(_small_rationals) for m in range(1, size + 1)}
    for n in range(1, size + 1):
        kind = "constant" if n == 1 and unit_column_1 else draw(_column_kinds)
        top = {"zero": -1, "constant": 0, "dense": size}.get(kind)
        if top is None:
            top = draw(st.integers(1, max(1, size // 2)))
        for m in range(top + 1):
            entries[(m, n)] = draw(_sparse_rationals)
    entries[(0, 1)] = draw(st.sampled_from([1, -1, 2, Fraction(1, 3), Fraction(-5, 2)]))
    return CoeffTable(size, entries, "rational")


@settings(max_examples=80, deadline=None)
@given(_lagrange_tables(), st.integers(0, 3))
def test_lagrange_g_matches_the_partition_sum(t, extra):
    # every g_j, built in turn with falling orders as _inverse_coeff_series
    # builds them (extra = 0), and through up to extra more powers of x, on
    # the table padded with zeros to order N + extra
    size = t.order
    t = CoeffTable(size + extra, t.entries())
    lagrange, partition = {}, {}
    for j in range(1, size + 1):
        order = t.order - j
        got = implicit._lagrange_g(t, lagrange, j, order)
        want = implicit._partition_g(t, partition, j, order)
        _assert_same_canonical(list(got.coeffs), list(want.coeffs))


def _recording_kernel(monkeypatch):
    """The (order, output) of every `_convolve` call that implicit makes
    from here on, in order."""
    calls = []
    kernel = implicit._convolve

    def recording(terms, order):
        out = kernel(terms, order)
        calls.append((order, out))
        return out

    monkeypatch.setattr(implicit, "_convolve", recording)
    return calls


def test_a_miller_step_whose_top_coefficient_cancels_reaches_below_its_bound(monkeypatch):
    # f = x + y - y^2/2! - y^3/3! - y^4/4! + x^2 y^3 / (2! 3!): column 1 is
    # the constant 1, and two steps of g_4 sum to 0 at x^1, their bound, so
    # their reach falls to x^0.  Every g_k must still be the partition sum's
    entries = {(1, 0): 1, (0, 1): 1, (0, 2): -1, (0, 3): -1, (0, 4): -1, (2, 3): 1}
    t = CoeffTable(5, entries, "rational")
    calls = _recording_kernel(monkeypatch)
    lagrange, partition = {}, {}
    for j in range(1, t.order + 1):
        got = implicit._lagrange_g(t, lagrange, j, t.order - j)
        want = implicit._partition_g(t, partition, j, t.order - j)
        _assert_same_canonical(list(got.coeffs), list(want.coeffs))
    cancelled = [(order, out) for order, out in calls if any(out) and not out[-1]]
    assert cancelled
    assert all(max(l for l, c in enumerate(out) if c) < order for order, out in cancelled)


def test_the_miller_steps_ask_only_for_coefficients_their_operands_reach(monkeypatch):
    # a host-independent count of the work, the output coefficients the
    # kernel is asked for while every g_k is built: on Lambert every b_i
    # and q_n is a constant, so each of the 780 steps of g_1..g_40 asks
    # for one, where asking each for all N - j + 1 made 10,660; a dense
    # table reaches x^order at every step and asks for as many as before
    calls = _recording_kernel(monkeypatch)

    def asked(table):
        calls.clear()
        implicit._inverse_coeff_series(table, table.order)
        return sum(order + 1 for order, _ in calls)

    assert asked(builtin_table("lambert", 40)) <= 1560
    assert asked(table_from_expr("log(1+x+y)*exp(x*y)+y", 12)) == 286


def _flat_partition_g(table, j, order):
    """g_j through x^order as the flat partition sum: for each vector r,
    its weight times the product of its column powers, each power built
    afresh by pow_int and multiplied in by the series product."""
    total = TaylorEGF.zero(order)
    for r, weight in inverse_partition_terms(j):
        prod = column_series(table, 1, order).pow_int(r[0] - 2 * j + 1)
        for nu in range(2, j + 1):
            if r[nu - 1]:
                prod = prod * column_series(table, nu, order).pow_int(r[nu - 1])
        total = total + TaylorEGF([weight * c for c in prod.coeffs])
    return total


def _assert_partition_g_is_the_flat_sum(table):
    # one powers dict across j, with the falling orders of the memo
    powers = {}
    for j in range(1, table.order + 1):
        order = table.order - j
        got = implicit._partition_g(table, powers, j, order)
        want = _flat_partition_g(table, j, order)
        _assert_same_canonical(list(got.coeffs), list(want.coeffs))


def test_partition_g_is_the_flat_partition_sum_symbolically():
    # the nested sum regroups the terms of the flat one and must not
    # change a single monomial
    _assert_partition_g_is_the_flat_sum(CoeffTable.symbolic(7))


@settings(max_examples=60, deadline=None)
@given(_lagrange_tables())
def test_partition_g_is_the_flat_partition_sum_on_rational_tables(t):
    _assert_partition_g_is_the_flat_sum(t)


def test_the_generic_y_12_makes_at_most_35000_term_pairs(monkeypatch):
    # every term product of the kernel runs through addmul_terms; the
    # nested partition sum makes 32,244 term pairs for the generic y_12,
    # where the flat sum, one product chain per partition, made 40,207
    pairs = [0]
    kernel = algebra.addmul_terms

    def counting(out, k, a, b):
        pairs[0] += len(a) * len(b)
        return kernel(out, k, a, b)

    monkeypatch.setattr(algebra, "addmul_terms", counting)
    y = y_coeff_direct(CoeffTable.symbolic(12), 12)
    assert monomial_count(y) == generic_monomial_count(12)
    assert pairs[0] <= 35_000


def test_lambert_inverse_relation_at_60_is_the_tree_function():
    # y e^y = t has the reversion sum_k (-k)^(k-1) t^k / k!
    table = builtin_table("lambert", 60)
    assert [inverse_taylor_coeff(table, k, 0) for k in range(1, 61)] == [
        (-k) ** (k - 1) for k in range(1, 61)]


@pytest.mark.parametrize("table, calls", [
    (_random_table(random.Random(1313), 6), False),
    (builtin_table("lambert", 8), False),
    (CoeffTable.symbolic(6), True),
], ids=["rational6", "lambert8", "symbolic6"])
def test_only_symbolic_tables_enumerate_partitions(monkeypatch, table, calls):
    # rational g_k come from Lagrange inversion; symbolic ones keep the
    # paper's partition sum, whose size is that of g_k
    seen = []
    terms = implicit.inverse_partition_terms

    def counting(n):
        seen.append(n)
        return terms(n)

    monkeypatch.setattr(implicit, "inverse_partition_terms", counting)
    assert expand_direct(table).y == expand_newton(table).y
    assert bool(seen) is calls


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


@pytest.mark.parametrize("entries", [
    {(0, 1): fsym(0, 1), (1, 0): -fsym(0, 1)},  # y = x: y_2.. are zero
    {(0, 1): fsym(0, 1), (1, 0): fsym(1, 0), (2, 0): fsym(2, 0)},
])
def test_symbolic_coefficients_are_polynomials_by_every_method(entries):
    t = CoeffTable(4, entries, "symbolic")
    results = [expand(t, 4, m).y for m in ("direct", "compose", "newton")]
    assert results[0] == results[1] == results[2]
    for ys in results:
        assert all(type(y) is LaurentPoly for y in ys)
    assert all(type(y_coeff_direct(t, m)) is LaurentPoly for m in range(1, 5))
    assert all(type(y) is not LaurentPoly for y in expand(builtin_table("geometric", 4)).y)


def test_direct_sums_every_product_in_one_fused_pass(monkeypatch):
    # a(k, l) * B(n, k), the C(m, n) scaling, the column-power products and
    # the sums behind g_k and y_m all go through algebra.dot: on the way to
    # y_m no polynomial is added to another or scaled by a number on its own.
    # g_1, the one reciprocal of column 1, a plain recurrence run once per
    # table, is built beforehand.
    table = CoeffTable.symbolic(8)
    implicit._inverse_coeff_series(table, 1)
    calls = []

    def refused(name, operand_is_ok):
        inner = getattr(LaurentPoly, name)

        def wrapper(self, other):
            if not operand_is_ok(other):
                calls.append(name)
            return inner(self, other)
        return wrapper

    for name in ("__add__", "__radd__", "__sub__", "__rsub__"):
        monkeypatch.setattr(LaurentPoly, name, refused(name, lambda other: False))
    for name in ("__mul__", "__rmul__"):
        monkeypatch.setattr(LaurentPoly, name,
                            refused(name, lambda other: isinstance(other, LaurentPoly)))
    y = y_coeff_direct(table, 8)
    assert calls == []
    assert monomial_count(y) == generic_monomial_count(8)


def test_specialize_rejects_foreign_symbols():
    from implicitseries.algebra import xsym
    t = builtin_table("geometric", 2)
    with pytest.raises(ValueError):
        specialize(xsym(1), t)


def test_specialize_of_a_scalar_is_its_canonical_form():
    t = builtin_table("geometric", 2)
    two, third = specialize(Fraction(4, 2), t), specialize(Fraction(1, 3), t)
    assert (two, type(two), third, type(third)) == (2, int, Fraction(1, 3), Fraction)


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


# -- only the triangle m + n <= N reaches y_1..y_N ----------------------------


@st.composite
def _tables_past_the_triangle(draw):
    """(T, Z) for a random rational table Z of order N <= 8 and T of order
    N + E, 1 <= E <= 3: in T every entry with N < m + n <= N + E is a
    random nonzero rational, and the entries with m + n <= N are Z's."""
    size = draw(st.integers(1, 8))
    top = size + draw(st.integers(1, 3))
    inside = {(m, n): draw(_sparse_rationals)
              for m in range(size + 1) for n in range(size + 1 - m) if (m, n) != (0, 0)}
    inside[(0, 1)] = draw(_small_rationals.filter(bool))
    outside = {(m, n): draw(_small_rationals.filter(bool))
               for m in range(top + 1) for n in range(max(0, size + 1 - m), top + 1 - m)}
    return (CoeffTable(top, inside | outside, "rational"),
            CoeffTable(size, inside, "rational"))


def _assert_the_triangle_decides(larger, triangle):
    # Sokal's form of the series: a monomial prod f(m, n)^r of y_N has
    # sum m r = N and sum n r = k - 1, k = sum r, so sum (m + n) r =
    # N + k - 1 and each of its slots has m + n <= N.  The larger table's
    # g_k run further in x and read its entries past the triangle
    for method in ("direct", "compose", "newton"):
        _assert_same_canonical(expand(larger, triangle.order, method).y,
                               expand(triangle, triangle.order, method).y)


@settings(max_examples=40, deadline=None)
@given(_tables_past_the_triangle())
def test_entries_past_the_triangle_change_no_coefficient(case):
    _assert_the_triangle_decides(*case)


def test_the_symbolic_triangle_expands_as_a_larger_symbolic_table():
    order = 6
    triangle = CoeffTable.symbolic(order)
    assert len(triangle.entries()) == (order + 1) * (order + 2) // 2 - 1
    _assert_the_triangle_decides(CoeffTable.symbolic(order + 2), triangle)


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


_DENSE_INTEGRAL = "log(1+x+y)*exp(x*y)+y"  # f(0,1) = 2
_DENSE_82_55 = "log(1+x/3+7*y/5)*exp(x*y/2)+y/11"  # f(0,1) = 82/55


def _recording_substitute_y(monkeypatch):
    """The series u of every call of BivariateEGF.substitute_y, in a list."""
    substituted = []
    substitute_y = BivariateEGF.substitute_y

    def recording(self, u, order=None):
        substituted.append(u)
        return substitute_y(self, u, order)

    monkeypatch.setattr(BivariateEGF, "substitute_y", recording)
    return substituted


@pytest.mark.parametrize("text", [_DENSE_INTEGRAL, _DENSE_82_55])
def test_newton_s_check_catches_one_wrong_solved_coefficient(monkeypatch, text):
    # the residual sum s of order m is solved for u_m = -s / (f(0,1) p),
    # which is y_m p^(2m-1), p the numerator of f(0,1); adding p^5 to the
    # solved u_3 makes y_3 one larger, and every later y_m is solved
    # against that wrong y_3
    t = table_from_expr(text, 8)
    want = expand_direct(t).y
    p = Fraction(t.entry(0, 1)).numerator
    residuals = []
    as_coefficient = implicit.as_coefficient

    def corrupting(value):
        residuals.append(value)
        u = as_coefficient(value)
        return u + p ** 5 if len(residuals) == 3 else u

    monkeypatch.setattr(implicit, "as_coefficient", corrupting)
    substituted = _recording_substitute_y(monkeypatch)
    with pytest.raises(InvariantError):
        expand_newton(t)
    assert len(residuals) == 8
    # the check read the wrong y_3, scaled by p^5
    (u,) = substituted
    assert u[3] == (want[2] + 1) * p ** 5


def test_a_symbolic_newton_run_scales_no_polynomial_by_an_int(monkeypatch):
    # the binomials C(m-1, i-1) of the power update and C(t, i) of the
    # check ride in dot's triples as weights; scaling each u_i by its
    # binomial instead made 45 polynomial copies at N = 10
    table = CoeffTable.symbolic(10)
    want = expand_direct(table).y
    products = []
    for name in ("__mul__", "__rmul__"):
        inner = getattr(LaurentPoly, name)

        def wrapper(self, other, inner=inner):
            if not isinstance(other, LaurentPoly):
                products.append(other)
            return inner(self, other)

        monkeypatch.setattr(LaurentPoly, name, wrapper)
    assert expand_newton(table).y == want
    assert products == []


@st.composite
def _tables_with_large_f01(draw):
    """Rational tables of order <= 7 whose f(0,1) has a numerator in
    +-1..+-10^6 and a denominator other than 1, beside small rationals."""
    size = draw(st.integers(1, 7))
    entries = {(m, n): draw(_sparse_rationals)
               for m in range(size + 1) for n in range(size + 1) if 0 < m + n <= size}
    num = draw(st.integers(1, 10**6)) * draw(st.sampled_from([1, -1]))
    den = draw(st.integers(2, 10**4).filter(lambda d: Fraction(num, d).denominator > 1))
    entries[(0, 1)] = Fraction(num, den)
    return CoeffTable(size, entries, "rational")


@settings(max_examples=60, deadline=None)
@given(_tables_with_large_f01())
def test_newton_matches_direct_when_f01_has_a_large_numerator(t):
    _assert_same_canonical(expand_newton(t).y, expand_direct(t).y)


def _recording_dot(monkeypatch):
    """The triples of every call of dot in the implicit module, in a list."""
    calls = []
    dot = implicit.dot

    def recording(triples):
        triples = list(triples)
        calls.append(triples)
        return dot(triples)

    monkeypatch.setattr(implicit, "dot", recording)
    return calls


def test_newton_solves_an_integral_table_in_ints(monkeypatch):
    # f(0,1) = 2: the scaled series f(4x, 2y) is integral, so every sum of
    # the solve is a plain int sum and makes no dot call, and each u_m =
    # y_m 2^(2m-1) is an int, where y_m itself has a power of 2 in its
    # denominator
    calls = _recording_dot(monkeypatch)
    substituted = _recording_substitute_y(monkeypatch)
    y = expand_newton(table_from_expr(_DENSE_INTEGRAL, 12)).y
    assert calls == []
    (u,) = substituted
    assert [type(c) for c in u.coeffs[1:]] == [int] * 12
    assert any(type(v) is Fraction for v in y)
    # f(0,1) = 82/55 leaves Fractions in the scaled series: dot sums them
    expand_newton(table_from_expr(_DENSE_82_55, 6))
    assert calls


@st.composite
def _tables_scaled_to_ints(draw):
    """(T, M, integral) for a rational table T whose f(0,1) is +-p, p in
    2..40, an order M <= T.order, and whether the scaled series
    f(k, n) p^(2k+n), k + n <= M, is integral.  Every other entry is an
    int c or c / p^e with e <= 2k + n, which the scaling clears, such as
    f(1,0) = 1/p^2; when integral is false, one entry with k + n <= M
    is 1 / p^(2k+n+1), one factor p too many."""
    size = draw(st.integers(1, 7))
    order = draw(st.integers(1, size))
    p = draw(st.integers(2, 40))
    entries = {}
    for k in range(size + 1):
        for n in range(size + 1 - k):
            if n > 1 or k:
                c = draw(st.integers(-9, 9))
                entries[(k, n)] = Fraction(c, p ** draw(st.integers(0, 2 * k + n)))
    entries[(0, 1)] = p * draw(st.sampled_from([1, -1]))
    integral = draw(st.booleans())
    if not integral:
        k = draw(st.integers(0, order))
        n = draw(st.integers(0, order - k))
        if k == 0 and n < 2:
            k, n = 1, 0  # f(0,0) and f(0,1) stay as they are
        entries[(k, n)] = Fraction(1, p ** (2 * k + n + 1))
    return CoeffTable(size, entries, "rational"), order, integral


@settings(max_examples=60, deadline=None)
@given(_tables_scaled_to_ints())
def test_newton_on_tables_the_scaling_makes_integral_matches_the_oracles(case):
    # the solve sums plain ints exactly when the scaled series is integral,
    # and agrees with the substitution and the closed form either way
    t, order, integral = case
    with pytest.MonkeyPatch.context() as mp:
        calls = _recording_dot(mp)
        y = expand_newton(t, order).y
    assert (calls == []) == integral
    _assert_same_canonical(y, _newton_by_substitution(t, order))
    _assert_same_canonical(y, expand_direct(t, order).y)


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


def test_distinct_tables_retain_no_memory():
    # what the module scan above cannot see, such as a class attribute or a
    # memo on a shared object: after a warm-up batch, distinct tables through
    # every method leave no allocation behind.  The growth is read over each
    # traced batch after the first, and the least of them is asserted on: what
    # the interpreter keeps once (a freelist or an internal cache filled under
    # tracing, which under CPython 3.10 keeps settling for several batches)
    # lands in some batches, and what each table leaves behind in every one
    rng = random.Random(505)

    def batch(count):
        for _ in range(count):
            t = _random_table(rng, rng.randint(3, 6))
            for method in ("direct", "compose", "newton"):
                expand(t, t.order, method)

    batch(20)
    gc.collect()
    tracemalloc.start()
    try:
        traced, blocks = [], []
        for _ in range(9):
            batch(20)
            gc.collect()
            traced.append(tracemalloc.get_traced_memory()[0])
            blocks.append(sys.getallocatedblocks())
    finally:
        tracemalloc.stop()
    # less than one small object per table.  Under CPython 3.11 to 3.13 the
    # batches read 0 to 64 bytes, as they do with no tables at all: the
    # readings' own objects; under 3.10, 28 to about 2,300
    assert min(b - a for a, b in zip(traced, traced[1:])) < 20 * 32
    # the bytes let a bare object() per table (16 B) slip under the bound;
    # the count of allocated blocks does not: its least growth reads 0 to 6
    # under CPython 3.10 to 3.13, and 21 with one object kept per table
    assert min(b - a for a, b in zip(blocks, blocks[1:])) < 20


@pytest.mark.parametrize("method", ["direct", "compose", "newton"])
def test_diagnostic_seconds_sum_to_at_most_the_call(method):
    t = CoeffTable.symbolic(6)
    t0 = time.perf_counter()
    r = expand(t, 6, method)
    wall = time.perf_counter() - t0
    assert len(r.diagnostics) == 6
    assert sum(d["seconds"] for d in r.diagnostics) <= wall
