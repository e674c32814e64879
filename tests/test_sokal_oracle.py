"""Sokal's closed form for the generic y_N: a fourth oracle.

Write f = 0 as y = G(x, y), with G = y - f / F(0,1).  Lagrange inversion
in Sokal's form (A. D. Sokal, "A ridiculously simple and explicit implicit
function theorem", Sem. Lothar. Combin. 61A, 2009) gives

    y_N = sum N! (k-1)! / prod (r_mn! (m! n!)^r_mn)
              * (-1)^k F(0,1)^-k prod F(m,n)^r_mn

over the multiplicity vectors r on the slots (m, n) other than (0, 0) and
(0, 1), with k = sum r, sum m r = N and sum n r = k - 1.

`sokal_terms` walks these vectors depth first and writes each term as a
flat monomial tuple.  It shares no code with the Bell polynomials, the
g_k or newton, and packs no key: the package's packed keys meet it only
where an expansion is decoded, or its terms are packed, to be compared.
"""

from bisect import bisect_left
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from implicitseries import CoeffTable, expand, generic_monomial_count, y_coeff_direct
from implicitseries.algebra import LaurentPoly, fcode, fsym

F01 = fcode(0, 1)


def sokal_terms(order):
    """{flat monomial: coefficient} of the generic y_order."""
    # (m, n) in increasing code order, so that each walk writes its
    # monomial's codes in increasing order after F(0,1), the least
    slots = [(m, n) for m in range(order + 1) for n in range(order + 1 - m)
             if (m, n) not in ((0, 0), (0, 1))]
    # a state is what the vector still owes: (order - sum m r,
    # -1 - sum (n - 1) r), each in -order..order; done[j] holds the states
    # that the slots from j on can pay off exactly
    done = [set() for _ in slots] + [{(0, 0)}]
    for j in range(len(slots) - 1, -1, -1):
        m, n = slots[j]
        reach = done[j] = set(done[j + 1])
        frontier = list(reach)
        while frontier:
            frontier = [(a + m, t + n - 1) for a, t in frontier
                        if a + m <= order and -order <= t + n - 1 <= order
                        and (a + m, t + n - 1) not in reach]
            reach.update(frontier)

    moves = {}

    def moves_from(a, t):
        """Every (j, r, state after) that takes r >= 1 of slot j from
        state (a, t) to a state the slots after j can pay off, by j."""
        found = moves.get((a, t))
        if found is None:
            found = moves[(a, t)] = []
            for j, (m, n) in enumerate(slots):
                for r in range(1, order + 1):
                    a2, t2 = a - r * m, t - r * (n - 1)
                    if a2 < 0 or t2 < -order:
                        break
                    if (a2, t2) in done[j + 1]:
                        found.append((j, r, a2, t2))
        return found

    fact = [factorial(i) for i in range(2 * order + 1)]
    codes = [fcode(m, n) for m, n in slots]
    weights = [fact[m] * fact[n] for m, n in slots]
    out = {}

    def walk(i, a, t, k, den, mon):
        found = moves_from(a, t)
        for j, r, a2, t2 in found[bisect_left(found, (i,)):]:
            vector = mon + (codes[j], r)
            d = den * fact[r] * weights[j] ** r
            if a2 or t2:
                walk(j + 1, a2, t2, k + r, d, vector)
                continue
            k2 = k + r
            num = (-1) ** k2 * fact[order] * fact[k2 - 1]
            out[(F01, -k2) + vector] = num // d if num % d == 0 else Fraction(num, d)

    walk(0, order, -1, 0, 1, ())
    return out


def test_the_closed_form_by_hand_at_orders_1_and_2():
    # y_1 = -F10/F01 and y_2 = -F20/F01 + 2 F10 F11/F01^2 - F10^2 F02/F01^3
    f10, f11 = fcode(1, 0), fcode(1, 1)
    assert sokal_terms(1) == {(F01, -1, f10, 1): -1}
    assert sokal_terms(2) == {
        (F01, -1, fcode(2, 0), 1): -1,
        (F01, -2, f10, 1, f11, 1): 2,
        (F01, -3, fcode(0, 2), 1, f10, 2): -1,
    }


def test_the_closed_form_has_one_term_per_multiplicity_vector():
    for order in range(1, 11):
        assert len(sokal_terms(order)) == generic_monomial_count(order)


@pytest.mark.parametrize("order", range(1, 9))
@pytest.mark.parametrize("method", ["direct", "compose", "newton"])
def test_every_method_equals_the_closed_form(method, order):
    y = expand(CoeffTable.symbolic(order), order, method).y
    for m, value in enumerate(y, 1):
        want = sokal_terms(m)
        assert value.terms() == want
        assert value == LaurentPoly(want)


def test_the_closed_form_equals_the_y15_census():
    y15 = y_coeff_direct(CoeffTable.symbolic(15), 15)
    want = sokal_terms(15)
    assert len(want) == y15.monomial_count() == 91159
    assert y15.terms() == want
    assert y15 == LaurentPoly(want)


_SPECIAL_ORDER = 6
# the slots (m, n) of the table at that order other than (0, 0) and (0, 1)
_SPECIAL_SLOTS = [(m, n) for m in range(_SPECIAL_ORDER + 1) for n in range(_SPECIAL_ORDER + 1 - m)
                  if (m, n) not in ((0, 0), (0, 1))]
_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@settings(max_examples=25, deadline=None)
@given(st.lists(_rationals, min_size=len(_SPECIAL_SLOTS), max_size=len(_SPECIAL_SLOTS)),
       _rationals.filter(bool))
def test_the_closed_form_specialized_equals_the_rational_expansion(entries, f01):
    values = dict(zip(_SPECIAL_SLOTS, entries))
    values[(0, 1)] = f01
    y = expand(CoeffTable.rational(_SPECIAL_ORDER, values), _SPECIAL_ORDER, "direct").y
    at = {fsym(m, n): v for (m, n), v in values.items()}
    for m in range(1, _SPECIAL_ORDER + 1):
        assert LaurentPoly(sokal_terms(m)).eval(at) == y[m - 1]
