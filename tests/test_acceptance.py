"""Acceptance suite: ten go/no-go criteria, one printed verdict line each.

Everything is exact rational or polynomial arithmetic; there are no
tolerances to tune.  Criterion 3 includes the y_15 census (91159
monomials), which takes about a second.

Run with `pytest -s tests/test_acceptance.py` to see the verdict lines.
"""

import json
import random
import time
from fractions import Fraction
from math import comb, factorial

import implicitseries.cli as cli
from implicitseries.algebra import ONE, ZERO, fsym, xsym
from implicitseries.combinatorics import (
    bell_eval,
    bell_partial,
    comp_inverse_coeff_poly,
    generic_monomial_count,
    stirling1_poly,
    stirling_number,
)
from implicitseries.implicit import (
    CoeffTable,
    builtin_table,
    expand,
    expand_compose,
    expand_direct,
    expand_newton,
    monomial_count,
    y_coeff_direct,
)
from implicitseries.series import TaylorEGF


def _verdict(num, name, ok):
    print(f"criterion {num:>2}: {'PASS' if ok else 'FAIL'} - {name}")
    assert ok, f"criterion {num} failed: {name}"


def test_criterion_01_first_coefficients_symbolic():
    f = fsym
    y1 = -f(1, 0) * f(0, 1) ** -1
    y2 = (2 * f(0, 1) ** -2 * f(1, 0) * f(1, 1)
          - f(0, 1) ** -1 * f(2, 0)
          - f(0, 1) ** -3 * f(0, 2) * f(1, 0) ** 2)
    t = CoeffTable.symbolic(2)
    ok = all(
        expand(t, 2, method).y == [y1, y2]
        for method in ("direct", "compose", "newton")
    )
    _verdict(1, "symbolic y_1 and y_2 by all three methods", ok)


def test_criterion_02_first_kind_polynomials():
    ok = (stirling1_poly(1, 1) == xsym(1) ** -1
          and stirling1_poly(2, 1) == -(xsym(1) ** -3) * xsym(2))
    _verdict(2, "first-kind polynomials at (1,1) and (2,1)", ok)


def test_criterion_03_monomial_census():
    t = CoeffTable.symbolic(4)
    r = expand_direct(t)
    ok = (monomial_count(r.y[2]) == 9 and monomial_count(r.y[3]) == 24)
    t0 = time.perf_counter()
    count = monomial_count(y_coeff_direct(CoeffTable.symbolic(15), 15))
    seconds = time.perf_counter() - t0
    slots = generic_monomial_count(15)
    ok = ok and count == 91159 and count == slots
    note = (f"census of y_3 = 9, y_4 = 24 and y_15 = {count} (in {seconds:.1f} s), "
            f"slot count {slots}")
    _verdict(3, note, ok)


def test_criterion_04_orthogonality():
    ok = True
    for n in range(1, 9):
        for k in range(1, n + 1):
            acc = ZERO
            for j in range(k, n + 1):
                acc = acc + stirling1_poly(n, j) * bell_partial(j, k)
            ok = ok and acc == (ONE if n == k else ZERO)
    _verdict(4, "orthogonality of the two families for n <= 8", ok)


def test_criterion_05_stirling_coefficient_sums():
    # independent oracles: explicit surjection sum and falling factorial
    def second_kind(n, k):
        if n == 0 or k == 0:
            return 1 if n == k else 0
        s = sum((-1) ** j * comb(k, j) * (k - j) ** n for j in range(k + 1))
        return s // factorial(k)

    def first_kind_row(n):
        poly = [Fraction(1)]
        for i in range(n):
            shifted = [Fraction(0)] + poly
            poly = [a - i * b for a, b in zip(shifted, poly + [Fraction(0)])]
        return poly

    ones = {xsym(i): 1 for i in range(1, 11)}
    ok = True
    for n in range(0, 11):
        row = first_kind_row(n)
        for k in range(0, n + 1):
            ok = ok and bell_partial(n, k).eval(ones) == second_kind(n, k)
            ok = ok and stirling1_poly(n, k).eval(ones) == row[k]
            ok = ok and stirling_number(n, k, "second") == second_kind(n, k)
            ok = ok and stirling_number(n, k, "first") == row[k]
    _verdict(5, "coefficient sums equal Stirling numbers for n <= 10", ok)


def _random_table(rng, order):
    entries = {}
    for m in range(order + 1):
        for n in range(order + 1):
            if (m, n) == (0, 0) or rng.random() < 0.4:
                continue
            entries[(m, n)] = Fraction(rng.randrange(-3, 4), rng.randrange(1, 4))
    f01 = Fraction(0)
    while not f01:
        f01 = Fraction(rng.randrange(-3, 4), rng.randrange(1, 4))
    entries[(0, 1)] = f01
    return CoeffTable(order, entries, "rational")


def test_criterion_06_method_equivalence():
    rng = random.Random(661)
    ok = True
    for _ in range(50):
        t = _random_table(rng, 6)
        rd = expand_direct(t).y
        ok = ok and rd == expand_compose(t).y == expand_newton(t).y
    sym = CoeffTable.symbolic(4)
    ok = ok and expand_direct(sym).y == expand_compose(sym).y == expand_newton(sym).y
    _verdict(6, "three methods agree on 50 random tables (M=6) and generically (M=4)", ok)


def test_criterion_07_oracle_series():
    g = expand_newton(builtin_table("geometric", 10))
    lam = expand_newton(builtin_table("lambert", 8))
    ok = (g.y == [factorial(n) for n in range(1, 11)]
          and lam.y == [Fraction((-n) ** (n - 1)) for n in range(1, 9)])
    ok = ok and expand_direct(builtin_table("geometric", 10)).y == g.y
    ok = ok and expand_compose(builtin_table("lambert", 8)).y == lam.y
    _verdict(7, "geometric gives n! and Lambert gives (-n)^(n-1)", ok)


def test_criterion_08_compositional_inverse():
    rng = random.Random(88)
    order = 8
    ok = True
    for _ in range(50):
        coeffs = [Fraction(0)]
        coeffs.append(Fraction(rng.choice([1, -1, 2, 3]), rng.randrange(1, 3)))
        coeffs.extend(Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
                      for _ in range(order - 1))
        g = TaylorEGF(coeffs)
        h = g.reversion()
        ok = ok and h.compose(g) == TaylorEGF.identity(order)
        # coefficients of the inverse through the explicit polynomials
        asg = {xsym(i): coeffs[i] for i in range(1, order + 1)}
        for n in range(1, order + 1):
            want = stirling1_poly(n, 1).eval(asg)
            ok = ok and h.coeffs[n] == want == comp_inverse_coeff_poly(n).eval(asg)
    _verdict(8, "series reversion matches the inversion polynomials (n <= 8)", ok)


def test_criterion_09_powers_are_bell_sums():
    rng = random.Random(99)
    ok = True
    for _ in range(20):
        coeffs = [Fraction(0)] + [
            Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)) for _ in range(9)
        ]
        phi = TaylorEGF(coeffs)
        args = tuple(coeffs[1:])
        for n in range(0, 10):
            for k in range(0, n + 1):
                want = factorial(k) * bell_eval(n, k, args)
                ok = ok and phi.coeff_of_power(k, n) == want
    _verdict(9, "power coefficients equal k! B(n,k) for n <= 9", ok)


def test_criterion_10_frontend(capsys):
    code1 = cli.main(["--expr", "y*exp(y)-x", "-N", "4", "--method", "all"])
    out = capsys.readouterr().out
    body = json.loads(out)
    code2 = cli.main(["--expr", "x+1", "-N", "2"])
    capsys.readouterr()
    ok = (code1 == 0 and body["y"] == ["1", "-2", "9", "-64"] and code2 == 2)
    with capsys.disabled():
        print()
        _verdict(10, "frontend expands y*exp(y)-x and rejects x+1 with status 2", ok)