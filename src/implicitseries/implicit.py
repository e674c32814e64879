"""Power-series expansion of the solution y(x) of f(x, y) = 0.

The equation enters as a table of Taylor coefficients f(m, n) with
f(0, 0) = 0 and f(0, 1) invertible; then y(0) = 0 and the coefficients
y_1, y_2, ... of the unique formal solution are computed three independent
ways:

* direct    -- a closed double sum pairing Bell polynomials in the
               f(m, 0) column with the Taylor coefficients of the
               y-to-x inverse relation,
* compose   -- composition of the inverse relation with -f(x, 0),
* newton    -- order-by-order elimination of the residual f(x, y(x)),
               which touches none of the combinatorial machinery.

In rational mode the coefficients are exact scalars -- an int when
integral, otherwise a Fraction; in symbolic mode they are Laurent
polynomials in the table symbols, with negative powers of F(0, 1) only.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial

from .algebra import (
    LaurentPoly,
    as_coefficient,
    decode,
    fsym,
    invert_scalar,
)
from .combinatorics import (
    bell_eval,
    comp_inverse_coeff_poly,
    compositions,
    inverse_partition_terms,
)
from .series import BivariateEGF, TaylorEGF

_ZERO = 0


class TableError(ValueError):
    """A coefficient table is malformed or too small for the request."""


class NotExpandableError(TableError):
    """The equation has no unique expandable solution at the origin."""


class InvariantError(RuntimeError):
    """An internal cross-check failed; indicates a bug, not bad input."""


class CoeffTable:
    """Taylor coefficients of the implicit equation on a square index box.

    Entries live at 0 <= m, n <= order; absent means zero.  The mode is
    'rational' (exact scalar entries: int when integral, else Fraction) or
    'symbolic' (Laurent polynomial entries).  Instances are immutable;
    derived series, powers and Bell values are memoized on the table.
    """

    __slots__ = ("order", "mode", "_entries", "_cache")

    def __init__(self, order, entries, mode="rational"):
        if order < 1:
            raise TableError("table order must be at least 1")
        if mode not in ("rational", "symbolic"):
            raise TableError(f"unknown mode: {mode!r}")
        box = {}
        for (m, n), v in entries.items():
            if not (0 <= m <= order and 0 <= n <= order):
                raise TableError(f"entry index out of range: ({m}, {n})")
            if mode == "rational":
                if isinstance(v, LaurentPoly):
                    raise TableError("rational mode cannot hold symbolic entries")
                v = as_coefficient(v)
            elif not isinstance(v, LaurentPoly):
                v = LaurentPoly.const(v)
            if v:
                box[(m, n)] = v
        self.order = order
        self.mode = mode
        self._entries = box
        self._cache = {}

    @classmethod
    def rational(cls, order, entries):
        return cls(order, entries, "rational")

    @classmethod
    def symbolic(cls, order):
        """The generic equation: every entry its own symbol F(m, n)."""
        entries = {
            (m, n): fsym(m, n)
            for m in range(order + 1)
            for n in range(order + 1)
            if (m, n) != (0, 0)
        }
        return cls(order, entries, "symbolic")

    def entry(self, m, n):
        if not (0 <= m <= self.order and 0 <= n <= self.order):
            raise TableError(f"entry index out of range: ({m}, {n})")
        return self._entries.get((m, n), _ZERO)

    def entries(self):
        """The nonzero entries as a dict copy."""
        return dict(self._entries)

    def __repr__(self):
        return f"CoeffTable(order={self.order}, mode={self.mode!r}, nonzero={len(self._entries)})"


def builtin_table(name, order):
    """Named example equations.

    'geometric' is y - x - x*y = 0 with y_n = n!;
    'lambert' is y*exp(y) - x = 0 with y_n = (-n)^(n-1).
    """
    if order < 1:
        raise TableError("table order must be at least 1")
    if name == "geometric":
        entries = {(0, 1): 1, (1, 0): -1, (1, 1): -1}
    elif name == "lambert":
        entries = {(1, 0): -1}
        entries.update({(0, n): n for n in range(1, order + 1)})
    else:
        raise TableError(f"unknown builtin: {name!r}")
    entries = {k: v for k, v in entries.items() if k[0] <= order and k[1] <= order}
    return CoeffTable(order, entries, "rational")


def validate_table(table):
    """All expandability violations, as human-readable strings.

    Empty list means f(0, 0) = 0 and f(0, 1) is invertible, which is
    exactly what the expansion needs.
    """
    problems = []
    if table.entry(0, 0):
        problems.append("f(0,0) is nonzero, so y = 0 is not a root at x = 0")
    f01 = table.entry(0, 1)
    if not f01:
        problems.append("f(0,1) is zero, so the linear-in-y part is singular")
    elif isinstance(f01, LaurentPoly) and not f01.is_unit():
        problems.append("f(0,1) is not an invertible coefficient")
    return problems


def ensure_valid(table):
    problems = validate_table(table)
    if problems:
        raise NotExpandableError("; ".join(problems))


def column_series(table, n, order=None):
    """Column n of the table as the series sum_m f(m, n) x^m / m!."""
    if order is None:
        order = table.order
    if not (0 <= n <= table.order and 0 <= order <= table.order):
        raise TableError("column or order outside the table")
    return TaylorEGF([table.entry(m, n) for m in range(order + 1)])


def as_bivariate(table, order=None):
    """The table as a truncated two-variable series."""
    if order is None:
        order = table.order
    if order > table.order:
        raise TableError("requested order exceeds the table")
    return BivariateEGF(
        [[table.entry(m, n) for n in range(order + 1)] for m in range(order + 1)]
    )


def _column_power(table, n, exponent):
    """table column n raised to an integer power, at full table order;
    memoized on the table."""
    key = ("colpow", n, exponent)
    hit = table._cache.get(key)
    if hit is not None:
        return hit
    if exponent == 0:
        val = TaylorEGF.one(table.order)
    elif exponent == 1:
        val = column_series(table, n)
    elif exponent > 1:
        val = _column_power(table, n, exponent - 1) * _column_power(table, n, 1)
    elif exponent == -1:
        val = column_series(table, n).reciprocal()
    else:
        val = _column_power(table, n, exponent + 1) * _column_power(table, n, -1)
    table._cache[key] = val
    return val


def inverse_taylor_coeff(table, k, l):
    """Taylor coefficient a(k, l): the l-th x-coefficient of the k-th
    EGF coefficient of the inverse relation x(y) attached to the table.

    Computed as a partition sum: for each multiplicity vector r counting
    partitions of a (2k-2)-set into k-1 blocks, a product rule spreads l
    x-derivatives over the factors

        (column 1)^(r_1 - 2k + 1) * (column 2)^(r_2) * ... * (column k)^(r_k)

    and each factor contributes an exact coefficient of that integer power
    of a column series.  Slots with zero exponent are skipped.
    """
    if k < 1:
        raise TableError("k must be at least 1")
    if l < 0 or l > table.order or k > table.order:
        raise TableError("index outside the table order")
    key = ("invcoeff", k, l)
    hit = table._cache.get(key)
    if hit is not None:
        return hit
    ensure_valid(table)
    total = 0
    lfact = factorial(l)
    for r, weight in inverse_partition_terms(k):
        # slots that actually carry a factor: column 1 always (its exponent
        # r_1 - 2k + 1 < 0), plus every higher column with r_nu > 0
        slots = [(1, r[0] - 2 * k + 1)]
        slots.extend((nu, r[nu - 1]) for nu in range(2, k + 1) if r[nu - 1])
        for j in compositions(l, len(slots)):
            term = weight * (lfact // _prod_factorials(j))
            for (nu, exponent), jv in zip(slots, j):
                c = _column_power(table, nu, exponent).coeffs[jv]
                if not c:
                    term = 0
                    break
                term = term * c
            if term:
                total = total + term
    total = as_coefficient(total)
    table._cache[key] = total
    return total


def _prod_factorials(j):
    p = 1
    for v in j:
        if v > 1:
            p *= factorial(v)
    return p


def y_coeff_direct(table, m):
    """The m-th solution coefficient by the closed double sum

        y_m = sum_{n=1}^{m} C(m, n) sum_{k=1}^{n} (-1)^k a(k, m-n)
                                     B(n, k)(f(1,0), ..., f(n-k+1,0)).
    """
    ensure_valid(table)
    if not (1 <= m <= table.order):
        raise TableError("coefficient index outside the table order")
    args = tuple(table.entry(i, 0) for i in range(1, m + 1))
    # B(n, k) at column 0 is the same for every m, so its memo lives on
    # the table
    bell_memo = table._cache.setdefault("bell", {})
    total = 0
    for n in range(1, m + 1):
        inner = 0
        for k in range(1, n + 1):
            a = inverse_taylor_coeff(table, k, m - n)
            if not a:
                continue
            b = bell_eval(n, k, args, bell_memo)
            if not b:
                continue
            term = a * b
            inner = (inner - term) if k % 2 else (inner + term)
        if inner:
            total = total + comb(m, n) * inner
    return as_coefficient(total)


@dataclass
class ExpansionResult:
    """Coefficients y_1..y_order plus per-coefficient diagnostics.

    diagnostics[i] holds the monomial count of y_(i+1) and the seconds
    spent computing it.  Compose computes every coefficient at once, so it
    books its whole time on the last entry and 0.0 on the others; for
    every method the seconds sum to at most the time of the call.
    """

    order: int
    method: str
    y: list
    diagnostics: list = field(default_factory=list)

    def coeff(self, m):
        """y_m, 1-based."""
        if not (1 <= m <= self.order):
            raise IndexError(f"no coefficient y_{m} in a result of order {self.order}")
        return self.y[m - 1]


def monomial_count(value):
    """Number of monomials in canonical form (a nonzero rational counts 1)."""
    if isinstance(value, LaurentPoly):
        return value.monomial_count()
    return 1 if value else 0


def _expansion_order(table, order):
    """The order to expand to: the table's when none is given.  The table
    must be expandable and the order must lie in 1..table.order."""
    if order is None:
        order = table.order
    ensure_valid(table)
    if not 1 <= order <= table.order:
        raise TableError(f"requested order {order} is outside 1..{table.order}")
    return order


def _diag(value, t0):
    return {"monomials": monomial_count(value), "seconds": time.perf_counter() - t0}


def expand_direct(table, order=None):
    """Expansion via the closed double sum, one coefficient at a time."""
    order = _expansion_order(table, order)
    ys, diags = [], []
    for m in range(1, order + 1):
        t0 = time.perf_counter()
        ym = y_coeff_direct(table, m)
        ys.append(ym)
        diags.append(_diag(ym, t0))
    return ExpansionResult(order, "direct", ys, diags)


def _inverse_coeff_series(table, k, order):
    """The k-th EGF coefficient of the inverse relation as a series in x:
    the explicit inversion polynomial evaluated at the column series,
    through x^order.

    The order need not be the table's: compose asks for g_k only through
    x^(N-k), because it multiplies g_k by f(x,0)^k, whose valuation is k,
    so no coefficient of g_k above x^(N-k) reaches x^N."""
    key = ("invseries", k, order)
    hit = table._cache.get(key)
    if hit is not None:
        return hit
    poly = comp_inverse_coeff_poly(k)
    acc = TaylorEGF.zero(order)
    for mon, c in poly.sorted_terms():
        prod = None
        for i in range(0, len(mon), 2):
            nu = decode(mon[i])[1]
            pw = _column_power(table, nu, mon[i + 1]).truncate(order)
            prod = pw if prod is None else prod * pw
        acc = acc + prod * c
    table._cache[key] = acc
    return acc


def expand_compose(table, order=None):
    """Expansion by composing the inverse relation with -f(x, 0):

        y(x) = sum_{k>=1} (-1)^k g_k(x) f(x,0)^k / k!

    where g_k is the k-th inverse-relation coefficient series.  All series
    are truncated at the requested order N; the sum stops there too because
    f(x, 0) has no constant term.  For the same reason f(x,0)^k / k! has
    valuation k, so only x^0..x^(N-k) of g_k can reach the result: g_k is
    built through x^(N-k) alone and padded with zeros back to order N,
    which the zero-skipping series product then passes over.
    """
    order = _expansion_order(table, order)
    t0 = time.perf_counter()
    phi0 = column_series(table, 0, order)
    total = TaylorEGF.zero(order)
    power = TaylorEGF.one(order)  # f(x,0)^k / k!, divided one k at a time
    for k in range(1, order + 1):
        power = power * phi0 * Fraction(1, k)
        if power.is_zero():
            break
        g = _inverse_coeff_series(table, k, order - k)
        term = TaylorEGF(g.coeffs, order=order) * power
        total = (total - term) if k % 2 else (total + term)
    if total.coeffs[0]:
        raise InvariantError("composition produced a nonzero constant term")
    ys = list(total.coeffs[1:])
    diags = [{"monomials": monomial_count(ym), "seconds": 0.0} for ym in ys]
    if diags:
        diags[-1]["seconds"] = time.perf_counter() - t0
    return ExpansionResult(order, "compose", ys, diags)


def expand_newton(table, order=None):
    """Expansion by order-by-order elimination of the residual f(x, u(x)),
    u = y_1 x + y_2 x^2/2! + ...; independent of the combinatorial
    machinery.

    Coefficient m of the residual is

        sum_{n, k} C(m, k) f(k, n) P(n, m - k),   P(n, j) = coefficient j of u^n/n!,

    and u_m enters it only through the term f(0,1) u_m, so

        y_m = -(that sum without f(0,1) u_m) / f(0,1).

    The P(n, j) are kept online, one column j at a time: for n >= 2,

        P(n, m) = (1/n) sum_{i=1}^{m-n+1} C(m, i) u_i P(n-1, m-i)

    reads only u_1..u_{m-1}, so column m is complete before y_m is solved
    for.  Each product is made once, about N^3/3 of them in all.  Ends by
    checking that the final residual, substituted afresh, vanishes through
    the order.
    """
    order = _expansion_order(table, order)
    f = as_bivariate(table, order)
    inv01 = invert_scalar(table.entry(0, 1))
    # pw[n][j]: coefficient j of u^n/n!, zero below j = n; pw[1] is u
    pw = [[1] + [_ZERO] * order] + [[_ZERO] * n for n in range(1, order + 1)]
    u = pw[1]
    ys, diags = [], []
    for m in range(1, order + 1):
        t0 = time.perf_counter()
        for n in range(2, m + 1):
            prev = pw[n - 1]
            s = 0
            for i in range(1, m - n + 2):
                if u[i] and prev[m - i]:
                    s = s + comb(m, i) * u[i] * prev[m - i]
            pw[n].append(as_coefficient(s * Fraction(1, n)))
        u.append(_ZERO)  # u_m is unknown yet, so f(0,1) u_m drops out
        s = 0
        for k in range(m + 1):
            row = f.coeffs[k]
            for n in range(m - k + 1):
                if row[n] and pw[n][m - k]:
                    s = s + comb(m, k) * row[n] * pw[n][m - k]
        ym = as_coefficient(-(s * inv01))
        u[m] = ym
        ys.append(ym)
        diags.append(_diag(ym, t0))
    final = f.substitute_y(TaylorEGF([_ZERO] + ys, order=order), order=order)
    if not final.is_zero():
        raise InvariantError("final residual is nonzero through the requested order")
    return ExpansionResult(order, "newton", ys, diags)


_EXPANDERS = {
    "direct": expand_direct,
    "compose": expand_compose,
    "newton": expand_newton,
}


def expand(table, order=None, method="direct"):
    """Expand by the named method ('direct', 'compose' or 'newton')."""
    try:
        fn = _EXPANDERS[method]
    except KeyError:
        raise ValueError(f"unknown method: {method!r}") from None
    return fn(table, order)


def specialize(value, table):
    """Evaluate a symbolic coefficient at a rational table's entries."""
    if not isinstance(value, LaurentPoly):
        return as_coefficient(value)
    assignment = {}
    for code in value.variables():
        d = decode(code)
        if d[0] != "F":
            raise ValueError(f"cannot specialize indeterminate {d}")
        assignment[code] = table.entry(d[1], d[2])
    return value.eval(assignment)
