"""Power-series expansion of the solution y(x) of f(x, y) = 0.

The equation enters as a table of Taylor coefficients f(m, n) with
f(0, 0) = 0 and f(0, 1) invertible; then y(0) = 0 and the coefficients
y_1, y_2, ... of the unique formal solution are computed three ways:

* direct    -- a closed double sum pairing Bell polynomials in the
               f(m, 0) column with the Taylor coefficients of the
               y-to-x inverse relation,
* compose   -- G(x, -f(x, 0)) by BivariateEGF.substitute_y, column k
               of the series G being the inverse-relation series g_k,
* newton    -- order-by-order elimination of the residual f(x, y(x)),
               which touches none of the combinatorial machinery.

Direct and compose evaluate the same substitution, direct through Bell
polynomials in the f(m, 0) column, and read the same inverse-relation
series g_k: built once each, in increasing k, into one memo on the
table.  Symbolic tables build g_k by the paper's partition sum over
the partitions of k-1, nested in Horner fashion over the columns, one
series sum per group of partitions that share their first column
exponents; rational tables by Lagrange inversion with Miller's power
recurrence, O(k^2) series products.  Newton is the independent
cross-check.

In rational mode the coefficients are exact scalars -- an int when
integral, otherwise a Fraction; in symbolic mode they are Laurent
polynomials in the table symbols, with negative powers of F(0, 1) only.
"""

import time
from itertools import repeat
from math import comb, gcd, lcm
from operator import add

from .algebra import (
    LaurentPoly,
    as_coefficient,
    decode,
    div_int,
    dot,
    fsym,
    invert_scalar,
)
from .combinatorics import (
    bell_eval,
    inverse_partition_terms,
)
from .series import (BivariateEGF, TaylorEGF, _binomials, _convolve, _over_one_denominator,
                     _pascal, _series_dot, _sums)

_ZERO = 0


class TableError(ValueError):
    """A coefficient table is malformed or too small for the request."""


class NotExpandableError(TableError):
    """The equation has no unique expandable solution at the origin."""


class InvariantError(RuntimeError):
    """An internal cross-check failed; indicates a bug, not bad input."""


class CoeffTable:
    """Taylor coefficients f(m, n) of the implicit equation over the
    triangle m + n <= order, all an expansion to that order reads (see
    BivariateEGF): one BivariateEGF of the table's order.  Indices may run
    over the square 0 <= m, n <= order, whose entries past the triangle
    are dropped; absent means zero.  The mode is 'rational' (exact scalar
    entries: int when integral, else Fraction) or 'symbolic' (Laurent
    polynomial entries).  Instances are immutable; derived series, powers
    and Bell values are memoized on the table.
    """

    __slots__ = ("mode", "_series", "_cache")

    def __init__(self, order, entries, mode="rational"):
        if order < 1:
            raise TableError("table order must be at least 1")
        if mode not in ("rational", "symbolic"):
            raise TableError(f"unknown mode: {mode!r}")
        rows = [[_ZERO] * (order + 1 - m) for m in range(order + 1)]
        for (m, n), v in entries.items():
            if not (0 <= m <= order and 0 <= n <= order):
                raise TableError(f"entry index out of range: ({m}, {n})")
            if mode == "rational":
                if isinstance(v, LaurentPoly):
                    raise TableError("rational mode cannot hold symbolic entries")
                v = as_coefficient(v)
            elif not isinstance(v, LaurentPoly):
                v = LaurentPoly.const(v)
            if v and m + n <= order:
                rows[m][n] = v
        self._fill(mode, BivariateEGF._raw(rows))

    def _fill(self, mode, series):
        self.mode = mode
        self._series = series
        # the Bell values of y_coeff_direct and the _inverse_coeff_series memo
        self._cache = {"bell": {}, "inverse": ([], {})}

    @classmethod
    def _raw(cls, series):
        # Trusted constructor of a rational table: series must be a
        # BivariateEGF of canonical scalars, of order at least 1.
        t = cls.__new__(cls)
        t._fill("rational", series)
        return t

    @property
    def order(self):
        return self._series.order

    @classmethod
    def rational(cls, order, entries):
        return cls(order, entries, "rational")

    @classmethod
    def symbolic(cls, order):
        """The generic equation: every entry with m + n <= order its own
        symbol F(m, n), (order + 1)(order + 2) / 2 - 1 symbols in all."""
        entries = {
            (m, n): fsym(m, n)
            for m in range(order + 1)
            for n in range(order + 1 - m)
            if (m, n) != (0, 0)
        }
        return cls(order, entries, "symbolic")

    def entry(self, m, n):
        if not (0 <= m and 0 <= n and m + n <= self.order):
            raise TableError(f"entry index outside the triangle: ({m}, {n})")
        return self._series.coeffs[m][n]

    def entries(self):
        """The nonzero entries as a dict."""
        return {(m, n): c for m, row in enumerate(self._series.coeffs)
                for n, c in enumerate(row) if c}

    def __repr__(self):
        return f"CoeffTable(order={self.order}, mode={self.mode!r}, nonzero={len(self.entries())})"


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
    """Column n of the table as the series sum_m f(m, n) x^m / m!, through
    x^order, at most (and by default) N - n, N the table order."""
    top = table.order - n
    if order is None:
        order = top
    if not (0 <= n <= table.order and 0 <= order <= top):
        raise TableError("column or order outside the table")
    return TaylorEGF._raw([row[n] for row in table._series.coeffs[:order + 1]])


def as_bivariate(table, order=None):
    """The table as a two-variable series truncated in total degree: the
    entries with m + n <= order."""
    if order is None:
        order = table.order
    if not 0 <= order <= table.order:
        raise TableError(f"requested order {order} is outside 0..{table.order}")
    return BivariateEGF._raw(row[:order + 1 - m]
                             for m, row in enumerate(table._series.coeffs[:order + 1]))


def _column_power(table, powers, n, exponent, order):
    """Table column n raised to a nonzero integer power, truncated at
    x^order.

    powers is the dict of column powers (and of _lagrange_g's column
    ratios) shared by the g_j of the table's _inverse_coeff_series memo.
    A power is built the first time it is asked for, at that order, and
    stored; the orders asked of it afterwards only fall, so the stored
    series is always long enough."""
    val = powers.get((n, exponent))
    if val is None:
        if exponent == 1:
            val = column_series(table, n, order)
        elif exponent == -1:
            val = column_series(table, n, order).reciprocal()
        else:
            step = 1 if exponent > 1 else -1
            val = (_column_power(table, powers, n, exponent - step, order)
                   * _column_power(table, powers, n, step, order))
        powers[(n, exponent)] = val
    return val.truncate(order)


def inverse_taylor_coeff(table, k, l):
    """Taylor coefficient a(k, l): the l-th x-coefficient of the k-th
    EGF coefficient of the inverse relation x(y) attached to the table.

    Read off g_k of _inverse_coeff_series, which direct and compose share
    and which is exact through x^(N - k), N the table order; so k + l <= N.
    """
    if k < 1:
        raise TableError("k must be at least 1")
    if l < 0 or k + l > table.order:
        raise TableError("index outside the triangle k + l <= the table order")
    ensure_valid(table)
    return _inverse_coeff_series(table, k).coeffs[l]


def y_coeff_direct(table, m):
    """The m-th solution coefficient by the closed double sum

        y_m = sum_{n=1}^{m} C(m, n) sum_{k=1}^{n} (-1)^k a(k, m-n)
                                     B(n, k)(f(1,0), ..., f(n-k+1,0)).

    a(k, l) is coefficient l of g_k, which is exact through x^(N-k), N
    the table order, and m - n <= N - k.
    """
    ensure_valid(table)
    if not (1 <= m <= table.order):
        raise TableError("coefficient index outside the table order")
    args = tuple(table.entry(i, 0) for i in range(1, m + 1))
    g = [_inverse_coeff_series(table, k).coeffs for k in range(1, m + 1)]
    # B(n, k) at column 0 is the same for every m, so its memo lives on
    # the table
    bell_memo = table._cache["bell"]
    terms = []
    for n in range(1, m + 1):
        c = comb(m, n)
        for k in range(1, n + 1):
            a = g[k - 1][m - n]
            if a:
                terms.append((-c if k % 2 else c, a, bell_eval(n, k, args, bell_memo)))
    return _in_mode(table, dot(terms))


class ExpansionResult:
    """Coefficients y_1..y_order plus per-coefficient diagnostics.

    diagnostics[i] holds the monomial count of y_(i+1) and the seconds
    spent computing it.  Compose computes every coefficient at once, so it
    books its whole time on the last entry and 0.0 on the others; for
    every method the seconds sum to at most the time of the call.
    """

    __slots__ = ("order", "method", "y", "diagnostics")

    def __init__(self, order, method, y, diagnostics=None):
        self.order, self.method, self.y = order, method, y
        self.diagnostics = [] if diagnostics is None else diagnostics

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


def _in_mode(table, value):
    """A solution coefficient in the table's mode; symbolic zeros included."""
    if table.mode == "symbolic" and not isinstance(value, LaurentPoly):
        return LaurentPoly.const(value)
    return value


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


def _partition_g(table, powers, j, order):
    """g_j through x^order by the first-kind Stirling polynomial of index
    (j, 1) evaluated at the column series: the sum, over the multiplicity
    vectors r of the partitions of a (2j-2)-set into j-1 blocks, of the
    signed weight of r times

        (column 1)^(r_1 - 2j + 1) * (column 2)^(r_2) * ... * (column j)^(r_j).

    The sum is nested in Horner fashion over the columns in ascending
    order: the vectors are grouped by r_1, each group by r_2, and so on,
    and each group is one `_series_dot` pairing each distinct exponent's
    column power with its subgroup's sum.  A subgroup of one vector whose
    later exponents are all zero is its weight, an int against the series
    1; a level whose exponents are all zero is passed through.  Summing
    the subgroups before multiplying by the column power cuts the term
    products of the g_k behind the generic y_15 by about a third against
    the flat sum, one product chain per vector (97,000 term pairs against
    152,000); nesting from column j down to column 1 makes 290,000."""
    one = TaylorEGF.one(order).coeffs

    def nest(items, nu):
        # (k, s), k times the series s being the sum over the items (r, w)
        # of w times columns nu..j to the powers r_nu..r_j
        if nu > 1 and len(items) == 1 and not any(items[0][0][nu - 1:]):
            return items[0][1], one
        shift = 2 * j - 1 if nu == 1 else 0
        groups = {}
        for r, w in items:
            groups.setdefault(r[nu - 1] - shift, []).append((r, w))
        if list(groups) == [0]:
            return nest(items, nu + 1)
        terms = []
        for e, sub in groups.items():
            k, s = nest(sub, nu + 1)
            terms.append((k, _column_power(table, powers, nu, e, order).coeffs if e else one, s))
        return 1, _series_dot(terms, order)

    return TaylorEGF._raw(nest(list(inverse_partition_terms(j)), 1)[1])


def _lagrange_g(table, powers, j, order):
    """g_j through x^order by Lagrange inversion, for rational tables.

    With c_n column n, A = sum_i c_(i+1) y^i / (i+1)! is phi(y) / y for
    phi(y) = f(x, y) - f(x, 0), and g_j = (j-1)! [y^(j-1)] A^(-j) (Gessel,
    "Lagrange inversion", JCTA 144, 2016).  J. C. P. Miller's power
    recurrence (Knuth, TAOCP Vol. 2, 4.7) gives q_n = n! [y^n] A^(-j) from
    q_0 = c_1^(-j) and

        q_n = (1/n) sum_{i=1}^{n} ((1-j) i - n) C(n, i) b_i q_(n-i),
        b_i = c_(i+1) / ((i+1) c_1),

    and g_j = q_(j-1): O(j^2) series products, none for a zero b_i.  Each
    b_i and q_n is held as (d, ints over d), d the least common
    denominator, so the sums run on ints through `_convolve` and make no
    Fraction; b_i keeps only its nonzero (l, coefficient) pairs, in powers
    under ("ratio", i), built at the first (longest) order asked, as the
    powers are.

    A step stops at the x-degree its operands reach: the least of the
    order and the largest last(b_i) + reach(q_(n-i)), last the index of
    b_i's last pair and reach that of q_m's last nonzero coefficient, read
    at or below its own bound; its row is then padded with zeros to the
    order.  On Lambert every b_i and q_n is a constant, so each of the 780
    steps of g_1..g_40 asks for one coefficient, where asking for every
    degree through the order made 10,660; a dense table reaches the order
    at every step and asks for as many as before."""
    b = []
    for i in range(1, j):
        ratio = powers.get(("ratio", i))
        if ratio is None:
            col = column_series(table, i + 1, order) * _column_power(table, powers, 1, -1, order)
            d, (row,) = _over_one_denominator(((col / (i + 1)).coeffs,))
            ratio = powers[("ratio", i)] = (d, [(l, c) for l, c in enumerate(row) if c])
        b.append(ratio)
    # the index of each b_i's last nonzero coefficient, for a zero b_i one
    # so low that no reach lifts the sum to 0, and the reach of each q_n;
    # a step whose bound is below 0 has no live term and makes a zero row
    last = [pairs[-1][0] if pairs else -2 - order for _, pairs in b]
    d, (row,) = _over_one_denominator((_column_power(table, powers, 1, -j, order).coeffs,))
    q, reach = [(d, row)], [_last_nonzero(row, order)]
    for n in range(1, j):
        cn = _binomials(n)
        terms = [(((1 - j) * i - n) * cn[i], b[i - 1], q[n - i])
                 for i in range(1, n + 1) if b[i - 1][1]]
        stop = min(order, max(map(add, last, reversed(reach))))
        den = lcm(*[e * d for _, (e, _), (d, _) in terms])
        # the kernel's output stays bound while its reduction is built:
        # freeing it first made the dense steps about 2% slower
        out = _convolve([(w * (den // (e * d)), bi, qi) for w, (e, bi), (d, qi) in terms],
                        stop) if stop >= 0 else []
        g = gcd(n * den, *out)
        row = [c // g for c in out]
        reach.append(_last_nonzero(row, stop))
        row += [0] * (order + 1 - len(row))
        q.append((n * den // g, row))
    d, row = q[j - 1]
    return TaylorEGF._raw([div_int(c, d) for c in row])


def _last_nonzero(row, top):
    """The last index at or below top of a nonzero entry of row, or -1."""
    while top >= 0 and not row[top]:
        top -= 1
    return top


def _build_g(table, powers, j, order):
    """g_j through x^order, sharing the column powers in powers.

    Symbolic tables build it by the paper's partition sum
    (`_partition_g`), nested over the columns, whose size is that of g_j;
    rational tables by Lagrange inversion with Miller's power recurrence
    (`_lagrange_g`), O(j^2) series products where the nested partition
    sum makes at least one per partition of j-1, p(j-1), but whose
    intermediates are far larger than g_j when the entries are
    symbols."""
    build = _lagrange_g if table.mode == "rational" else _partition_g
    return build(table, powers, j, order)


def _inverse_coeff_series(table, k):
    """The k-th EGF coefficient g_k of the inverse relation as a series in
    x, exact through x^(N - k), N the table order.

    g_k is the k-th EGF coefficient of the reversion in y of
    f(x, y) - f(x, 0), over series in x, built by `_build_g`.

    The table keeps one memo: the g_j built so far and the column powers
    they share.  A call builds g_1, g_2, ... up to g_k in turn, once each,
    so the order asked of a power only falls and its first build is the
    longest ever read."""
    gs, powers = table._cache["inverse"]
    while len(gs) < k:
        j = len(gs) + 1
        gs.append(_build_g(table, powers, j, table.order - j))
    return gs[k - 1]


def expand_compose(table, order=None):
    """Expansion as G(x, -f(x, 0)) by BivariateEGF.substitute_y, the
    substitution newton's final check makes, column k of the series G
    being the inverse-relation series g_k:

        y(x) = sum_{k>=1} g_k(x) (-f(x,0))^k / k!

    Direct evaluates the same sum through Bell polynomials.  The k-th term
    starts at x^(v*k) or later, v the valuation of f(x, 0), so g_k is read
    only for k <= M // v, M the expansion order (for no k when the column
    is zero), and only through x^(M-k).
    """
    order = _expansion_order(table, order)
    t0 = time.perf_counter()
    phi0 = column_series(table, 0, order)
    v = next((m for m, c in enumerate(phi0.coeffs) if c), 0)
    rows = [[_ZERO] * (order + 1 - m) for m in range(order + 1)]
    for k in range(1, order // v + 1 if v else 1):
        g = _inverse_coeff_series(table, k).coeffs
        for m in range(order - k + 1):
            rows[m][k] = g[m]
    total = BivariateEGF(rows).substitute_y(-phi0)
    if total.coeffs[0]:
        raise InvariantError("composition produced a nonzero constant term")
    ys = [_in_mode(table, ym) for ym in total.coeffs[1:]]
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

    P(n, m) is the partial Bell polynomial B(m, n)(u_1, u_2, ...).  The
    P(n, j) are kept online, one column j at a time: for n >= 2, the
    division-free recurrence

        P(n, m) = sum_{i=1}^{m-n+1} C(m-1, i-1) u_i P(n-1, m-i)

    reads only u_1..u_{m-1}, so column m is complete before y_m is solved
    for.  Each product is made once, about N^3/3 of them in all.

    The solve runs on f(p^2 x, p y) = 0, p the numerator of f(0,1) in
    rational mode and 1 in symbolic mode.  Its series is f(k, n) p^(2k+n)
    over the triangle k + n <= N, the entries the solve and the check read;
    its f(0,1) is p^2 / q, q the denominator of f(0,1); and its solution
    has coefficients u_m = y_m p^(2m-1).  So u_m = -s q / p^2, s the sum
    above over the scaled series, and y_m = u_m / p^(2m-1).  By Sokal's
    form of the expansion (A. D. Sokal, "A ridiculously simple and
    explicit implicit function theorem", Sem. Lothar. Combin. 61A, 2009),
    y_m is f(0,1)^-(2m-1) times a polynomial in the f(k, n) with integer
    coefficients, so u_m is such a polynomial times q^(2m-1), with no
    factor p in its denominator: on an integral table every product of
    the solve is an int product, with no Fraction and no gcd.  At p = 1
    the series is the table's and u_m = y_m.

    Both sums read their binomials off rows of Pascal's triangle and pair
    aligned slices: u_i C(m-1, i-1) with a row of P reversed, and row k of
    the series with column m - k of P.  When the scaled series holds only
    ints, as on every integral table, each is a plain int sum of products;
    otherwise each is one `dot`, which sums Fractions over one common
    denominator and polynomials term by term.

    Ends by checking that the final residual, substituted afresh,
    vanishes through the order: the returned y_m, each times p^(2m-1),
    are substituted into the scaled series.  Coefficient m of that one is
    p^(2m) times coefficient m of f(x, y(x)), so it is zero exactly when
    the unscaled residual is, and the check is as strict as on the table
    itself.
    """
    order = _expansion_order(table, order)
    f01 = table.entry(0, 1)
    p = 1 if table.mode == "symbolic" else f01.numerator
    f = as_bivariate(table, order)
    if p == 1:
        inv = invert_scalar(f01)
    else:
        scale = [p ** e for e in range(2 * order + 1)]
        f = BivariateEGF._raw([c * scale[2 * k + n] if type(c) is int
                               else div_int(c.numerator * scale[2 * k + n], c.denominator)
                               for n, c in enumerate(row)] for k, row in enumerate(f.coeffs))
        inv = invert_scalar(f01 * p)  # q / p^2, one over the scaled f(0,1)
    rows = f.coeffs
    ints = all(type(c) is int for row in rows for c in row)
    fold, weighted, total = _sums(ints, dot)
    pascal = _pascal(order)
    # pw[n][j] for n >= 1 and cols[j][n]: P(n, j), zero below j = n; pw[1] is u
    pw = [[_ZERO] * n for n in range(order + 1)]
    cols = [[1]]
    u = pw[1]
    ys, diags = [], []
    for m in range(1, order + 1):
        t0 = time.perf_counter()
        cu = fold(pascal[m - 1], u[1:])  # C(m-1, i-1) with u_i, i = 1..m-1
        # u_m is unknown yet, so f(0,1) u_m drops out; P(n, m) for n >= 2 is
        # cu against P(n-1, m-1), P(n-1, m-2), ..., P(n-1, n-1)
        col = [_ZERO, _ZERO] + weighted(repeat(cu), [pw[n - 1][m - 1:n - 2:-1]
                                                     for n in range(2, m + 1)])
        for n in range(2, m + 1):
            pw[n].append(col[n])
        cols.append(col)
        # C(m, k) times row k of f against column m - k of P, over k
        um = col[1] = as_coefficient(-(total(pascal[m], rows, reversed(cols)) * inv))
        u.append(um)
        ym = um if p == 1 else div_int(um, scale[2 * m - 1])
        ys.append(ym)
        diags.append(_diag(ym, t0))
    # the check reads none of the solve's P(n, j), whose memory it can reuse
    del pw, cols, u, col, cu
    check = ys if p == 1 else [y * scale[2 * m - 1] for m, y in enumerate(ys, 1)]
    final = f.substitute_y(TaylorEGF([_ZERO, *check], order=order), order=order)
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
