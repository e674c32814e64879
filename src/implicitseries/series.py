"""Truncated power series with factorial-normalized coefficients.

A series of order N stores c_0..c_N and denotes sum c_n x^n / n!; the
bivariate kind stores the triangle of c_{m,n}, m + n <= N, for
sum c_{m,n} x^m y^n / (m! n!), truncated in total degree: row m holds
c_{m,0}..c_{m,N-m}.  Coefficients are exact scalars (an int
when integral, otherwise a Fraction) or Laurent polynomials, brought into
that canonical form as a series is built; all arithmetic is exact.  A
division by k! is taken one factor k at a time, so that integral
intermediates such as u^k / k! stay integral.  Orders never mix silently:
binary operations demand equal orders and raise MixedOrderError otherwise.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain, repeat
from math import comb, gcd, lcm
from operator import add, mul, sub

from .algebra import (LaurentPoly, NotInvertibleError, as_coefficient, div_int, dot,
                      invert_scalar, power)

_ZERO = 0
_ONE = 1


class MixedOrderError(ValueError):
    """Two series of different truncation orders met in one operation."""


class ConstantTermError(ValueError):
    """A constant term violates an operation's domain requirement."""


def _over_one_denominator(rows):
    """(d, the rows times d), d the lcm of the denominators of the Fraction
    entries: each scalar becomes an int and a LaurentPoly entry is
    multiplied by d.  Rows without a Fraction, as Lambert's are, come back
    as they are, found by a scan of the entry types at C speed."""
    if Fraction not in map(type, chain.from_iterable(rows)):
        return 1, rows
    d = lcm(*[c.denominator for row in rows for c in row if type(c) is Fraction])
    return d, [[c.numerator * (d // c.denominator) if type(c) is Fraction else c * d
                for c in row] for row in rows]


@lru_cache(maxsize=256)
def _binomials(n):
    """Row n of Pascal's triangle, C(n, 0)..C(n, n)."""
    return tuple(comb(n, i) for i in range(n + 1))


@lru_cache(maxsize=256)
def _pascal(order):
    """Rows 0..order of Pascal's triangle, each row shared with every
    order that has it.  Both caches hold 256 entries, which cover every
    order the CLI accepts (at most 150) and bound their memory."""
    return tuple(map(_binomials, range(order + 1)))


def _convolve(terms, order):
    """The weighted EGF product sum of k * sum_i C(n, i) c_i row[n - i]
    over (k, pairs, row) in terms, for n = 0..order, as a list.

    pairs is the outer operand as its nonzero (i, c_i) in increasing i,
    and may run past the order; row is the inner operand, read through
    index order - i_0 for pairs starting at i_0.  Entries are ints, so
    that exact rational products run over one common denominator and make
    no Fraction; a LaurentPoly entry sums as well.  The output coefficient
    runs outermost, with a local accumulator: adding each outer term into
    the output list instead made dense direct at N=40 about 1.5x slower.
    Every output below the smallest outer index is zero, so the loop
    starts there."""
    start = order + 1
    for _, pairs, _ in terms:
        if pairs and pairs[0][0] < start:
            start = pairs[0][0]
    out = [0] * start
    pascal = _pascal(order)
    for n in range(start, order + 1):
        cn = pascal[n]
        s = 0
        for k, pairs, row in terms:
            t = 0
            for i, c in pairs:
                if i > n:
                    break
                if e := row[n - i]:
                    t += cn[i] * c * e
            s += k * t
        out.append(s)
    return out


def _series_dot(terms, order):
    """Coefficients 0..order of the one-variable series sum of k * A * B
    over (int k, A, B) in terms, A and B coefficient sequences, canonical.

    An operand is read through index order - i_0 when the other starts
    at x^(i_0), so it may stop there or run past the order.  The kernel
    walks A, its outer operand, by the nonzero coefficients, so callers
    put the sparser operand first where they know it.  Numbers sum in one
    `_convolve` on ints over the common denominators, so that no term
    makes a Fraction and its gcd.  When an operand starts with a
    polynomial, every sum is one `dot` per output coefficient, which costs
    such sums no LaurentPoly per term.  The first nonzero coefficient
    decides, as the int path scales a later polynomial coefficient by
    multiplication and gives the same value."""
    if any(_starts_polynomial(a) or _starts_polynomial(b) for _, a, b in terms):
        terms = [(k, [(i, c) for i, c in enumerate(a) if c], b) for k, a, b in terms]
        return [dot([(k * cn[i], c, b[n - i]) for k, pairs, b in terms
                     for i, c in pairs if i <= n and b[n - i]])
                for n, cn in enumerate(_pascal(order))]
    scaled = []
    for k, a, b in terms:
        da, (a,) = _over_one_denominator((a,))
        if pairs := [(i, c) for i, c in enumerate(a) if c]:
            db, (b,) = _over_one_denominator((b,))
            scaled.append((da * db, k, pairs, b))
    d = lcm(*[dk for dk, _, _, _ in scaled])
    out = _convolve([(k * (d // dk), pairs, b) for dk, k, pairs, b in scaled], order)
    return [div_int(c, d) for c in out] if d > 1 else out


def _starts_polynomial(a):
    """Whether the first nonzero coefficient of a is a LaurentPoly."""
    return type(next(filter(None, a), 0)) is LaurentPoly


def _sums(ints, dot):
    """(fold, weighted, total), the sums of products of `substitute_y`
    and of newton's solve, on ints or, when ints is false, through dot,
    the `dot` of the caller's module:

        fold(w, a)          a with its weights w
        weighted(was, bs)   [sum_i w_i a_i b_i for (wa, b) in zip(was, bs)], wa folded
        total(w, a, b)      sum_k w_k (a_k . b_k)

    zip stopping at the shorter sequence.  On ints each is a
    `sum(map(mul, ...))` mapped at C speed, fold multiplying the weights
    into a once.  Otherwise each is one `dot` over the nonzero products
    with the weights in its triples, which sums Fractions over one common
    denominator and makes no scaled copy of a polynomial."""
    if ints:
        def fold(w, a):
            return list(map(mul, w, a))

        def weighted(was, bs):
            return list(map(sum, map(map, repeat(mul), was, bs)))

        def total(w, a, b):
            return sum(map(mul, w, map(sum, map(map, repeat(mul), a, b))))
    else:
        def fold(w, a):
            return list(zip(w, a))

        def weighted(was, bs):
            return [dot((w, a, x) for (w, a), x in zip(wa, b) if a and x)
                    for wa, b in zip(was, bs)]

        def total(w, a, b):
            return dot((wk, x, y) for wk, ak, bk in zip(w, a, b)
                       for x, y in zip(ak, bk) if x and y)
    return fold, weighted, total


def _add_products(s, terms):
    """s + sum of k * A * B over (int k, A, B) in terms, for rows A, B and
    s of one kind, in one kernel pass: `_series_dot` for series in y, in
    which s is the product of the series 1 and itself, and `dot` for
    scalars."""
    if not terms:
        return s
    if isinstance(s, TaylorEGF):
        ones = [(1, TaylorEGF.one(s.order).coeffs, s.coeffs)] if s else []
        return TaylorEGF._raw(_series_dot(ones + [(k, a.coeffs, b.coeffs) for k, a, b in terms],
                                          s.order))
    return dot([(1, s, _ONE), *terms])


def _ode_rows(f, g0, a, divide=None, s=None):
    """The rows G_0..G_N of the G that solves L G' = a F' G + S' from
    G_0 = g0, the rows F_0..F_N of F and those of S (none: S = 0), ' being
    d/dx: L = F when divide, T -> T / F_0, is given, else L = 1.  Row by row,

        F_0 G_(m+1) = S_(m+1) + sum_{j=1}^{m+1} (a C(m, j-1) - C(m, j)) F_j G_(m+1-j),

    and G_(m+1) = S_(m+1) + sum_j C(m, j-1) F_j G_(m+1-j) when L = 1, where
    a must be 1.  So F^k is a = k (J. C. P. Miller's recurrence; Knuth,
    TAOCP Vol. 2, 4.7), 1 / F is a = -1, R / F is a = -1 with S = R, log F
    is a = 0 with S = F, and exp F is a = 1 with L = 1.

    A row is a scalar (a one-variable series, for `TaylorEGF.exp` alone) or
    a series in y (a bivariate one, row m of order N - m, for
    `BivariateEGF.__truediv__`, `pow_int`, `exp` and `log`), and divide is
    `_divider`'s solve, whose one divider of F_0's order serves every
    shorter row.  Each row is one `_add_products` pass, at the order of
    F_(m+1); a zero weight, F_j or G_(m+1-j) makes no product, so a base
    with r nonzero rows costs about r N row products.  Each row is tested
    for zero once, as it is made, as the test of a series in y reads every
    coefficient."""
    g, live_g = [g0], [bool(g0)]
    # the j >= 1 of the nonzero F_j up to row m + 1, and rows m, m + 1 of
    # Pascal's triangle: a C(m, j-1) - C(m, j) = (a+1) C(m, j-1) - C(m+1, j)
    nz, cm1, a1 = [], _binomials(0), a + 1
    for m in range(len(f) - 1):
        cm, cm1 = cm1, _binomials(m + 1)
        if f[m + 1]:
            nz.append(m + 1)
        # a weight is made only for a live term, and its sign rides on the
        # int, so no polynomial is negated
        if divide:
            terms = [(w, f[j], g[m + 1 - j]) for j in nz
                     if live_g[m + 1 - j] and (w := a1 * cm[j - 1] - cm1[j])]
        else:
            terms = [(cm[j - 1], f[j], g[m + 1 - j]) for j in nz if live_g[m + 1 - j]]
        row = _add_products(s[m + 1] if s else _zero_like(f[m + 1]), terms)
        g.append(divide(row) if divide else row)
        live_g.append(bool(g[-1]))
    return g


def _zero_like(row):
    """The zero of row's kind: a series in y of row's order, or 0."""
    return TaylorEGF._raw((_ZERO,) * len(row.coeffs)) if isinstance(row, TaylorEGF) else _ZERO


def _times(x, d):
    """x * d as an int for a scalar x whose denominator divides the int d;
    a LaurentPoly x, whose denominator counts as 1, is multiplied."""
    return x * d if type(x) is LaurentPoly else x.numerator * (d // x.denominator)


def _canonical_row(values):
    """Sums or products of canonical coefficients, made canonical: only the
    non-ints go through `as_coefficient`, which makes 1/2 + 1/2 the int 1."""
    return [c if type(c) is int else as_coefficient(c) for c in values]


def _divider(f0):
    """The function S -> S / F_0 on one-variable series of F_0's order or
    less, by the triangular solve of F_0 Q = S over the nonzero
    coefficients of F_0 (Knuth, TAOCP Vol. 2, 4.7; Brent and Kung, "Fast
    algorithms for manipulating formal power series", J. ACM 25, 1978), on
    ints.

    With c = 1 / F_0[0], h_i = c F_0[i] and S = S' / e over the common
    denominator of S, W = S' / F_0 is W_n = c S'_n - sum_{i>=1} C(n, i) h_i
    W_(n-i).  D_0 = den(c) and D_n = lcm(den(c), den(h_i) D_(n-i)) over
    the nonzero h_i, i <= n, make every V_n = D_n W_n an int:

        V_n = c D_n S'_n - sum_{i>=1, h_i != 0} C(n, i) h_i (D_n / D_(n-i)) V_(n-i),

    each weight an int, fixed by F_0 and built once.  So Q_n = V_n / (e D_n)
    and only that last division can make a Fraction.  D_n is at most
    a^(n+1) for F_0 = a + b y with integral a and b, and 3^n for
    F_0 = exp(y / 3); scaling V_n by a^(n+1), a = F_0[0] times the common
    denominator of F_0, carries n log2(a) bits instead, which made a dense
    divisor such as exp(y / 3) 20-40 times slower at N = 40-80.  A
    LaurentPoly c is the unit inverse of a unit monomial F_0[0], and a
    polynomial counts as having denominator 1.  Raises NotInvertibleError
    when F_0[0] is not a unit.  Its callers: `TaylorEGF.reciprocal` (of 1),
    `TaylorEGF.log` (of F') and, row by row through `_ode_rows`,
    `BivariateEGF.__truediv__`, `pow_int` and `log`."""
    c0 = f0.coeffs[0]
    try:
        inv = invert_scalar(c0)
    except NotInvertibleError:
        raise NotInvertibleError(f"constant term is not invertible: {c0}") from None
    h = [(i, inv * x) for i, x in enumerate(f0.coeffs) if i and x]
    den = [1 if type(x) is LaurentPoly else x.denominator for x in (inv, *(x for _, x in h))]
    dens = [den[0]]  # D_n
    scale = [_times(inv, den[0])]  # c D_n
    steps = [[]]  # the nonzero weights of V_(n-i), as (i, weight)
    for n, cn in enumerate(_pascal(f0.order)[1:], 1):
        live = [(i, x, dx) for (i, x), dx in zip(h, den[1:]) if i <= n]
        d = lcm(den[0], *[dx * dens[n - i] for i, _, dx in live])
        dens.append(d)
        scale.append(_times(inv, d))
        # the sign rides on the int, so no polynomial is negated
        steps.append([(i, _times(x, d // dens[n - i]) * -cn[i]) for i, x, _ in live])

    def divide(s):
        e, (s,) = _over_one_denominator((s.coeffs,))
        v = []
        for n, (sn, c, step) in enumerate(zip(s, scale, steps)):
            t = c * sn if sn else 0
            for i, w in step:
                if x := v[n - i]:
                    t += w * x
            v.append(t)
        return TaylorEGF._raw([div_int(x, e * d) if x else x for x, d in zip(v, dens)])

    return divide


class TaylorEGF:
    """One-variable truncated series, exact through x^order."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs, order=None):
        coeffs = [as_coefficient(c) for c in coeffs]
        if order is not None:
            if order < 0:
                raise ValueError(f"negative order {order}")
            if len(coeffs) > order + 1:
                raise ValueError("more coefficients than the order allows")
            coeffs.extend([_ZERO] * (order + 1 - len(coeffs)))
        if not coeffs:
            raise ValueError("a series needs at least its constant term")
        self.coeffs = tuple(coeffs)

    @classmethod
    def _raw(cls, coeffs):
        # Trusted constructor: every coefficient must be canonical already.
        s = cls.__new__(cls)
        s.coeffs = tuple(coeffs)
        return s

    @classmethod
    def zero(cls, order):
        return cls([], order)

    @classmethod
    def one(cls, order):
        return cls([_ONE], order)

    @classmethod
    def identity(cls, order):
        if order < 1:
            raise ValueError("the identity series needs order >= 1")
        return cls([_ZERO, _ONE] + [_ZERO] * (order - 1))

    @property
    def order(self):
        return len(self.coeffs) - 1

    def __getitem__(self, n):
        return self.coeffs[n]

    def __eq__(self, other):
        if not isinstance(other, TaylorEGF):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"TaylorEGF({list(self.coeffs)!r})"

    def _check(self, other):
        if self.order != other.order:
            raise MixedOrderError(f"orders differ: {self.order} vs {other.order}")

    def truncate(self, order):
        if not 0 <= order <= self.order:
            raise ValueError(f"truncation order {order} is outside 0..{self.order}")
        return TaylorEGF._raw(self.coeffs[: order + 1])

    def __add__(self, other):
        if not isinstance(other, TaylorEGF):
            return NotImplemented
        self._check(other)
        return TaylorEGF([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        if not isinstance(other, TaylorEGF):
            return NotImplemented
        self._check(other)
        return TaylorEGF([a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return TaylorEGF([-a for a in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, TaylorEGF):
            self._check(other)
            return TaylorEGF._raw(_series_dot([(1, self.coeffs, other.coeffs)], self.order))
        if isinstance(other, (int, Fraction, LaurentPoly)):
            return TaylorEGF([c * other if c else c for c in self.coeffs])
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, n):
        """The series divided by a nonzero int, exactly (see div_int)."""
        if not isinstance(n, int):
            return NotImplemented
        return TaylorEGF([div_int(c, n) for c in self.coeffs])

    def is_zero(self):
        return not any(self.coeffs)

    def __bool__(self):
        return any(self.coeffs)

    def pow_int(self, exponent):
        """Integer power; negative exponents go through the reciprocal and
        need an invertible constant term.  Repeated squaring is kept here,
        as its products convolve ints over one denominator: on the dense
        Fraction series exp(y/3) at N=40, `_ode_rows` took about 1.4 ms
        for the cube against 0.5 ms, each of its scalar rows making a
        Fraction."""
        if exponent < 0:
            return power(self.reciprocal(), -exponent)
        return power(self, exponent) if exponent else TaylorEGF.one(self.order)

    def reciprocal(self):
        """Multiplicative inverse; the constant term must be a unit."""
        return _divider(self)(TaylorEGF.one(self.order))

    def coeff_of_power(self, exponent, n):
        """Coefficient n of self**exponent, exponent any integer."""
        if not (0 <= n <= self.order):
            raise ValueError("coefficient index out of range")
        return self.pow_int(exponent).coeffs[n]

    def compose(self, inner):
        """self(inner(x)), the `BivariateEGF.substitute_y` of the triangle whose
        row 0 is self; the inner series must kill its constant term."""
        self._check(inner)
        if inner.coeffs[0]:
            raise ConstantTermError("composition needs a zero inner constant term")
        return BivariateEGF._triangle(
            self.order, {(0, n): c for n, c in enumerate(self.coeffs) if c}).substitute_y(inner)

    def reversion(self):
        """Compositional inverse h, h(self(x)) = x through the order.
        Needs zero constant term and invertible linear term.  By Lagrange
        inversion (Gessel, JCTA 144, 2016), h_n is coefficient n - 1 of
        A^-n, A = self(y) / y, A_i = g_(i+1) / (i + 1)."""
        g = self.coeffs
        if self.order < 1:
            raise ValueError("reversion needs order >= 1")
        if g[0]:
            raise ConstantTermError("reversion needs a zero constant term")
        try:
            r = TaylorEGF._raw([div_int(c, i) for i, c in enumerate(g[1:], 1)]).reciprocal()
        except NotInvertibleError:
            raise NotInvertibleError(f"linear term is not invertible: {g[1]}") from None
        # r, r^2, ..., r^N by N - 1 series products
        powers = accumulate(repeat(r, self.order), mul)
        return TaylorEGF._raw([_ZERO, *(p.coeffs[n] for n, p in enumerate(powers))])

    def exp(self):
        """Series exponential; needs a zero constant term."""
        if self.coeffs[0]:
            raise ConstantTermError("exp needs a zero constant term")
        return TaylorEGF(_ode_rows(self.coeffs, _ONE, 1))

    def log(self):
        """Series logarithm; needs constant term exactly 1."""
        if self.coeffs[0] != 1:
            raise ConstantTermError("log needs constant term 1")
        return TaylorEGF._raw((_ZERO, *_divider(self)(TaylorEGF._raw(self.coeffs[1:])).coeffs))


class BivariateEGF:
    """Two-variable truncated series over the triangle m + n <= order.

    Row m holds the coefficients of x^m y^0..y^(order - m), so the rows
    are series in y of orders order, order - 1, ..., 0.  Truncating in
    total degree loses nothing the expansion reads: a monomial
    prod f_{m,n}^(r_mn) of y_N has sum m r = N and sum n r = k - 1 with
    k = sum r (Sokal's form of the series), so sum (m + n) r = N + k - 1
    and every slot in it has m + n <= N."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        rows = [tuple(as_coefficient(c) for c in row) for row in coeffs]
        n = len(rows)
        if n == 0 or any(len(row) != n - m for m, row in enumerate(rows)):
            raise ValueError("coefficient rows must form a nonempty triangle, "
                             "row m of the order-N series holding N - m + 1 entries")
        self.coeffs = tuple(rows)

    @classmethod
    def _raw(cls, rows):
        # Trusted constructor: the rows must form a triangle of canonical
        # coefficients already.
        s = cls.__new__(cls)
        s.coeffs = tuple(map(tuple, rows))
        return s

    @classmethod
    def _triangle(cls, order, entries):
        """The series of the given order whose nonzero coefficients are
        entries, a dict {(m, n): canonical value}."""
        if order < 0:
            raise ValueError(f"negative order {order}")
        rows = [[_ZERO] * (order + 1 - m) for m in range(order + 1)]
        for (m, n), c in entries.items():
            rows[m][n] = c
        return cls._raw(rows)

    @classmethod
    def zero(cls, order):
        return cls._triangle(order, {})

    @classmethod
    def const(cls, value, order):
        return cls._triangle(order, {(0, 0): as_coefficient(value)})

    @classmethod
    def var_x(cls, order):
        if order < 1:
            raise ValueError("var_x needs order >= 1")
        return cls._triangle(order, {(1, 0): _ONE})

    @classmethod
    def var_y(cls, order):
        if order < 1:
            raise ValueError("var_y needs order >= 1")
        return cls._triangle(order, {(0, 1): _ONE})

    @property
    def order(self):
        return len(self.coeffs) - 1

    def __eq__(self, other):
        if not isinstance(other, BivariateEGF):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"BivariateEGF(order={self.order})"

    def _check(self, other):
        if self.order != other.order:
            raise MixedOrderError(f"orders differ: {self.order} vs {other.order}")

    def is_zero(self):
        return not any(any(row) for row in self.coeffs)

    def __add__(self, other):
        if not isinstance(other, BivariateEGF):
            return NotImplemented
        self._check(other)
        return BivariateEGF._raw([_canonical_row(map(add, ra, rb))
                                  for ra, rb in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        if not isinstance(other, BivariateEGF):
            return NotImplemented
        self._check(other)
        return BivariateEGF._raw([_canonical_row(map(sub, ra, rb))
                                  for ra, rb in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        # the negation of a canonical coefficient is canonical
        return BivariateEGF._raw([[-c for c in row] for row in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, BivariateEGF):
            self._check(other)
            N = self.order
            da, a = _over_one_denominator(self.coeffs)
            db, b = _over_one_denominator(other.coeffs)
            # exact and commutative: the kernel's outer operand is walked by
            # its nonzero entries, so give it the triangle with fewer of them
            if sum(map(bool, chain.from_iterable(b))) < sum(map(bool, chain.from_iterable(a))):
                a, b = b, a
            a = [[(n, c) for n, c in enumerate(row) if c] for row in a]
            # output row m is sum_{m1} C(m, m1) a_m1(y) b_(m-m1)(y) through
            # y^(N-m), in ints over the product of the two common
            # denominators; the kernel reads the longer rows b_(m-m1) only
            # that far
            out = [_convolve([(cm[m1], a[m1], b[m - m1]) for m1 in range(m + 1) if a[m1]], N - m)
                   for m, cm in enumerate(_pascal(N))]
            d = da * db
            if d > 1:
                out = [[div_int(c, d) for c in row] for row in out]
            return BivariateEGF._raw(out)
        if isinstance(other, (int, Fraction, LaurentPoly)):
            return BivariateEGF._raw([_canonical_row(c * other if c else c for c in row)
                                      for row in self.coeffs])
        return NotImplemented

    __rmul__ = __mul__

    def _rows(self):
        return [TaylorEGF._raw(row) for row in self.coeffs]

    def __truediv__(self, other):
        """The series divided by a nonzero int, exactly (see div_int), or
        by a series whose constant term is a unit, in one `_ode_rows` pass
        over the rows of self."""
        if isinstance(other, int):
            return BivariateEGF([[div_int(c, other) for c in row] for row in self.coeffs])
        if not isinstance(other, BivariateEGF):
            return NotImplemented
        self._check(other)
        f, r = other._rows(), self._rows()
        divide = _divider(f[0])
        return BivariateEGF._raw(q.coeffs for q in _ode_rows(f, divide(r[0]), -1, divide, r))

    def pow_int(self, exponent):
        """Integer power.  Exponents 1 and 2 square (no product or one:
        for 2 the recurrence's larger operands lose 10-40% on both sparse
        and dense bases), as does a positive exponent whose constant term
        has no inverse, F_0 then having none to divide by.  Every other
        exponent k runs `_ode_rows` from G_0 = F_0(y)^k and makes no
        bivariate product.  A negative exponent with a constant term that is
        not a unit raises NotInvertibleError."""
        if not exponent:
            return BivariateEGF.const(1, self.order)
        if exponent in (1, 2):
            return power(self, exponent)
        f = self._rows()
        try:
            divide = _divider(f[0])
        except NotInvertibleError:
            if exponent > 0:
                return power(self, exponent)
            raise
        return BivariateEGF._raw(g.coeffs for g in
                                 _ode_rows(f, f[0].pow_int(exponent), exponent, divide))

    def reciprocal(self):
        """Multiplicative inverse; the constant term must be a unit."""
        return BivariateEGF.const(1, self.order) / self

    def exp(self):
        """Exponential; needs a zero constant term."""
        f = self._rows()
        return BivariateEGF._raw(g.coeffs for g in _ode_rows(f, f[0].exp(), 1))

    def log(self):
        """Logarithm; needs constant term exactly 1."""
        f = self._rows()
        return BivariateEGF._raw(g.coeffs for g in _ode_rows(f, f[0].log(), 0, _divider(f[0]), f))

    def substitute_y(self, u, order=None):
        """The one-variable series f(x, u(x)) = sum_n F^(n)(x) u^n / n!,
        F^(n) the column of y^n / n!; u must kill its constant term.

        Exact through the output order because u has positive valuation, so
        u^n / n! starts at x^n; it follows that column n reaches the output
        only through x^(order - n), and only the triangle m + n <= order of
        the stored one is read.  Output coefficient t is

            sum_k C(t, k) sum_n f(k, n) P(n, t - k),

        P(n, j) coefficient j of u^n / n! (`_divided_powers`), so each
        binomial multiplies one inner sum.  On numbers the triangle and the
        powers are ints over their common denominators; when any entry or
        coefficient of u is a polynomial, each output coefficient is one
        `dot` (`_sums`).
        """
        if order is None:
            order = min(self.order, u.order)
        if order > self.order or order > u.order:
            raise MixedOrderError("substitution order exceeds an operand's order")
        if order < 0:
            raise ValueError(f"negative order {order}")
        if u.coeffs[0]:
            raise ConstantTermError("substitution needs a zero constant term")
        u = u.coeffs[:order + 1]
        rows = [row[:order + 1 - k] for k, row in enumerate(self.coeffs[:order + 1])]
        ints = LaurentPoly not in map(type, chain(u, *rows))
        du, d = 1, 1
        if ints:
            du, (u,) = _over_one_denominator((u,))
        # column n reaches the output only through u^n / n!, so the powers
        # stop at the last column with a nonzero entry
        top = next((n for n in range(order, 0, -1)
                    if any(row[n] for row in rows[:order + 1 - n])), 0)
        fold, weighted, total = _sums(ints, dot)
        e, powers = _divided_powers(u, du, top, ints, fold, weighted)
        if ints:
            # scaled after the powers, once their folded u is gone, so that
            # the three are never held at once
            d, rows = _over_one_denominator(rows)
        rows = [row if any(row) else () for row in rows]  # a zero row makes no product
        out = [total(ct, rows, reversed(powers[:t + 1])) for t, ct in enumerate(_pascal(order))]
        d *= e
        return TaylorEGF._raw([div_int(c, d) for c in out] if d > 1 else out)


def _divided_powers(u, du, top, ints, fold, weighted):
    """(e, Q), Q[j][n] / e being P(n, j), coefficient j of u^n / n!, for
    n = 0..top, Q[j] ending where P(n, j) must vanish.  u / du is u: ints
    over their common denominator du when ints is true, else du = 1; fold
    and weighted come from `_sums`.

        P(n, t) = (1/n) sum_i C(t, i) P(n-1, i) u_(t-i),

    the series product (u^(n-1) / (n-1)!) u over n, with C(t, i) u_(t-i)
    folded once per t for every power.  On ints a power is (d_n, ints over
    d_n), reduced by one gcd as in `implicit._lagrange_g`, and at the end
    is scaled in place to the common denominator e, so that one copy is
    held, then transposed; polynomial powers are divided by n as they are
    made, at e = 1.  u^n / n! starts at x^(n v), v the valuation of u, so
    the powers stop at n = order / v and each sum skips the leading zeros
    of its operands."""
    order = len(u) - 1
    v = next((t for t, c in enumerate(u) if c), order + 1)
    top = min(top, order // v)
    pascal = _pascal(order)
    # C(t, i) u_(t-i) for i = 0..t - v
    uc = [fold(pascal[t], u[t:v - 1:-1]) for t in range(order + 1)] if top else []
    powers, dens = [[1] + [0] * order], [1]
    for n in range(1, top + 1):
        lo = (n - 1) * v
        prev = powers[-1][lo:]
        row = [0] * (n * v) + weighted([w[lo:] for w in uc[n * v:]], repeat(prev))
        if ints:
            den = n * dens[-1] * du
            g = gcd(den, *row)
            dens.append(den // g)
            powers.append([c // g for c in row] if g > 1 else row)
        else:
            powers.append([div_int(c, n) if c else c for c in row])
    del uc
    e = lcm(*dens)
    for row, dn in zip(powers, dens):
        if dn < e:
            row[:] = [c * (e // dn) for c in row]
    return e, [[p[j] for p in powers[:min(top, j // v) + 1]] for j in range(order + 1)]
