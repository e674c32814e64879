"""Truncated power series with factorial-normalized coefficients.

A series of order N stores c_0..c_N and denotes sum c_n x^n / n!; the
bivariate kind stores a full (N+1) x (N+1) box of c_{m,n} for
sum c_{m,n} x^m y^n / (m! n!).  Coefficients are exact scalars (an int
when integral, otherwise a Fraction) or Laurent polynomials, brought into
that canonical form as a series is built; all arithmetic is exact.  A
division by k! is taken one factor k at a time, so that integral
intermediates such as u^k / k! stay integral.  Orders never mix silently:
binary operations demand equal orders and raise MixedOrderError otherwise.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import comb, lcm

from .algebra import (LaurentPoly, NotInvertibleError, as_coefficient, div_int, dot,
                      invert_scalar, power)
from .combinatorics import bell_eval

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
    and may run past the order; row is the inner operand, at least
    order + 1 entries long.  Entries are ints, so that exact rational
    products run over one common denominator and make no Fraction; a
    LaurentPoly entry sums as well.  The output coefficient runs
    outermost, with a local accumulator: adding each outer term into the
    output list instead made dense direct at N=40 about 1.5x slower.
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


def _exp_rows(f, g0):
    """The rows G_0..G_N of G = exp F from the rows F_0..F_N of F and
    g0 = exp F_0, by G' = F' G: G_{m+1} = sum_i C(m, i) F_{i+1} G_{m-i}.

    A row is a scalar (a one-variable series) or a series in y (a
    bivariate one); ' is the derivative in x.  A zero F_1 is not
    multiplied: it starts each sum as itself, a zero of its row's type.
    """
    g = [g0]
    for m in range(len(f) - 1):
        s = f[1] * g[m] if f[1] else f[1]
        for i in range(1, m + 1):
            if f[i + 1] and g[m - i]:
                s = s + comb(m, i) * f[i + 1] * g[m - i]
        g.append(s)
    return g


def _quotient_rows(f, r, inv0):
    """The rows Q_0..Q_M of Q = R / F from the rows of F and R and
    inv0 = 1 / F_0, by F Q = R: Q_m = inv0 (R_m - sum_{i>=1} C(m, i) F_i Q_{m-i}).
    Rows are as in `_exp_rows`."""
    q = []
    for m in range(len(r)):
        s = r[m]
        for i in range(1, m + 1):
            if f[i] and q[m - i]:
                # the sign rides on the int, so no polynomial is negated
                s = s + -comb(m, i) * f[i] * q[m - i]
        q.append(inv0 * s)
    return q


class TaylorEGF:
    """One-variable truncated series, exact through x^order."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs, order=None):
        coeffs = [as_coefficient(c) for c in coeffs]
        if order is not None:
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
        return cls([_ZERO] * (order + 1))

    @classmethod
    def one(cls, order):
        return cls([_ONE] + [_ZERO] * order)

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
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
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
            a, b = self.coeffs, other.coeffs
            # sums of polynomials take the fused dot, sums of numbers the
            # int loop below, which costs them no tuple per term.  Each
            # operand is judged by its first nonzero coefficient (a full scan
            # costs lambert20 about 2%), so a symbolic factor still takes dot
            # when the other starts with an int, as the series one does; two
            # factors that both start with an int take the int loop, which
            # scales a later polynomial coefficient by multiplication and
            # gives the same value.
            if LaurentPoly in (type(next(filter(None, a), 0)), type(next(filter(None, b), 0))):
                return TaylorEGF._raw([dot([(comb(n, i), a[i], b[n - i]) for i in range(n + 1)
                                            if a[i] and b[n - i]]) for n in range(self.order + 1)])
            # one int convolution over the product of the two common
            # denominators, so that no term makes a Fraction and its gcd
            da, (a,) = _over_one_denominator((a,))
            db, (b,) = _over_one_denominator((b,))
            out = _convolve([(1, [(i, c) for i, c in enumerate(a) if c], b)], self.order)
            d = da * db
            return TaylorEGF._raw([div_int(c, d) for c in out] if d > 1 else out)
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
        need an invertible constant term."""
        if exponent < 0:
            return power(self.reciprocal(), -exponent)
        return power(self, exponent) if exponent else TaylorEGF.one(self.order)

    def reciprocal(self):
        """Multiplicative inverse; the constant term must be a unit."""
        try:
            inv0 = invert_scalar(self.coeffs[0])
        except NotInvertibleError:
            raise NotInvertibleError(
                f"constant term is not invertible: {self.coeffs[0]}") from None
        return TaylorEGF(_quotient_rows(self.coeffs, [_ONE] + [_ZERO] * self.order, inv0))

    def coeff_of_power(self, exponent, n):
        """Coefficient n of self**exponent, exponent any integer."""
        if not (0 <= n <= self.order):
            raise ValueError("coefficient index out of range")
        return self.pow_int(exponent).coeffs[n]

    def compose(self, inner):
        """self(inner(x)); the inner series must kill its constant term."""
        self._check(inner)
        if inner.coeffs[0]:
            raise ConstantTermError("composition needs a zero inner constant term")
        args = inner.coeffs[1:]
        bell_memo = {}
        return TaylorEGF([self.coeffs[0]] + [
            dot([(1, self.coeffs[k], bell_eval(n, k, args, bell_memo))
                 for k in range(1, n + 1) if self.coeffs[k]])
            for n in range(1, self.order + 1)])

    def reversion(self):
        """Compositional inverse h, h(self(x)) = x through the order.
        Needs zero constant term and invertible linear term."""
        g = self.coeffs
        if g[0]:
            raise ConstantTermError("reversion needs a zero constant term")
        try:
            inv1 = invert_scalar(g[1])
        except NotInvertibleError:
            raise NotInvertibleError(
                f"linear term is not invertible: {g[1]}") from None
        args = g[1:]
        bell_memo = {}
        h = [_ZERO, inv1]
        for n in range(2, self.order + 1):
            s = dot([(1, h[k], bell_eval(n, k, args, bell_memo)) for k in range(1, n) if h[k]])
            h.append(as_coefficient(-(s * inv1 ** n)))
        return TaylorEGF(h)

    def exp(self):
        """Series exponential; needs a zero constant term."""
        if self.coeffs[0]:
            raise ConstantTermError("exp needs a zero constant term")
        return TaylorEGF(_exp_rows(self.coeffs, _ONE))

    def log(self):
        """Series logarithm; needs constant term exactly 1."""
        if self.coeffs[0] != 1:
            raise ConstantTermError("log needs constant term 1")
        return TaylorEGF([_ZERO] + _quotient_rows(self.coeffs, self.coeffs[1:], _ONE))


class BivariateEGF:
    """Two-variable truncated series over a square coefficient box."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        rows = [tuple(as_coefficient(c) for c in row) for row in coeffs]
        n = len(rows)
        if n == 0 or any(len(row) != n for row in rows):
            raise ValueError("coefficient box must be square and nonempty")
        self.coeffs = tuple(rows)

    @classmethod
    def zero(cls, order):
        return cls([[_ZERO] * (order + 1) for _ in range(order + 1)])

    @classmethod
    def const(cls, value, order):
        box = [[_ZERO] * (order + 1) for _ in range(order + 1)]
        box[0][0] = as_coefficient(value)
        return cls(box)

    @classmethod
    def var_x(cls, order):
        if order < 1:
            raise ValueError("var_x needs order >= 1")
        box = [[_ZERO] * (order + 1) for _ in range(order + 1)]
        box[1][0] = _ONE
        return cls(box)

    @classmethod
    def var_y(cls, order):
        if order < 1:
            raise ValueError("var_y needs order >= 1")
        box = [[_ZERO] * (order + 1) for _ in range(order + 1)]
        box[0][1] = _ONE
        return cls(box)

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
        return BivariateEGF([
            [a + b for a, b in zip(ra, rb)]
            for ra, rb in zip(self.coeffs, other.coeffs)
        ])

    def __sub__(self, other):
        if not isinstance(other, BivariateEGF):
            return NotImplemented
        self._check(other)
        return BivariateEGF([
            [a - b for a, b in zip(ra, rb)]
            for ra, rb in zip(self.coeffs, other.coeffs)
        ])

    def __neg__(self):
        return BivariateEGF([[-c for c in row] for row in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, BivariateEGF):
            self._check(other)
            N = self.order
            da, a = _over_one_denominator(self.coeffs)
            db, b = _over_one_denominator(other.coeffs)
            # exact and commutative: the kernel's outer operand is walked by
            # its nonzero entries, so give it the box with fewer of them
            if sum(map(bool, chain.from_iterable(b))) < sum(map(bool, chain.from_iterable(a))):
                a, b = b, a
            a = [[(n, c) for n, c in enumerate(row) if c] for row in a]
            # output row m is sum_{m1} C(m, m1) a_m1(y) b_(m-m1)(y), in ints
            # over the product of the two common denominators
            out = [_convolve([(cm[m1], a[m1], b[m - m1]) for m1 in range(m + 1) if a[m1]], N)
                   for m, cm in enumerate(_pascal(N))]
            d = da * db
            if d > 1:
                out = [[div_int(c, d) for c in row] for row in out]
            return BivariateEGF(out)
        if isinstance(other, (int, Fraction, LaurentPoly)):
            return BivariateEGF([[c * other if c else c for c in row] for row in self.coeffs])
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, n):
        """The series divided by a nonzero int, exactly (see div_int)."""
        if not isinstance(n, int):
            return NotImplemented
        return BivariateEGF([[div_int(c, n) for c in row] for row in self.coeffs])

    def pow_int(self, exponent):
        if exponent < 0:
            return power(self.reciprocal(), -exponent)
        return power(self, exponent) if exponent else BivariateEGF.const(1, self.order)

    # exp, log and the reciprocal run `_exp_rows` and `_quotient_rows` over
    # the rows F_m(y) of the box, one series in y each: exp by G' = F'G,
    # log by G' = F'/F and the reciprocal by FG = 1, ' being d/dx.  Row 0
    # is the one-variable operation on F_0(y); its domain check on F(0, 0)
    # runs before any recurrence and raises the bivariate operation's error.

    def _rows(self):
        return [TaylorEGF(row) for row in self.coeffs]

    def reciprocal(self):
        """Multiplicative inverse; the constant term must be a unit."""
        f = self._rows()
        inv0 = f[0].reciprocal()
        zero = TaylorEGF.zero(self.order)
        r = [TaylorEGF.one(self.order)] + [zero] * self.order
        return BivariateEGF([q.coeffs for q in _quotient_rows(f, r, inv0)])

    def exp(self):
        """Exponential; needs a zero constant term."""
        f = self._rows()
        return BivariateEGF([g.coeffs for g in _exp_rows(f, f[0].exp())])

    def log(self):
        """Logarithm; needs constant term exactly 1."""
        f = self._rows()
        g0 = f[0].log()
        d = _quotient_rows(f, f[1:], f[0].reciprocal())
        return BivariateEGF([g.coeffs for g in [g0, *d]])

    def substitute_y(self, u, order=None):
        """The one-variable series f(x, u(x)); u must kill its constant term.

        Exact through the output order because u has positive valuation, so
        row n contributes nothing below x^n; it follows that row n reaches
        the output only through x^(order - n), and only that triangle of
        the box is read.
        """
        if order is None:
            order = min(self.order, u.order)
        if order > self.order or order > u.order:
            raise MixedOrderError("substitution order exceeds an operand's order")
        if u.coeffs[0]:
            raise ConstantTermError("substitution needs a zero constant term")
        u = u.truncate(order)
        total = TaylorEGF([self.coeffs[m][0] for m in range(order + 1)])  # row 0 times u^0
        upow = TaylorEGF.one(order)  # u^n / n!
        for n in range(1, order + 1):
            upow = upow * u / n
            if upow.is_zero():
                break
            row = [self.coeffs[m][n] for m in range(order + 1 - n)]
            if any(row):
                total = total + TaylorEGF(row, order) * upow
        return total
