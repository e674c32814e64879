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
from math import comb

from .algebra import LaurentPoly, NotInvertibleError, as_coefficient, invert_scalar
from .combinatorics import bell_eval

_ZERO = 0
_ONE = 1


class MixedOrderError(ValueError):
    """Two series of different truncation orders met in one operation."""


class ConstantTermError(ValueError):
    """A constant term violates an operation's domain requirement."""


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
        return TaylorEGF(self.coeffs[: order + 1])

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
            out = []
            for n in range(self.order + 1):
                s = 0
                for i in range(n + 1):
                    if a[i] and b[n - i]:
                        s = s + comb(n, i) * a[i] * b[n - i]
                out.append(s)
            return TaylorEGF(out)
        if isinstance(other, (int, Fraction, LaurentPoly)):
            return TaylorEGF([c * other if c else c for c in self.coeffs])
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, LaurentPoly)):
            return TaylorEGF([other * c if c else c for c in self.coeffs])
        return NotImplemented

    def is_zero(self):
        return not any(self.coeffs)

    def pow_int(self, exponent):
        """Integer power; negative exponents go through the reciprocal and
        need an invertible constant term."""
        if exponent == 0:
            return TaylorEGF.one(self.order)
        if exponent < 0:
            return self.reciprocal().pow_int(-exponent)
        result = None
        base = self
        k = exponent
        while k:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def reciprocal(self):
        """Multiplicative inverse; the constant term must be a unit."""
        try:
            inv0 = invert_scalar(self.coeffs[0])
        except NotInvertibleError:
            raise NotInvertibleError(
                f"constant term is not invertible: {self.coeffs[0]}") from None
        a = self.coeffs
        out = [inv0]
        for n in range(1, self.order + 1):
            s = 0
            for i in range(1, n + 1):
                if a[i] and out[n - i]:
                    s = s + comb(n, i) * a[i] * out[n - i]
            out.append(as_coefficient(-(inv0 * s)))
        return TaylorEGF(out)

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
        out = [self.coeffs[0]]
        for n in range(1, self.order + 1):
            s = 0
            for k in range(1, n + 1):
                if self.coeffs[k]:
                    b = bell_eval(n, k, args, bell_memo)
                    if b:
                        s = s + self.coeffs[k] * b
            out.append(s)
        return TaylorEGF(out)

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
            s = 0
            for k in range(1, n):
                if h[k]:
                    b = bell_eval(n, k, args, bell_memo)
                    if b:
                        s = s + h[k] * b
            h.append(as_coefficient(-(s * inv1 ** n)))
        return TaylorEGF(h)

    def exp(self):
        """Series exponential; needs a zero constant term."""
        if self.coeffs[0]:
            raise ConstantTermError("exp needs a zero constant term")
        result = TaylorEGF.one(self.order)
        power = TaylorEGF.one(self.order)  # self^k / k!
        for k in range(1, self.order + 1):
            power = power * self * Fraction(1, k)
            if power.is_zero():
                break
            result = result + power
        return result

    def log(self):
        """Series logarithm; needs constant term exactly 1."""
        if self.coeffs[0] != 1:
            raise ConstantTermError("log needs constant term 1")
        v = self - TaylorEGF.one(self.order)
        result = TaylorEGF.zero(self.order)
        power = TaylorEGF.one(self.order)
        for k in range(1, self.order + 1):
            power = power * v
            if power.is_zero():
                break
            result = result + power * Fraction((-1) ** (k - 1), k)
        return result


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
            a, b = self.coeffs, other.coeffs
            out = [[_ZERO] * (N + 1) for _ in range(N + 1)]
            for m1 in range(N + 1):
                row = a[m1]
                for n1 in range(N + 1):
                    c = row[n1]
                    if not c:
                        continue
                    for m2 in range(N + 1 - m1):
                        brow = b[m2]
                        cm = comb(m1 + m2, m1)
                        for n2 in range(N + 1 - n1):
                            d = brow[n2]
                            if d:
                                out[m1 + m2][n1 + n2] += cm * comb(n1 + n2, n1) * c * d
            return BivariateEGF(out)
        if isinstance(other, (int, Fraction, LaurentPoly)):
            return BivariateEGF([[c * other if c else c for c in row] for row in self.coeffs])
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, LaurentPoly)):
            return BivariateEGF([[other * c if c else c for c in row] for row in self.coeffs])
        return NotImplemented

    def pow_int(self, exponent):
        if exponent == 0:
            return BivariateEGF.const(1, self.order)
        if exponent < 0:
            return self.reciprocal().pow_int(-exponent)
        result = None
        base = self
        k = exponent
        while k:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def reciprocal(self):
        """Multiplicative inverse via the geometric sum in 1 - f/f(0,0).

        The box is truncated in each variable separately, so terms up to
        total degree 2*order matter and the sum runs that far.
        """
        try:
            inv0 = invert_scalar(self.coeffs[0][0])
        except NotInvertibleError:
            raise NotInvertibleError(
                f"constant term is not invertible: {self.coeffs[0][0]}") from None
        rest = BivariateEGF.const(1, self.order) - self * inv0
        result = BivariateEGF.const(1, self.order)
        power = BivariateEGF.const(1, self.order)
        for _ in range(2 * self.order):
            power = power * rest
            if power.is_zero():
                break
            result = result + power
        return result * inv0

    def exp(self):
        """Exponential; needs a zero constant term.  Runs the defining sum
        to total degree 2*order, which the square box requires."""
        if self.coeffs[0][0]:
            raise ConstantTermError("exp needs a zero constant term")
        result = BivariateEGF.const(1, self.order)
        power = BivariateEGF.const(1, self.order)  # self^k / k!
        for k in range(1, 2 * self.order + 1):
            power = power * self * Fraction(1, k)
            if power.is_zero():
                break
            result = result + power
        return result

    def log(self):
        """Logarithm; needs constant term exactly 1."""
        if self.coeffs[0][0] != 1:
            raise ConstantTermError("log needs constant term 1")
        v = self - BivariateEGF.const(1, self.order)
        result = BivariateEGF.zero(self.order)
        power = BivariateEGF.const(1, self.order)
        for k in range(1, 2 * self.order + 1):
            power = power * v
            if power.is_zero():
                break
            result = result + power * Fraction((-1) ** (k - 1), k)
        return result

    def substitute_y(self, u, order=None):
        """The one-variable series f(x, u(x)); u must kill its constant term.

        Exact through the output order because u has positive valuation, so
        row n contributes nothing below x^n.
        """
        if order is None:
            order = min(self.order, u.order)
        if order > self.order or order > u.order:
            raise MixedOrderError("substitution order exceeds an operand's order")
        if u.coeffs[0]:
            raise ConstantTermError("substitution needs a zero constant term")
        u = u.truncate(order)
        total = TaylorEGF.zero(order)
        upow = TaylorEGF.one(order)  # u^n / n!
        for n in range(min(self.order, order) + 1):
            if n:
                upow = upow * u * Fraction(1, n)
                if upow.is_zero():
                    break
            row = [self.coeffs[m][n] for m in range(order + 1)]
            if any(row):
                total = total + TaylorEGF(row) * upow
        return total
