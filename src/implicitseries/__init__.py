"""Exact power-series expansion of implicitly defined functions.

Given the Taylor coefficients f(m, n) of an equation f(x, y) = 0 with
f(0, 0) = 0 and invertible f(0, 1), this package computes the coefficients
of the unique formal solution y(x) with y(0) = 0 -- as exact rationals or
as Laurent polynomials in the table symbols -- by three methods that
cross-check each other.
"""

from .algebra import (
    ONE,
    ZERO,
    LaurentPoly,
    NotInvertibleError,
    fsym,
    xsym,
)
from .combinatorics import (
    bell_eval,
    bell_partial,
    comp_inverse_coeff_poly,
    compositions,
    generic_monomial_count,
    partition_sequences,
    stirling1_poly,
    stirling_number,
)
from .expr import ParseError, parse, table_from_expr, to_text
from .implicit import (
    CoeffTable,
    ExpansionResult,
    InvariantError,
    NotExpandableError,
    TableError,
    builtin_table,
    column_series,
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
from .series import BivariateEGF, ConstantTermError, MixedOrderError, TaylorEGF

__version__ = "0.1.0"

__all__ = [
    "ONE",
    "ZERO",
    "LaurentPoly",
    "NotInvertibleError",
    "fsym",
    "xsym",
    "bell_eval",
    "bell_partial",
    "comp_inverse_coeff_poly",
    "compositions",
    "generic_monomial_count",
    "partition_sequences",
    "stirling1_poly",
    "stirling_number",
    "ParseError",
    "parse",
    "table_from_expr",
    "to_text",
    "CoeffTable",
    "ExpansionResult",
    "InvariantError",
    "NotExpandableError",
    "TableError",
    "builtin_table",
    "column_series",
    "expand",
    "expand_compose",
    "expand_direct",
    "expand_newton",
    "inverse_taylor_coeff",
    "monomial_count",
    "specialize",
    "validate_table",
    "y_coeff_direct",
    "BivariateEGF",
    "ConstantTermError",
    "MixedOrderError",
    "TaylorEGF",
    "__version__",
]
