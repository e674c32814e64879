"""Command-line front door.

Reads a coefficient table (JSON file, expression text, or named builtin),
expands y(x) by the requested method(s), and writes one JSON document.
Exit status: 0 success, 1 malformed input, 2 not expandable, 3 the methods
disagree, 4 an internal invariant failed, newton's worker (below) ending
without a result included.  All numeric I/O is exact strings; nothing
here ever goes through floating point.

--method all on a symbolic table runs newton in a forked worker process
while this one runs direct and compose and writes the document into an
anonymous staging file; the document goes to --out or stdout only after
the three results agree, so a failed run publishes nothing.  Newton
shares no work with the other two, and on the generic table it is the
longest of the three.  The CPU time is then spent in two processes: at
N=10 a run took 0.075 s of wall time and 0.123 s of CPU in the two
together, against 0.102 s and 0.101 s with the methods run one after
another (medians of twelve fresh processes each, 2-vCPU host).  On
rational tables, and where os.fork is missing, the methods run one after
another in this process: there the fork costs more than newton takes.

Flags are read with getopt, not argparse.  argparse's first parser in a
process sends its titles through gettext, whose first lookup imports
locale; getopt calls gettext only to word an error, so a run that parses
cleanly imports neither.  On the benchmark's lambert20 job
(--expr "y*exp(y)-x" -N 20) that took job_s from 0.0115 to 0.0088 s
(medians of ten alternating pairs of runs, 2-vCPU host).  A flag that
takes a value takes the next word, even one that starts with "-", and a
long flag may be cut to a unique prefix.  Every usage error exits 1 with
one error line; -h or --help prints the usage text and exits 0.
"""

import getopt
import json
import math
import re
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

from .algebra import ONE, ZERO, LaurentPoly, NotInvertibleError, _factor_obj, xsym
from .combinatorics import bell_partial, stirling1_poly, stirling_number
from .expr import ParseError, table_from_expr
from .implicit import (
    CoeffTable,
    InvariantError,
    NotExpandableError,
    TableError,
    builtin_table,
    expand,
    monomial_count,
    y_coeff_direct,
)
from .series import ConstantTermError, MixedOrderError

PUBLISHED_CENSUS_15 = 91159

# The largest --order each method accepts, by mode, so that an oversized
# order fails at once instead of running for hours.  Measured on a
# shared 2-vCPU Xeon host under Python 3.11, the whole CLI run with
# --method all: on the dense log(1+x+y)*exp(x*y)+y table 2.4 s at N=60
# and 9.7 s at N=80, nearly all of it the inverse-relation series of
# direct, growing about 2x per 10 orders (22 s for them at N=90); on the
# Lambert table 0.15-0.23 s at N=60 and 0.25-0.30 s at N=80 (0.24-0.31 s
# and 0.42-0.51 s when each Miller step of g_k asked for every x-degree
# through its order).  Growing denominators
# cost more: (3+x-y)^-3-1/27+y at N=80 takes 0.07 s to build (14 s when
# the power squared a reciprocal box) and 12-22 s for compose.  Rational
# newton at N=150 takes 1.3-1.9 s and 23 MB on the dense table, whose
# integral entries let it solve f(4x, 2y) = 0 with plain int sums (2.3 s
# when each product went through dot), and 7-12 s (median 10.3 s) and
# 31 MB on log(1+x/3+7*y/5)*exp(x*y/2)+y/11, whose f(0,1) = 82/55 makes
# it solve f(82^2 x, 82 y) = 0 over Fractions; its final check holds
# every u^n / n! at once, about 4 MB more than one at a time.  Its table,
# built over the triangle m + n <= N, takes 0.6 s of that; over the
# square it took 2.0-2.6 s, and the run 9.6 s and 37 MB.
# Symbolic output has about 1.85x more monomials per order: at N=15
# --method all takes 5.7-6.1 s (three runs) for a 142 MB document, with a
# peak of 145 MB resident in the process that runs direct and compose and
# 127 MB in newton's worker (6.8-8.0 s and 206 MB with the three methods
# run in one process), and direct at N=18 already 30 s, 2.4 GB and a 1 GB
# JSON document.  --method all takes the least ceiling of the three.
_ORDER_CEILINGS = {
    ("rational", "direct"): 80,
    ("rational", "compose"): 80,
    ("rational", "newton"): 150,
    ("symbolic", "direct"): 15,
    ("symbolic", "compose"): 15,
    ("symbolic", "newton"): 15,
}


class FormatError(ValueError):
    """Bad file contents or an unusable flag combination."""


class MethodMismatchError(Exception):
    def __init__(self, m, first, second):
        self.m = m
        self.pair = (first, second)
        super().__init__(f"methods disagree at m={m}: {first} vs {second}")


_USAGE = """\
usage: implicitseries [-h] [-N ORDER] [--input FILE | --expr TEXT | --builtin NAME]
                      [--method METHOD] [--mode MODE] [--out FILE]
                      [--count-monomials] [--check] [--census-15]

Expand the solution y(x) of f(x, y) = 0 as an exact power series.

options:
  -h, --help            show this help message and exit
  -N, --order ORDER     number of coefficients y_1..y_N
  --input FILE          JSON coefficient table
  --expr TEXT           closed-form f(x, y)
  --builtin NAME        named example equation: geometric or lambert
  --method METHOD       direct, compose, newton or all (default: all)
  --mode MODE           rational or symbolic (default: rational)
  --out FILE            write the result here instead of stdout
  --count-monomials     append per-coefficient monomial counts
  --check               run the orthogonality and Stirling-sum self checks
  --census-15           run the long symbolic y_15 monomial census; only
                        --out and --check may accompany it

A flag that takes a value takes the next word, even one that starts with
"-"; --flag=value works too, and a long flag may be cut to a unique prefix.
"""

# getopt's long flags; a trailing "=" marks one that takes a value
_LONG_FLAGS = ("order=", "input=", "expr=", "builtin=", "method=", "mode=", "out=",
               "count-monomials", "check", "census-15", "help")
_SHORT_FLAGS = {"-N": "order", "-h": "help"}
_CHOICES = {
    "builtin": ("geometric", "lambert"),
    "method": ("direct", "compose", "newton", "all"),
    "mode": ("rational", "symbolic"),
}


class _Options:
    """The flags of one command line, by attribute; a flag not given
    keeps the default set here."""

    order = input = expr = builtin = out = None
    method = "all"
    mode = "rational"
    count_monomials = check = census_15 = False


def _parse_args(argv):
    """argv's flags as _Options, or None when it asks for the usage text;
    a usage error raises FormatError."""
    try:
        opts, rest = getopt.getopt(argv, "hN:", _LONG_FLAGS)
    except getopt.GetoptError as e:
        raise FormatError(str(e)) from None
    given = {_SHORT_FLAGS.get(flag, flag[2:]): value for flag, value in opts}
    if "help" in given:
        return None
    if rest:
        raise FormatError(f"unrecognized arguments: {' '.join(rest)}")
    args = _Options()
    for name, value in given.items():
        if name in _CHOICES and value not in _CHOICES[name]:
            raise FormatError(
                f"--{name} must be one of {', '.join(_CHOICES[name])}, not {value!r}")
        setattr(args, name.replace("-", "_"), value if name + "=" in _LONG_FLAGS else True)
    if args.order is not None:
        try:
            args.order = int(args.order)
        except ValueError:
            raise FormatError(f"--order takes an integer, not {args.order!r}") from None
    sources = [f"--{name}" for name in ("input", "expr", "builtin") if name in given]
    if len(sources) > 1:
        raise FormatError(f"give one input source, not {' and '.join(sources)}")
    if args.census_15 and given.keys() - {"census-15", "out", "check"}:
        raise FormatError("--census-15 runs standalone: only --out and --check may accompany it")
    return args


_INT_RE = re.compile(r"^(0|-?[1-9][0-9]*)$")
_FRAC_RE = re.compile(r"^(0|-?[1-9][0-9]*)/([1-9][0-9]*)$")


def _parse_scalar(v):
    """An exact rational from a JSON value: an int, or a string holding an
    optionally signed integer or a reduced fraction p/q with q >= 2."""
    if isinstance(v, bool):
        raise FormatError(f"not a rational value: {v!r}")
    if isinstance(v, int):
        return Fraction(v)
    if not isinstance(v, str):
        raise FormatError(f"not a rational value: {v!r}")
    if _INT_RE.match(v):
        return Fraction(int(v))
    m = _FRAC_RE.match(v)
    if not m:
        raise FormatError(f"not an integer or reduced fraction string: {v!r}")
    p, q = int(m.group(1)), int(m.group(2))
    if q < 2:
        raise FormatError(f"integer values must not carry a denominator: {v!r}")
    if math.gcd(p, q) != 1:
        raise FormatError(f"fraction is not reduced: {v!r}")
    return Fraction(p, q)


def _require_key(obj, key, kind, where):
    if key not in obj:
        raise FormatError(f"{where} lacks the key {key!r}")
    v = obj[key]
    if kind is int and (isinstance(v, bool) or not isinstance(v, int)):
        raise FormatError(f"{where} key {key!r} must be an integer")
    if kind is list and not isinstance(v, list):
        raise FormatError(f"{where} key {key!r} must be a list")
    return v


def load_table_file(path, order):
    """Read the JSON table format and cut the triangle m + n <= order, all
    an expansion to the order reads.

    {"max_m": int, "max_n": int, "entries": [{"m", "n", "v"}, ...]};
    absent entries are zero, duplicates are format errors, and the declared
    extent must cover the requested order in both variables.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as e:
            raise FormatError(f"{path}: not valid JSON ({e})") from None
        except RecursionError:
            raise FormatError(f"{path}: JSON nested too deeply to read") from None
    if not isinstance(data, dict):
        raise FormatError("table file must hold a JSON object")
    max_m = _require_key(data, "max_m", int, "table file")
    max_n = _require_key(data, "max_n", int, "table file")
    rows = _require_key(data, "entries", list, "table file")
    extra = set(data) - {"max_m", "max_n", "entries"}
    if extra:
        raise FormatError(f"table file has unknown keys: {sorted(extra)}")
    if max_m < 0 or max_n < 0:
        raise FormatError("max_m and max_n must be nonnegative")
    if order > max_m or order > max_n:
        raise FormatError(
            f"table extends to ({max_m}, {max_n}) but order {order} was requested")
    entries = {}
    for i, row in enumerate(rows):
        where = f"entry {i}"
        if not isinstance(row, dict):
            raise FormatError(f"{where} must be an object")
        if set(row) != {"m", "n", "v"}:
            raise FormatError(f"{where} must have exactly the keys m, n, v")
        m = _require_key(row, "m", int, where)
        n = _require_key(row, "n", int, where)
        if not (0 <= m <= max_m and 0 <= n <= max_n):
            raise FormatError(f"{where} index ({m}, {n}) lies outside the declared extent")
        if (m, n) in entries:
            raise FormatError(f"duplicate entry for ({m}, {n})")
        entries[(m, n)] = _parse_scalar(row["v"])
    return CoeffTable(order, {k: v for k, v in entries.items() if sum(k) <= order}, "rational")


@contextmanager
def _output(out_path):
    """The --out file opened for writing, or stdout."""
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            yield fh
    else:
        yield sys.stdout


_encode_str = json.encoder.encode_basestring_ascii


def _write_json(obj, newline, put, factor_texts=None):
    """Hand put the text of json.dumps(obj, indent=2), piece by piece, for
    dicts with str keys, lists, strs and ints, and for LaurentPoly values,
    which stand for their `to_obj()` form.

    The stdlib encoder drops to pure Python whenever an indent is set, and
    a symbolic payload runs to megabytes; here the indentation of each
    level is prepared once and no copy of the whole text is held.  newline
    is a line break plus the indentation of obj's own level.  factor_texts
    holds the text of each factor already written, by (code, exponent,
    indentation); a fresh dict is made for each top-level call."""
    if factor_texts is None:
        factor_texts = {}
    if isinstance(obj, str):
        put(_encode_str(obj))
    elif type(obj) is int:
        put(int.__repr__(obj))
    elif isinstance(obj, LaurentPoly):
        _write_poly(obj, newline, put, factor_texts)
    elif isinstance(obj, dict):
        if not obj:
            put("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, value in obj.items():
            put(sep + _encode_str(key) + ": ")
            _write_json(value, inner, put, factor_texts)
            sep = "," + inner
        put(newline + "}")
    elif isinstance(obj, list):
        if not obj:
            put("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for value in obj:
            put(sep)
            _write_json(value, inner, put, factor_texts)
            sep = "," + inner
        put(newline + "]")
    else:
        raise TypeError(f"cannot write {type(obj).__name__} as JSON")


def _write_poly(p, newline, put, factor_texts):
    """The text of p's `to_obj()` list, written straight from its sorted
    terms with one put per term; no term or factor dict is built, except
    once for each distinct factor, whose text is kept in factor_texts."""
    terms = p.sorted_terms()
    if not terms:
        put("[]")
        return
    inner = newline + "  "  # a term
    field = inner + "  "  # a key of the term
    indent = field + "  "  # a factor
    # str of an int or a Fraction holds nothing that JSON escapes
    head = "{" + field + '"c": "'
    factor_sep = "," + indent
    factors_end = field + "]" + inner + "}"
    sep = "[" + inner
    for mon, c in terms:
        if mon:
            texts = []
            for i in range(0, len(mon), 2):
                key = (mon[i], mon[i + 1], indent)
                text = factor_texts.get(key)
                if text is None:
                    parts = []
                    _write_json(_factor_obj(mon[i], mon[i + 1]), indent, parts.append)
                    text = factor_texts[key] = "".join(parts)
                texts.append(text)
            put(sep + head + str(c) + '",' + field + '"factors": [' + indent
                + factor_sep.join(texts) + factors_end)
        else:
            put(sep + head + str(c) + '",' + field + '"factors": []' + inner + "}")
        sep = "," + inner
    put(newline + "]")


def _payload(result, mode, method_label, count):
    if mode == "rational":
        body = {
            "order": result.order,
            "method": method_label,
            "y": [str(v) for v in result.y],
        }
    else:
        body = {
            "order": result.order,
            "y": result.y,
        }
    if count:
        body["monomials"] = [monomial_count(v) for v in result.y]
    return body


def run_checks():
    """The self-check suites; raises InvariantError on any failure."""
    for n in range(1, 9):
        for k in range(1, n + 1):
            acc = ZERO
            for j in range(k, n + 1):
                acc = acc + stirling1_poly(n, j) * bell_partial(j, k)
            want = ONE if n == k else ZERO
            if acc != want:
                raise InvariantError(f"orthogonality fails at (n={n}, k={k}): {acc}")
    print("orthogonality relations through n=8: ok")
    ones = {xsym(i): 1 for i in range(1, 11)}
    for n in range(0, 11):
        for k in range(0, n + 1):
            if bell_partial(n, k).eval(ones) != stirling_number(n, k, "second"):
                raise InvariantError(f"Bell coefficient sum fails at (n={n}, k={k})")
            if stirling1_poly(n, k).eval(ones) != stirling_number(n, k, "first"):
                raise InvariantError(f"first-kind coefficient sum fails at (n={n}, k={k})")
    print("stirling coefficient sums through n=10: ok")


def run_census(out_path):
    """Count the monomials of the fully generic y_15 and compare with the
    published figure; always reports, never fails the run."""
    table = CoeffTable.symbolic(15)
    t0 = time.perf_counter()
    y15 = y_coeff_direct(table, 15)
    seconds = time.perf_counter() - t0
    count = monomial_count(y15)
    lines = [
        f"census of the generic y_15: {count} monomials",
        f"computed in {seconds:.1f} s",
    ]
    if count == PUBLISHED_CENSUS_15:
        lines.append(f"matches the published count ({PUBLISHED_CENSUS_15})")
    else:
        lines.extend([
            f"differs from the published count {PUBLISHED_CENSUS_15} "
            f"by {count - PUBLISHED_CENSUS_15:+d}",
            "this census counts canonical monomials of y_15 over the table",
            "symbols f(m,n) and the inverse unit f(0,1)^-1; the published",
            "figure counts terms of a differently normalized expansion --",
            "see the monomial census section of the README",
        ])
    with _output(out_path) as fh:
        fh.write("\n".join(lines) + "\n")


def _order_ceiling(mode, method):
    """The largest order the CLI expands in this mode by this method."""
    methods = ("direct", "compose", "newton") if method == "all" else (method,)
    return min(_ORDER_CEILINGS[(mode, m)] for m in methods)


class _NewtonWorker:
    """newton's expansion in a forked worker process.

    The worker sends back its ExpansionResult, or the exception it raised,
    pickled through a pipe, and ends with os._exit, so that it neither
    flushes this process's buffered stdout nor returns into the CLI.  Used
    as a context manager: leaving the block before `result()` has reaped
    the worker, on any exception, kills and reaps it.  The modules of this
    path are imported in it, so that importing the CLI loads none of them."""

    def __init__(self, table, order):
        self.table, self.order = table, order

    def __enter__(self):
        import os
        import pickle

        r, w = os.pipe()
        self._pipe = open(r, "rb")
        try:
            self.pid = os.fork()
        except BaseException:
            self._pipe.close()
            os.close(w)
            raise
        if self.pid == 0:  # the worker
            status = 1
            try:
                self._pipe.close()
                try:
                    outcome = expand(self.table, self.order, "newton")
                except BaseException as e:
                    outcome = e
                with open(w, "wb") as pipe:
                    pickle.dump(outcome, pipe, pickle.HIGHEST_PROTOCOL)
                status = 0
            finally:
                os._exit(status)
        os.close(w)
        return self

    def result(self):
        """newton's ExpansionResult, or the exception it raised, raised
        here; an InvariantError if the worker ended without either."""
        import os
        import pickle

        data = self._pipe.read()
        self._pipe.close()
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        try:
            outcome = pickle.loads(data)
        except Exception:  # an empty or cut-off pickle fails in several ways
            code = os.waitstatus_to_exitcode(status)
            how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
            raise InvariantError(f"newton's worker ended without a result ({how})") from None
        if isinstance(outcome, BaseException):
            raise outcome
        return outcome

    def __exit__(self, *exc):
        if self.pid is not None:
            import os
            import signal

            os.kill(self.pid, signal.SIGKILL)
            self._pipe.close()
            os.waitpid(self.pid, 0)
            self.pid = None


def _check_agreement(results, order):
    """Raise MethodMismatchError at the first m where a later result
    differs from the first; each is checked against the first, and so
    against each other."""
    first = results[0]
    for m in range(order):
        for other in results[1:]:
            if other.y[m] != first.y[m]:
                raise MethodMismatchError(m + 1, first.method, other.method)


def _write_document(body, fh):
    _write_json(body, "\n", fh.write)
    fh.write("\n")


def _expand_all_forked(table, args):
    """--method all with newton in a forked worker, while this process
    runs direct and compose and renders the document into an anonymous
    staging file, which goes to --out or stdout only once the three
    results agree."""
    import shutil
    import tempfile

    order = args.order
    with _NewtonWorker(table, order) as newton:
        results = [expand(table, order, m) for m in ("direct", "compose")]
        with tempfile.TemporaryFile("w+", encoding="utf-8", newline="") as staged:
            _write_document(_payload(results[0], args.mode, args.method,
                                     args.count_monomials), staged)
            results.append(newton.result())
            _check_agreement(results, order)
            staged.seek(0)
            with _output(args.out) as fh:
                shutil.copyfileobj(staged, fh)


def _forks_newton(table):
    """Whether --method all runs newton in a forked worker: on symbolic
    tables, where newton is the long pole, where fork exists.  On a
    rational table fork costs more than newton takes."""
    import os

    return table.mode == "symbolic" and hasattr(os, "fork")


def _expand_per_config(args):
    order = args.order
    if args.mode == "symbolic":
        if args.input or args.expr or args.builtin:
            raise FormatError(
                "symbolic mode expands the generic table and takes no input source")
        table = CoeffTable.symbolic(order)
    elif args.input:
        table = load_table_file(args.input, order)
    elif args.expr is not None:
        table = table_from_expr(args.expr, order)
    else:
        table = builtin_table(args.builtin, order)

    if args.method != "all":
        result = expand(table, order, args.method)
    elif _forks_newton(table):
        _expand_all_forked(table, args)
        return
    else:
        results = [expand(table, order, m) for m in ("direct", "compose", "newton")]
        _check_agreement(results, order)
        result = results[0]
    body = _payload(result, args.mode, args.method, args.count_monomials)
    with _output(args.out) as fh:
        _write_document(body, fh)


def _run(args):
    if args.census_15:
        if args.check:
            run_checks()
        run_census(args.out)
        return 0

    if args.check:
        run_checks()

    wants_run = (
        args.input or args.expr is not None or args.builtin or args.mode == "symbolic"
    )
    if not wants_run:
        if args.check:
            return 0
        raise FormatError("nothing to do: give an input source, a mode, or a check flag")
    if args.order is None:
        raise FormatError("--order is required to expand")
    if args.order < 1:
        raise FormatError("--order must be a positive integer")
    ceiling = _order_ceiling(args.mode, args.method)
    if args.order > ceiling:
        raise FormatError(
            f"--order {args.order} exceeds the ceiling {ceiling} "
            f"for --mode {args.mode} --method {args.method}")
    _expand_per_config(args)
    return 0


def main(argv=None):
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
        if args is None:
            sys.stdout.write(_USAGE)
            return 0
        return _run(args)
    except NotExpandableError as e:
        print(f"error: not expandable: {e}", file=sys.stderr)
        return 2
    except MethodMismatchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except InvariantError as e:
        print(f"error: internal invariant violated: {e}", file=sys.stderr)
        return 4
    except (ParseError, FormatError, TableError, NotInvertibleError,
            ConstantTermError, MixedOrderError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
