"""Exit codes, file formats, and output determinism of the command line."""

import hashlib
import io
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest

import implicitseries.cli as cli
from implicitseries.algebra import ZERO, LaurentPoly, fcode, fsym, xcode, xsym
from implicitseries.combinatorics import bell_partial
from implicitseries.expr import MAX_NESTING
from implicitseries.implicit import CoeffTable, TableError, builtin_table, expand
from implicitseries.series import BivariateEGF, TaylorEGF


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- happy paths --------------------------------------------------------------


def test_builtin_all_methods(capsys):
    code, out, err = run(capsys, "--builtin", "geometric", "-N", "4")
    assert code == 0 and err == ""
    assert json.loads(out) == {
        "order": 4, "method": "all", "y": ["1", "2", "6", "24"],
    }


def test_builtin_lambert_fractions_stay_exact(capsys):
    code, out, _ = run(capsys, "--builtin", "lambert", "-N", "5",
                       "--method", "newton")
    body = json.loads(out)
    assert body["method"] == "newton"
    assert body["y"] == ["1", "-2", "9", "-64", "625"]


def test_expr_source(capsys):
    code, out, _ = run(capsys, "--expr", "y - x - x*y", "-N", "3",
                       "--method", "direct")
    assert code == 0
    assert json.loads(out)["y"] == ["1", "2", "6"]


def test_symbolic_mode_output_schema(capsys):
    code, out, _ = run(capsys, "--mode", "symbolic", "-N", "2",
                       "--method", "direct", "--count-monomials")
    assert code == 0
    body = json.loads(out)
    assert set(body) == {"order", "y", "monomials"}
    assert body["monomials"] == [1, 3]
    y1 = body["y"][0]
    assert y1 == [{"c": "-1", "factors": [
        {"sym": "F", "m": 0, "n": 1, "e": -1},
        {"sym": "F", "m": 1, "n": 0, "e": 1},
    ]}]


def test_rational_output_never_has_float(capsys):
    code, out, _ = run(capsys, "--expr", "y/(1+x) - x/3", "-N", "4")
    body = json.loads(out)
    assert all(isinstance(v, str) for v in body["y"])
    assert body["y"][0] == "1/3"


def test_count_monomials_rational(capsys):
    code, out, _ = run(capsys, "--builtin", "geometric", "-N", "3",
                       "--count-monomials")
    assert json.loads(out)["monomials"] == [1, 1, 1]


def test_out_file_matches_stdout(tmp_path, capsys):
    # the symbolic run publishes the document staged while newton ran in
    # its worker
    for args in (("--builtin", "lambert", "-N", "4"),
                 ("--mode", "symbolic", "-N", "4", "--method", "all")):
        code, out, _ = run(capsys, *args)
        path = tmp_path / "r.json"
        code2, out2, _ = run(capsys, *args, "--out", str(path))
        assert code == code2 == 0
        assert out2 == ""
        assert path.read_text(encoding="utf-8") == out


def test_determinism_byte_identical(capsys):
    args = ("--mode", "symbolic", "-N", "3", "--method", "direct",
            "--count-monomials")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


# sha256 of the output of each run, pinned from the output of an earlier
# release, so that any change of format shows
GOLDEN_OUTPUTS = [
    (("--expr", "y*exp(y)-x", "-N", "4", "--method", "all"),
     "a7de603e973a7aff4a578093c085b069714a50dc1999cd4339d8a2a2c0ae3909"),
    (("--mode", "symbolic", "-N", "6", "--method", "all", "--count-monomials"),
     "1ff31e2e81888160f2bd58689d8d33e14b20a62ef35fa8449a1ee840288686d1"),
    (("--builtin", "lambert", "-N", "12", "--method", "all"),
     "e1f481df41a6a1167bd04cccf902e9e7be592f3ce4d4640bed322dbf4a7af661"),
    (("--expr", "log(1+x+y)*exp(x*y)+y", "-N", "8", "--method", "newton"),
     "4c32782f27d81b2ec4b6e4f5e6e5fef4ee9c0e95490a632d2d6d28bfb088a0bb"),
    # the benchmark's symbolic size, with every power F(0,1)^-k through -19
    (("--mode", "symbolic", "-N", "10", "--method", "direct"),
     "46484e1e6941e5d71cd97aede21a95e8155fb76e3fdbc1900a00d40692b45296"),
    # a quotient, exp, a negative power, log, and the squaring of
    # log(1+x*y), whose constant term 0 has no inverse
    (("--expr", "y-x/(1+x+exp(y/3))+(2+x-y)^-3-1/8+log(1+x*y)^3", "-N", "12",
      "--method", "all"),
     "ad368d73cf220cfd0428c1568c92fb0c8c4c55786829414cf02bf454d3519b7c"),
]


@pytest.mark.parametrize("args,digest", GOLDEN_OUTPUTS)
def test_output_matches_golden_digest(capsys, args, digest):
    code, out, err = run(capsys, *args)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def _to_obj_form(obj):
    """obj with every LaurentPoly replaced by its `to_obj()` form."""
    if isinstance(obj, LaurentPoly):
        return obj.to_obj()
    if isinstance(obj, dict):
        return {k: _to_obj_form(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_to_obj_form(v) for v in obj]
    return obj


def _writer_payloads():
    for order in range(1, 7):
        table = CoeffTable.symbolic(order)
        result = expand(table, order, "direct")
        for count in (False, True):
            yield cli._payload(result, "symbolic", "all", count)
    rational = expand(builtin_table("lambert", 6), 6, "newton")
    yield cli._payload(rational, "rational", "newton", True)
    yield {}
    yield []
    yield {"c": "1", "factors": []}
    # f = y has the zero solution: every coefficient is zero
    zero = expand(CoeffTable.rational(2, {(0, 1): 1}), 2, "direct")
    yield cli._payload(zero, "rational", "direct", True)
    yield cli._payload(zero, "symbolic", "all", True)
    # polynomials that the CLI never prints: X(i) factors, non-integral
    # coefficients, constants and zero, alone and at several depths
    bell = bell_partial(6, 3)
    thirds = bell_partial(5, 2) * Fraction(1, 3) + fsym(0, 1) ** -2 * Fraction(-7, 2)
    polys = [bell, thirds, xsym(1) ** -3 * fsym(2, 3),
             LaurentPoly.const(5), LaurentPoly.const(Fraction(-2, 9)), ZERO]
    yield from polys
    yield polys
    yield {"y": polys, "deeper": [{"p": thirds, "q": [ZERO, bell]}]}


@pytest.mark.parametrize("obj", list(_writer_payloads()))
def test_json_writer_matches_json_dumps(obj):
    parts = []
    cli._write_json(obj, "\n", parts.append)
    assert "".join(parts) == json.dumps(_to_obj_form(obj), indent=2)


def test_symbolic_payload_is_written_one_term_per_put(monkeypatch):
    result = expand(CoeffTable.symbolic(8), 8, "direct")
    y8 = result.y[-1]
    reference = json.dumps(_to_obj_form(cli._payload(result, "symbolic", "all", True)),
                           indent=2)

    def refuse(self):
        raise AssertionError("to_obj was called")

    monkeypatch.setattr(LaurentPoly, "to_obj", refuse)
    body = cli._payload(result, "symbolic", "all", True)
    written = []
    cli._write_json(body, "\n", written.append)
    assert "".join(written) == reference
    # every term's text begins with its "c" key, so a put that carried
    # two terms of y_8 would hold two of them
    assert max(part.count('"c": ') for part in written) == 1
    assert sum(part.count('"c": ') for part in written) == sum(
        v.monomial_count() for v in result.y)
    assert y8.monomial_count() == 732


def test_check_flag(capsys):
    code, out, err = run(capsys, "--check")
    assert code == 0
    assert "orthogonality relations through n=8: ok" in out
    assert "stirling coefficient sums through n=10: ok" in out


def test_check_then_expand(capsys):
    code, out, _ = run(capsys, "--check", "--builtin", "geometric", "-N", "2")
    assert code == 0
    assert "ok" in out and '"y"' in out


def test_census_15_reports_the_published_count(capsys):
    code, out, err = run(capsys, "--census-15")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[0] == "census of the generic y_15: 91159 monomials"
    assert lines[1].startswith("computed in ") and lines[1].endswith(" s")
    assert lines[2:] == ["matches the published count (91159)"]
    code, out, err = run(capsys, "--census-15", "--check")
    assert (code, err) == (0, "")
    checked = out.splitlines()
    assert checked[:2] == ["orthogonality relations through n=8: ok",
                           "stirling coefficient sums through n=10: ok"]
    assert checked[2] == lines[0] and checked[4:] == lines[2:]


# -- input files ---------------------------------------------------------------


def _write_table(tmp_path, body):
    path = tmp_path / "t.json"
    path.write_text(json.dumps(body), encoding="utf-8")
    return str(path)


GEOMETRIC = {
    "max_m": 4, "max_n": 4,
    "entries": [
        {"m": 0, "n": 1, "v": "1"},
        {"m": 1, "n": 0, "v": "-1"},
        {"m": 1, "n": 1, "v": "-1"},
    ],
}


def test_input_file(tmp_path, capsys):
    path = _write_table(tmp_path, GEOMETRIC)
    code, out, _ = run(capsys, "--input", path, "-N", "4")
    assert code == 0
    assert json.loads(out)["y"] == ["1", "2", "6", "24"]


def test_input_file_entries_past_the_triangle_change_no_output(tmp_path, capsys):
    # an expansion to order N reads only the slots with m + n <= N, so a
    # square table whose entries past them are all nonzero prints the bytes
    # of the same table cut to the triangle
    order = 6

    def value(m, n):
        if (m, n) == (0, 1):
            return 1
        return m + n if m + n > order else (7 * m + 3 * n) % 5 - 2

    square = [{"m": m, "n": n, "v": str(value(m, n))}
              for m in range(order + 1) for n in range(order + 1) if (m, n) != (0, 0)]
    outs = []
    for entries in (square, [e for e in square if e["m"] + e["n"] <= order]):
        path = _write_table(tmp_path, {"max_m": order, "max_n": order, "entries": entries})
        code, out, _ = run(capsys, "--input", path, "-N", str(order), "--method", "all")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_input_file_accepts_ints_and_fractions(tmp_path, capsys):
    body = {
        "max_m": 2, "max_n": 2,
        "entries": [
            {"m": 0, "n": 1, "v": 2},
            {"m": 1, "n": 0, "v": "-1/2"},
        ],
    }
    code, out, _ = run(capsys, "--input", _write_table(tmp_path, body), "-N", "2")
    assert code == 0
    assert json.loads(out)["y"] == ["1/4", "0"]


def test_input_file_extent_must_cover_order(tmp_path, capsys):
    code, _, err = run(capsys, "--input", _write_table(tmp_path, GEOMETRIC),
                       "-N", "5")
    assert code == 1
    assert "extends to (4, 4)" in err


@pytest.mark.parametrize("v", ["3/1", "2/4", "1/-2", "+3", "1.5", "03",
                               " 1", "-0", "0/3", "", "a", 1.5, True, None])
def test_input_file_rejects_malformed_scalars(tmp_path, capsys, v):
    body = {"max_m": 1, "max_n": 1,
            "entries": [{"m": 0, "n": 1, "v": v}]}
    code, _, err = run(capsys, "--input", _write_table(tmp_path, body), "-N", "1")
    assert code == 1, v


def test_input_file_rejects_duplicates(tmp_path, capsys):
    body = {"max_m": 1, "max_n": 1,
            "entries": [{"m": 0, "n": 1, "v": "1"}, {"m": 0, "n": 1, "v": "2"}]}
    code, _, err = run(capsys, "--input", _write_table(tmp_path, body), "-N", "1")
    assert code == 1 and "duplicate" in err


@pytest.mark.parametrize("body", [
    [1, 2],
    {"max_m": 1, "entries": []},
    {"max_m": 1, "max_n": 1, "entries": [], "extra": 1},
    {"max_m": 1, "max_n": 1, "entries": [{"m": 0, "n": 1}]},
    {"max_m": 1, "max_n": 1, "entries": [{"m": 0, "n": 1, "v": "1", "w": 0}]},
    {"max_m": 1, "max_n": 1, "entries": [{"m": 0, "n": 5, "v": "1"}]},
    {"max_m": -1, "max_n": 1, "entries": []},
    {"max_m": True, "max_n": 1, "entries": []},
])
def test_input_file_rejects_malformed_shapes(tmp_path, capsys, body):
    code, _, _ = run(capsys, "--input", _write_table(tmp_path, body), "-N", "1")
    assert code == 1


def test_input_file_invalid_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    # the second body is nested deeper than json.load can recurse
    for body in ("{not json", "[" * 100000 + "]" * 100000):
        path.write_text(body, encoding="utf-8")
        code, _, err = run(capsys, "--input", str(path), "-N", "2")
        assert code == 1 and "JSON" in err and err.count("\n") == 1


def test_input_file_missing(capsys):
    code, _, err = run(capsys, "--input", "/nonexistent/t.json", "-N", "2")
    assert code == 1


# -- failure statuses -----------------------------------------------------------


def test_status_2_not_expandable(capsys):
    code, _, err = run(capsys, "--expr", "x + 1", "-N", "2")
    assert code == 2 and "not expandable" in err
    code, _, _ = run(capsys, "--expr", "x*y + x", "-N", "2")
    assert code == 2


@pytest.mark.parametrize("text", [
    "(3+x-y)^-1000000+y",  # f(0,0) = 3^-1000000
    "x-(3+x-y)^-1000000*y^2",  # f(0,1) = 0
], ids=["nonzero_f00", "zero_f01"])
def test_status_2_before_the_box_is_built(text):
    # every coefficient of the order-150 box would carry a denominator of
    # about 1.6 Mbit; f(0,0) and f(0,1) are read off the tree at order 1,
    # in a fresh process as a user runs it
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-m", "implicitseries.cli", f"--expr={text}", "-N", "150",
         "--method", "newton"],
        env=env, capture_output=True, text=True, timeout=10)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: not expandable") and proc.stderr.count("\n") == 1


def test_status_2_from_input_file(tmp_path, capsys):
    body = {"max_m": 2, "max_n": 2, "entries": [{"m": 1, "n": 0, "v": "1"}]}
    code, _, _ = run(capsys, "--input", _write_table(tmp_path, body), "-N", "2")
    assert code == 2


@pytest.mark.parametrize("text, pos", [("x + ", 4), ("y+1/0", 2), ("y-x+0/0", 4)],
                         ids=["trailing_operator", "zero_denominator", "zero_over_zero"])
def test_status_1_parse_error(capsys, text, pos):
    code, _, err = run(capsys, "--expr", text, "-N", "2")
    assert code == 1 and f"byte {pos}" in err and err.count("\n") == 1


def test_status_1_exponent_tower_fails_fast(capsys):
    t0 = time.perf_counter()
    code, _, err = run(capsys, "--expr", "x^9^9^9 + y", "-N", "2")
    assert time.perf_counter() - t0 < 1.0
    assert code == 1 and "byte 4" in err and "limit" in err


# -- deeply nested expressions: expand, or exit 1 with one line, never a
# RecursionError.  Chains of operators are read and evaluated in loops;
# nested parentheses and exponent towers stop at expr.MAX_NESTING levels.


def _nest(opening, n, closing, tail="-x"):
    return opening * n + "y" + closing * n + tail


@pytest.mark.parametrize("text, same_as", [
    ("-" * 1000 + "y-x", "y-x"),
    ("-" * 1001 + "y-x", "-y-x"),
    ("y+" * 989 + "y-x", "990*y-x"),
    ("y^" + "1^" * 99 + "1-x", "y-x"),
    (_nest("(", 100, ")"), "y-x"),
    (_nest("log(1+", 100, ")"), None),
    (_nest("(y-", 50, ")"), "y-x"),
    (_nest("-(y*2+", 100, ")"), "y-x"),
], ids=["minus1000", "minus1001", "sum990", "tower100", "parens100", "log100",
        "alternating50", "negsum100"])
def test_long_chains_and_nesting_at_the_limit_expand(capsys, text, same_as):
    code, out, err = run(capsys, f"--expr={text}", "-N", "3")
    assert code == 0 and err == ""
    if same_as is not None:
        assert out == run(capsys, f"--expr={same_as}", "-N", "3")[1]


@pytest.mark.parametrize("text", [
    _nest("(", 101, ")"),
    _nest("(", 198, ")"),
    _nest("exp(", 150, ")", "-1-x"),
    _nest("-(y+", 101, ")"),
    "y^" + "1^" * 100 + "1-x",
    "y^" + "1^" * 999 + "1-x",
], ids=["parens101", "parens198", "exp150", "negsum101", "tower101", "tower1000"])
def test_status_1_deep_nesting_fails_fast(capsys, text):
    code, out, err = run(capsys, f"--expr={text}", "-N", "2")
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert f"limit {MAX_NESTING}" in err


@pytest.mark.parametrize("method", ["direct", "compose", "newton", "all"])
@pytest.mark.parametrize("source", [
    ("--mode", "symbolic"),
    ("--builtin", "lambert"),
    ("--expr", "y*exp(y)-x"),
    ("--input", "table.json"),
])
def test_status_1_oversized_order_fails_fast(capsys, monkeypatch, source, method):
    def refuse(*args):
        raise AssertionError("a table was built")

    for name in ("builtin_table", "table_from_expr", "load_table_file"):
        monkeypatch.setattr(cli, name, refuse)
    monkeypatch.setattr(cli.CoeffTable, "symbolic", classmethod(refuse))
    mode = "symbolic" if source[0] == "--mode" else "rational"
    t0 = time.perf_counter()
    code, _, err = run(capsys, *source, "-N", str(10**9), "--method", method)
    assert time.perf_counter() - t0 < 1.0
    assert code == 1
    assert f"ceiling {cli._order_ceiling(mode, method)}" in err


def test_order_ceilings_admit_the_benchmark_orders_and_lambert_30():
    for mode, method, order in [("symbolic", "direct", 15), ("symbolic", "all", 10),
                                ("rational", "all", 30), ("rational", "all", 60),
                                ("rational", "newton", 40)]:
        assert cli._order_ceiling(mode, method) >= order, (mode, method)


def test_order_ceiling_is_inclusive(capsys, monkeypatch):
    monkeypatch.setitem(cli._ORDER_CEILINGS, ("rational", "compose"), 3)
    assert run(capsys, "--builtin", "geometric", "-N", "3")[0] == 0
    code, _, err = run(capsys, "--builtin", "geometric", "-N", "4")
    assert code == 1 and "ceiling 3 for --mode rational --method all" in err
    assert run(capsys, "--builtin", "geometric", "-N", "4", "--method", "newton")[0] == 0


def test_status_1_domain_error(capsys):
    code, _, err = run(capsys, "--expr", "1/x + y", "-N", "2")
    assert code == 1


@pytest.mark.parametrize("source, message", [
    ("exp(1+x)+y", "exp needs a zero constant term"),
    ("log(2+x)+y", "log needs constant term 1"),
    ("1/(x)+y", "constant term is not invertible: 0"),
    ("(x+y)^-1+y", "constant term is not invertible: 0"),
])
def test_status_1_series_domain_errors(capsys, source, message):
    code, out, err = run(capsys, "--expr", source, "-N", "4")
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_status_1_usage_errors(capsys):
    assert run(capsys, "--builtin", "geometric")[0] == 1           # no order
    assert run(capsys, "--builtin", "geometric", "-N", "0")[0] == 1
    assert run(capsys, "--builtin", "geometric", "-N", "-3")[0] == 1
    assert run(capsys)[0] == 1                                     # nothing to do
    assert run(capsys, "--builtin", "nope", "-N", "2")[0] == 1     # bad choice
    assert run(capsys, "--order")[0] == 1                          # missing value
    assert run(capsys, "--mode", "symbolic", "-N", "2",
               "--builtin", "geometric")[0] == 1                   # source clash
    assert run(capsys, "--builtin", "geometric", "--expr", "x",
               "-N", "2")[0] == 1                                  # two sources
    assert run(capsys, "--census-15", "-N", "3")[0] == 1           # census is standalone
    for extra in (("--method", "newton"), ("--mode", "symbolic"), ("--count-monomials",),
                  ("--method", "newton", "--mode", "symbolic", "--count-monomials"),
                  ("--builtin", "lambert"), ("--expr", "y-x")):
        code, out, err = run(capsys, "--census-15", *extra)
        assert (code, out) == (1, ""), extra
        assert "only --out and --check" in err and err.count("\n") == 1
    # an empty file name is rejected, not read as a flag left out
    for argv in (("--mode", "symbolic", "--input", "", "-N", "1", "--method", "direct"),
                 ("--input", "", "-N", "2"),
                 ("--builtin", "lambert", "-N", "2", "--out", ""),
                 ("--builtin", "lambert", "-N", "2", "--out=")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith("error: --") and "empty" in err and err.count("\n") == 1


# -- flag parsing ---------------------------------------------------------------


def test_a_value_starting_with_a_dash_may_follow_its_flag(capsys):
    spaced = run(capsys, "--expr", "-x+y", "-N", "3")
    assert spaced == run(capsys, "--expr=-x+y", "-N", "3")
    assert spaced[0] == 0 and json.loads(spaced[1])["y"] == ["1", "0", "0"]
    code, out, err = run(capsys, "--builtin", "lambert", "-N", "-3")
    assert (code, out, err) == (1, "", "error: --order must be a positive integer\n")


LAMBERT_5 = ("--builtin", "lambert", "--method", "newton", "-N", "5")


@pytest.mark.parametrize("argv", [
    ("--builtin", "lambert", "--method", "newton", "-N5"),
    ("--builtin", "lambert", "--method", "newton", "--order=5"),
    ("--builtin", "lambert", "--method", "newton", "--order", "5"),
    ("--builtin", "lambert", "--method", "newton", "--ord", "5"),
    ("--builtin", "lambert", "--meth", "newton", "-N", "5"),
    ("--builtin=lambert", "--method=newton", "-N", "5"),
], ids=["N5", "order_eq", "order", "ord", "meth", "all_eq"])
def test_accepted_flag_forms_print_the_canonical_bytes(capsys, argv):
    canonical = run(capsys, *LAMBERT_5)
    assert canonical[0] == 0 and canonical[2] == ""
    assert run(capsys, *argv) == canonical


@pytest.mark.parametrize("argv", [
    ("--bogus",),
    ("--builtin", "lambert", "--order"),
    ("--builtin", "lambert", "-N", "x"),
    ("--builtin", "lambert", "-N", "5", "--method", "nope"),
    ("--mode", "nope", "-N", "2"),
    ("--builtin", "lambert", "-N", "5", "extra"),
    ("--builtin", "lambert", "--expr", "y-x", "-N", "5"),
    ("--input", "t.json", "--builtin", "lambert", "-N", "5"),
    ("--builtin", "lambert", "-N", "5", "--c"),
    ("--check=yes",),
], ids=["unknown", "no_value", "not_int", "bad_method", "bad_mode", "positional",
        "two_sources", "input_and_builtin", "ambiguous_prefix", "value_on_switch"])
def test_rejected_flag_forms_exit_1_with_one_error_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_prints_the_usage_text(capsys, flag):
    code, out, err = run(capsys, flag)
    assert (code, err) == (0, "")
    assert out == cli._USAGE
    long_flags = [f"--{name.rstrip('=')}" for name in cli._LONG_FLAGS]
    for word in ["-h", "-N", *long_flags, *(c for cs in cli._CHOICES.values() for c in cs)]:
        assert word in out, word


def test_a_run_imports_neither_argparse_nor_locale():
    # building the first argparse parser in a process sends its titles
    # through gettext, whose first lookup imports locale; getopt does so
    # only on its error path.  newton's worker hands back an int result by
    # marshal, so the symbolic run imports no pickle either
    code = (
        "import io, sys\n"
        "from contextlib import redirect_stdout\n"
        "import implicitseries.cli as cli\n"
        "with redirect_stdout(io.StringIO()):\n"
        "    codes = (cli.main(['--expr', 'y*exp(y)-x', '-N', '6']),\n"
        "             cli.main(['--mode', 'symbolic', '-N', '3', '--method', 'all']))\n"
        "print(codes, sorted({'argparse', 'locale', 'pickle'} & set(sys.modules)))\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "(0, 0) []\n"


def test_status_3_method_mismatch(capsys, monkeypatch, tmp_path):
    real = cli.expand

    def crooked(table, order=None, method="direct"):
        r = real(table, order, method)
        if method == "newton":
            r.y[-1] = r.y[-1] + 1
        return r

    monkeypatch.setattr(cli, "expand", crooked)
    code, _, err = run(capsys, "--builtin", "geometric", "-N", "3")
    assert code == 3
    assert "m=3" in err and "newton" in err
    # symbolic: the crooked newton runs in the forked worker, or in this
    # process where os.fork is missing
    code, out, err, _ = _run_on_both_paths(capsys, monkeypatch, tmp_path,
                                           "--mode", "symbolic", "-N", "3")
    assert (code, out) == (3, "")
    assert err == "error: methods disagree at m=3: direct vs newton\n"


def test_a_faulty_substitution_fails_method_all(capsys, monkeypatch):
    # compose and newton's final check both sum through substitute_y, so a
    # fault there cannot pass --method all: compose no longer matches
    # direct, and newton's residual no longer vanishes
    real = BivariateEGF.substitute_y

    def off_by_one(self, u, order=None):
        s = real(self, u, order)
        return TaylorEGF(s.coeffs[:-1] + (s.coeffs[-1] + 1,))

    monkeypatch.setattr(BivariateEGF, "substitute_y", off_by_one)
    for source in (("--builtin", "lambert"), ("--mode", "symbolic")):
        code, out, err = run(capsys, *source, "-N", "4", "--method", "all")
        assert code in (3, 4) and out == "" and err.startswith("error:")


def test_status_4_check_failure(capsys, monkeypatch):
    real = cli.stirling_number

    def lying(n, k, kind):
        v = real(n, k, kind)
        return v + 1 if (n, k, kind) == (9, 3, "second") else v

    monkeypatch.setattr(cli, "stirling_number", lying)
    code, _, err = run(capsys, "--check")
    assert code == 4 and "invariant" in err


def test_exit_statuses_partition_failures(capsys):
    # one probe per documented status
    assert run(capsys, "--expr", "x +", "-N", "2")[0] == 1
    assert run(capsys, "--expr", "x + 1", "-N", "2")[0] == 2
    assert run(capsys, "--builtin", "geometric", "-N", "4")[0] == 0


# -- symbolic --method all: newton in a forked worker ----------------------------
#
# On a symbolic table, --method all runs newton in a forked worker while
# this process runs direct and compose and stages the document.  Every
# outcome must match the sequential path, which runs where os.fork is
# missing, and no run may leave a child process behind.

SYMBOLIC_ALL = ("--mode", "symbolic", "-N", "4", "--method", "all")


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _count_forks(monkeypatch):
    """A list that gains one entry per os.fork in this process."""
    forks = []
    real = os.fork

    def counting():
        pid = real()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting)
    return forks


def _run_on_both_paths(capsys, monkeypatch, tmp_path, *argv):
    """{path: (code, stdout, stderr, text of --out or None)} of the run on
    the worker path and on the sequential one, each once to stdout and
    once with --out, which must agree; the worker path forks once and
    leaves no staging file."""
    staging = tmp_path / "staging"
    staging.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(staging))
    outcomes = {}
    for path in ("worker", "sequential"):
        with monkeypatch.context() as m:
            if path == "sequential":
                m.delattr(os, "fork")
            else:
                forks = _count_forks(m)
            code, out, err = run(capsys, *argv)
            out_file = tmp_path / f"{path}.json"
            code2, out2, err2 = run(capsys, *argv, "--out", str(out_file))
        _assert_no_child_left()
        assert (code2, out2, err2) == (code, "", err)
        text = out_file.read_text(encoding="utf-8") if out_file.exists() else None
        assert text == (out if code == 0 else None)
        outcomes[path] = (code, out, err, text)
    assert len(forks) == 2
    assert list(staging.iterdir()) == []
    assert outcomes["worker"] == outcomes["sequential"]
    return outcomes["worker"]


def test_symbolic_method_all_prints_the_golden_bytes_on_both_paths(
        capsys, monkeypatch, tmp_path):
    args, digest = GOLDEN_OUTPUTS[1]
    assert args[:2] == ("--mode", "symbolic") and "all" in args
    code, out, err, _ = _run_on_both_paths(capsys, monkeypatch, tmp_path, *args)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_rational_method_all_never_forks(capsys, monkeypatch):
    forks = _count_forks(monkeypatch)
    for args in (("--builtin", "lambert", "-N", "6"),
                 ("--mode", "symbolic", "-N", "3", "--method", "newton")):
        assert run(capsys, *args)[0] == 0
    assert forks == []


def test_worker_exception_is_raised_as_on_the_sequential_path(
        capsys, monkeypatch, tmp_path):
    real = cli.expand

    def failing_newton(table, order=None, method="direct"):
        if method == "newton":
            raise cli.InvariantError("final residual is nonzero through the requested order")
        return real(table, order, method)

    monkeypatch.setattr(cli, "expand", failing_newton)
    code, out, err, _ = _run_on_both_paths(capsys, monkeypatch, tmp_path, *SYMBOLIC_ALL)
    assert (code, out) == (4, "")
    assert err == ("error: internal invariant violated: final residual is nonzero "
                   "through the requested order\n")


@pytest.mark.parametrize("end, text", [
    ("exit", "exit status 7"),
    ("signal", "killed by signal 9"),
])
def test_worker_ending_without_a_result_exits_4(capsys, monkeypatch, tmp_path, end, text):
    real = cli.expand
    parent = os.getpid()

    def vanishing_newton(table, order=None, method="direct"):
        # only the worker ends; in this process newton runs as usual
        if method == "newton" and os.getpid() != parent:
            if end == "exit":
                os._exit(7)
            os.kill(os.getpid(), signal.SIGKILL)
        return real(table, order, method)

    monkeypatch.setattr(cli, "expand", vanishing_newton)
    path = tmp_path / "r.json"
    code, out, err = run(capsys, *SYMBOLIC_ALL, "--out", str(path))
    _assert_no_child_left()
    assert (code, out) == (4, "") and not path.exists()
    assert err == ("error: internal invariant violated: newton's worker ended "
                   f"without a result ({text})\n")


def _slow_newton_failing_direct(failure):
    real = cli.expand

    def expand(table, order=None, method="direct"):
        if method == "newton":
            time.sleep(30)
        if method == "direct":
            raise failure
        return real(table, order, method)

    return expand


def test_a_failure_in_the_parent_kills_the_running_worker(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(cli, "expand", _slow_newton_failing_direct(ValueError("direct failed")))
    t0 = time.perf_counter()
    code, out, err, _ = _run_on_both_paths(capsys, monkeypatch, tmp_path, *SYMBOLIC_ALL)
    assert time.perf_counter() - t0 < 10
    assert (code, out, err) == (1, "", "error: direct failed\n")


def test_an_interrupt_in_the_parent_kills_the_running_worker(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(cli, "expand", _slow_newton_failing_direct(KeyboardInterrupt()))
    path = tmp_path / "r.json"
    t0 = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        cli.main([*SYMBOLIC_ALL, "--out", str(path)])
    assert time.perf_counter() - t0 < 10
    _assert_no_child_left()
    assert capsys.readouterr() == ("", "") and not path.exists()


def test_check_lines_come_once_and_before_the_staged_document(capsys):
    # stdout is a buffered pipe, so the check lines sit in the buffer when
    # the worker is forked; the worker must not print them a second time
    document = run(capsys, *SYMBOLIC_ALL)[1]
    src = Path(__file__).resolve().parent.parent / "src"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(src)
    proc = subprocess.run(
        [sys.executable, "-m", "implicitseries.cli", "--check", *SYMBOLIC_ALL],
        env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == ("orthogonality relations through n=8: ok\n"
                           "stirling coefficient sums through n=10: ok\n" + document)


def test_a_stdout_without_a_binary_buffer_gets_the_bytes_of_out(monkeypatch, tmp_path):
    argv = ["--mode", "symbolic", "-N", "6", "--method", "all"]
    path = tmp_path / "r.json"
    assert cli.main([*argv, "--out", str(path)]) == 0
    text = io.StringIO()
    assert not hasattr(text, "buffer")
    monkeypatch.setattr(sys, "stdout", text)
    assert cli.main(argv) == 0
    _assert_no_child_left()
    assert text.getvalue().encode("utf-8") == path.read_bytes()


def test_a_stdout_pipe_gets_the_bytes_of_out(tmp_path):
    argv = ["-m", "implicitseries.cli", "--check", "--mode", "symbolic", "-N", "6",
            "--method", "all"]
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    path = tmp_path / "r.json"
    written = subprocess.run([sys.executable, *argv, "--out", str(path)], env=env,
                             capture_output=True, timeout=60)
    piped = subprocess.run([sys.executable, *argv], env=env, capture_output=True, timeout=60)
    assert (written.returncode, written.stderr, piped.returncode, piped.stderr) == (0, b"", 0, b"")
    # the check lines go through the text layer, the document as bytes after them
    checks = written.stdout
    assert checks.count(b"\n") == 2
    assert piped.stdout == checks + path.read_bytes()


def _fraction_table():
    """A symbolic table whose newton result has Fraction coefficients."""
    return CoeffTable(4, {(0, 1): fsym(0, 1), (1, 0): Fraction(-1, 3) * fsym(1, 0),
                          (0, 2): Fraction(1, 2) * fsym(0, 2) + 1, (1, 1): fsym(1, 1)},
                      "symbolic")


@pytest.mark.parametrize("table, tag", [
    (CoeffTable.symbolic(5), b"M"),
    (_fraction_table(), b"P"),
], ids=["int", "fraction"])
def test_the_worker_hands_back_newtons_value(table, tag):
    want = expand(table, 4, "newton")
    # ints go by marshal, Fractions by pickle; both must come back whole
    assert cli._dump_outcome(want)[0] == tag
    with cli._NewtonWorker(table, 4) as worker:
        got = worker.result()
    _assert_no_child_left()
    assert (got.order, got.method, got.y) == (want.order, want.method, want.y)
    assert [type(v) for v in got.y] == [LaurentPoly] * 4
    assert [[type(c) for c in v._terms.values()] for v in got.y] == [
        [type(c) for c in v._terms.values()] for v in want.y]
    assert [d["monomials"] for d in got.diagnostics] == [
        d["monomials"] for d in want.diagnostics]


def test_a_marshalled_outcome_comes_back_at_the_width_of_each_value():
    # the keys of a value whose exponent bound reaches 64 are packed wider
    # than those of a small one; marshal carries each value's term dict and
    # bound, and each must come back equal, hashing alike and printing alike
    f01 = fsym(0, 1)
    wide = fsym(1, 0) ** 70 * f01 ** -3 + 2 * xsym(2)
    coarse = (f01 ** 40 * fsym(2, 0)) * f01 ** -40  # fsym(2, 0) by a bound past 64
    narrow = 3 * fsym(1, 1) * f01 ** -2 - 1
    want = cli.ExpansionResult(4, "newton", [wide, narrow, coarse, ZERO],
                               [{"m": m, "monomials": 1} for m in range(1, 5)])
    tag, data = cli._dump_outcome(want)
    assert tag == b"M"
    got = cli._load_outcome(tag + data)
    assert (got.order, got.method, got.diagnostics) == (want.order, want.method, want.diagnostics)
    assert got.y == want.y == [wide, narrow, fsym(2, 0), ZERO]
    assert [hash(v) for v in got.y] == [hash(v) for v in want.y]
    assert [v.to_obj() for v in got.y] == [v.to_obj() for v in want.y]
    assert [v._bound for v in got.y] == [v._bound for v in want.y]
    assert got.y[0].terms() == {(fcode(0, 1), -3, fcode(1, 0), 70): 1, (xcode(2), 1): 2}


def test_a_worker_raising_table_error_exits_1_as_on_the_sequential_path(
        capsys, monkeypatch, tmp_path):
    real = cli.expand

    def failing_newton(table, order=None, method="direct"):
        if method == "newton":
            raise TableError("no such entry")
        return real(table, order, method)

    monkeypatch.setattr(cli, "expand", failing_newton)
    with cli._NewtonWorker(_fraction_table(), 4) as worker:
        with pytest.raises(TableError, match="no such entry"):
            worker.result()
    _assert_no_child_left()
    code, out, err, _ = _run_on_both_paths(capsys, monkeypatch, tmp_path, *SYMBOLIC_ALL)
    assert (code, out, err) == (1, "", "error: no such entry\n")


def test_a_killed_worker_raises_invariant_error(monkeypatch):
    real = cli.expand
    parent = os.getpid()

    def killed_newton(table, order=None, method="direct"):
        if method == "newton" and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(table, order, method)

    monkeypatch.setattr(cli, "expand", killed_newton)
    with cli._NewtonWorker(_fraction_table(), 4) as worker:
        with pytest.raises(cli.InvariantError, match="killed by signal 9"):
            worker.result()
    _assert_no_child_left()
