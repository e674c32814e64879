"""Exit codes, file formats, and output determinism of the command line."""

import json
import time

import pytest

import implicitseries.cli as cli


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
    code, out, _ = run(capsys, "--builtin", "lambert", "-N", "4")
    path = tmp_path / "r.json"
    code2, out2, _ = run(capsys, "--builtin", "lambert", "-N", "4",
                         "--out", str(path))
    assert code == code2 == 0
    assert out2 == ""
    assert path.read_text(encoding="utf-8") == out


def test_determinism_byte_identical(capsys):
    args = ("--mode", "symbolic", "-N", "3", "--method", "direct",
            "--count-monomials")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_check_flag(capsys):
    code, out, err = run(capsys, "--check")
    assert code == 0
    assert "orthogonality relations through n=8: ok" in out
    assert "stirling coefficient sums through n=10: ok" in out


def test_check_then_expand(capsys):
    code, out, _ = run(capsys, "--check", "--builtin", "geometric", "-N", "2")
    assert code == 0
    assert "ok" in out and '"y"' in out


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
    path.write_text("{not json", encoding="utf-8")
    code, _, err = run(capsys, "--input", str(path), "-N", "2")
    assert code == 1 and "JSON" in err


def test_input_file_missing(capsys):
    code, _, err = run(capsys, "--input", "/nonexistent/t.json", "-N", "2")
    assert code == 1


# -- failure statuses -----------------------------------------------------------


def test_status_2_not_expandable(capsys):
    code, _, err = run(capsys, "--expr", "x + 1", "-N", "2")
    assert code == 2 and "not expandable" in err
    code, _, _ = run(capsys, "--expr", "x*y + x", "-N", "2")
    assert code == 2


def test_status_2_from_input_file(tmp_path, capsys):
    body = {"max_m": 2, "max_n": 2, "entries": [{"m": 1, "n": 0, "v": "1"}]}
    code, _, _ = run(capsys, "--input", _write_table(tmp_path, body), "-N", "2")
    assert code == 2


def test_status_1_parse_error(capsys):
    code, _, err = run(capsys, "--expr", "x + ", "-N", "2")
    assert code == 1 and "byte 4" in err


def test_status_1_exponent_tower_fails_fast(capsys):
    t0 = time.perf_counter()
    code, _, err = run(capsys, "--expr", "x^9^9^9 + y", "-N", "2")
    assert time.perf_counter() - t0 < 1.0
    assert code == 1 and "byte 4" in err and "limit" in err


def test_status_1_domain_error(capsys):
    code, _, err = run(capsys, "--expr", "1/x + y", "-N", "2")
    assert code == 1


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


def test_status_3_method_mismatch(capsys, monkeypatch):
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
