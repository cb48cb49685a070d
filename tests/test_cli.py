"""End-to-end checks of the command line: payloads, formats, exit codes."""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volrigid import arith, cli, primeseq
from volrigid.cli import _digit_count, run
from volrigid.mutant import MAX_CLASS_WORD_LENGTH
from volrigid.render import _json_text

try:
    import jsonschema
except ImportError:  # pragma: no cover
    jsonschema = None

ROOT = Path(__file__).resolve().parents[1]
DATA = Path(__file__).parent / "data"
FIXTURE = str(DATA / "volume_census_sample.csv")


def invoke(capsys, *argv: str) -> tuple[int, str, str]:
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def invoke_json(capsys, *argv: str):
    code, out, err = invoke(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_qf_gap_spec_example(capsys):
    payload = invoke_json(
        capsys, "qf", "gap", "--form", "1,1,1", "--q0", "13", "--limit", "100"
    )
    assert payload["gap"] == 6


def test_qf_values(capsys):
    payload = invoke_json(
        capsys, "qf", "values", "--form", "1,0,12", "--limit", "15"
    )
    assert payload["values"] == [1, 12, 13]
    assert payload["count"] == 3


def test_qf_reps_primitive_filter(capsys):
    full = invoke_json(capsys, "qf", "reps", "--form", "1,0,12", "--value", "4")
    assert [r["primitive"] for r in full["representations"]] == [False, False]
    prim = invoke_json(
        capsys, "qf", "reps", "--form", "1,0,12", "--value", "4", "--primitive"
    )
    assert prim["representations"] == []


def test_qf_reps_primitive_factors_only_to_the_first_obstruction(capsys, monkeypatch):
    # 3 is inert for x^2 + y^2, so 3n has no primitive representation
    # whatever n is, and the query stops before it factors the
    # 39-digit semiprime n; the full list needs n's factors
    def refuse(n, budget=None):
        raise AssertionError(f"rho on {n}")

    monkeypatch.setattr(arith, "_pollard_rho", refuse)
    value = str(3 * 782283434853405216443915680618039931881)
    payload = invoke_json(capsys, "qf", "reps", "--form", "1,0,1", "--value", value,
                          "--primitive")
    assert payload["count"] == 0 and payload["representations"] == []
    with pytest.raises(AssertionError, match="rho on"):
        run(["qf", "reps", "--form", "1,0,1", "--value", value])


def test_prime_seq_m004(capsys):
    payload = invoke_json(
        capsys, "prime-seq", "--family", "m004", "-g", "1", "--count", "2",
        "--cap", "10000",
    )
    assert payload["residue"] == 241
    assert payload["modulus"] == 660
    assert [w["value"] for w in payload["witnesses"]] == [241, 2221]
    assert all(w["verified"] for w in payload["witnesses"])


def test_prime_seq_verify_only(capsys):
    payload = invoke_json(
        capsys, "prime-seq", "--family", "m125", "-g", "1", "--avoid", "3,11",
        "--verify-only", "10",
    )
    witness = payload["witnesses"][0]
    assert witness["value"] == 10
    assert witness["representation"] == [1, 2]
    assert witness["verified"]


def test_prime_seq_negative_verify_only_is_a_usage_error(capsys):
    code, out, err = invoke(capsys, "prime-seq", "--family", "m004", "-g", "1",
                            "--verify-only", "-5")
    assert (code, out) == (2, ""), err
    assert "--verify-only" in err
    spec = primeseq.GapPrimeSpec(1, primeseq.FAMILY_M004, (5, 11))
    with pytest.raises(ValueError, match="m >= 0"):
        primeseq.verify_witness(-5, spec)


def test_nz_constants_keys(capsys):
    payload = invoke_json(capsys, "nz", "constants")
    assert abs(payload["v_omega"] - 2.029883) < 1e-6
    assert abs(payload["V8"] - 3.663862) < 1e-6


def test_nz_eval_routes_agree(capsys):
    values = [
        invoke_json(
            capsys, "nz", "eval", "--series", "m004", "-a", "5", "-b", "1",
            "--route", route,
        )["delta_v"]
        for route in ("generic", "explicit", "polar")
    ]
    assert max(values) - min(values) < 1e-10


def test_nz_wl_coeffs(capsys):
    payload = invoke_json(capsys, "nz", "wl-coeffs")
    assert abs(payload["c1"]["re"] + 2) < 1e-8
    assert abs(payload["c1"]["im"] - 2) < 1e-8
    assert abs(payload["c3"]["im"] - 1 / 6) < 1e-8


def test_nz_wl_coeffs_c1_c3_use_the_requested_quadrature(capsys):
    payload = invoke_json(capsys, "nz", "wl-coeffs", "--radius", "0.3", "--samples", "32")
    coeffs = payload["coefficients"]
    for k in (1, 3):
        assert payload[f"c{k}"] == {"re": coeffs[k]["re"], "im": coeffs[k]["im"]}


def test_certify(capsys):
    payload = invoke_json(capsys, "certify", "--manifold", "m125", "-a", "1", "-b", "2")
    assert payload["n_q0"] == 8
    assert payload["bound"] == "2"
    assert payload["valid"] is False


def test_mutant_census_spec_example(capsys):
    payload = invoke_json(capsys, "mutant", "census", "-n", "3")
    assert payload["class_count"] == 4


def test_mutant_graph(capsys):
    payload = invoke_json(capsys, "mutant", "graph", "--word", "00101")
    assert payload["canonical"] == "00101"
    assert payload["cycle_labels"] == [4, 8, 8]
    assert payload["apex_label"] == 5


@pytest.mark.parametrize("word, err", [
    ("", "error: cyclic words must have length at least 3\n"),
    ("01", "error: cyclic words must have length at least 3\n"),
    # the letters are checked before the length
    ("0a", "error: '0a' is not a binary word\n"),
    ("0121", "error: '0121' is not a binary word\n"),
])
def test_mutant_graph_word_errors(capsys, word, err):
    assert invoke(capsys, "mutant", "graph", "--word", word) == (1, "", err)


def test_mutant_classes(capsys):
    payload = invoke_json(capsys, "mutant", "classes", "-n", "4")
    assert payload["classes"] == ["0000", "0001", "0011", "0101", "0111", "1111"]


def test_census_hist_golden_byte_identical(capsys):
    code, out, err = invoke(capsys, "census", "hist", FIXTURE)
    assert code == 0
    golden = (DATA / "volume_census_sample_hist.json").read_text(encoding="utf-8")
    assert out == golden


def test_census_hist_reports_bad_lines_on_stderr(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("A,1.5\nB,oops\n", encoding="utf-8")
    code, out, err = invoke(capsys, "census", "hist", str(bad))
    assert code == 0
    assert "line 2" in err
    assert json.loads(out)[0]["names"] == ["A"]


def test_census_hist_shape(tmp_path, capsys):
    # one {volume, count, names} object per cluster, names in a list; csv
    # and table print a header of those keys and one line per cluster
    table = tmp_path / "two.csv"
    table.write_text("b,2.0\na,2.0\nc,3.5\n", encoding="utf-8")
    assert invoke(capsys, "census", "hist", str(table)) == (
        0,
        '[\n  {\n    "volume": 2,\n    "count": 2,\n    "names": [\n      "a",\n      "b"\n    ]\n  },'
        '\n  {\n    "volume": 3.5,\n    "count": 1,\n    "names": [\n      "c"\n    ]\n  }\n]\n',
        "",
    )
    assert invoke(capsys, "census", "hist", str(table), "--format", "csv") == (
        0, 'volume,count,names\n2,2,"[""a"",""b""]"\n3.5,1,"[""c""]"\n', ""
    )
    assert invoke(capsys, "census", "hist", str(table), "--format", "table") == (
        0,
        "volume  count  names\n"
        "------  -----  ---------\n"
        '2       2      ["a","b"]\n'
        '3.5     1      ["c"]\n',
        "",
    )


@pytest.mark.parametrize("fmt, expected", [("json", "[]\n"), ("csv", ""), ("table", "\n")])
def test_census_hist_without_records_prints_no_header(tmp_path, capsys, fmt, expected):
    table = tmp_path / "comments.csv"
    table.write_text("# no records\n\n  # none here either\n", encoding="utf-8")
    assert invoke(capsys, "census", "hist", str(table), "--format", fmt) == (0, expected, "")


@pytest.mark.parametrize("header", ["", "name,volume\n"])
def test_census_hist_drops_a_byte_order_mark(tmp_path, capsys, monkeypatch, header):
    data = ("\ufeff" + header + "m004,2.0298832128\nm003,2.0298832128\n").encode("utf-8")
    path = tmp_path / "marked.csv"
    path.write_bytes(data)
    from_file = invoke(capsys, "census", "hist", str(path))
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    from_stdin = invoke(capsys, "census", "hist", "-")
    assert from_file == from_stdin
    code, out, err = from_file
    assert code == 0 and err == ""
    assert json.loads(out) == [{"volume": 2.0298832128, "count": 2, "names": ["m003", "m004"]}]


def test_output_determinism(capsys):
    first = invoke(capsys, "mutant", "census", "-n", "10")
    second = invoke(capsys, "mutant", "census", "-n", "10")
    assert first == second


def test_certify_output_does_not_depend_on_a_far_scan_limit(capsys):
    # the gap around 241 is 4, found next to it; a scan of the whole
    # ellipse up to 1e15 would visit ~1e15 lattice points
    argv = ("certify", "--manifold", "m004", "-a", "7", "-b", "4", "--scan-limit")
    near = invoke(capsys, *argv, "10000")
    far = invoke(capsys, *argv, "1000000000000000")
    assert near[0] == 0 and far == near


def test_interleaved_runs_share_no_parser_state(capsys):
    # one parser serves every call in a process: options given to one
    # call (--avoid, --c2, --format) must not carry over to the next
    calls = [
        ("prime-seq", "--family", "m004", "-g", "1", "--count", "2", "--cap", "10000"),
        ("prime-seq", "--family", "m004", "-g", "1", "--count", "2", "--cap", "10000",
         "--avoid", "11,5"),
        ("certify", "--manifold", "m004", "-a", "7", "-b", "4", "--c2", "0.5",
         "--format", "csv"),
        ("qf", "values", "--form", "1,0"),
        ("certify", "--manifold", "m004", "-a", "7", "-b", "4"),
    ]
    first = [invoke(capsys, *argv) for argv in calls]
    assert first[3][0] == 2
    assert first[0] != first[1] and first[2] != first[4]
    again = [invoke(capsys, *argv) for argv in reversed(calls)]
    assert again[::-1] == first


def test_csv_and_table_formats(capsys):
    code, out, _ = invoke(
        capsys, "qf", "gap", "--form", "1,1,1", "--q0", "13", "--limit", "100",
        "--format", "csv",
    )
    assert code == 0
    assert "key,value" in out and "gap,6" in out
    code, out, _ = invoke(
        capsys, "nz", "constants", "--format", "table"
    )
    assert code == 0
    assert "v_omega" in out and "2.02988321282" in out


def test_exit_code_usage_error(capsys):
    code, _, _ = invoke(capsys, "no-such-command")
    assert code == 2
    code, _, _ = invoke(capsys, "qf", "values", "--form", "1,0", "--limit", "5")
    assert code == 2


def test_exit_code_domain_error(capsys):
    code, _, err = invoke(capsys, "qf", "values", "--form", "1,0,-1", "--limit", "5")
    assert code == 1
    assert "error:" in err
    code, _, _ = invoke(capsys, "census", "hist", "/definitely/not/here.csv")
    assert code == 1


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="this Python converts ints of any length to str",
)
def test_unprintable_modulus_is_an_error_not_a_traceback(capsys):
    # at g = 500 the progression modulus has 3739 digits, below the
    # default limit of 4300 on int-to-str conversion; at g = 1000 it has
    # 8165 digits, past it
    code, out, err = invoke(capsys, "prime-seq", "--family", "m004", "-g", "500")
    assert code == 0, err
    assert len(str(json.loads(out)["modulus"])) == 3739
    code, out, err = invoke(capsys, "prime-seq", "--family", "m004", "-g", "1000")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "8165 digits" in err and "4300" in err


@settings(max_examples=300, deadline=None, derandomize=True)
@given(n=st.one_of(
    st.integers(1, 10**4000),
    st.integers(1, 4000).flatmap(lambda k: st.sampled_from((10**k - 1, 10**k, 10**k + 1))),
))
def test_digit_count_is_the_length_of_str(n):
    assert _digit_count(n) == len(str(n))


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="this Python converts ints of any length to str",
)
@pytest.mark.parametrize("extra", [(), ("--verify-only", "1")])
def test_unprintable_modulus_is_refused_before_solving(capsys, monkeypatch, extra):
    def refuse(congruences):
        raise AssertionError("crt_solve called")

    monkeypatch.setattr(primeseq, "crt_solve", refuse)
    for family, digits in (("m004", 8165), ("m125", 8161)):
        code, out, err = invoke(capsys, "prime-seq", "--family", family, "-g", "1000", *extra)
        assert (code, out) == (1, ""), err
        assert err == (
            f"error: the progression modulus has {digits} digits, more than the "
            "4300 that an integer may print with; lower -g, or raise the limit "
            "with PYTHONINTMAXSTRDIGITS\n"
        )
    # the patch is live: a printable modulus reaches the solver
    with pytest.raises(AssertionError, match="crt_solve"):
        run(["prime-seq", "--family", "m004", "-g", "1", *extra])


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"),
    reason="this Python has no int-to-str limit",
)
def test_no_int_to_str_limit_prints_any_modulus(capsys):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        payload = invoke_json(capsys, "prime-seq", "--family", "m004", "-g", "1000",
                              "--count", "0")
        assert len(str(payload["modulus"])) == 8165
    finally:
        sys.set_int_max_str_digits(limit)


def test_environment_does_not_set_the_cap(capsys, monkeypatch):
    monkeypatch.setenv("VOLRIGID_CAP", "100")
    payload = invoke_json(capsys, "prime-seq", "--family", "m004", "-g", "1")
    assert payload["cap"] == 10**15
    assert [w["value"] for w in payload["witnesses"]] == [241]


def test_default_cap_reaches_first_g3_witness(capsys):
    payload = invoke_json(capsys, "prime-seq", "--family", "m004", "-g", "3")
    assert [w["value"] for w in payload["witnesses"]] == [1226053501]
    assert payload["truncated"] is False


def test_prime_seq_m125_cap_bounds_the_value(capsys):
    capped = invoke_json(
        capsys, "prime-seq", "--family", "m125", "-g", "1", "--cap", "20"
    )
    assert capped["witnesses"] == [] and capped["truncated"] is True
    at_cap = invoke_json(
        capsys, "prime-seq", "--family", "m125", "-g", "1", "--cap", "34"
    )
    assert [w["value"] for w in at_cap["witnesses"]] == [34]
    assert at_cap["truncated"] is False


@pytest.mark.parametrize("extra", [(), ("--count", "0"), ("--verify-only", "241")])
def test_prime_seq_solves_the_congruence_system_once(extra, capsys, monkeypatch):
    # every volrigid binding of crt_solve counts, so a second solve
    # through any module's import shows up
    original = primeseq.crt_solve
    calls = []

    def counting(congruences):
        calls.append(congruences)
        return original(congruences)

    for name, module in list(sys.modules.items()):
        if name.startswith("volrigid."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    payload = invoke_json(capsys, "prime-seq", "--family", "m004", "-g", "1", *extra)
    assert (payload["residue"], payload["modulus"]) == (241, 660)
    assert len(calls) == 1


def test_prime_seq_prime_free_progression_exits_1(capsys):
    code, out, err = invoke(
        capsys, "prime-seq", "--family", "m125", "-g", "3",
        "--avoid", "7,11,3,19,23,31",
    )
    assert code == 1 and out == ""
    assert "holds no prime" in err and "= 3" in err


def test_shards_flag_is_a_usage_error(capsys):
    code, out, err = invoke(
        capsys, "prime-seq", "--family", "m004", "-g", "1", "--cap", "10000",
        "--shards", "5",
    )
    assert code == 2 and out == ""
    assert "--shards" in err


def test_prime_seq_count_zero_at_default_cap(capsys):
    payload = invoke_json(
        capsys, "prime-seq", "--family", "m004", "-g", "1", "--count", "0"
    )
    assert payload["witnesses"] == [] and payload["truncated"] is False


@pytest.mark.parametrize("argv", [
    ("nz", "eval", "--series", "m004", "-a", "VALUE", "-b", "1"),
    ("nz", "eval", "--series", "m004", "-a", "1", "-b", "VALUE"),
    ("nz", "check", "--points", "2", "--tolerance", "VALUE"),
    ("nz", "wl-coeffs", "--radius", "VALUE"),
    ("certify", "--manifold", "m004", "-a", "7", "-b", "4", "--c2", "VALUE"),
    ("census", "hist", FIXTURE, "--epsilon", "VALUE"),
])
@pytest.mark.parametrize("value", ["nan", "inf", "1e999"])
def test_float_options_refuse_non_finite_values(argv, value, capsys):
    argv = tuple(value if arg == "VALUE" else arg for arg in argv)
    code, out, err = invoke(capsys, *argv)
    assert code == 2 and out == ""
    assert f"expected a finite number, got {value!r}" in err


@pytest.mark.parametrize("argv, value, expected", [
    (("nz", "wl-coeffs", "--radius", "VALUE"), "0", "a positive number"),
    (("nz", "wl-coeffs", "--radius", "VALUE"), "-0.1", "a positive number"),
    (("nz", "wl-coeffs", "--radius", "VALUE"), "1e-3", "a number of at least 0.01"),
    (("nz", "wl-coeffs", "--radius", "VALUE"), "1e-6", "a number of at least 0.01"),
    (("nz", "check", "--points", "2", "--tolerance", "VALUE"), "-1", "a nonnegative number"),
    (("census", "hist", "no-such-file.csv", "--epsilon", "VALUE"), "-1", "a nonnegative number"),
    (("certify", "--manifold", "m004", "-a", "7", "-b", "4", "--c2", "VALUE"), "0",
     "a positive number"),
    (("certify", "--manifold", "m004", "-a", "7", "-b", "4", "--c2", "VALUE"), "-1",
     "a positive number"),
])
def test_float_options_refuse_out_of_range_values(argv, value, expected, capsys):
    # a radius of 0 would divide by zero in the Cauchy integrals, one
    # below 0.01 gives coefficients that are rounding noise, a
    # negative tolerance would fail every series, a non-positive C2
    # certifies nothing, and a negative epsilon is refused before the
    # table is read (the file does not exist)
    argv = tuple(value if arg == "VALUE" else arg for arg in argv)
    code, out, err = invoke(capsys, *argv)
    assert code == 2 and out == ""
    assert f"expected {expected}, got {value!r}" in err


@pytest.mark.parametrize("argv, value, expected", [
    (("nz", "wl-coeffs", "--samples", "VALUE"), "19", "an integer of at least 20"),
    (("nz", "wl-coeffs", "--samples", "VALUE"), "-64", "an integer of at least 20"),
    (("nz", "wl-coeffs", "--samples", "VALUE"), "2.5", "an integer"),
    (("nz", "check", "--points", "VALUE"), "0", "an integer of at least 1"),
    (("nz", "check", "--points", "VALUE"), "many", "an integer"),
    (("prime-seq", "--family", "m004", "-g", "VALUE"), "0", "an integer of at least 1"),
    (("prime-seq", "--family", "m004", "-g", "1", "--count", "VALUE"), "-1",
     "an integer of at least 0"),
    (("prime-seq", "--family", "m004", "-g", "1", "--cap", "VALUE"), "-5",
     "an integer of at least 0"),
])
def test_count_options_refuse_out_of_range_values(argv, value, expected, capsys):
    argv = tuple(value if arg == "VALUE" else arg for arg in argv)
    code, out, err = invoke(capsys, *argv)
    assert code == 2 and out == ""
    assert f"expected {expected}, got {value!r}" in err


@pytest.mark.parametrize("argv, expected", [
    (("nz", "wl-coeffs", "--samples", "1000001"),
     "quadratures are refused above 1000000 samples, got 1000001"),
    (("nz", "check", "--points", "100001"),
     "checks are refused above 100000 points, got 100001"),
])
def test_nz_counts_above_their_cap_exit_1(argv, expected, capsys):
    # both run in time linear in the count, so they are refused before
    # any work instead of running for an hour at 10**9
    code, out, err = invoke(capsys, *argv)
    assert code == 1 and out == ""
    assert err == f"error: {expected}\n"


def test_nz_check_accepts_a_zero_tolerance(capsys):
    payload = invoke_json(capsys, "nz", "check", "--points", "2", "--tolerance", "0")
    assert payload["tolerance"] == 0


@pytest.mark.parametrize("route", ["generic", "explicit", "polar"])
def test_nz_eval_exits_1_when_the_value_is_not_finite(route, capsys):
    # a finite input whose truncation overflows: |z|**2 is inf, and the
    # polar route must not divide its terms to 0
    code, out, err = invoke(
        capsys, "nz", "eval", "--series", "m004", "-a", "1e200", "-b", "1",
        "--route", route,
    )
    assert code == 1 and out == ""
    assert err == ("error: the truncated volume change at a = 1e+200, b = 1 "
                   "overflows a float\n")


@pytest.mark.parametrize("route", ["generic", "explicit", "polar"])
def test_nz_eval_tells_an_underflow_from_the_zero_class(route, capsys):
    # |z|**2 underflows to 0 for a tiny nonzero class: an underflow,
    # not the meaningless class (0, 0) nor a bare division by zero
    code, out, err = invoke(
        capsys, "nz", "eval", "--series", "m004", "-a", "1e-200", "-b", "0",
        "--route", route,
    )
    assert code == 1 and out == ""
    assert err == ("error: the truncated volume change at a = 1e-200, b = 0 "
                   "underflows: a power of |z| rounds to 0\n")
    code, out, err = invoke(
        capsys, "nz", "eval", "--series", "m004", "-a", "0", "-b", "0",
        "--route", route,
    )
    assert code == 1 and out == ""
    assert err == "error: filling class (0, 0) has no meaning\n"


def test_certify_scans_a_gap_past_the_old_row_budget(capsys):
    # q0 = 10**18 + 12 is far past where an annulus walk was refused; the
    # gap 3 is hit on the low side, at 10**18 + 9
    payload = invoke_json(
        capsys, "certify", "--manifold", "m004", "-a", "1000000000", "-b", "1",
        "--scan-limit", "10000000000000000000",
    )
    assert payload["gap_normalized"] == 0.866025403784  # 3 / (2 * sqrt(3))
    assert payload["n_q0"] == 32
    x, y = 977930203, 60313430
    assert math.gcd(x, y) == 1 and x * x + 12 * y * y == 10**18 + 12 - 3


def test_factorization_past_the_rho_budget_is_one_error_line(capsys):
    # a product of two 20-digit primes: rho would need about 10**10 steps
    code, out, err = invoke(
        capsys, "prime-seq", "--family", "m004", "-g", "1",
        "--verify-only", "5459815656611315842843935886422153079513",
    )
    assert code == 1 and out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: a 40-digit cofactor resisted ")


def test_qf_values_refuses_an_infeasible_limit(capsys):
    code, out, err = invoke(
        capsys, "qf", "values", "--form", "1,1,1", "--limit", "1000000000000"
    )
    assert code == 1 and out == ""
    assert "lattice points" in err
    payload = invoke_json(capsys, "qf", "values", "--form", "1,1,1", "--limit", "1000000")
    assert payload["count"] == len(payload["values"]) > 0


def test_mutant_classes_refuses_long_words(capsys):
    code, out, err = invoke(
        capsys, "mutant", "classes", "-n", str(MAX_CLASS_WORD_LENGTH + 1)
    )
    assert code == 1 and out == ""
    assert f"refused above word length {MAX_CLASS_WORD_LENGTH}" in err
    # the census counts by Burnside and keeps its own range
    assert invoke_json(capsys, "mutant", "census", "-n", "30")["n"] == 30


# sha256 of the stdout of `mutant classes -n N`, as printed when the list
# came from canonicalising all 2**N words
CLASSES_STDOUT_SHA256 = {
    17: "a51b8c9c92eb86a2f99e9ad868707e5bc4f89e206a0503ef9a7b00343dbcf8a3",
    20: "d6a10159751f76547b80bcdcd160b4a8e6176b64538a89f73f7b669849b9b78d",
}


@pytest.mark.parametrize("n", sorted(CLASSES_STDOUT_SHA256))
def test_mutant_classes_bytes_are_pinned(capsys, n):
    code, out, err = invoke(capsys, "mutant", "classes", "-n", str(n))
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == CLASSES_STDOUT_SHA256[n]


def planted_census_table(seed: int, rows: int) -> str:
    """Text of a shuffled name,volume table with planted clusters.

    Clusters of 1..6 names start at least 1e-3 apart, and consecutive
    members lie within 2e-7 of each other.  Some names carry quotes,
    tabs, backslashes or non-ASCII letters, some volumes repeat exactly,
    volumes come in several float spellings, and a few lines are blank,
    comments or malformed.
    """
    rng = random.Random(seed)
    bad = ("x,-1", "y,nan", "z,inf", "w,1e999", "a,b,c", ",2.5", "v,abc",
           "no comma", "u,0", " ,3.0")
    odd = ('"q"', "é", "Ω", "t\tab", "back\\slash", "x y")
    body = []
    start = 0.5
    while len(body) < rows:
        start += rng.uniform(1e-3, 3e-3)
        volume = start
        for _ in range(rng.choice((1, 1, 1, 1, 2, 2, 3, 6))):
            name = f"{rng.choice('LKmstv')}{len(body)}{rng.choice('abcdefgh')}"
            if rng.random() < 0.02:
                name += rng.choice(odd)
            text = rng.choice(
                (repr(volume), f"{volume:.15e}", f"  {volume!r} ", f"{volume:.17g}")
            )
            body.append(f"{name},{text}")
            if rng.random() < 0.05:
                body.append(f"{name}=,{text}")
            volume += rng.uniform(0.0, 2e-7)
        roll = rng.random()
        if roll < 0.006:
            body.append(("", f"# note {len(body)}", rng.choice(bad))[int(roll / 0.002)])
    rng.shuffle(body)
    return "\n".join(["name,volume", "# planted clusters", *body]) + "\n"


# sha256 of the stdout of `census hist` on planted_census_table(12, 30000),
# as printed by the writer that recursed once per value and the census
# that built one dataclass per record
HIST_STDOUT_SHA256 = {
    "json": "bc0e210d6cdddeb6af6e20fcb902036ec886ab80e34523ccbeb66a75438f751f",
    "csv": "7a48c36780f926f6cec75857364ba455974b0f71122d4fac87e71323ba4ab3eb",
    "table": "4fb53eb6e7d981b6d6f940cd4fb1bebfa9179525048f86b22c89f39a8ad62fb7",
}
HIST_STDERR_SHA256 = "8eb179bf4aee76468d7ecaecb903543fa7819e5c9ef0e28b5c9e77d90578b061"


@pytest.fixture(scope="module")
def planted_table(tmp_path_factory):
    path = tmp_path_factory.mktemp("census") / "planted.csv"
    path.write_text(planted_census_table(12, 30000), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("fmt", sorted(HIST_STDOUT_SHA256))
def test_census_hist_bytes_are_pinned(capsys, planted_table, fmt):
    code, out, err = invoke(capsys, "census", "hist", planted_table, "--format", fmt)
    assert code == 0 and err.count("\n") == 24
    assert hashlib.sha256(out.encode()).hexdigest() == HIST_STDOUT_SHA256[fmt]
    assert hashlib.sha256(err.encode()).hexdigest() == HIST_STDERR_SHA256


# a 300-letter word: its horoball_areas are about 900 [modulus, area] pairs
GRAPH_WORD = "".join(random.Random(300).choice("01") for _ in range(300))
# sha256 of the stdout of each payload, as printed by the writer that made
# one call per list item and per dict
PAYLOAD_STDOUT_SHA256 = {
    ("mutant", "graph", "--word", GRAPH_WORD): {
        "json": "17a66de21f500e61d47a7345360ce5178723d3ca7924fe68667ee88f4bf4cf17",
        "csv": "21ae4d77888f92867ab1b899c2af761cfa5e3b1b7cae5605c3b593487c876919",
        "table": "d29720ee9003be54c200214274d84d1cbdb77e9d45b57c05efb757ef517abbe3",
    },
    ("prime-seq", "--family", "m125", "-g", "1", "--count", "20"): {
        "json": "8fd7c091542950f5add0a4bca3740fe7f1c3b590bf109b6a532262958b79314e",
        "csv": "c307864f48be928fb6246304a7e0c69c3c6e354be3832d5851da89528fbccb1d",
        "table": "0784ab9ff900afa812e2e33ab1c64c81a3deec5ec74f04349c14f4a09f083e1b",
    },
    ("qf", "reps", "--form", "1,0,1", "--value", "5525"): {
        "json": "94cc3e192936a25e13776c719a92a94ecc2b8f7c23ff5d501e66a2fadf0b6fc8",
        "csv": "ae066ba4e0104202a9db01294243915898c892169a097cb07431cd6ac0fb86fe",
        "table": "c2967ec333bff2fba750aafc1beb9477dc7a7cd8c1a6b0801b73213337f968b3",
    },
    ("nz", "check", "--points", "20"): {
        "json": "d50519b3fd39098d783ffb512d300477ee4a5e16f4d2c79803feb2e3cd0bfb59",
        "csv": "d06cb877fac2044d9837a1058fb62f2afffaa55f2a519fc9a93d6dcfc23d7f2c",
        "table": "f5f003515143a2eb3bc2a4f09281752e803a16637db48d8611d82213091468e1",
    },
}


@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
@pytest.mark.parametrize("argv", list(PAYLOAD_STDOUT_SHA256), ids=lambda a: " ".join(a[:2]))
def test_payload_bytes_are_pinned(capsys, argv, fmt):
    code, out, err = invoke(capsys, *argv, "--format", fmt)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == PAYLOAD_STDOUT_SHA256[argv][fmt]


# a 3000-letter word with about seven ones in ten: about 9000 cusps, of
# four (modulus, area) pairs at --first-stage-modulus 2
LONG_GRAPH_RNG = random.Random(3000)
LONG_GRAPH_WORD = "".join("1" if LONG_GRAPH_RNG.random() < 0.7 else "0" for _ in range(3000))
# sha256 of its stdout, as printed when the canonical form came from the
# letters, the areas from sorting every cusp, and the writer printed
# every [modulus, area] pair
LONG_GRAPH_STDOUT_SHA256 = {
    "json": "3ea4381dd51b9c11a5cce19c10308eaf2b2e1978ac18874b3db73a6bb4dc209d",
    "csv": "ec4c41d7c1ae7291468a333f5c94e55f1f26a54aee31cbed3a37f6c168372808",
    "table": "bdae0026d7c7387a63a5a0b85afda04a8d06c8634c46db43bf71ac0ad43e8e66",
}


@pytest.mark.parametrize("fmt", sorted(LONG_GRAPH_STDOUT_SHA256))
def test_long_word_graph_bytes_are_pinned(capsys, fmt):
    code, out, err = invoke(
        capsys, "mutant", "graph", "--word", LONG_GRAPH_WORD,
        "--first-stage-modulus", "2", "--format", fmt,
    )
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == LONG_GRAPH_STDOUT_SHA256[fmt]


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="this Python converts ints of any length to str",
)
def test_unprintable_int_in_repeated_int_lists_is_an_error(capsys, monkeypatch):
    big = 10**5000
    with pytest.raises(ValueError) as expected:
        json.dumps([[big, 2], [big, 2]])
    for payload in ([[big, 2], [big, 2]], [[1, 2], [1, 2], [big, 2]]):
        with pytest.raises(ValueError) as got:
            _json_text(payload)
        assert str(got.value) == str(expected.value)
    # the same refusal from a command: one error line, exit 1
    monkeypatch.setattr(
        "volrigid.mutant.horoball_areas", lambda *args: ((1, 2), (big, 2), (big, 2))
    )
    for fmt in ("json", "csv", "table"):
        code, out, err = invoke(capsys, "mutant", "graph", "--word", "0101", "--format", fmt)
        assert (code, out) == (1, "")
        assert err == f"error: {expected.value}\n"


def test_qf_reps_refuses_too_many_square_roots(capsys):
    code, out, err = invoke(
        capsys, "qf", "reps", "--form", "1,0,1099511627776",
        "--value", "1099511627776",
    )
    assert code == 1 and out == ""
    assert "has 2097152 square roots" in err


@pytest.mark.skipif(jsonschema is None, reason="jsonschema not installed")
def test_json_outputs_validate_against_shipped_schema(capsys):
    schema = json.loads((ROOT / "docs" / "cli-schema.json").read_text())
    validator = jsonschema.Draft202012Validator(schema)
    invocations = [
        ("qf", "values", "--form", "1,0,12", "--limit", "50"),
        ("qf", "gap", "--form", "1,1,1", "--q0", "13", "--limit", "100"),
        ("qf", "reps", "--form", "1,0,1", "--value", "25"),
        ("prime-seq", "--family", "m004", "-g", "1", "--count", "1", "--cap", "1000"),
        ("prime-seq", "--family", "m004", "-g", "1", "--cap", "0"),
        ("prime-seq", "--family", "m004", "-g", "1", "--verify-only", "0"),
        ("prime-seq", "--family", "m004", "-g", "1", "--verify-only", "1"),
        ("nz", "eval", "--series", "m129", "-a", "3", "-b", "1"),
        ("nz", "check", "--points", "20"),
        ("nz", "wl-coeffs"),
        ("nz", "constants"),
        ("certify", "--manifold", "m004", "-a", "7", "-b", "4"),
        ("mutant", "census", "-n", "4"),
        ("mutant", "graph", "--word", "111"),
        ("mutant", "classes", "-n", "5"),
        ("census", "hist", FIXTURE),
    ]
    for argv in invocations:
        payload = invoke_json(capsys, *argv)
        errors = list(validator.iter_errors(payload))
        assert errors == [], (argv, [e.message for e in errors])


def test_module_entry_point_subprocess():
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH", "")])
    )
    completed = subprocess.run(
        [sys.executable, "-m", "volrigid", "nz", "constants"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert completed.returncode == 0
    payload = json.loads(completed.stdout)
    assert set(payload) == {"v_omega", "V8"}


def test_importing_the_cli_loads_every_layer_and_no_dataclasses():
    # the bench tracer finds each layer in sys.modules after importing
    # the cli, and dataclasses would bring inspect and tokenize into the
    # start-up of every call.  A fresh interpreter: this one has already
    # imported the test dependencies
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH", "")])
    )
    completed = subprocess.run(
        [sys.executable, "-c", "import sys, volrigid.cli; print(*sorted(sys.modules))"],
        capture_output=True, text=True, check=True, env=env,
    )
    loaded = set(completed.stdout.split())
    layers = "arith census cli cusplattice mutant nzvolume primeseq quadform".split()
    assert {f"volrigid.{m}" for m in layers} <= loaded
    assert not {"dataclasses", "inspect", "tokenize"} & loaded


_LAYERS = {"arith", "census", "cusplattice", "mutant", "nzvolume", "primeseq", "quadform"}
_NZVOLUME = {"nzvolume", "cusplattice", "quadform", "arith"}

# path -> (the layers its call executes, the call's arguments)
_NEEDS = {
    "mutant graph": ({"mutant"}, "--word", "00101"),
    "mutant classes": ({"mutant"}, "-n", "6"),
    "census hist": ({"census"}, FIXTURE),
    "qf gap": ({"quadform", "arith"}, "--form", "1,1,1", "--q0", "13", "--limit", "100"),
    "prime-seq": ({"primeseq", "quadform", "arith"}, "--family", "m004", "-g", "1"),
    "nz constants": (_NZVOLUME,),
    "certify": (_NZVOLUME, "--manifold", "m004", "-a", "7", "-b", "4"),
    "mutant census": (_NZVOLUME | {"mutant"}, "-n", "12"),
}


@pytest.mark.parametrize("path", list(_NEEDS))
def test_a_call_executes_only_the_layers_it_needs(path):
    # every layer sits in sys.modules (see the test above), and
    # importlib.util.LazyLoader executes one on its first attribute
    # access, when its module object becomes a plain ModuleType.  A
    # layer imported at the top of another one that it does not need
    # shows here.  A fresh interpreter per call: this one has executed
    # every layer
    needed, *args = _NEEDS[path]
    code = (
        "import contextlib, io, json, sys, types; from volrigid import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()): code = cli.run(sys.argv[1:])\n"
        "run = {n.split('.')[1]: type(m) is types.ModuleType for n, m in sys.modules.items()"
        " if n.startswith('volrigid.')}\n"
        "print(json.dumps([code, sorted(n for n in run if run[n]),"
        " sorted(n for n in run if not run[n])]))"
    )
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH", "")])
    )
    completed = subprocess.run(
        [sys.executable, "-c", code, *path.split(), *args],
        capture_output=True, text=True, check=True, env=env,
    )
    exit_code, executed, unexecuted = json.loads(completed.stdout)
    assert exit_code == 0
    assert executed == sorted(needed | {"cli", "render"})
    assert unexecuted == sorted(_LAYERS - needed)


# the _NEEDS calls whose layers import neither decimal nor fractions
_NO_DECIMAL = {"mutant graph", "mutant classes", "prime-seq", "qf gap"}


@pytest.mark.parametrize("path", list(_NEEDS))
def test_a_valid_call_imports_only_the_stdlib_it_runs(path):
    # a valid call is parsed from its declaration, so argparse (which
    # brings gettext and locale) is left to help and errors; csv is left
    # to csv output (each call here prints json), and decimal and
    # fractions to value sets and the volume layer.  A fresh interpreter
    # per call, as above
    _, *args = _NEEDS[path]
    code = (
        "import contextlib, io, sys; from volrigid import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()): code = cli.run(sys.argv[1:])\n"
        "print(code, *sorted(sys.modules))"
    )
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH", "")])
    )
    completed = subprocess.run(
        [sys.executable, "-c", code, *path.split(), *args],
        capture_output=True, text=True, check=True, env=env,
    )
    exit_code, *loaded = completed.stdout.split()
    assert exit_code == "0"
    absent = {"argparse", "gettext", "locale", "csv"}
    if path in _NO_DECIMAL:
        absent |= {"decimal", "fractions"}
    assert not absent & set(loaded)


def test_help_still_comes_from_the_parser_tree():
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH", "")])
    )
    completed = subprocess.run(
        [sys.executable, "-m", "volrigid", "certify", "-h"],
        capture_output=True, text=True, env=env,
    )
    assert (completed.returncode, completed.stderr) == (0, "")
    assert completed.stdout.startswith("usage: volrigid certify [-h]")
    assert "--scan-limit SCAN_LIMIT" in completed.stdout
