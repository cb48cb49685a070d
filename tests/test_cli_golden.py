"""Exit code, stdout and stderr of every subcommand, pinned byte for byte.

The expected bytes live in tests/data/cli_golden.json, one entry per
invocation and output format.  After a deliberate output change,
regenerate the file from the repository root with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
from pathlib import Path

import pytest

from volrigid.cli import _COMMANDS, run

try:
    import jsonschema
except ImportError:  # pragma: no cover
    jsonschema = None

DATA = Path(__file__).parent / "data"
SCHEMA = Path(__file__).resolve().parents[1] / "docs" / "cli-schema.json"
GOLDEN = DATA / "cli_golden.json"

FORMATS = ("json", "csv", "table")

# Invocations run in every format; paths are relative to tests/data.
INVOCATIONS = [
    ("qf", "values", "--form", "1,0,12", "--limit", "200"),
    ("qf", "values", "--form", "1,1,1", "--limit", "60"),
    ("qf", "values", "--form", "1,0,-1", "--limit", "5"),
    ("qf", "gap", "--form", "1,1,1", "--q0", "13", "--limit", "100"),
    ("qf", "gap", "--form", "1,0,12", "--q0", "241", "--limit", "100000"),
    ("qf", "reps", "--form", "1,0,1", "--value", "25"),
    ("qf", "reps", "--form", "1,0,1", "--value", "25", "--primitive"),
    ("qf", "reps", "--form", "1,0,12", "--value", "4", "--primitive"),
    ("prime-seq", "--family", "m004", "-g", "1", "--count", "3", "--cap", "10000"),
    ("prime-seq", "--family", "m125", "-g", "1", "--count", "4", "--cap", "1000"),
    ("prime-seq", "--family", "m004", "-g", "2", "--cap", "1000000"),
    ("prime-seq", "--family", "m004", "-g", "1", "--count", "0", "--cap", "100000"),
    ("prime-seq", "--family", "m004", "-g", "1", "--verify-only", "241"),
    ("prime-seq", "--family", "m125", "-g", "1", "--avoid", "3,11",
     "--verify-only", "10"),
    ("prime-seq", "--family", "m125", "-g", "3", "--avoid", "7,11,3,19,23,31"),
    ("nz", "eval", "--series", "m004", "-a", "5", "-b", "1", "--route", "generic"),
    ("nz", "eval", "--series", "m004", "-a", "5", "-b", "1", "--route", "explicit"),
    ("nz", "eval", "--series", "m004", "-a", "5", "-b", "1", "--route", "polar"),
    ("nz", "check", "--points", "20"),
    ("nz", "wl-coeffs"),
    ("nz", "wl-coeffs", "--radius", "0.3", "--samples", "32"),
    ("nz", "constants"),
    ("certify", "--manifold", "m004", "-a", "7", "-b", "4"),
    ("certify", "--manifold", "m125", "-a", "1", "-b", "2"),
    ("certify", "--manifold", "m004", "-a", "7", "-b", "4", "--c2", "0.5"),
    ("certify", "--manifold", "m003", "-a", "2", "-b", "1"),
    ("certify", "--manifold", "m129", "-a", "3", "-b", "1"),
    ("mutant", "census", "-n", "4"),
    ("mutant", "census", "-n", "12"),
    ("mutant", "census", "-n", "2"),
    ("mutant", "census", "-n", "31"),
    ("mutant", "graph", "--word", "00101"),
    ("mutant", "graph", "--word", "111", "--first-stage-modulus", "2"),
    ("mutant", "classes", "-n", "5"),
    ("census", "hist", "volume_census_sample.csv"),
]


def _cases() -> list[tuple[str, ...]]:
    return [argv + ("--format", fmt) for argv in INVOCATIONS for fmt in FORMATS]


def _capture(argv: tuple[str, ...]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(list(argv))
    return {"argv": list(argv), "code": code,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


@functools.cache
def _golden() -> dict[tuple[str, ...], dict]:
    entries = json.loads(GOLDEN.read_text(encoding="utf-8"))
    return {tuple(entry["argv"]): entry for entry in entries}


def test_golden_covers_every_case():
    assert list(_golden()) == _cases()


def test_schema_and_golden_cover_every_declared_command():
    declared = set(_COMMANDS)
    schema = json.loads(SCHEMA.read_text(encoding="utf-8"))
    shapes = {ref["$ref"].rsplit("/", 1)[1] for ref in schema["oneOf"]}
    assert shapes == {path.replace(" ", "_").replace("-", "_") for path in declared}
    invoked = set()
    for argv in INVOCATIONS:
        path = " ".join(argv[:2])
        invoked.add(path if path in declared else argv[0])
    assert invoked == declared


@pytest.mark.parametrize("argv", _cases(), ids=" ".join)
def test_cli_bytes_match_golden(argv, monkeypatch):
    monkeypatch.chdir(DATA)
    assert _capture(argv) == _golden()[argv]


@pytest.mark.skipif(jsonschema is None, reason="jsonschema not installed")
def test_golden_json_payloads_validate_against_schema():
    schema = json.loads(SCHEMA.read_text(encoding="utf-8"))
    validator = jsonschema.Draft202012Validator(schema)
    payloads = [
        (argv, json.loads(entry["stdout"]))
        for argv, entry in _golden().items()
        if argv[-1] == "json" and entry["code"] == 0
    ]
    assert payloads
    for argv, payload in payloads:
        errors = [e.message for e in validator.iter_errors(payload)]
        assert errors == [], (argv, errors)


if __name__ == "__main__":
    target = GOLDEN.resolve()
    os.chdir(DATA)
    entries = [_capture(argv) for argv in _cases()]
    target.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(entries)} entries to {target}")
