"""run parses a call with its subcommand's own parser, and falls back on
the full parser tree for help, errors and leftovers: both routes must
give the same exit code, stdout and stderr on every call."""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volrigid import cli

DATA = Path(__file__).parent / "data"

# One cheap valid call per declared path; paths are relative to tests/data.
VALID = {
    "qf values": ("--form", "1,0,12", "--limit", "200"),
    "qf gap": ("--form", "1,1,1", "--q0", "13", "--limit", "100"),
    "qf reps": ("--form", "1,0,1", "--value", "25", "--primitive"),
    "prime-seq": ("--family", "m004", "-g", "1", "--cap", "10000"),
    "nz eval": ("--series", "m004", "-a", "5", "-b", "1", "--route", "polar"),
    "nz check": ("--points", "20", "--seed", "3"),
    "nz wl-coeffs": ("--radius", "0.3", "--samples", "32"),
    "nz constants": (),
    "certify": ("--manifold", "m004", "-a", "7", "-b", "4", "--scan-limit", "100000"),
    "mutant census": ("-n", "12"),
    "mutant graph": ("--word", "00101", "--first-stage-modulus", "2"),
    "mutant classes": ("-n", "5"),
    "census hist": ("volume_census_sample.csv", "--epsilon", "0.01"),
}


def _options(path: str) -> list[tuple[tuple[str, ...], dict]]:
    # the declared arguments as a parser gets them, deferred ones evaluated
    return [(flags, options) for flags, options in cli._arguments(path)
            if flags[0].startswith("-")]


def _without(rest: tuple[str, ...], flags: tuple[str, ...]) -> tuple[str, ...]:
    """rest with the option flags and its value taken out."""
    i = next(i for i, token in enumerate(rest) if token in flags)
    return rest[:i] + rest[i + 2:]


def _argvs(path: str) -> list[tuple[str, ...]]:
    head = tuple(path.split())
    rest = VALID[path]
    argvs = [
        head + rest,
        head + ("-h",),
        head + rest + ("--help",),
        head + rest + ("--bogus",),
        head + rest + ("--bogus", "1"),
        head + rest + ("extra",),
        head + rest + ("--format=csv",),
        head + rest + ("--format", "xml"),
        head + rest + ("--",),
        head + ("--",) + rest,
        (" ".join(head),) + rest,
        head[:1] + rest,
    ]
    for flags, options in _options(path):
        flag = flags[-1]
        if options.get("required"):
            argvs.append(head + _without(rest, flags))
        if "choices" in options:
            argvs.append(head + rest + (flag, "bogus"))
        if "type" in options:
            argvs.append(head + rest + (flag, "x,y"))
        if options.get("action") != "store_true":
            # a negative value, and the flag cut short (--fo is ambiguous
            # between --form and --format; --scan abbreviates --scan-limit)
            argvs.append(head + rest + (flag, "-1709"))
            if flag.startswith("--"):
                argvs.append(head + rest + (flag[:4], "1"))
                argvs.append(head + rest + (flag[:6], "1"))
    if path == "certify":
        argvs += [
            head + rest + ("--scan", "100000"),
            head + _without(rest, ("-b",)) + ("-b", "-1709"),
        ]
    return argvs


def _capture(argv: tuple[str, ...]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_every_declared_path_has_a_valid_call():
    assert set(VALID) == set(cli._COMMANDS)


@pytest.mark.parametrize("path", list(VALID))
def test_dispatch_matches_the_full_tree(path, monkeypatch):
    monkeypatch.chdir(DATA)
    argvs = _argvs(path)
    dispatched = [_capture(argv) for argv in argvs]
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_parse", lambda argv: cli._build_parser().parse_args(argv))
        tree = [_capture(argv) for argv in argvs]
    for argv, got, want in zip(argvs, dispatched, tree):
        assert got == want, argv
    # the valid call succeeds, and so do some of the variants
    assert dispatched[0][0] == 0
    assert {code for code, _, _ in dispatched} >= {0, 2}


@pytest.mark.parametrize("path", list(VALID))
def test_a_valid_call_builds_only_its_leaf(path, monkeypatch):
    monkeypatch.chdir(DATA)
    cli._build_parser.cache_clear()
    code, _, err = _capture(tuple(path.split()) + VALID[path])
    assert (code, err) == (0, "")
    assert cli._build_parser.cache_info().currsize == 0


VALUES = ("1", "2", "-1", "0", "x", "1,0,1", "m004", "json", "csv", "polar", "0.3", "-",
          "--", "-h", "--format=csv", "qf gap")


@st.composite
def near_valid_calls(draw) -> list[str]:
    """A path's valid call with a few edits: an option of the path (in
    full, cut short, or --format) with a value, any token, or a cut."""
    path = draw(st.sampled_from(list(VALID)))
    rest = list(VALID[path])
    flags = ["--format"] + [flag for flags, _ in _options(path) for flag in flags]
    tokens = sorted({token for p in VALID for token in p.split()} | set(flags)) + list(VALUES)
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(rest)))
        edit = draw(st.sampled_from(("option", "option", "token", "cut")))
        if edit == "option":
            flag = draw(st.sampled_from(flags))
            flag = flag[:draw(st.integers(3, len(flag)))] if flag.startswith("--") else flag
            rest[i:i] = [flag, draw(st.sampled_from(VALUES))]
        elif edit == "token" or i == len(rest):
            rest.insert(i, draw(st.sampled_from(tokens)))
        else:
            del rest[i]
    return path.split() + rest


@settings(max_examples=600, deadline=None, derandomize=True)
@given(argv=near_valid_calls())
def test_a_leaf_parse_is_the_tree_parse(argv):
    # whenever the leaf alone takes the whole call, the tree parses it to
    # the same arguments, and _parse returns the leaf's
    head = tuple(argv[:2]) if tuple(argv[:2]) in cli._PATHS else tuple(argv[:1])
    try:
        leaf, left = cli._leaf_parser(cli._PATHS[head]).parse_known_args(argv[len(head):])
    except cli._Fallback:
        return
    if left:
        return
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        tree = vars(cli._build_parser().parse_args(argv))
    tree.pop("command")
    tree.pop("subcommand", None)
    assert vars(leaf) == tree, argv
    assert cli._parse(argv) == leaf
