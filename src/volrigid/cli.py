"""Command-line frontend with deterministic JSON, CSV, and table output.

Subcommands map one-to-one onto the library modules:

    qf values|gap|reps      primitive value sets, two-sided gaps, representations
    prime-seq               congruence-built gap primes, verified from scratch by
                            the exact representation engine
    nz eval|check|wl-coeffs|constants
                            truncated volume changes and the series constants
    certify                 volume-uniqueness certificates for the builtin records
    mutant census|graph|classes
                            the cyclic-word census of mutant link complements
    census hist             cluster a name,volume table into a frequency histogram

Exit codes: 0 success, 1 domain error (bad mathematics, missing file),
2 usage error.  The render module prints each payload, and all orderings
are fixed, so identical invocations are byte-identical.  Each subcommand
is declared once, by @_command on its handler.  A call is matched
against its subcommand's declaration alone: each exact flag takes the
next token through its type and choices, and every required option and
positional must be there.  A call that the matcher cannot be sure
argparse would parse the same way (an abbreviated flag, --flag=value,
a help request, a value refused, or starting with "-" and no negative
number, a missing or extra token) goes to the full argparse tree, which
parses it and prints every help text, usage line and error message.  So
argparse is imported only for help, errors and calls written so.

Importing this module executes no library layer.  It registers each
layer module in sys.modules through importlib.util.LazyLoader, which
executes a module on its first attribute access, so a call executes only
the layers that its declaration and handler reach: mutant graph runs
mutant alone, qf runs quadform and arith.  Handlers reach a layer
through its module's attributes, as in quadform.two_sided_gap, so a
function that a tracer rebinds in its layer is the one they call.
"""

from __future__ import annotations

import functools
import importlib.util
import math
import random
import re
import sys
import types
from typing import Any, Callable, Sequence

from .render import Table, render


def _lazy(name: str) -> types.ModuleType:
    """The layer module volrigid.<name>, in sys.modules and bound on the
    package as an import leaves it, but executed on its first attribute
    access (importlib.util.LazyLoader)."""
    fullname = f"{__package__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return module


# Every layer is registered, arith too, which the handlers reach only
# through quadform: the bench tracer looks each one up in sys.modules.
_lazy("arith")
census = _lazy("census")
cusplattice = _lazy("cusplattice")
mutant = _lazy("mutant")
nzvolume = _lazy("nzvolume")
primeseq = _lazy("primeseq")
quadform = _lazy("quadform")

__all__ = ["run", "main"]

# ---------------------------------------------------------------------------
# argument parsing helpers


def _argparse() -> types.ModuleType:
    """argparse, imported on first use: by the parser tree, or by a type
    helper refusing a value with ArgumentTypeError, whose message argparse
    prints as it is (a ValueError prints as "invalid ... value")."""
    import argparse

    return argparse


def _int_triple(text: str) -> tuple[int, int, int]:
    try:
        a, b, c = (int(p) for p in text.split(","))
    except ValueError:  # a non-integer part, or not three parts
        raise _argparse().ArgumentTypeError("expected a,b,c with three integers")
    return a, b, c


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise _argparse().ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise _argparse().ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _positive_float(text: str) -> float:
    value = _finite_float(text)
    if value <= 0:
        raise _argparse().ArgumentTypeError(f"expected a positive number, got {text!r}")
    return value


def _wl_radius(text: str) -> float:
    value = _positive_float(text)
    if value < nzvolume.MIN_WL_RADIUS:
        raise _argparse().ArgumentTypeError(
            f"expected a number of at least {nzvolume.MIN_WL_RADIUS}, got {text!r}"
        )
    return value


def _nonnegative_float(text: str) -> float:
    value = _finite_float(text)
    if value < 0:
        raise _argparse().ArgumentTypeError(f"expected a nonnegative number, got {text!r}")
    return value


def _int_at_least(low: int) -> Callable[[str], int]:
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise _argparse().ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise _argparse().ArgumentTypeError(
                f"expected an integer of at least {low}, got {text!r}"
            )
        return value

    return parse


def _int_list(text: str) -> tuple[int, ...]:
    if not text:
        return ()
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise _argparse().ArgumentTypeError("expected comma-separated integers")


# path -> (help, arguments, handler), filled by @_command in the order
# of the usage text.  Only handlers are stored: they reach the library
# through attributes of the layer modules, such as quadform.two_sided_gap,
# which a tracer rebinds in each layer.  An argument that reads a layer's
# value is declared as a function that returns it, called when the
# matcher's table or the parser tree is built, so importing this module
# executes no layer.  _PATHS maps each path's tokens, as argv holds them,
# to the path.  A handler reads its arguments by attribute, from the
# matcher's SimpleNamespace or the tree's argparse.Namespace.
_COMMANDS: dict[str, tuple[str, tuple, Callable[[types.SimpleNamespace], Any]]] = {}
_PATHS: dict[tuple[str, ...], str] = {}

_GROUPS = {
    "qf": "integral binary quadratic forms",
    "nz": "truncated volume-change series",
    "mutant": "mutant census of cyclic binary words",
    "census": "volume tables",
}


def _arg(*flags: str, **options: Any) -> tuple[tuple[str, ...], dict[str, Any]]:
    return flags, options


def _command(path: str, help_text: str, *arguments: tuple | Callable[[], tuple]) -> Callable:
    """Declare the subcommand at ``path`` ("qf values", "certify"): its
    help text and arguments, handled by the decorated function.  An
    argument that reads a layer's value is a function returning its _arg."""

    def declare(handler: Callable[[types.SimpleNamespace], Any]) -> Callable:
        _COMMANDS[path] = (help_text, arguments, handler)
        _PATHS[tuple(path.split())] = path
        return handler

    return declare


_FORMAT = _arg(
    "--format",
    choices=("json", "csv", "table"),
    default="json",
    help="output format (default json)",
)


def _arguments(path: str) -> list[tuple[tuple[str, ...], dict[str, Any]]]:
    """The arguments _COMMANDS declares for path, --format aside; those
    declared as functions are called, which executes the layers they read."""
    _, arguments, _ = _COMMANDS[path]
    return [argument() if callable(argument) else argument for argument in arguments]


@functools.cache
def _build_parser() -> Any:
    # The argparse tree, built once per process for the calls that the
    # matcher declines: construction costs milliseconds, and parse_args
    # keeps no state between calls.
    parser = _argparse().ArgumentParser(
        prog="volrigid",
        description="gap arithmetic, volume asymptotics, and mutant censuses "
        "for cusped hyperbolic 3-manifolds",
    )
    top = parser.add_subparsers(dest="command", required=True)
    groups: dict[str, Any] = {}
    for path, (help_text, _, handler) in _COMMANDS.items():
        group, _, name = path.rpartition(" ")
        if group and group not in groups:
            groups[group] = top.add_parser(group, help=_GROUPS[group]).add_subparsers(
                dest="subcommand", required=True
            )
        leaf = groups.get(group, top).add_parser(name, help=help_text)
        for flags, options in (_FORMAT, *_arguments(path)):
            leaf.add_argument(*flags, **options)
        leaf.set_defaults(handler=handler)
    return parser


# argparse's own test for a negative number, which it takes as a value
# and not as a flag while no declared flag looks like one
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


@functools.cache
def _table(path: str) -> tuple[dict[str, tuple], dict[str, Any], set[str], list[str]]:
    """path's declaration as _match reads it: each exact flag's (dest,
    type, choices, store_true), the defaults and handler, the required
    dests and the positionals.  Dests are named as argparse names them."""
    flags: dict[str, tuple] = {}
    defaults: dict[str, Any] = {"handler": _COMMANDS[path][2]}
    required, positionals = set(), []
    for names, options in (_FORMAT, *_arguments(path)):
        if not names[0].startswith("-"):
            positionals.append(names[0])
            continue
        dest = options.get("dest") or next(
            (name for name in names if name.startswith("--")), names[0]
        ).lstrip("-").replace("-", "_")
        switch = options.get("action") == "store_true"
        defaults[dest] = options.get("default", False if switch else None)
        if options.get("required"):
            required.add(dest)
        flags.update(dict.fromkeys(names, (dest, options.get("type"), options.get("choices"), switch)))
    return flags, defaults, required, positionals


def _match(path: str, tokens: list[str]) -> types.SimpleNamespace | None:
    """The arguments of path in tokens, as the tree parses them, or None
    where the tree might parse them otherwise or refuse them.  The tree
    hands every token after the path to the leaf, which parses them so
    while each token starting with "-" is an exact flag or a negative
    number after a flag: a flag takes the next token through its type and
    choices, the last of a repeated flag stands, the rest are positional."""
    flags, defaults, required, positionals = _table(path)
    values, seen, given = dict(defaults), set(), []
    tokens = iter(tokens)
    for token in tokens:
        if not token.startswith("-"):
            given.append(token)
            continue
        if token not in flags:
            return None
        dest, kind, choices, switch = flags[token]
        seen.add(dest)
        if switch:
            values[dest] = True
            continue
        value = next(tokens, "-")  # a flag that ends tokens has no value
        if value.startswith("-") and not _NEGATIVE_NUMBER.match(value):
            return None
        if kind is not None:
            try:
                value = kind(value)
            except (TypeError, ValueError, _argparse().ArgumentTypeError):
                return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value
    if not required <= seen or len(given) != len(positionals):
        return None
    values.update(zip(positionals, given))
    return types.SimpleNamespace(**values)


def _parse(argv: list[str]) -> Any:
    """argv's arguments, from _match where it takes them, else from the
    tree.  argv's first two tokens, or else its first, name the path."""
    path = _PATHS.get(tuple(argv[:2])) or _PATHS.get(tuple(argv[:1]))
    if path is not None:
        args = _match(path, argv[len(path.split()):])
        if args is not None:
            return args
    return _build_parser().parse_args(argv)


# ---------------------------------------------------------------------------
# subcommands: one declaration each; handlers return JSON-ready payloads
# or a Table

_FORM = _arg("--form", type=_int_triple, required=True, metavar="a,b,c")
_LIMIT = _arg("--limit", type=int, required=True)
_N = _arg("-n", type=int, required=True)


@_command("qf values", "primitive value set", _FORM, _LIMIT)
def _cmd_qf_values(args: types.SimpleNamespace) -> Any:
    form = quadform.IntQuadForm(*args.form)
    vs = quadform.primitive_value_set(form, args.limit)
    return {
        "form": str(form),
        "limit": args.limit,
        "count": len(vs.values),
        "values": vs.values,
    }


@_command("qf gap", "two-sided primitive gap",
          _FORM, _arg("--q0", type=int, required=True), _LIMIT)
def _cmd_qf_gap(args: types.SimpleNamespace) -> Any:
    form = quadform.IntQuadForm(*args.form)
    gap = quadform.two_sided_gap(form, args.q0, args.limit)
    return {"form": str(form), "q0": args.q0, "limit": args.limit, "gap": gap}


@_command("qf reps", "representations of a value",
          _FORM, _arg("--value", type=int, required=True),
          _arg("--primitive", action="store_true", help="drop imprimitive solutions"))
def _cmd_qf_reps(args: types.SimpleNamespace) -> Any:
    form = quadform.IntQuadForm(*args.form)
    query = quadform.primitive_representations if args.primitive else quadform.representations
    reps = query(form, args.value)
    return {
        "form": str(form),
        "value": args.value,
        "count": len(reps),
        "representations": [
            {"x": r.x, "y": r.y, "primitive": r.primitive} for r in reps
        ],
    }


def _digit_count(n: int) -> int:
    """The number of decimal digits of n >= 1, without str(n)."""
    # (bits - 1) * log10(2) <= log10(n), so k starts at most at the count,
    # float rounding included, and the loop counts up to it
    k = int((n.bit_length() - 1) * math.log10(2))
    while 10**k <= n:
        k += 1
    return k


def _witness_payload(witness: Any, spec: primeseq.GapPrimeSpec) -> dict[str, Any]:
    rep = witness.representation
    return {
        "value": witness.value,
        "gap": spec.g,
        "representation": None if rep is None else [rep.x, rep.y],
        "verified": witness.verified,
        "conditions": dict(witness.conditions),
    }


def _families() -> dict[str, str]:
    """--family's choices: each family by its short name and its own."""
    m004, m125 = primeseq.FAMILY_M004, primeseq.FAMILY_M125
    return {"m004": m004, m004: m004, "m125": m125, m125: m125}


@_command("prime-seq", "gap primes from congruence systems",
          lambda: _arg("--family", choices=sorted(_families()), required=True),
          _arg("-g", "--gap", type=_int_at_least(1), required=True, dest="g"),
          _arg("--count", type=_int_at_least(0), default=1,
               help="witnesses wanted (default 1)"),
          lambda: _arg("--cap", type=_int_at_least(0), default=primeseq.DEFAULT_SEARCH_CAP,
                       help="search cap on the value (default 1e15, which reaches "
                            "the first witnesses up to g = 4 only; write a larger "
                            "cap out in digits for deeper searches)"),
          _arg("--avoid", type=_int_list, metavar="p,q,...",
               help="2g distinct avoid primes, each inert for the family's gap form"),
          _arg("--verify-only", type=_int_at_least(0), metavar="VALUE",
               help="skip the search and verify this single value"))
def _cmd_prime_seq(args: types.SimpleNamespace) -> Any:
    family = _families()[args.family]
    avoid = args.avoid
    if avoid is None:
        avoid = primeseq.default_avoid_primes(family, args.g)
    # The payload prints the progression modulus, and str() refuses an
    # int of more digits than sys.get_int_max_str_digits() (0: no
    # limit).  The modulus is the product of the moduli, so an
    # unprintable one is refused here, before the system is solved.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    modulus = primeseq.progression_modulus(family, avoid)
    if limit and modulus >= 10**limit:
        raise ValueError(
            f"the progression modulus has {_digit_count(modulus)} digits, more "
            f"than the {limit} that an integer may print with; lower -g, or "
            f"raise the limit with PYTHONINTMAXSTRDIGITS"
        )
    spec = primeseq.GapPrimeSpec(g=args.g, family=family, avoid_primes=avoid)
    if args.verify_only is None:
        search = primeseq.gap_prime_sequence(spec, args.count, cap=args.cap)
        residue, modulus = search.progression
        witnesses, truncated = search.witnesses, search.truncated
        searched: dict[str, Any] = {"cap": args.cap}
    else:
        residue, modulus = primeseq.progression(spec)
        witnesses, truncated = (primeseq.verify_witness(args.verify_only, spec),), False
        searched = {}
    return {
        "family": family,
        "g": args.g,
        "avoid_primes": avoid,
        "residue": residue,
        "modulus": modulus,
        **searched,
        "witnesses": [_witness_payload(w, spec) for w in witnesses],
        "truncated": truncated,
    }


@_command("nz eval", "evaluate a volume change",
          lambda: _arg("--series", choices=nzvolume.series_names(), required=True),
          _arg("-a", type=_finite_float, required=True),
          _arg("-b", type=_finite_float, required=True),
          _arg("--route", choices=("generic", "explicit", "polar"), default="generic"))
def _cmd_nz_eval(args: types.SimpleNamespace) -> Any:
    if args.route == "generic":
        value = nzvolume.delta_v_generic(nzvolume.builtin_series(args.series), args.a, args.b)
    elif args.route == "explicit":
        value = nzvolume.delta_v_explicit(args.series, args.a, args.b)
    else:
        value = nzvolume.delta_v_polar(args.series, args.a, args.b)
    return {
        "series": args.series,
        "a": args.a,
        "b": args.b,
        "route": args.route,
        "delta_v": value,
    }


# Each point evaluates every series on all three routes, about 0.3 s per
# 10**4 points; 10**5 points take about 3 s (2-core x86-64, Python 3.11).
# Larger counts are refused.
MAX_CHECK_POINTS = 10**5


@_command("nz check", "cross-route identity suite",
          _arg("--points", type=_int_at_least(1), default=1000),
          _arg("--seed", type=int, default=0),
          _arg("--tolerance", type=_nonnegative_float, default=1e-10))
def _cmd_nz_check(args: types.SimpleNamespace) -> Any:
    if args.points > MAX_CHECK_POINTS:
        raise ValueError(
            f"checks are refused above {MAX_CHECK_POINTS} points, got {args.points}"
        )
    rng = random.Random(args.seed)
    names = nzvolume.series_names()
    worst: dict[str, float] = {name: 0.0 for name in names}
    for _ in range(args.points):
        a = rng.uniform(-50.0, 50.0)
        b = rng.uniform(-50.0, 50.0)
        if abs(a) + abs(b) < 1e-3:
            continue
        for name in names:
            g = nzvolume.delta_v_generic(nzvolume.builtin_series(name), a, b)
            e = nzvolume.delta_v_explicit(name, a, b)
            p = nzvolume.delta_v_polar(name, a, b)
            scale = max(abs(g), 1.0)
            worst[name] = max(worst[name], abs(g - e) / scale, abs(g - p) / scale)
    results = [
        {
            "series": name,
            "max_relative_error": worst[name],
            "ok": worst[name] <= args.tolerance,
        }
        for name in names
    ]
    return {
        "points": args.points,
        "seed": args.seed,
        "tolerance": args.tolerance,
        "all_ok": all(r["ok"] for r in results),
        "results": results,
    }


@_command("nz wl-coeffs", "recover series coefficients numerically",
          _arg("--radius", type=_wl_radius, default=0.1),
          lambda: _arg("--samples", type=_int_at_least(nzvolume.MIN_WL_SAMPLES), default=64))
def _cmd_nz_wl_coeffs(args: types.SimpleNamespace) -> Any:
    coeffs = nzvolume.wl_taylor_coefficients(radius=args.radius, samples=args.samples)
    c1, c3 = coeffs[1], coeffs[3]
    return {
        "radius": args.radius,
        "samples": args.samples,
        "coefficients": [
            {"degree": k, "re": c.real, "im": c.imag} for k, c in enumerate(coeffs)
        ],
        "c1": {"re": c1.real, "im": c1.imag},
        "c3": {"re": c3.real, "im": c3.imag},
    }


@_command("nz constants", "reference volumes")
def _cmd_nz_constants(args: types.SimpleNamespace) -> Any:
    return {"v_omega": nzvolume.V_FIG8, "V8": nzvolume.V_OCT}


@_command("certify", "volume-uniqueness certificate",
          lambda: _arg("--manifold", choices=cusplattice.builtin_names(), required=True),
          _arg("-a", type=int, required=True),
          _arg("-b", type=int, required=True),
          lambda: _arg("--c2", type=_positive_float, default=nzvolume.DEFAULT_C2),
          _arg("--scan-limit", type=int, default=10**4))
def _cmd_certify(args: types.SimpleNamespace) -> Any:
    record = cusplattice.builtin_record(args.manifold)
    cert = nzvolume.certify_unique_volume(
        record, args.a, args.b, c2=args.c2, scan_limit=args.scan_limit
    )
    return {
        "manifold": cert.record_name,
        "filling": cert.filling,
        "q0_normalized": cert.q0_normalized,
        "gap_normalized": cert.gap_normalized,
        "c2": cert.c2,
        "n_q0": cert.n_q0,
        "symmetry_order": cert.symmetry_order,
        "bound": str(cert.bound),
        "valid": cert.valid,
        "regime_verified": cert.regime_verified,
    }


@_command("mutant census", "count classes at length n", _N)
def _cmd_mutant_census(args: types.SimpleNamespace) -> Any:
    report = mutant.census_report(args.n)
    return {
        "n": report.n,
        "class_count": report.class_count,
        "bracelet_count": report.class_count,
        "lower_bound": str(report.lower_bound),
        "volume": report.volume,
        "log_growth": report.log_growth,
        "asymptotic_constant": report.asymptotic_constant,
        "comparison_constant": report.comparison_constant,
    }


@_command("mutant graph", "cusp graph of one word",
          _arg("--word", required=True, metavar="BITS"),
          _arg("--first-stage-modulus", type=int, default=1, choices=(1, 2)))
def _cmd_mutant_graph(args: types.SimpleNamespace) -> Any:
    word = mutant.CyclicWord(args.word)
    dec = mutant.decompose(word)
    graph = mutant.cusp_graph(word, dec)
    areas = mutant.horoball_areas(word, args.first_stage_modulus, graph)
    return {
        "word": word.letters,
        "canonical": mutant.canonical_form(word, dec).letters,
        "kind": dec.kind,
        "i_sequence": dec.i_sequence,
        "knot_moduli": sorted(graph.cycle_labels),
        "apex_label": graph.apex_label,
        "cycle_labels": graph.cycle_labels,
        "special_triangle": graph.special_triangle,
        "horoball_areas": areas,
    }


@_command("mutant classes", "canonical class list", _N)
def _cmd_mutant_classes(args: types.SimpleNamespace) -> Any:
    classes = mutant.enumerate_classes(args.n)
    return {
        "n": args.n,
        "count": len(classes),
        "classes": classes,
    }


@_command("census hist", "cluster name,volume lines into a histogram",
          _arg("path", help="CSV file, or - for standard input"),
          lambda: _arg("--epsilon", type=_nonnegative_float, default=census.DEFAULT_EPSILON))
def _cmd_census_hist(args: types.SimpleNamespace) -> Any:
    if args.path == "-":
        report = census.parse_census(sys.stdin)
    else:
        with open(args.path, encoding="utf-8") as fh:
            report = census.parse_census(fh)
    for err in report.errors:
        print(
            f"warning: line {err.line_number}: {err.reason}: {err.text}",
            file=sys.stderr,
        )
    clusters = census.cluster_volumes(report.records, epsilon=args.epsilon)
    return Table(("volume", "count", "names"), clusters)


# ---------------------------------------------------------------------------
# entry points


def run(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # rendering can refuse too: an int past sys.get_int_max_str_digits
        text = render(args.handler(args), args.format)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(text)
    return 0


def main() -> None:
    sys.exit(run())
