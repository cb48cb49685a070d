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
is declared once, by @_command on its handler.
"""

from __future__ import annotations

import argparse
import functools
import math
import random
import sys
from typing import Any, Callable, Sequence

from .census import DEFAULT_EPSILON, cluster_volumes, parse_census
from .cusplattice import builtin_names, builtin_record
from .mutant import (
    CyclicWord,
    _canonical_form,
    _cusp_graph,
    _horoball_areas,
    census_report,
    decompose,
    enumerate_classes,
)
from .nzvolume import (
    DEFAULT_C2,
    MIN_WL_SAMPLES,
    V_FIG8,
    V_OCT,
    builtin_series,
    certify_unique_volume,
    delta_v_explicit,
    delta_v_generic,
    delta_v_polar,
    series_names,
    wl_taylor_coefficients,
)
from .primeseq import (
    DEFAULT_SEARCH_CAP,
    FAMILY_M004,
    FAMILY_M125,
    GapPrimeSpec,
    default_avoid_primes,
    gap_prime_sequence,
    progression_modulus,
    verify_witness,
)
from .quadform import (
    IntQuadForm,
    primitive_value_set,
    representations,
    two_sided_gap,
)
from .render import Table, render

__all__ = ["run", "main"]

_FAMILY_ALIASES = {
    "m004": FAMILY_M004,
    FAMILY_M004: FAMILY_M004,
    "m125": FAMILY_M125,
    FAMILY_M125: FAMILY_M125,
}


# ---------------------------------------------------------------------------
# argument parsing helpers


def _int_triple(text: str) -> tuple[int, int, int]:
    try:
        a, b, c = (int(p) for p in text.split(","))
    except ValueError:  # a non-integer part, or not three parts
        raise argparse.ArgumentTypeError("expected a,b,c with three integers")
    return a, b, c


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _positive_float(text: str) -> float:
    value = _finite_float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive number, got {text!r}")
    return value


def _nonnegative_float(text: str) -> float:
    value = _finite_float(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative number, got {text!r}")
    return value


def _int_at_least(low: int) -> Callable[[str], int]:
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(
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
        raise argparse.ArgumentTypeError("expected comma-separated integers")


# path -> (help, arguments, handler), filled by @_command in the order
# of the usage text.  Only handlers are stored: they reach the library
# through this module's globals, which a tracer may rebind.
_COMMANDS: dict[str, tuple[str, tuple, Callable[[argparse.Namespace], Any]]] = {}

_GROUPS = {
    "qf": "integral binary quadratic forms",
    "nz": "truncated volume-change series",
    "mutant": "mutant census of cyclic binary words",
    "census": "volume tables",
}


def _arg(*flags: str, **options: Any) -> tuple[tuple[str, ...], dict[str, Any]]:
    return flags, options


def _command(path: str, help_text: str, *arguments: tuple) -> Callable:
    """Declare the subcommand at ``path`` ("qf values", "certify"): its
    help text and arguments, handled by the decorated function."""

    def declare(handler: Callable[[argparse.Namespace], Any]) -> Callable:
        _COMMANDS[path] = (help_text, arguments, handler)
        return handler

    return declare


_FORMAT = _arg(
    "--format",
    choices=("json", "csv", "table"),
    default="json",
    help="output format (default json)",
)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process: construction costs milliseconds, and
    # parse_args keeps no state between calls.
    parser = argparse.ArgumentParser(
        prog="volrigid",
        description="gap arithmetic, volume asymptotics, and mutant censuses "
        "for cusped hyperbolic 3-manifolds",
    )
    top = parser.add_subparsers(dest="command", required=True)
    groups: dict[str, Any] = {}
    for path, (help_text, arguments, handler) in _COMMANDS.items():
        group, _, name = path.rpartition(" ")
        if group and group not in groups:
            groups[group] = top.add_parser(group, help=_GROUPS[group]).add_subparsers(
                dest="subcommand", required=True
            )
        p = groups.get(group, top).add_parser(name, help=help_text)
        for flags, options in (_FORMAT, *arguments):
            p.add_argument(*flags, **options)
        p.set_defaults(handler=handler)
    return parser


# ---------------------------------------------------------------------------
# subcommands: one declaration each; handlers return JSON-ready payloads
# or a Table

_FORM = _arg("--form", type=_int_triple, required=True, metavar="a,b,c")
_LIMIT = _arg("--limit", type=int, required=True)
_N = _arg("-n", type=int, required=True)


@_command("qf values", "primitive value set", _FORM, _LIMIT)
def _cmd_qf_values(args: argparse.Namespace) -> Any:
    form = IntQuadForm(*args.form)
    vs = primitive_value_set(form, args.limit)
    return {
        "form": str(form),
        "limit": args.limit,
        "count": len(vs.values),
        "values": list(vs.values),
    }


@_command("qf gap", "two-sided primitive gap",
          _FORM, _arg("--q0", type=int, required=True), _LIMIT)
def _cmd_qf_gap(args: argparse.Namespace) -> Any:
    form = IntQuadForm(*args.form)
    gap = two_sided_gap(form, args.q0, args.limit)
    return {"form": str(form), "q0": args.q0, "limit": args.limit, "gap": gap}


@_command("qf reps", "representations of a value",
          _FORM, _arg("--value", type=int, required=True),
          _arg("--primitive", action="store_true", help="drop imprimitive solutions"))
def _cmd_qf_reps(args: argparse.Namespace) -> Any:
    form = IntQuadForm(*args.form)
    reps = representations(form, args.value)
    if args.primitive:
        reps = [r for r in reps if r.primitive]
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


def _witness_payload(witness: Any, spec: GapPrimeSpec) -> dict[str, Any]:
    rep = witness.representation
    return {
        "value": witness.value,
        "gap": spec.g,
        "representation": None if rep is None else [rep.x, rep.y],
        "verified": witness.verified,
        "conditions": dict(witness.conditions),
    }


@_command("prime-seq", "gap primes from congruence systems",
          _arg("--family", choices=sorted(_FAMILY_ALIASES), required=True),
          _arg("-g", "--gap", type=_int_at_least(1), required=True, dest="g"),
          _arg("--count", type=_int_at_least(0), default=1,
               help="witnesses wanted (default 1)"),
          _arg("--cap", type=_int_at_least(0), default=DEFAULT_SEARCH_CAP,
               help="search cap on the value (default 1e15, which reaches the "
                    "first witnesses up to g = 4 only; write a larger cap out "
                    "in digits for deeper searches)"),
          _arg("--avoid", type=_int_list, metavar="p,q,...",
               help="override the avoided-prime list"),
          _arg("--verify-only", type=int, metavar="VALUE",
               help="skip the search and verify this single value"))
def _cmd_prime_seq(args: argparse.Namespace) -> Any:
    family = _FAMILY_ALIASES[args.family]
    avoid = args.avoid
    if avoid is None:
        avoid = default_avoid_primes(family, args.g)
    # The payload prints the progression modulus, and str() refuses an
    # int of more digits than sys.get_int_max_str_digits() (0: no
    # limit).  The modulus is the product of the moduli, so an
    # unprintable one is refused here, before the system is solved.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    modulus = progression_modulus(family, avoid)
    if limit and modulus >= 10**limit:
        raise ValueError(
            f"the progression modulus has {_digit_count(modulus)} digits, more "
            f"than the {limit} that an integer may print with; lower -g, or "
            f"raise the limit with PYTHONINTMAXSTRDIGITS"
        )
    spec = GapPrimeSpec(g=args.g, family=family, avoid_primes=avoid)
    residue, modulus = spec.progression
    payload: dict[str, Any] = {
        "family": family,
        "g": args.g,
        "avoid_primes": list(avoid),
        "residue": residue,
        "modulus": modulus,
    }
    if args.verify_only is not None:
        witness = verify_witness(args.verify_only, spec)
        payload["witnesses"] = [_witness_payload(witness, spec)]
        payload["truncated"] = False
        return payload
    search = gap_prime_sequence(spec, args.count, cap=args.cap)
    payload["cap"] = args.cap
    payload["witnesses"] = [_witness_payload(w, spec) for w in search.witnesses]
    payload["truncated"] = search.truncated
    return payload


@_command("nz eval", "evaluate a volume change",
          _arg("--series", choices=series_names(), required=True),
          _arg("-a", type=_finite_float, required=True),
          _arg("-b", type=_finite_float, required=True),
          _arg("--route", choices=("generic", "explicit", "polar"), default="generic"))
def _cmd_nz_eval(args: argparse.Namespace) -> Any:
    if args.route == "generic":
        value = delta_v_generic(builtin_series(args.series), args.a, args.b)
    elif args.route == "explicit":
        value = delta_v_explicit(args.series, args.a, args.b)
    else:
        value = delta_v_polar(args.series, args.a, args.b)
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
def _cmd_nz_check(args: argparse.Namespace) -> Any:
    if args.points > MAX_CHECK_POINTS:
        raise ValueError(
            f"checks are refused above {MAX_CHECK_POINTS} points, got {args.points}"
        )
    rng = random.Random(args.seed)
    worst: dict[str, float] = {name: 0.0 for name in series_names()}
    for _ in range(args.points):
        a = rng.uniform(-50.0, 50.0)
        b = rng.uniform(-50.0, 50.0)
        if abs(a) + abs(b) < 1e-3:
            continue
        for name in series_names():
            g = delta_v_generic(builtin_series(name), a, b)
            e = delta_v_explicit(name, a, b)
            p = delta_v_polar(name, a, b)
            scale = max(abs(g), 1.0)
            worst[name] = max(worst[name], abs(g - e) / scale, abs(g - p) / scale)
    results = [
        {
            "series": name,
            "max_relative_error": worst[name],
            "ok": worst[name] <= args.tolerance,
        }
        for name in series_names()
    ]
    return {
        "points": args.points,
        "seed": args.seed,
        "tolerance": args.tolerance,
        "all_ok": all(r["ok"] for r in results),
        "results": results,
    }


@_command("nz wl-coeffs", "recover series coefficients numerically",
          _arg("--radius", type=_positive_float, default=0.1),
          _arg("--samples", type=_int_at_least(MIN_WL_SAMPLES), default=64))
def _cmd_nz_wl_coeffs(args: argparse.Namespace) -> Any:
    coeffs = wl_taylor_coefficients(radius=args.radius, samples=args.samples)
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
def _cmd_nz_constants(args: argparse.Namespace) -> Any:
    return {"v_omega": V_FIG8, "V8": V_OCT}


@_command("certify", "volume-uniqueness certificate",
          _arg("--manifold", choices=builtin_names(), required=True),
          _arg("-a", type=int, required=True),
          _arg("-b", type=int, required=True),
          _arg("--c2", type=_positive_float, default=DEFAULT_C2),
          _arg("--scan-limit", type=int, default=10**4))
def _cmd_certify(args: argparse.Namespace) -> Any:
    record = builtin_record(args.manifold)
    cert = certify_unique_volume(
        record, args.a, args.b, c2=args.c2, scan_limit=args.scan_limit
    )
    return {
        "manifold": cert.record_name,
        "filling": list(cert.filling),
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
def _cmd_mutant_census(args: argparse.Namespace) -> Any:
    report = census_report(args.n)
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
def _cmd_mutant_graph(args: argparse.Namespace) -> Any:
    word = CyclicWord.from_string(args.word)
    dec = decompose(word)
    graph = _cusp_graph(word, dec)
    areas = _horoball_areas(word, graph, args.first_stage_modulus)
    return {
        "word": str(word),
        "canonical": str(_canonical_form(word, dec)),
        "kind": dec.kind,
        "i_sequence": list(dec.i_sequence),
        "knot_moduli": sorted(graph.cycle_labels),
        "apex_label": graph.apex_label,
        "cycle_labels": list(graph.cycle_labels),
        "special_triangle": graph.special_triangle,
        "horoball_areas": list(map(list, areas)),
    }


@_command("mutant classes", "canonical class list", _N)
def _cmd_mutant_classes(args: argparse.Namespace) -> Any:
    classes = enumerate_classes(args.n)
    return {
        "n": args.n,
        "count": len(classes),
        "classes": [str(w) for w in classes],
    }


@_command("census hist", "cluster name,volume lines into a histogram",
          _arg("path", help="CSV file, or - for standard input"),
          _arg("--epsilon", type=_nonnegative_float, default=DEFAULT_EPSILON))
def _cmd_census_hist(args: argparse.Namespace) -> Any:
    if args.path == "-":
        report = parse_census(sys.stdin)
    else:
        with open(args.path, encoding="utf-8") as fh:
            report = parse_census(fh)
    for err in report.errors:
        print(
            f"warning: line {err.line_number}: {err.reason}: {err.text}",
            file=sys.stderr,
        )
    clusters = cluster_volumes(report.records, epsilon=args.epsilon)
    return Table(("volume", "count", "names"), clusters)


# ---------------------------------------------------------------------------
# entry points


def run(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
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
