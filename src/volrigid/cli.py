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
2 usage error.  All floats are printed at 12 significant digits and all
orderings are fixed, so identical invocations are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import random
import sys
from typing import Any, Sequence

from .census import DEFAULT_EPSILON, cluster_volumes, clusters_as_dicts, parse_census
from .cusplattice import builtin_names, builtin_record
from .mutant import (
    CyclicWord,
    canonical_form,
    census_report,
    cusp_graph,
    decompose,
    enumerate_classes,
    horoball_areas,
    knot_cusp_moduli,
)
from .nzvolume import (
    DEFAULT_C2,
    V_FIG8,
    V_OCT,
    builtin_series,
    certify_unique_volume,
    delta_v_explicit,
    delta_v_generic,
    delta_v_polar,
    explicit_names,
    series_names,
    wl_series_coefficients,
    wl_taylor_coefficients,
)
from .primeseq import (
    DEFAULT_SEARCH_CAP,
    FAMILY_M004,
    FAMILY_M125,
    GapPrimeSpec,
    build_congruences,
    crt_solve,
    default_avoid_primes,
    gap_prime_sequence,
    verify_witness,
)
from .quadform import (
    IntQuadForm,
    primitive_value_set,
    representations,
    two_sided_gap,
)

__all__ = ["run", "main"]

_ENV_CAP = "VOLRIGID_CAP"
_FAMILY_ALIASES = {
    "m004": FAMILY_M004,
    FAMILY_M004: FAMILY_M004,
    "m125": FAMILY_M125,
    FAMILY_M125: FAMILY_M125,
}


def _default_cap() -> int:
    raw = os.environ.get(_ENV_CAP)
    if raw is None:
        return DEFAULT_SEARCH_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"{_ENV_CAP} must be an integer, got {raw!r}") from None
    if cap <= 0:
        raise ValueError(f"{_ENV_CAP} must be positive")
    return cap


# ---------------------------------------------------------------------------
# deterministic rendering


def _fmt_float(x: float) -> str:
    return format(x, ".12g")


def _json_text(obj: Any, indent: int = 0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [
            f"{inner}{json.dumps(str(k))}: {_json_text(v, indent + 1)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(obj, list):
        if not obj:
            return "[]"
        parts = [f"{inner}{_json_text(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _cell(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _fmt_float(value)
    if isinstance(value, (dict, list)):
        return json.dumps(value, separators=(",", ":"))
    return str(value)


def _rows(payload: Any) -> tuple[list[str], list[list[str]]]:
    if isinstance(payload, list):
        if not payload:
            return [], []
        header = list(payload[0].keys())
        return header, [[_cell(row.get(k)) for k in header] for row in payload]
    header = ["key", "value"]
    return header, [[k, _cell(v)] for k, v in payload.items()]


def render(payload: Any, fmt: str) -> str:
    """Payload text in the given format.

    Payloads are JSON-ready: dicts with str keys, lists, str, int,
    float, bool and None, nothing else.
    """
    if fmt == "json":
        return _json_text(payload) + "\n"
    header, rows = _rows(payload)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        if header:
            writer.writerow(header)
        writer.writerows(rows)
        return buf.getvalue()
    widths = [
        max([len(h)] + [len(r[i]) for r in rows]) for i, h in enumerate(header)
    ]
    lines = []
    if header:
        lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip())
        lines.append("  ".join("-" * w for w in widths))
    for r in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# argument parsing helpers


def _int_triple(text: str) -> tuple[int, int, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected a,b,c with three integers")
    try:
        a, b, c = (int(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError("expected a,b,c with three integers")
    return a, b, c


def _int_list(text: str) -> tuple[int, ...]:
    if not text:
        return ()
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError("expected comma-separated integers")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process: construction costs milliseconds, and
    # parse_args keeps no state between calls.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("json", "csv", "table"),
        default="json",
        help="output format (default json)",
    )

    parser = argparse.ArgumentParser(
        prog="volrigid",
        description="gap arithmetic, volume asymptotics, and mutant censuses "
        "for cusped hyperbolic 3-manifolds",
    )
    top = parser.add_subparsers(dest="command", required=True)

    qf = top.add_parser("qf", help="integral binary quadratic forms")
    qfsub = qf.add_subparsers(dest="subcommand", required=True)

    p = qfsub.add_parser("values", parents=[common], help="primitive value set")
    p.add_argument("--form", type=_int_triple, required=True, metavar="a,b,c")
    p.add_argument("--limit", type=int, required=True)
    p.set_defaults(handler=_cmd_qf_values)

    p = qfsub.add_parser("gap", parents=[common], help="two-sided primitive gap")
    p.add_argument("--form", type=_int_triple, required=True, metavar="a,b,c")
    p.add_argument("--q0", type=int, required=True)
    p.add_argument("--limit", type=int, required=True)
    p.set_defaults(handler=_cmd_qf_gap)

    p = qfsub.add_parser("reps", parents=[common], help="representations of a value")
    p.add_argument("--form", type=_int_triple, required=True, metavar="a,b,c")
    p.add_argument("--value", type=int, required=True)
    p.add_argument(
        "--primitive", action="store_true", help="drop imprimitive solutions"
    )
    p.set_defaults(handler=_cmd_qf_reps)

    p = top.add_parser(
        "prime-seq", parents=[common], help="gap primes from congruence systems"
    )
    p.add_argument("--family", choices=sorted(_FAMILY_ALIASES), required=True)
    p.add_argument("-g", "--gap", type=int, required=True, dest="g")
    p.add_argument("--count", type=int, default=1, help="witnesses wanted (default 1)")
    p.add_argument("--cap", type=int, default=None, help="search cap on the value")
    p.add_argument(
        "--avoid",
        type=_int_list,
        default=None,
        metavar="p,q,...",
        help="override the avoided-prime list",
    )
    p.add_argument(
        "--verify-only",
        type=int,
        default=None,
        metavar="VALUE",
        help="skip the search and verify this single value",
    )
    p.set_defaults(handler=_cmd_prime_seq)

    nz = top.add_parser("nz", help="truncated volume-change series")
    nzsub = nz.add_subparsers(dest="subcommand", required=True)

    p = nzsub.add_parser("eval", parents=[common], help="evaluate a volume change")
    p.add_argument("--series", choices=series_names(), required=True)
    p.add_argument("-a", type=float, required=True)
    p.add_argument("-b", type=float, required=True)
    p.add_argument(
        "--route",
        choices=("generic", "explicit", "polar"),
        default="generic",
    )
    p.set_defaults(handler=_cmd_nz_eval)

    p = nzsub.add_parser(
        "check", parents=[common], help="cross-route identity suite"
    )
    p.add_argument("--points", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tolerance", type=float, default=1e-10)
    p.set_defaults(handler=_cmd_nz_check)

    p = nzsub.add_parser(
        "wl-coeffs", parents=[common], help="recover series coefficients numerically"
    )
    p.add_argument("--radius", type=float, default=0.1)
    p.add_argument("--samples", type=int, default=64)
    p.set_defaults(handler=_cmd_nz_wl_coeffs)

    p = nzsub.add_parser("constants", parents=[common], help="reference volumes")
    p.set_defaults(handler=_cmd_nz_constants)

    p = top.add_parser(
        "certify", parents=[common], help="volume-uniqueness certificate"
    )
    p.add_argument("--manifold", choices=builtin_names(), required=True)
    p.add_argument("-a", type=int, required=True)
    p.add_argument("-b", type=int, required=True)
    p.add_argument("--c2", type=float, default=DEFAULT_C2)
    p.add_argument("--scan-limit", type=int, default=10**4)
    p.set_defaults(handler=_cmd_certify)

    mu = top.add_parser("mutant", help="mutant census of cyclic binary words")
    musub = mu.add_subparsers(dest="subcommand", required=True)

    p = musub.add_parser("census", parents=[common], help="count classes at length n")
    p.add_argument("-n", type=int, required=True)
    p.set_defaults(handler=_cmd_mutant_census)

    p = musub.add_parser("graph", parents=[common], help="cusp graph of one word")
    p.add_argument("--word", required=True, metavar="BITS")
    p.add_argument("--first-stage-modulus", type=int, default=1, choices=(1, 2))
    p.set_defaults(handler=_cmd_mutant_graph)

    p = musub.add_parser("classes", parents=[common], help="canonical class list")
    p.add_argument("-n", type=int, required=True)
    p.set_defaults(handler=_cmd_mutant_classes)

    ce = top.add_parser("census", help="volume tables")
    cesub = ce.add_subparsers(dest="subcommand", required=True)

    p = cesub.add_parser(
        "hist", parents=[common], help="cluster name,volume lines into a histogram"
    )
    p.add_argument("path", help="CSV file, or - for standard input")
    p.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    p.set_defaults(handler=_cmd_census_hist)

    return parser


# ---------------------------------------------------------------------------
# subcommand handlers (each returns a JSON-ready payload)


def _form_of(args: argparse.Namespace) -> IntQuadForm:
    a, b, c = args.form
    return IntQuadForm(a, b, c)


def _cmd_qf_values(args: argparse.Namespace) -> Any:
    form = _form_of(args)
    vs = primitive_value_set(form, args.limit)
    return {
        "form": str(form),
        "limit": args.limit,
        "count": len(vs.values),
        "values": list(vs.values),
    }


def _cmd_qf_gap(args: argparse.Namespace) -> Any:
    form = _form_of(args)
    gap = two_sided_gap(form, args.q0, args.limit)
    return {"form": str(form), "q0": args.q0, "limit": args.limit, "gap": gap}


def _cmd_qf_reps(args: argparse.Namespace) -> Any:
    form = _form_of(args)
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


def _witness_payload(witness: Any) -> dict[str, Any]:
    rep = witness.representation
    return {
        "value": witness.value,
        "gap": witness.verified_gap,
        "representation": None if rep is None else [rep.x, rep.y],
        "verified": witness.verified,
        "conditions": dict(witness.conditions),
    }


def _cmd_prime_seq(args: argparse.Namespace) -> Any:
    family = _FAMILY_ALIASES[args.family]
    avoid = args.avoid
    if avoid is None:
        avoid = default_avoid_primes(family, args.g)
    spec = GapPrimeSpec(g=args.g, family=family, avoid_primes=avoid)
    residue, modulus = crt_solve(build_congruences(spec))
    payload: dict[str, Any] = {
        "family": family,
        "g": args.g,
        "avoid_primes": list(avoid),
        "residue": residue,
        "modulus": modulus,
    }
    if args.verify_only is not None:
        payload["witnesses"] = [_witness_payload(verify_witness(args.verify_only, spec))]
        payload["truncated"] = False
        return payload
    cap = _default_cap() if args.cap is None else args.cap
    search = gap_prime_sequence(spec, args.count, cap=cap)
    payload["cap"] = cap
    payload["witnesses"] = [_witness_payload(w) for w in search.witnesses]
    payload["truncated"] = search.truncated
    return payload


def _cmd_nz_eval(args: argparse.Namespace) -> Any:
    if args.route == "generic":
        value = delta_v_generic(builtin_series(args.series), args.a, args.b)
    elif args.route == "explicit":
        if args.series not in explicit_names():
            raise ValueError(f"no explicit polynomial route for {args.series!r}")
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


def _cmd_nz_check(args: argparse.Namespace) -> Any:
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


def _cmd_nz_wl_coeffs(args: argparse.Namespace) -> Any:
    coeffs = wl_taylor_coefficients(radius=args.radius, samples=args.samples)
    c1, c3 = wl_series_coefficients()
    return {
        "radius": args.radius,
        "samples": args.samples,
        "coefficients": [
            {"degree": k, "re": c.real, "im": c.imag} for k, c in enumerate(coeffs)
        ],
        "c1": {"re": c1.real, "im": c1.imag},
        "c3": {"re": c3.real, "im": c3.imag},
    }


def _cmd_nz_constants(args: argparse.Namespace) -> Any:
    return {"v_omega": V_FIG8, "V8": V_OCT}


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


def _cmd_mutant_graph(args: argparse.Namespace) -> Any:
    word = CyclicWord.from_string(args.word)
    dec = decompose(word)
    graph = cusp_graph(word)
    areas = horoball_areas(word, first_stage_modulus=args.first_stage_modulus)
    return {
        "word": str(word),
        "canonical": str(canonical_form(word)),
        "kind": dec.kind,
        "i_sequence": list(dec.i_sequence),
        "knot_moduli": list(knot_cusp_moduli(word)),
        "apex_label": graph.apex_label,
        "cycle_labels": list(graph.cycle_labels),
        "special_triangle": graph.special_triangle,
        "horoball_areas": [[m, area] for m, area in areas],
    }


def _cmd_mutant_classes(args: argparse.Namespace) -> Any:
    classes = enumerate_classes(args.n)
    return {
        "n": args.n,
        "count": len(classes),
        "classes": [str(w) for w in classes],
    }


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
    return clusters_as_dicts(clusters)


# ---------------------------------------------------------------------------
# entry points


def run(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        payload = args.handler(args)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(render(payload, args.format))
    return 0


def main() -> None:
    sys.exit(run())
