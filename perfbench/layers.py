"""Spans around each volrigid layer's public functions, for traced runs.

``Tracer.install`` wraps every function in ``SPANS`` and rebinds every
name in the ``volrigid`` modules that refers to it, so calls through
private aliases (``primeseq`` binds ``is_prime`` as ``_is_prime``) are
seen too.  Each span records calls, inclusive time and self time (its
time minus the time of spans it called); a few also count what they
returned.  ``per_layer`` turns a round's span totals into the metrics
named in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, function, optional count taken from the return value)
SPANS = (
    ("arith", "is_prime", None),
    ("arith", "factorize", None),
    ("quadform", "representations", None),
    ("quadform", "primitive_value_set", lambda r: len(r.values)),
    ("quadform", "two_sided_gap", None),
    ("primeseq", "gap_prime_sequence", None),
    ("primeseq", "verify_witness", lambda r: int(r.verified)),
    ("nzvolume", "certify_unique_volume", None),
    ("mutant", "enumerate_classes", len),
    ("mutant", "census_report", None),
    ("census", "parse_census", lambda r: len(r.records)),
    ("census", "cluster_volumes", None),
    ("cli", "render", lambda r: len(r.encode())),
    ("cli", "run", None),
)

# metric name -> (span, field); fields: calls, s, self_s, count
METRICS = {
    "arith.is_prime.calls": ("arith.is_prime", "calls"),
    "arith.is_prime.s": ("arith.is_prime", "s"),
    "arith.factorize.calls": ("arith.factorize", "calls"),
    "arith.factorize.s": ("arith.factorize", "s"),
    "quadform.representations.calls": ("quadform.representations", "calls"),
    "quadform.representations.s": ("quadform.representations", "s"),
    "quadform.primitive_value_set.calls": ("quadform.primitive_value_set", "calls"),
    "quadform.primitive_value_set.s": ("quadform.primitive_value_set", "s"),
    "quadform.primitive_value_set.values": ("quadform.primitive_value_set", "count"),
    "quadform.two_sided_gap.self_s": ("quadform.two_sided_gap", "self_s"),
    "primeseq.gap_prime_sequence.calls": ("primeseq.gap_prime_sequence", "calls"),
    # The progression scan is gap_prime_sequence's own time: stepping the
    # progression and collecting results, without is_prime or verification.
    "primeseq.scan.self_s": ("primeseq.gap_prime_sequence", "self_s"),
    "primeseq.verify_witness.calls": ("primeseq.verify_witness", "calls"),
    "primeseq.verify_witness.self_s": ("primeseq.verify_witness", "self_s"),
    "nzvolume.certify_unique_volume.calls": ("nzvolume.certify_unique_volume", "calls"),
    "nzvolume.certify_unique_volume.self_s": ("nzvolume.certify_unique_volume", "self_s"),
    "mutant.enumerate_classes.calls": ("mutant.enumerate_classes", "calls"),
    "mutant.enumerate_classes.s": ("mutant.enumerate_classes", "s"),
    "mutant.enumerate_classes.classes": ("mutant.enumerate_classes", "count"),
    "mutant.census_report.self_s": ("mutant.census_report", "self_s"),
    "census.parse_census.s": ("census.parse_census", "s"),
    "census.parse_census.records": ("census.parse_census", "count"),
    "census.cluster_volumes.s": ("census.cluster_volumes", "s"),
    "cli.render.s": ("cli.render", "s"),
    "cli.render.bytes": ("cli.render", "count"),
    "cli.run.self_s": ("cli.run", "self_s"),
}

FIELDS = ("calls", "s", "self_s", "count")


def unit(metric: str) -> str:
    if metric.endswith("_yield"):
        return "ratio"
    if metric.endswith(".bytes"):
        return "bytes"
    if metric.endswith((".s", "_s")):
        return "s"
    return "count"


class Tracer:
    """Installs and removes the span wrappers; accumulates span totals."""

    def __init__(self, now) -> None:
        self.now = now
        self.totals: dict[str, list[float]] = {}
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, count):
        stack, now = self._stack, self.now
        record = self.totals.setdefault(name, [0, 0.0, 0.0, 0])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = now() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - frame[0]
            if count is not None:
                record[3] += count(result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if n == "volrigid" or n.startswith("volrigid.")]
        for mod_name, fn_name, count in SPANS:
            original = getattr(sys.modules[f"volrigid.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original, count)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patches.append((module, attr, original))

    def remove(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def take(self) -> dict[str, list[float]]:
        """Span totals since the last take, as {span: [calls, s, self_s, count]}."""
        out = {name: list(rec) for name, rec in self.totals.items()}
        for rec in self.totals.values():
            rec[:] = [0, 0.0, 0.0, 0]
        return out


def per_layer(spans: dict[str, list[float]]) -> dict[str, float]:
    """Metric values from span totals (missing spans read 0)."""
    out = {}
    for metric, (span, field) in METRICS.items():
        out[metric] = spans.get(span, [0, 0.0, 0.0, 0])[FIELDS.index(field)]
    calls, _, _, verified = spans.get("primeseq.verify_witness", [0, 0.0, 0.0, 0])
    out["primeseq.witness_yield"] = verified / calls if calls else 0.0
    return out
