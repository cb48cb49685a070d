"""The benchmark tracer's spans name real functions and count real results.

``perfbench/layers.py`` wraps each (module, function) of its ``SPANS``
by name, and reads a count from the results of some of them.  A renamed
function or a reshaped result would otherwise show only as a zero metric
in a traced benchmark round, not as a failed test.
"""

from __future__ import annotations

import importlib
import importlib.util
import time
from pathlib import Path

import pytest

from volrigid import cli
from volrigid.census import parse_census
from volrigid.mutant import bracelet_count, enumerate_classes
from volrigid.primeseq import FAMILY_M004, GapPrimeSpec, verify_witness
from volrigid.quadform import IntQuadForm, primitive_value_set
from volrigid.render import render

ROOT = Path(__file__).resolve().parents[1]
FIXTURE = ROOT / "tests" / "data" / "volume_census_sample.csv"


def _load_layers():
    spec = importlib.util.spec_from_file_location("layers", ROOT / "perfbench" / "layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


layers = _load_layers()

# a real result of each function whose span counts something, and its count
_COUNTED = {
    "census.parse_census": (lambda: parse_census(["name,volume", "a,1.5", "b,2", "c,x"]), 2),
    "primeseq.verify_witness": (
        lambda: verify_witness(241, GapPrimeSpec(1, FAMILY_M004, (5, 11))), 1
    ),
    # 1, 2, 5 and 10 are x^2 + y^2 on coprime pairs
    "quadform.primitive_value_set": (lambda: primitive_value_set(IntQuadForm(1, 0, 1), 10), 4),
    "mutant.enumerate_classes": (lambda: enumerate_classes(6), bracelet_count(6)),
    # the escaped name is 8 bytes of JSON, the whole text 20
    "cli.render": (lambda: render({"k": "é"}, "json"), 20),
}


@pytest.mark.parametrize("module, function", [span[:2] for span in layers.SPANS])
def test_every_span_names_a_function(module, function):
    assert callable(getattr(importlib.import_module(f"volrigid.{module}"), function))


def test_each_count_reads_a_real_result():
    counts = {f"{m}.{f}": count for m, f, count in layers.SPANS if count is not None}
    assert counts.keys() == _COUNTED.keys()
    for name, (call, expected) in _COUNTED.items():
        assert counts[name](call()) == expected, name


def test_a_traced_census_hist_sees_its_records_and_bytes(capsys):
    tracer = layers.Tracer(time.perf_counter)
    tracer.install()
    try:
        assert cli.run(["census", "hist", str(FIXTURE)]) == 0
    finally:
        tracer.remove()
    out = capsys.readouterr().out
    metrics = layers.per_layer(tracer.take())
    assert metrics["census.parse_census.records"] == 20
    assert metrics["census.cluster_volumes.s"] > 0
    assert metrics["cli.render.bytes"] == len(out.encode()) > 0
