"""Cusp carrier forms, their scales, and symmetry groups."""

from __future__ import annotations

import dataclasses
import math

import pytest

from volrigid.cusplattice import (
    CuspRecord,
    builtin_names,
    builtin_record,
    is_automorphism,
)
from volrigid.nzvolume import builtin_series
from volrigid.quadform import IntQuadForm

SQRT3 = math.sqrt(3.0)


def test_builtin_names_stable():
    assert builtin_names() == ("m003", "m004", "m125", "m129")


def test_builtin_forms_and_scales():
    cases = {
        "m004": ((1, 0, 12), 2 * SQRT3),
        "m003": ((4, 4, 4), 2 * SQRT3),
        "m125": ((2, 0, 2), 2.0),
        "m129": ((1, 0, 4), 2.0),
    }
    for name, (coeffs, scale) in cases.items():
        record = builtin_record(name)
        a, b, c = coeffs
        assert record.integer_form == IntQuadForm(a, b, c), name
        # the derived sqrt(|D|)/2 is bit-identical to these closed forms
        assert record.scale == scale, name


def test_record_fields():
    assert [f.name for f in dataclasses.fields(CuspRecord)] == [
        "name", "integer_form", "symmetry_group",
    ]


def test_builtin_record_unknown_name():
    with pytest.raises(ValueError):
        builtin_record("m000")


def test_forms_match_the_published_series():
    # nzvolume's c1 = -tau is an independent record of each cusp shape:
    # scale * |a + b*tau|**2 / |Im tau| must be the carrier form's value
    for name in builtin_names():
        record = builtin_record(name)
        tau = -builtin_series(name).c1
        for a, b in [(1, 0), (0, 1), (2, 3), (-5, 4), (7, 7), (7, -4)]:
            qhat = abs(a + b * tau) ** 2 / abs(tau.imag)
            expected = record.integer_form.evaluate(a, b)
            assert record.scale * qhat == pytest.approx(expected, rel=1e-12), (name, a, b)


def test_symmetry_groups_preserve_forms():
    for name in builtin_names():
        record = builtin_record(name)
        form = record.integer_form
        for mat in record.symmetry_group:
            (p, q), (r, s) = mat
            assert p * s - q * r in (-1, 1), name
            x, y = 3, -7
            nx, ny = p * x + q * y, r * x + s * y
            assert form.evaluate(nx, ny) == form.evaluate(x, y), (name, mat)


def test_symmetry_group_orders():
    orders = {name: len(builtin_record(name).symmetry_group) for name in builtin_names()}
    assert orders == {"m003": 4, "m004": 4, "m125": 4, "m129": 2}


# every matrix with entries in -4..4: an automorphism's columns represent
# a and c, so its entries are at most 2*max(a, c)/sqrt(|D|), which is
# below 4 for every built-in carrier form
BOX = [
    ((p, q), (r, s))
    for p in range(-4, 5) for q in range(-4, 5)
    for r in range(-4, 5) for s in range(-4, 5)
]


def brute_automorphisms(form: IntQuadForm) -> set:
    """The unimodular matrices in BOX that preserve the form's values at
    (1, 0), (0, 1), (1, 1) and (2, -1), which pin a binary form."""
    out = set()
    for mat in BOX:
        (p, q), (r, s) = mat
        if p * s - q * r not in (-1, 1):
            continue
        if all(
            form.evaluate(p * x + q * y, r * x + s * y) == form.evaluate(x, y)
            for x, y in [(1, 0), (0, 1), (1, 1), (2, -1)]
        ):
            out.add(mat)
    return out


def _product(m1, m2):
    (a, b), (c, d) = m1
    (e, f), (g, h) = m2
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


def test_full_form_group_orders():
    full = {
        name: len(brute_automorphisms(builtin_record(name).integer_form))
        for name in builtin_names()
    }
    assert full == {"m003": 12, "m004": 4, "m125": 8, "m129": 4}


def test_symmetry_groups_are_subgroups_of_the_full_group():
    for name in builtin_names():
        record = builtin_record(name)
        group = set(record.symmetry_group)
        assert group <= brute_automorphisms(record.integer_form), name
        assert all(_product(m1, m2) in group for m1 in group for m2 in group), name


def test_is_automorphism_brute_force_cross_check():
    for name in builtin_names():
        form = builtin_record(name).integer_form
        got = {mat for mat in BOX if is_automorphism(form, mat)}
        assert got == brute_automorphisms(form), name
