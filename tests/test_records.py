"""The record types are named tuples.  A type that validates its fields
refuses an invalid value on every public path that builds one, and
every type comes back equal and of the same type from a copy or a
pickle."""

from __future__ import annotations

import copy
import pickle

import pytest

from volrigid import primeseq
from volrigid.cusplattice import CuspRecord, builtin_record
from volrigid.mutant import (
    CuspGraph,
    CyclicWord,
    census_report,
    cusp_graph,
    decompose,
)
from volrigid.nzvolume import NZSeries, builtin_series, certify_unique_volume
from volrigid.primeseq import (
    FAMILY_M004,
    FAMILY_M125,
    GapPrimeSpec,
    default_avoid_primes,
    gap_prime_sequence,
    progression,
    verify_witness,
)
from volrigid.quadform import IntQuadForm, Representation, primitive_value_set

MINUS_I = ((-1, 0), (0, -1))

# (type, valid arguments, field, invalid value, message)
INVALID = [
    (IntQuadForm, (1, 0, 1), "a", 0, "not positive definite"),
    (IntQuadForm, (1, 0, 1), "c", -1, "not positive definite"),
    (CuspRecord, ("x", IntQuadForm(1, 0, 1), (MINUS_I,)), "symmetry_group",
     (((1, 0), (0, 1)),), "must contain -identity"),
    (CuspRecord, ("x", IntQuadForm(1, 0, 1), (MINUS_I,)), "symmetry_group",
     (MINUS_I, ((1, 1), (0, 1))), "does not preserve"),
    (CyclicWord, ("011",), "letters", "01", "length at least 3"),
    (CyclicWord, ("011",), "letters", "012", "binary"),
    (CuspGraph, (3, (8,), False), "apex_label", 2, "at least 3"),
    (CuspGraph, (3, (8,), False), "cycle_labels", (6,), "multiples of 4"),
    (NZSeries, ("x", 1j, 0j), "c1", complex(1, 0), "nonzero imaginary part"),
    (GapPrimeSpec, (1, FAMILY_M004, (5, 11)), "g", 0, "at least 1"),
    (GapPrimeSpec, (1, FAMILY_M004, (5, 11)), "avoid_primes", (5, 7), "not inert"),
    (GapPrimeSpec, (1, FAMILY_M004, (5, 11)), "family", "m003", "unknown family"),
]


@pytest.mark.parametrize("cls, args, field, bad, message", INVALID)
def test_no_public_path_builds_an_invalid_record(cls, args, field, bad, message):
    good = cls(*args)
    values = dict(zip(cls._fields, args))
    values[field] = bad
    builds = [
        lambda: cls(*values.values()),
        lambda: cls(**values),
        lambda: cls._make(values.values()),
        lambda: good._replace(**{field: bad}),
    ]
    for build in builds:
        with pytest.raises(ValueError, match=message):
            build()
    assert cls._make(good) == good._replace() == cls(**dict(zip(cls._fields, args))) == good


def _records():
    spec = GapPrimeSpec(1, FAMILY_M004, (5, 11))
    word = CyclicWord("01101")
    form = IntQuadForm(1, 0, 12)
    return [
        form,
        Representation(7, 1),
        primitive_value_set(form, 50),
        builtin_record("m004"),
        word,
        decompose(word),
        cusp_graph(word),
        census_report(5),
        builtin_series("m125"),
        certify_unique_volume(builtin_record("m004"), 1, 1),
        primeseq._FAMILIES[FAMILY_M125],
        spec,
        verify_witness(241, spec),
        gap_prime_sequence(spec, 2),
    ]


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_copies_and_pickles_are_equal_records_of_the_same_type(record):
    assert isinstance(record, tuple) and len(record._fields) == len(record)
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert twin == record
        assert type(twin) is type(record)


def test_records_unpack_index_and_equal_plain_tuples():
    a, b, c = IntQuadForm(1, 0, 12)
    assert (a, b, c) == (1, 0, 12) == IntQuadForm(1, 0, 12)
    assert Representation(7, 1)[0] == 7
    with pytest.raises(AttributeError):
        IntQuadForm(1, 0, 12).a = 2


def test_the_spec_repr_leaves_out_the_progression():
    spec = GapPrimeSpec(1, FAMILY_M004, (5, 11))
    assert repr(spec) == "GapPrimeSpec(g=1, family='m004-family', avoid_primes=(5, 11))"
    wide = GapPrimeSpec(500, FAMILY_M004, default_avoid_primes(FAMILY_M004, 500))
    residue, modulus = progression(wide)
    assert len(str(modulus)) > 3000
    assert repr(wide) == (
        f"GapPrimeSpec(g=500, family='m004-family', avoid_primes={wide.avoid_primes!r})"
    )
