"""Volume rigidity toolkit for cusped hyperbolic 3-manifolds.

The package mechanizes the arithmetic that pins down a manifold by its
Dehn filling volumes: gap analysis on the primitive values of cusp
quadratic forms, constructive prime sequences realizing prescribed
gaps, truncated volume-change asymptotics with uniqueness certificates,
and an exhaustive census of mutant fully augmented links sharing one
volume.  Everything is pure Python on top of the standard library; the
``volrigid`` command line fronts every module with deterministic JSON.
"""

from __future__ import annotations

from .arith import factorize, is_prime
from .census import (
    DEFAULT_EPSILON,
    ParseReport,
    VolumeCluster,
    VolumeRecord,
    cluster_volumes,
    clusters_as_dicts,
    parse_census,
)
from .cusplattice import CuspRecord, builtin_names, builtin_record
from .mutant import (
    CuspGraph,
    CyclicWord,
    MutantCensusReport,
    bracelet_count,
    canonical_form,
    census_report,
    cusp_graph,
    decompose,
    enumerate_classes,
    graphs_isomorphic,
    horoball_areas,
    knot_cusp_moduli,
)
from .nzvolume import (
    DEFAULT_C2,
    NZSeries,
    UniquenessCertificate,
    V_FIG8,
    V_OCT,
    builtin_series,
    certify_unique_volume,
    delta_v_explicit,
    delta_v_generic,
    delta_v_polar,
    lobachevsky,
    lower_bound_holds,
    m125_asymmetry,
    series_names,
)
from .primeseq import (
    DEFAULT_SEARCH_CAP,
    EmptyProgressionError,
    FAMILY_M004,
    FAMILY_M125,
    GapPrimeSearch,
    GapPrimeSpec,
    GapPrimeWitness,
    build_congruences,
    crt_solve,
    default_avoid_primes,
    gap_prime_sequence,
    verify_witness,
)
from .quadform import (
    IntQuadForm,
    Representation,
    ValueSet,
    primitive_representations,
    primitive_value_set,
    representations,
    two_sided_gap,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # arith
    "is_prime",
    "factorize",
    # quadform
    "IntQuadForm",
    "Representation",
    "ValueSet",
    "representations",
    "primitive_representations",
    "primitive_value_set",
    "two_sided_gap",
    # cusplattice
    "CuspRecord",
    "builtin_record",
    "builtin_names",
    # primeseq
    "FAMILY_M004",
    "FAMILY_M125",
    "DEFAULT_SEARCH_CAP",
    "EmptyProgressionError",
    "GapPrimeSpec",
    "GapPrimeWitness",
    "GapPrimeSearch",
    "crt_solve",
    "build_congruences",
    "default_avoid_primes",
    "verify_witness",
    "gap_prime_sequence",
    # nzvolume
    "NZSeries",
    "builtin_series",
    "series_names",
    "delta_v_generic",
    "delta_v_explicit",
    "delta_v_polar",
    "m125_asymmetry",
    "lower_bound_holds",
    "lobachevsky",
    "V_OCT",
    "V_FIG8",
    "DEFAULT_C2",
    "UniquenessCertificate",
    "certify_unique_volume",
    # mutant
    "CyclicWord",
    "CuspGraph",
    "MutantCensusReport",
    "decompose",
    "knot_cusp_moduli",
    "cusp_graph",
    "graphs_isomorphic",
    "canonical_form",
    "enumerate_classes",
    "bracelet_count",
    "horoball_areas",
    "census_report",
    # census
    "DEFAULT_EPSILON",
    "VolumeRecord",
    "VolumeCluster",
    "ParseReport",
    "parse_census",
    "cluster_volumes",
    "clusters_as_dicts",
]
