"""Oracles over cusp graphs, shared by the mutant tests and the acceptance
gate: the knotted-cusp moduli of a word and graph isomorphism."""

from __future__ import annotations

from volrigid.mutant import CuspGraph, CyclicWord, _dihedral_min, cusp_graph


def knot_cusp_moduli(word: CyclicWord) -> tuple[int, ...]:
    """Multiset (sorted) of knotted-cusp moduli: 4*(i_j + 1), or twice 2n."""
    return tuple(sorted(cusp_graph(word).cycle_labels))


def graphs_isomorphic(g1: CuspGraph, g2: CuspGraph) -> bool:
    """Isomorphism respecting the apex and the special marker.

    For ordinary graphs the label cycles must match up to rotation and
    reflection; the special triangles are determined by the apex alone.
    """
    if g1.special_triangle != g2.special_triangle:
        return False
    if g1.apex_label != g2.apex_label:
        return False
    if g1.special_triangle:
        return sorted(g1.cycle_labels) == sorted(g2.cycle_labels)
    if len(g1.cycle_labels) != len(g2.cycle_labels):
        return False
    return _dihedral_min(g1.cycle_labels) == _dihedral_min(g2.cycle_labels)
