"""Cusp cross-section lattices and their quadratic forms.

A cusp torus with shape parameter tau has the extremal-length form

    Qhat(a, b) = |a + b*tau|**2 / |Im(tau)|,

a real positive definite form of determinant 1.  For the cusps treated
here tau is imaginary quadratic, so Qhat is a real multiple of an
integral form: a built-in record stores that integral carrier form,
which every value computation uses, and derives the scale with
integer_form = scale * Qhat from it.  Qhat has discriminant -4, so
scale**2 = |D|/4 for the carrier form's discriminant D.

A record also holds the subgroup of form automorphisms induced by
symmetries of the underlying manifold, stored as explicit 2x2 matrices
acting on column vectors (a, b).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .quadform import IntQuadForm

__all__ = [
    "CuspRecord",
    "Mat",
    "is_automorphism",
    "builtin_record",
    "builtin_names",
]

Mat = tuple[tuple[int, int], tuple[int, int]]


def is_automorphism(form: IntQuadForm, mat: Mat) -> bool:
    """Does the matrix preserve the form and have determinant +-1?"""
    (p, q), (r, s) = mat
    if abs(p * s - q * r) != 1:
        return False
    a, b, c = form.a, form.b, form.c
    return (
        a * p * p + b * p * r + c * r * r == a
        and 2 * a * p * q + b * (p * s + q * r) + 2 * c * r * s == b
        and a * q * q + b * q * s + c * s * s == c
    )


@dataclass(frozen=True)
class CuspRecord:
    """A named cusp with its carrier form and symmetry data."""

    name: str
    integer_form: IntQuadForm
    symmetry_group: tuple[Mat, ...]

    def __post_init__(self) -> None:
        mats = set(self.symmetry_group)
        if len(mats) != len(self.symmetry_group):
            raise ValueError("symmetry group lists a matrix twice")
        if ((-1, 0), (0, -1)) not in mats:
            raise ValueError("symmetry group must contain -identity")
        for mat in self.symmetry_group:
            if not is_automorphism(self.integer_form, mat):
                raise ValueError(f"{mat} does not preserve {self.integer_form}")

    @property
    def scale(self) -> float:
        """The factor with integer_form = scale * Qhat: sqrt(|D|)/2."""
        return math.sqrt(-self.integer_form.discriminant()) / 2


_I: Mat = ((1, 0), (0, 1))


def _signed(mat: Mat) -> tuple[Mat, Mat]:
    (p, q), (r, s) = mat
    return mat, ((-p, -q), (-r, -s))


def _make_builtins() -> dict[str, CuspRecord]:
    records = {}
    # Figure-eight knot complement: tau = -2*sqrt(3)*i, square lattice
    # stretched by 2*sqrt(3); (a, b) -> (a, -b) comes from the manifold's
    # orientation-preserving symmetries.
    records["m004"] = CuspRecord(
        name="m004",
        integer_form=IntQuadForm(1, 0, 12),
        symmetry_group=(*_signed(_I), *_signed(((1, 0), (0, -1)))),
    )
    # Figure-eight sister: hexagonal lattice, tau = (1 - sqrt(3)*i)/2.
    # The carrier form is 4*(a**2 + a*b + b**2), whose automorphism group
    # is the full dihedral group of the hexagonal lattice (order 12); the
    # manifold only induces the order-4 subgroup below.
    records["m003"] = CuspRecord(
        name="m003",
        integer_form=IntQuadForm(4, 4, 4),
        symmetry_group=(*_signed(_I), *_signed(((1, 1), (0, -1)))),
    )
    # Two-bridge chain link cusp: square lattice, tau = -i;
    # the quarter turn (a, b) -> (-b, a) is induced, the reflections are
    # not, so the induced group is cyclic of order 4 inside D4.
    records["m125"] = CuspRecord(
        name="m125",
        integer_form=IntQuadForm(2, 0, 2),
        symmetry_group=(*_signed(_I), *_signed(((0, -1), (1, 0)))),
    )
    # One cusp of m129 (Whitehead link geometry): tau = -2i; only the
    # central symmetry survives.
    records["m129"] = CuspRecord(
        name="m129",
        integer_form=IntQuadForm(1, 0, 4),
        symmetry_group=_signed(_I),
    )
    return records


_BUILTINS = _make_builtins()


def builtin_names() -> tuple[str, ...]:
    return tuple(sorted(_BUILTINS))


def builtin_record(name: str) -> CuspRecord:
    """One of the bundled cusp records: m003, m004, m125 or m129."""
    try:
        return _BUILTINS[name]
    except KeyError:
        raise ValueError(
            f"unknown cusp record {name!r}; known: {', '.join(builtin_names())}"
        ) from None
