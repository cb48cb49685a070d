"""Truncated volume change under Dehn filling, to fourth order.

For a one-cusped (or chain-link) geometry with cusp shape tau, the
volume lost when filling along p + q*tau is, to the order kept here,

    delta_v = pi**2 * |Im c1| / |z|**2  -  2*pi**4 * Im(c3 / z**4),
    z = p + q*tau,  tau = -c1,

where c1 and c3 are the degree-1 and degree-3 coefficients of the
geometry's holonomy expansion.  Everything in this module evaluates that
truncation; the dropped tail is O(1/|z|**6), so values at small |z| are
series artifacts, not volumes.

Three independent evaluation routes are kept deliberately: the generic
complex-arithmetic form above, per-geometry explicit rational
polynomials, and a polar form in (r, theta).  They agree to roundoff
and cross-validate each other in the tests.

The module also carries the Lobachevsky function (for the closed-form
volumes used as anchors), a numeric re-derivation of the c1/c3
coefficients for the Whitehead-link geometry from its holonomy
logarithm, and certificates that a filled volume is isolated: a value
gap around the filling class in the cusp form's primitive value
spectrum, wide enough against a drift constant C2, pins the volume to a
bounded number of fillings.
"""

from __future__ import annotations

import cmath
import functools
import math
from fractions import Fraction
from typing import Iterable, NamedTuple

from .cusplattice import CuspRecord
from .quadform import _gap_and_count

__all__ = [
    "NZSeries",
    "UniquenessCertificate",
    "builtin_series",
    "series_names",
    "delta_v_generic",
    "delta_v_explicit",
    "delta_v_polar",
    "m125_asymmetry",
    "lower_bound_holds",
    "wl_log_holonomy",
    "wl_taylor_coefficients",
    "lobachevsky",
    "V_OCT",
    "V_FIG8",
    "DEFAULT_C2",
    "REGIME_Q_MIN",
    "certify_unique_volume",
]


class _Coefficients(NamedTuple):
    name: str
    c1: complex
    c3: complex


class NZSeries(_Coefficients):
    """Degree-1 and degree-3 holonomy coefficients of one geometry."""

    __slots__ = ()

    def __new__(cls, name: str, c1: complex, c3: complex) -> "NZSeries":
        if c1.imag == 0:
            raise ValueError("c1 must have nonzero imaginary part")
        return tuple.__new__(cls, (name, c1, c3))

    @classmethod
    def _make(cls, iterable: Iterable) -> "NZSeries":
        # namedtuple's own _make (which _replace calls) skips __new__
        return cls(*iterable)

    @property
    def tau(self) -> complex:
        return -self.c1


_ROOT3 = math.sqrt(3.0)

# c1 is -tau throughout.  m004, m125 and WL carry their published
# coefficients; m003 and m129 are rescalings of m004 and WL (halved and
# sheared lattices), and their c3 values below are the unique ones
# reproducing those rescalings; the tests pin this against the explicit
# polynomial route.
_SERIES = {
    "m004": NZSeries("m004", complex(0, 2 * _ROOT3), complex(0, 2 * _ROOT3 / 3)),
    "m003": NZSeries("m003", complex(-0.5, 0.5 * _ROOT3), complex(0, _ROOT3 / 24)),
    "m125": NZSeries("m125", 1j, complex(-3, 1) / 48),
    "WL": NZSeries("WL", complex(-2, 2), 1j / 6),
    "m129": NZSeries("m129", 2j, 1j / 6),
}


def series_names() -> tuple[str, ...]:
    return tuple(sorted(_SERIES))


def builtin_series(name: str) -> NZSeries:
    """Holonomy series of m003, m004, m125, m129 or WL."""
    try:
        return _SERIES[name]
    except KeyError:
        raise ValueError(
            f"unknown series {name!r}; known: {', '.join(series_names())}"
        ) from None


def _in_float_range(route):
    """Guard a delta_v route against the edges of the float range.

    (0, 0) has no meaning and is a ValueError.  Any other class has
    |z| > 0, but |z|**2 and the powers of it that a route divides by can
    round to 0 or to inf.  The route then divides by zero, overflows, or
    returns a value without meaning; all three raise ArithmeticError
    saying whether an underflow or an overflow happened, the same on
    every route.
    """
    @functools.wraps(route)
    def guarded(geometry, p: float, q: float) -> float:
        if p == 0 and q == 0:
            raise ValueError("filling class (0, 0) has no meaning")
        try:
            value = route(geometry, p, q)
        except ZeroDivisionError:
            happened = "underflows: a power of |z| rounds to 0"
        except OverflowError:
            happened = "overflows a float"
        else:
            if math.isfinite(value):
                return value
            happened = "overflows a float"
        raise ArithmeticError(
            f"the truncated volume change at a = {p:g}, b = {q:g} {happened}"
        )

    return guarded


@_in_float_range
def delta_v_generic(series: NZSeries, p: float, q: float) -> float:
    """Truncated volume change along p + q*tau, complex-arithmetic route."""
    z = p + q * series.tau
    zz = z.real * z.real + z.imag * z.imag
    w = series.c3 / z**4
    return math.pi**2 * abs(series.c1.imag) / zz - 2 * math.pi**4 * w.imag


# Each quartic term divides by s*s twice rather than by s**4: s**4 = |z|**8
# overflows once |z|**2 passes about 1.3e77, long before the value does.
def _explicit_m004(p: float, q: float) -> float:
    s = p * p + 12 * q * q
    quartic = p**4 - 72 * p * p * q * q + 144 * q**4
    return (2 * _ROOT3 * math.pi**2 / s
            - 4 * _ROOT3 * quartic * math.pi**4 / 3 / (s * s) / (s * s))


def _explicit_m003(a: float, b: float) -> float:
    s = a * a + a * b + b * b
    t = 2 * a + b
    quartic = t**4 - 18 * b * b * t * t + 9 * b**4
    return (_ROOT3 * math.pi**2 / (2 * s)
            - math.pi**4 * quartic / (64 * _ROOT3) / (s * s) / (s * s))


def _explicit_m125(p: float, q: float) -> float:
    s = p * p + q * q
    quartic = p**4 - 12 * p**3 * q - 6 * p * p * q * q + 12 * p * q**3 + q**4
    return math.pi**2 / s - math.pi**4 * quartic / 24 / (s * s) / (s * s)


def _explicit_wl(p: float, q: float) -> float:
    s = p * p + 4 * p * q + 8 * q * q
    quartic = (p * p - 8 * q * q) * (p * p + 8 * p * q + 8 * q * q)
    return 2 * math.pi**2 / s - math.pi**4 * quartic / 3 / (s * s) / (s * s)


def _explicit_m129(a: float, b: float) -> float:
    s = a * a + 4 * b * b
    quartic = a**4 - 24 * a * a * b * b + 16 * b**4
    return 2 * math.pi**2 / s - math.pi**4 * quartic / 3 / (s * s) / (s * s)


_EXPLICIT = {
    "m004": _explicit_m004,
    "m003": _explicit_m003,
    "m125": _explicit_m125,
    "WL": _explicit_wl,
    "m129": _explicit_m129,
}


@_in_float_range
def delta_v_explicit(name: str, a: float, b: float) -> float:
    """Truncated volume change, per-geometry polynomial route.

    Accepts real arguments so that lattice substitutions such as
    m003(a, b) = m004(2a + b, b/2) can be exercised directly.
    """
    try:
        fn = _EXPLICIT[name]
    except KeyError:
        raise ValueError(
            f"unknown geometry {name!r}; known: {', '.join(series_names())}"
        ) from None
    return fn(a, b)


@_in_float_range
def delta_v_polar(name: str, p: float, q: float) -> float:
    """Truncated volume change, polar route: z = r*e^(i*theta)."""
    series = builtin_series(name)
    z = p + q * series.tau
    r2 = z.real * z.real + z.imag * z.imag
    if r2 == math.inf:
        # both terms would divide to 0 instead of failing
        raise OverflowError
    theta = cmath.phase(z)
    if name == "m004":
        angular = 4 * math.cos(4 * theta) / _ROOT3
    elif name == "m003":
        angular = math.cos(4 * theta) / (4 * _ROOT3)
    else:
        w = series.c3 * cmath.exp(-4j * theta)
        angular = 2 * w.imag
    return math.pi**2 * abs(series.c1.imag) / r2 - math.pi**4 * angular / r2**2


def m125_asymmetry(a: float, b: float) -> float:
    """Exact difference m125(a, b) - m125(b, a) of the truncation.

    The quadratic terms cancel and the quartic terms leave
    pi**4 * a * b * (a**2 - b**2) / (a**2 + b**2)**4.
    """
    s = a * a + b * b
    if s == 0:
        raise ValueError("filling class (0, 0) has no meaning")
    return math.pi**4 * a * b * (a * a - b * b) / (s * s) / (s * s)


def lower_bound_holds(a: int, b: int) -> bool:
    """Exact integer check of a*b*(a**2 - b**2) >= (a**2 + b**2)**1.5 / 4.

    Requires a > b > 0.  Compared in squared form, so no floating point
    is involved.
    """
    if not a > b > 0:
        raise ValueError("need a > b > 0")
    lhs = 4 * a * b * (a * a - b * b)
    return lhs * lhs >= (a * a + b * b) ** 3


def wl_log_holonomy(u: complex) -> complex:
    """Logarithmic holonomy -v(u) of the Whitehead-link geometry.

    -v = -4*log((-i/2)*(sqrt(e^(2u) - 6*e^u + 1) + e^u - 1)) with the
    square root branch continuous at u = 0 (value 2i there).  The
    radicand sits near -4, squarely on the principal branch cut, so it
    is rewritten as 2i*sqrt(-w/4) with the inner root taken near 1.
    """
    eu = cmath.exp(u)
    w = cmath.exp(2 * u) - 6 * eu + 1
    root = 2j * cmath.sqrt(-w / 4)
    arg = (root + eu - 1) * (-0.5j)
    if arg.real <= 0:
        raise ArithmeticError(
            "log argument left the right half-plane: branch inconsistency"
        )
    return -4 * cmath.log(arg)


# The quadrature holds one complex per sample and its time is linear:
# 10**6 samples take about 4 s and 55 MB through the CLI (2-core x86-64,
# Python 3.11).  Larger counts are refused.
MIN_WL_SAMPLES = 20
MAX_WL_SAMPLES = 10**6
# Coefficient n is divided by radius**n, and so is rounding error: with 64
# samples c3 = i/6 is off by 3e-11 at this radius, 1e-8 at 1e-3, 38 at 1e-6.
MIN_WL_RADIUS = 1e-2


def wl_taylor_coefficients(radius: float = 0.1, samples: int = 64) -> list[complex]:
    """Taylor coefficients of degree 0..4 of the holonomy logarithm at u = 0.

    Cauchy integrals over |u| = radius, trapezoid rule with the given
    sample count; both defaults keep the quadrature error far below
    1e-10 because the integrand is analytic out to |u| ~ 1.76.
    """
    if samples < MIN_WL_SAMPLES:
        raise ValueError(f"need at least {MIN_WL_SAMPLES} samples for degrees 0..4")
    if not radius >= MIN_WL_RADIUS:  # nan too
        raise ValueError(f"the radius must be at least {MIN_WL_RADIUS}, got {radius}")
    if samples > MAX_WL_SAMPLES:
        raise ValueError(
            f"quadratures are refused above {MAX_WL_SAMPLES} samples, got {samples}"
        )
    vals = [
        wl_log_holonomy(radius * cmath.exp(2j * math.pi * j / samples))
        for j in range(samples)
    ]
    out = []
    for n in range(5):
        acc = sum(
            v * cmath.exp(-2j * math.pi * j * n / samples)
            for j, v in enumerate(vals)
        )
        out.append(acc / samples / radius**n)
    return out


def _zeta_even_table(count: int) -> list[float]:
    pi = math.pi
    table = [pi**2 / 6, pi**4 / 90, pi**6 / 945]
    for k in range(4, count + 1):
        s = 2 * k
        total, n = 1.0, 2
        while True:
            term = float(n) ** -s
            total += term
            if term < 1e-18:
                break
            n += 1
        table.append(total)
    return table


_ZETA_EVEN = _zeta_even_table(40)


def lobachevsky(theta: float) -> float:
    """Lobachevsky function: (1/2) * sum of sin(2*n*theta)/n**2.

    Evaluated through the log-sine integral it equals: after reducing by
    oddness and pi-periodicity to 0 <= t <= pi/2,

        t - t*log(2t) + sum_k zeta(2k) t^(2k+1) / (k*(2k+1)*pi^(2k)),

    which converges geometrically (ratio <= 1/4) and is accurate to
    about 1e-15; the tests check it against the defining series.
    """
    t = math.fmod(theta, math.pi)
    if t < 0:
        t += math.pi
    sign = 1.0
    if t > math.pi / 2:
        t = math.pi - t
        sign = -1.0
    if t == 0.0:
        return 0.0
    total = t - t * math.log(2.0 * t)
    x = (t / math.pi) ** 2
    power = 1.0
    for k, z in enumerate(_ZETA_EVEN, start=1):
        power *= x
        term = z * power * t / (k * (2 * k + 1))
        total += term
        if abs(term) < 1e-17:
            break
    return sign * total


# Volume of the regular ideal octahedron and of the regular-ideal-
# tetrahedron pair (the smallest cusped volume); computed, not quoted.
V_OCT = 8 * lobachevsky(math.pi / 4)
V_FIG8 = 6 * lobachevsky(math.pi / 3)

# Default drift constant for uniqueness certificates: a conservative
# bound on how far a true filled volume can sit from its truncated
# prediction, valid once the normalized filling value reaches
# REGIME_Q_MIN; below that the certificate is marked regime-unverified.
DEFAULT_C2 = 7.05
REGIME_Q_MIN = 57.5041
_REGIME_NUM, _REGIME_DEN = REGIME_Q_MIN.as_integer_ratio()


class UniquenessCertificate(NamedTuple):
    """A two-sided value gap pinning a filled volume.

    bound counts volume-sharing fillings: the n_q0 primitive
    representations of the filling value, divided by the order of the
    manifold's induced symmetry group.  The certificate is valid when
    the normalized gap exceeds 2*C2, and regime_verified records whether
    the normalized value is large enough for the default C2 to mean
    anything.
    """

    record_name: str
    filling: tuple[int, int]
    q0_normalized: float
    gap_normalized: float
    c2: float
    n_q0: int
    symmetry_order: int
    bound: Fraction
    valid: bool
    regime_verified: bool


def certify_unique_volume(
    record: CuspRecord,
    a0: int,
    b0: int,
    c2: float = DEFAULT_C2,
    scan_limit: int = 10**4,
) -> UniquenessCertificate:
    """Certificate that the filling (a0, b0) of a built-in cusp record
    has an isolated truncated volume.

    The two-sided gap around the filling value is found by scanning the
    integer carrier form outward from that value, up to scan_limit at
    most, so its cost depends on the value and the gap rather than on
    scan_limit.  The gap and the value are reported normalized by the
    record's scale.

    The two decisions are exact.  The record's scale is defined as
    sqrt(|D|)/2 for the carrier form's discriminant D, so gap/scale >
    2*c2 and q/scale >= REGIME_Q_MIN are decided as gap**2 > c2**2 * |D|
    and 4*q**2 >= REGIME_Q_MIN**2 * |D| on the exact rational values of
    the floats c2 and REGIME_Q_MIN: in integers, with c2 = n/d and
    REGIME_Q_MIN = r/s, as gap**2 * d**2 > n**2 * |D| and
    4*q**2 * s**2 >= r**2 * |D|.
    """
    if math.gcd(a0, b0) != 1:
        raise ValueError("filling class must be a coprime pair")
    if c2 <= 0:
        raise ValueError("C2 must be positive")
    q_int = record.integer_form.evaluate(a0, b0)
    if scan_limit <= q_int:
        raise ValueError("scan limit must exceed the filling value")
    gap_int, n_q0 = _gap_and_count(record.integer_form, q_int, scan_limit)
    order = len(record.symmetry_group)
    abs_d = -record.integer_form.discriminant()
    q0_normalized = q_int / record.scale
    gap_normalized = gap_int / record.scale
    c2_num, c2_den = c2.as_integer_ratio()
    return UniquenessCertificate(
        record_name=record.name,
        filling=(a0, b0),
        q0_normalized=q0_normalized,
        gap_normalized=gap_normalized,
        c2=c2,
        n_q0=n_q0,
        symmetry_order=order,
        bound=Fraction(n_q0, order),
        valid=(gap_int * c2_den) ** 2 > c2_num**2 * abs_d,
        regime_verified=(2 * q_int * _REGIME_DEN) ** 2 >= _REGIME_NUM**2 * abs_d,
    )
