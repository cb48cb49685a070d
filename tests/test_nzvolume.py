"""Truncated volume changes, series coefficients, and certificates."""

from __future__ import annotations

import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from volrigid.cusplattice import builtin_record
from volrigid.quadform import two_sided_gap
from volrigid.nzvolume import (
    DEFAULT_C2,
    REGIME_Q_MIN,
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
    wl_log_holonomy,
    wl_taylor_coefficients,
)

CATALAN = 0.915965594177219015054603514932384110774


def test_every_series_has_an_explicit_route():
    # nz eval offers --route explicit for every --series choice
    for name in series_names():
        assert math.isfinite(delta_v_explicit(name, 1, 0)), name
    with pytest.raises(ValueError, match="known: WL, m003, m004, m125, m129"):
        delta_v_explicit("m000", 1, 0)


def test_series_table():
    assert series_names() == ("WL", "m003", "m004", "m125", "m129")
    m004 = builtin_series("m004")
    assert m004.c1 == pytest.approx(complex(0, 2 * math.sqrt(3)))
    assert m004.c3 == pytest.approx(complex(0, 2 * math.sqrt(3) / 3))
    m125 = builtin_series("m125")
    assert m125.c1 == 1j
    assert m125.c3 == complex(-3, 1) / 48
    assert builtin_series("WL").c1 == complex(-2, 2)


def test_delta_v_generic_pinned():
    # 2 pi^2 / |z|^2 * |Im c1| ... frozen reference evaluations
    assert delta_v_generic(builtin_series("m004"), 5, 1) == pytest.approx(
        1.047787017547291, rel=1e-13
    )
    assert delta_v_generic(builtin_series("m125"), 1, 0) == pytest.approx(
        math.pi**2 - math.pi**4 / 24, rel=1e-13
    )
    assert delta_v_generic(builtin_series("WL"), 1, 0) == pytest.approx(
        2 * math.pi**2 - math.pi**4 / 3, rel=1e-13
    )


def test_three_routes_agree():
    rng = random.Random(6)
    for _ in range(400):
        a = rng.uniform(-40, 40)
        b = rng.uniform(-40, 40)
        if abs(a) + abs(b) < 1e-2:
            continue
        for name in series_names():
            g = delta_v_generic(builtin_series(name), a, b)
            e = delta_v_explicit(name, a, b)
            p = delta_v_polar(name, a, b)
            scale = max(abs(g), 1.0)
            assert abs(g - e) <= 1e-10 * scale, (name, a, b)
            assert abs(g - p) <= 1e-10 * scale, (name, a, b)


def _routes(name: str):
    return (
        lambda a, b: delta_v_generic(builtin_series(name), a, b),
        lambda a, b: delta_v_explicit(name, a, b),
        lambda a, b: delta_v_polar(name, a, b),
    )


@pytest.mark.parametrize("name", series_names())
def test_routes_refuse_the_edges_of_the_float_range_alike(name):
    for route in _routes(name):
        with pytest.raises(ValueError, match=r"\(0, 0\) has no meaning"):
            route(0.0, 0.0)
        for a, b in ((1e-200, 0.0), (0.0, -1e-200), (1e-100, 1e-100)):
            with pytest.raises(ArithmeticError, match="underflows: a power of"):
                route(a, b)
        for a, b in ((1e200, 1.0), (1.0, -1e200), (1e100, 1e100)):
            with pytest.raises(ArithmeticError, match="overflows a float"):
                route(a, b)


@pytest.mark.parametrize("name", series_names())
def test_routes_agree_far_out(name):
    # |z|**8 overflows a float here, but the truncation does not
    values = [route(1e40, 1.0) for route in _routes(name)]
    for value in values[1:]:
        assert value == pytest.approx(values[0], rel=1e-12), name


def test_substitution_identities():
    rng = random.Random(9)
    for _ in range(300):
        a = rng.uniform(-30, 30)
        b = 2 * rng.randrange(-15, 16)  # keep b/2 exact
        if abs(a) + abs(b) < 1e-2:
            continue
        m003 = delta_v_explicit("m003", a, b)
        m004 = delta_v_explicit("m004", 2 * a + b, b / 2)
        assert m003 == pytest.approx(m004, rel=1e-12, abs=1e-15)
        m129 = delta_v_explicit("m129", a, b)
        wl = delta_v_explicit("WL", a + 2 * b, -b)
        assert m129 == pytest.approx(wl, rel=1e-12, abs=1e-15)


def test_meyerhoff_scale_cross_check():
    drop = V_FIG8 - delta_v_generic(builtin_series("m004"), 5, 1)
    assert abs(drop - 0.9821) < 5e-4
    # the truncated series lands within ~7e-4 of the closed value
    assert abs(drop - 0.981368) < 8e-4


def test_m125_asymmetry_exact_integer_identity():
    # P(a,b) - P(b,a) = -24 a b (a^2 - b^2) for the quartic numerator
    # polynomial of the truncation term, checked in exact arithmetic:
    # 48 * Im[c3 * conj(z)^4] / |z|^8 has numerator Im[(-3+i)(a+ib)^4]
    def quartic(a: int, b: int) -> int:
        w_re = a**4 - 6 * a**2 * b**2 + b**4
        w_im = 4 * a**3 * b - 4 * a * b**3
        return w_re - 3 * w_im

    for a in range(1, 60):
        for b in range(1, 60):
            lhs = quartic(a, b) - quartic(b, a)
            assert lhs == -24 * a * b * (a**2 - b**2), (a, b)


def test_m125_asymmetry_positive_and_matches_closed_form():
    for a in range(2, 80):
        for b in range(1, a):
            asym = m125_asymmetry(a, b)
            closed = (
                math.pi**4 * a * b * (a**2 - b**2) / (a**2 + b**2) ** 4
            )
            assert asym > 0, (a, b)
            s = float(a * a + b * b)
            cancel_guard = 1e-12 * max(abs(asym), 100 * math.pi**2 / s)
            assert abs(asym - closed) <= cancel_guard, (a, b)


def test_m125_asymmetry_equals_difference_of_routes():
    for a, b in [(2, 1), (3, 2), (10, 7), (68, 67)]:
        direct = delta_v_explicit("m125", a, b) - delta_v_explicit("m125", b, a)
        asym = m125_asymmetry(a, b)
        s = float(a * a + b * b)
        assert abs(direct - asym) <= 1e-12 * max(abs(asym), 100 * math.pi**2 / s)


def test_m125_asymmetry_pinned_value():
    assert m125_asymmetry(2, 1) == pytest.approx(6 * math.pi**4 / 625, rel=1e-13)


def test_lower_bound_lemma_exact():
    # (4ab(a^2-b^2))^2 >= (a^2+b^2)^3 for every integer pair a > b >= 1;
    # the tightest margin sits at (2,1): 576 vs 125
    failures = [
        (a, b)
        for a in range(2, 120)
        for b in range(1, a)
        if not lower_bound_holds(a, b)
    ]
    assert failures == []
    assert (4 * 2 * 1 * (4 - 1)) ** 2 == 576
    assert (4 + 1) ** 3 == 125
    for a, b in [(3, 1), (5, 4), (100, 99), (7, 2)]:
        assert (4 * a * b * (a * a - b * b)) ** 2 >= (a * a + b * b) ** 3


def test_wl_log_holonomy_branch():
    # at u = 0 the radicand is -4; the continuous branch gives -v = 0
    assert wl_log_holonomy(0j) == pytest.approx(0, abs=1e-12)
    # derivative along real u approximates c1 = -2+2i... sampled nearby
    h = 1e-6
    d = (wl_log_holonomy(h + 0j) - wl_log_holonomy(-h + 0j)) / (2 * h)
    assert d.real == pytest.approx(-2, abs=1e-6)
    assert d.imag == pytest.approx(2, abs=1e-6)


def test_wl_taylor_coefficients_match_series():
    coeffs = wl_taylor_coefficients()
    assert abs(coeffs[1] - complex(-2, 2)) < 1e-8
    assert abs(coeffs[3] - complex(0, 1) / 6) < 1e-8
    assert abs(coeffs[0]) < 1e-10
    assert abs(coeffs[2]) < 1e-8


def test_lobachevsky_closed_values():
    assert lobachevsky(math.pi / 2) == pytest.approx(0, abs=1e-15)
    assert lobachevsky(math.pi / 4) == pytest.approx(CATALAN / 2, rel=1e-14)
    assert 8 * lobachevsky(math.pi / 4) == pytest.approx(V_OCT, rel=1e-15)
    assert 6 * lobachevsky(math.pi / 3) == pytest.approx(V_FIG8, rel=1e-15)


def test_lobachevsky_symmetries():
    rng = random.Random(2)
    for _ in range(100):
        t = rng.uniform(-4, 4)
        assert lobachevsky(-t) == pytest.approx(-lobachevsky(t), abs=1e-14)
        assert lobachevsky(t + math.pi) == pytest.approx(lobachevsky(t), abs=1e-13)
        # duplication: L(2t) = 2L(t) + 2L(t + pi/2)
        lhs = lobachevsky(2 * t)
        rhs = 2 * lobachevsky(t) + 2 * lobachevsky(t + math.pi / 2)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def lobachevsky_direct(theta: float, terms: int) -> float:
    """Partial sum of the defining series; error at most 1/(2*terms)."""
    return 0.5 * sum(math.sin(2 * n * theta) / (n * n) for n in range(1, terms + 1))


def test_lobachevsky_against_direct_series():
    for t in (0.3, 0.7, 1.0, 1.3):
        accelerated = lobachevsky(t)
        direct = lobachevsky_direct(t, 200000)
        assert abs(accelerated - direct) < 1e-5 / 2000  # series tail bound


def test_certificate_m004_7_4():
    cert = certify_unique_volume(builtin_record("m004"), 7, 4)
    assert cert.n_q0 == 4
    assert cert.symmetry_order == 4
    assert cert.bound == Fraction(1)
    assert cert.q0_normalized == pytest.approx(241 / (2 * math.sqrt(3)), rel=1e-12)
    assert cert.gap_normalized == pytest.approx(4 / (2 * math.sqrt(3)), rel=1e-12)
    assert cert.regime_verified  # 69.57 >= 57.5041
    assert not cert.valid  # gap 1.1547 < 2 * 7.05


def test_certificate_m125_1_2():
    cert = certify_unique_volume(builtin_record("m125"), 1, 2)
    assert cert.n_q0 == 8
    assert cert.symmetry_order == 4
    assert cert.bound == Fraction(2)
    assert cert.gap_normalized == pytest.approx(3.0, rel=1e-12)
    assert not cert.regime_verified  # q0 = 5 below the regime threshold


def test_certificate_valid_is_decided_exactly():
    # m004 (9, 53): q = 33789, gap 17 (the nearest other primitive value
    # is 33772 = Q(8, 53)), scale = 2*sqrt(3).  c2 is the float nearest the
    # threshold gap/(2*scale) = 17/sqrt(48); it lies just below it, so the
    # certificate is valid, while the float comparison gap/scale > 2*c2
    # rounds the other way.
    record = builtin_record("m004")
    assert two_sided_gap(record.integer_form, 33789, 10**5) == 17
    with localcontext() as ctx:
        ctx.prec = 50
        c2 = float(Decimal(17) / Decimal(48).sqrt())
    assert Fraction(c2) ** 2 * 48 < 17**2
    cert = certify_unique_volume(record, 9, 53, c2=c2, scan_limit=10**5)
    assert cert.valid
    assert not cert.gap_normalized > 2 * c2
    above = math.nextafter(c2, math.inf)
    assert not certify_unique_volume(record, 9, 53, c2=above, scan_limit=10**5).valid


def test_certificate_arithmetic_properties_fuzzed():
    rng = random.Random(77)
    names = ("m003", "m004", "m125", "m129")
    checked = 0
    while checked < 1000:
        record = builtin_record(rng.choice(names))
        a = rng.randrange(-20, 21)
        b = rng.randrange(-20, 21)
        if math.gcd(a, b) != 1:
            continue
        c2 = rng.choice((DEFAULT_C2, 1.0, 3.0))
        cert = certify_unique_volume(record, a, b, c2=c2)
        assert cert.bound * cert.symmetry_order == cert.n_q0
        assert cert.valid == (cert.gap_normalized > 2 * c2)
        assert cert.regime_verified == (cert.q0_normalized >= REGIME_Q_MIN)
        # fillings fixed by part of the symmetry group give fractional
        # bounds (orbit smaller than the group), so only positivity holds
        assert cert.bound > 0
        checked += 1
