"""Exact field arithmetic: algebra, ordering, floor, parsing."""

import copy
import math
import pickle
import random
from fractions import Fraction
from functools import cmp_to_key

import pytest

from cubewords import exactnum
from cubewords.exactnum import (
    PHI,
    PHI_SQRT2,
    SQRT2,
    FieldNumber,
    _dyadic,
    _sorted_merged,
    basis_approx,
    common_denominator,
    reduce_mod1,
    sign,
)

PHI_FLOAT = (1 + math.sqrt(5)) / 2


def random_field_number(rng, span=30, max_denominator=12):
    coeffs = [
        Fraction(rng.randint(-span, span), rng.randint(1, max_denominator))
        for _ in range(4)
    ]
    return FieldNumber(*coeffs)


# e_i * e_j over the basis (1, phi, sqrt2, phi*sqrt2), for 1 <= i <= j
_BASIS_PRODUCTS = {
    (1, 1): (1, 1, 0, 0),  # phi**2 = 1 + phi
    (1, 2): (0, 0, 0, 1),
    (1, 3): (0, 0, 1, 1),  # phi**2*sqrt2 = sqrt2 + phi*sqrt2
    (2, 2): (2, 0, 0, 0),
    (2, 3): (0, 2, 0, 0),
    (3, 3): (2, 2, 0, 0),
}


def reference_mul(x, y):
    """Product of two Fraction 4-vectors through the multiplication table."""
    out = [Fraction(0)] * 4
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            if i == 0 or j == 0:
                out[i + j] += a * b
                continue
            for k, c in enumerate(_BASIS_PRODUCTS[min(i, j), max(i, j)]):
                out[k] += a * b * c
    return tuple(out)


def reference_inverse(x):
    """1/x as the product of the three Galois conjugates over the norm."""
    c0, c1, c2, c3 = x
    flip_phi = (c0 + c1, -c1, c2 + c3, -c3)  # phi -> 1 - phi
    flip_root = (c0, c1, -c2, -c3)  # sqrt2 -> -sqrt2
    flip_both = (c0 + c1, -c1, -c2 - c3, c3)
    others = reference_mul(reference_mul(flip_phi, flip_root), flip_both)
    norm = reference_mul(x, others)[0]
    return tuple(c / norm for c in others)


def test_defining_relations():
    assert PHI * PHI == PHI + 1
    assert SQRT2 * SQRT2 == FieldNumber(2)
    assert PHI * SQRT2 == PHI_SQRT2
    assert PHI_SQRT2 * PHI_SQRT2 == 2 * PHI + 2
    assert SQRT2 * PHI_SQRT2 == 2 * PHI


def test_known_inverses():
    assert FieldNumber(1) / PHI == PHI - 1
    assert FieldNumber(1) / (PHI * PHI) == 2 - PHI
    assert FieldNumber(1) / SQRT2 == SQRT2 / 2
    assert PHI_SQRT2 * PHI_SQRT2.inverse() == FieldNumber(1)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        FieldNumber(1) / FieldNumber(0)


def test_sign_frozen_cases():
    # 2*phi - 3 = 0.2360..., 5 - 3*phi = 0.1458..., their difference is negative
    assert sign(2 * PHI - 3) == 1
    assert sign((5 - 3 * PHI) - (2 * PHI - 3)) == -1
    assert sign(FieldNumber(0)) == 0
    assert sign(SQRT2 - PHI) == -1
    assert sign(PHI_SQRT2 - 2) == 1
    # 140/99 and 99/70 are convergents of sqrt2, one on each side
    assert sign(SQRT2 - Fraction(140, 99)) == 1
    assert sign(SQRT2 - Fraction(99, 70)) == -1


def test_floor_and_mod1_frozen_cases():
    assert (2 * PHI).floor() == 3
    assert (-(2 - PHI)).floor() == -1
    assert reduce_mod1(-(2 - PHI)) == PHI - 1
    assert reduce_mod1(FieldNumber(Fraction(7, 2))) == Fraction(1, 2)
    assert reduce_mod1(2 / PHI) == 2 * PHI - 3
    assert reduce_mod1(2 * (PHI - 1)) == 2 * PHI - 3
    assert reduce_mod1(FieldNumber(5)) == FieldNumber(0)


@pytest.mark.parametrize("bad", [0.5, "1/2"])
def test_non_rational_coordinates_are_a_type_error(bad):
    for coords in ((bad,), (0, bad), (1, 0, 0, bad)):
        with pytest.raises(TypeError, match="int or Fraction, not " + type(bad).__name__):
            FieldNumber(*coords)


def test_total_order_frozen_chain():
    chain = [
        FieldNumber(0),
        5 - 3 * PHI,
        2 * PHI - 3,
        SQRT2 - 1,
        FieldNumber(Fraction(1, 2)),
        PHI - 1,
        4 - 2 * PHI,
        FieldNumber(1),
    ]
    for lo, hi in zip(chain, chain[1:]):
        assert lo < hi
        assert hi > lo
        assert lo <= hi


def test_parse_round_trip_examples():
    cases = {
        "1/2": FieldNumber(Fraction(1, 2)),
        "2-1*phi": 2 - PHI,
        "-3+2*phi": 2 * PHI - 3,
        "phi": PHI,
        "-1+1*sqrt2": SQRT2 - 1,
        "1/3*phi*sqrt2": PHI_SQRT2 / 3,
        " 1/2 + 1/2*phi ": FieldNumber(Fraction(1, 2), Fraction(1, 2)),
        "0": FieldNumber(0),
    }
    for text, value in cases.items():
        assert FieldNumber.parse(text) == value


def test_canonical_emission():
    assert str(2 - PHI) == "2-1*phi"
    assert str(2 * PHI - 3) == "-3+2*phi"
    assert str(FieldNumber(0)) == "0"
    assert str(FieldNumber(Fraction(1, 2))) == "1/2"
    assert str(SQRT2 - 1) == "-1+1*sqrt2"
    assert str(PHI_SQRT2 / 2) == "1/2*phi*sqrt2"


def test_parse_rejects_malformed():
    for text in ["", "1..2", "2**phi", "phi sqrt2", "1/0", "++1", "x"]:
        with pytest.raises(ValueError):
            FieldNumber.parse(text)


def test_emission_parses_back():
    rng = random.Random(20240817)
    for _ in range(300):
        x = random_field_number(rng)
        assert FieldNumber.parse(str(x)) == x


def test_decimal_rendering():
    assert PHI.decimal(20) == "1.61803398874989484820"
    assert SQRT2.decimal(20) == "1.41421356237309504880"
    assert FieldNumber(Fraction(1, 2)).decimal(4) == "0.5000"
    assert (-(2 - PHI)).decimal(4) == "-0.3820"


def test_decimal_at_zero_places():
    assert FieldNumber(Fraction(3, 2)).decimal(0) == "2"
    assert FieldNumber(Fraction(-7, 3)).decimal(0) == "-2"
    assert FieldNumber(Fraction(-1, 3)).decimal(0) == "0"
    assert PHI.decimal(0) == "2"
    assert (-SQRT2).decimal(0) == "-1"
    with pytest.raises(ValueError):
        PHI.decimal(-1)


def test_tags():
    assert FieldNumber(Fraction(1, 2)).tag == "rational"
    assert (2 - PHI).tag == "golden"
    assert (SQRT2 - 1).tag == "quartic"
    assert PHI_SQRT2.tag == "quartic"


def test_field_axioms_random():
    rng = random.Random(97)
    scalars = random.Random(98)
    for _ in range(200):
        x = random_field_number(rng)
        y = random_field_number(rng)
        z = random_field_number(rng)
        for k in (
            scalars.randrange(-50, 51),
            Fraction(scalars.randrange(-50, 51), scalars.randrange(1, 30)),
        ):
            assert x * k == k * x == x * FieldNumber(k)
        assert (x + y) * z == x * z + y * z
        assert x * (y * z) == (x * y) * z
        assert x + y == y + x
        assert x - x == FieldNumber(0)
        if not y.is_zero:
            assert (x / y) * y == x
            assert y * y.inverse() == FieldNumber(1)


def test_arithmetic_matches_fraction_reference():
    rng = random.Random(4099)
    values = [random_field_number(rng) for _ in range(150)]
    values += [
        FieldNumber(Fraction(rng.randint(-40, 40), rng.randint(1, 15))) for _ in range(30)
    ]
    # the integer norm of phi + sqrt2 over Q(phi) is -1
    values += [PHI + SQRT2, -PHI - SQRT2, PHI, SQRT2 - 1]
    rng.shuffle(values)
    for x, y in zip(values, values[1:] + values[:1]):
        assert (x + y).coeffs == tuple(a + b for a, b in zip(x.coeffs, y.coeffs))
        assert (x - y).coeffs == tuple(a - b for a, b in zip(x.coeffs, y.coeffs))
        assert (-x).coeffs == tuple(-a for a in x.coeffs)
        assert (x * y).coeffs == reference_mul(x.coeffs, y.coeffs)
        if not x.is_zero:
            assert x.inverse().coeffs == reference_inverse(x.coeffs)


def test_canonical_form():
    assert (PHI / 3) * 3 == PHI
    assert hash((PHI / 3) * 3) == hash(PHI)
    one = (SQRT2 - 1) * (SQRT2 + 1)
    assert one == 1 and hash(one) == hash(1)
    assert FieldNumber(Fraction(2, 4)) == FieldNumber(Fraction(1, 2))
    rng = random.Random(733)
    for _ in range(100):
        x = random_field_number(rng) * random_field_number(rng)
        assert all(isinstance(c, Fraction) for c in x.coeffs)
        assert all(math.gcd(c.numerator, c.denominator) == 1 for c in x.coeffs)
        # stored over the least common denominator of its coordinates
        assert common_denominator([x]) == math.lcm(*(c.denominator for c in x.coeffs))
    assert (PHI / 6).scaled_coeffs(12) == (0, 2, 0, 0)
    with pytest.raises(ValueError):
        (PHI / 6).scaled_coeffs(4)


def test_nonzero_vectors_have_nonzero_sign():
    rng = random.Random(1291)
    for _ in range(2000):
        x = random_field_number(rng, span=10**6, max_denominator=999)
        if x.is_zero:
            continue
        s = x.sign()
        assert s != 0
        assert s == (1 if float(x) > 0 else -1) or abs(float(x)) < 1e-9


def test_order_consistent_with_floats_random():
    rng = random.Random(31415)
    for _ in range(400):
        x = random_field_number(rng)
        y = random_field_number(rng)
        if abs(float(x) - float(y)) < 1e-9:
            continue
        assert (x < y) == (float(x) < float(y))


def test_floor_matches_value_random():
    rng = random.Random(2718)
    for _ in range(400):
        x = random_field_number(rng, span=500)
        f = x.floor()
        assert FieldNumber(f) <= x < FieldNumber(f + 1)
        r = reduce_mod1(x)
        assert FieldNumber(0) <= r < FieldNumber(1)
        assert r + f == x


def test_basis_approx_tightness():
    # Anchor at low precision where floats resolve the tolerance ...
    e0, e1, e2, e3 = basis_approx(16)
    scale = 1 << 16
    assert e0 == scale
    assert abs(e1 / scale - PHI_FLOAT) < 4 / scale
    assert abs(e2 / scale - math.sqrt(2)) < 4 / scale
    assert abs(e3 / scale - PHI_FLOAT * math.sqrt(2)) < 4 / scale
    # ... then check each doubling is consistent with the previous level.
    for precision in (16, 64, 128):
        low = basis_approx(precision)
        high = basis_approx(precision + 32)
        for a, b in zip(low, high):
            assert abs(a - (b >> 32)) <= 2


def test_common_denominator():
    values = [FieldNumber(Fraction(1, 6)), PHI / 4, SQRT2 / 10]
    denom = common_denominator(values)
    assert denom == 60
    for v in values:
        ints = v.scaled_coeffs(denom)
        assert all(isinstance(a, int) for a in ints)


def test_hash_consistency():
    assert hash(FieldNumber(Fraction(1, 2))) == hash(FieldNumber(Fraction(1, 2)))
    seen = {2 - PHI, PHI - 1, 2 - PHI}
    assert len(seen) == 2
    # equal values hash alike across types
    assert 1 in {FieldNumber(1)}
    assert FieldNumber(1) in {1}
    assert Fraction(1, 2) in {FieldNumber(Fraction(1, 2))}
    assert FieldNumber(Fraction(1, 2)) in {Fraction(1, 2)}


def test_rational_operands_match_field_numbers():
    # int and Fraction operands act exactly as the field numbers they equal.
    rng = random.Random(6043)
    values = [random_field_number(rng) for _ in range(12)]
    values += [FieldNumber(Fraction(-5, 3)), FieldNumber(0), FieldNumber(2), PHI - 1]
    rationals = [0, 1, -2, 7, True, Fraction(1, 2), Fraction(-6, 4), Fraction(10, 5)]
    for q in rationals:
        f = FieldNumber(q)
        assert (f._num, f._den) == (FieldNumber._coerce(q)._num, FieldNumber._coerce(q)._den)
        assert hash(f) == hash(q) and f == q and q == f
        for x in values:
            assert (x == q) == (x == f) and (q == x) == (f == x)
            assert (x < q) == (x < f) and (q < x) == (f < x)
            assert (x <= q) == (x <= f) and (x > q) == (x > f)
            results = [x + q, q + x, x - q, q - x, x * q, q * x]
            expected = [x + f, f + x, x - f, f - x, x * f, f * x]
            if q:
                results.append(x / q)
                expected.append(x / f)
            if x:
                results.append(q / x)
                expected.append(f / x)
            for got, want in zip(results, expected):
                assert (got._num, got._den) == (want._num, want._den)
                assert hash(got) == hash(want)


def test_immutability():
    with pytest.raises(AttributeError):
        PHI._num = (5, 0, 0, 0)


def field_sorted_merged(points):
    """_sorted_merged by FieldNumber sorting: (value, sorted tags) per value."""
    groups = {}
    for vector, tag in points:
        groups.setdefault(FieldNumber(*vector), []).append(tag)
    return [(value, sorted(tags)) for value, tags in sorted(groups.items())]


def as_values(merged):
    return [(FieldNumber(*vector), sorted(tags)) for vector, tags in merged]


def dyadic_rows(points):
    """(vector, tag) points as the (estimate, bound, vector, tag) rows _sorted_merged takes."""
    return [(*_dyadic(vector), vector, tag) for vector, tag in points]


# F(48) - F(47)*phi: about -1.7e-10 below zero, yet its 64-bit dyadic
# estimate reads +50920843, since 2971215073 times phi's rounding error
# outweighs the value itself; the negation is misestimated the other way.
NEAR_ZERO = (4807526976, -2971215073, 0, 0)


def test_less_than_matches_sign_of_difference():
    rng = random.Random(5821)
    values = [
        random_field_number(rng, span=10**4, max_denominator=rng.choice((1, 12, 997)))
        for _ in range(60)
    ]
    values += [FieldNumber(Fraction(rng.randint(-40, 40), rng.randint(1, 30))) for _ in range(30)]
    near = FieldNumber(*NEAR_ZERO)
    values += [near, -near, near / 3, -near / 7, near + Fraction(1, 5), FieldNumber(Fraction(1, 5))]
    others = values + [0, 1, Fraction(-3, 7), Fraction(1, 5)]
    for a in values:
        for b in others:
            difference = (a - b).sign()
            assert (a < b) == (difference < 0), (a, b)
            assert (a > b) == (difference > 0), (a, b)
            assert (a <= b) == (difference <= 0), (a, b)


def test_sorted_merged_matches_field_order_random():
    rng = random.Random(4471)
    for _ in range(60):
        size = rng.randint(1, 12)
        pool = [tuple(rng.randint(-40, 40) for _ in range(4)) for _ in range(size)]
        points = [(rng.choice(pool), tag) for tag in range(rng.randint(1, 30))]
        assert as_values(_sorted_merged(dyadic_rows(points))) == field_sorted_merged(points)


def test_sorted_merged_certifies_separated_pairs_by_estimates(monkeypatch):
    # distinct values here lie far more than their bounds apart, and the
    # equal neighbours, which merge, have equal vectors, so no pair calls
    # _int_sign
    calls = []
    real = exactnum._int_sign
    monkeypatch.setattr(exactnum, "_int_sign", lambda vector: calls.append(vector) or real(vector))
    rng = random.Random(1818)
    pool = [tuple(rng.randint(-40, 40) for _ in range(4)) for _ in range(60)]
    points = [(rng.choice(pool), tag) for tag in range(200)]
    merged = _sorted_merged(dyadic_rows(points))
    assert len(merged) < len(points)
    assert calls == []
    assert as_values(merged) == field_sorted_merged(points)


def test_sorted_merged_exact_duplicates():
    points = [((3, 1, 0, 0), "a"), ((0, 0, 1, 0), "b"), ((3, 1, 0, 0), "c"), ((0, 0, 1, 0), "d")]
    assert _sorted_merged(dyadic_rows(points)) == [
        ((0, 0, 1, 0), ["b", "d"]),
        ((3, 1, 0, 0), ["a", "c"]),
    ]


def test_sorted_merged_near_ties_fall_back(monkeypatch):
    e0, e1, e2, e3 = basis_approx(64)
    below = NEAR_ZERO
    above = tuple(-a for a in NEAR_ZERO)
    assert FieldNumber(*below) < 0 < FieldNumber(*above)
    # the estimates order the three points exactly backwards
    assert below[0] * e0 + below[1] * e1 > 0 > above[0] * e0 + above[1] * e1
    calls = []

    def counting(compare):
        calls.append(compare)
        return cmp_to_key(compare)

    monkeypatch.setattr(exactnum, "cmp_to_key", counting)
    points = [
        ((0, 0, 0, 0), "zero"),
        (above, "above"),
        (below, "below"),
        ((1, 0, 0, 0), "one"),
        (below, "below again"),
        ((-1, 0, 0, 0), "minus one"),
    ]
    merged = _sorted_merged(dyadic_rows(points))
    assert len(calls) == 1
    assert merged == [
        ((-1, 0, 0, 0), ["minus one"]),
        (below, ["below", "below again"]),
        ((0, 0, 0, 0), ["zero"]),
        (above, ["above"]),
        ((1, 0, 0, 0), ["one"]),
    ]


def test_sorted_merged_when_every_key_ties(bounded):
    # t*(e1, -e0, 0, 0) has the 64-bit key t*(e1*e0 - e0*e1) = 0 for every t,
    # so the exact comparator alone orders these distinct values
    e0, e1, _, _ = basis_approx(64)
    unit = (e1, -e0, 0, 0)
    rising = FieldNumber(*unit).sign()
    rng = random.Random(2208)
    ts = list(range(1, 2001))
    rng.shuffle(ts)
    points = [(tuple(t * a for a in unit), t) for t in ts]
    assert {v[0] * e0 + v[1] * e1 for v, _ in points} == {0}
    order = sorted(ts, key=lambda t: rising * t)
    merged = bounded(10, _sorted_merged, dyadic_rows(points))
    assert merged == [(tuple(t * a for a in unit), [t]) for t in order]
    doubled = [(vector, (t, copy)) for copy in (0, 1) for vector, t in points]
    rng.shuffle(doubled)
    merged = bounded(10, _sorted_merged, dyadic_rows(doubled))
    assert [vector for vector, _ in merged] == [tuple(t * a for a in unit) for t in order]
    copies = {}
    for _, tag in doubled:
        copies.setdefault(tag[0], []).append(tag)
    assert [tags for _, tags in merged] == [copies[t] for t in order]


def test_sorted_merged_takes_any_valid_bound():
    # |E - value * 2**p| < B still holds when B grows by w and E moves by
    # at most w, so such rows are as valid as _dyadic's and certify each
    # pair by the triangle inequality.  With the estimates kept, the
    # output is the same list; with them moved, the same values and tags.
    e0, e1, _, _ = basis_approx(64)
    near = [NEAR_ZERO, tuple(-a for a in NEAR_ZERO), (0, 0, 0, 0), (1, 0, 0, 0)]
    near += [(t * e1, -t * e0, 0, 0) for t in (1, 2, -3)]
    rng = random.Random(3571)
    for trial in range(120):
        pool = [tuple(rng.randint(-40, 40) for _ in range(4)) for _ in range(rng.randint(1, 10))]
        if trial % 2:
            pool += near
        points = [(rng.choice(pool), tag) for tag in range(rng.randint(1, 30))]
        rows = dyadic_rows(points)
        want = _sorted_merged(rows)
        assert as_values(want) == field_sorted_merged(points)
        widths = [rng.choice((0, 1, 7, 10**3, 10**12, 2**70)) for _ in rows]
        wider = [(e, b + w, v, tag) for (e, b, v, tag), w in zip(rows, widths)]
        assert _sorted_merged(wider) == want
        moved = [(e + rng.randint(-w, w), b + w, v, tag) for (e, b, v, tag), w in zip(rows, widths)]
        assert as_values(_sorted_merged(moved)) == as_values(want)


ORACLE_BITS = 2000


def oracle_bounds(value):
    """Integers lo, hi and a scale M with lo < value * M < hi and hi - lo = 6.

    Independent of basis_approx: with D the denominator,
    2*D*value = (2*a0 + a1) + a1*sqrt5 + (2*a2 + a3)*sqrt2 + a3*sqrt10,
    and each surd term is rounded down with math.isqrt at 2000 bits.
    """
    denom = common_denominator([value])
    a0, a1, a2, a3 = value.scaled_coeffs(denom)
    one = 1 << ORACLE_BITS
    total = (2 * a0 + a1) * one
    for t, n in ((a1, 5), (2 * a2 + a3, 2), (a3, 10)):
        root = math.isqrt(n * t * t * one * one)
        total += root if t >= 0 else -root - 1
    return total - 3, total + 3, 2 * denom * one


def oracle_floor(value, factor=1, offset=Fraction(0)):
    """floor(value * factor + offset), certified from the oracle bounds."""
    lo, hi, scale = oracle_bounds(value)
    low = math.floor(Fraction(lo * factor, scale) + offset)
    assert low == math.floor(Fraction(hi * factor, scale) + offset), "oracle too coarse"
    return low


def oracle_decimal(value, places):
    negative = oracle_floor(value, offset=Fraction(0)) < 0
    magnitude = -value if negative else value
    quotient = oracle_floor(magnitude, 10**places, Fraction(1, 2))
    digits = str(quotient).rjust(places + 1, "0")
    point = len(digits) - places
    text = f"{'-' if negative and quotient else ''}{digits[:point]}"
    return f"{text}.{digits[point:]}" if places else text


def golden_unit(k):
    """F(k+1) - F(k)*phi for the Fibonacci numbers F, about (-1/phi)**k."""
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return b - a * PHI


def long_coefficient_values():
    """40- and 80-digit values, random and nearly cancelling, and golden near-integers."""
    rng = random.Random(4080)
    values = []
    for digits in (40, 80):
        for _ in range(40):
            coeffs = [rng.randrange(-(10**digits), 10**digits) for _ in range(4)]
            values.append(FieldNumber(*coeffs) / rng.randrange(1, 10**6))
            unit = golden_unit(rng.randrange(150, 390))
            values.append(unit * rng.randrange(1, 10**6) + Fraction(rng.randrange(-99, 99), 7))
    for k in (120, 121, 140, 200, 201):
        values += [golden_unit(k), golden_unit(k) + Fraction(1, 2), -golden_unit(k)]
    values.append(FieldNumber(3 * 10**40 + 1, -(7 * 10**40) // 3))
    return values


def test_long_coefficients_match_the_isqrt_oracle(bounded):
    bounded(60, check_against_the_oracle, long_coefficient_values())


def check_against_the_oracle(values):
    for value in values:
        floor = value.floor()
        assert floor == oracle_floor(value), value
        assert reduce_mod1(value) == value - floor
        lo, hi, _ = oracle_bounds(value)
        assert value.sign() == (1 if lo > 0 else -1), value
        assert (value - floor).sign() == 1 and (floor + 1 - value).sign() == 1
        for places in (0, 1, 20, 45):
            assert value.decimal(places) == oracle_decimal(value, places), (value, places)


def test_dyadic_bound_encloses_the_oracle():
    rng = random.Random(6464)
    values = long_coefficient_values() + [random_field_number(rng, span=500) for _ in range(200)]
    for value in values:
        vector = value.scaled_coeffs(common_denominator([value]))
        lo, hi, _ = oracle_bounds(value)
        # lo < value * D * 2**2001 < hi, and E estimates value * D * 2**p
        for p in (64, 128):
            estimate, bound = _dyadic(vector, basis_approx(p))
            shift = ORACLE_BITS + 1 - p
            assert (estimate - bound) << shift <= lo and hi <= (estimate + bound) << shift, value
        assert _dyadic(vector) == _dyadic(vector, basis_approx(64))


def test_dyadic_estimate_of_an_integer_is_exact():
    # rotation_coding and the circle sweep read denom * 2**p off this estimate
    rng = random.Random(6363)
    precision = exactnum._PRECISION
    for d in [0, 1, 2, 97] + [rng.randrange(1, 10**30) for _ in range(200)]:
        assert _dyadic((d, 0, 0, 0)) == (d << precision, 2)
        assert _dyadic((-d, 0, 0, 0)) == (-d << precision, 2)
    assert basis_approx(precision) is basis_approx(precision)


ROUND_TRIPS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda value: pickle.loads(pickle.dumps(value)),
}


@pytest.mark.parametrize("route", ROUND_TRIPS)
def test_field_numbers_copy_and_pickle(route):
    rng = random.Random(6464)
    numbers = [FieldNumber(1), FieldNumber(0), FieldNumber(Fraction(-7, 3))]  # rational
    numbers += [PHI, 2 * PHI - 3, (3 - PHI) / 2]  # golden
    numbers += [SQRT2 - 1, PHI_SQRT2 / 5 - SQRT2 + Fraction(1, 9)]  # quartic
    numbers += [random_field_number(rng) for _ in range(40)]
    for number in numbers:
        copied = ROUND_TRIPS[route](number)
        assert type(copied) is FieldNumber
        assert copied == number and hash(copied) == hash(number)
        assert copied.coeffs == number.coeffs
        assert str(copied) == str(number)
    with pytest.raises(AttributeError, match="FieldNumber is immutable"):
        copy.copy(PHI)._num = (0, 0, 0, 0)


def test_dyadic_estimate_is_linear_and_bound_subadditive():
    rng = random.Random(6565)
    for _ in range(300):
        u = tuple(rng.randrange(-(10**12), 10**12) for _ in range(4))
        v = tuple(rng.randrange(-(10**12), 10**12) for _ in range(4))
        m = rng.randrange(-(10**6), 10**6)
        (eu, bu), (ev, bv) = _dyadic(u), _dyadic(v)
        e, b = _dyadic(tuple(x + m * y for x, y in zip(u, v)))
        assert e == eu + m * ev
        assert b <= bu + abs(m) * bv
        shifted = _dyadic((u[0] + m, u[1], u[2], u[3]))
        assert shifted == (eu + (m << 64), bu)


def test_golden_near_integers(bounded):
    for k in (120, 140, 200):
        half = golden_unit(k) + Fraction(1, 2)
        assert bounded(10, half.floor) == 0 and reduce_mod1(half) == half
        assert half.decimal(20) == "0.50000000000000000000"
    assert golden_unit(121).floor() == -1
    # within 10**-41 of a tie at 0 places, far inside the dyadic estimate's error
    assert (golden_unit(200) + Fraction(1, 2)).decimal(0) == "1"
    assert (golden_unit(201) + Fraction(1, 2)).decimal(0) == "0"
    assert (-(golden_unit(200) + Fraction(1, 2))).decimal(0) == "-1"
    assert FieldNumber(3 * 10**40 + 1, -(7 * 10**40) // 3).decimal(20) == (
        "-7754126404164213124773692801864889413473.95955146030004639260"
    )
    assert FieldNumber(3 * 10**60 + 1, -(7 * 10**60) // 3).decimal(2) == (
        "-775412640416421312477369280186488941347388086213446678316046.87"
    )


def test_floor_takes_at_most_three_sign_tests(monkeypatch, bounded):
    calls = []
    real = exactnum._int_sign
    monkeypatch.setattr(exactnum, "_int_sign", lambda vector: calls.append(vector) or real(vector))
    for value in long_coefficient_values():
        del calls[:]
        bounded(10, value.floor)
        assert len(calls) <= 3, value


def sqrt2_unit(k):
    """p - q*sqrt2 for the k-th convergent p/q of sqrt2, about (1 - sqrt2)**k."""
    p, q = 1, 0
    for _ in range(k):
        p, q = p + 2 * q, p + q
    return p - q * SQRT2


def test_floor_matches_the_oracle_on_seeded_vectors():
    rng = random.Random(2020)
    for _ in range(300):
        digits = rng.choice((2, 12, 40))
        vector = tuple(rng.randrange(-(10**digits), 10**digits) for _ in range(4))
        denom = rng.randrange(1, 10**rng.choice((1, 6, 20)))
        value = FieldNumber(*(Fraction(a, denom) for a in vector))
        assert exactnum._floor(vector, denom) == oracle_floor(value), (vector, denom)
        negated = tuple(-a for a in vector)
        assert exactnum._floor(negated, denom) == oracle_floor(-value), (vector, denom)


def test_floor_of_near_integers_matches_the_oracle(monkeypatch):
    calls = []
    real = exactnum._int_sign
    monkeypatch.setattr(exactnum, "_int_sign", lambda vector: calls.append(vector) or real(vector))
    rng = random.Random(2021)
    for k in list(range(1, 60)) + [80, 81, 120, 121, 200, 201]:
        # both units are below 10**-25 from these k on: phi**-120 and (sqrt2 - 1)**66
        for unit, tiny in ((golden_unit(k), k >= 120), (sqrt2_unit(k), k >= 66)):
            for shift in (0, 1, -1, rng.randrange(-(10**9), 10**9)):
                for value in (unit + shift, -unit + shift):
                    denom = rng.randrange(1, 50)
                    vector = value.scaled_coeffs(value._den)
                    scaled = tuple(a * denom for a in vector)
                    # the same number over a larger denominator
                    for args in ((vector, value._den), (scaled, value._den * denom)):
                        del calls[:]
                        assert exactnum._floor(*args) == oracle_floor(value), (k, value)
                        assert len(calls) <= 3, value
                        if tiny:
                            # far inside the 64-bit estimate's bound of an integer
                            assert calls, value


def test_floor_far_from_an_integer_takes_no_sign_test(monkeypatch):
    calls = []
    real = exactnum._int_sign
    monkeypatch.setattr(exactnum, "_int_sign", lambda vector: calls.append(vector) or real(vector))
    rng = random.Random(2022)
    for _ in range(200):
        value = random_field_number(rng, span=10**6, max_denominator=10**4)
        if value.is_rational or abs(float(value) - round(float(value))) < 1e-6:
            continue
        del calls[:]
        assert value.floor() == oracle_floor(value), value
        assert calls == [], value


def test_floor_takes_both_fallback_decrements(monkeypatch):
    # With B in [M/2, M), M = D << 64, the guess floor((E + B) / M) can lie
    # two above the floor.  The 64-bit estimates of phi, sqrt2 and
    # phi*sqrt2 all fall short of their values, so negative coefficients
    # push E above the value, and a fractional part near 1 then costs both
    # decrements; nearer 0 it costs one or none.
    calls = []
    real = exactnum._compare
    monkeypatch.setattr(
        exactnum, "_compare", lambda u, v, scale=1: calls.append(scale) or real(u, v, scale)
    )
    rng = random.Random(2929)
    decrements = set()
    for _ in range(300):
        denom = rng.randrange(1, 10)
        unit = denom << 64
        # |a1| + |a2| + |a3| = budget, so B = 2*budget + 2 lies in [M/2, M)
        budget = rng.randrange(unit // 4, unit // 2 - 1)
        a2 = rng.randrange(0, budget // 4)
        a3 = rng.randrange(0, budget // 4)
        vector = (rng.randrange(-(10**30), 10**30), a2 + a3 - budget, -a2, -a3)
        _, bound = _dyadic(vector)
        assert unit // 2 <= bound < unit
        value = FieldNumber(*(Fraction(a, denom) for a in vector))
        del calls[:]
        assert exactnum._floor(vector, denom) == oracle_floor(value), (vector, denom)
        # each fallback decrement is one _compare that comes out negative
        decrements.add(max(0, len(calls) - 1))
    assert decrements == {0, 1, 2}


def seeded_vector(rng, digits):
    return tuple(rng.randrange(-(10**digits), 10**digits) for _ in range(4))


NEAR_ZERO_UNITS = [golden_unit(k) for k in (48, 49, 60, 121)] + [sqrt2_unit(k) for k in (27, 66)]


def test_compare_matches_the_field_sign():
    rng = random.Random(2828)
    cases = []
    for _ in range(200):
        u, v = seeded_vector(rng, rng.choice((2, 12, 40))), seeded_vector(rng, rng.choice((2, 12)))
        cases.append((u, v, rng.choice((1, -1, rng.randrange(-(10**6), 10**6)))))
    # u - scale*v within golden_unit(48), about 1e-10, of 0 on either side, and exactly 0
    for unit in NEAR_ZERO_UNITS:
        for _ in range(4):
            v, scale = seeded_vector(rng, 12), rng.choice((1, rng.randrange(-(10**6), 10**6)))
            for tiny in (unit, -unit, FieldNumber(0)):
                u = tuple(scale * b + c for b, c in zip(v, tiny.scaled_coeffs(1)))
                cases.append((u, v, scale))
    for u, v, scale in cases:
        want = (FieldNumber(*u) - scale * FieldNumber(*v)).sign()
        assert exactnum._compare(u, v, scale) == want, (u, v, scale)
    assert exactnum._compare((3, 1, 0, 0), (3, 1, 0, 0)) == 0


def test_mod1_matches_reduce_mod1():
    rng = random.Random(2929)
    cases = []
    for _ in range(200):
        digits = rng.choice((2, 12, 40))
        cases.append((seeded_vector(rng, digits), rng.randrange(1, 10 ** rng.choice((1, 6, 20)))))
    # values within golden_unit(48), about 1e-10, of an integer, below and above it
    for unit in NEAR_ZERO_UNITS:
        for shift in (0, 1, -1, rng.randrange(-(10**9), 10**9)):
            for value in (unit + shift, -unit + shift, FieldNumber(shift)):
                denom = rng.randrange(1, 50)
                cases.append((value.scaled_coeffs(denom), denom))
    for vector, denom in cases:
        value = FieldNumber(*(Fraction(a, denom) for a in vector))
        reduced = exactnum._mod1(vector, denom)
        assert FieldNumber(*(Fraction(a, denom) for a in reduced)) == reduce_mod1(value), value
        floor = math.floor(value.as_fraction()) if value.is_rational else oracle_floor(value)
        assert reduced == (vector[0] - floor * denom,) + vector[1:], value


def test_reduce_mod1_is_the_field_difference_in_lowest_terms():
    rng = random.Random(3031)

    def fraction(span=400):
        return Fraction(rng.randint(-span, span), rng.randint(1, 97))

    values = [FieldNumber(fraction()) for _ in range(100)]
    values += [FieldNumber(fraction(), fraction()) for _ in range(100)]
    values += [random_field_number(rng, span=400, max_denominator=50) for _ in range(100)]
    values += [FieldNumber(k) for k in (-(10**20), -3, -1, 0, 1, 2, 10**20)]
    # (sqrt2 - 1)**30 and phi**-41, about 3e-12 and 3e-9, beside integers
    for unit in (sqrt2_unit(30), -golden_unit(41)):
        for shift in (0, 1, -1, 2, -2, 7, -(10**9)):
            values += [unit + shift, -unit + shift]
    for value in values:
        reduced = reduce_mod1(value)
        assert reduced == value - value.floor(), value
        assert 0 <= reduced < 1, value
        assert reduced._den > 0 and math.gcd(reduced._den, *reduced._num) == 1, value
        rebuilt = FieldNumber(*reduced.coeffs)
        assert (reduced._num, reduced._den) == (rebuilt._num, rebuilt._den), value
        if value.is_rational:
            fraction = value.as_fraction() % 1
            assert reduced == fraction and hash(reduced) == hash(fraction), value
    assert reduce_mod1(sqrt2_unit(30) - 1) == sqrt2_unit(30)
    assert reduce_mod1(golden_unit(41) + 7) == 1 + golden_unit(41)  # golden_unit(41) < 0
