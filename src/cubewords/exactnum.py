"""Exact arithmetic in the field Q(phi, sqrt2).

Numbers are stored over the fixed basis (1, phi, sqrt2, phi*sqrt2),
where phi is the golden ratio, as four integer coordinates over one
positive denominator in lowest terms, so equal values have equal
fields.  Since phi**2 = 1 + phi and sqrt2**2 = 2, the basis is closed
under multiplication, and a number is zero iff all four coordinates are
zero (the basis is linearly independent over Q).  That zero test is
what makes comparisons exact: sign() short-circuits on the coefficient
test and otherwise refines a certified dyadic enclosure of the value
until it excludes zero.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import cmp_to_key, total_ordering
from typing import Iterable, Optional, Union

RationalLike = Union[int, Fraction]

_GRAMMAR_BASES = ("", "phi", "sqrt2", "phi*sqrt2")

_TERM_RE = re.compile(
    r"^(?P<sign>[+-]?)"
    r"(?:(?P<coeff>\d+(?:/\d+)?)(?:\*(?P<base>phi\*sqrt2|phi|sqrt2))?"
    r"|(?P<barebase>phi\*sqrt2|phi|sqrt2))$"
)

# Dyadic enclosures of the basis, cached per precision.  basis_approx(p)
# returns integers within 2 of (1, phi, sqrt2, phi*sqrt2) * 2**p.
_BASIS_CACHE: dict[int, tuple[int, int, int, int]] = {}


def basis_approx(precision: int) -> tuple[int, int, int, int]:
    cached = _BASIS_CACHE.get(precision)
    if cached is not None:
        return cached
    one = 1 << precision
    root5 = math.isqrt(5 << (2 * precision))
    root2 = math.isqrt(2 << (2 * precision))
    root10 = math.isqrt(10 << (2 * precision))
    phi = (one + root5) >> 1
    phi_sqrt2 = (root2 + root10) >> 1  # phi*sqrt2 == (sqrt2 + sqrt10)/2
    approx = (one, phi, root2, phi_sqrt2)
    _BASIS_CACHE[precision] = approx
    return approx


def _int_sign(scaled: tuple[int, int, int, int]) -> int:
    """Sign of a0 + a1*phi + a2*sqrt2 + a3*phi*sqrt2 for integer ai."""
    a0, a1, a2, a3 = scaled
    if a0 == 0 and a1 == 0 and a2 == 0 and a3 == 0:
        return 0
    precision = 64
    while True:
        e0, e1, e2, e3 = basis_approx(precision)
        estimate = a0 * e0 + a1 * e1 + a2 * e2 + a3 * e3
        error = 2 * (abs(a1) + abs(a2) + abs(a3)) + 2
        if estimate > error:
            return 1
        if estimate < -error:
            return -1
        precision *= 2


def _sorted_merged(points: Iterable[tuple[tuple[int, int, int, int], object]]) -> list:
    """Distinct values of (vector, tag) points in increasing order, with their tags.

    Each vector (a0, a1, a2, a3) stands for a0 + a1*phi + a2*sqrt2 +
    a3*phi*sqrt2 over one denominator shared by all points.  The points
    are sorted by their 64-bit dyadic estimate, the first round of
    _int_sign, and the order is then certified pair by pair with
    _int_sign: a sign of 0 merges two points into one entry, and a
    negative sign (estimates closer than their error bounds, in the
    wrong order) re-sorts with the exact comparator.  Equal values have
    equal vectors, since the basis is linearly independent over Q.
    Returns a list of (vector, tags) pairs.
    """
    e0, e1, e2, e3 = basis_approx(64)
    points = sorted(
        points, key=lambda p: p[0][0] * e0 + p[0][1] * e1 + p[0][2] * e2 + p[0][3] * e3
    )

    def relation(p: tuple, q: tuple) -> int:
        (u0, u1, u2, u3), (v0, v1, v2, v3) = p[0], q[0]
        return _int_sign((u0 - v0, u1 - v1, u2 - v2, u3 - v3))

    def merged_runs() -> Optional[list]:
        merged: list = []
        for point in points:
            order = relation(point, merged[-1]) if merged else 1
            if order < 0:
                return None
            if order == 0:
                merged[-1][1].append(point[1])
            else:
                merged.append((point[0], [point[1]]))
        return merged

    merged = merged_runs()
    if merged is None:
        points.sort(key=cmp_to_key(relation))
        merged = merged_runs()
    return merged


def _gmul(a: int, b: int, c: int, d: int) -> tuple[int, int]:
    # (a + b*phi)(c + d*phi) with phi**2 = 1 + phi
    return a * c + b * d, a * d + b * c + b * d


def _reduced(num: tuple[int, int, int, int], den: int) -> FieldNumber:
    """The number num / den, divided through by the gcd, den made positive."""
    g = math.gcd(den, *num)
    if den < 0:
        g = -g
    if g != 1:
        num = (num[0] // g, num[1] // g, num[2] // g, num[3] // g)
        den //= g
    value = object.__new__(FieldNumber)
    object.__setattr__(value, "_num", num)
    object.__setattr__(value, "_den", den)
    return value


@total_ordering
class FieldNumber:
    """An element of Q(phi, sqrt2) with exact dyadic-certified ordering.

    Stored as ``_num = (n0, n1, n2, n3)`` and ``_den = d`` for the value
    (n0 + n1*phi + n2*sqrt2 + n3*phi*sqrt2) / d, with d > 0 and
    gcd(d, n0, n1, n2, n3) == 1.
    """

    __slots__ = ("_num", "_den")

    def __init__(
        self,
        c0: RationalLike = 0,
        c1: RationalLike = 0,
        c2: RationalLike = 0,
        c3: RationalLike = 0,
    ) -> None:
        coords = (c0, c1, c2, c3)
        # Over the lcm of lowest-terms denominators the form is reduced.
        try:
            den = math.lcm(*(c.denominator for c in coords))
        except AttributeError:
            bad = next(c for c in coords if not hasattr(c, "denominator"))
            raise TypeError(
                f"FieldNumber coordinates must be int or Fraction, not {type(bad).__name__}"
            ) from None
        num = tuple(c.numerator * (den // c.denominator) for c in coords)
        object.__setattr__(self, "_num", num)
        object.__setattr__(self, "_den", den)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("FieldNumber is immutable")

    # -- constructors ------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> FieldNumber:
        """Parse ``p/q + r/s*phi + t/u*sqrt2 + v/w*phi*sqrt2``.

        Every term may be omitted, whitespace is ignored, and integer
        coefficients may drop the denominator.  A bare base name counts
        as coefficient 1.
        """
        compact = re.sub(r"\s+", "", text)
        if not compact:
            raise ValueError("empty field-number literal")
        terms = re.findall(r"[+-]?[^+-]+", compact)
        if "".join(terms) != compact:
            raise ValueError(f"malformed field-number literal: {text!r}")
        coeffs = [Fraction(0)] * 4
        for term in terms:
            match = _TERM_RE.match(term)
            if match is None:
                raise ValueError(f"malformed term {term!r} in {text!r}")
            if match.group("barebase") is not None:
                base = match.group("barebase")
                coeff = Fraction(1)
            else:
                base = match.group("base") or ""
                try:
                    coeff = Fraction(match.group("coeff"))
                except ZeroDivisionError:
                    raise ValueError(
                        f"zero denominator in term {term!r} of {text!r}"
                    ) from None
            if match.group("sign") == "-":
                coeff = -coeff
            coeffs[_GRAMMAR_BASES.index(base)] += coeff
        return cls(*coeffs)

    # -- structure ---------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        den = self._den
        return tuple(Fraction(c, den) for c in self._num)

    @property
    def is_zero(self) -> bool:
        return not any(self._num)

    @property
    def is_rational(self) -> bool:
        _, n1, n2, n3 = self._num
        return not (n1 or n2 or n3)

    @property
    def is_golden(self) -> bool:
        return not (self._num[2] or self._num[3])

    @property
    def tag(self) -> str:
        """Smallest subfield containing the value: rational, golden or quartic."""
        if self.is_rational:
            return "rational"
        if self.is_golden:
            return "golden"
        return "quartic"

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is irrational")
        return Fraction(self._num[0], self._den)

    def scaled_coeffs(self, denominator: int) -> tuple[int, int, int, int]:
        """Coordinates times ``denominator``, which must clear all fractions."""
        factor, rest = divmod(denominator, self._den)
        if rest:
            raise ValueError(f"{denominator} does not clear denominators of {self}")
        return tuple(c * factor for c in self._num)

    # -- arithmetic --------------------------------------------------

    @staticmethod
    def _coerce(other: object) -> FieldNumber | None:
        if isinstance(other, FieldNumber):
            return other
        if isinstance(other, (int, Fraction)):
            # A rational in lowest terms is already a reduced field number.
            value = object.__new__(FieldNumber)
            object.__setattr__(value, "_num", (other.numerator, 0, 0, 0))
            object.__setattr__(value, "_den", other.denominator)
            return value
        return None

    def __add__(self, other: object) -> FieldNumber:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        (a0, a1, a2, a3), d = self._num, self._den
        (b0, b1, b2, b3), e = o._num, o._den
        if d == e:
            return _reduced((a0 + b0, a1 + b1, a2 + b2, a3 + b3), d)
        return _reduced(
            (a0 * e + b0 * d, a1 * e + b1 * d, a2 * e + b2 * d, a3 * e + b3 * d), d * e
        )

    __radd__ = __add__

    def __sub__(self, other: object) -> FieldNumber:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + -o

    def __rsub__(self, other: object) -> FieldNumber:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + -self

    def __neg__(self) -> FieldNumber:
        n0, n1, n2, n3 = self._num
        return _reduced((-n0, -n1, -n2, -n3), self._den)

    def __pos__(self) -> FieldNumber:
        return self

    def __mul__(self, other: object) -> FieldNumber:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # Split over sqrt2: self = p + q*sqrt2 and other = r + t*sqrt2
        # with p, q, r, t in Z[phi]; then (p*r + 2*q*t) + (p*t + q*r)*sqrt2.
        p0, p1, q0, q1 = self._num
        r0, r1, t0, t1 = o._num
        pr = _gmul(p0, p1, r0, r1)
        qt = _gmul(q0, q1, t0, t1)
        pt = _gmul(p0, p1, t0, t1)
        qr = _gmul(q0, q1, r0, r1)
        return _reduced(
            (pr[0] + 2 * qt[0], pr[1] + 2 * qt[1], pt[0] + qr[0], pt[1] + qr[1]),
            self._den * o._den,
        )

    __rmul__ = __mul__

    def inverse(self) -> FieldNumber:
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero field number")
        p0, p1, q0, q1 = self._num
        # 1/(p + q*sqrt2) = (p - q*sqrt2)/(p**2 - 2*q**2), and the norm
        # n0 + n1*phi of Q(phi) times its conjugate n0 + n1 - n1*phi is
        # the integer n0**2 + n0*n1 - n1**2.  Both norms vanish only at
        # zero, because sqrt2 and phi are irrational.
        pp = _gmul(p0, p1, p0, p1)
        qq = _gmul(q0, q1, q0, q1)
        n0, n1 = pp[0] - 2 * qq[0], pp[1] - 2 * qq[1]
        c0, c1 = n0 + n1, -n1
        a, b = _gmul(p0, p1, c0, c1)
        c, d = _gmul(-q0, -q1, c0, c1)
        den = self._den
        norm = n0 * n0 + n0 * n1 - n1 * n1
        return _reduced((a * den, b * den, c * den, d * den), norm)

    def __truediv__(self, other: object) -> FieldNumber:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other: object) -> FieldNumber:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    # -- ordering ----------------------------------------------------

    def sign(self) -> int:
        return _int_sign(self._num)

    def __eq__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._num == o._num and self._den == o._den

    def __lt__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # a/d < b/e with d, e > 0 iff a*e - b*d < 0
        (a0, a1, a2, a3), d = self._num, self._den
        (b0, b1, b2, b3), e = o._num, o._den
        return _int_sign((a0 * e - b0 * d, a1 * e - b1 * d, a2 * e - b2 * d, a3 * e - b3 * d)) < 0

    def __hash__(self) -> int:
        # A rational value equals its Fraction, so it must hash like it.
        if self.is_rational:
            return hash(Fraction(self._num[0], self._den))
        return hash((self._num, self._den))

    def __bool__(self) -> bool:
        return not self.is_zero

    def __abs__(self) -> FieldNumber:
        return -self if self.sign() < 0 else self

    # -- integer part ------------------------------------------------

    def floor(self) -> int:
        """Exact floor, certified by sign tests on the residual."""
        (a0, a1, a2, a3), denom = self._num, self._den
        if self.is_rational:
            return a0 // denom
        precision = 64
        e0, e1, e2, e3 = basis_approx(precision)
        estimate = (a0 * e0 + a1 * e1 + a2 * e2 + a3 * e3) // denom
        guess = estimate >> precision
        # self - g has integer coordinates (a0 - g*D, a1, a2, a3) over D > 0
        while _int_sign((a0 - guess * denom, a1, a2, a3)) < 0:
            guess -= 1
        while _int_sign((a0 - (guess + 1) * denom, a1, a2, a3)) >= 0:
            guess += 1
        return guess

    __floor__ = floor

    # -- emission ----------------------------------------------------

    def __str__(self) -> str:
        parts: list[str] = []
        for coeff, base in zip(self.coeffs, _GRAMMAR_BASES):
            if coeff == 0:
                continue
            magnitude = str(abs(coeff))
            term = magnitude if not base else f"{magnitude}*{base}"
            if not parts:
                parts.append(f"-{term}" if coeff < 0 else term)
            else:
                parts.append(f"-{term}" if coeff < 0 else f"+{term}")
        return "".join(parts) if parts else "0"

    def __repr__(self) -> str:
        c0, c1, c2, c3 = self.coeffs
        return f"FieldNumber({c0!r}, {c1!r}, {c2!r}, {c3!r})"

    def __float__(self) -> float:
        c0, c1, c2, c3 = self.coeffs
        return (
            float(c0)
            + float(c1) * _PHI_FLOAT
            + float(c2) * _SQRT2_FLOAT
            + float(c3) * _PHI_FLOAT * _SQRT2_FLOAT
        )

    def decimal(self, places: int = 20) -> str:
        """Fixed-point decimal rendering, advisory only.

        The value itself stays exact; this string is rounded at the
        requested number of places from a 192-bit enclosure.
        """
        precision = 192
        (a0, a1, a2, a3), denom = self._num, self._den
        e0, e1, e2, e3 = basis_approx(precision)
        scaled = a0 * e0 + a1 * e1 + a2 * e2 + a3 * e3
        shifted = scaled * 10**places
        total = denom << precision
        quotient = (2 * abs(shifted) + total) // (2 * total)
        digits = str(quotient).rjust(places + 1, "0")
        sign = "-" if scaled < 0 and quotient != 0 else ""
        return f"{sign}{digits[:-places]}.{digits[-places:]}"


def sign(value: FieldNumber) -> int:
    return value.sign()


def reduce_mod1(value: FieldNumber) -> FieldNumber:
    """Exact fractional part: value - floor(value), in [0, 1)."""
    return value - value.floor()


def common_denominator(values: Iterable[FieldNumber]) -> int:
    return math.lcm(*(value._den for value in values))


PHI = FieldNumber(0, 1)
SQRT2 = FieldNumber(0, 0, 1)
PHI_SQRT2 = FieldNumber(0, 0, 0, 1)

_PHI_FLOAT = (1.0 + math.sqrt(5.0)) / 2.0
_SQRT2_FLOAT = math.sqrt(2.0)
