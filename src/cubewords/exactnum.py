"""Exact arithmetic in the field Q(phi, sqrt2).

Numbers are stored as exact rational coordinates over the fixed basis
(1, phi, sqrt2, phi*sqrt2), where phi is the golden ratio.  Since
phi**2 = 1 + phi and sqrt2**2 = 2, the basis is closed under
multiplication, and a number is zero iff all four coordinates are zero
(the basis is linearly independent over Q).  That zero test is what
makes comparisons exact: sign() short-circuits on the coefficient test
and otherwise refines a certified dyadic enclosure of the value until
it excludes zero.

Rational coordinates use fractions.Fraction, which already guarantees
arbitrary-precision integers, lowest terms and a positive denominator.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import total_ordering
from typing import Iterable, Union

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


def _int_sign(scaled: tuple[int, int, int, int], precision: int = 64) -> int:
    """Sign of a0 + a1*phi + a2*sqrt2 + a3*phi*sqrt2 for integer ai."""
    a0, a1, a2, a3 = scaled
    if a0 == 0 and a1 == 0 and a2 == 0 and a3 == 0:
        return 0
    while True:
        e0, e1, e2, e3 = basis_approx(precision)
        estimate = a0 * e0 + a1 * e1 + a2 * e2 + a3 * e3
        error = 2 * (abs(a1) + abs(a2) + abs(a3)) + 2
        if estimate > error:
            return 1
        if estimate < -error:
            return -1
        precision *= 2


def _gmul(a: Fraction, b: Fraction, c: Fraction, d: Fraction) -> tuple[Fraction, Fraction]:
    # (a + b*phi)(c + d*phi) with phi**2 = 1 + phi
    return a * c + b * d, a * d + b * c + b * d


def _ginv(a: Fraction, b: Fraction) -> tuple[Fraction, Fraction]:
    # (a + b*phi)**-1 == (a + b - b*phi) / (a**2 + a*b - b**2)
    norm = a * a + a * b - b * b
    if norm == 0:
        raise ZeroDivisionError("inverse of zero in Q(phi)")
    return (a + b) / norm, -b / norm


@total_ordering
class FieldNumber:
    """An element of Q(phi, sqrt2) with exact dyadic-certified ordering."""

    __slots__ = ("_c0", "_c1", "_c2", "_c3")

    def __init__(
        self,
        c0: RationalLike = 0,
        c1: RationalLike = 0,
        c2: RationalLike = 0,
        c3: RationalLike = 0,
    ) -> None:
        object.__setattr__(self, "_c0", Fraction(c0))
        object.__setattr__(self, "_c1", Fraction(c1))
        object.__setattr__(self, "_c2", Fraction(c2))
        object.__setattr__(self, "_c3", Fraction(c3))

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
        return (self._c0, self._c1, self._c2, self._c3)

    @property
    def is_zero(self) -> bool:
        return not (self._c0 or self._c1 or self._c2 or self._c3)

    @property
    def is_rational(self) -> bool:
        return not (self._c1 or self._c2 or self._c3)

    @property
    def is_golden(self) -> bool:
        return not (self._c2 or self._c3)

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
        return self._c0

    def scaled_coeffs(self, denominator: int) -> tuple[int, int, int, int]:
        """Coordinates times ``denominator``, which must clear all fractions."""
        out = []
        for c in self.coeffs:
            num = c * denominator
            if num.denominator != 1:
                raise ValueError(f"{denominator} does not clear denominators of {self}")
            out.append(num.numerator)
        return tuple(out)

    def _integer_coords(self) -> tuple[int, tuple[int, int, int, int]]:
        """Least common denominator D and the coordinates times D."""
        denom = math.lcm(*(c.denominator for c in self.coeffs))
        return denom, tuple(c.numerator * (denom // c.denominator) for c in self.coeffs)

    # -- arithmetic --------------------------------------------------

    @staticmethod
    def _coerce(other: object) -> FieldNumber | None:
        if isinstance(other, FieldNumber):
            return other
        if isinstance(other, (int, Fraction)):
            return FieldNumber(other)
        return None

    def __add__(self, other: object) -> FieldNumber:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldNumber(
            self._c0 + o._c0, self._c1 + o._c1, self._c2 + o._c2, self._c3 + o._c3
        )

    __radd__ = __add__

    def __sub__(self, other: object) -> FieldNumber:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldNumber(
            self._c0 - o._c0, self._c1 - o._c1, self._c2 - o._c2, self._c3 - o._c3
        )

    def __rsub__(self, other: object) -> FieldNumber:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self) -> FieldNumber:
        return FieldNumber(-self._c0, -self._c1, -self._c2, -self._c3)

    def __pos__(self) -> FieldNumber:
        return self

    def __mul__(self, other: object) -> FieldNumber:
        if isinstance(other, (int, Fraction)):
            return FieldNumber(
                self._c0 * other, self._c1 * other, self._c2 * other, self._c3 * other
            )
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # Split over sqrt2: self = p + q*sqrt2 and other = r + t*sqrt2
        # with p, q, r, t in Q(phi); then (p*r + 2*q*t) + (p*t + q*r)*sqrt2.
        p0, p1, q0, q1 = self._c0, self._c1, self._c2, self._c3
        r0, r1, t0, t1 = o._c0, o._c1, o._c2, o._c3
        pr = _gmul(p0, p1, r0, r1)
        qt = _gmul(q0, q1, t0, t1)
        pt = _gmul(p0, p1, t0, t1)
        qr = _gmul(q0, q1, r0, r1)
        return FieldNumber(
            pr[0] + 2 * qt[0], pr[1] + 2 * qt[1], pt[0] + qr[0], pt[1] + qr[1]
        )

    __rmul__ = __mul__

    def inverse(self) -> FieldNumber:
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero field number")
        p0, p1, q0, q1 = self._c0, self._c1, self._c2, self._c3
        # 1/(p + q*sqrt2) = (p - q*sqrt2)/(p**2 - 2*q**2); the norm lies
        # in Q(phi) and vanishes only at zero because sqrt2 is not in Q(phi).
        pp = _gmul(p0, p1, p0, p1)
        qq = _gmul(q0, q1, q0, q1)
        n0, n1 = pp[0] - 2 * qq[0], pp[1] - 2 * qq[1]
        i0, i1 = _ginv(n0, n1)
        a, b = _gmul(p0, p1, i0, i1)
        c, d = _gmul(-q0, -q1, i0, i1)
        return FieldNumber(a, b, c, d)

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
        if self.is_zero:
            return 0
        return _int_sign(self._integer_coords()[1])

    def __eq__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __lt__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() < 0

    def __hash__(self) -> int:
        # A rational value equals its Fraction, so it must hash like it.
        return hash(self._c0) if self.is_rational else hash(self.coeffs)

    def __bool__(self) -> bool:
        return not self.is_zero

    def __abs__(self) -> FieldNumber:
        return -self if self.sign() < 0 else self

    # -- integer part ------------------------------------------------

    def floor(self) -> int:
        """Exact floor, certified by sign tests on the residual."""
        if self.is_rational:
            return math.floor(self._c0)
        denom, (a0, a1, a2, a3) = self._integer_coords()
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

    def mod1(self) -> FieldNumber:
        return self - self.floor()

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
        return f"FieldNumber({self._c0!r}, {self._c1!r}, {self._c2!r}, {self._c3!r})"

    def __float__(self) -> float:
        return (
            float(self._c0)
            + float(self._c1) * _PHI_FLOAT
            + float(self._c2) * _SQRT2_FLOAT
            + float(self._c3) * _PHI_FLOAT * _SQRT2_FLOAT
        )

    def decimal(self, places: int = 20) -> str:
        """Fixed-point decimal rendering, advisory only.

        The value itself stays exact; this string is rounded at the
        requested number of places from a 192-bit enclosure.
        """
        precision = 192
        denom, (a0, a1, a2, a3) = self._integer_coords()
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
    return value.mod1()


def parse_field_number(text: str) -> FieldNumber:
    return FieldNumber.parse(text)


def common_denominator(values: Iterable[FieldNumber]) -> int:
    return math.lcm(*(value._integer_coords()[0] for value in values))


PHI = FieldNumber(0, 1)
SQRT2 = FieldNumber(0, 0, 1)
PHI_SQRT2 = FieldNumber(0, 0, 0, 1)

_PHI_FLOAT = (1.0 + math.sqrt(5.0)) / 2.0
_SQRT2_FLOAT = math.sqrt(2.0)
