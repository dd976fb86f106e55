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
from functools import cache, cmp_to_key, total_ordering
from operator import itemgetter
from typing import Iterable, Optional, Sequence, Union

RationalLike = Union[int, Fraction]

_GRAMMAR_BASES = ("", "phi", "sqrt2", "phi*sqrt2")

_TERM_RE = re.compile(
    r"^(?P<sign>[+-]?)"
    r"(?:(?P<coeff>\d+(?:/\d+)?)(?:\*(?P<base>phi\*sqrt2|phi|sqrt2))?"
    r"|(?P<barebase>phi\*sqrt2|phi|sqrt2))$"
)

_PRECISION = 64  # bits of the first dyadic estimate; finer ones double it


@cache
def basis_approx(precision: int) -> tuple[int, int, int, int]:
    """Integers within 2 of (1, phi, sqrt2, phi*sqrt2) * 2**precision, cached per precision."""
    one = 1 << precision
    root5 = math.isqrt(5 << (2 * precision))
    root2 = math.isqrt(2 << (2 * precision))
    root10 = math.isqrt(10 << (2 * precision))
    phi = (one + root5) >> 1
    phi_sqrt2 = (root2 + root10) >> 1  # phi*sqrt2 == (sqrt2 + sqrt10)/2
    return (one, phi, root2, phi_sqrt2)


_BASIS = basis_approx(_PRECISION)

_Vector = tuple[int, int, int, int]
# an integer vector after its _dyadic estimate and error bound, the order _sorted_merged sorts on
_Row = tuple[int, int, _Vector]


def _dyadic(vector: _Vector, basis: tuple[int, int, int, int] = _BASIS) -> tuple[int, int]:
    """Dyadic estimate E of a0 + a1*phi + a2*sqrt2 + a3*phi*sqrt2 times 2**p, and its error bound.

    E is the vector dotted with basis = basis_approx(p), p = _PRECISION
    unless the caller passes a finer basis.  The estimate of 1 is exact and the
    other three are within 2 of their values, so
    |E - value * 2**p| < B = 2*(|a1| + |a2| + |a3|) + 2; the constant
    keeps B positive, so a value certified by |E| > B is never zero.
    E is linear in the vector, and B is subadditive and blind to a0:
    B(u + v) <= B(u) + B(v) and B(u + m*(D, 0, 0, 0)) = B(u).  A caller
    can therefore step an estimate by integer adds and bound its error
    by the matching sum of bounds.
    """
    a0, a1, a2, a3 = vector
    e0, e1, e2, e3 = basis
    return a0 * e0 + a1 * e1 + a2 * e2 + a3 * e3, 2 * (abs(a1) + abs(a2) + abs(a3)) + 2


def _int_sign(scaled: _Vector) -> int:
    """Sign of a0 + a1*phi + a2*sqrt2 + a3*phi*sqrt2 for integer ai.

    Zero iff all four coordinates are zero; otherwise the _dyadic
    estimate at _PRECISION bits, doubling the precision until it clears
    its bound.
    """
    a0, a1, a2, a3 = scaled
    if a0 == 0 and a1 == 0 and a2 == 0 and a3 == 0:
        return 0
    estimate, error = _dyadic(scaled)
    precision = _PRECISION
    while True:
        if estimate > error:
            return 1
        if estimate < -error:
            return -1
        precision *= 2
        estimate, error = _dyadic(scaled, basis_approx(precision))


def _compare(u: _Vector, v: _Vector, scale: int = 1) -> int:
    """Sign of u - scale*v for integer vectors u and v, by _int_sign.

    Over one denominator D > 0 it orders u / D and scale*v / D; a
    constant c over 1 compares with u / D as _compare(u, c, D).
    """
    u0, u1, u2, u3 = u
    v0, v1, v2, v3 = v
    return _int_sign((u0 - scale * v0, u1 - scale * v1, u2 - scale * v2, u3 - scale * v3))


def _row(vector: _Vector) -> _Row:
    return (*_dyadic(vector), vector)


_ZERO_ROW = _row((0, 0, 0, 0))
_ONE_ROW = _row((1, 0, 0, 0))


def _side(row: _Row, constant: _Row, scale: int) -> int:
    """Sign of u - scale*c for the rows of u and c and scale > 0, estimate first.

    Over one denominator D, u / D against a constant c over 1 is
    _side(row of u, row of c, D).  By the triangle inequality
    E(u) - scale*E(c) lies within B(u) + scale*B(c) of the difference
    times 2**p: a gap wider than that margin is the sign, and only a
    gap inside it calls _compare.  A zero difference has u = scale*c
    coordinate by coordinate, so its gap is 0 and _compare settles it.
    """
    estimate, bound, vector = row
    estimate_c, bound_c, vector_c = constant
    gap = estimate - scale * estimate_c
    margin = bound + scale * bound_c
    if gap > margin:
        return 1
    if gap < -margin:
        return -1
    return _compare(vector, vector_c, scale)


def _sorted_merged(rows: Iterable[tuple[int, int, _Vector, object]]) -> list:
    """Distinct values of (*row, tag) rows in increasing order, with their tags.

    Each vector (a0, a1, a2, a3) stands for a0 + a1*phi + a2*sqrt2 +
    a3*phi*sqrt2 over one denominator shared by all rows.  Its estimate
    E and bound B must satisfy |E - value * 2**p| < B at the one
    precision p = _PRECISION: _dyadic's pair does, and so does an
    estimate a caller steps by integer adds with the matching sum of
    bounds.  The rows are sorted by estimate and the order is then
    certified pair by pair.  A pair whose estimates differ by more than
    the sum of their bounds is in order, by the triangle inequality, so
    a looser bound costs sign tests but never a wrong order.  Equal
    values have equal vectors, since the basis is linearly independent
    over Q, so a close pair with equal vectors merges into one entry
    with no sign test.  Only the other close pairs call _compare: a sign
    of 0 cannot occur for them, and a negative sign (estimates closer
    than their bounds, in the wrong order) re-sorts with the exact
    comparator.  Returns a list of (vector, tags) pairs.
    """
    rows = sorted(rows, key=itemgetter(0))

    def merged_runs() -> Optional[list]:
        merged: list = []
        previous = None
        for row in rows:
            if previous is None or row[0] - previous[0] > row[1] + previous[1]:
                order = 1
            elif row[2] == previous[2]:
                order = 0
            else:
                order = _compare(row[2], previous[2])
            if order < 0:
                return None
            if order == 0:
                merged[-1][1].append(row[3])
            else:
                merged.append((row[2], [row[3]]))
                previous = row
        return merged

    merged = merged_runs()
    if merged is None:
        rows.sort(key=cmp_to_key(lambda p, q: _compare(p[2], q[2])))
        merged = merged_runs()
    return merged


def _certified_floor(estimate: int, error: int, unit: int) -> Optional[int]:
    """floor(value) when an estimate settles it, else None.

    E = estimate lies within B = error of value * M, M = unit > 0, so the
    value is below g + 1 for g = floor((E + B) / M).  When E - B is at
    least g*M too, the value lies inside (g, g + 1) and g is its floor.
    Only an estimate within its bound of an integer multiple of M, or a
    bound of at least M / 2, leaves it unsettled.
    """
    guess = (estimate + error) // unit
    return guess if estimate - error >= guess * unit else None


def _floor(vector: _Vector, denom: int) -> int:
    """Exact floor of vector / denom, for denom > 0.

    The estimate E of value * M, M = D << p, lies within B < M of it.
    _dyadic's B does not depend on p, which doubles from _PRECISION
    until B < M, and _certified_floor then settles the floor with no
    sign test unless E lies within B of an integer multiple of M.  Only
    then are there sign tests, of value - g for g = floor((E + B) / M)
    and at most two lower integers.  FieldNumber.floor and decimal and
    _mod1_row share it.
    """
    a0, a1, a2, a3 = vector
    if not (a1 or a2 or a3):
        return a0 // denom
    estimate, error = _dyadic(vector)
    precision = _PRECISION
    while error >= denom << precision:
        precision *= 2
        estimate, _ = _dyadic(vector, basis_approx(precision))
    unit = denom << precision
    floor = _certified_floor(estimate, error, unit)
    if floor is not None:
        return floor
    guess = (estimate + error) // unit
    # value - g is the integer vector minus g*(D, 0, 0, 0), over D > 0
    while _compare(vector, (denom, 0, 0, 0), guess) < 0:
        guess -= 1
    return guess


def _mod1_row(vector: _Vector, denom: int) -> _Row:
    """The row of vector / denom reduced mod 1 into [0, 1), over the same denom > 0.

    The floor g comes from the one _dyadic estimate by _certified_floor,
    and from _floor only when the estimate lies within its bound of an
    integer.  Subtracting g*denom from the rational coordinate moves the
    estimate by exactly g*(denom << p), since the estimate of 1 is exact,
    and leaves the bound as it is, so the result is _row of the reduced
    vector with no second _dyadic.
    """
    estimate, bound = _dyadic(vector)
    unit = denom << _PRECISION
    floor = _certified_floor(estimate, bound, unit)
    if floor is None:
        floor = _floor(vector, denom)
    a0, a1, a2, a3 = vector
    return estimate - floor * unit, bound, (a0 - floor * denom, a1, a2, a3)


def _gmul(a: int, b: int, c: int, d: int) -> tuple[int, int]:
    # (a + b*phi)(c + d*phi) with phi**2 = 1 + phi
    return a * c + b * d, a * d + b * c + b * d


def _reduced(num: _Vector, den: int) -> FieldNumber:
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

    def __reduce__(self) -> tuple[type, tuple[Fraction, Fraction, Fraction, Fraction]]:
        # copy and pickle rebuild the number from its coefficients; the
        # default would restore the slots through __setattr__, which refuses
        return type(self), self.coeffs

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
        if factor == 1:
            return self._num
        n0, n1, n2, n3 = self._num
        return n0 * factor, n1 * factor, n2 * factor, n3 * factor

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
        (a0, a1, a2, a3), e = self._num, o._den
        return _compare((a0 * e, a1 * e, a2 * e, a3 * e), o._num, self._den) < 0

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
        """Exact floor, by _floor on the stored coordinates."""
        return _floor(self._num, self._den)

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

        The value itself stays exact; this string is its magnitude
        rounded half up at the requested number of places, the sign
        kept unless the digits are all zero.  At 0 places it is the
        rounded integer, with no decimal point.  For v = a / D the
        digits are one exact floor, floor(|v|*10**places + 1/2) =
        _floor(2*10**places*|a| + (D, 0, 0, 0), 2*D).
        """
        if places < 0:
            raise ValueError(f"decimal places must be nonnegative, got {places}")
        negative = self.sign() < 0
        unit = 10**places
        scale = -2 * unit if negative else 2 * unit
        a0, a1, a2, a3 = self._num
        den = self._den
        quotient = _floor((scale * a0 + den, scale * a1, scale * a2, scale * a3), 2 * den)
        whole, fraction = divmod(quotient, unit)
        text = f"{'-' if negative and quotient else ''}{whole}"
        return f"{text}.{fraction:0{places}d}" if places else text


def sign(value: FieldNumber) -> int:
    return value.sign()


def reduce_mod1(value: FieldNumber) -> FieldNumber:
    """Exact fractional part: value - floor(value), in [0, 1).

    The stored vector reduced by _mod1_row over the same denominator D
    stays in lowest terms, since subtracting a multiple of D from the
    first coordinate leaves the gcd of D and the coordinates at 1; so no
    gcd is taken, and a value already in [0, 1) is returned as it is.
    """
    num = _mod1_row(value._num, value._den)[2]
    if num == value._num:
        return value
    result = object.__new__(FieldNumber)
    object.__setattr__(result, "_num", num)
    object.__setattr__(result, "_den", value._den)
    return result


def common_denominator(values: Iterable[FieldNumber]) -> int:
    return math.lcm(*(value._den for value in values))


def _field(value: FieldNumber | RationalLike) -> FieldNumber:
    """A FieldNumber unchanged; an int or Fraction converted; else TypeError.

    An int or Fraction, already in lowest terms, is stored as it is by
    FieldNumber._coerce; only other types reach the constructor, which
    raises TypeError.
    """
    number = FieldNumber._coerce(value)
    return FieldNumber(value) if number is None else number


def zmodule_rank(generators: Sequence[FieldNumber]) -> int:
    """Rank of the Z-module spanned by 1 together with the generators.

    1 is always included: the ambient circle identifies integers with
    zero, so the constant is part of every steering set whether or not
    the caller lists it.  Since the four basis numbers are linearly
    independent over Q, the rank is the Q-dimension of the span of the
    coordinate vectors.  Scaling a row by a nonzero integer leaves that
    dimension unchanged, so each generator is its stored integer vector
    _num, and elimination runs on integers with no fraction: a pivot
    row p clears column c of a row r as p[c]*r - r[c]*p.  The row of 1
    is the pivot of the rational column, which clears that column of
    every generator, so the rank is 1 plus the rank of the generators'
    three irrational coordinates.
    """
    rows = [_field(g)._num[1:] for g in generators]
    rank = 1
    for col in range(3):
        pivot = next((row for row in rows if row[col]), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        head = pivot[col]
        rows = [tuple(head * a - row[col] * b for a, b in zip(row, pivot)) for row in rows]
        rank += 1
    return rank


PHI = FieldNumber(0, 1)
SQRT2 = FieldNumber(0, 0, 1)
PHI_SQRT2 = FieldNumber(0, 0, 0, 1)

_PHI_FLOAT = (1.0 + math.sqrt(5.0)) / 2.0
_SQRT2_FLOAT = math.sqrt(2.0)
