"""Circle rotations, orbit codings and the rank bookkeeping behind them.

Consecutive returns to the face X = 0 add the same exact angle to the
Y coordinate, so everything about return words reduces to coding an
irrational rotation against an interval partition.  This module keeps
that layer self-contained: orbits are coded exactly (a point landing
on a cut is an error, not a rounding event), saddle connections
between cuts are decided algebraically, and the Z-module rank of the
numbers steering a coding predicts the slope of its complexity.

The orbit loop of code_orbit runs on integers: the start, the angle
and the cuts are written over one common denominator D, each orbit
point is four integers (a0, a1, a2, a3) standing for
(a0 + a1*phi + a2*sqrt2 + a3*phi*sqrt2) / D, and every comparison is
the sign of an integer 4-vector decided by exactnum._int_sign, the
same certified dyadic-filter-then-refine core the rest of the package
uses.  rotate and CirclePartition.label_of remain the single-point
route on FieldNumbers that the tests compare the loop against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .exactnum import PHI, FieldNumber, _int_sign, common_denominator, reduce_mod1
from .returns import CellLabel, CirclePartition, HitsCut
from .words import ComplexityProfile, complexity, fit_affine

TRANSLATION_ANGLE = reduce_mod1(2 * (PHI - 1))
"""Rotation angle 2*phi - 3 driving returns for the r = 1/2 direction."""


def rotate(y: FieldNumber, angle: FieldNumber) -> FieldNumber:
    return reduce_mod1(y + angle)


def code_orbit(
    y0: FieldNumber,
    partition: CirclePartition,
    angle: FieldNumber,
    n: int,
) -> tuple[CellLabel, ...]:
    """Labels of y0, y0 + angle, ... against the partition, n steps.

    Any orbit point landing exactly on a cut raises HitsCut carrying
    the step index; the coding of such an orbit is ambiguous and the
    caller must pick a different start rather than get a silent choice.

    The angle is reduced mod 1 once; the orbit is then stepped on
    integer coordinates over the common denominator of the start, the
    angle and the cuts, with every order and zero decision taken by
    exactnum._int_sign on integer differences, so no float and no
    uncertified margin decides a label.
    """
    if n < 0:
        raise ValueError("orbit length must be nonnegative")
    if not isinstance(y0, FieldNumber):
        y0 = FieldNumber(y0)
    if y0 < 0 or y0 >= 1:
        raise ValueError(f"orbit start {y0} outside [0, 1)")
    if not isinstance(angle, FieldNumber):
        angle = FieldNumber(angle)
    angle = angle.mod1()
    # Exact on integers: y, the angle and the cuts share the denominator
    # D, so y is (a0, a1, a2, a3) / D and every decision is the sign of
    # an integer 4-vector.  The coordinates grow only linearly with the
    # step count, _int_sign certifies its 64-bit estimate against the
    # error bound 2*(|a1| + |a2| + |a3|) + 2 (doubling the precision
    # when that is too close to call), and zero is decided on the
    # integers themselves.  Since the angle lies in [0, 1), one
    # comparison with 1 = D/D wraps y back into [0, 1).
    denom = common_denominator((y0, angle) + partition.cuts)
    a0, a1, a2, a3 = y0.scaled_coeffs(denom)
    d0, d1, d2, d3 = angle.scaled_coeffs(denom)
    cuts = [(cut, cut.scaled_coeffs(denom)) for cut in partition.cuts]
    labels = []
    for step in range(n):
        index = 0
        for cut, (c0, c1, c2, c3) in cuts:
            relation = _int_sign((a0 - c0, a1 - c1, a2 - c2, a3 - c3))
            if relation == 0:
                raise HitsCut(cut, step)
            if relation < 0:
                break
            index += 1
        labels.append(partition.labels[index])
        a0, a1, a2, a3 = a0 + d0, a1 + d1, a2 + d2, a3 + d3
        if _int_sign((a0 - denom, a1, a2, a3)) >= 0:
            a0 -= denom
    return tuple(labels)


@dataclass(frozen=True)
class RotationCoding:
    """A coded rotation orbit: the angle, partition, start and word."""

    angle: FieldNumber
    partition: CirclePartition
    start: FieldNumber
    word: tuple[CellLabel, ...]

    @property
    def symbols(self) -> str:
        """The word as a plain string, one digit 1..7 per step."""
        return "".join(str(label.value) for label in self.word)

    def __len__(self) -> int:
        return len(self.word)


def rotation_coding(
    y0: FieldNumber,
    partition: CirclePartition,
    angle: FieldNumber,
    n: int,
) -> RotationCoding:
    word = code_orbit(y0, partition, angle, n)
    if not isinstance(y0, FieldNumber):
        y0 = FieldNumber(y0)
    return RotationCoding(angle=angle, partition=partition, start=y0, word=word)


def saddle_connection(
    a_i: FieldNumber,
    a_j: FieldNumber,
    alpha: FieldNumber,
    n_bound: Union[int, str] = "exact",
) -> Optional[int]:
    """Integer n with a_i - a_j = n*alpha (mod 1), or None.

    Two cuts connected this way merge under the orbit equivalence that
    controls coding complexity.  In exact mode the candidate n is read
    off the irrational coordinates (the shift by n*alpha moves them
    linearly and nothing else can), then verified; with an integer
    n_bound the window |n| <= n_bound is scanned instead, which is the
    slow cross-check.  Rational alpha is rejected: its orbit is finite
    and connection-counting degenerates.
    """
    if not isinstance(alpha, FieldNumber):
        alpha = FieldNumber(alpha)
    if alpha.is_rational:
        raise ValueError("rotation angle is rational; saddle connections degenerate")
    a_i = a_i if isinstance(a_i, FieldNumber) else FieldNumber(a_i)
    a_j = a_j if isinstance(a_j, FieldNumber) else FieldNumber(a_j)
    difference = a_i - a_j
    if n_bound != "exact":
        bound = int(n_bound)
        if bound < 0:
            raise ValueError("n_bound must be nonnegative")
        for magnitude in range(bound + 1):
            for n in {magnitude, -magnitude}:
                if reduce_mod1(difference - n * alpha).is_zero:
                    return n
        return None
    d_coeffs = difference.coeffs
    a_coeffs = alpha.coeffs
    candidate: Optional[Fraction] = None
    for i in (1, 2, 3):
        if a_coeffs[i] != 0:
            candidate = d_coeffs[i] / a_coeffs[i]
            break
    assert candidate is not None
    if candidate.denominator != 1:
        return None
    n = int(candidate)
    shifted = difference - n * alpha
    if not shifted.is_rational:
        return None
    if shifted.as_fraction().denominator != 1:
        return None
    return n


def zmodule_rank(generators: Sequence[FieldNumber]) -> int:
    """Rank of the Z-module spanned by 1 together with the generators.

    1 is always included: the ambient circle identifies integers with
    zero, so the constant is part of every steering set whether or not
    the caller lists it.  Since the four basis numbers are linearly
    independent over Q, the rank is the Q-dimension of the span, which
    Gaussian elimination over exact fractions computes directly.
    """
    rows = [[Fraction(1), Fraction(0), Fraction(0), Fraction(0)]]
    for g in generators:
        g = g if isinstance(g, FieldNumber) else FieldNumber(g)
        rows.append(list(g.coeffs))
    rank = 0
    for col in range(4):
        pivot = None
        for r in range(rank, len(rows)):
            if rows[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        head = rows[rank][col]
        for r in range(rank + 1, len(rows)):
            if rows[r][col] != 0:
                factor = rows[r][col] / head
                for c in range(col, 4):
                    rows[r][c] -= factor * rows[rank][c]
        rank += 1
    return rank


@dataclass(frozen=True)
class CodingComplexity:
    """Complexity profile of a coded orbit plus its fitted affine tail."""

    profile: ComplexityProfile
    slope: Optional[Fraction]
    intercept: Optional[Fraction]
    threshold: Optional[int]

    @property
    def law(self) -> Optional[tuple[Fraction, Fraction, int]]:
        if self.slope is None:
            return None
        return self.slope, self.intercept, self.threshold


def fit_complexity_tail(
    counts: Sequence[int],
) -> Optional[tuple[Fraction, Fraction, int]]:
    """Smallest n0 from which the counts p(1..top) are exactly affine."""
    top = len(counts)
    if top < 3:
        return None
    for n0 in range(1, top - 1):
        points = [(n, counts[n - 1]) for n in range(n0, top + 1)]
        law = fit_affine(points)
        if law is not None:
            return law[0], law[1], n0
    return None


def coding_complexity(rc: RotationCoding, n_max: int) -> CodingComplexity:
    """Measured factor counts of the coded word and their affine tail.

    The law is reported from the data, never assumed: the profile is
    computed on the word as given and the tail fit starts at the first
    n0 from which every stabilized count lies on one line.  Callers
    compare the slope against zmodule_rank predictions themselves.
    """
    profile = complexity(rc.symbols, n_max)
    law = fit_complexity_tail(profile.full_counts[: profile.stable_through])
    slope, intercept, threshold = law or (None, None, None)
    return CodingComplexity(
        profile=profile, slope=slope, intercept=intercept, threshold=threshold
    )
