"""Circle rotations, orbit codings and the rank bookkeeping behind them.

Consecutive returns to the face X = 0 add the same exact angle to the
Y coordinate, so everything about return words reduces to coding an
irrational rotation against an interval partition, which
returns.code_orbit does exactly.  This module writes a coding as a
string of cell digits, measures the complexity profile of that string,
whose law is the affine tail of the stable counts, and computes the
Z-module rank of the numbers steering a coding, which predicts the
slope of that law.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .exactnum import FieldNumber, _field
from .returns import CirclePartition, code_orbit
from .words import ComplexityProfile, complexity


def rotation_coding(
    y0: FieldNumber,
    partition: CirclePartition,
    angle: FieldNumber,
    n: int,
) -> str:
    """The first n labels of code_orbit as a string, one digit 1..7 per step."""
    # label._value_ is the stored value; .value and hashing an Enum run Python code
    labels = code_orbit(y0, partition, angle, n)
    return bytes([ord("0") + label._value_ for label in labels]).decode()


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
        rows.append(list(_field(g).coeffs))
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


def coding_complexity(coding: str, n_max: int) -> ComplexityProfile:
    """Measured factor counts of the coded word; the profile's law is their affine tail.

    The law is reported from the data, never assumed: the profile is
    computed on the word as given and its tail fit starts at the first
    n0 from which every stabilized count lies on one line.  Callers
    compare the slope against zmodule_rank predictions themselves.
    """
    return complexity(coding, n_max)
