"""Exact circle languages, the census across circles and union growth.

The complexity class of a trajectory word depends only on the circle
invariant s = y + z mod 1 of its start: s = 0, the four distinguished
golden values, and everything else.  So does its language, which
circle_language computes exactly, without tracing.  This module
samples s values on a stratified schedule, fits per-sample and
per-class affine laws on the exact counts, and unions the languages.

Two honesty rules shape the API.  Fitted laws are reported per sample,
not just per class, so a member whose tail deviates from its class
summary is visible rather than averaged away; rational invariants, for
instance, share the generic 4n+4 tail but realize a different set of
small factors than quartic ones.  And the union table is a certified
lower bound, nothing more; it grows with the sample count, and its
ratio column is read against DIRECTIONAL_CONSTANT, an unverified
target, not an estimate of it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

from .billiard import StartPoint, trace_letters, validate
from .exactnum import (
    PHI,
    SQRT2,
    FieldNumber,
    _dyadic,
    _field,
    _int_sign,
    _sorted_merged,
    common_denominator,
    reduce_mod1,
)
from .returns import TRANSLATION_ANGLE, CirclePartition, circle_partition
from .words import _prefix_counts, _windows, fit_complexity_tail

DIRECTIONAL_CONSTANT = (4 + PHI) / 6
"""Target constant for p(n)/n^2 of the full directional language."""

ZERO_CLASS = "zero"
GENERIC_CLASS = "generic"

SPECIAL_INVARIANTS = (
    (2 * PHI - 3, "s=2*phi-3"),
    (2 - PHI, "s=2-phi"),
    (PHI - 1, "s=phi-1"),
    (4 - 2 * PHI, "s=4-2*phi"),
)

_LAW = tuple[Fraction, Fraction, int]


def classify_s(s: FieldNumber) -> str:
    """Class label of a circle invariant: zero, one of four, or generic."""
    s = _field(s)
    if s.is_zero:
        return ZERO_CLASS
    for value, label in SPECIAL_INVARIANTS:
        if s == value:
            return label
    return GENERIC_CLASS


_RATIONAL_CADENCE = 16
_SCHEDULE_LIMIT = 1 + 4 + 50 + 97 * 88


@cache
def _farey_interior(n: int) -> tuple[tuple[int, int], ...]:
    """The Farey sequence F_n without 0/1 and 1/1: (p, q), coprime, in increasing order.

    The next-term recurrence: after consecutive terms a/b and c/d comes
    (k*c - a)/(k*d - b) with k = (n + b) // d, starting from 0/1, 1/n.
    Built on the first call for each n and shared by every later one.
    """
    terms = []
    a, b, c, d = 0, 1, 1, n
    while d > 1:
        terms.append((c, d))
        k = (n + b) // d
        a, b, c, d = c, d, k * c - a, k * d - b
    return tuple(terms)


def sample_schedule(total: int, seed: int = 0) -> list[FieldNumber]:
    """Stratified, deterministic list of circle invariants.

    The zero invariant and the four golden special values come first, so
    every prefix contains the circles with exceptional partitions.  The
    rest of the stream mixes its strata proportionally: every sixteenth
    slot draws the next of 50 seeded rationals with denominator at most
    64, and the remaining slots draw quartic points.  Spreading the
    rationals keeps the sampled union growing as the schedule lengthens
    instead of spending that stratum in one early burst.  The stream is
    generated in one fixed order, so a longer schedule with the same
    seed extends a shorter one prefix-for-prefix.  The strata hold
    _SCHEDULE_LIMIT distinct values; a longer schedule is rejected.

    The rationals are drawn from the 1259 fractions p/q in (0, 1) with
    q <= 64, in increasing order: the Farey sequence F_64 without its
    ends, generated on integers by _farey_interior.  random.sample picks
    by index, so drawing 50 indices of the pool takes the same choices
    and leaves the same generator state as sampling the sorted list of
    Fractions; only the 50 drawn become FieldNumbers.
    """
    if not 0 <= total <= _SCHEDULE_LIMIT:
        raise ValueError(f"total {total} outside 0..{_SCHEDULE_LIMIT} distinct invariants")
    rng = random.Random(seed)
    stream: list[FieldNumber] = [FieldNumber(0)]
    stream.extend(value for value, _ in SPECIAL_INVARIANTS)
    pool = _farey_interior(64)
    rationals = [
        FieldNumber(Fraction(*pool[i])) for i in rng.sample(range(len(pool)), 50)
    ]
    emitted = 0
    seen = set(stream)
    while len(stream) < total:
        slot = len(stream) - 5
        if emitted < len(rationals) and slot % _RATIONAL_CADENCE == 0:
            stream.append(rationals[emitted])
            emitted += 1
            continue
        u = Fraction(rng.randrange(0, 97), 97)
        v = Fraction(rng.randrange(1, 89), 89)
        s = reduce_mod1(FieldNumber(u) + FieldNumber(v) * SQRT2)
        if s in seen:
            continue
        seen.add(s)
        stream.append(s)
    return stream[:total]


_Y_CANDIDATES = tuple(Fraction(k, 23) for k in range(1, 23))


def _coerce_invariant(s) -> FieldNumber:
    return reduce_mod1(_field(s))


def representative_start(s: FieldNumber) -> StartPoint:
    """A face start with invariant s and neither coordinate zero."""
    s = _coerce_invariant(s)
    y = next(y for y in _Y_CANDIDATES if s != y)
    return StartPoint(0, y, reduce_mod1(s - y))


def _traced_words(samples: Iterable, length: int) -> Iterator[tuple[FieldNumber, str]]:
    """Each sample's invariant s and the traced word of representative_start(s).

    A sample whose start does not validate for length letters is skipped.
    """
    for raw in samples:
        s = _coerce_invariant(raw)
        start = representative_start(s)
        if validate(start, horizon=length).ok:
            yield s, trace_letters(start, length=length)


def circle_language(s, n: int) -> frozenset[str]:
    """Every length-n factor of the valid words on the circle s.

    With m = n // 2 + 3 and alpha = TRANSLATION_ANGLE, the points
    c - j*alpha mod 1 (c the wrap point 0 or a cut, 0 <= j < m) cut the
    circle into arcs on which the first m orbit labels are constant.
    Each arc's m blocks are joined, and the length-n windows starting
    in the first block are kept.  Alpha is irrational, so every valid
    trajectory on the circle visits every arc: each kept window is its
    factor.  Each block has at least 2 letters, so the m blocks hold
    n + 5 or more and cover every window starting in the first: each
    factor is kept.  The limit convention moves a start by
    epsilon*(0, +1, -1), which keeps s = y + z fixed, so corner starts
    read theirs here too.

    One sweep around the circle reads every arc's coding.  Step j of
    the orbit of y sits at y + j*alpha mod 1, which meets cut c_k
    exactly when y = c_k - j*alpha and the wrap point when
    y = -j*alpha, so between two consecutive points no step's label
    changes.  Crossing c_k - j*alpha upward moves step j into interval
    k + 1; crossing -j*alpha wraps step j to interval 0.  Each step has
    exactly one point per seed (0 and each cut), and no two coincide,
    since the cuts and 0 are distinct.  So on any arc, step j's label
    is the interval of the last of its points at or below the arc's
    start, read cyclically.  One lap over the sorted points therefore
    leaves every step in the interval it holds just below 0, and a
    second lap reads each arc's coding as the one before it with the
    steps tagged at its left end moved; no arc is coded on its own.
    The points are integer 4-vectors over one denominator, stepped by
    -alpha.  A point wraps when it falls below 0; as in rotation_coding,
    an exactnum._dyadic estimate stepped by integer adds, with an error
    bound growing by the angle's bound per step, decides that test, and
    only a point within its bound of 0 calls _int_sign.
    exactnum._sorted_merged certifies their order and merges coinciding
    ones (saddle connections), whose steps all move at once.  No float
    decides anything.
    """
    return _partition_language(circle_partition(_coerce_invariant(s)), n)


def _partition_language(partition: CirclePartition, n: int) -> frozenset[str]:
    """circle_language of the circle whose partition is given."""
    if n < 1:
        raise ValueError("factor length must be positive")
    steps = n // 2 + 3
    denom = common_denominator((TRANSLATION_ANGLE,) + partition.cuts)
    d0, d1, d2, d3 = TRANSLATION_ANGLE.scaled_coeffs(denom)
    step_estimate, step_error = _dyadic((d0, d1, d2, d3))
    one, _ = _dyadic((denom, 0, 0, 0))  # denom * 2**p, exactly
    seeds = [(0, 0, 0, 0)] + [cut.scaled_coeffs(denom) for cut in partition.cuts]
    points = []
    # a point of seed index `new` at step j moves step j into interval new
    for new, (a0, a1, a2, a3) in enumerate(seeds):
        estimate, error = _dyadic((a0, a1, a2, a3))
        for j in range(steps):
            points.append(((a0, a1, a2, a3), (j, new)))
            a0, a1, a2, a3 = a0 - d0, a1 - d1, a2 - d2, a3 - d3
            estimate -= step_estimate
            error += step_error
            # the point wraps when negative; the estimate decides unless within its error of 0
            if estimate < error and (estimate < -error or _int_sign((a0, a1, a2, a3)) < 0):
                a0 += denom
                estimate += one
    arcs = _sorted_merged(points)
    words = [label.word for label in partition.labels]
    # one lap leaves each step in the interval it holds just below 0
    blocks = [""] * steps
    for _, tags in arcs:
        for j, new in tags:
            blocks[j] = words[new]
    language = set()
    for _, tags in arcs:
        for j, new in tags:
            blocks[j] = words[new]
        word = "".join(blocks)
        language.update(word[i : i + n] for i in range(len(blocks[0])))
    return frozenset(language)


@dataclass(frozen=True)
class UnionComplexity:
    """Factor counts of the union of sampled languages."""

    sample_count: int
    counts: tuple[int, ...]

    def p(self, n: int) -> int:
        if not 1 <= n <= len(self.counts):
            raise ValueError(f"length {n} outside table range 1..{len(self.counts)}")
        return self.counts[n - 1]


@dataclass(frozen=True)
class ClassSummary:
    """One complexity class: members seen, partition size, fitted laws."""

    s_values: tuple[str, ...]
    k: int
    law: Optional[_LAW]
    sample_laws: tuple[Optional[_LAW], ...]


@dataclass(frozen=True)
class DirectionalCensus:
    """Per-class complexity laws plus the union factor table."""

    classes: dict[str, ClassSummary]
    union_counts: tuple[int, ...]

    def union_p(self, n: int) -> int:
        if not 1 <= n <= len(self.union_counts):
            raise ValueError(f"length {n} outside table range 1..{len(self.union_counts)}")
        return self.union_counts[n - 1]


def census(samples: Sequence, n_max: int) -> DirectionalCensus:
    """Exact languages per invariant, their laws, classes and union.

    Each sample contributes circle_language(s, n_max); its p(n) is the
    number of distinct length-n prefixes in that set, since every factor
    of a valid word extends to the right.  The per-sample law is fitted
    on those exact counts, and the union table counts the prefixes of
    the union of the languages.  A class whose circles differ in
    partition size raises, since it would falsify the classification.
    """
    languages: set[str] = set()
    buckets: dict[str, list] = {}
    for raw in samples:
        s = _coerce_invariant(raw)
        partition = circle_partition(s)
        language = _partition_language(partition, n_max)
        languages |= language
        law = fit_complexity_tail(_prefix_counts(language, n_max))
        buckets.setdefault(classify_s(s), []).append((s, partition.k, law))
    classes = {}
    for label, members in buckets.items():
        k = members[0][1]
        for _, other, _ in members:
            if other != k:
                raise ValueError(f"class {label} saw both k={k} and k={other}")
        # a quartic member, when there is one, speaks for the class
        quartic = [law for s, _, law in members if s.tag == "quartic"]
        classes[label] = ClassSummary(
            s_values=tuple(str(s) for s, _, _ in members),
            k=k,
            law=(quartic or [members[0][2]])[0],
            sample_laws=tuple(law for _, _, law in members),
        )
    return DirectionalCensus(classes=classes, union_counts=_prefix_counts(languages, n_max))


def union_complexity(samples: Sequence, n_max: int, prefix: int) -> UnionComplexity:
    """Factor counts of the union language over the sampled circles.

    One representative word per invariant; invalid starts are dropped
    silently since the union is a lower bound either way.  This route
    stays traced on purpose: it is the benchmark's union workload and
    the independent cross-check of census, whose exact union contains
    it at every length.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    if prefix < 2 * n_max:
        raise ValueError("prefix must be at least twice n_max for stable counts")
    windows: set[str] = set()
    used = 0
    for _, word in _traced_words(samples, prefix):
        windows |= _windows(word, n_max)
        used += 1
    return UnionComplexity(sample_count=used, counts=_prefix_counts(windows, n_max))
