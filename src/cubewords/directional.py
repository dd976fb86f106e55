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
from fractions import Fraction
from typing import Optional, Sequence

from .billiard import StartPoint, trace_letters, validate
from .exactnum import PHI, SQRT2, FieldNumber, reduce_mod1
from .returns import circle_partition
from .rotation import TRANSLATION_ANGLE, code_orbit, fit_complexity_tail

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
    if not isinstance(s, FieldNumber):
        s = FieldNumber(s)
    if s.is_zero:
        return ZERO_CLASS
    for value, label in SPECIAL_INVARIANTS:
        if s == value:
            return label
    return GENERIC_CLASS


_RATIONAL_CADENCE = 16
_SCHEDULE_LIMIT = 1 + 4 + 50 + 97 * 88


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
    """
    if not 0 <= total <= _SCHEDULE_LIMIT:
        raise ValueError(f"total {total} outside 0..{_SCHEDULE_LIMIT} distinct invariants")
    rng = random.Random(seed)
    stream: list[FieldNumber] = [FieldNumber(0)]
    stream.extend(value for value, _ in SPECIAL_INVARIANTS)
    pool = sorted(
        {
            Fraction(p, q)
            for q in range(2, 65)
            for p in range(1, q)
        }
    )
    rationals = [FieldNumber(f) for f in rng.sample(pool, 50)]
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
    if not isinstance(s, FieldNumber):
        s = FieldNumber(s)
    return reduce_mod1(s)


def representative_start(s: FieldNumber) -> StartPoint:
    """A face start with invariant s and neither coordinate zero."""
    s = _coerce_invariant(s)
    y = next(y for y in _Y_CANDIDATES if s != y)
    return StartPoint(0, y, reduce_mod1(s - y))


def circle_language(s, n: int) -> frozenset[str]:
    """Every length-n factor of the valid words on the circle s.

    With m = n // 2 + 3 and alpha = TRANSLATION_ANGLE, the points
    c - j*alpha mod 1 (c the wrap point 0 or a cut, 0 <= j < m) cut the
    circle into arcs on which the first m orbit labels are constant.
    Each arc's midpoint is coded for m steps, its blocks are joined,
    and the length-n windows starting in the first block are kept.
    A midpoint's orbit meets no cut and no wrap point, so code_orbit
    never raises.  Alpha is irrational, so every valid trajectory on
    the circle visits every arc: each kept window is its factor.  Each
    block has at least 2 letters, so the m blocks hold n + 5 or more
    and cover every window starting in the first: each factor is
    kept.  The limit convention moves a start by epsilon*(0, +1, -1),
    which keeps s = y + z fixed, so corner starts read theirs here too.
    """
    if n < 1:
        raise ValueError("factor length must be positive")
    s = _coerce_invariant(s)
    partition = circle_partition(s)
    steps = n // 2 + 3
    seeds = (FieldNumber(0),) + partition.cuts
    points = sorted(
        {reduce_mod1(c - j * TRANSLATION_ANGLE) for c in seeds for j in range(steps)}
    )
    language = set()
    for lo, hi in zip(points, points[1:] + [FieldNumber(1)]):
        blocks = [
            label.word
            for label in code_orbit((lo + hi) / 2, partition, TRANSLATION_ANGLE, steps)
        ]
        word = "".join(blocks)
        language.update(word[i : i + n] for i in range(len(blocks[0])))
    return frozenset(language)


class _UnionAccumulator:
    """Distinct factor windows of many words, one fixed window size.

    Full-size windows are collected as a set; the last window - 1
    letters of each word are kept separately so shorter lengths can
    count the windows that only occur near a word's end.
    """

    def __init__(self, window: int) -> None:
        if window < 1:
            raise ValueError("window must be positive")
        self.window = window
        self.grams: set[str] = set()
        self.tails: set[str] = set()

    def add(self, word: str) -> None:
        w = self.window
        if len(word) < w:
            self.tails.add(word)
            return
        grams = self.grams
        for i in range(len(word) - w + 1):
            grams.add(word[i : i + w])
        if w > 1:
            self.tails.add(word[len(word) - w + 1 :])

    def counts(self) -> tuple[int, ...]:
        result = []
        for n in range(1, self.window + 1):
            seen = {gram[:n] for gram in self.grams}
            for tail in self.tails:
                for i in range(len(tail) - n + 1):
                    seen.add(tail[i : i + n])
            result.append(len(seen))
        return tuple(result)


@dataclass(frozen=True)
class UnionComplexity:
    """Factor counts of the union of sampled languages."""

    n_max: int
    prefix: int
    sample_count: int
    counts: tuple[int, ...]

    def p(self, n: int) -> int:
        if not 1 <= n <= self.n_max:
            raise ValueError(f"length {n} outside table range 1..{self.n_max}")
        return self.counts[n - 1]

    def s(self, n: int) -> int:
        return self.p(n + 1) - self.p(n)

    def ratio(self, n: int) -> float:
        """p(n)/n^2, to be read against DIRECTIONAL_CONSTANT."""
        return self.p(n) / (n * n)

    def difference_ratio(self, n: int) -> float:
        """s(n)/n, to be read against twice DIRECTIONAL_CONSTANT."""
        return self.s(n) / n


@dataclass(frozen=True)
class ClassSummary:
    """One complexity class: members seen, partition size, fitted laws."""

    label: str
    s_values: tuple[str, ...]
    k: int
    law: Optional[_LAW]
    sample_laws: tuple[Optional[_LAW], ...]


@dataclass(frozen=True)
class DirectionalCensus:
    """Per-class complexity laws plus the union factor table."""

    classes: dict[str, ClassSummary]
    union_counts: tuple[int, ...]
    n_max: int
    sample_count: int

    def union_p(self, n: int) -> int:
        if not 1 <= n <= self.n_max:
            raise ValueError(f"length {n} outside table range 1..{self.n_max}")
        return self.union_counts[n - 1]


def _prefix_counts(language, n_max: int) -> tuple[int, ...]:
    return tuple(len({word[:n] for word in language}) for n in range(1, n_max + 1))


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
        language = circle_language(s, n_max)
        languages |= language
        law = fit_complexity_tail(_prefix_counts(language, n_max))
        buckets.setdefault(classify_s(s), []).append((s, circle_partition(s).k, law))
    classes = {}
    for label, members in buckets.items():
        k = members[0][1]
        for _, other, _ in members:
            if other != k:
                raise ValueError(f"class {label} saw both k={k} and k={other}")
        # a quartic member, when there is one, speaks for the class
        quartic = [law for s, _, law in members if s.tag == "quartic"]
        classes[label] = ClassSummary(
            label=label,
            s_values=tuple(str(s) for s, _, _ in members),
            k=k,
            law=(quartic or [members[0][2]])[0],
            sample_laws=tuple(law for _, _, law in members),
        )
    return DirectionalCensus(
        classes=classes,
        union_counts=_prefix_counts(languages, n_max),
        n_max=n_max,
        sample_count=len(samples),
    )


def union_complexity(samples: Sequence, n_max: int, prefix: int) -> UnionComplexity:
    """Factor counts of the union language over the sampled circles.

    One representative word per invariant; invalid starts are dropped
    silently since the union is a lower bound either way.  This route
    stays traced on purpose: it is the benchmark's union workload and
    the independent cross-check of census, whose exact union contains
    it at every length.
    """
    if prefix < 2 * n_max:
        raise ValueError("prefix must be at least twice n_max for stable counts")
    union = _UnionAccumulator(n_max)
    used = 0
    for raw in samples:
        s = _coerce_invariant(raw)
        start = representative_start(s)
        if not validate(start, horizon=prefix).ok:
            continue
        union.add(trace_letters(start, length=prefix))
        used += 1
    return UnionComplexity(
        n_max=n_max, prefix=prefix, sample_count=used, counts=union.counts()
    )
