"""Census of languages across starting circles and their union growth.

The complexity class of a trajectory word depends only on the circle
invariant s = y + z mod 1 of its start: s = 0, the four distinguished
golden values, and everything else.  This module samples s values on a
stratified schedule, fits the per-class affine complexity laws from
traced words, cross-checks that equal-s starts generate identical
factor sets, and accumulates the union language whose quadratic growth
estimates the directional complexity constant.

Two honesty rules shape the API.  Fitted laws are reported per sample,
not just per class, so a member whose tail deviates from its class
summary is visible rather than averaged away; rational invariants, for
instance, share the generic 4n+4 tail but realize a different set of
small factors than quartic ones.  And the union table is a certified
lower bound, nothing more; it grows with the sample count and the
ratio column exists to watch the trend, not to assert the limit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .billiard import StartPoint, trace_letters, validate
from .exactnum import PHI, SQRT2, FieldNumber, reduce_mod1
from .returns import circle_partition
from .rotation import fit_complexity_tail
from .words import complexity

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
    seed extends a shorter one prefix-for-prefix.
    """
    if total < 0:
        raise ValueError("total must be nonnegative")
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


def representative_start(s: FieldNumber, variant: int = 0) -> StartPoint:
    """A face start with invariant s; variants give distinct points."""
    if not isinstance(s, FieldNumber):
        s = FieldNumber(s)
    if variant < 0:
        raise ValueError("variant must be nonnegative")
    usable = [y for y in _Y_CANDIDATES if FieldNumber(y) != s]
    y = usable[variant % len(usable)]
    return StartPoint(0, y, reduce_mod1(s - y))


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
    prefix: int
    sample_count: int
    skipped: tuple[tuple[str, str], ...]

    def union_p(self, n: int) -> int:
        if not 1 <= n <= self.n_max:
            raise ValueError(f"length {n} outside table range 1..{self.n_max}")
        return self.union_counts[n - 1]


def _coerce_invariant(s) -> FieldNumber:
    if not isinstance(s, FieldNumber):
        s = FieldNumber(s)
    return reduce_mod1(s)


def _factors(word: str, n: int) -> set[str]:
    return {word[i : i + n] for i in range(len(word) - n + 1)}


def census(samples: Sequence, n_max: int, prefix: int) -> DirectionalCensus:
    """Trace a representative per invariant and fit class laws.

    Each sample is verified against a second start on the same circle:
    the two factor sets must agree at every mutually stabilized length,
    which is the strongest per-sample check the window supports (equal
    sets at the longest such length give equal sets below it).  A
    disagreement is raised, not recorded: it would falsify the
    invariance the whole census is built on.  Starts whose trajectories
    fail validation are recorded in skipped and contribute nothing.
    """
    if prefix < 2 * n_max:
        raise ValueError("prefix must be at least twice n_max for stable counts")
    union = _UnionAccumulator(n_max)
    buckets: dict[str, dict] = {}
    skipped: list[tuple[str, str]] = []
    used = 0
    for raw in samples:
        s = _coerce_invariant(raw)
        label = classify_s(s)
        first = representative_start(s, 0)
        second = representative_start(s, 1)
        bad = None
        for start in (first, second):
            check = validate(start, horizon=prefix)
            if not check.ok:
                bad = check.reason
                break
        if bad is not None:
            skipped.append((str(s), bad))
            continue
        word = trace_letters(first, length=prefix)
        twin = trace_letters(second, length=prefix)
        profile = complexity(word, n_max)
        twin_profile = complexity(twin, n_max)
        stable = min(profile.stable_through, twin_profile.stable_through)
        for n in range(1, stable + 1):
            if profile.p(n) != twin_profile.p(n):
                raise ValueError(
                    f"equal-s starts disagree at length {n} on circle s={s}"
                )
        if stable and _factors(word, stable) != _factors(twin, stable):
            raise ValueError(f"equal-s starts have different factors, s={s}")
        law = fit_complexity_tail(profile)
        union.add(word)
        used += 1
        bucket = buckets.setdefault(
            label, {"s_values": [], "laws": [], "k": None, "law": None, "law_tag": None}
        )
        k = circle_partition(s).k
        if bucket["k"] is None:
            bucket["k"] = k
        elif bucket["k"] != k:
            raise ValueError(f"class {label} saw both k={bucket['k']} and k={k}")
        bucket["s_values"].append(str(s))
        bucket["laws"].append(law)
        prefer = s.tag == "quartic"
        if bucket["law"] is None or (prefer and bucket["law_tag"] != "quartic"):
            bucket["law"] = law
            bucket["law_tag"] = s.tag
    classes = {
        label: ClassSummary(
            label=label,
            s_values=tuple(b["s_values"]),
            k=b["k"],
            law=b["law"],
            sample_laws=tuple(b["laws"]),
        )
        for label, b in buckets.items()
    }
    return DirectionalCensus(
        classes=classes,
        union_counts=union.counts(),
        n_max=n_max,
        prefix=prefix,
        sample_count=used,
        skipped=tuple(skipped),
    )


def union_complexity(samples: Sequence, n_max: int, prefix: int) -> UnionComplexity:
    """Factor counts of the union language over the sampled circles.

    One representative word per invariant; invalid starts are dropped
    silently since the union is a lower bound either way.
    """
    if prefix < 2 * n_max:
        raise ValueError("prefix must be at least twice n_max for stable counts")
    union = _UnionAccumulator(n_max)
    used = 0
    for raw in samples:
        s = _coerce_invariant(raw)
        start = representative_start(s, 0)
        if not validate(start, horizon=prefix).ok:
            continue
        union.add(trace_letters(start, length=prefix))
        used += 1
    return UnionComplexity(
        n_max=n_max, prefix=prefix, sample_count=used, counts=union.counts()
    )
