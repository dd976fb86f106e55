"""The ten acceptance criteria, one verdict line each.

Every test prints its criterion's pass/fail line before asserting, so
a full run leaves a readable scoreboard.  The module-scoped context
caches the three reference traces; whichever test touches a word first
pays its tracing cost.  Expected values are frozen: a criterion that
the build cannot meet fails here rather than being weakened.  An
expected value changes only when an independent route refutes it, as
the slice-set counts in test_words.py refute the old 4n-1 law of
criterion 3.  Criteria 1-3 read their laws off traced words, which
bound p(n) from below; the circle-language test after them bounds it
from above, so the three laws are certified through n = 100.
"""

import random
from fractions import Fraction

import pytest

from cubewords.billiard import StartPoint, trace_letters
from cubewords.directional import circle_language
from cubewords.exactnum import PHI, SQRT2, FieldNumber
from cubewords.verification import (
    VerificationContext,
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
)


@pytest.fixture(scope="module")
def ctx():
    return VerificationContext()


def _report(result):
    print()
    print(result.line)
    assert result.passed, result.detail


def test_criterion_01_interior_complexity_law(ctx):
    _report(criterion_1(ctx))


def test_criterion_02_corner_complexity_law(ctx):
    _report(criterion_2(ctx))


def test_criterion_03_quartic_start_laws(ctx):
    _report(criterion_3(ctx))


# The circles s = y + z mod 1 of the three reference starts and the
# frozen laws of criteria 1-3 as counts p(1..100).
_FROZEN_LAWS = {
    "interior": (FieldNumber(0), [3] + [2 * n + 3 for n in range(2, 101)]),
    "golden": (2 - PHI, [3 * n for n in range(1, 8)] + [2 * n + 8 for n in range(8, 101)]),
    "quartic": (SQRT2 - 1, [3, 6, 9, 14, 19, 25, 31] + [4 * n + 4 for n in range(8, 101)]),
}


@pytest.mark.parametrize("key", sorted(_FROZEN_LAWS))
def test_criteria_01_to_03_laws_are_upper_bounds(ctx, key):
    s, law = _FROZEN_LAWS[key]
    language = circle_language(s, 100)
    assert [len({w[:n] for w in language}) for n in range(1, 101)] == law
    word = ctx.word(key)
    assert {word[i : i + 100] for i in range(len(word) - 99)} <= language


def test_criterion_04_reconstruction_equals_tracing(ctx):
    _report(criterion_4(ctx))


def test_criterion_05_return_word_predictions(ctx):
    _report(criterion_5(ctx))


def test_criterion_06_circle_census(ctx):
    _report(criterion_6(ctx))


def test_criterion_07_rank_predicts_slope(ctx):
    _report(criterion_7(ctx))


def test_criterion_08_second_difference_identity(ctx):
    _report(criterion_8(ctx))


def test_criterion_09_projection_and_frequency(ctx):
    _report(criterion_9(ctx))


def test_criterion_09_count_bound_holds_and_decides(ctx):
    # |3*#a - len(word)| <= 7, derived in criterion_9, on random starts and lengths
    rng = random.Random(909)
    for _ in range(60):
        start = StartPoint(*(Fraction(rng.randrange(0, 41), 40) for _ in range(3)))
        word = trace_letters(start, length=rng.randrange(1, 3000))
        assert abs(3 * word.count("a") - len(word)) <= 7, start

    class Skewed(VerificationContext):
        def word(self, key):
            # "ba" adds one a per two letters, raising 3*#a - length by one
            base = ctx.word(key)
            return base + "ba" * (8 - (3 * base.count("a") - len(base)))

    result = criterion_9(Skewed())
    assert not result.passed
    assert result.detail == "interior word: 3*#a - length = 8, outside -7..7"


def test_criterion_10_union_growth_trend(ctx):
    _report(criterion_10(ctx))
