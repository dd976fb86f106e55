"""Billiard engine: crossing order, wall conventions, validation."""

import itertools
import random
from fractions import Fraction

import pytest

from cubewords.billiard import (
    Direction,
    GOLDEN_DIRECTION,
    StartPoint,
    delete_letter,
    letter_frequencies,
    raw_crossings,
    square_trace,
    trace,
    trace_letters,
    validate,
)
from cubewords.exactnum import PHI, SQRT2, FieldNumber, reduce_mod1

HALF = Fraction(1, 2)


def random_start(rng):
    """Starts mixing rational, golden and quartic coordinates."""
    def coordinate():
        kind = rng.randrange(4)
        if kind == 0:
            return FieldNumber(Fraction(rng.randrange(0, 7), rng.randrange(1, 7)) % 1)
        c0 = Fraction(rng.randint(-8, 8), rng.randint(1, 5))
        c1 = Fraction(rng.randint(-8, 8), rng.randint(1, 5))
        if kind == 1:
            return reduce_mod1(FieldNumber(c0, c1))
        c2 = Fraction(rng.randint(-8, 8), rng.randint(1, 5))
        return reduce_mod1(FieldNumber(c0, c1, c2))
    return StartPoint(coordinate(), coordinate(), coordinate())


def test_frozen_interior_face_word():
    bw = trace(StartPoint(0, HALF, HALF), length=16)
    assert bw.word == "abcabcabbacbabca"
    assert bw.tie_count == 0
    assert bw.times[:4] == (FieldNumber(0), PHI / 2, (PHI + 1) / 2, FieldNumber(2))


def test_frozen_degenerate_words():
    # Starts with two wall coordinates follow the limit convention:
    # a emitted at t = 0, the y crossing dropped, ties resolve b first.
    assert trace_letters(StartPoint(0, 0, 2 - PHI), length=24) == "abcabacbabcabcbabacbabca"
    assert trace_letters(StartPoint(0, 0, SQRT2 - 1), length=24) == "acbabacbabcabcbabacbabca"
    assert trace_letters(StartPoint(0, 0, 0), length=24) == "acbacbabcabcabbacbabcabc"


def test_face_words_begin_with_face_letter():
    assert trace_letters(StartPoint(0, HALF, Fraction(1, 3)), length=1) == "a"
    assert trace_letters(StartPoint(HALF, 0, Fraction(1, 3)), length=1) == "b"
    assert trace_letters(StartPoint(HALF, Fraction(1, 3), 0), length=1) == "c"
    assert trace_letters(StartPoint(HALF, Fraction(1, 3), 1), length=1) == "c"


def test_origin_first_crossing_after_zero():
    stream = raw_crossings(StartPoint(0, 0, 0))
    events = list(itertools.islice(stream, 3))
    assert [letter for _, letter in events] == ["a", "c", "b"]
    time = events[2][0]
    assert time == PHI
    x, y, z = (time * speed for speed in GOLDEN_DIRECTION.speeds)
    assert x == PHI / 2
    assert y == FieldNumber(1)
    assert z == PHI - 1


def test_simultaneous_crossing_is_a_counted_tie():
    # y = 1/2 and z = (3 - phi)/2 cross their first planes together at phi/2
    start = StartPoint(0, HALF, (3 - PHI) / 2)
    bw = trace(start, length=24)
    assert bw.word == "abcabcabbacbacbabcabbcab"
    assert bw.tie_count == 1
    assert bw.times[1] == bw.times[2] == PHI / 2
    assert bw.word[1:3] == "bc"


def test_validate_flags_that_tie():
    start = StartPoint(0, HALF, (3 - PHI) / 2)
    report = validate(start, horizon=20)
    assert not report.ok
    assert not report.degenerate_start
    assert len(report.ties) >= 1
    tie = report.ties[0]
    assert tie.time == PHI / 2
    assert tie.letters == "bc"
    assert tie.planes == (1, 1)


def test_validate_flags_ab_tie():
    # y = 4 - 2*phi meets plane 2 exactly when x = 0 meets plane 1, at t = 2
    start = StartPoint(0, 4 - 2 * PHI, Fraction(1, 3))
    report = validate(start, horizon=20)
    assert not report.ok
    tie = report.ties[0]
    assert tie.time == FieldNumber(2)
    assert tie.letters == "ba"
    assert tie.planes == (2, 1)


def test_validate_accepts_clean_start():
    report = validate(StartPoint(0, HALF, HALF), horizon=2000)
    assert report.ok
    assert report.ties == ()
    assert not report.degenerate_start


def test_validate_rejects_degenerate_start():
    report = validate(StartPoint(0, 0, 2 - PHI), horizon=10)
    assert not report.ok
    assert report.degenerate_start
    assert report.reason == "degenerate_start"


def test_two_routes_agree_on_random_starts():
    rng = random.Random(40918)
    for _ in range(40):
        start = random_start(rng)
        n = 120
        fast = trace_letters(start, length=n)
        slow = "".join(
            letter for _, letter in itertools.islice(raw_crossings(start), n)
        )
        assert fast == slow
        rich = trace(start, length=n)
        assert rich.word == fast


def test_times_are_nondecreasing_and_land_on_walls():
    rng = random.Random(77)
    for _ in range(10):
        start = random_start(rng)
        bw = trace(start, length=60)
        for earlier, later in zip(bw.times, bw.times[1:]):
            assert earlier <= later
        for letter, time in zip(bw.word, bw.times):
            axis = "abc".index(letter)
            landing = start.coords[axis] + time * GOLDEN_DIRECTION.speeds[axis]
            assert landing.is_rational
            assert landing.as_fraction().denominator == 1


def test_letter_counts_match_frequencies():
    word = trace_letters(StartPoint(0, HALF, HALF), length=3000)
    freq = letter_frequencies()
    assert freq["a"] == FieldNumber(Fraction(1, 3))
    assert freq["b"] == (2 * PHI - 2) / 3
    assert freq["c"] == (4 - 2 * PHI) / 3
    assert sum(freq.values(), FieldNumber(0)) == FieldNumber(1)
    for letter in "abc":
        observed = word.count(letter) / 3000
        assert abs(observed - float(freq[letter])) < 0.01


def test_square_trace_is_projection_of_cube_trace():
    cases = [
        (HALF, HALF),
        (Fraction(1, 3), Fraction(2, 7)),
        (reduce_mod1(PHI * 3), reduce_mod1(FieldNumber(0, 0, 1, 1))),
    ]
    for y, z in cases:
        cube = trace_letters(StartPoint(HALF, y, z), length=900)
        flat = delete_letter(cube, "a")
        assert square_trace(y, z, len(flat)) == flat


def test_square_trace_wall_convention():
    assert square_trace(HALF, 0, 1) == "c"
    assert square_trace(0, HALF, 12) == square_trace(1, HALF, 12)
    assert square_trace(0, 0, 4) == "cbcb"


def test_other_family_member():
    word = trace_letters(StartPoint(0, HALF, HALF), Direction(Fraction(1, 3)), 12)
    assert word == "abcbacbbacbb"
    freq = letter_frequencies(Direction(Fraction(1, 3)))
    assert freq["a"] == FieldNumber(Fraction(1, 4))


def test_direction_and_start_validation():
    with pytest.raises(ValueError):
        Direction(0)
    with pytest.raises(ValueError):
        Direction(Fraction(-1, 2))
    with pytest.raises(ValueError):
        StartPoint(2, 0, 0)
    with pytest.raises(ValueError):
        StartPoint(0, -Fraction(1, 3), 0)
    assert StartPoint(0, 0, 1).integral_axes == "abc"
    assert StartPoint(0, HALF, 1).integral_axes == "ac"
    assert not StartPoint(0, HALF, HALF).is_degenerate
    with pytest.raises(TypeError, match="int or Fraction, not float"):
        StartPoint(0, 0.5, 0.25)
    # grammar strings still parse
    assert StartPoint("0", "1/2", "2-phi") == StartPoint(0, HALF, 2 - PHI)


def test_zero_and_tiny_lengths():
    assert trace_letters(StartPoint(0, HALF, HALF), length=0) == ""
    assert trace_letters(StartPoint(0, 0, 0), length=2) == "ac"
    bw = trace(StartPoint(0, 0, 0), length=1)
    assert bw.word == "a"
    assert bw.times == (FieldNumber(0),)


def test_negative_length_rejected():
    start = StartPoint(0, HALF, HALF)
    for call in (
        lambda: trace(start, length=-1),
        lambda: trace(start, length=-1, with_times=False),
        lambda: trace_letters(start, length=-1),
        lambda: square_trace(HALF, HALF, -1),
    ):
        with pytest.raises(ValueError, match="length must be nonnegative"):
            call()


def test_trace_without_times():
    tied = StartPoint(0, HALF, (3 - PHI) / 2)
    walls = (StartPoint(0, 0, 0), StartPoint(0, 0, 1))
    for start in (StartPoint(0, HALF, HALF), *walls, tied):
        timed = trace(start, length=300)
        bare = trace(start, length=300, with_times=False)
        assert bare.times is None
        assert bare.word == timed.word == trace_letters(start, length=300)
        assert bare.tie_count == timed.tie_count
    assert trace(tied, length=300, with_times=False).tie_count == 1


def test_square_trace_checks_coordinates():
    with pytest.raises(ValueError, match="coordinate b="):
        square_trace(2, HALF, 4)
    with pytest.raises(ValueError, match="coordinate c="):
        square_trace(HALF, -HALF, 4)
