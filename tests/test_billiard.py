"""Billiard engine: crossing order, wall conventions, validation."""

import itertools
import random
from fractions import Fraction

import pytest

from cubewords import billiard
from cubewords.billiard import (
    Direction,
    _AxisSpec,
    _merged_axes,
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
from cubewords.exactnum import PHI, SQRT2, FieldNumber, basis_approx, reduce_mod1

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


DIRECTIONS = [Direction(r) for r in (HALF, Fraction(1, 3), 5, Fraction(1, 100))]


def oracle(start, direction, length):
    """Letters, times and tie count of the first ``length`` raw crossings.

    A tie is a group of equal crossing times after t = 0 whose first
    crossing is among the first ``length``; the stream is read two
    crossings further so that a group cut by the length is still seen.
    """
    stream = list(itertools.islice(raw_crossings(start, direction), length + 2))
    ties = sum(
        1
        for i in range(min(length, len(stream) - 1))
        if stream[i][0] > 0
        and stream[i][0] == stream[i + 1][0]
        and (i == 0 or stream[i - 1][0] != stream[i][0])
    )
    head = stream[:length]
    return "".join(letter for _, letter in head), tuple(time for time, _ in head), ties


def engine_starts(rng, count):
    """Seeded random starts plus wall, corner and tied starts."""
    starts = [random_start(rng) for _ in range(count)]
    starts += [StartPoint(*corner) for corner in itertools.product((0, 1), repeat=3)]
    starts += [
        StartPoint(0, HALF, Fraction(1, 3)),
        StartPoint(HALF, 0, 2 - PHI),
        StartPoint(HALF, SQRT2 - 1, 1),
        StartPoint(1, 0, 2 - PHI),
        StartPoint(0, HALF, (3 - PHI) / 2),  # b and c tie at phi/2
        StartPoint(0, 4 - 2 * PHI, Fraction(1, 3)),  # b and a tie at 2
        StartPoint(0, 4 - 2 * PHI, 2 * PHI - 3),  # a, b and c tie at 2
    ]
    return starts


def assert_engine_matches_oracle(start, direction, length):
    word, times, ties = oracle(start, direction, length)
    timed = trace(start, direction, length)
    assert timed.word == word, (start, direction, length)
    assert timed.times == times
    assert timed.tie_count == ties
    assert trace_letters(start, direction, length) == word


def test_engine_matches_raw_crossings():
    starts = engine_starts(random.Random(8117), 24)
    for direction in DIRECTIONS:
        for start in starts:
            for length in (0, 1, 2, 3, 40):
                assert_engine_matches_oracle(start, direction, length)
    for start in starts[:3] + starts[-2:]:
        assert_engine_matches_oracle(start, GOLDEN_DIRECTION, 1000)


def test_engine_across_chunk_boundaries(monkeypatch):
    # A chunk of a few crossings puts many chunk boundaries, and the tied
    # pairs, inside short words.
    starts = engine_starts(random.Random(3301), 10)
    for chunk in (1, 2, 7):
        monkeypatch.setattr(billiard, "_CHUNK", chunk)
        for direction in DIRECTIONS:
            for start in starts:
                for length in (1, 3, 8, 30):
                    assert_engine_matches_oracle(start, direction, length)
    monkeypatch.undo()
    start = StartPoint(0, 4 - 2 * PHI, Fraction(1, 3))
    assert_engine_matches_oracle(start, GOLDEN_DIRECTION, 2 * billiard._CHUNK + 5)


def fibonacci(k):
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def near_tie_start(k, n=5, side=1):
    """x = 0 and y = frac(-2n(phi - 1)) shifted by the unit F(k+1) - F(k)*phi.

    Unshifted, the b crossing of plane 7 meets the a crossing at t = 2n;
    the shift moves it by the unit times phi, about phi**-k.
    """
    unit = fibonacci(k + 1) - fibonacci(k) * PHI
    return StartPoint(0, reduce_mod1(-2 * n * (PHI - 1)) + side * unit, Fraction(1, 3))


def dyadic_gap(start, length):
    """Exact gap and 64-bit dyadic estimate of the gap between the near-tied crossings."""
    stream = list(itertools.islice(raw_crossings(start), length))
    near = [time for time, _ in stream if abs(time - 10) < Fraction(1, 10**6)]
    assert len(near) == 2
    gap = near[1] - near[0]
    scaled = gap.scaled_coeffs(gap._den)
    return gap.sign(), sum(a * e for a, e in zip(scaled, basis_approx(64)))


def counting_int_sign(monkeypatch):
    calls = []
    real = billiard._int_sign
    monkeypatch.setattr(billiard, "_int_sign", lambda vector: calls.append(vector) or real(vector))
    return calls


def test_near_tie_runs_the_exact_resort(monkeypatch):
    calls = counting_int_sign(monkeypatch)
    assert trace_letters(StartPoint(0, HALF, Fraction(1, 3)), length=60)
    assert calls == []  # a start far from ties never leaves the dyadic sort
    for side in (1, -1):
        start = near_tie_start(47, side=side)
        sign, estimate = dyadic_gap(start, 60)
        assert sign > 0 and estimate > 0  # close, yet estimated in order
        del calls[:]
        assert_engine_matches_oracle(start, GOLDEN_DIRECTION, 60)
        assert calls
        assert trace(start, length=60).tie_count == 0


def test_misordered_dyadic_keys_are_resorted(monkeypatch):
    # Like F(48) - F(47)*phi in test_exactnum, the unit of k = 48 is
    # smaller than phi's rounding error times F(48): the 64-bit estimates
    # of the two crossing times come out in the wrong order.
    calls = counting_int_sign(monkeypatch)
    for k in (48, 50):
        for side in (1, -1):
            start = near_tie_start(k, side=side)
            sign, estimate = dyadic_gap(start, 60)
            assert sign > 0 and estimate < 0
            del calls[:]
            assert_engine_matches_oracle(start, GOLDEN_DIRECTION, 60)
            assert calls


def sorted_progressions(specs, count):
    """Spec indices and tie count of the first ``count`` crossings, by sorting.

    Each axis contributes count + 1 planes, more than the first count
    crossings can use; (time, index) pairs sort in exact time order with
    the spec index breaking ties.
    """
    events = sorted(
        ((n - spec.offset) * spec.inverse_speed, index)
        for index, spec in enumerate(specs)
        for n in range(1, count + 2)
    )
    ties = sum(
        1
        for i in range(count)
        if events[i][0] == events[i + 1][0] and (i == 0 or events[i - 1][0] != events[i][0])
    )
    return bytes(index for _, index in events[:count]), ties


def test_merge_of_crafted_progressions(monkeypatch):
    # Equal speeds put a near-tie at every plane, and with two axes of one
    # speed each chunk ends between a pair: the offsets differ by
    # F(49) - F(48)*phi, whose 64-bit estimate has the wrong sign, so the
    # cut must leave a margin to the first missing plane.
    unit = fibonacci(49) - fibonacci(48) * PHI
    offset = reduce_mod1(FieldNumber(Fraction(2, 7), 3))
    cases = [
        [(offset, PHI), (offset + unit, PHI)],
        [(offset + unit, PHI), (offset, PHI)],
        [(offset, PHI), (offset + unit, PHI), (offset - unit, PHI)],
        [(offset, PHI), (offset, PHI)],  # a tie at every plane
        [(FieldNumber(0), FieldNumber(2)), (offset, PHI), (offset, PHI)],
        [(FieldNumber(Fraction(1, 3)), FieldNumber(3))],
    ]
    rng = random.Random(2719)
    for _ in range(6):
        start = random_start(rng)
        cases.append([(start.coords[i], speed) for i, speed in enumerate((FieldNumber(2), PHI, PHI + 1))])
    for chunk in range(1, 10):
        monkeypatch.setattr(billiard, "_CHUNK", chunk)
        for case in cases:
            specs = [_AxisSpec("abc"[i], o, v, False, None) for i, (o, v) in enumerate(case)]
            for count in (0, 1, 2, 5, 24):
                assert _merged_axes(specs, count) == sorted_progressions(specs, count)


def test_large_coordinates_raise_the_precision(monkeypatch):
    # Coordinates with 20-digit coefficients put the 64-bit error margin
    # near the spacing of the crossings; 64 bits once looped without end
    # on such starts.  The merge doubles its precision instead.
    precisions = []
    real = billiard.basis_approx
    monkeypatch.setattr(billiard, "basis_approx", lambda p: precisions.append(p) or real(p))
    big = 10**20
    starts = [
        StartPoint(
            Fraction(1, 3),
            reduce_mod1(FieldNumber(3 * big + 1, -7 * big // 3)),
            reduce_mod1(FieldNumber(-5 * big - 3, 11 * big // 7)),
        )
    ]
    for k in (90, 300):
        unit = fibonacci(k + 1) - fibonacci(k) * PHI
        starts.append(StartPoint(Fraction(1, 3), HALF + unit, Fraction(1, 3) - unit * (SQRT2 - 1)))
    for start in starts:
        del precisions[:]
        assert_engine_matches_oracle(start, GOLDEN_DIRECTION, 300)
        assert max(precisions) > 64
    monkeypatch.setattr(billiard, "_CHUNK", 3)
    assert_engine_matches_oracle(starts[0], GOLDEN_DIRECTION, 40)


def test_close_run_across_the_cut(monkeypatch):
    # With 18-digit coefficients the margin is a few percent of a step;
    # at two crossings per chunk these starts put a run of close keys
    # across the cut, which then moves back to the start of the run.
    monkeypatch.setattr(billiard, "_CHUNK", 2)
    for y, z in (
        ((1424573006152855226, -880434537258077611), (230898118047886747, -142702884891979530)),
        ((1274514560379939783, -787693317471432882), (475730430364433921, -294017575447835188)),
    ):
        start = StartPoint(Fraction(1, 3), FieldNumber(*y), FieldNumber(*z))
        assert_engine_matches_oracle(start, GOLDEN_DIRECTION, 60)
