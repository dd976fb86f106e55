"""Billiard engine: crossing order, wall conventions, validation."""

import copy
import dataclasses
import itertools
import pickle
import random
import re
from array import array
from fractions import Fraction

import pytest

from cubewords import billiard
from cubewords.billiard import (
    Direction,
    _axes,
    _cube_axes,
    _merged_axes,
    _min_mod,
    _valid_letters,
    GOLDEN_DIRECTION,
    SimultaneousCrossing,
    StartPoint,
    Validation,
    delete_letter,
    letter_frequencies,
    trace,
    trace_letters,
    validate,
)
from cubewords.exactnum import PHI, SQRT2, FieldNumber, basis_approx, reduce_mod1
from oracles import cube_axis_specs, floor_sum, raw_crossings, square_trace

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
    assert square_trace(0, HALF, 8) == "bcbbcbbc"  # a lone y wall writes its b
    assert square_trace(0, HALF, 12) == square_trace(1, HALF, 12)
    assert square_trace(0, 0, 4) == "cbcb"  # the corner drops its y crossing


def test_other_family_member():
    word = trace_letters(StartPoint(0, HALF, HALF), Direction(Fraction(1, 3)), 12)
    assert word == "abcbacbbacbb"
    freq = letter_frequencies(Direction(Fraction(1, 3)))
    assert freq["a"] == FieldNumber(Fraction(1, 4))


def test_direction_and_start_validation():
    with pytest.raises(ValueError, match="^the rational speed r must be positive$"):
        Direction(0)
    with pytest.raises(ValueError, match="^the rational speed r must be positive$"):
        Direction(Fraction(-1, 2))
    # a float is not exact: 0.1 would be stored as 3602879701896397/2**55
    for value in (0.1, 0.5, 2.0):
        with pytest.raises(TypeError, match="r must be int, Fraction or str, not float$"):
            Direction(value)
    with pytest.raises(ValueError, match=r"^coordinate a=2 outside \[0, 1\]$"):
        StartPoint(2, 0, 0)
    with pytest.raises(ValueError, match=r"^coordinate b=-1/3 outside \[0, 1\]$"):
        StartPoint(0, -Fraction(1, 3), 0)
    with pytest.raises(ValueError, match=r"^coordinate c=1\*phi outside \[0, 1\]$"):
        StartPoint(0, 0, PHI)
    assert StartPoint(0, 0, 1).integral_axes == "abc"
    assert StartPoint(0, HALF, 1).integral_axes == "ac"
    assert not StartPoint(0, HALF, HALF).is_degenerate
    with pytest.raises(TypeError, match="int or Fraction, not float"):
        StartPoint(0, 0.5, 0.25)
    # grammar strings still parse
    assert StartPoint("0", "1/2", "2-phi") == StartPoint(0, HALF, 2 - PHI)


def test_records_compare_and_hash_by_value():
    # int, Fraction, str and FieldNumber inputs coerce to one stored value
    directions = [Direction(2), Direction(Fraction(2)), Direction("2"), Direction("4/2")]
    starts = [
        StartPoint(0, HALF, 1),
        StartPoint(Fraction(0), "1/2", FieldNumber(1)),
        StartPoint("0", FieldNumber(HALF), Fraction(2, 2)),
    ]
    for records in (directions, starts):
        assert all(record == records[0] for record in records)
        assert len({hash(record) for record in records}) == 1
        assert len(set(records)) == 1
    assert Direction() == GOLDEN_DIRECTION == Direction("1/2")
    assert Direction(2) != Direction(3) and Direction(2) != 2
    assert StartPoint(0, HALF, 1) != StartPoint(0, HALF, HALF)
    assert type(directions[2].r) is Fraction
    assert all(type(value) is FieldNumber for value in starts[1].coords)
    assert starts[1].coords == (starts[1].x, starts[1].y, starts[1].z)


def test_records_are_frozen_dataclasses():
    assert [field.name for field in dataclasses.fields(Direction)] == ["r"]
    assert [field.name for field in dataclasses.fields(StartPoint)] == ["x", "y", "z"]
    direction, start = Direction(Fraction(1, 3)), StartPoint(0, HALF, HALF)
    for record, name in ((direction, "r"), (start, "x"), (start, "z"), (start, "w")):
        with pytest.raises(AttributeError):
            setattr(record, name, 1)
    assert direction.r == Fraction(1, 3) and start.coords == (0, HALF, HALF)
    assert repr(GOLDEN_DIRECTION) == "Direction(Fraction(1, 2))"
    assert repr(StartPoint(0, HALF, HALF)) == "StartPoint(0, 1/2, 1/2)"
    assert repr(StartPoint(0, "1/3", 2 - PHI)) == "StartPoint(0, 1/3, 2-1*phi)"


@pytest.mark.parametrize("route", ["copy", "deepcopy", "pickle"])
def test_records_holding_field_numbers_copy_and_pickle(route):
    round_trip = {
        "copy": copy.copy,
        "deepcopy": copy.deepcopy,
        "pickle": lambda value: pickle.loads(pickle.dumps(value)),
    }[route]
    tied = StartPoint(0, HALF, (3 - PHI) / 2)
    records = [
        StartPoint(0, "1/2", "1/3"),
        StartPoint(0, 0, SQRT2 - 1),
        tied,
        validate(tied, horizon=20),  # ties with FieldNumber times
        validate(StartPoint(0, HALF, HALF), horizon=200),
        trace(tied, length=24),  # times included
        trace(StartPoint(0, 0, 2 - PHI), length=300),
    ]
    assert records[3].ties and records[5].times
    for record in records:
        copied = round_trip(record)
        assert type(copied) is type(record)
        assert copied == record and hash(copied) == hash(record)


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


def test_validate_rejects_a_negative_horizon():
    with pytest.raises(ValueError, match="^horizon must be nonnegative$"):
        validate(StartPoint(0, HALF, HALF), horizon=-1)


def test_delete_letter_rejects_more_than_one_letter():
    for letter in ("ab", ""):
        with pytest.raises(ValueError, match="^letter must be a single character$"):
            delete_letter("abcab", letter)


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


# One interior value per axis.  With x on a wall, y = 4 - 2*phi crosses
# plane 2 as x crosses plane 1, a b-a tie at t = 2 for r = 1/2.
WALL_PATTERN_VALUES = [(0, Fraction(3, 10), 1), (0, 4 - 2 * PHI, 1), (0, HALF, 1)]


@pytest.mark.parametrize("direction", DIRECTIONS, ids=lambda direction: f"r={direction.r}")
def test_engine_matches_raw_crossings_on_every_wall_pattern(direction):
    # all 27 patterns of {0, interior, 1} per axis: the head at t = 0, the
    # offset of a coordinate on a wall and the tie order, against the
    # oracle's own set-up
    for coords in itertools.product(*WALL_PATTERN_VALUES):
        start = StartPoint(*coords)
        for length in (0, 1, 2, 3, 40):
            assert_engine_matches_oracle(start, direction, length)
        report = assert_validate_matches_fractions(start, direction, 40)
        assert report.degenerate_start == (sum(value in (0, 1) for value in coords) >= 2)


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


def counting_exact_resorts(monkeypatch):
    calls = []
    real = billiard._sorted_merged

    def spy(rows):
        calls.append(list(rows))
        return real(calls[-1])

    monkeypatch.setattr(billiard, "_sorted_merged", spy)
    return calls


def test_near_tie_runs_the_exact_resort(monkeypatch):
    calls = counting_exact_resorts(monkeypatch)
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
    calls = counting_exact_resorts(monkeypatch)
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

    specs are (letter, offset, inverse speed) triples, as cube_axis_specs
    gives them.  Each axis contributes count + 1 planes, more than the
    first count crossings can use; (time, index) pairs sort in exact time
    order with the spec index breaking ties.
    """
    events = sorted(
        ((n - offset) * speed, index)
        for index, (_, offset, speed) in enumerate(specs)
        for n in range(1, count + 2)
    )
    ties = sum(
        1
        for i in range(count)
        if events[i][0] == events[i + 1][0] and (i == 0 or events[i - 1][0] != events[i][0])
    )
    return bytes(index for _, index in events[:count]), ties


def crafted_axes(case):
    """The specs of sorted_progressions and the engine's _axes for (offset, inverse speed) pairs."""
    specs = [("abc"[i], offset, speed) for i, (offset, speed) in enumerate(case)]
    offsets, speeds = zip(*case)
    return specs, _axes("abc"[: len(case)], "", offsets, speeds)


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
            specs, axes = crafted_axes(case)
            for count in (0, 1, 2, 5, 24):
                assert _merged_axes(axes, count) == sorted_progressions(specs, count)


def test_ties_of_commensurate_speeds(monkeypatch):
    # An axis of inverse speed 2v or 3v ties with one of speed v at every
    # second or third plane.  The shifted steps are floored, so such ties
    # get keys up to one per plane apart, which the margin must cover,
    # and the faster axis may get the smaller key of a tie, which must
    # still come out in tie rank order.
    third = FieldNumber(Fraction(1, 3))
    zero = FieldNumber(0)
    cases = [
        [(zero, 2 * PHI), (zero, PHI)],
        [(third, 2 * PHI), (2 * third, PHI)],
        [(zero, 2 * (PHI + 1)), (zero, PHI + 1)],
        [(zero, 2 * SQRT2 * PHI), (zero, SQRT2 * PHI), (third, PHI)],
        [(zero, 3 * PHI), (zero, PHI)],
    ]
    for chunk in (5, 4096):
        monkeypatch.setattr(billiard, "_CHUNK", chunk)
        for case in cases:
            specs, axes = crafted_axes(case)
            for count in (5, 24, 100):
                assert _merged_axes(axes, count) == sorted_progressions(specs, count)


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


def test_floor_sum_matches_brute_force():
    rng = random.Random(6151)
    cases = [(0, 7, 3, 2), (0, 1, -(10**30), 10**30), (5, 1, 0, 0)]
    for scale in (60, 2**47):
        for _ in range(300):
            m = rng.randint(1, scale)
            n = rng.randint(0, 40)
            cases.append((n, m, rng.randint(-3 * m, 3 * m), rng.randint(-3 * m, 3 * m)))
    assert any(a >= m for _, m, a, _ in cases) and any(b >= m for _, m, _, b in cases)
    for n, m, a, b in cases:
        assert floor_sum(n, m, a, b) == sum((a * j + b) // m for j in range(n)), (n, m, a, b)


def test_on_wall_reads_integers_only():
    integers = [FieldNumber(0), FieldNumber(1), FieldNumber(2)]
    others = [FieldNumber(HALF), PHI - 1, SQRT2 - 1, reduce_mod1(SQRT2 / 3 + PHI)]
    assert [billiard._on_wall(value) for value in integers + others] == [True] * 3 + [False] * 4


def test_min_mod_matches_brute_force():
    rng = random.Random(6152)
    cases = [(0, 7, 3, 2), (1, 1, -5, 9), (1, 200, -401, 399), (300, 200, 0, -7)]
    for _ in range(3000):
        m = rng.randint(1, 200)
        n = rng.randint(1, 300)
        cases.append((n, m, rng.randint(-400, 400), rng.randint(-400, 400)))
        cases.append((n, m, m * rng.randint(-2, 2), rng.randint(-400, 400)))  # a = 0 mod m
        cases.append((1, m, rng.randint(-400, 400), rng.randint(-400, 400)))
    assert any(a < 0 for _, _, a, _ in cases) and any(b < 0 for _, _, _, b in cases)
    for n, m, a, b in cases:
        expected = min(((a * j + b) % m for j in range(n)), default=m)
        assert _min_mod(n, m, a, b) == expected, (n, m, a, b)


def test_gate_verdict_matches_the_floor_sum_count():
    # _merged_axes clears a pair of axes when the least (a*j + b) mod m
    # exceeds 2g; the reference count of near planes is zero exactly then.
    rng = random.Random(6153)
    verdicts = set()
    for _ in range(20000):
        m = rng.randint(3, 2 ** rng.randint(2, 62))
        g = rng.randint(0, min((m - 1) // 2, 2 ** rng.randint(0, 62)))
        n = rng.randint(0, 5000)
        a, b = rng.randint(-3 * m, 3 * m), rng.randint(-3 * m, 3 * m)
        count = floor_sum(n, m, a, b) - floor_sum(n, m, a, b - 2 * g - 1)
        clear = _min_mod(n, m, a, b) > 2 * g
        assert clear == (count == 0), (n, m, a, b, g)
        verdicts.add(clear)
    assert verdicts == {True, False}


def large_denominator_start(rng):
    """A start whose crossing times share a denominator above 2**41."""
    def fraction():
        denominator = 2**41 + rng.randrange(1, 2**20)
        return Fraction(rng.randrange(1, denominator), denominator)

    y = reduce_mod1(FieldNumber(fraction(), Fraction(rng.randint(-8, 8), 3)))
    z = reduce_mod1(FieldNumber(fraction(), fraction(), Fraction(rng.randint(-8, 8), 5)))
    return StartPoint(fraction(), y, z)


LARGE_DENOMINATOR_STARTS = [large_denominator_start(random.Random(seed)) for seed in (41, 42, 43)]


def test_large_denominators_merge_like_the_oracles(monkeypatch):
    for start in LARGE_DENOMINATOR_STARTS:
        steps = _cube_axes(start, GOLDEN_DIRECTION).steps
        assert steps[0][1] > 2**40  # D * phi, the step of axis b
    # more crossings than one chunk holds
    start = LARGE_DENOMINATOR_STARTS[0]
    assert_engine_matches_oracle(start, GOLDEN_DIRECTION, billiard._CHUNK + 300)
    for chunk in (1, 2, 7):
        monkeypatch.setattr(billiard, "_CHUNK", chunk)
        for start in LARGE_DENOMINATOR_STARTS:
            for direction in DIRECTIONS:
                assert_engine_matches_oracle(start, direction, 30)
                merged = _merged_axes(_cube_axes(start, direction), 40)
                assert merged == sorted_progressions(cube_axis_specs(start, direction), 40)


def test_precision_doubles_on_large_denominators_and_coefficients(monkeypatch):
    # 30-digit coefficients over a 2**41 denominator: at 64 bits the
    # margin is far above the shifted step, so the merge doubles p.  The
    # 64-bit estimates and the bounds come from one _dyadic call per step
    # and shift vector, so basis_approx is first asked for 128 bits.
    events = []
    real_basis, real_dyadic = billiard.basis_approx, billiard._dyadic

    def dyadic(vector, *basis):
        if not basis:
            events.append(vector)
        return real_dyadic(vector, *basis)

    monkeypatch.setattr(billiard, "basis_approx", lambda p: events.append(p) or real_basis(p))
    monkeypatch.setattr(billiard, "_dyadic", dyadic)
    big = 10**30
    start = LARGE_DENOMINATOR_STARTS[1]
    start = StartPoint(
        start.x,
        reduce_mod1(start.y + FieldNumber(0, big) + FieldNumber(-big * 1618034 // 10**6)),
        start.z,
    )
    axes = _cube_axes(start, GOLDEN_DIRECTION)
    for chunk in (2, 4096):
        monkeypatch.setattr(billiard, "_CHUNK", chunk)
        del events[:]
        _merged_axes(axes, 200)
        precisions = [event for event in events if isinstance(event, int)]
        first = events.index(precisions[0])
        assert precisions[0] == 128 and max(precisions) > 64
        assert events[:first] == [*axes.steps, *axes.shifts]
        assert_engine_matches_oracle(start, GOLDEN_DIRECTION, 200)


def test_near_tie_in_the_second_chunk_runs_the_exact_resort(monkeypatch):
    # The a crossing at t = 3000 and a b crossing about phi**-50 from it
    # are near crossing 4500, past the first chunk of 4096.
    calls = counting_exact_resorts(monkeypatch)
    for side in (1, -1):
        start = near_tie_start(50, n=1500, side=side)
        del calls[:]
        assert trace_letters(start, length=4000)
        assert calls == []
        assert_engine_matches_oracle(start, GOLDEN_DIRECTION, 4700)
        assert calls


def fraction_pair_ties(first, second, time_bound):
    """The Fraction route to _pair_ties: Cramer's rule on the coefficients.

    first and second are (letter, offset, inverse speed) triples of
    cube_axis_specs.
    """
    first_letter, first_offset, first_speed = first
    second_letter, second_offset, second_speed = second
    p, q = first_speed.coeffs, second_speed.coeffs
    r = (first_offset * first_speed - second_offset * second_speed).coeffs
    det = q[0] * p[1] - p[0] * q[1]
    n = (q[0] * r[1] - q[1] * r[0]) / det
    m = (p[0] * r[1] - p[1] * r[0]) / det
    if not all(n * p[i] - m * q[i] == r[i] for i in range(4)):
        return []
    if n.denominator != 1 or m.denominator != 1 or n < 1 or m < 1:
        return []
    time = (FieldNumber(n) - first_offset) * first_speed
    if time > time_bound:
        return []
    return [SimultaneousCrossing(time, first_letter + second_letter, (int(n), int(m)))]


def fraction_validate(start, direction=GOLDEN_DIRECTION, horizon=1000):
    """The Fraction route to validate, pair by pair over cube_axis_specs.

    A start is degenerate when two or more of its offsets are 0, that is,
    when two or more coordinates lie on walls.
    """
    time_bound = FieldNumber(horizon + 3) / direction.speed_sum
    specs = cube_axis_specs(start, direction)
    ties = [
        tie
        for first, second in itertools.combinations(specs, 2)
        for tie in fraction_pair_ties(first, second, time_bound)
    ]
    ties.sort(key=lambda event: event.time)
    degenerate = sum(offset == 0 for _, offset, _ in specs) >= 2
    return Validation(degenerate_start=degenerate, ties=tuple(ties))


def assert_validate_matches_fractions(start, direction=GOLDEN_DIRECTION, horizon=1000):
    report = validate(start, direction, horizon)
    assert report == fraction_validate(start, direction, horizon), (start, direction, horizon)
    return report


def test_validate_matches_fractions_on_random_starts():
    rng = random.Random(6502)
    for start in engine_starts(rng, 120):
        for direction in DIRECTIONS:
            for horizon in (0, 7, 1000):
                assert_validate_matches_fractions(start, direction, horizon)


# One tie per axis pair, each at planes (1, 1): x = 3/10 and y = 1 - (7/5)(phi - 1)
# meet at t = 7/5, y = 1 - phi/2 and z = 1/2 at t = phi/2, and x = 3/10 and
# z = 1.4*phi - 1.8 at t = 7/5.
CONSTRUCTED_TIES = [
    (StartPoint(Fraction(3, 10), 1 - Fraction(7, 5) * (PHI - 1), Fraction(1, 3)), "ba"),
    (StartPoint(Fraction(1, 3), 1 - PHI / 2, HALF), "bc"),
    (StartPoint(Fraction(3, 10), Fraction(1, 3), Fraction(7, 5) * PHI - Fraction(9, 5)), "ac"),
]


@pytest.mark.parametrize("start, letters", CONSTRUCTED_TIES)
def test_validate_flags_one_tie_per_axis_pair(start, letters):
    report = assert_validate_matches_fractions(start, horizon=20)
    assert not report.ok
    assert [(tie.letters, tie.planes) for tie in report.ties] == [(letters, (1, 1))]


def late_tie_start(n):
    """x = 3/10 crosses plane n together with y, which crosses plane m; (start, time, m)."""
    time = 2 * (n - Fraction(3, 10))
    m = (time * (PHI - 1)).floor() + 1
    return StartPoint(Fraction(3, 10), m - time * (PHI - 1), Fraction(1, 3)), time, m


@pytest.mark.parametrize("n", [1, 2, 50, 700])
def test_validate_at_the_time_bound(n):
    # time_bound = (horizon + 3) / speed_sum, so the tie first counts at
    # the smallest horizon whose bound reaches its time.
    start, time, m = late_tie_start(n)
    speed_sum = GOLDEN_DIRECTION.speed_sum
    inside = -((-time * speed_sum).floor()) - 3
    report = assert_validate_matches_fractions(start, horizon=inside)
    assert [tie.time for tie in report.ties] == [time]
    assert report.ties[0].planes == (m, n)
    assert FieldNumber(inside + 3) / speed_sum >= time
    if inside >= 1:
        beyond = assert_validate_matches_fractions(start, horizon=inside - 1)
        assert beyond.ok
        assert FieldNumber(inside + 2) / speed_sum < time
    assert_validate_matches_fractions(start, horizon=inside + 1)


@pytest.mark.parametrize(
    "coords",
    [
        *itertools.product((0, 1), repeat=3),
        (0, 0, 2 - PHI),
        (0, 0, SQRT2 - 1),
        (1, HALF, 0),
        (HALF, 1, 1),
        (0, 4 - 2 * PHI, 1),
    ],
)
def test_validate_matches_fractions_on_degenerate_starts(coords):
    for direction in DIRECTIONS:
        report = assert_validate_matches_fractions(StartPoint(*coords), direction, 50)
        assert report.degenerate_start
        assert report.reason == "degenerate_start"


def large_start(digits, rng):
    """A face start whose y and z have coefficients of about ``digits`` digits."""
    low = 10 ** (digits - 1)

    def coefficient():
        return rng.choice((1, -1)) * rng.randrange(low, 10 * low)

    y = reduce_mod1(FieldNumber(coefficient(), Fraction(coefficient(), 7)))
    z = reduce_mod1(
        FieldNumber(coefficient(), Fraction(coefficient(), 3), coefficient(), coefficient())
    )
    return StartPoint(0, y, z)


LARGE_STARTS = [large_start(digits, random.Random(digits)) for digits in (40, 40, 80, 80)]


@pytest.mark.parametrize("start", LARGE_STARTS)
def test_large_starts_trace_like_raw_crossings(start):
    letters = "".join(letter for _, letter in itertools.islice(raw_crossings(start), 2000))
    assert trace_letters(start, length=2000) == letters


@pytest.mark.parametrize("start", LARGE_STARTS)
def test_large_starts_validate_like_fractions(start):
    for horizon in (10, 2000):
        assert assert_validate_matches_fractions(start, horizon=horizon).ok
    # x placed to cross plane n when y crosses plane 3: a tie with large coefficients
    time = (3 - start.y) * PHI
    n = (time / 2).floor() + 1
    tied = StartPoint(n - time / 2, start.y, start.z)
    report = assert_validate_matches_fractions(tied, horizon=50)
    assert [(tie.time, tie.letters, tie.planes) for tie in report.ties] == [(time, "ba", (3, n))]


def test_valid_letters_is_validate_then_trace_letters():
    # one set-up serves both checks: the word where validate passes, else None
    starts = engine_starts(random.Random(2929), 30)
    starts += [start for start, _ in CONSTRUCTED_TIES]
    starts += [late_tie_start(n)[0] for n in (1, 50, 700)]
    for start in starts:
        for direction in DIRECTIONS[:2]:
            for length in (0, 1, 40, 2500):
                valid = validate(start, direction, horizon=length).ok
                expected = trace_letters(start, direction, length=length) if valid else None
                assert _valid_letters(start, length, direction) == expected, (start, length)
    assert any(_valid_letters(start, 2500) is None for start in starts)
    assert any(_valid_letters(start, 2500) for start in starts)


def test_direction_constants_are_kept_and_identity_is_r():
    used, fresh = Direction("1/2"), Direction(HALF)
    assert used.inverse_speeds is used.inverse_speeds
    assert used.speeds is used.speeds and used.speed_sum is used.speed_sum
    assert used.inverse_speeds == (FieldNumber(2), PHI, PHI + 1)
    assert used.speeds == (FieldNumber(HALF), PHI - 1, 2 - PHI)
    assert used.speed_sum == FieldNumber(Fraction(3, 2))
    # the kept constants take no part in equality, hashing or copies
    assert used == fresh and hash(used) == hash(fresh) and len({used, fresh}) == 1
    for copied in (copy.copy(used), pickle.loads(pickle.dumps(used))):
        assert copied == fresh and hash(copied) == hash(fresh)
        assert copied.inverse_speeds == used.inverse_speeds
    third = dataclasses.replace(used, r=Fraction(1, 3))
    assert third.inverse_speeds[0] == FieldNumber(3) and third.speed_sum == Fraction(4, 3)
    assert third != used and used.inverse_speeds[0] == FieldNumber(2)


def test_start_keeps_its_wall_letters():
    # the crossing set-up and validation both read integral_axes, built once
    start, fresh = StartPoint(0, HALF, 1), StartPoint(0, HALF, 1)
    assert start.integral_axes is start.integral_axes
    assert start.integral_axes == "ac" and start.is_degenerate
    # the kept letters take no part in equality, hashing or copies
    assert start == fresh and hash(start) == hash(fresh)
    copied = pickle.loads(pickle.dumps(start))
    assert copied == fresh and copied.integral_axes == "ac"


def golden_unit_above_zero():
    """F(41)*phi - F(42) = phi**-41, a positive golden number of about 2.7e-9."""
    return fibonacci(41) * PHI - fibonacci(42)


def test_start_rejects_just_outside_coordinates():
    quartic = FieldNumber(1)
    for _ in range(30):
        quartic = quartic * (SQRT2 - 1)  # about 3e-12
    for tiny in (FieldNumber(Fraction(1, 10**30)), quartic, golden_unit_above_zero()):
        assert 0 < tiny < Fraction(1, 10**8)
        for index, axis in enumerate("abc"):
            for value in (-tiny, 1 + tiny):
                coords = [HALF, HALF, HALF]
                coords[index] = value
                message = rf"^coordinate {axis}={re.escape(str(value))} outside \[0, 1\]$"
                with pytest.raises(ValueError, match=message):
                    StartPoint(*coords)
            for value in (tiny, 1 - tiny, FieldNumber(0), FieldNumber(1)):
                coords = [HALF, HALF, HALF]
                coords[index] = value
                assert StartPoint(*coords).coords[index] == value


def test_key_words_are_eight_bytes():
    # the tagged keys 4*K + axis are below 2**62 and are read back as the
    # low byte of each array item
    assert array(billiard._WORD).itemsize == 8
