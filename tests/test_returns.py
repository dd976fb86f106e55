"""Face partition, return words and circle partitions.

The six interval partitions frozen here were derived by hand from the
cut-candidate algebra (seam, horizontal, vertical, red, blue solved
against both circle branches) and double-checked by walking each
interval midpoint through the cell predicate before the implementation
ran.  The sweep tests then compare every cell assignment against
return words observed in actual traces.
"""

import itertools
import logging
import random
from fractions import Fraction

import pytest

from cubewords import returns
from cubewords.billiard import GOLDEN_DIRECTION, Direction, StartPoint, trace_letters, validate
from cubewords.directional import SPECIAL_INVARIANTS, _farey_interior, sample_schedule
from cubewords.exactnum import PHI, SQRT2, FieldNumber, common_denominator, reduce_mod1
from cubewords.returns import (
    TRANSLATION_ANGLE,
    CellLabel,
    FacePartition,
    HitsCut,
    InsufficientOccurrences,
    OnBoundary,
    _circle_cut_candidates,
    _translated_face_point,
    cell_of,
    circle_partition,
    kth_return_prediction,
    predict_return_words,
    reconstruct,
    return_words,
    translation_step,
)
from oracles import (
    blue_z,
    empirical_cells,
    field_cut_candidates,
    interval_of,
    label_of,
    lengths,
    red_z,
    scanned_return_words,
)

F = FieldNumber
A1, A2, A3, A4, A5, A6, A7 = CellLabel


def fr(*args) -> FieldNumber:
    return FieldNumber(Fraction(*args))


KNOWN_PARTITIONS = [
    (
        F(0),
        (2 - PHI, 4 - 2 * PHI),
        (A1, A2, A4),
    ),
    (
        2 * PHI - 3,
        (2 * PHI - 3, 7 - 4 * PHI, 4 - 2 * PHI, 9 - 5 * PHI),
        (A7, A1, A2, A3, A5),
    ),
    (
        2 - PHI,
        (5 - 3 * PHI, 2 - PHI, PHI - 1, 4 - 2 * PHI),
        (A2, A7, A1, A2, A3),
    ),
    (
        PHI - 1,
        (5 - 3 * PHI, 2 - PHI, PHI - 1, 4 - 2 * PHI),
        (A1, A2, A7, A1, A3),
    ),
    (
        4 - 2 * PHI,
        (2 * PHI - 3, 7 - 4 * PHI, 4 - 2 * PHI, 3 * PHI - 4),
        (A1, A2, A7, A6, A3),
    ),
    (
        SQRT2 - 1,
        (
            (PHI - 1) * (SQRT2 - 1) + 3 - 2 * PHI,
            SQRT2 + 2 - 2 * PHI,
            SQRT2 - 1,
            (PHI - 1) * (SQRT2 - 1) + 2 - PHI,
            4 - 2 * PHI,
        ),
        (A1, A2, A7, A1, A2, A3),
    ),
]


def random_face_point(rng):
    kind = rng.randrange(3)
    y = Fraction(rng.randrange(1, 97), 97)
    z = Fraction(rng.randrange(1, 89), 89)
    if kind == 0:
        return F(y), F(z)
    if kind == 1:
        return reduce_mod1(F(y) + Fraction(rng.randrange(1, 7), 7) * PHI), F(z)
    return F(y), reduce_mod1(F(z) + Fraction(rng.randrange(1, 5), 5) * SQRT2)


def golden_unit(k):
    """F(k+1) - F(k)*phi for the Fibonacci numbers F, about phi**-k in size."""
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return b - a * PHI


def field_cell_of(y, z):
    """cell_of on FieldNumber arithmetic, the route the integer classifier replaced: the oracle.

    The open square is four FieldNumber comparisons and each curve the
    sign of a FieldNumber difference with FacePartition's constants.
    """
    if not (FieldNumber(0) < y < 1 and FieldNumber(0) < z < 1):
        raise ValueError(f"point ({y}, {z}) outside the open unit square")
    horizontal = (z - FacePartition.HORIZONTAL_Z).sign()
    vertical = (y - FacePartition.VERTICAL_Y).sign()
    if vertical == 0:
        raise OnBoundary("vertical", (y, z))
    if horizontal == 0:
        raise OnBoundary("horizontal", (y, z))
    if horizontal < 0:
        return A7 if vertical < 0 else A4
    red = (z - red_z(y)).sign()
    if red == 0:
        raise OnBoundary("red", (y, z))
    if vertical < 0:
        return A2 if red < 0 else A1
    if red > 0:
        return A6
    blue = (z - blue_z(y)).sign()
    if blue == 0:
        raise OnBoundary("blue", (y, z))
    return A3 if blue > 0 else A5


def field_kth_return_prediction(m, k):
    """kth_return_prediction on FieldNumbers: the translate, reduced mod 1, then the oracle."""
    return field_cell_of(*_translated_face_point(m, k, Fraction(1, 2)))


def outcome(route, *args):
    """A route's label, or what it raised: the curve and point of OnBoundary, the text of ValueError."""
    try:
        return route(*args)
    except OnBoundary as exc:
        return ("boundary", exc.curve, exc.point, str(exc))
    except ValueError as exc:
        return ("error", str(exc))


class TestCellLabel:
    def test_block_table(self):
        assert A1.word == "acb"
        assert A2.word == "abc"
        assert A3.word == "abcb"
        assert A4.word == "abb"
        assert A5.word == "abbc"
        assert A6.word == "acbb"
        assert A7.word == "ab"

    def test_blocks_are_single_a(self):
        for label in CellLabel:
            assert label.word[0] == "a"
            assert label.word.count("a") == 1

    def test_str(self):
        assert str(A4) == "a4"


class TestCellOf:
    def test_center_point(self):
        assert cell_of(fr(1, 2), fr(1, 2)) is A2

    def test_lower_right(self):
        assert cell_of(fr(9, 10), fr(1, 10)) is A4

    def test_all_seven_reachable(self):
        probes = {
            A1: (fr(1, 5), fr(4, 5)),
            A2: (fr(1, 2), fr(1, 2)),
            A3: (fr(22, 25), fr(1, 2)),
            A4: (fr(9, 10), fr(1, 10)),
            A5: (fr(22, 25), fr(3, 10)),
            A6: (fr(22, 25), fr(19, 20)),
            A7: (fr(7, 10), fr(1, 10)),
        }
        for label, (y, z) in probes.items():
            assert cell_of(y, z) is label

    def test_vertical_boundary(self):
        with pytest.raises(OnBoundary) as exc:
            cell_of(4 - 2 * PHI, fr(1, 2))
        assert exc.value.curve == "vertical"

    def test_horizontal_boundary(self):
        with pytest.raises(OnBoundary) as exc:
            cell_of(fr(1, 3), 2 * PHI - 3)
        assert exc.value.curve == "horizontal"

    def test_red_boundary(self):
        y = fr(1, 2)
        with pytest.raises(OnBoundary) as exc:
            cell_of(y, red_z(y))
        assert exc.value.curve == "red"

    def test_blue_boundary(self):
        y = fr(9, 10)
        with pytest.raises(OnBoundary) as exc:
            cell_of(y, blue_z(y))
        assert exc.value.curve == "blue"

    def test_anti_diagonal_does_not_reject(self):
        assert cell_of(fr(1, 2), fr(1, 2)) is A2
        assert cell_of(fr(1, 5), fr(4, 5)) is A1

    def test_outside_square_rejected(self):
        with pytest.raises(ValueError):
            cell_of(F(0), fr(1, 2))
        with pytest.raises(ValueError):
            cell_of(fr(1, 2), F(1))

    def test_matches_observed_return_word(self):
        rng = random.Random(20260815)
        checked = 0
        while checked < 150:
            y, z = random_face_point(rng)
            if y == 0 or z == 0:
                continue
            start = StartPoint(0, y, z)
            if not validate(start, horizon=24).ok:
                continue
            try:
                label = cell_of(y, z)
            except OnBoundary:
                continue
            word = trace_letters(start, length=16)
            assert return_words(word).blocks[0] == label.word, (y, z)
            checked += 1


V = FacePartition.VERTICAL_Y
H = FacePartition.HORIZONTAL_Z
NEAR = (golden_unit(58), -golden_unit(58), golden_unit(60) * SQRT2, -golden_unit(57) * SQRT2)


def curve_points():
    """Points on each curve, on their crossings, and within 2**-40 of each curve."""
    quartic = SQRT2 - 1
    on = [(V, fr(1, 2)), (V, fr(1, 10)), (V, H), (V, red_z(V))]
    on += [(fr(1, 3), H), (fr(9, 10), H), (quartic, H)]
    right = (fr(9, 10), fr(22, 25), reduce_mod1(SQRT2 / 2 + fr(1, 5)))
    on += [(y, red_z(y)) for y in (fr(1, 2), quartic) + right]
    # the blue segment lies right of the vertical line
    on += [(y, blue_z(y)) for y in right]
    near = []
    for u in NEAR:
        near += [(V + u, fr(1, 2)), (V + u, fr(1, 10)), (V + u, H), (V + u, H - u)]
        near += [(fr(1, 3), H + u), (fr(9, 10), H + u), (quartic, H + u)]
        for y in (fr(1, 2), fr(9, 10), V + u, V - u, reduce_mod1(SQRT2 / 2 + fr(1, 5))):
            near += [(y, red_z(y) + u), (y, blue_z(y) + u)]
    return on, near


class TestCellOfAgainstFieldOracle:
    """The integer classifier against the FieldNumber cell_of it replaced."""

    def test_random_face_points(self):
        rng = random.Random(18)
        for _ in range(3000):
            y, z = random_face_point(rng)
            assert outcome(cell_of, y, z) == outcome(field_cell_of, y, z), (y, z)

    def test_points_on_each_curve(self):
        on, _ = curve_points()
        curves = set()
        for y, z in on:
            got = outcome(cell_of, y, z)
            assert got == outcome(field_cell_of, y, z), (y, z)
            assert got[0] == "boundary", (y, z)
            curves.add(got[1])
        assert curves == {"vertical", "horizontal", "red", "blue"}
        # vertical, horizontal and blue meet at (4 - 2*phi, 2*phi - 3)
        assert blue_z(V) == H
        with pytest.raises(OnBoundary) as exc:
            cell_of(V, H)
        assert exc.value.curve == "vertical" and exc.value.point == (V, H)

    def test_points_near_each_curve(self):
        _, near = curve_points()
        labels = set()
        for y, z in near:
            got = outcome(cell_of, y, z)
            assert got == outcome(field_cell_of, y, z), (y, z)
            labels.add(got if isinstance(got, CellLabel) else got[:2])
        # every cell is met, and the near points on another curve raise for it
        assert set(CellLabel) < labels

    def test_points_on_and_outside_the_edges(self):
        # the classifier tests one edge per coordinate, the side away from its line
        assert 0 < V < 1 and 0 < H < 1
        unit = golden_unit(58)
        edges = (F(0), F(1), fr(-1, 3), fr(4, 3), -unit, 1 - unit, 1 + unit, unit, 1 + SQRT2)
        inner = (fr(1, 2), fr(9, 10), SQRT2 - 1)
        points = [(e, i) for e in edges for i in inner] + [(i, e) for e in edges for i in inner]
        points += [(a, b) for a in edges for b in edges]
        for y, z in points:
            assert outcome(cell_of, y, z) == outcome(field_cell_of, y, z), (y, z)
        with pytest.raises(ValueError, match=r"^point \(0, 1/2\) outside the open unit square$"):
            cell_of(0, Fraction(1, 2))

    def test_rationals_classify_like_field_numbers(self):
        for y, z in ((Fraction(1, 2), Fraction(1, 2)), (Fraction(9, 10), 0), (1, Fraction(1, 3))):
            assert outcome(cell_of, y, z) == outcome(cell_of, F(y), F(z))

    @pytest.mark.parametrize("slot", [0, 1])
    @pytest.mark.parametrize("value", [0.5, "1/2"])
    def test_floats_and_strings_rejected(self, slot, value):
        point = [fr(1, 2), fr(1, 4)]
        point[slot] = value
        with pytest.raises(TypeError, match="must be int or Fraction"):
            cell_of(*point)

    def test_partition_labels_match_the_oracle_at_midpoints(self):
        rng = random.Random(1818)
        circles = [s for s, _, _ in KNOWN_PARTITIONS] + [fr(1, 3)]
        circles += [
            reduce_mod1(fr(rng.randrange(0, 61), 61) + fr(rng.randrange(1, 5), 5) * SQRT2)
            for _ in range(20)
        ]
        for s in circles:
            part = circle_partition(s)
            bounds = (F(0),) + part.cuts + (F(1),)
            for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
                mid = (lo + hi) / 2
                assert field_cell_of(mid, reduce_mod1(s - mid)) is part.labels[i], (s, i)


def prediction_starts():
    """Zero, golden and quartic circles, and a start whose orbit lands on the vertical curve."""
    y = fr(3, 97)
    return [
        StartPoint(0, y, 1 - y),
        StartPoint(0, y, reduce_mod1(2 - PHI - y)),
        StartPoint(0, y, reduce_mod1(fr(4, 13) + SQRT2 / 3 - y)),
        StartPoint(0, reduce_mod1(golden_unit(20) * SQRT2), fr(5, 11)),
        StartPoint(0, 13 - 8 * PHI, fr(1, 3)),
    ]


def long_coefficient_starts():
    """Starts whose coordinates have 40- and 80-digit coefficients."""
    rng = random.Random(4080)
    starts = []
    for digits in (40, 80):
        for _ in range(2):
            y, z = (
                reduce_mod1(
                    FieldNumber(*(rng.randrange(-(10**digits), 10**digits) for _ in range(4)))
                    / rng.randrange(1, 10**6)
                )
                for _ in range(2)
            )
            starts.append(StartPoint(0, y, z))
    return starts


class TestPredictionAgainstFieldOracle:
    def test_first_600_returns(self):
        for start in prediction_starts():
            for k in range(601):
                got = outcome(kth_return_prediction, start, k)
                assert got == outcome(field_kth_return_prediction, start, k), (start, k)

    def test_long_coefficient_starts(self, bounded):
        def check():
            for start in long_coefficient_starts():
                for k in range(601):
                    got = outcome(kth_return_prediction, start, k)
                    assert got == outcome(field_kth_return_prediction, start, k), (start, k)

        bounded(60, check)


@pytest.fixture
def fallbacks(monkeypatch):
    """Count the exact routes the face classifier and the translate's reduction call in returns."""
    calls = []
    for name in ("_compare", "_int_sign", "_floor"):
        real = getattr(returns, name)
        monkeypatch.setattr(
            returns, name, lambda *args, name=name, real=real: calls.append(name) or real(*args)
        )
    return calls


def offset_points(rng, offset):
    """Seeded face points offset by +-offset from each curve and each edge of the square.

    y = a/97 left or right of the vertical line and z = b/89 below or
    above the horizontal one, drawn afresh per side: the vertical and
    horizontal lines, the red curve on both columns, the blue segment,
    and the four edges, from inside and from outside.
    """
    points = []
    for u in (offset, -offset):
        left, right = fr(rng.randrange(1, 74), 97), fr(rng.randrange(75, 97), 97)
        low, high = fr(rng.randrange(1, 21), 89), fr(rng.randrange(22, 89), 89)
        points += [(V + u, low), (V + u, high), (left, H + u), (right, H + u)]
        points += [(left, red_z(left) + u), (right, red_z(right) + u), (right, blue_z(right) + u)]
        for inner in (low, high):
            points += [(u, inner), (1 + u, inner)]
        for inner in (left, right):
            points += [(inner, u), (inner, 1 + u)]
    return points


def rounded_points(rng):
    """The two roundings to 2**-100 of seeded points on each curve, in the coordinate it fixes.

    These points are rational, so their own bound is 2, while denom
    times a curve constant's estimate is off by up to denom times the
    constant's bound: a sign test that left out that term would read
    one of the two roundings wrong.
    """

    def roundings(x):
        low = (x * 2**100).floor()
        return fr(low, 2**100), fr(low + 1, 2**100)

    left, right = fr(rng.randrange(1, 74), 97), fr(rng.randrange(75, 97), 97)
    low, high = fr(rng.randrange(1, 21), 89), fr(rng.randrange(22, 89), 89)
    points = [(y, z) for y in roundings(V) for z in (low, high)]
    points += [(y, z) for z in roundings(H) for y in (left, right)]
    points += [(y, z) for y in (left, right) for z in roundings(red_z(y))]
    points += [(right, z) for z in roundings(blue_z(right))]
    return points


def translated_start(point, k):
    """The face start whose k-th translate, (y + k*alpha, z - k*alpha) mod 1, is point mod 1."""
    y, z = point
    shift = k * TRANSLATION_ANGLE
    return StartPoint(0, reduce_mod1(y - shift), reduce_mod1(z + shift))


class TestEstimateFirstAgainstFieldOracle:
    """The estimate-first classifier and reduction near every tie they can meet.

    At 2**-40 from a curve, an edge or an integer translate the dyadic
    estimates decide alone; at 2**-120 from a curve they cannot, and the
    exact fallback decides.  A rational point's floor is always settled
    by its estimate, whose bound is 2; golden_unit(58) is about 2**-40
    with coordinates near 2**40, so its estimates are off by far more
    than its size, and its integer translates reach exactnum._floor.
    """

    @pytest.mark.parametrize("exponent", [40, 80, 120, "rational"])
    def test_cell_of_near_curves_and_edges(self, exponent, fallbacks):
        rng = random.Random(str(exponent))
        if exponent == "rational":
            points = [point for _ in range(8) for point in rounded_points(rng)]
        else:
            points = offset_points(rng, fr(1, 2**exponent))
        want = [outcome(field_cell_of, y, z) for y, z in points]
        del fallbacks[:]
        assert [outcome(cell_of, y, z) for y, z in points] == want
        if exponent != "rational":
            assert {label for label in want if isinstance(label, CellLabel)} == set(CellLabel)
        if exponent == 40:
            assert fallbacks == []
        if exponent in (120, "rational"):
            assert fallbacks

    @pytest.mark.parametrize("exponent", [40, 80, 120, "golden", "rational"])
    def test_predictions_near_curves_edges_and_integers(self, exponent, fallbacks):
        rng = random.Random(str(exponent))
        if exponent == "rational":
            points = [point for _ in range(4) for point in rounded_points(rng)]
        elif exponent == "golden":
            points = offset_points(rng, golden_unit(58)) + offset_points(rng, golden_unit(58) * SQRT2)
        else:
            points = offset_points(rng, fr(1, 2**exponent))
        cases = [(translated_start(point, k), k) for point in points for k in (0, 7, 2000)]
        want = [outcome(field_kth_return_prediction, start, k) for start, k in cases]
        del fallbacks[:]
        assert [outcome(kth_return_prediction, start, k) for start, k in cases] == want
        if exponent == 40:
            assert fallbacks == []
        if exponent in (120, "rational"):
            assert fallbacks
        if exponent == "golden":
            # a translate within its bound of an integer is reduced by _floor
            assert "_floor" in fallbacks

    @pytest.mark.parametrize("exponent", [40, 80, 120, "golden"])
    def test_partition_labels_of_circles_with_tiny_arcs(self, exponent):
        # special circles moved by a tiny offset keep their cuts' multiple
        # crossings apart, so some arcs are tiny and their midpoints lie
        # within the offset of two curves
        unit = golden_unit(58) if exponent == "golden" else fr(1, 2**exponent)
        for s0 in (F(0),) + tuple(s for s, _ in SPECIAL_INVARIANTS):
            for u in (unit, -unit):
                s = reduce_mod1(s0 + u)
                part = circle_partition(s)
                bounds = (F(0),) + part.cuts + (F(1),)
                for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
                    mid = (lo + hi) / 2
                    assert field_cell_of(mid, reduce_mod1(s - mid)) is part.labels[i], (s, i)


def assert_same_return_words(word):
    """return_words and the position scan agree: blocks, trailing part, or the error."""
    try:
        expected = scanned_return_words(word)
    except InsufficientOccurrences as error:
        with pytest.raises(InsufficientOccurrences) as raised:
            return_words(word)
        assert str(raised.value) == str(error)
        return
    assert return_words(word) == expected, word


class TestReturnWords:
    def test_blocks_and_trailing(self):
        rw = return_words("abcabcabbacb")
        assert rw.blocks == ("abc", "abc", "abb")
        assert rw.trailing == "acb"

    def test_insufficient(self):
        with pytest.raises(InsufficientOccurrences):
            return_words("bcbcbc")
        with pytest.raises(InsufficientOccurrences):
            return_words("bcabcc")

    def test_blocks_partition_the_word(self):
        word = trace_letters(StartPoint(0, fr(1, 2), fr(1, 2)), length=200)
        rw = return_words(word)
        rebuilt = "".join(rw.blocks) + rw.trailing
        assert rebuilt == word[word.index("a") :]
        assert set(rw.blocks) <= {label.word for label in CellLabel}

    @pytest.mark.parametrize(
        "word",
        [
            "aa",
            "aaaaaa",
            "ab",  # one a: found 1
            "ba",
            "a",
            "",  # no a: found 0
            "bcbc",
            "bcbcbca",  # one a, at the end
            "abca",  # the trailing part is a single a
            "bbabcbca",
            "bcbcabca",
            "bbbbbbbbbbab",  # a long stretch before the first a
            "abcabcabbacba",
            "a\u00e9a\u4e00\U0001f600a\0a",  # letters past ASCII and NUL
            "\u00e9\u00e9a\u00e9",
        ],
    )
    def test_split_matches_the_position_scan(self, word):
        assert_same_return_words(word)

    def test_split_matches_the_position_scan_on_random_words(self):
        rng = random.Random(2424)
        for alphabet in ("abc", "ab", "a\u00e9\u4e00", "abcdefg"):
            for _ in range(300):
                length = rng.randint(0, 40)
                word = "".join(rng.choice(alphabet) for _ in range(length))
                if rng.random() < 0.3:
                    word = word.replace("a", "") + word  # a stretch with no a first
                assert_same_return_words(word)
        for start in (StartPoint(0, fr(1, 2), fr(1, 2)), StartPoint(0, 0, SQRT2 - 1)):
            word = trace_letters(start, length=8000)
            for head in (word, word[1:], word[: word.rindex("a") + 1], "bbb" + word):
                assert_same_return_words(head)

    def test_insufficient_counts_the_occurrences(self):
        for word, found in (("", 0), ("bcbc", 0), ("a", 1), ("bcabcc", 1), ("cccca", 1)):
            message = f"need at least two occurrences of 'a', found {found}"
            with pytest.raises(InsufficientOccurrences, match=message):
                return_words(word)
            with pytest.raises(InsufficientOccurrences, match=message):
                scanned_return_words(word)

    def test_mean_return_length_approaches_three(self):
        word = trace_letters(StartPoint(0, fr(1, 2), fr(1, 2)), length=100_000)
        rw = return_words(word)
        mean = sum(len(b) for b in rw.blocks) / len(rw.blocks)
        assert abs(mean - 3.0) < 1e-3


class TestPredictions:
    def test_step_for_half(self):
        assert translation_step(Fraction(1, 2)) == 2 * PHI - 3

    @pytest.mark.parametrize("r", [Fraction(0), Fraction(-1, 2)])
    def test_step_rejects_nonpositive_r(self, r):
        with pytest.raises(ValueError, match="must be positive"):
            translation_step(r)

    def test_float_r_rejected(self):
        # 0.5 == Fraction(1, 2), so an uncoerced float would take the r = 1/2 route
        m = StartPoint(0, fr(1, 3), fr(1, 5))
        with pytest.raises(TypeError, match="not float$"):
            translation_step(0.5)
        for r in (0.5, 1 / 3):
            with pytest.raises(TypeError, match="not float$"):
                predict_return_words(m, 1, r)

    def test_first_and_third_return(self):
        m = StartPoint(0, fr(1, 2), fr(1, 2))
        assert kth_return_prediction(m, 0) is A2
        assert kth_return_prediction(m, 2) is A4

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            kth_return_prediction(StartPoint(0, fr(1, 2), fr(1, 2)), -1)

    def test_off_face_start_rejected(self):
        m = StartPoint(1, fr(1, 3), fr(1, 5))
        with pytest.raises(ValueError, match="face X = 0"):
            kth_return_prediction(m, 0)
        for r in (Fraction(1, 2), Fraction(1, 3)):
            with pytest.raises(ValueError, match="face X = 0"):
                predict_return_words(m, 1, r)

    def test_predictions_match_trace(self):
        rng = random.Random(77)
        starts = 0
        while starts < 12:
            y, z = random_face_point(rng)
            if y == 0 or z == 0:
                continue
            start = StartPoint(0, y, z)
            if not validate(start, horizon=160).ok:
                continue
            word = trace_letters(start, length=160)
            blocks = return_words(word).blocks
            ok = True
            for k in range(min(40, len(blocks))):
                try:
                    predicted = kth_return_prediction(start, k)
                except OnBoundary:
                    ok = False
                    break
                assert blocks[k] == predicted.word, (y, z, k)
            if ok:
                starts += 1

    @pytest.mark.parametrize(
        "r", [Fraction(1, 3), Fraction(2, 3), Fraction(3), Fraction(7, 2)], ids=str
    )
    def test_predict_return_word_other_r(self, r):
        rng = random.Random(3)
        starts = 0
        while starts < 6:
            y = Fraction(rng.randrange(1, 53), 53)
            z = Fraction(rng.randrange(1, 47), 47)
            start = StartPoint(0, y, z)
            if not validate(start, Direction(r), horizon=80).ok:
                continue
            word = trace_letters(start, Direction(r), length=100)
            blocks = return_words(word).blocks
            count = min(12, len(blocks) - 1)
            assert predict_return_words(start, count, r) == list(blocks[:count]), (y, z)
            starts += 1

    def test_one_orbit_equals_the_single_point_reference(self):
        rng = random.Random(1105)
        strata = set()
        for _ in range(51):
            y, z = random_face_point(rng)
            start = StartPoint(0, y, z)
            reference = [kth_return_prediction(start, k).word for k in range(501)]
            assert predict_return_words(start, 501) == reference, (y, z)
            strata.add(reduce_mod1(y + z).tag)
        assert strata == {"rational", "golden", "quartic"}

    @pytest.mark.parametrize("family", ["seam", "horizontal", "vertical", "red", "blue"])
    def test_one_orbit_near_each_cut(self, family):
        # On s = (2 + sqrt2)/3 - 1 all five cut families cut the circle.  The
        # start is steered so that step j lands within the golden unit
        # F(49) - F(48)*phi (about 1e-10) of the family's cut, on either side.
        s = reduce_mod1((2 + SQRT2) / 3)
        cuts = dict(field_cut_candidates(s))
        assert len(cuts) == 5
        unit = golden_unit(48)
        j = 60 + 110 * ["seam", "horizontal", "vertical", "red", "blue"].index(family)
        for side in (1, -1):
            y = reduce_mod1(cuts[family] - j * TRANSLATION_ANGLE + side * unit)
            start = StartPoint(0, y, reduce_mod1(s - y))
            reference = [kth_return_prediction(start, k).word for k in range(501)]
            assert predict_return_words(start, 501) == reference, (family, side)

    def test_orbit_on_a_cut(self):
        # 13 - 8*phi + 3*(2*phi - 3) = 4 - 2*phi, the vertical cut
        start = StartPoint(0, 13 - 8 * PHI, Fraction(1, 3))
        with pytest.raises(HitsCut) as hit:
            predict_return_words(start, 4)
        assert hit.value.step == 3
        assert hit.value.position == 4 - 2 * PHI
        assert len(predict_return_words(start, 3)) == 3
        with pytest.raises(OnBoundary, match="vertical"):
            kth_return_prediction(start, 3)


def integer_cut_candidates(s):
    """_circle_cut_candidates of the circle s, its vectors read back as FieldNumbers."""
    denom = common_denominator((s,))
    return [
        (curve, FieldNumber(*(Fraction(a, denom) for a in vector)))
        for curve, vector in _circle_cut_candidates(s.scaled_coeffs(denom), denom)
    ]


class TestCutCandidatesAgainstFieldOracle:
    """The integer cut solve against the FieldNumber solve it replaced."""

    def assert_routes_agree(self, circles):
        for s in circles:
            assert integer_cut_candidates(s) == list(field_cut_candidates(s)), str(s)

    def test_every_farey_circle(self):
        circles = [fr(p, q) for p, q in _farey_interior(64)]
        assert len(circles) == 1259
        self.assert_routes_agree(circles)

    def test_zero_and_golden_circles(self):
        self.assert_routes_agree([F(0)] + [value for value, _ in SPECIAL_INVARIANTS])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_schedule_circles(self, seed):
        self.assert_routes_agree(sample_schedule(400, seed))

    def test_quartic_circles_near_curve_crossings(self):
        # the circles through crossings of two curves (or a curve and an
        # edge) are the zero and golden ones; these pass within 1e-6 of them
        offsets = ((SQRT2 - 1) / 10**6, golden_unit(40) * SQRT2)
        circles = [
            reduce_mod1(c + sign * u)
            for c in [F(0)] + [value for value, _ in SPECIAL_INVARIANTS]
            for u in offsets
            for sign in (1, -1)
        ]
        assert {s.tag for s in circles} == {"quartic"}
        self.assert_routes_agree(circles)
        for s in circles:
            assert_labels_match_cells(circle_partition(s))


def assert_labels_match_cells(part):
    """Each interval's label is the cell of the point a third of the way into it."""
    bounds = (F(0),) + part.cuts + (F(1),)
    for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        probe = lo + (hi - lo) / 3
        assert cell_of(probe, reduce_mod1(part.s - probe)) is part.labels[i]


class TestCirclePartition:
    @pytest.mark.parametrize("s,cuts,labels", KNOWN_PARTITIONS)
    def test_known_partitions(self, s, cuts, labels):
        part = circle_partition(s)
        assert part.cuts == cuts
        assert part.labels == labels
        assert part.k == len(labels)

    def test_k_census(self):
        ks = [circle_partition(s).k for s, _, _ in KNOWN_PARTITIONS]
        assert ks == [3, 5, 5, 5, 5, 6]

    def test_rational_invariant(self):
        part = circle_partition(fr(1, 3))
        assert part.k == 6
        assert part.labels == (A2, A7, A1, A2, A3, A5)

    def test_generic_quartic_is_six(self):
        part = circle_partition(reduce_mod1(fr(2, 7) + fr(1, 9) * SQRT2))
        assert part.k == 6

    def test_lengths_sum_to_one(self):
        for s, _, _ in KNOWN_PARTITIONS:
            pieces = lengths(circle_partition(s))
            assert sum(pieces, F(0)) == 1
            assert all(piece > 0 for piece in pieces)

    def test_golden_interval_lengths(self):
        pieces = lengths(circle_partition(2 - PHI))
        assert pieces == (5 - 3 * PHI, 2 * PHI - 3, 2 * PHI - 3, 5 - 3 * PHI, 2 * PHI - 3)

    def test_interval_of(self):
        part = circle_partition(F(0))
        assert interval_of(part, F(0)) == 0
        assert interval_of(part, fr(3, 10)) == 0
        assert interval_of(part, fr(1, 2)) == 1
        assert interval_of(part, fr(9, 10)) == 2
        assert label_of(part, fr(1, 2)) is A2

    def test_interval_of_hits_cut(self):
        part = circle_partition(F(0))
        with pytest.raises(HitsCut):
            interval_of(part, 2 - PHI)
        with pytest.raises(ValueError):
            interval_of(part, F(1))

    def test_midpoint_labels_match_cells(self):
        rng = random.Random(5)
        for _ in range(20):
            s = reduce_mod1(fr(rng.randrange(0, 61), 61) + fr(rng.randrange(0, 5), 5) * SQRT2)
            part = circle_partition(s)
            assert part.k in (3, 5, 6)
            assert_labels_match_cells(part)

    def test_circles_through_curve_crossings_label_without_raising(self):
        # each line a*y + b*z = c: the four curves, then the square's edges
        lines = [
            (F(1), F(0), V),
            (F(0), F(1), H),
            (-FacePartition.LINE_SLOPE, F(1), FacePartition.RED_INTERCEPT),
            (-FacePartition.LINE_SLOPE, F(1), FacePartition.BLUE_INTERCEPT),
            (F(1), F(0), F(0)),
            (F(1), F(0), F(1)),
            (F(0), F(1), F(0)),
            (F(0), F(1), F(1)),
        ]
        circles = set()
        for (a1, b1, c1), (a2, b2, c2) in itertools.combinations(lines, 2):
            det = a1 * b2 - a2 * b1
            if det == 0:
                continue
            y, z = (c1 * b2 - c2 * b1) / det, (a1 * c2 - a2 * c1) / det
            if 0 <= y <= 1 and 0 <= z <= 1:
                circles.add(reduce_mod1(y + z))
        assert circles == {F(0), 2 * PHI - 3, 2 - PHI, PHI - 1, 4 - 2 * PHI}
        for s in circles:
            assert_labels_match_cells(circle_partition(s))

    def test_invalid_invariant(self):
        with pytest.raises(ValueError):
            circle_partition(F(1))
        with pytest.raises(ValueError):
            circle_partition(fr(-1, 2))

    def test_dropped_cuts_are_logged(self, caplog):
        circles = (F(0), 2 * PHI - 3, 2 - PHI, PHI - 1, 4 - 2 * PHI, SQRT2 - 1, fr(1, 3))
        with caplog.at_level(logging.INFO, logger="cubewords.returns"):
            for s in circles:
                circle_partition(s)
        assert [record.getMessage() for record in caplog.records] == [
            "circle s=0: vertical cut coincides with 4-2*phi, zero-length interval dropped",
            "circle s=-3+2*phi: horizontal cut sits on the wrap point, dropped",
            "circle s=2-1*phi: red cut sits on the wrap point, dropped",
            "circle s=-1+1*phi: red cut coincides with 4-2*phi, zero-length interval dropped",
            "circle s=4-2*phi: vertical cut coincides with 4-2*phi, zero-length interval dropped",
        ]


class TestReconstruct:
    def test_matches_trace_center(self):
        m = StartPoint(0, fr(1, 2), fr(1, 2))
        assert reconstruct(m, 500) == trace_letters(m, length=500)

    def test_matches_trace_random(self):
        rng = random.Random(411)
        done = 0
        while done < 8:
            y, z = random_face_point(rng)
            if y == 0 or z == 0:
                continue
            start = StartPoint(0, y, z)
            if not validate(start, horizon=400).ok:
                continue
            try:
                rebuilt = reconstruct(start, 400)
            except HitsCut:
                continue
            assert rebuilt == trace_letters(start, length=400), (y, z)
            done += 1

    def test_quartic_invariant_start(self):
        start = StartPoint(0, fr(1, 4), reduce_mod1(SQRT2 - 1 - Fraction(1, 4)))
        assert reconstruct(start, 300) == trace_letters(start, length=300)

    def test_requires_face_start(self):
        with pytest.raises(ValueError):
            reconstruct(StartPoint(fr(1, 2), fr(1, 2), fr(1, 3)), 10)

    def test_rejects_a_negative_length(self):
        with pytest.raises(ValueError, match="^n_letters must be nonnegative$"):
            reconstruct(StartPoint(0, fr(1, 2), fr(1, 2)), -1)

    def test_orbit_on_cut_raises(self):
        start = StartPoint(0, 2 - PHI, PHI - 1)
        with pytest.raises(HitsCut):
            reconstruct(start, 40)

    @pytest.mark.parametrize("y,z", [(0, fr(1, 3)), (0, fr(2, 3)), (1, fr(1, 3))])
    def test_wall_starts_match_trace(self, y, z):
        # y = 1 is the same circle point as y = 0, and traces the same word
        start = StartPoint(0, y, z)
        word = trace_letters(start, length=400)
        assert reconstruct(start, 400) == word
        blocks = return_words(word).blocks
        assert predict_return_words(start, len(blocks)) == list(blocks)

    @pytest.mark.parametrize("z", [0, 1])
    def test_wall_starts_on_the_seam_raise(self, z):
        start = StartPoint(0, fr(1, 3), z)
        for route in (lambda: reconstruct(start, 40), lambda: predict_return_words(start, 1)):
            with pytest.raises(HitsCut) as hit:
                route()
            assert hit.value.step == 0 and hit.value.position == fr(1, 3)


class TestEmpiricalCells:
    def test_half_recovers_block_table(self):
        cells = empirical_cells(Fraction(1, 2))
        assert set(cells) == {label.word for label in CellLabel}
        cell_of_word = {label.word: label for label in CellLabel}
        for block, points in cells.items():
            expected = cell_of_word[block]
            for y, z in points:
                assert cell_of(F(y), F(z)) is expected

    def test_third_produces_blocks(self):
        cells = empirical_cells(Fraction(1, 3))
        assert cells
        for block in cells:
            assert block[0] == "a"
            assert block.count("a") == 1
