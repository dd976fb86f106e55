"""Exact rotation codings, saddle connections and rank predictions."""

import random
from fractions import Fraction

import pytest

import cubewords
from cubewords.billiard import StartPoint, trace_letters
from cubewords.directional import circle_language, classify_s
from cubewords import returns
from cubewords.exactnum import (
    PHI,
    SQRT2,
    FieldNumber,
    _int_sign,
    common_denominator,
    reduce_mod1,
    zmodule_rank,
)
from cubewords.returns import (
    TRANSLATION_ANGLE,
    CellLabel,
    CirclePartition,
    HitsCut,
    circle_partition,
    rotation_coding,
    translation_step,
)
from cubewords.words import complexity
from oracles import fit_affine, interval_of, label_of, lengths, saddle_connection

F = FieldNumber
A1, A2, A3, A4, A5, A6, A7 = CellLabel


def fr(*args) -> FieldNumber:
    return FieldNumber(Fraction(*args))


def digits(labels) -> str:
    """The coding of a sequence of cell labels: one digit 1..7 per label."""
    return "".join(str(label.value) for label in labels)


def scanned_connection(a_i, a_j, alpha, n_bound: int):
    """Reference for saddle_connection: scan |n| <= n_bound for a_i - a_j = n*alpha mod 1."""
    for magnitude in range(n_bound + 1):
        for n in {magnitude, -magnitude}:
            if reduce_mod1(a_i - a_j - n * alpha).is_zero:
                return n
    return None


class TestAngle:
    def test_value(self):
        assert TRANSLATION_ANGLE == 2 * PHI - 3

    def test_is_reduced_double_of_inverse_golden(self):
        assert TRANSLATION_ANGLE == reduce_mod1(2 / PHI)

    def test_matches_return_step(self):
        assert TRANSLATION_ANGLE == translation_step(Fraction(1, 2))

    def test_rotate_wraps(self):
        y = reduce_mod1(fr(9, 10) + TRANSLATION_ANGLE)
        assert F(0) <= y < 1
        assert y == fr(9, 10) + 2 * PHI - 4


class TestCodeOrbit:
    def test_short_orbit_on_zero_circle(self):
        part = circle_partition(F(0))
        coding = rotation_coding(fr(1, 2), part, TRANSLATION_ANGLE, 4)
        assert coding == digits((A2, A2, A4, A1)) == "2241"

    def test_empty_orbit(self):
        part = circle_partition(F(0))
        assert rotation_coding(fr(1, 2), part, TRANSLATION_ANGLE, 0) == ""

    def test_start_on_cut(self):
        part = circle_partition(F(0))
        with pytest.raises(HitsCut) as exc:
            rotation_coding(2 - PHI, part, TRANSLATION_ANGLE, 3)
        assert exc.value.step == 0

    def test_later_hit_reports_step(self):
        part = circle_partition(F(0))
        y0 = reduce_mod1(2 - PHI - TRANSLATION_ANGLE)
        with pytest.raises(HitsCut) as exc:
            rotation_coding(y0, part, TRANSLATION_ANGLE, 3)
        assert exc.value.step == 1

    def test_start_validation(self):
        part = circle_partition(F(0))
        with pytest.raises(ValueError):
            rotation_coding(F(1), part, TRANSLATION_ANGLE, 1)
        with pytest.raises(ValueError):
            rotation_coding(fr(1, 2), part, TRANSLATION_ANGLE, -1)

    def test_rational_starts_never_hit_golden_cuts(self):
        part = circle_partition(2 - PHI)
        word = rotation_coding(fr(3, 7), part, TRANSLATION_ANGLE, 400)
        assert len(word) == 400
        assert set(word) <= set(digits((A1, A2, A3, A7)))

    def test_coding_wrapper(self):
        # the coding is the label sequence written as digits: each digit
        # reads back, through CellLabel, as the label of its orbit point
        part = circle_partition(F(0))
        coding = rotation_coding(fr(1, 2), part, TRANSLATION_ANGLE, 6)
        assert coding[:4] == "2241"
        y, labels = fr(1, 2), []
        for _ in range(6):
            labels.append(label_of(part, y))
            y = reduce_mod1(y + TRANSLATION_ANGLE)
        assert tuple(CellLabel(int(digit)) for digit in coding) == tuple(labels)

    def test_matches_reference_route(self):
        def reference(y, part, angle, n):
            labels = []
            for step in range(n):
                try:
                    labels.append(label_of(part, y))
                except HitsCut as exc:
                    return ("hits", step, exc.position)
                y = reduce_mod1(y + angle)
            return digits(labels)

        def engine(y, part, angle, n):
            try:
                return rotation_coding(y, part, angle, n)
            except HitsCut as exc:
                return ("hits", exc.step, exc.position)

        rng = random.Random(2024)
        circles = (F(0), 2 - PHI, reduce_mod1(fr(4, 13) + SQRT2 / 3))
        for s in circles:
            part = circle_partition(s)
            for _ in range(2):
                y0 = reduce_mod1(fr(rng.randrange(1, 997), 997) + rng.randrange(-5, 6) * SQRT2)
                assert engine(y0, part, TRANSLATION_ANGLE, 2000) == reference(
                    y0, part, TRANSLATION_ANGLE, 2000
                )
            start = fr(rng.randrange(1, 101), 101)
            # 8/13 + 5/13 lands exactly on 1, which must wrap to 0
            for y0, angle in (
                (fr(8, 13), Fraction(5, 13)),
                (start, TRANSLATION_ANGLE + 3),
                (start, -TRANSLATION_ANGLE),
            ):
                assert engine(y0, part, angle, 300) == reference(y0, part, angle, 300)
            for cut in part.cuts:
                for step in (0, 3, 17):
                    y0 = reduce_mod1(cut - step * TRANSLATION_ANGLE)
                    outcome = engine(y0, part, TRANSLATION_ANGLE, 40)
                    assert outcome == reference(y0, part, TRANSLATION_ANGLE, 40)
                    assert outcome[0] == "hits" and outcome[1] <= step


def exact_code_orbit(y0, partition, angle, n):
    """rotation_coding with every decision exact: the per-step loop the dyadic filter replaced.

    Each step compares the integer vector of y against the cuts in order
    with _int_sign and wraps y by one exact comparison with 1 = D/D.
    """
    angle = reduce_mod1(angle)
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
    return digits(labels)


def coded(route, y0, partition, angle, n):
    """A route's coding, or ("hits", step, cut) when it raises HitsCut."""
    try:
        return route(y0, partition, angle, n)
    except HitsCut as exc:
        return ("hits", exc.step, exc.position)


FILTER_CIRCLES = (F(0), 2 - PHI, reduce_mod1(fr(4, 13) + SQRT2 / 3))


@pytest.fixture
def exact_calls(monkeypatch):
    """Count rotation_coding's exact fallbacks: its own calls of _int_sign."""
    calls = []
    monkeypatch.setattr(
        returns, "_int_sign", lambda vector: calls.append(vector) or _int_sign(vector)
    )
    return calls


class TestCodeOrbitFilter:
    """The dyadic filter against the all-exact per-step oracle."""

    def test_random_starts_match_the_oracle(self):
        rng = random.Random(4099)
        for s in FILTER_CIRCLES:
            part = circle_partition(s)
            starts = [
                fr(rng.randrange(1, 997), 997),
                reduce_mod1(fr(rng.randrange(1, 997), 997) + rng.randrange(-5, 6) * SQRT2),
                reduce_mod1(rng.randrange(-9, 10) * PHI + fr(rng.randrange(1, 89), 89) * SQRT2),
            ]
            for y0 in starts:
                assert coded(rotation_coding, y0, part, TRANSLATION_ANGLE, 20_000) == coded(
                    exact_code_orbit, y0, part, TRANSLATION_ANGLE, 20_000
                ), (s, y0)

    def test_other_angles_match_the_oracle(self):
        # 8/13 + 5/13 lands exactly on 1, which must wrap to 0
        for s in FILTER_CIRCLES:
            part = circle_partition(s)
            for y0, angle in (
                (fr(8, 13), F(Fraction(5, 13))),
                (fr(3, 101), TRANSLATION_ANGLE + 3),
                (fr(3, 101), -TRANSLATION_ANGLE),
                (fr(1, 5), SQRT2 - 1),
            ):
                assert coded(rotation_coding, y0, part, angle, 500) == coded(
                    exact_code_orbit, y0, part, angle, 500
                ), (s, y0, angle)

    @pytest.mark.parametrize("exponent", [40, 62, 80])
    def test_near_cut_and_near_wrap_starts(self, exponent, exact_calls):
        # step j lands 2**-exponent above or below a cut or the wrap point;
        # at 2**-40 the filter decides, at 2**-80 only the fallback can
        offsets = (fr(1, 2**exponent), fr(-1, 2**exponent), fr(3, 2**(exponent + 1)))
        for s in FILTER_CIRCLES:
            part = circle_partition(s)
            for target in (F(0),) + part.cuts:
                for step in (0, 1, 250, 1999):
                    for offset in offsets:
                        y0 = reduce_mod1(target - step * TRANSLATION_ANGLE + offset)
                        got = coded(rotation_coding, y0, part, TRANSLATION_ANGLE, step + 2)
                        assert got == exact_code_orbit(y0, part, TRANSLATION_ANGLE, step + 2)
        if exponent == 80:
            assert exact_calls

    def test_exact_hits_raise_like_the_oracle(self):
        for s in FILTER_CIRCLES:
            part = circle_partition(s)
            for cut in part.cuts:
                for step in (0, 1, 250, 1999):
                    y0 = reduce_mod1(cut - step * TRANSLATION_ANGLE)
                    got = coded(rotation_coding, y0, part, TRANSLATION_ANGLE, 2000)
                    assert got == coded(exact_code_orbit, y0, part, TRANSLATION_ANGLE, 2000)
                    assert got[0] == "hits" and got[1] <= step
            # the wrap point is interval 0, not a hit; the step before a
            # later landing there sits on the cut 4 - 2*phi = -angle mod 1
            got = rotation_coding(F(0), part, TRANSLATION_ANGLE, 2000)
            assert got == exact_code_orbit(F(0), part, TRANSLATION_ANGLE, 2000)
            assert got[0] == digits(part.labels[:1])
            y0 = reduce_mod1(-250 * TRANSLATION_ANGLE)
            got = coded(rotation_coding, y0, part, TRANSLATION_ANGLE, 2000)
            assert got == coded(exact_code_orbit, y0, part, TRANSLATION_ANGLE, 2000)
            assert got[:2] == ("hits", 249)

    def test_large_coordinate_near_ties(self, exact_calls):
        # g = 1/phi**58 is about 2**-40 with coordinates near 2**40, so
        # estimates of points involving g are off by far more than their
        # distances to a cut or to 1, which are below 2**-100.  Each
        # case is built with both roundings of g; an estimate trusted
        # without its bound gets one of the two wrong.
        g = F(1)
        for _ in range(58):
            g = g * (PHI - 1)
        part = CirclePartition(s=F(0), cuts=(fr(1, 3), fr(1, 2) + g), labels=(A1, A2, A3))
        angle = fr(1, 2) + g

        def roundings(x):
            low = (x * 2**100).floor()
            return fr(low, 2**100), fr(low + 1, 2**100)

        starts = []
        for q in roundings(g):
            # step 0 near the cut with large coordinates
            starts.append(fr(1, 2) + q)
            # y0 + angle near 1, the wrap point
            starts.append(fr(1, 2) - q)
        for q in roundings(2 * g):
            # step 2 near the cut 1/3, reached by adding 2*g twice
            starts.append(fr(1, 3) - q)
        for y0 in starts:
            assert rotation_coding(y0, part, angle, 6) == exact_code_orbit(y0, part, angle, 6), y0
        assert exact_calls

    def test_generic_orbit_makes_no_exact_call(self, exact_calls):
        # the partitions label their intervals with _int_sign, so they are
        # built before counting, which then sees rotation_coding's calls only
        partitions = [circle_partition(s) for s in FILTER_CIRCLES]
        del exact_calls[:]
        for part in partitions:
            for y0 in (fr(3, 7), reduce_mod1(fr(2, 11) + SQRT2)):
                assert len(rotation_coding(y0, part, TRANSLATION_ANGLE, 20_000)) == 20_000
        assert exact_calls == []


class TestRecodingMatchesBilliard:
    def test_block_concatenation_is_the_trace(self):
        start = StartPoint(0, fr(2, 7), fr(3, 11))
        s = reduce_mod1(start.y + start.z)
        part = circle_partition(s)
        coding = rotation_coding(start.y, part, TRANSLATION_ANGLE, 120)
        rebuilt = "".join(CellLabel(int(digit)).word for digit in coding)
        assert rebuilt == trace_letters(start, length=len(rebuilt))

    def test_letter_frequencies_match_interval_lengths(self):
        part = circle_partition(2 - PHI)
        word = rotation_coding(fr(1, 9), part, TRANSLATION_ANGLE, 20_000)
        interval_lengths = lengths(part)
        counts = [0.0] * part.k
        position = fr(1, 9)
        for label in word:
            counts[interval_of(part, position)] += 1
            position = reduce_mod1(position + TRANSLATION_ANGLE)
        for i in range(part.k):
            assert abs(counts[i] / len(word) - float(interval_lengths[i])) < 1e-2


class TestSaddleConnection:
    def test_self_connection_is_zero(self):
        assert saddle_connection(2 - PHI, 2 - PHI, TRANSLATION_ANGLE) == 0

    def test_unit_shift(self):
        assert saddle_connection(2 - PHI, 5 - 3 * PHI, TRANSLATION_ANGLE) == 1
        assert saddle_connection(PHI - 1, 2 - PHI, TRANSLATION_ANGLE) == 1

    def test_wrap_connection(self):
        assert saddle_connection(4 - 2 * PHI, F(0), TRANSLATION_ANGLE) == -1

    def test_half_candidate_rejected(self):
        assert saddle_connection(2 - PHI, 4 - 2 * PHI, TRANSLATION_ANGLE) is None

    def test_antisymmetry(self):
        rng = random.Random(9)
        points = [2 - PHI, 5 - 3 * PHI, PHI - 1, 4 - 2 * PHI, F(0), SQRT2 - 1]
        for _ in range(30):
            a = rng.choice(points)
            b = rng.choice(points)
            n = saddle_connection(a, b, TRANSLATION_ANGLE)
            m = saddle_connection(b, a, TRANSLATION_ANGLE)
            if n is None:
                assert m is None
            else:
                assert m == -n

    def test_bounded_mode_agrees_with_exact(self):
        rng = random.Random(13)
        for _ in range(40):
            base = reduce_mod1(
                fr(rng.randrange(0, 11), 11) + fr(rng.randrange(0, 3), 3) * SQRT2
            )
            shift = rng.randrange(-6, 7)
            other = reduce_mod1(base - shift * TRANSLATION_ANGLE)
            exact = saddle_connection(base, other, TRANSLATION_ANGLE)
            scanned = scanned_connection(base, other, TRANSLATION_ANGLE, 8)
            assert exact == shift
            assert scanned == shift

    def test_unrelated_pair(self):
        assert saddle_connection(SQRT2 - 1, 2 - PHI, TRANSLATION_ANGLE) is None
        assert scanned_connection(SQRT2 - 1, 2 - PHI, TRANSLATION_ANGLE, 50) is None

    def test_rational_angle_degenerate(self):
        with pytest.raises(ValueError):
            saddle_connection(fr(1, 3), fr(1, 7), fr(2, 5))

    def test_connection_classes_of_golden_circle(self):
        part = circle_partition(2 - PHI)
        points = (F(0),) + part.cuts
        classes = []
        for p in points:
            for cls in classes:
                if saddle_connection(p, cls[0], TRANSLATION_ANGLE) is not None:
                    cls.append(p)
                    break
            else:
                classes.append([p])
        assert len(classes) == 2

    def test_connection_classes_of_quartic_circle(self):
        part = circle_partition(SQRT2 - 1)
        points = (F(0),) + part.cuts
        classes = []
        for p in points:
            for cls in classes:
                if saddle_connection(p, cls[0], TRANSLATION_ANGLE) is not None:
                    cls.append(p)
                    break
            else:
                classes.append([p])
        assert len(classes) == 4


class TestZModuleRank:
    def test_empty_is_one(self):
        assert zmodule_rank(()) == 1

    def test_rationals_absorbed(self):
        assert zmodule_rank((fr(1, 2), fr(1, 3))) == 1

    def test_golden_pair(self):
        assert zmodule_rank((TRANSLATION_ANGLE, 2 - PHI, 4 - 2 * PHI)) == 2

    def test_independent_radicals(self):
        assert zmodule_rank((PHI, SQRT2)) == 3
        assert zmodule_rank((PHI * SQRT2,)) == 2

    def test_quartic_circle_full_rank(self):
        part = circle_partition(SQRT2 - 1)
        assert zmodule_rank((TRANSLATION_ANGLE,) + part.cuts) == 4

    def test_golden_circles_rank_two(self):
        for s in (F(0), 2 - PHI, PHI - 1, 4 - 2 * PHI, 2 * PHI - 3):
            part = circle_partition(s)
            assert zmodule_rank((TRANSLATION_ANGLE,) + part.cuts) == 2


class TestCodingComplexity:
    def run_coding(self, s, y0, steps=4000, n_max=40):
        part = circle_partition(s)
        coding = rotation_coding(y0, part, TRANSLATION_ANGLE, steps)
        return complexity(coding, n_max)

    def test_zero_circle_law(self):
        profile = self.run_coding(F(0), fr(1, 7))
        assert profile.stable_through >= 38
        for n in range(1, 36):
            assert profile.p(n) == 2 * n + 1
        assert profile.slope == 2
        assert profile.law[1] == 1
        assert profile.law[2] == 1

    def test_golden_circle_law(self):
        # p(2) = 7, not 9: three of the five step-one refinement points
        # coincide with existing cuts through the unit connections
        # (5-3phi)+a = 2-phi, (2-phi)+a = phi-1 and (4-2phi)+a = 1, so the
        # law is 2n+3 from n = 2 onward.  Verified both by counting the
        # refined cut orbit by hand and by the suffix automaton here.
        profile = self.run_coding(2 - PHI, fr(1, 9))
        assert profile.p(1) == 4
        for n in range(2, 36):
            assert profile.p(n) == 2 * n + 3
        assert profile.slope == 2
        assert profile.law[1] == 3
        assert profile.law[2] == 2

    def test_quartic_circle_law(self):
        profile = self.run_coding(SQRT2 - 1, fr(1, 11), steps=12_000)
        assert profile.p(1) == 4
        for n in range(2, 36):
            assert profile.p(n) == 4 * n + 2
        assert profile.slope == 4
        assert profile.law[1] == 2
        assert profile.law[2] == 2

    def test_slope_matches_rank(self):
        for s, expected in ((F(0), 2), (2 - PHI, 2), (SQRT2 - 1, 4)):
            part = circle_partition(s)
            rank = zmodule_rank((TRANSLATION_ANGLE,) + part.cuts)
            report = self.run_coding(s, fr(1, 7), steps=9000, n_max=30)
            assert report.slope == rank == expected

    def test_recoding_preserves_increment_rate(self):
        part = circle_partition(SQRT2 - 1)
        coding = rotation_coding(fr(1, 11), part, TRANSLATION_ANGLE, 12_000)
        coded = complexity(coding, 30)
        expanded = "".join(CellLabel(int(digit)).word for digit in coding)
        word_profile = complexity(expanded, 60)
        tail = [(n, word_profile.p(n)) for n in range(40, 56)]
        law = fit_affine(tail)
        assert law is not None
        assert law[0] == coded.slope

    def test_no_law_for_scrambled_word(self):
        rng = random.Random(1)
        scrambled = "".join(str(rng.choice(list(CellLabel)).value) for _ in range(600))
        report = complexity(scrambled, 10)
        # the benchmark's name for the coding's profile is complexity itself
        assert cubewords.coding_complexity is complexity
        assert report.slope is None
        assert report.law is None


ZERO_CIRCLE = circle_partition(F(0))

EXACT_INPUT_CALLS = {
    "circle_partition": lambda v: circle_partition(v),
    # the coder's angle argument: the orbit of 1/2 under 0 or 1/3 stays
    # rational and never meets the zero circle's cuts 2 - phi and 4 - 2*phi
    "code_orbit": lambda v: rotation_coding(Fraction(1, 2), ZERO_CIRCLE, v, 40),
    "rotation_coding": lambda v: rotation_coding(v, ZERO_CIRCLE, TRANSLATION_ANGLE, 40),
    "zmodule_rank": lambda v: zmodule_rank((v, TRANSLATION_ANGLE)),
    "classify_s": lambda v: classify_s(v),
    "circle_language": lambda v: circle_language(v, 6),
}


class TestExactInputs:
    """Each entry point takes an int or Fraction as the equal FieldNumber."""

    @pytest.mark.parametrize("name", sorted(EXACT_INPUT_CALLS))
    def test_rationals_match_field_numbers(self, name):
        call = EXACT_INPUT_CALLS[name]
        for value in (0, Fraction(1, 3)):
            assert call(value) == call(F(value)), value

    @pytest.mark.parametrize("name", sorted(EXACT_INPUT_CALLS))
    @pytest.mark.parametrize("value", [0.5, "1/3"])
    def test_floats_and_strings_rejected(self, name, value):
        with pytest.raises(TypeError, match="must be int or Fraction"):
            EXACT_INPUT_CALLS[name](value)

    def test_start_points_still_parse_grammar_strings(self):
        assert StartPoint("0", "1/3", "2-1*phi") == StartPoint(0, Fraction(1, 3), 2 - PHI)
        with pytest.raises(TypeError, match="must be int or Fraction"):
            StartPoint(0, 0.5, Fraction(1, 3))
