"""Circle-invariant classification, schedules, languages, census, union."""

import random
from fractions import Fraction

import pytest

from cubewords import directional, exactnum, returns
from cubewords.billiard import StartPoint, trace_letters, validate
from cubewords.directional import (
    DIRECTIONAL_CONSTANT,
    GENERIC_CLASS,
    ZERO_CLASS,
    census,
    circle_language,
    classify_s,
    representative_start,
    sample_schedule,
    union_complexity,
)
from cubewords.exactnum import PHI, SQRT2, FieldNumber, reduce_mod1
from cubewords.returns import TRANSLATION_ANGLE, CellLabel, circle_partition, rotation_coding
from cubewords.words import complexity

F = FieldNumber


def fr(*args) -> FieldNumber:
    return FieldNumber(Fraction(*args))


def factor_set(word, n):
    return {word[i : i + n] for i in range(len(word) - n + 1)}


def language_counts(language, n_max):
    return [len({w[:n] for w in language}) for n in range(1, n_max + 1)]


def arc_midpoint_language(s, n):
    """circle_language with one rotation_coding per arc, the route the sweep replaced.

    The distinct points c - j*alpha mod 1 are sorted as FieldNumbers, the
    midpoint of each arc between neighbours is coded for n // 2 + 3
    steps, and the length-n windows starting in its first block are kept.
    """
    partition = circle_partition(reduce_mod1(s))
    steps = n // 2 + 3
    seeds = (F(0),) + partition.cuts
    points = sorted(
        {reduce_mod1(c - j * TRANSLATION_ANGLE) for c in seeds for j in range(steps)}
    )
    language = set()
    for lo, hi in zip(points, points[1:] + [F(1)]):
        coding = rotation_coding((lo + hi) / 2, partition, TRANSLATION_ANGLE, steps)
        blocks = [CellLabel(int(digit)).word for digit in coding]
        word = "".join(blocks)
        language.update(word[i : i + n] for i in range(len(blocks[0])))
    return frozenset(language)


def seeded_quartics(count, seed):
    rng = random.Random(seed)
    return [
        reduce_mod1(fr(rng.randrange(0, 97), 97) + fr(rng.randrange(1, 89), 89) * SQRT2)
        for _ in range(count)
    ]


class TestClassify:
    def test_zero(self):
        assert classify_s(F(0)) == ZERO_CLASS

    def test_special_values(self):
        assert classify_s(2 * PHI - 3) == "s=2*phi-3"
        assert classify_s(2 - PHI) == "s=2-phi"
        assert classify_s(PHI - 1) == "s=phi-1"
        assert classify_s(4 - 2 * PHI) == "s=4-2*phi"

    def test_generic_values(self):
        assert classify_s(fr(1, 3)) == GENERIC_CLASS
        assert classify_s(SQRT2 - 1) == GENERIC_CLASS
        assert classify_s(5 - 3 * PHI) == GENERIC_CLASS

    def test_accepts_fraction(self):
        assert classify_s(Fraction(1, 3)) == GENERIC_CLASS


def sorted_fraction_schedule(total, seed):
    """sample_schedule drawing its rationals from the sorted set of Fractions."""
    rng = random.Random(seed)
    stream = [F(0), 2 * PHI - 3, 2 - PHI, PHI - 1, 4 - 2 * PHI]
    pool = sorted({Fraction(p, q) for q in range(2, 65) for p in range(1, q)})
    rationals = [F(f) for f in rng.sample(pool, 50)]
    emitted = 0
    seen = set(stream)
    while len(stream) < total:
        if emitted < len(rationals) and (len(stream) - 5) % 16 == 0:
            stream.append(rationals[emitted])
            emitted += 1
            continue
        u = Fraction(rng.randrange(0, 97), 97)
        v = Fraction(rng.randrange(1, 89), 89)
        s = reduce_mod1(F(u) + F(v) * SQRT2)
        if s in seen:
            continue
        seen.add(s)
        stream.append(s)
    return stream[:total]


class TestSchedule:
    def test_composition(self):
        schedule = sample_schedule(70, seed=11)
        assert len(schedule) == 70
        assert schedule[0] == F(0)
        assert [s for s in schedule[1:5]] == [
            2 * PHI - 3,
            2 - PHI,
            PHI - 1,
            4 - 2 * PHI,
        ]
        # rationals recur every 16th slot after the specials
        rational_positions = [
            i for i, s in enumerate(schedule) if i >= 5 and s.tag == "rational"
        ]
        assert rational_positions == [5, 21, 37, 53, 69]
        for i in rational_positions:
            assert schedule[i].as_fraction().denominator <= 64
        quartic = [
            s
            for i, s in enumerate(schedule)
            if i >= 5 and i not in set(rational_positions)
        ]
        assert all(s.tag == "quartic" for s in quartic)

    def test_rational_pool_spread_across_stream(self):
        schedule = sample_schedule(806, seed=7)
        positions = [
            i for i, s in enumerate(schedule) if i >= 5 and s.tag == "rational"
        ]
        assert len(positions) == 50
        assert positions[0] == 5
        assert positions[-1] == 5 + 16 * 49
        values = {schedule[i].as_fraction() for i in positions}
        assert len(values) == 50
        # beyond the pool the stream is purely quartic
        assert all(s.tag == "quartic" for s in schedule[positions[-1] + 1 :])

    def test_all_distinct_and_in_range(self):
        schedule = sample_schedule(90, seed=2)
        assert len({s.coeffs for s in schedule}) == 90
        assert all(F(0) <= s < 1 for s in schedule)

    def test_prefix_stable(self):
        assert sample_schedule(25, seed=7) == sample_schedule(80, seed=7)[:25]

    def test_deterministic_and_seed_sensitive(self):
        assert sample_schedule(60, seed=3) == sample_schedule(60, seed=3)
        assert sample_schedule(60, seed=3) != sample_schedule(60, seed=4)

    def test_farey_pool_is_the_sorted_fractions(self):
        pool = [Fraction(p, q) for p, q in directional._farey_interior(64)]
        assert pool == sorted({Fraction(p, q) for q in range(2, 65) for p in range(1, q)})
        assert len(pool) == 1259

    def test_matches_the_sorted_fraction_route(self):
        # the oracle extends prefix for prefix, like the schedule
        for seed in range(21):
            expected = sorted_fraction_schedule(806, seed)
            for total in (8, 24, 806):
                assert sample_schedule(total, seed) == expected[:total], (total, seed)

    def test_beyond_the_pool_rejected(self, bounded):
        # 1 zero + 4 golden + 50 rationals + 97*88 quartic values
        with pytest.raises(ValueError, match="8591"):
            bounded(20, sample_schedule, 8592, seed=1)


class TestRepresentative:
    def test_on_face_with_invariant(self):
        for s in (F(0), 2 - PHI, SQRT2 - 1, fr(1, 3)):
            m = representative_start(s)
            assert m.x == 0
            assert reduce_mod1(m.y + m.z) == s

    def test_avoids_zero_z(self):
        s = fr(1, 23)
        m = representative_start(s)
        assert m.z != 0
        assert m.y != 0

    def test_valid_trajectories(self):
        for s in (F(0), 2 * PHI - 3, PHI - 1, SQRT2 - 1, fr(2, 7)):
            assert validate(representative_start(s), horizon=400).ok, str(s)


class TestCircleLanguage:
    def test_found_circle_counts(self):
        # 2000-letter traces of this circle read 3n+11 for n = 8..16,
        # with equal half-window and full counts
        s = reduce_mod1(fr(-24, 97) + fr(64, 89) * SQRT2)
        want = [3, 7, 12, 18, 24] + [4 * n + 4 for n in range(6, 17)]
        assert language_counts(circle_language(s, 16), 16) == want

    def test_shorter_lengths_are_prefixes(self):
        for s in (F(0), 2 - PHI, SQRT2 - 1, fr(1, 3)):
            longest = circle_language(s, 30)
            for n in (1, 2, 7, 8, 15, 29):
                assert circle_language(s, n) == {w[:n] for w in longest}, (str(s), n)

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValueError):
            circle_language(F(0), 0)

    def test_sweep_matches_arc_midpoints(self, monkeypatch):
        merges = []
        sort_and_merge = directional._sorted_merged

        def counting(rows):
            merged = sort_and_merge(rows)
            merges.append(sum(len(tags) > 1 for _, tags in merged))
            return merged

        monkeypatch.setattr(directional, "_sorted_merged", counting)
        golden = (2 * PHI - 3, 2 - PHI, PHI - 1, 4 - 2 * PHI)
        rationals = (fr(1, 2), fr(1, 3), fr(2, 7), fr(5, 64), fr(19, 36))
        for s in (F(0),) + golden + rationals + tuple(seeded_quartics(6, 71)):
            for n in (1, 2, 3, 7, 20, 40):
                assert circle_language(s, n) == arc_midpoint_language(s, n), (str(s), n)
        # coinciding points (saddle connections) took the merge path
        assert min(merges) > 0

    def test_estimates_decide_the_generic_sweep(self, monkeypatch):
        # An exact wrap test per point and an exact sign per neighbouring
        # pair cost about two _int_sign calls per point; the stepped
        # estimates and the sort's estimate gaps decide nearly all of them.
        s = reduce_mod1(fr(4, 13) + SQRT2 / 3)
        part = circle_partition(s)
        calls = []
        real = exactnum._int_sign

        def counting(vector):
            calls.append(vector)
            return real(vector)

        merges = []
        sort_and_merge = directional._sorted_merged

        def merging(rows):
            merged = sort_and_merge(rows)
            merges.append(len(rows) - len(merged))
            return merged

        monkeypatch.setattr(exactnum, "_int_sign", counting)
        monkeypatch.setattr(directional, "_int_sign", counting)
        monkeypatch.setattr(directional, "_sorted_merged", merging)
        n = 40
        language = directional._partition_language(part, n)
        monkeypatch.undo()
        points = part.k * (n // 2 + 3)
        # coinciding points (saddle connections) merge on equal vectors,
        # with no sign test of their zero difference
        assert merges[0] > 0
        assert not any(not any(vector) for vector in calls)
        assert len(calls) < points // 10
        assert language == arc_midpoint_language(s, n)

    @pytest.mark.parametrize(
        "s", [reduce_mod1(fr(4, 13) + SQRT2 / 3), reduce_mod1(3 * TRANSLATION_ANGLE), 2 - PHI, F(0)]
    )
    def test_saddle_connections_merge_without_a_sign_test(self, s, monkeypatch):
        # The sweep's coinciding points are equal vectors, and every other
        # neighbouring pair lies far more than its bounds apart, so the
        # merge calls _compare on none of them.  The merged arcs are those
        # of an exact sort that groups equal values, tags in input order.
        rows = []
        sort_and_merge = directional._sorted_merged

        def recording(points):
            rows.extend(points)
            return sort_and_merge(points)

        monkeypatch.setattr(directional, "_sorted_merged", recording)
        directional._partition_language(circle_partition(s), 40)
        monkeypatch.undo()
        calls = []
        real = exactnum._compare
        monkeypatch.setattr(
            exactnum, "_compare", lambda u, v, scale=1: calls.append((u, v)) or real(u, v, scale)
        )
        merged = sort_and_merge(rows)
        monkeypatch.undo()
        groups = {}
        for _, _, vector, tag in rows:
            groups.setdefault(F(*vector), []).append(tag)
        assert len(merged) < len(rows)
        assert calls == []
        assert [(F(*vector), tags) for vector, tags in merged] == sorted(groups.items())

    @pytest.mark.parametrize("k", [40, 41, 100, 101])
    def test_sweep_near_the_wrap_point(self, k):
        # The seam cut s lies g = F(k+1) - F(k)*phi, about (-1/phi)**k, from
        # j*alpha, so the point s - j*alpha is g (or g*sqrt2) from the wrap
        # point 0, on the side of g's sign.  Its coordinates are near
        # phi**k: at k = 100 the estimate's error dwarfs g * 2**64, and only
        # the exact test can tell whether the point wraps.
        a, b = 0, 1
        for _ in range(k):
            a, b = b, a + b
        g = b - a * PHI
        for j in (1, 4, 9):
            for offset in (g, g * SQRT2):
                s = reduce_mod1(j * TRANSLATION_ANGLE + offset)
                assert circle_language(s, 20) == arc_midpoint_language(s, 20), (j, str(offset))

    @pytest.mark.parametrize("l", [1, 2, 3, 4, 5])
    def test_sweep_on_exact_wrap_merges(self, l, monkeypatch):
        # On s = (l + 1)*alpha, alpha = 2*phi - 3, the horizontal cut is
        # s - alpha = l*alpha, so its point at step l is exactly the wrap
        # point 0, and the first sorted point carries the tags of several steps.
        s = reduce_mod1((l + 1) * TRANSLATION_ANGLE)
        assert reduce_mod1(l * TRANSLATION_ANGLE) in circle_partition(s).cuts
        firsts = []
        sort_and_merge = directional._sorted_merged

        def recording(rows):
            merged = sort_and_merge(rows)
            firsts.append(merged[0])
            return merged

        monkeypatch.setattr(directional, "_sorted_merged", recording)
        for n in (1, 2, 7, 20, 40):
            assert circle_language(s, n) == arc_midpoint_language(s, n), (l, n)
        vector, tags = firsts[-1]
        assert not any(vector)
        # the seam cut s = (l + 1)*alpha lands there too, at step l + 1
        assert sorted(j for j, _ in tags) == [0, l, l + 1]

    def test_sweep_codes_no_orbit(self, monkeypatch):
        samples = [F(0), 2 - PHI, SQRT2 - 1, fr(1, 3), reduce_mod1(3 * TRANSLATION_ANGLE)]
        languages = [circle_language(s, 20) for s in samples]
        summary = census(samples, n_max=20)

        def refuse(*args):
            raise AssertionError("the sweep coded an orbit")

        monkeypatch.setattr(returns, "rotation_coding", refuse)
        monkeypatch.setattr(directional, "rotation_coding", refuse, raising=False)
        assert [circle_language(s, 20) for s in samples] == languages
        assert census(samples, n_max=20) == summary

    def test_sweep_matches_arc_midpoints_at_100(self):
        for s in (F(0), 2 - PHI, fr(3, 7)) + tuple(seeded_quartics(2, 83)):
            assert circle_language(s, 100) == arc_midpoint_language(s, 100), str(s)

    def test_traced_factors_on_schedule_circles(self):
        for s in sample_schedule(30, seed=3):
            start = representative_start(s)
            assert validate(start, horizon=20_000).ok, str(s)
            word = trace_letters(start, length=20_000)
            language = circle_language(s, 40)
            assert factor_set(word, 40) <= language, str(s)
            for n in range(1, 17):
                assert factor_set(word, n) == {w[:n] for w in language}, (str(s), n)


@pytest.fixture(scope="module")
def small_census():
    samples = [F(0), 2 - PHI, SQRT2 - 1, fr(1, 3)]
    return census(samples, n_max=25)


class TestCensus:
    def test_classes_present(self, small_census):
        assert set(small_census.classes) == {ZERO_CLASS, "s=2-phi", GENERIC_CLASS}
        assert sum(len(summary.s_values) for summary in small_census.classes.values()) == 4

    def test_k_values(self, small_census):
        assert small_census.classes[ZERO_CLASS].k == 3
        assert small_census.classes["s=2-phi"].k == 5
        assert small_census.classes[GENERIC_CLASS].k == 6

    def test_zero_class_law(self, small_census):
        law = small_census.classes[ZERO_CLASS].law
        assert law == (2, 3, 2)

    def test_golden_class_law(self, small_census):
        law = small_census.classes["s=2-phi"].law
        assert law == (2, 8, 8)

    def test_generic_class_prefers_quartic_representative(self, small_census):
        summary = small_census.classes[GENERIC_CLASS]
        assert summary.s_values == (SQRT2 - 1, fr(1, 3))
        assert summary.law == (4, 4, 8)

    def test_rational_member_law_reported(self, small_census):
        # 1/3 shares the quartic tail 4n+4 even though its earliest
        # counts differ (all seven digrams appear, p(2)=7 vs 6); the
        # per-sample slot keeps that checkable instead of averaged away.
        summary = small_census.classes[GENERIC_CLASS]
        rational_law = summary.sample_laws[1]
        assert rational_law == (4, 4, 8)

    def test_union_table(self, small_census):
        assert small_census.union_p(1) == 3
        assert small_census.union_p(2) == 7
        assert small_census.union_p(25) == small_census.union_counts[-1]
        for n in (0, 26):
            with pytest.raises(ValueError, match=r"outside table range 1\.\.25$"):
                small_census.union_p(n)

    def test_one_partition_per_sample(self, monkeypatch):
        calls = []
        build = directional.circle_partition
        monkeypatch.setattr(directional, "circle_partition", lambda s: calls.append(s) or build(s))
        census([F(0), 2 - PHI, SQRT2 - 1], n_max=8)
        assert len(calls) == 3

    @pytest.mark.parametrize("samples", [[], [F(0), 2 - PHI]], ids=["empty", "two"])
    @pytest.mark.parametrize("n_max", [0, -3])
    def test_rejects_n_max_below_one(self, samples, n_max):
        # checked before any sample, so an empty sample list raises too
        with pytest.raises(ValueError, match="^n_max must be at least 1$"):
            census(samples, n_max)

    def test_union_counts_the_union_of_languages(self, small_census):
        samples = [F(0), 2 - PHI, SQRT2 - 1, fr(1, 3)]
        union = set().union(*(circle_language(s, 25) for s in samples))
        assert list(small_census.union_counts) == language_counts(union, 25)


class TestUnionComplexity:
    def test_rejects_a_prefix_below_twice_n_max(self):
        with pytest.raises(
            ValueError, match="^prefix must be at least twice n_max for stable counts$"
        ):
            union_complexity([F(0), 2 - PHI], 16, 31)

    def test_low_lengths(self):
        samples = [F(0), 2 - PHI, fr(1, 5)]
        table = union_complexity(samples, n_max=12, prefix=2000)
        assert table.p(1) == 3
        assert table.p(2) == 7
        assert table.sample_count == 3
        assert len(table.counts) == 12
        for n in (0, 13):
            with pytest.raises(ValueError, match=r"outside table range 1\.\.12$"):
                table.p(n)

    def test_monotone_in_samples(self):
        samples = [
            F(0),
            2 * PHI - 3,
            2 - PHI,
            SQRT2 - 1,
            fr(1, 3),
            fr(2, 7),
            reduce_mod1(fr(1, 5) + fr(1, 7) * SQRT2),
            reduce_mod1(fr(3, 11) + fr(2, 9) * SQRT2),
        ]
        small = union_complexity(samples[:4], n_max=15, prefix=3200)
        large = union_complexity(samples, n_max=15, prefix=3200)
        for n in range(1, 16):
            assert large.p(n) >= small.p(n)

    def test_union_dominates_class_laws(self):
        samples = [F(0), 2 - PHI, SQRT2 - 1]
        table = union_complexity(samples, n_max=15, prefix=4000)
        # class laws only hold from their thresholds (n >= 8)
        for n in range(8, 14):
            assert table.p(n) >= 4 * n + 4
            assert table.p(n) >= 2 * n + 8

    def test_sanity_upper_bound(self):
        samples = sample_schedule(30, seed=6)
        table = union_complexity(samples, n_max=15, prefix=3200)
        for n in range(2, 16):
            assert table.p(n) <= 2 * n * n

    def test_benchmark_contract(self):
        # called positionally, as the union_growth benchmark calls it
        schedule = sample_schedule(12, seed=5)
        table = union_complexity(schedule, 10, 1200)
        words = []
        for s in schedule:
            start = representative_start(reduce_mod1(s))
            if validate(start, horizon=1200).ok:
                words.append(trace_letters(start, length=1200))
        plain = tuple(
            len(set().union(*(factor_set(w, n) for w in words))) for n in range(1, 11)
        )
        assert table.sample_count == len(words)
        assert table.counts == plain
        exact = census(schedule, 10)
        assert all(t <= e for t, e in zip(table.counts, exact.union_counts))

    def test_counts_random_word_lists(self, monkeypatch):
        # the counting route alone: every start is valid and each trace is
        # the next of a seeded list holding empty, short and repeated words
        rng = random.Random(8111)
        for _ in range(60):
            n_max = rng.randint(1, 9)
            words = [
                "".join(rng.choice("abc") for _ in range(rng.randint(0, 3 * n_max)))
                for _ in range(rng.randint(0, 6))
            ]
            words += rng.sample(words, min(len(words), 2)) + [""]
            traces = iter(words)
            monkeypatch.setattr(directional, "_valid_letters", lambda start, length: next(traces))
            samples = [fr(k, 101) for k in range(1, len(words) + 1)]
            table = union_complexity(samples, n_max, 2 * n_max)
            plain = tuple(
                len(set().union(*(factor_set(w, n) for w in words)))
                for n in range(1, n_max + 1)
            )
            assert table.counts == plain, (words, n_max)
            assert table.sample_count == len(words)

    def test_traced_words_validate_then_trace(self):
        # each kept word is validate-then-trace of the representative start;
        # y = 1/23 and z = 1 - (22/23)(phi - 1) cross their first planes
        # together, so that circle is skipped
        tied = fr(1, 23) + 1 - fr(22, 23) * (PHI - 1)
        samples = sample_schedule(12, seed=4) + [tied, fr(1, 23), fr(24, 23), 2 - PHI]
        expected = []
        for raw in samples:
            start = representative_start(raw)
            if validate(start, horizon=800).ok:
                expected.append((reduce_mod1(raw), trace_letters(start, length=800)))
        assert len(expected) == len(samples) - 1
        assert list(directional._traced_words(samples, 800)) == expected

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValueError):
            union_complexity([F(0)], 0, 10)

    def test_target_constant(self):
        assert abs(float(DIRECTIONAL_CONSTANT) - 0.93634) < 1e-4


class TestEqualInvariantLanguages:
    def test_twenty_pairs_share_factors(self):
        rng = random.Random(60)
        checked = 0
        while checked < 20:
            kind = rng.randrange(3)
            if kind == 0:
                s = fr(rng.randrange(0, 61), 61)
            elif kind == 1:
                s = (2 * PHI - 3, 2 - PHI, PHI - 1, 4 - 2 * PHI)[rng.randrange(4)]
            else:
                s = reduce_mod1(
                    fr(rng.randrange(0, 31), 31) + fr(rng.randrange(1, 13), 13) * SQRT2
                )
            y1 = Fraction(rng.randrange(1, 97), 97)
            y2 = Fraction(rng.randrange(1, 89), 89)
            m1 = StartPoint(0, y1, reduce_mod1(s - y1))
            m2 = StartPoint(0, y2, reduce_mod1(s - y2))
            if m1.z == 0 or m2.z == 0 or m1 == m2:
                continue
            if not (validate(m1, horizon=600).ok and validate(m2, horizon=600).ok):
                continue
            w1 = trace_letters(m1, length=13_000)
            w2 = trace_letters(m2, length=13_000)
            p1 = complexity(w1, 60)
            p2 = complexity(w2, 60)
            stable = min(p1.stable_through, p2.stable_through, 60)
            assert stable >= 10
            for n in range(1, stable + 1):
                assert p1.p(n) == p2.p(n), (str(s), n)
            assert factor_set(w1, stable) == factor_set(w2, stable), str(s)
            checked += 1
