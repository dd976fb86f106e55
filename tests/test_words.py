"""Factor machinery: automaton counts, censuses, stability, identities."""

import itertools
import random
from fractions import Fraction

import pytest

from cubewords import words
from cubewords.billiard import StartPoint, trace_letters
from cubewords.exactnum import PHI, SQRT2
from cubewords.returns import TRANSLATION_ANGLE, circle_partition, rotation_coding
from cubewords.words import (
    ComplexityProfile,
    SuffixAutomaton,
    UnstableLength,
    cassaigne_check,
    complexity,
    fit_complexity_tail,
    is_sturmian,
)
from oracles import fit_affine, fitted_tail, raw_crossings


def naive_counts(word, n_max):
    return [len({word[i : i + n] for i in range(len(word) - n + 1)}) for n in range(1, n_max + 1)]


def scanned_extensions(word, n):
    """Left letters, right letters and pairs of every length-n factor, by one scan.

    A right extension is trusted only when n + 2 further letters follow
    it; position 0 has no left letter.
    """
    total = len(word)
    raw = {}
    for i in range(total - n + 1):
        left, right, pairs = raw.setdefault(word[i : i + n], (set(), set(), set()))
        if i >= 1:
            left.add(word[i - 1])
        if i + n <= total - (n + 2):
            right.add(word[i + n])
            if i >= 1:
                pairs.add((word[i - 1], word[i + n]))
    return raw


def census_bispecial_sums(word, n_max):
    """The Cassaigne sums m(v) = #pairs - #right - #left + 1 of the scans, one per length."""
    return tuple(
        sum(
            len(pairs) - len(right) - len(left) + 1
            for left, right, pairs in scanned_extensions(word, n).values()
            if len(left) >= 2 and len(right) >= 2
        )
        for n in range(1, n_max + 1)
    )


def right_special(word, n):
    """The scan's right special factors of length n, each with its right letters."""
    extensions = scanned_extensions(word, n)
    return {piece: right for piece, (_, right, _) in extensions.items() if len(right) >= 2}


def fibonacci_word(length):
    a, b = "a", "ab"
    while len(b) < length:
        a, b = b, b + a
    return b[:length]


def test_automaton_matches_naive_on_random_words():
    rng = random.Random(5150)
    for _ in range(60):
        word = "".join(rng.choice("abc") for _ in range(rng.randint(2, 400)))
        n_max = min(len(word), 12)
        assert SuffixAutomaton(word).factor_counts(n_max) == naive_counts(word, n_max)


def test_interior_word_profile():
    word = trace_letters(StartPoint(0, Fraction(1, 2), Fraction(1, 2)), length=20000)
    profile = complexity(word, 16)
    assert profile.stable_through == 16
    assert profile.p(1) == 3
    assert [profile.p(n) for n in range(2, 17)] == [2 * n + 3 for n in range(2, 17)]
    assert profile.s(5) == 2


def test_degenerate_golden_profile():
    word = trace_letters(StartPoint(0, 0, 2 - PHI), length=20000)
    profile = complexity(word, 16)
    assert [profile.p(n) for n in range(1, 8)] == [3 * n for n in range(1, 8)]
    assert [profile.p(n) for n in range(8, 17)] == [2 * n + 8 for n in range(8, 17)]


def test_degenerate_quartic_profile():
    word = trace_letters(StartPoint(0, 0, SQRT2 - 1), length=20000)
    profile = complexity(word, 16)
    assert [profile.p(n) for n in range(1, 9)] == [3, 6, 9, 14, 19, 25, 31, 36]
    assert [profile.p(n) for n in range(9, 17)] == [4 * n + 4 for n in range(9, 17)]


def test_quartic_word_refutes_4n_minus_1():
    # Independent of billiard._merged_axes and the automaton: the
    # reference crossing stream gives the letters and slice sets count
    # them.  Every factor of a prefix is a factor of the whole word, so
    # these counts are lower bounds that already exceed 4n-1.
    start = StartPoint(0, 0, SQRT2 - 1)
    word = "".join(letter for _, letter in itertools.islice(raw_crossings(start), 5000))
    assert word == trace_letters(start, length=5000)
    counts = naive_counts(word, 30)
    # dropping the windows at letter 0, where the limit convention picks
    # the letters, leaves every count unchanged
    assert naive_counts(word[1:], 30) == counts
    for n in range(8, 31):
        assert counts[n - 1] == 4 * n + 4 > 4 * n - 1


def test_known_right_special_factors():
    word = trace_letters(StartPoint(0, 0, 2 - PHI), length=30000)
    assert "abcabacbabc" in right_special(word, 11)
    assert "cbabcab" in right_special(word, 7)
    assert "acbabcabcbab" in right_special(word, 12)
    assert sorted(right_special(word, 1)) == ["a", "b", "c"]


def test_hand_censused_extensions():
    extensions = scanned_extensions("aabab", 1)
    assert extensions["a"][:2] == ({"a", "b"}, {"a", "b"})
    assert extensions["b"][:2] == ({"a"}, set())
    assert sorted(piece for piece, (left, _, _) in extensions.items() if len(left) >= 2) == ["a"]
    assert right_special("aabab", 1) == {"a": {"a", "b"}}
    bispecial = [p for p, (l, r, _) in extensions.items() if len(l) >= 2 and len(r) >= 2]
    assert bispecial == ["a"]


def assert_right_special(word, n_max):
    """_right_special equals the scan's right special factors at every length 1..n_max."""
    expected = {}
    for n in range(1, n_max + 1):
        expected.update(right_special(word, n))
    assert words._right_special(word, n_max) == expected, (word, n_max)


def test_right_special_matches_the_scan_on_random_words():
    rng = random.Random(7207)
    for _ in range(300):
        length = rng.randint(1, 90)
        alphabet = "abc"[: rng.randint(1, 3)]
        word = "".join(rng.choice(alphabet) for _ in range(length))
        # n_max = len(word), windows longer than the word, and the rest
        for n_max in {length, rng.randint(1, length), min(length, 4)}:
            assert_right_special(word, n_max)


def test_right_special_matches_the_scan_on_reference_words():
    for start in REFERENCE_STARTS:
        assert_right_special(trace_letters(start, length=8000), 52)


def test_cassaigne_on_traced_words():
    for start in [
        StartPoint(0, Fraction(1, 2), Fraction(1, 2)),
        StartPoint(0, 0, 2 - PHI),
        StartPoint(0, 0, SQRT2 - 1),
    ]:
        word = trace_letters(start, length=20000)
        assert cassaigne_check(word, 14) == []


def test_bispecial_sums_match_the_censuses_on_random_words():
    rng = random.Random(1997)
    alphabets = ("a", "ab", "abc", "xyz", "wxyz", "a\0b", "a\u0101\u4e00", "\0\U0010ffff")
    for i in range(440):
        length = rng.randint(1, 90)
        # the sums must take their letters from the word, not from "abc",
        # and NUL or letters past Latin-1 must not change them
        alphabet = alphabets[i % len(alphabets)]
        word = "".join(rng.choice(alphabet) for _ in range(length))
        # a length's census does not depend on n_max, so one serves all three
        expected = census_bispecial_sums(word, length)
        for n_max in {length, rng.randint(1, length), min(length, 4)}:
            assert words._bispecial_sums(word, n_max) == expected[:n_max], (word, n_max)


def test_bispecial_sums_match_the_censuses_on_reference_words():
    for start in [
        StartPoint(0, Fraction(1, 2), Fraction(1, 2)),
        StartPoint(0, 0, 2 - PHI),
        StartPoint(0, 0, SQRT2 - 1),
    ]:
        word = trace_letters(start, length=8000)
        assert words._bispecial_sums(word, 52) == census_bispecial_sums(word, 52)


def assert_census_sums(word):
    """_bispecial_sums agrees with the censuses at every n_max the word allows."""
    expected = census_bispecial_sums(word, len(word))
    for n_max in range(1, len(word) + 1):
        assert words._bispecial_sums(word, n_max) == expected[:n_max], (word, n_max)


def test_bispecial_sums_around_the_trust_boundary():
    # at length n a window needs 2n + 3 letters to trust its right letter,
    # and the word needs 2n + 2 for the head's
    rng = random.Random(2121)
    for n in range(1, 13):
        for length in range(2 * n + 1, 2 * n + 5):
            for alphabet in ("ab", "abc", "abc", "abcd"):
                assert_census_sums("".join(rng.choice(alphabet) for _ in range(length)))


@pytest.mark.parametrize("period", ["ab", "aab", "a", "abc", "aabab"])
def test_bispecial_sums_of_periodic_words(period):
    for k in range(1, 16):
        assert_census_sums(period * k)
        assert_census_sums(period * k + period[0])


def right_letter_sources(word, v):
    """Right letters of v by source: trusted occurrences after position 0,
    the head occurrence, and every occurrence with a letter after it."""
    n, total = len(v), len(word)
    trusted, every = set(), set()
    for i in range(1, total - n):
        if word.startswith(v, i):
            every.add(word[i + n])
            if i + 2 * n + 2 <= total:
                trusted.add(word[i + n])
    head = {word[n]} if total >= 2 * n + 2 and word.startswith(v) else set()
    return trusted, head, every


def test_bispecial_sums_where_a_right_letter_has_one_source():
    # a left special v whose second right letter comes only from the head
    # occurrence, or whose extra right letter comes only from a window cut
    # short of the trust length: the branch filter admits both, and only
    # the lookups of long windows settle them
    rng = random.Random(2122)
    head_only = cut_short_only = 0
    while head_only < 40 or cut_short_only < 40:
        word = "".join(rng.choice("abc"[: rng.randint(2, 3)]) for _ in range(rng.randint(4, 40)))
        kinds = set()
        for n in range(1, len(word) + 1):
            for v, (left, right, _) in scanned_extensions(word, n).items():
                if len(left) < 2:
                    continue
                trusted, head, every = right_letter_sources(word, v)
                assert right == trusted | head
                if len(trusted) == 1 and head - trusted:
                    kinds.add("head")
                if every - trusted - head:
                    kinds.add("cut")
        if kinds:
            head_only += "head" in kinds
            cut_short_only += "cut" in kinds
            assert_census_sums(word)
    for word in ("ab" + "ac" * 8, "ac" * 8 + "ab", "ac" * 8 + "abc", "ac" * 8 + "abcc"):
        assert_census_sums(word)


def test_bispecial_sums_of_the_wide_request():
    # complexity --letters 4000 --n-max 2000 at the default start checks
    # the identity up to the last length whose next two are stable
    word = trace_letters(REFERENCE_STARTS[0], length=4000)
    top = complexity(word, 2000).stable_through - 2
    assert top > 300
    assert words._bispecial_sums(word, top) == census_bispecial_sums(word, top)


def test_cassaigne_on_fibonacci():
    assert cassaigne_check(fibonacci_word(15000), 20) == []


def test_sturmian_detection():
    assert is_sturmian(fibonacci_word(8000), 40)
    assert not is_sturmian("ab" * 4000, 40)
    word = trace_letters(StartPoint(0, Fraction(1, 2), Fraction(1, 2)), length=8000)
    assert not is_sturmian(word, 40)


def test_stability_and_unstable_errors():
    word = trace_letters(StartPoint(0, Fraction(1, 2), Fraction(1, 2)), length=300)
    profile = complexity(word, 100)
    assert profile.stable_through < 100
    with pytest.raises(UnstableLength):
        profile.require_stable(100)
    assert profile.require_stable(2) == 7
    with pytest.raises(ValueError):
        complexity(word, 200)
    with pytest.raises(ValueError):
        profile.p(0)


def test_profile_owns_its_law():
    # seeded words with and without an affine tail, stable or not at the top
    rng = random.Random(2302)
    samples = [fibonacci_word(400), "abc" * 40, "ab" * 3 + "c" * 50]
    samples += ["".join(rng.choice("abc"[:k]) for _ in range(rng.randrange(8, 300))) for k in (2, 3) * 20]
    for word in samples:
        for n_max in {1, 2, len(word) // 4 or 1, len(word) // 2}:
            profile = complexity(word, n_max)
            assert profile.n_max == len(profile.full_counts) == n_max
            law = fit_complexity_tail(profile.full_counts[: profile.stable_through])
            assert profile.law == law
            assert profile.slope == (None if law is None else law[0])
            with pytest.raises(ValueError, match=f"outside profile range 1..{n_max}"):
                profile.stable(n_max + 1)
    assert complexity(fibonacci_word(400), 100).law == (1, 1, 1)


def looped_cassaigne_failures(word, n_max):
    """cassaigne_check by one stability and increment call per length, sums from the censuses."""
    profile = complexity(word, n_max)
    stable = [None] + [profile.p(n) == profile.half_counts[n - 1] for n in range(1, n_max + 1)]
    checked = [n for n in range(1, n_max - 1) if stable[n] and stable[n + 1] and stable[n + 2]]
    sums = census_bispecial_sums(word, checked[-1]) if checked else ()
    increments = {n: profile.s(n + 1) - profile.s(n) for n in checked}
    return [(n, increments[n], sums[n - 1]) for n in checked if increments[n] != sums[n - 1]]


def test_profile_reads_match_the_per_length_calls():
    # stable, stable_through, the checked lengths and increments of
    # cassaigne_check and is_sturmian read the profile's stable flags and
    # count tuples in one pass; per-length comparisons of the counts are
    # the plain route, on words stable, unstable and in between
    rng = random.Random(2424)
    samples = [fibonacci_word(300), "ab" * 60, "aab" * 30 + "b" * 40, "a" * 80 + "b"]
    samples += [
        "".join(rng.choice("abc"[:k]) for _ in range(rng.randrange(6, 120))) for k in (2, 3) * 30
    ]
    for word in samples:
        for n_max in {1, 3, len(word) // 4 or 1, len(word) // 2}:
            profile = complexity(word, n_max)
            flags = [profile.p(n) == profile.half_counts[n - 1] for n in range(1, n_max + 1)]
            assert [profile.stable(n) for n in range(1, n_max + 1)] == flags, (word, n_max)
            top = next((n for n, flag in enumerate(flags) if not flag), n_max)
            assert profile.stable_through == top, (word, n_max)
            expected = looped_cassaigne_failures(word, n_max)
            assert cassaigne_check(word, n_max) == expected, (word, n_max)
            if top == 0:
                with pytest.raises(UnstableLength):
                    is_sturmian(word, n_max)
            else:
                sturmian = all(profile.p(n) == n + 1 for n in range(1, top + 1))
                assert is_sturmian(word, n_max) == sturmian, (word, n_max)


def test_periodic_word_profile():
    profile = complexity("abc" * 400, 10)
    assert all(profile.p(n) == 3 for n in range(1, 11))
    assert profile.stable(10)


def test_fit_affine():
    assert fit_affine([(2, 7), (3, 9), (4, 11)]) == (Fraction(2), Fraction(3))
    assert fit_affine([(9, 40), (10, 44), (16, 68)]) == (Fraction(4), Fraction(4))
    assert fit_affine([(2, 7), (3, 9), (4, 12)]) is None
    assert fit_affine([(2, 7)]) is None
    assert fit_affine([]) is None
    assert fit_affine([(3, 5), (5, 6)]) == (Fraction(1, 2), Fraction(7, 2))


def assert_same_tail(counts):
    law = fit_complexity_tail(counts)
    assert law == fitted_tail(counts), counts
    if law is not None:
        assert all(type(value) is Fraction for value in law[:2])
        assert type(law[2]) is int


def test_fit_complexity_tail_matches_the_fit_loop():
    rng = random.Random(2031)
    for _ in range(400):
        prefix = [rng.randrange(0, 30) for _ in range(rng.randrange(0, 8))]
        slope = rng.randrange(-3, 6)
        start = rng.randrange(-5, 40)
        tail = [start + slope * i for i in range(rng.randrange(1, 10))]
        assert_same_tail(prefix + tail)


def test_fit_complexity_tail_on_constant_and_short_lists():
    for length in range(0, 7):
        assert_same_tail([5] * length)
    for length in range(0, 4):
        for counts in itertools.product(range(3), repeat=length):
            assert_same_tail(list(counts))
    assert fit_complexity_tail([5, 5, 5]) == (Fraction(0), Fraction(5), 1)
    assert fit_complexity_tail([1, 2]) is None


def test_fit_complexity_tail_without_an_affine_tail():
    rng = random.Random(2032)
    for _ in range(200):
        counts = [rng.randrange(0, 50) for _ in range(rng.randrange(3, 12))]
        # the last three points are not collinear
        counts[-1] = 2 * counts[-2] - counts[-3] + rng.choice((-2, -1, 1, 2))
        assert fit_complexity_tail(counts) is None
        assert_same_tail(counts)


def test_fit_complexity_tail_pins_the_corrected_law():
    counts = [3, 6, 9, 14, 19, 25, 31, 36, 40, 44]
    assert fit_complexity_tail(counts) == (Fraction(4), Fraction(4), 8)
    assert_same_tail(counts)


def test_half_counts_are_the_half_prefix_counts():
    rng = random.Random(6061)
    for length in [rng.randint(2, 300) for _ in range(40)] + [41, 42]:
        word = "".join(rng.choice("abc") for _ in range(length))
        n_max = min(length // 2, 12)
        profile = complexity(word, n_max)
        assert list(profile.half_counts) == naive_counts(word[: length // 2], n_max)
        assert list(profile.full_counts) == naive_counts(word, n_max)


def sliced_windows(word, width):
    """The plain route to _windows: one slice per starting position."""
    return {word[i : i + width] for i in range(len(word))}


def sliced_prefix_counts(texts, n_max):
    """The plain route to _prefix_counts: one set of slices per length."""
    return tuple(
        len({text[:n] for text in texts if len(text) >= n}) for n in range(1, n_max + 1)
    )


REFERENCE_STARTS = [
    StartPoint(0, Fraction(1, 2), Fraction(1, 2)),  # s = 0
    StartPoint(0, 0, 2 - PHI),  # a golden special circle
    StartPoint(0, 0, SQRT2 - 1),  # a generic quartic circle
]


def test_windows_match_the_slices_on_random_words():
    rng = random.Random(3133)
    for length in range(61):
        for _ in range(4):
            word = "".join(rng.choice("abc") for _ in range(length))
            for width in range(1, 21):
                assert words._windows(word, width) == sliced_windows(word, width), (word, width)


@pytest.mark.parametrize(
    "word",
    [
        "",
        "a",
        "abc",  # shorter than the separator
        "abcab",
        "a" * 40,
        "ab" * 30,
        "abcabcabcabc",
        "abcdef" + "xy" * 20,  # the prefix never recurs: one span, the whole word
        "aaaaaab" + "aaaaaa" * 3 + "aaaaaaab",
    ],
)
def test_windows_of_periodic_and_short_words(word):
    for width in (1, 2, 3, 5, 6, 7, 12, 50, 100):
        assert words._windows(word, width) == sliced_windows(word, width), width


def test_windows_of_traced_words():
    for start in REFERENCE_STARTS:
        word = trace_letters(start, length=3000)
        for width in (1, 16, 107):
            assert words._windows(word, width) == sliced_windows(word, width), width


def test_windows_where_the_separator_grows_with_the_width():
    # width // 4 > _ANCHOR at every one of these widths
    rng = random.Random(3134)
    texts = [
        "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 700)))
        for alphabet in ("ab", "abc", "aab") * 4
    ]
    texts += ["abc" * 300, "ab" * 400 + "b", "a" * 500, fibonacci_word(900)]
    texts += [trace_letters(start, length=3000) for start in REFERENCE_STARTS]
    for word in texts:
        for width in (24, 52, 100, 103, 205):
            assert words._windows(word, width) == sliced_windows(word, width), (word[:20], width)


def test_windows_do_not_depend_on_the_anchor(monkeypatch):
    # any anchor set containing position 0 is correct; the separator
    # length, max(_ANCHOR, width // 4), only sets how many spans are
    # expanded.  Widths 24 and 52 take width // 4 under the small
    # anchors and _ANCHOR under the large ones.
    rng = random.Random(88)
    texts = ["".join(rng.choice("ab") for _ in range(rng.randint(0, 50))) for _ in range(40)]
    texts.append(trace_letters(REFERENCE_STARTS[2], length=500))
    for anchor in (1, 2, 3, 9, 40):
        monkeypatch.setattr(words, "_ANCHOR", anchor)
        for word in texts:
            for width in (1, 4, 11, 24, 52):
                assert words._windows(word, width) == sliced_windows(word, width)


def test_prefix_counts_match_the_slices():
    rng = random.Random(4242)
    for _ in range(400):
        # NUL and letters past Latin-1 reach both key widths and the padding
        alphabet = rng.choice(
            ("a", "ab", "abc", "a\0", "ab\0", "a\u00ffb", "a\u0101", "\0\U0010ffff")
        )
        texts = [
            "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 14)))
            for _ in range(rng.randint(0, 30))
        ]
        texts += rng.sample(texts, len(texts) // 3)  # duplicates
        texts += [text[: rng.randint(0, len(text))] for text in rng.sample(texts, len(texts) // 4)]
        n_max = rng.randint(1, 16)
        cut = {text[:n_max] for text in texts}
        assert words._prefix_counts(cut, n_max) == sliced_prefix_counts(texts, n_max)


@pytest.mark.parametrize(
    "texts",
    [
        [],
        [""],
        ["", "a", ""],
        ["abc", "abd", "ab", "a", "abcd", "b"],  # shared prefixes, texts shorter than n
        ["abc", "abc", "abc"],
        ["ba", "ab", "ba", "b", "abab"],
        ["xyz" * 5, "xyz" * 4 + "xy", "xy"],
        ["a\0", "a", "a\0\0b", "\0", "", "\0\0"],  # NUL letters where padding sits
        ["\u0101", "\u0101\u0102", "a\u0101", "a", "\u4e00\0", "\U0001f600b"],
        ["a", "ab", "abc", "abcd", "abcde"],  # each a prefix of the next
        ["abcde", "abcd", "abc", "ab", "a"],
        ["ab\0", "ab\u00ff", "ab\u0100", "ab"],  # both sides of the Latin-1 edge
    ],
)
def test_prefix_counts_on_hand_cases(texts):
    for n_max in (1, 2, 3, 6, 20, 2000):
        cut = {text[:n_max] for text in texts}
        assert words._prefix_counts(cut, n_max) == sliced_prefix_counts(texts, n_max)


def test_prefix_counts_of_traced_windows():
    # the cut-short windows of a word carry its factor counts
    for start in REFERENCE_STARTS:
        word = trace_letters(start, length=3000)
        windows = sliced_windows(word, 40)
        counts = words._prefix_counts(windows, 40)
        assert counts == sliced_prefix_counts(windows, 40) == tuple(naive_counts(word, 40))


def assert_automaton_counts(word, n_max):
    """complexity's full and half counts are the automaton's, word and half prefix."""
    profile = complexity(word, n_max)
    half = word[: len(word) // 2]
    assert list(profile.full_counts) == SuffixAutomaton(word).factor_counts(n_max)
    assert list(profile.half_counts) == SuffixAutomaton(half).factor_counts(n_max)


def test_complexity_matches_the_automaton_on_random_words():
    rng = random.Random(1515)
    for i in range(400):
        alphabet = "abcd"[: 1 + i % 4]
        length = rng.randint(2, 160)
        word = "".join(rng.choice(alphabet) for _ in range(length))
        for n_max in {1, length // 2, rng.randint(1, length // 2)}:
            assert_automaton_counts(word, n_max)


@pytest.mark.parametrize("word", ["abc" * 400, fibonacci_word(5000)], ids=["abc", "fibonacci"])
def test_complexity_matches_the_automaton_on_periodic_and_sturmian_words(word):
    for n_max in (1, 40, 100, len(word) // 2):
        assert_automaton_counts(word, n_max)


def test_complexity_matches_the_automaton_on_traced_words():
    for start in REFERENCE_STARTS:
        assert_automaton_counts(trace_letters(start, length=8000), 100)


def test_complexity_matches_the_automaton_on_a_rotation_coding():
    partition = circle_partition(SQRT2 - 1)
    coding = rotation_coding(Fraction(1, 11), partition, TRANSLATION_ANGLE, 6000)
    assert_automaton_counts(coding, 60)


def scanned_common_prefix(a, b):
    """The plain route to _common_prefixes: one comparison per letter."""
    return next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))


@pytest.mark.parametrize(
    "a, b",
    [
        ("", ""),
        ("", "abc"),
        ("abc", "abc"),  # equal texts
        ("ab", "abcab"),  # one a prefix of the other
        ("abcab", "ab"),
        ("xbcab", "abcab"),  # a difference at index 0
        ("abcab", "abcaa"),  # a difference at the last index
        ("a", "b"),
        ("a" * 1000, "a" * 999 + "b"),
        ("a", "a\0"),  # a NUL letter where the shorter text's padding sits
        ("a\0\0", "a\0"),
        ("ab\0c", "ab\0d"),
        ("\u0101b", "\u0101c"),  # letters outside Latin-1 take the wide codes
        ("\U0010ffff", "\U0010ffff\0"),
        ("\ud800a", "\ud800b"),  # a lone surrogate is a letter like any other
        ("a\u00ff", "a"),  # code 0xff beside the shorter text's padding
        ("a\x7f", "a"),  # the largest ASCII code beside the padding
    ],
    ids=[
        "empty", "one-empty", "equal", "prefix", "extension", "first", "last", "one", "long",
        "nul-pad", "nul-run", "nul-inside", "wide", "wide-nul", "surrogate", "latin-pad",
        "ascii-pad",
    ],
)
def test_common_prefix_on_hand_cases(a, b, bounded):
    expected = scanned_common_prefix(a, b)
    assert bounded(2, words._common_prefixes, [a, b]) == [expected]
    assert bounded(2, words._common_prefixes, [b, a]) == [expected]


def test_common_prefix_matches_the_scan_on_random_texts(bounded):
    rng = random.Random(977)
    pairs = []
    for i in range(500):
        alphabet = ("ab", "a\0", "a\u00ff\0", "a\u4e00")[i % 4]
        shared = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 40)))
        pairs.append(
            tuple(
                shared + "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 5)))
                for _ in "ab"
            )
        )

    def check():
        for a, b in pairs:
            assert words._common_prefixes([a, b]) == [scanned_common_prefix(a, b)], (a, b)

    bounded(5, check)


@pytest.mark.parametrize("width", [16, 100, 2000])
def test_common_prefixes_of_sorted_window_tables(width):
    # sorted windows as _prefix_counts reads them: width 16 of the union
    # counts, 100 of a long word's profile, 2000 of the widest request
    for start in REFERENCE_STARTS:
        table = sorted(words._windows(trace_letters(start, length=3000), width))
        assert words._common_prefixes(table) == [
            scanned_common_prefix(a, b) for a, b in zip(table, table[1:])
        ], start


def test_common_prefixes_of_a_list_are_the_adjacent_pairs():
    rng = random.Random(978)
    for alphabet in ("ab", "ab\0", "a\u0101\0"):
        texts = [
            "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12))) for _ in range(300)
        ]
        for ordered in (texts, sorted(texts)):
            assert words._common_prefixes(ordered) == [
                scanned_common_prefix(a, b) for a, b in zip(ordered, ordered[1:])
            ]
    assert words._common_prefixes([]) == []
    assert words._common_prefixes(["abc"]) == []


def test_prefix_counts_of_wide_windows():
    # the slices are checked at every 50th length: at all 2000 lengths
    # the plain route would copy billions of letters
    word = trace_letters(REFERENCE_STARTS[2], length=4000)
    windows = words._windows(word, 2000)
    counts = words._prefix_counts(windows, 2000)
    assert list(counts) == SuffixAutomaton(word).factor_counts(2000)
    for n in [*range(1, 2001, 50), 1999, 2000]:
        assert counts[n - 1] == len({t[:n] for t in windows if len(t) >= n}), n


def test_complexity_of_long_and_wide_windows_is_bounded(bounded):
    long_word = trace_letters(REFERENCE_STARTS[0], length=100_000)
    profile = bounded(5, complexity, long_word, 200)
    assert profile.stable_through == 200
    assert list(profile.full_counts) == [3] + [2 * n + 3 for n in range(2, 201)]
    wide_word = trace_letters(REFERENCE_STARTS[2], length=4000)
    profile = bounded(5, complexity, wide_word, 2000)
    assert profile.full_counts[-1] == 4000 - 2000 + 1
