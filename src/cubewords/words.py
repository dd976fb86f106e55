"""Factor combinatorics of finite words.

Everything here treats a finite word as a window onto an infinite one,
so every count comes with a stability question: would a longer window
have shown more?  The complexity profile answers it by recomputing each
count on the half-length prefix; a count that agrees between the half
and the full window is reported stable, anything else is suspect and
can be made fatal through require_stable.

Factor counts and special factors are both read from the distinct
windows of the word, cut short at its end, for every length at once: a
length-n factor is the length-n prefix of the window that starts where
it does.  The SuffixAutomaton stays as the independent reference route
for the counts, against which the tests check them.  At length n, a
right letter is only believed when the window starting with the factor
holds 2n + 2 letters or more, so that a further n + 2 letters follow
it, which removes the bias a truncated final occurrence would otherwise
inject into special-factor counts.  Those distinct windows cost about
one slice per distinct window, not one per position: the occurrences of
the word's own prefix cut it into spans, and equal spans of equal
length start equal windows, so only the distinct spans are expanded.
The prefix is max(_ANCHOR, width // 4) letters long, at least 12, so
that frequent short prefixes do not cut the word into many copies of a
few spans, and wider windows are cut at fewer, rarer anchors.  Counts
of distinct prefixes, as of these windows or of a language, come from
one sorted pass with longest-common-prefix lengths, all read from
integer keys: each text becomes a left-aligned integer with one
fixed-width code per letter, one byte when every text is ASCII and a
UTF-32 code unit otherwise, padded with all-ones codes that no letter
has, and the bit length of the exclusive or of two adjacent keys
locates their first unequal letter.  The keys and the common-prefix
lengths come from C-level map passes over all the texts at once, with
no Python loop per text or per letter.

Special factors are read from sorted tables of distinct windows.  In a
sorted table the texts sharing a prefix v are contiguous, and the
adjacent pairs whose common prefix is exactly v, both going on past it,
are where the letter after v changes: its branch points.  The branch
points of the forward windows are a superset of the right special
factors, and each of their right letters is kept only when a long
enough window starts with it, found by bisection (_right_special).
Cassaigne's identity needs one integer per length, the summed bilateral
multiplicity of the bispecial factors, so cassaigne_check also reads
the branch points of the reversed word's windows, which give every
left special factor with its left letters, and for a factor special on
both sides reads each pair of extensions exactly under the same rule.
The identity still compares two different computations over those
windows: prefix counts against sums over branch points and pair
lookups.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import accumulate, compress, count, islice, repeat
from operator import eq, rshift, xor
from typing import AbstractSet, Optional, Sequence


class UnstableLength(Exception):
    """A factor count was requested beyond its certified stable range."""

    def __init__(self, n: int, word_length: int) -> None:
        super().__init__(
            f"complexity at length {n} is not stable in a window of {word_length} letters"
        )
        self.n = n
        self.word_length = word_length


class SuffixAutomaton:
    """Standard online suffix automaton over a fixed word.

    The independent reference route to factor counts: complexity reads
    them from windows instead, and the tests check the two agree.
    """

    __slots__ = ("length", "link", "transitions", "_last")

    def __init__(self, word: str = "") -> None:
        self.length = [0]
        self.link = [-1]
        self.transitions: list[dict[str, int]] = [{}]
        self._last = 0
        for letter in word:
            self.extend(letter)

    def extend(self, letter: str) -> None:
        current = len(self.length)
        self.length.append(self.length[self._last] + 1)
        self.link.append(-2)
        self.transitions.append({})
        probe = self._last
        while probe != -1 and letter not in self.transitions[probe]:
            self.transitions[probe][letter] = current
            probe = self.link[probe]
        if probe == -1:
            self.link[current] = 0
        else:
            target = self.transitions[probe][letter]
            if self.length[probe] + 1 == self.length[target]:
                self.link[current] = target
            else:
                clone = len(self.length)
                self.length.append(self.length[probe] + 1)
                self.link.append(self.link[target])
                self.transitions.append(dict(self.transitions[target]))
                while probe != -1 and self.transitions[probe].get(letter) == target:
                    self.transitions[probe][letter] = clone
                    probe = self.link[probe]
                self.link[target] = clone
                self.link[current] = clone
        self._last = current

    def factor_counts(self, n_max: int) -> list[int]:
        """Number of distinct factors of each length 1..n_max.

        Every state recognizes the factors whose lengths fill the
        interval (link length, state length], one per length, so the
        counts drop out of an interval histogram.
        """
        deltas = [0] * (n_max + 2)
        for state in range(1, len(self.length)):
            low = self.length[self.link[state]] + 1
            high = self.length[state]
            if low > n_max:
                continue
            deltas[low] += 1
            deltas[min(high, n_max) + 1] -= 1
        counts = []
        running = 0
        for n in range(1, n_max + 1):
            running += deltas[n]
            counts.append(running)
        return counts


# The fewest letters of the word's own prefix that mark window anchors.
# At width 16 the 3000-letter traced words of sample_schedule(24, 5)
# hold a 6-letter prefix about 240 times (median over the 24 words), yet
# those anchors cut only about 10 distinct spans, and slicing the spans
# of every anchor costs more than the few distinct ones save; the
# 12-letter prefix marks about 48 anchors and 6 spans, and _windows
# takes 71 us per word against 93 us at 6 letters (CPython 3.11).  Only
# widths below 4 * _ANCHOR = 48 read it.
_ANCHOR = 12


def _windows(word: str, width: int) -> set[str]:
    """Distinct windows of the word, cut short at its end.

    The anchors are position 0 and every later non-overlapping occurrence
    of the word's prefix of max(_ANCHOR, width // 4) letters, read from
    one str.split.  Every window starting at i with p <= i < q, for
    consecutive anchors p and q (q = len(word) after the last), is
    span[i - p : i - p + width] with span = word[p : q + width - 1].
    Equal (span, q - p) pairs give equal windows, so only the distinct
    spans are sliced window by window.  Any anchor set containing 0 gives
    the same result; the prefix length sets only the speed.  Every
    anchor slices a span of at least width - 1 letters, so wide windows
    take a longer prefix, whose rarer occurrences cut fewer spans: in
    the 8000-letter traced words of sample_schedule(24, 5) the 6-letter
    prefix recurs about 630 times (median), the 12-letter one about 125
    and the 25-letter one of width 100 about 86.
    """
    if not word:
        return set()
    separator = word[: max(_ANCHOR, width // 4)]
    step = len(separator)
    pieces = word.split(separator)[1:]
    anchors = list(accumulate(map(step.__add__, map(len, pieces)), initial=0))
    spans = {(word[p : q + width - 1], q - p) for p, q in zip(anchors, anchors[1:])}
    return {span[i : i + width] for span, size in spans for i in range(size)}


def _common_prefixes(texts: Sequence[str]) -> list[int]:
    """Length of the longest common prefix of each text with the next one.

    Every text becomes a left-aligned integer key, one fixed-width code
    per letter, padded to the longest text with all-ones codes, so the
    bit length of the exclusive or of two keys locates their first
    unequal code.  Letters are one byte when every text is ASCII and
    UTF-32 code units otherwise: either way equal codes mean equal
    letters, for any str, and no letter's code is all ones (ASCII stops
    at 0x7f, Unicode at 0x10ffff), so padding never matches a letter,
    NUL included, and where one text is a prefix of the other the first
    unequal code sits where the shorter one ends.  Each step is one
    C-level map pass over all the texts, with no Python loop body:
    str.encode, bytes.ljust and int.from_bytes build the keys, and xor,
    int.bit_length, a subtraction from the key width and a shift by
    log2 of the code width give the equal leading codes.  The
    exclusive ors are consumed as they are made, so no second list of
    wide integers is kept.  Only equal texts give equal keys, read as
    sharing all width letters; those few pairs are revisited, since
    their common prefix is the text itself.
    """
    width = max(map(len, texts), default=0)
    if all(map(str.isascii, texts)):
        codec, shift = "ascii", 3
    else:
        codec, shift = "utf-32-be", 5
    encoded = map(str.encode, texts, repeat(codec), repeat("surrogatepass"))
    padded = map(bytes.ljust, encoded, repeat(width << shift >> 3), repeat(b"\xff"))
    keys = list(map(int.from_bytes, padded, repeat("big")))
    differences = map(int.bit_length, map(xor, keys, islice(keys, 1, None)))
    shared = list(map(rshift, map((width << shift).__sub__, differences), repeat(shift)))
    for i in compress(count(), map(width.__eq__, shared)):
        shared[i] = len(texts[i])
    return shared


def _prefix_counts(texts: AbstractSet[str], n_max: int) -> tuple[int, ...]:
    """Distinct length-n prefixes among texts of at least n letters, n = 1..n_max.

    The texts are a set of distinct texts of at most n_max letters, as
    every caller holds them: the cut-short windows of n_max letters, or
    a language of length-n_max factors.  Applied to the windows of a
    word, these are its factor counts: every length-n factor starts some
    window of n letters or more.  Sorted, the texts sharing a length-n
    prefix are contiguous, so that prefix is counted once, by the first
    of them: the text w with lcp(w, predecessor) < n <= len(w).
    _common_prefixes reads every lcp from integer keys of one byte per
    letter when all texts are ASCII and four otherwise, in C-level map
    passes.  The counts are an interval histogram, as in
    SuffixAutomaton.factor_counts.
    """
    texts = sorted(texts)
    deltas = [0] * (n_max + 1)
    for shared in _common_prefixes(["", *texts]):
        deltas[shared] += 1
    for size in map(len, texts):
        deltas[size] -= 1
    return tuple(accumulate(deltas[:n_max]))


@dataclass(frozen=True)
class ComplexityProfile:
    """Factor counts of a window together with their stability record."""

    word_length: int
    full_counts: tuple[int, ...]
    half_counts: tuple[int, ...]

    @property
    def n_max(self) -> int:
        return len(self.full_counts)

    def _index(self, n: int) -> int:
        if not 1 <= n <= self.n_max:
            raise ValueError(f"length {n} outside profile range 1..{self.n_max}")
        return n - 1

    def p(self, n: int) -> int:
        return self.full_counts[self._index(n)]

    def s(self, n: int) -> int:
        return self.p(n + 1) - self.p(n)

    @cached_property
    def _stable_flags(self) -> tuple[bool, ...]:
        """Per length 1..n_max, whether the half window already saw every factor of it."""
        return tuple(map(eq, self.full_counts, self.half_counts))

    def stable(self, n: int) -> bool:
        """True when the half window already saw every factor of length n."""
        return self._stable_flags[self._index(n)]

    def require_stable(self, n: int) -> int:
        if not self.stable(n):
            raise UnstableLength(n, self.word_length)
        return self.p(n)

    @property
    def stable_through(self) -> int:
        """Largest m with every length 1..m stable; 0 if none."""
        flags = self._stable_flags
        return flags.index(False) if False in flags else self.n_max

    @property
    def law(self) -> Optional[tuple[Fraction, Fraction, int]]:
        """The affine tail (slope, intercept, n0) of the stable counts, from fit_complexity_tail."""
        return fit_complexity_tail(self.full_counts[: self.stable_through])

    @property
    def slope(self) -> Optional[Fraction]:
        """The law's slope, or None when the stable counts have no affine tail."""
        law = self.law
        return None if law is None else law[0]


def complexity(word: str, n_max: int) -> ComplexityProfile:
    """Complexity profile of the window, cross-checked on its half prefix.

    Both count lists are prefix counts of cut-short windows of n_max
    letters, of the word and of its half prefix.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    if len(word) < 2 * n_max:
        raise ValueError(
            f"window of {len(word)} letters is too short to profile up to {n_max}"
        )
    half = len(word) // 2
    return ComplexityProfile(
        word_length=len(word),
        full_counts=_prefix_counts(_windows(word, n_max), n_max),
        half_counts=_prefix_counts(_windows(word[:half], n_max), n_max),
    )


def _branch_letters(texts: list[str], n_max: int) -> dict[str, set[str]]:
    """The prefixes of at most n_max letters at which the sorted, distinct texts branch.

    Texts sharing a prefix v are contiguous, and among those longer than
    v the letters after v change exactly between adjacent texts a, b with
    lcp(a, b) = len(v) < len(a); b always goes on past v, as it sorts
    after a and is not its prefix.  Each such v maps to the letters after
    it, two or more.
    """
    letters: dict[str, set[str]] = {}
    for shared, a, b in zip(_common_prefixes(texts), texts, texts[1:]):
        if 0 < shared <= n_max and shared < len(a):
            letters.setdefault(a[:shared], {a[shared]}).add(b[shared])
    return letters


def _starts_long_window(windows: list[str], context: str, width: int) -> bool:
    """Whether a window of at least width letters starts with context.

    The sorted windows starting with context follow bisect_left's index.
    The windows shorter than width are suffixes of the word, at most one
    per length, so the walk past them to a long one is short.
    """
    index = bisect_left(windows, context)
    while index < len(windows) and windows[index].startswith(context):
        if len(windows[index]) >= width:
            return True
        index += 1
    return False


def _trusted_right(windows: list[str], v: str, letters: set[str]) -> set[str]:
    """The letters r among letters that follow v with a further |v| + 2 letters after r.

    The one trust rule for right letters: an occurrence of v counts its
    right letter r only when a window of 2|v| + 2 letters or more starts
    there with v + r, in the sorted windows of the word, which must be at
    least that wide.  A truncated final occurrence then cannot pass an
    extension off as seen.
    """
    return {r for r in letters if _starts_long_window(windows, v + r, 2 * len(v) + 2)}


def _right_special(word: str, n_max: int) -> dict[str, set[str]]:
    """The right special factors of at most n_max letters, each with its trusted right letters.

    A factor is right special when two or more of its right letters pass
    _trusted_right in the sorted distinct windows of 2 * n_max + 2
    letters, the narrowest the rule reads.  Every right special factor
    branches in those windows, so only the branch points of
    _branch_letters are examined.
    """
    windows = sorted(_windows(word, 2 * n_max + 2))
    branches = _branch_letters(windows, n_max).items()
    trusted = {v: _trusted_right(windows, v, letters) for v, letters in branches}
    return {v: right for v, right in trusted.items() if len(right) >= 2}


def _bispecial_sums(word: str, n_max: int) -> tuple[int, ...]:
    """Summed bilateral multiplicity of the bispecial factors of each length 1..n_max.

    Entry n - 1 is the sum of m(v) = #pairs - #right - #left + 1 over the
    factors v of length n with two or more left letters and two or more
    trusted right letters, in one sorted pass per side.  The left
    letters of v are the letters after v's reverse in the reversed word,
    so v is left special exactly where the sorted windows of the
    reversed word, n_max + 1 letters wide, branch after v's reverse.
    Those windows are the reversed factors of n_max + 1 letters, read
    off the forward windows, and the reversed prefixes of the word.  The
    forward windows, 2 * n_max + 3 letters wide, branch after every right
    special factor, so only the factors branching on both sides are
    examined, their right letters by _trusted_right.  For a factor
    special on both sides, a pair (l, r) is trusted when a window of
    2n + 3 letters or more starts with l + v + r, the same rule one
    letter to the left, found by bisection.
    """
    forward = sorted(_windows(word, 2 * n_max + 3))
    backward = {t[n_max::-1] for t in forward if len(t) > n_max}
    backward.update(word[m - 1 :: -1] for m in range(1, min(n_max, len(word)) + 1))
    lefts = {u[::-1]: letters for u, letters in _branch_letters(sorted(backward), n_max).items()}
    rights = _branch_letters(forward, n_max)
    sums = [0] * n_max
    for v in lefts.keys() & rights.keys():
        right = _trusted_right(forward, v, rights[v])
        if len(right) >= 2:
            n = len(v)
            pairs = sum(
                _starts_long_window(forward, l + v + r, 2 * n + 3) for l in lefts[v] for r in right
            )
            sums[n - 1] += pairs - len(right) - len(lefts[v]) + 1
    return tuple(sums)


def cassaigne_check(word: str, n_max: int) -> list[tuple[int, int, int]]:
    """Second-difference identity against the bispecial factors.

    For each checkable n, the increment s(n+1) - s(n) must equal the sum
    of bilateral multiplicities m(v) = #pairs - #right - #left + 1 over
    the bispecial factors v of length n (Cassaigne 1997).  Returns the
    list of (n, increment, bispecial_sum) mismatches, empty when the window
    passes; lengths whose counts are unstable are not checked, since the
    identity only holds for honest windows.  The increments come from
    the prefix counts of the distinct windows and the sums from the
    branch points of the sorted windows and exact pair lookups, so the
    two sides are different computations.  Only factors that branch on
    both sides can be bispecial, so only they are examined; their right
    letters follow the trust rule of _right_special.
    """
    return _cassaigne_failures(word, complexity(word, n_max))


def _cassaigne_failures(word: str, profile: ComplexityProfile) -> list[tuple[int, int, int]]:
    """The mismatches of cassaigne_check, given the word's complexity profile.

    Length n is checked when n, n + 1 and n + 2 are all stable, and its
    increment s(n + 1) - s(n) is p(n + 2) - 2p(n + 1) + p(n); both are
    read from the profile in one pass each.
    """
    full = profile.full_counts
    stable = profile._stable_flags
    checked = [
        n for n, a, b, c in zip(count(1), stable, stable[1:], stable[2:]) if a and b and c
    ]
    increments = [p2 - 2 * p1 + p0 for p0, p1, p2 in zip(full, full[1:], full[2:])]
    sums = _bispecial_sums(word, checked[-1]) if checked else ()
    return [
        (n, increments[n - 1], sums[n - 1]) for n in checked if increments[n - 1] != sums[n - 1]
    ]


def is_sturmian(word: str, n_max: int) -> bool:
    """Whether the window is consistent with complexity n + 1 through n_max."""
    profile = complexity(word, n_max)
    top = profile.stable_through
    if top == 0:
        raise UnstableLength(1, len(word))
    return profile.full_counts[:top] == tuple(range(2, top + 2))


def fit_complexity_tail(
    counts: Sequence[int],
) -> Optional[tuple[Fraction, Fraction, int]]:
    """Smallest n0 from which the counts p(1..top) are exactly affine, with the law.

    Returns (slope, intercept, n0) with p(n) = slope*n + intercept for
    every n in n0..top, or None when no n0 <= top - 2 qualifies, so the
    tail holds at least three points.  The counts sit at consecutive
    integers, so they are affine from n0 on exactly when every first
    difference p(n + 1) - p(n) with n >= n0 is the same integer: the
    slope must be the last difference, and n0 is where the run of
    differences equal to it begins, read in one backward pass.  The
    intercept is then p(n0) - slope*n0.
    """
    top = len(counts)
    if top < 3:
        return None
    slope = counts[-1] - counts[-2]
    n0 = top - 1
    while n0 > 1 and counts[n0 - 1] - counts[n0 - 2] == slope:
        n0 -= 1
    if n0 > top - 2:
        return None
    return Fraction(slope), Fraction(counts[n0 - 1] - slope * n0), n0
