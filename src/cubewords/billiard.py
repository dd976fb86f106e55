"""Cube billiard words computed with exact arithmetic.

A billiard trajectory in the unit cube unfolds to the straight line
``u + t*theta`` in R**3; the symbolic word records which kind of integer
plane the line crosses, letter a for x = n, b for y = n, c for z = n.
Directions here come from the one-parameter family
``theta = (r, phi - 1, 2 - phi)`` with r a positive rational, so the
crossing times of axis i form the arithmetic progression
``(n - u_i) / theta_i``, n = 1, 2, ...  All comparisons between crossing
times are exact.

A start with exactly one integral coordinate sits on a single wall and
its word simply begins with the bounce at that wall.  Starts where two
or more coordinates are integral, and any simultaneous crossings later
on, are read as limits of trajectories shifted by ``epsilon * (0, +1, -1)``:

* a start on x = 0 emits its a at t = 0 (the x offset is unperturbed);
* a start on z = 0 or z = 1 emits a c just after it (the z offset drops
  to just below the wall, which is crossed immediately);
* the y wall crossing at t = 0 is dropped (the y offset moves inside,
  and that wall is next crossed a full period later);
* simultaneous crossings at t > 0 resolve in the order b, a, c, because
  the same shift makes the y crossing earlier and the z crossing later.

The tests check the crossing merge behind trace and trace_letters
(_merged_axes) against an independent reference, raw_crossings in
tests/oracles.py, which merges the three progressions with direct
field-number comparisons.  The merge itself sorts bounded integer keys
of the crossing times in one list.sort per chunk of about _CHUNK
crossings, which makes it fast enough for words of 10**5 letters and
beyond:

* Keys.  The p-bit dyadic estimates of a chunk's crossing times are
  rebased at the smallest and shifted right by q bits.  Two keys'
  errors then differ by less than (M >> q) + 1 from the estimates, M
  the error bound of two p-bit estimates, plus less than 1 + max j
  from the floors of their starts and of the j steps added to them;
  keys farther apart than the margin (M >> q) + 2 + max j are in
  exact order.
* Word size.  q leaves the smallest step 60 - bitlen(W) bits, W the
  chunk's window of crossings, and every key is below W such steps,
  so below 2**60: the tagged key 4*key + axis fits a 64-bit word, and
  one array pass reads the letters off the sorted keys' low bytes.  The
  array's type code, _WORD, is "L" where an unsigned long has 8 bytes:
  its conversion, PyLong_AsUnsignedLong, reads a small int's digits
  directly, while "Q"'s unsigned long long conversion copies each key
  through a byte array and takes about 2.7 times as long (28 against
  75 us for 3000 keys on CPython 3.11).  "Q" serves where "L" has 4
  bytes.
* Gate.  For each pair of axes one modular-minimum descent (_min_mod)
  finds how near the planes of one axis come to the other's
  progression, in a number of steps logarithmic in the key step.  A
  minimum above the margin proves that no two keys are close; only a
  smaller one looks for runs of close keys, which are re-sorted with
  exact vector comparisons.
* Termination.  p doubles while the margin is not small against every
  shifted step; M >> q falls to 0 as p grows and the floor term stays
  at most W + 3, far below a step, so the doubling ends.
"""

from __future__ import annotations

import math
import sys
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, compress, groupby, islice
from operator import sub
from typing import NamedTuple, Optional, Sequence

from .exactnum import (
    FieldNumber,
    PHI,
    _PRECISION,
    _dyadic,
    _field,
    _reduced,
    _sorted_merged,
    basis_approx,
    common_denominator,
)

LETTERS = "abc"
_ZERO = FieldNumber(0)  # the offset of an axis whose coordinate lies on a wall

NumberLike = FieldNumber | Fraction | int | str


def _as_number(value: NumberLike) -> FieldNumber:
    if isinstance(value, str):
        return FieldNumber.parse(value)
    return _field(value)


def _on_wall(value: FieldNumber) -> bool:
    """Whether the coordinate is an integer, that is, lies on a wall."""
    return value._den == 1 and value.is_rational


@dataclass(frozen=True, repr=False)
class Direction:
    """A member of the direction family (r, phi - 1, 2 - phi); r is coerced to a Fraction.

    r may be an int, a Fraction or a string such as "4/2"; anything else,
    a float included, raises TypeError, since a float is not exact.  The
    speeds, inverse speeds and speed sum are built on first use and kept;
    equality and hashing read r alone.
    """

    r: Fraction = Fraction(1, 2)

    def __post_init__(self) -> None:
        if not isinstance(self.r, (int, Fraction, str)):
            raise TypeError(
                f"the rational speed r must be int, Fraction or str, not {type(self.r).__name__}"
            )
        r = Fraction(self.r)
        if r <= 0:
            raise ValueError("the rational speed r must be positive")
        object.__setattr__(self, "r", r)

    @cached_property
    def speeds(self) -> tuple[FieldNumber, FieldNumber, FieldNumber]:
        return (FieldNumber(self.r), PHI - 1, 2 - PHI)

    @cached_property
    def inverse_speeds(self) -> tuple[FieldNumber, FieldNumber, FieldNumber]:
        # 1/(phi - 1) = phi and 1/(2 - phi) = phi + 1
        return (FieldNumber(1 / self.r), PHI, PHI + 1)

    @cached_property
    def speed_sum(self) -> FieldNumber:
        return FieldNumber(self.r) + 1

    def __repr__(self) -> str:
        return f"Direction({self.r!r})"


GOLDEN_DIRECTION = Direction(Fraction(1, 2))


@dataclass(frozen=True, repr=False)
class StartPoint:
    """An exact point of the closed unit cube; each coordinate is coerced to a FieldNumber.

    A coordinate lies in [0, 1] exactly when its floor is 0 or it equals 1,
    so one exact floor checks it.
    """

    x: FieldNumber
    y: FieldNumber
    z: FieldNumber

    def __post_init__(self) -> None:
        coords = tuple(map(_as_number, (self.x, self.y, self.z)))
        for name, axis, value in zip("xyz", LETTERS, coords):
            if value.floor() != 0 and value != 1:
                raise ValueError(f"coordinate {axis}={value} outside [0, 1]")
            object.__setattr__(self, name, value)

    @property
    def coords(self) -> tuple[FieldNumber, FieldNumber, FieldNumber]:
        return (self.x, self.y, self.z)

    @property
    def integral_axes(self) -> str:
        """Letters of the coordinates lying on a wall, in a, b, c order."""
        out = []
        for axis, value in zip(LETTERS, self.coords):
            if _on_wall(value):
                out.append(axis)
        return "".join(out)

    @property
    def is_degenerate(self) -> bool:
        return len(self.integral_axes) >= 2

    def __repr__(self) -> str:
        return f"StartPoint({self.x}, {self.y}, {self.z})"


class _AxisSpec(NamedTuple):
    letter: str
    offset: FieldNumber  # start coordinate reduced into [0, 1)
    inverse_speed: FieldNumber
    on_wall: bool  # original coordinate was integral
    wall_rank: Optional[int]  # emission slot at t = 0; None drops the crossing


def _cube_axes(start: StartPoint, direction: Direction) -> list[_AxisSpec]:
    inverse_speeds = direction.inverse_speeds
    specs = []
    # tie order b, a, c; wall emission a at rank 0, then c; b is dropped
    for index, wall_rank in ((1, None), (0, 0), (2, 1)):
        value = start.coords[index]
        on_wall = _on_wall(value)
        offset = _ZERO if on_wall else value
        specs.append(
            _AxisSpec(LETTERS[index], offset, inverse_speeds[index], on_wall, wall_rank)
        )
    return specs


def _wall_letters(specs: Sequence[_AxisSpec]) -> str:
    on_wall = [spec for spec in specs if spec.on_wall]
    if len(on_wall) == 1:
        # A plain wall start: the word begins with the bounce at that wall.
        return on_wall[0].letter
    # Degenerate cluster, resolved by the limit convention: the y crossing
    # drops out and the ranked walls emit in their t = 0+ order.
    ranked = [
        (spec.wall_rank, spec.letter) for spec in on_wall if spec.wall_rank is not None
    ]
    return "".join(letter for _, letter in sorted(ranked))


_CHUNK = 4096  # crossings merged per sort, which bounds the memory of long traces

_Vector = tuple[int, int, int, int]

# _merged_axes reads its tagged keys 4*K + i back as the low byte of each
# 8-byte array item, whose low two bits are the axis i; the type code
# _WORD is chosen as the module docstring's "Word size" describes.
_WORD = "L" if array("L").itemsize == 8 else "Q"
_LOW_BYTE = 0 if sys.byteorder == "little" else 7
_AXIS_OF_BYTE = bytes(byte & 3 for byte in range(256))


class _Progressions(NamedTuple):
    """Axis i crosses plane n at time (n*steps[i] - shifts[i]) / denominator."""

    steps: list[_Vector]
    shifts: list[_Vector]
    denominator: int


def _scaled_progressions(specs: Sequence[_AxisSpec]) -> _Progressions:
    """Integer steps and shifts of the axes' crossing times.

    Axis i crosses plane n at time (n - offset_i) * inverse_speed_i.  With
    D the common denominator of every inverse speed and every product
    offset_i * inverse_speed_i, D times that time has the integer
    coordinates n*step_i - shift_i over the basis (1, phi, sqrt2,
    phi*sqrt2); this returns the lists of step_i and shift_i, and D.
    """
    inverse_speeds = [spec.inverse_speed for spec in specs]
    shifts = [spec.offset * spec.inverse_speed for spec in specs]
    denominator = common_denominator(inverse_speeds + shifts)
    return _Progressions(
        [value.scaled_coeffs(denominator) for value in inverse_speeds],
        [value.scaled_coeffs(denominator) for value in shifts],
        denominator,
    )


def _min_mod(n: int, m: int, a: int, b: int) -> int:
    """The least (a*j + b) mod m over j = 0, ..., n - 1, for m >= 1; m when n is 0.

    With a and b reduced modulo m, a term exceeds the one before it
    unless the sum wraps past a multiple of m, so the least term is b or
    the value just after one of the T wraps, (q, r) = divmod(a*(n - 1) +
    b, m) giving T = q and the last term r.  The t-th of those values is
    (b - t*m) mod a, so over t = 1, ..., T their least is the same
    problem for (T, a, -m mod a, (b - m) mod a), and the loop goes on
    with it.  A step a > m / 2 is read backwards instead: from r the
    terms step up by m - a < m / 2 and wrap n - 1 - q times.  So each
    step at least halves m, and the loop ends after O(log m) steps.  a
    and b may be any integers.
    """
    if n <= 0:
        return m
    a %= m
    b %= m
    least = m
    while True:
        wraps, last = divmod(a * (n - 1) + b, m)
        if 2 * a > m:
            a, b, wraps = m - a, last, n - 1 - wraps
        if b < least:
            least = b
        if not wraps:
            return least
        n, m, a, b = wraps, a, -m % a, (b - m) % a


def _merged_axes(progressions: _Progressions, count: int) -> tuple[bytes, int]:
    """Axis indices of the first ``count`` crossings in exact order, and the ties.

    D times the time of plane n on axis i has the integer coordinates
    n*step_i - shift_i of the progressions, and its p-bit dyadic
    estimate S_i(n) = n*s_i - h_i (s_i and h_i the exactnum._dyadic
    estimates of step_i and shift_i) lies within n*B(step_i) + B(shift_i)
    of the value times 2**p, B the _dyadic bound, which is the same at
    every p; so two estimates of planes n < N differ from their values'
    difference by less than M, twice the largest such bound at N.

    Keys.  Each chunk lays out a window of W crossings, W = min(_CHUNK,
    needed) + 2k + 1 for k axes: the planes of axis i whose estimates
    lie at most W / sum(1 / s_i) above the lowest first estimate S_0.
    It rebases them at S_0 and shifts them right by q bits, q chosen so
    that the smallest step u_i = s_i >> q has 60 - bitlen(W) bits.  The
    j-th plane of axis i gets K = ((S_i(n_i) - S_0) >> q) + j*u_i, which
    falls short of (S_i(n_i + j) - S_0) / 2**q by less than 1 + j.  So
    two keys with j <= J differ from their values' difference, in units
    of 2**q, by less than the margin m = (M >> q) + 2 + J, and keys more
    than m apart are in exact order.  Every K is at most
    W / sum(1 / u_i) <= W * min(u_i) < 2**60, so the tagged key 4*K + i
    (i the tie rank) is below 2**62 and fits a machine word.  The keys
    are laid out by one list += of each axis's range, the one list.sort
    per chunk merges small ints (the runs of each axis are already
    sorted), and one array pass of type code _WORD, "L" where an unsigned
    long has 8 bytes and "Q" otherwise, reads the axes back from the
    keys' low bytes ("L" converts a small int directly, in about a third
    of "Q"'s time).  _CHUNK sets W and so the unit width.

    Gate.  For axes i < l and g = m + 1, plane j of axis i lies within g
    of some term of axis l's progression exactly when (K - K_l + g) mod
    u_l <= 2g, K_l the first key of axis l.  So the pair is clear when
    the least of those residues over the axis's keys K = K_i + j*u_i
    exceeds 2g, which one _min_mod(size_i, u_l, u_i, K_i - K_l + g) call
    decides; its descent at least halves the modulus at each step, so it
    ends after O(log u_l) steps.  The verdict is that of counting the
    near planes (with 2g < u_l, which the precision test below ensures,
    plane j counts when floor(x / u_l) - floor((x - 2g - 1) / u_l) is 1,
    x = K - K_l + g): the count is zero exactly when no residue is at
    most 2g.  A clear verdict for every pair proves no two keys of
    different axes within g, and keys of one axis lie u_i > 4g apart, so
    no neighbours of the sorted keys are close.  Only a pair that is not
    clear looks for the runs of close keys, and those are re-sorted by
    exactnum._sorted_merged on the integer vectors and their _dyadic
    estimates.  Equal times have equal vectors, but the floors may give
    them different keys, so each group of equal times is put back in tie
    rank order; each such group is one tie.  Only keys below every
    axis's first missing plane, less the margin, are emitted, and the
    cut never splits a close run; the next chunk starts at the first
    plane of each axis not emitted.

    p starts at exactnum._PRECISION, where one _dyadic call per step and
    shift gives both its estimate and its bound, and doubles while
    4k(m + 2) exceeds the smallest u_i.  That ends: M grows with the
    coordinates, not with p, so M >> q falls to 0 as p, and with it q,
    grows; J is at most W + 1, and u_i has at least 59 - bitlen(W) bits,
    which leaves 4k(W + 5) far below u_i for any _CHUNK up to 2**25.
    Then a close run holds at most one crossing per axis, and each
    window, sized for 2k + 1 more crossings than the chunk needs, keeps
    more than k of them below the cut, so every chunk emits crossings.
    """
    steps, shifts, _ = progressions
    k = len(steps)
    # One _dyadic call per vector gives the first estimates and the
    # bounds, which do not depend on the precision.
    dyadic_steps, slopes = zip(*map(_dyadic, steps))
    dyadic_shifts, intercepts = zip(*map(_dyadic, shifts))

    def estimates(precision: int) -> tuple[list[int], list[int]]:
        basis = basis_approx(precision)
        return (
            [_dyadic(step, basis)[0] for step in steps],
            [_dyadic(shift, basis)[0] for shift in shifts],
        )

    precision = _PRECISION

    def time_vector(key: int) -> tuple[int, ...]:  # n*step_i - shift_i
        i = key & 3
        n = planes[i] + ((key >> 2) - starts[i]) // units[i]
        return tuple(n * a - b for a, b in zip(steps[i], shifts[i]))

    out = bytearray()
    ties = 0
    planes = [1] * k
    while len(out) < count:
        need = count - len(out)
        window = min(_CHUNK, need) + 2 * k + 1
        firsts = [n * s - h for n, s, h in zip(planes, dyadic_steps, dyadic_shifts)]
        base = min(firsts)
        q = max(0, min(dyadic_steps).bit_length() - 60 + window.bit_length())
        units = [s >> q for s in dyadic_steps]
        starts = [(f - base) >> q for f in firsts]
        # units per crossing of the merged stream: 1 / sum(1 / u_i)
        product = math.prod(units)
        span = window * product // sum(product // u for u in units)
        sizes = [max(0, (span - f) // u + 1) for f, u in zip(starts, units)]
        error = 2 * max(
            slope * (n + size) + intercept
            for slope, intercept, n, size in zip(slopes, intercepts, planes, sizes)
        )
        margin = (error >> q) + 2 + max(sizes)
        if 4 * k * (margin + 2) > min(units):
            precision *= 2
            dyadic_steps, dyadic_shifts = estimates(precision)
            continue
        nexts = [f + size * u for f, u, size in zip(starts, units, sizes)]
        keys = []
        for i, (f, u, nxt) in enumerate(zip(starts, units, nexts)):
            keys += range(4 * f + i, 4 * nxt, 4 * u)
        keys.sort()
        cut = bisect_left(keys, 4 * (min(nexts) - margin))
        g = margin + 1
        close = []
        # Close keys are rare, so each pair's least modular distance rules them out first.
        if any(
            _min_mod(sizes[i], units[l], units[i], starts[i] - starts[l] + g) <= 2 * g
            for i, l in combinations(range(k), 2)
        ):
            gap = 4 * g
            close = list(compress(range(cut), map(gap.__ge__, map(sub, islice(keys, 1, None), keys))))
        while close and close[-1] == cut - 1:
            close.pop()
            cut -= 1
        limit = min(cut, need)
        # Consecutive close pairs j, j + 1, ... form one run of keys.
        for _, run in groupby(enumerate(close), lambda pair: pair[1] - pair[0]):
            run = [j for _, j in run]
            lo, hi = run[0], run[-1] + 2
            position = lo
            vectors = [(time_vector(key), key) for key in keys[lo:hi]]
            for _, group in _sorted_merged([(*_dyadic(v), v, key) for v, key in vectors]):
                group.sort(key=(3).__and__)  # equal times in tie rank order
                keys[position : position + len(group)] = group
                if len(group) > 1 and position < limit:
                    ties += 1
                position += len(group)
        axes = array(_WORD, keys).tobytes()[_LOW_BYTE : 8 * limit : 8].translate(_AXIS_OF_BYTE)
        out += axes
        for i in range(k):
            planes[i] += axes.count(i)
    return bytes(out), ties


@dataclass(frozen=True)
class BilliardWord:
    """A finite prefix of a billiard word with optional crossing times."""

    word: str
    times: Optional[tuple[FieldNumber, ...]]
    tie_count: int

    def __str__(self) -> str:
        return self.word

    def __len__(self) -> int:
        return len(self.word)


def _emit(
    specs: Sequence[_AxisSpec], progressions: _Progressions, length: int, with_times: bool
) -> tuple[str, Optional[tuple[FieldNumber, ...]], int]:
    """Word, crossing times (None unless ``with_times``) and tie count.

    The one driver of the crossing merge: the wall letters at t = 0 come
    first, then the merged crossings up to ``length`` letters.  The
    progressions are _scaled_progressions(specs), which the caller may
    share with _validation.  Each time is the reduced field number
    (n*step_i - shift_i) / D, built from the integer progressions.
    """
    if length < 0:
        raise ValueError("length must be nonnegative")
    head = _wall_letters(specs)[:length]
    axes, tie_count = _merged_axes(progressions, length - len(head))
    letters = bytes.maketrans(
        bytes(range(len(specs))), "".join(spec.letter for spec in specs).encode()
    )
    word = head + axes.translate(letters).decode()
    times = None
    if with_times:
        steps, shifts, denominator = progressions
        planes = [0] * len(specs)
        crossings = []
        for axis in axes:
            n = planes[axis] = planes[axis] + 1
            (s0, s1, s2, s3), (h0, h1, h2, h3) = steps[axis], shifts[axis]
            crossings.append(
                _reduced((n * s0 - h0, n * s1 - h1, n * s2 - h2, n * s3 - h3), denominator)
            )
        times = (FieldNumber(0),) * len(head) + tuple(crossings)
    return word, times, tie_count


def trace(
    start: StartPoint,
    direction: Direction = GOLDEN_DIRECTION,
    length: int = 100,
    with_times: bool = True,
) -> BilliardWord:
    """The first ``length`` letters of the billiard word from ``start``.

    Wall starts follow the limit convention described in the module
    docstring, so every start of the closed cube has a well-defined
    word; callers that need a start free of degeneracy and simultaneous
    crossings check it first with validate.
    """
    specs = _cube_axes(start, direction)
    return BilliardWord(*_emit(specs, _scaled_progressions(specs), length, with_times))


def trace_letters(
    start: StartPoint,
    direction: Direction = GOLDEN_DIRECTION,
    length: int = 100,
) -> str:
    """Letters-only fast path of trace."""
    specs = _cube_axes(start, direction)
    return _emit(specs, _scaled_progressions(specs), length, with_times=False)[0]


def delete_letter(word: str, letter: str) -> str:
    """Projection of a word obtained by erasing every copy of one letter."""
    if len(letter) != 1:
        raise ValueError("letter must be a single character")
    return word.replace(letter, "")


def letter_frequencies(direction: Direction = GOLDEN_DIRECTION) -> dict[str, FieldNumber]:
    """Exact asymptotic letter frequencies theta_i / (theta_a + theta_b + theta_c)."""
    total = direction.speed_sum
    return {
        letter: speed / total for letter, speed in zip(LETTERS, direction.speeds)
    }


@dataclass(frozen=True)
class SimultaneousCrossing:
    """Two crossings sharing one time; letters appear in tie order."""

    time: FieldNumber
    letters: str
    planes: tuple[int, int]


@dataclass(frozen=True)
class Validation:
    """Outcome of checking a start for degeneracy and simultaneous crossings."""

    degenerate_start: bool
    ties: tuple[SimultaneousCrossing, ...]

    @property
    def ok(self) -> bool:
        return self.reason is None

    @property
    def reason(self) -> Optional[str]:
        if self.degenerate_start:
            return "degenerate_start"
        if self.ties:
            return "simultaneous_crossing"
        return None


def _pair_ties(
    first: _AxisSpec,
    second: _AxisSpec,
    p: _Vector,
    q: _Vector,
    r: _Vector,
    horizon: int,
    direction: Direction,
) -> list[SimultaneousCrossing]:
    """All common crossing times of two progressions that cover ``horizon`` letters.

    Solves n*p - m*q = r, with p and q the two axes' integer steps and r
    the difference of their integer shifts (_scaled_progressions), over
    the four basis coordinates.  The inverse speeds of the family are
    1/r, phi and phi + 1, so on the coordinates (1, phi) the pairs (b, a),
    (b, c) and (a, c) have nonzero determinants: the pair of planes
    (n, m) is the single solution of that 2x2 system.  It is floored to
    integers and counts only if n >= 1 and it satisfies all four
    coordinates: a non-integral solution floors to a pair that fails the
    (1, phi) system, and since the common time is positive, n >= 1
    forces m >= 1.  Only such a candidate has its exact time built and
    tested against the bound (horizon + 3) / speed_sum, the time by
    which the word holds at least ``horizon`` letters.  One candidate
    per pair makes the cost independent of the horizon.
    """
    det = q[0] * p[1] - p[0] * q[1]
    n = (q[0] * r[1] - q[1] * r[0]) // det
    m = (p[0] * r[1] - p[1] * r[0]) // det
    if n < 1:
        return []
    if any(n * a - m * b != c for a, b, c in zip(p, q, r)):
        return []
    time = (FieldNumber(n) - first.offset) * first.inverse_speed
    if time > FieldNumber(horizon + 3) / direction.speed_sum:
        return []
    return [SimultaneousCrossing(time, first.letter + second.letter, (n, m))]


def validate(
    start: StartPoint,
    direction: Direction = GOLDEN_DIRECTION,
    horizon: int = 1000,
) -> Validation:
    """Certify a start for ``horizon`` letters.

    A start passes when at most one coordinate is integral and no two
    axes cross planes simultaneously before the time that covers the
    requested number of letters.  The simultaneity equations are solved
    exactly, never scanned numerically: each pair of axes is one 2x2
    integer system on the common-denominator coordinates of
    _scaled_progressions.
    """
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    specs = _cube_axes(start, direction)
    return _validation(specs, _scaled_progressions(specs), horizon, direction)


def _validation(
    specs: Sequence[_AxisSpec], progressions: _Progressions, horizon: int, direction: Direction
) -> Validation:
    """validate on the start's axes and their _scaled_progressions."""
    steps, shifts, _ = progressions
    ties: list[SimultaneousCrossing] = []
    for i, j in combinations(range(len(specs)), 2):
        r = tuple(map(sub, shifts[i], shifts[j]))
        ties.extend(_pair_ties(specs[i], specs[j], steps[i], steps[j], r, horizon, direction))
    ties.sort(key=lambda event: event.time)
    degenerate = sum(spec.on_wall for spec in specs) >= 2
    return Validation(degenerate_start=degenerate, ties=tuple(ties))


def _valid_letters(
    start: StartPoint, length: int, direction: Direction = GOLDEN_DIRECTION
) -> Optional[str]:
    """The word of trace_letters where validate passes for ``length`` letters, else None.

    The check and the trace read one _cube_axes and _scaled_progressions
    build, which is most of the fixed cost of a start.
    """
    specs = _cube_axes(start, direction)
    progressions = _scaled_progressions(specs)
    if not _validation(specs, progressions, length, direction).ok:
        return None
    return _emit(specs, progressions, length, with_times=False)[0]
