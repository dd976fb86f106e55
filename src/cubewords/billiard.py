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

The same convention restricted to (y, z) drives square_trace, the
two-dimensional analogue used as an oracle for projected words.

Two independent evaluation routes are provided.  raw_crossings merges
the three progressions with field-number comparisons and is the
reference; the crossing merge behind trace, trace_letters and
square_trace sorts 64-bit dyadic keys of the crossing times in one
list.sort per chunk, certifies the order with a proven error margin
and re-sorts only runs of keys closer than that margin with exact
vector comparisons, which makes it fast enough for words of 10**5
letters and beyond.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from itertools import accumulate, chain, compress, groupby, islice, repeat
from operator import sub
from typing import Iterator, NamedTuple, Optional, Sequence

from .exactnum import (
    FieldNumber,
    PHI,
    basis_approx,
    common_denominator,
)
from .exactnum import _int_sign

LETTERS = "abc"

NumberLike = FieldNumber | Fraction | int | str


def _as_number(value: NumberLike) -> FieldNumber:
    if isinstance(value, FieldNumber):
        return value
    if isinstance(value, str):
        return FieldNumber.parse(value)
    return FieldNumber(value)


class Direction:
    """A member of the direction family (r, phi - 1, 2 - phi)."""

    __slots__ = ("_r",)

    def __init__(self, r: Fraction | int | str = Fraction(1, 2)) -> None:
        r = Fraction(r)
        if r <= 0:
            raise ValueError("the rational speed r must be positive")
        object.__setattr__(self, "_r", r)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Direction is immutable")

    @property
    def r(self) -> Fraction:
        return self._r

    @property
    def speeds(self) -> tuple[FieldNumber, FieldNumber, FieldNumber]:
        return (FieldNumber(self._r), PHI - 1, 2 - PHI)

    @property
    def inverse_speeds(self) -> tuple[FieldNumber, FieldNumber, FieldNumber]:
        # 1/(phi - 1) = phi and 1/(2 - phi) = phi + 1
        return (FieldNumber(1 / self._r), PHI, PHI + 1)

    @property
    def speed_sum(self) -> FieldNumber:
        return FieldNumber(self._r) + 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Direction):
            return NotImplemented
        return self._r == other._r

    def __hash__(self) -> int:
        return hash(("Direction", self._r))

    def __repr__(self) -> str:
        return f"Direction({self._r!r})"


GOLDEN_DIRECTION = Direction(Fraction(1, 2))


class StartPoint:
    """An exact point of the closed unit cube."""

    __slots__ = ("_coords",)

    def __init__(self, x: NumberLike, y: NumberLike, z: NumberLike) -> None:
        coords = tuple(_as_number(v) for v in (x, y, z))
        for axis, value in zip(LETTERS, coords):
            if value < 0 or value > 1:
                raise ValueError(f"coordinate {axis}={value} outside [0, 1]")
        object.__setattr__(self, "_coords", coords)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("StartPoint is immutable")

    @property
    def coords(self) -> tuple[FieldNumber, FieldNumber, FieldNumber]:
        return self._coords

    @property
    def x(self) -> FieldNumber:
        return self._coords[0]

    @property
    def y(self) -> FieldNumber:
        return self._coords[1]

    @property
    def z(self) -> FieldNumber:
        return self._coords[2]

    @property
    def integral_axes(self) -> str:
        """Letters of the coordinates lying on a wall, in a, b, c order."""
        out = []
        for axis, value in zip(LETTERS, self._coords):
            if value.is_rational and value.as_fraction().denominator == 1:
                out.append(axis)
        return "".join(out)

    @property
    def is_degenerate(self) -> bool:
        return len(self.integral_axes) >= 2

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StartPoint):
            return NotImplemented
        return self._coords == other._coords

    def __hash__(self) -> int:
        return hash(self._coords)

    def __repr__(self) -> str:
        return f"StartPoint({self.x}, {self.y}, {self.z})"


class _AxisSpec(NamedTuple):
    letter: str
    offset: FieldNumber  # start coordinate reduced into [0, 1)
    inverse_speed: FieldNumber
    on_wall: bool  # original coordinate was integral
    wall_rank: Optional[int]  # emission slot at t = 0; None drops the crossing


def _axis_specs(
    coords: Sequence[FieldNumber],
    inverse_speeds: Sequence[FieldNumber],
    letters: str,
    wall_ranks: Sequence[Optional[int]],
    tie_order: Sequence[int],
) -> list[_AxisSpec]:
    specs = []
    for index in tie_order:
        value = coords[index]
        on_wall = value.is_rational and value.as_fraction().denominator == 1
        offset = FieldNumber(0) if on_wall else value
        specs.append(
            _AxisSpec(letters[index], offset, inverse_speeds[index], on_wall, wall_ranks[index])
        )
    return specs


def _cube_axes(start: StartPoint, direction: Direction) -> list[_AxisSpec]:
    # tie order b, a, c; wall emission a at rank 0, then c; b is dropped
    return _axis_specs(
        start.coords,
        direction.inverse_speeds,
        LETTERS,
        wall_ranks=(0, None, 1),
        tie_order=(1, 0, 2),
    )


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


def _merged_axes(specs: Sequence[_AxisSpec], count: int) -> tuple[bytes, int]:
    """Spec indices of the first ``count`` crossings in exact order, and the ties.

    Axis i crosses plane n at time (n - offset_i) * inverse_speed_i.  With
    D a common denominator, D times that time has integer coordinates
    n*step_i - shift_i over the basis (1, phi, sqrt2, phi*sqrt2), and its
    p-bit dyadic estimate S_i(n) = n*s_i - h_i (s_i and h_i the estimates
    of step_i and shift_i) lies within 2*(n*|step_i| + |shift_i|) of the
    value times 2**p, |.| summing the three irrational coordinates.

    Each chunk lays out the keys S_i(n)*k + i (k axes, i the tie rank) of a
    window of planes per axis as arithmetic runs and sorts them in one
    list.sort; the runs are already sorted, so timsort only merges them.
    Keys whose estimates differ by more than the margin, which bounds the
    error of any two estimates in the chunk, are in exact order.  Runs of
    closer keys are re-sorted with _int_sign on the integer vectors, equal
    times falling back to the tie rank; each group of equal times is one
    tie.  Only keys below every axis's first missing plane, less the
    margin, are emitted, and the cut never splits a close run; the next
    chunk starts at the first plane of each axis not emitted.

    p starts at 64.  The margin grows with the coordinates, not with p,
    so p doubles while the margin is not small against every step.  Then
    a close run holds at most one crossing per axis, and each window of
    planes, sized for 2k + 1 more crossings than the chunk needs, keeps
    more than k of them below the cut, so every chunk emits crossings.
    """
    k = len(specs)
    inverse_speeds = [spec.inverse_speed for spec in specs]
    shifts = [spec.offset * spec.inverse_speed for spec in specs]
    denominator = common_denominator(inverse_speeds + shifts)
    steps = [value.scaled_coeffs(denominator) for value in inverse_speeds]
    shifts = [value.scaled_coeffs(denominator) for value in shifts]
    slopes = [2 * (abs(a1) + abs(a2) + abs(a3)) for _, a1, a2, a3 in steps]
    intercepts = [2 * (abs(b1) + abs(b2) + abs(b3)) for _, b1, b2, b3 in shifts]

    def estimates(precision: int) -> tuple[list[int], list[int]]:
        basis = basis_approx(precision)
        return (
            [sum(a * e for a, e in zip(step, basis)) for step in steps],
            [sum(b * e for b, e in zip(shift, basis)) for shift in shifts],
        )

    precision = 64
    dyadic_steps, dyadic_shifts = estimates(precision)

    def relation(p: int, q: int) -> int:
        """Exact sign of time(p) - time(q) for two keys."""
        i, j = p % k, q % k
        n = (p // k + dyadic_shifts[i]) // dyadic_steps[i]
        m = (q // k + dyadic_shifts[j]) // dyadic_steps[j]
        u, b, v, c = steps[i], shifts[i], steps[j], shifts[j]
        return _int_sign(tuple(n * u[t] - b[t] - m * v[t] + c[t] for t in range(4)))

    def exact_order(p: int, q: int) -> int:
        return relation(p, q) or p % k - q % k

    out = bytearray()
    ties = 0
    planes = [1] * k
    while len(out) < count:
        need = count - len(out)
        firsts = [n * s - h for n, s, h in zip(planes, dyadic_steps, dyadic_shifts)]
        # S-units per crossing of the merged stream: 1 / sum(1 / s_i)
        product = math.prod(dyadic_steps)
        span = (min(_CHUNK, need) + 2 * k + 1) * product // sum(product // s for s in dyadic_steps)
        sizes = [max(0, (min(firsts) + span - f) // s + 1) for f, s in zip(firsts, dyadic_steps)]
        margin = 2 + 2 * max(
            slope * (n + size) + intercept
            for slope, intercept, n, size in zip(slopes, intercepts, planes, sizes)
        )
        if 4 * k * (margin + 2) > min(dyadic_steps):
            precision *= 2
            dyadic_steps, dyadic_shifts = estimates(precision)
            continue
        keys = list(
            chain.from_iterable(
                accumulate(repeat(s * k, size - 1), initial=f * k + i)
                for i, (f, s, size) in enumerate(zip(firsts, dyadic_steps, sizes))
                if size
            )
        )
        keys.sort()
        nexts = [f + size * s for f, s, size in zip(firsts, dyadic_steps, sizes)]
        cut = bisect_left(keys, (min(nexts) - margin) * k)
        gap = (margin + 1) * k
        close = []
        # Close keys are rare, so one pass of min rules them out first.
        if min(map(sub, islice(keys, 1, cut + 1), keys), default=gap + 1) <= gap:
            close = list(compress(range(cut), map(gap.__ge__, map(sub, islice(keys, 1, None), keys))))
        while close and close[-1] == cut - 1:
            close.pop()
            cut -= 1
        limit = min(cut, need)
        # Consecutive close pairs j, j + 1, ... form one run of keys.
        for _, run in groupby(enumerate(close), lambda pair: pair[1] - pair[0]):
            run = [j for _, j in run]
            lo, hi = run[0], run[-1] + 2
            block = sorted(keys[lo:hi], key=cmp_to_key(exact_order))
            keys[lo:hi] = block
            tied_before = False
            for t in range(len(block) - 1):
                tied = relation(block[t], block[t + 1]) == 0
                if tied and not tied_before and lo + t < limit:
                    ties += 1
                tied_before = tied
        axes = bytes(map(k.__rmod__, islice(keys, limit)))
        out += axes
        for i in range(k):
            planes[i] += axes.count(i)
    return bytes(out), ties


@dataclass(frozen=True)
class BilliardWord:
    """A finite prefix of a billiard word with optional crossing times."""

    word: str
    times: Optional[tuple[FieldNumber, ...]]
    start: StartPoint
    direction: Direction
    tie_count: int

    def __str__(self) -> str:
        return self.word

    def __len__(self) -> int:
        return len(self.word)


def _emit(
    specs: Sequence[_AxisSpec], length: int, with_times: bool
) -> tuple[str, Optional[tuple[FieldNumber, ...]], int]:
    """Word, crossing times (None unless ``with_times``) and tie count.

    The one driver of the crossing merge: the wall letters at t = 0 come
    first, then the merged crossings up to ``length`` letters.
    """
    if length < 0:
        raise ValueError("length must be nonnegative")
    head = _wall_letters(specs)[:length]
    axes, tie_count = _merged_axes(specs, length - len(head))
    letters = bytes.maketrans(
        bytes(range(len(specs))), "".join(spec.letter for spec in specs).encode()
    )
    word = head + axes.translate(letters).decode()
    times = None
    if with_times:
        planes = [0] * len(specs)
        crossings = []
        for axis in axes:
            planes[axis] += 1
            spec = specs[axis]
            crossings.append((planes[axis] - spec.offset) * spec.inverse_speed)
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
    word, times, tie_count = _emit(_cube_axes(start, direction), length, with_times)
    return BilliardWord(
        word=word, times=times, start=start, direction=direction, tie_count=tie_count
    )


def trace_letters(
    start: StartPoint,
    direction: Direction = GOLDEN_DIRECTION,
    length: int = 100,
) -> str:
    """Letters-only fast path of trace."""
    return _emit(_cube_axes(start, direction), length, with_times=False)[0]


def raw_crossings(
    start: StartPoint, direction: Direction = GOLDEN_DIRECTION
) -> Iterator[tuple[FieldNumber, str]]:
    """Reference crossing stream: (time, letter) pairs in exact order.

    Merges the three progressions with direct field-number comparisons
    and no dyadic shortcut; kept deliberately independent of the
    progressive engine so the two routes can cross-check each other.
    """
    specs = _cube_axes(start, direction)
    zero = FieldNumber(0)
    for letter in _wall_letters(specs):
        yield zero, letter
    plane = [1] * len(specs)
    current = [
        (FieldNumber(plane[i]) - spec.offset) * spec.inverse_speed
        for i, spec in enumerate(specs)
    ]
    while True:
        lead = min(range(len(specs)), key=lambda i: current[i])
        tied = [i for i in range(len(specs)) if current[i] == current[lead]]
        for i in tied:
            yield current[i], specs[i].letter
            plane[i] += 1
            current[i] = (FieldNumber(plane[i]) - specs[i].offset) * specs[i].inverse_speed


def square_trace(
    y: NumberLike,
    z: NumberLike,
    length: int,
    direction: Direction = GOLDEN_DIRECTION,
) -> str:
    """Billiard word of the unit square in direction (phi - 1, 2 - phi).

    Same limit convention as the cube, restricted to the last two axes:
    the word is over b and c, a z wall emits its c at t = 0, a y wall
    crossing at t = 0 is dropped, and ties resolve b before c.
    """
    coords = StartPoint(0, y, z).coords[1:]  # checks y and z as axes b and c
    inverse = direction.inverse_speeds[1:]
    specs = _axis_specs(coords, inverse, "bc", wall_ranks=(None, 0), tie_order=(0, 1))
    return _emit(specs, length, with_times=False)[0]


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

    ok: bool
    degenerate_start: bool
    ties: tuple[SimultaneousCrossing, ...]
    horizon: int
    time_bound: FieldNumber

    @property
    def reason(self) -> Optional[str]:
        if self.degenerate_start:
            return "degenerate_start"
        if self.ties:
            return "simultaneous_crossing"
        return None


def _pair_ties(
    first: _AxisSpec, second: _AxisSpec, time_bound: FieldNumber
) -> list[SimultaneousCrossing]:
    """All common crossing times of two progressions within the bound.

    Solves n*iota_i - m*iota_j = offset_i*iota_i - offset_j*iota_j over
    the four basis coordinates.  The inverse speeds of the family are
    1/r, phi and phi + 1, so on the coordinates (1, phi) the pairs (b, a),
    (b, c) and (a, c) have determinants 1/r, 1 and -1/r, never zero: the
    pair of planes (n, m) is the single solution of that 2x2 system, and
    it counts only if it also satisfies the sqrt2 coordinates.  One
    candidate per pair makes the cost independent of the horizon.
    """
    p = first.inverse_speed.coeffs
    q = second.inverse_speed.coeffs
    target = first.offset * first.inverse_speed - second.offset * second.inverse_speed
    r = target.coeffs
    det = q[0] * p[1] - p[0] * q[1]
    n = (q[0] * r[1] - q[1] * r[0]) / det
    m = (p[0] * r[1] - p[1] * r[0]) / det
    out: list[SimultaneousCrossing] = []
    if all(n * p[i] - m * q[i] == r[i] for i in range(4)):
        if n.denominator == 1 and m.denominator == 1 and n >= 1 and m >= 1:
            time = (FieldNumber(n) - first.offset) * first.inverse_speed
            if time <= time_bound:
                out.append(
                    SimultaneousCrossing(
                        time, first.letter + second.letter, (int(n), int(m))
                    )
                )
    return out


def validate(
    start: StartPoint,
    direction: Direction = GOLDEN_DIRECTION,
    horizon: int = 1000,
) -> Validation:
    """Certify a start for ``horizon`` letters.

    A start passes when at most one coordinate is integral and no two
    axes cross planes simultaneously before the time that covers the
    requested number of letters.  The simultaneity equations are solved
    exactly, never scanned numerically.
    """
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    time_bound = FieldNumber(horizon + 3) / direction.speed_sum
    specs = _cube_axes(start, direction)
    ties: list[SimultaneousCrossing] = []
    for i in range(len(specs)):
        for j in range(i + 1, len(specs)):
            ties.extend(_pair_ties(specs[i], specs[j], time_bound))
    ties.sort(key=lambda event: event.time)
    degenerate = start.is_degenerate
    return Validation(
        ok=not degenerate and not ties,
        degenerate_start=degenerate,
        ties=tuple(ties),
        horizon=horizon,
        time_bound=time_bound,
    )
