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
reference; the progressive engine behind trace_letters works on scaled
integer coordinates with a certified dyadic filter and only falls back
to exact vector comparisons near ties, which makes it fast enough for
words of 10**5 letters and beyond.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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


class _ProgressiveEngine:
    """Merges crossing progressions on scaled integer coordinates.

    Axis i contributes times (n - offset_i) * inverse_speed_i.  With D a
    common denominator, the time of plane n on axis i has integer
    coordinates n*A_i - B_i over the basis (1, phi, sqrt2, phi*sqrt2).
    The engine keeps a dyadic value S_i of the current crossing time per
    axis and compares axes through S; whenever two values come within a
    precomputed margin that certifies the dyadic error plus the worst
    coordinate growth, it re-compares the integer vectors exactly, so
    genuine ties are detected and everything else is decided correctly.
    """

    PRECISION = 160  # bits of the dyadic values S_i

    def __init__(self, specs: Sequence[_AxisSpec], max_letters: int) -> None:
        numbers = []
        for spec in specs:
            numbers.append(spec.inverse_speed)
            numbers.append(spec.offset * spec.inverse_speed)
        denominator = common_denominator(numbers)
        basis = basis_approx(self.PRECISION)
        self._specs = list(specs)
        self._steps: list[tuple[int, int, int, int]] = []
        self._offsets: list[tuple[int, int, int, int]] = []
        self._dyadic_step: list[int] = []
        self._dyadic: list[int] = []
        self._plane: list[int] = []
        for spec in specs:
            step = spec.inverse_speed.scaled_coeffs(denominator)
            shift = (spec.offset * spec.inverse_speed).scaled_coeffs(denominator)
            dyadic_step = sum(a * e for a, e in zip(step, basis))
            dyadic_shift = sum(b * e for b, e in zip(shift, basis))
            self._steps.append(step)
            self._offsets.append(shift)
            self._dyadic_step.append(dyadic_step)
            self._dyadic.append(dyadic_step - dyadic_shift)
            self._plane.append(1)
        top_plane = max_letters + 4
        margin = 0
        count = len(specs)
        for i in range(count):
            for j in range(i + 1, count):
                bound = 2
                for k in (1, 2, 3):
                    bound += 2 * (
                        top_plane * (abs(self._steps[i][k]) + abs(self._steps[j][k]))
                        + abs(self._offsets[i][k])
                        + abs(self._offsets[j][k])
                    )
                margin = max(margin, bound)
        self._margin = margin
        self.tie_count = 0

    def _vector(self, i: int) -> tuple[int, int, int, int]:
        n = self._plane[i]
        step = self._steps[i]
        shift = self._offsets[i]
        return tuple(n * a - b for a, b in zip(step, shift))

    def _exact_compare(self, i: int, j: int) -> int:
        vi = self._vector(i)
        vj = self._vector(j)
        return _int_sign(tuple(a - b for a, b in zip(vi, vj)))

    def events(self, count: int) -> Iterator[tuple[int, int]]:
        """Yield (axis index, plane number) for the next crossings in order."""
        dyadic = self._dyadic
        steps = self._dyadic_step
        plane = self._plane
        margin = self._margin
        axes = range(len(dyadic))
        emitted = 0
        while emitted < count:
            lead = 0
            best = dyadic[0]
            for i in axes:
                if dyadic[i] < best:
                    best = dyadic[i]
                    lead = i
            close = [i for i in axes if i != lead and dyadic[i] - best <= margin]
            if not close:
                yield lead, plane[lead]
                emitted += 1
                plane[lead] += 1
                dyadic[lead] += steps[lead]
                continue
            # Exact comparison among the contenders; equal times are a tie
            # and are emitted in stored (tie) order.
            front = [lead]
            for i in close:
                relation = self._exact_compare(i, front[0])
                if relation < 0:
                    front = [i]
                elif relation == 0:
                    front.append(i)
            front.sort()
            if len(front) > 1:
                self.tie_count += 1
            for i in front:
                yield i, plane[i]
                emitted += 1
                plane[i] += 1
                dyadic[i] += steps[i]
                if emitted == count:
                    break


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

    The one driver of the progressive engine: the wall letters at t = 0
    come first, then the engine's events up to ``length`` letters.
    """
    if length < 0:
        raise ValueError("length must be nonnegative")
    head = _wall_letters(specs)[:length]
    engine = _ProgressiveEngine(specs, max_letters=length)
    events = engine.events(length - len(head))
    times = None
    if with_times:
        events = list(events)
        times = (FieldNumber(0),) * len(head) + tuple(
            (plane - specs[axis].offset) * specs[axis].inverse_speed
            for axis, plane in events
        )
    word = head + "".join([specs[axis].letter for axis, _ in events])
    return word, times, engine.tie_count


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
