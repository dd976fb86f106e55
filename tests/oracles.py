"""Reference routes that only the tests call.

Each one is an independent way to reach something the package computes
faster or by another road, kept here beside the tests that compare the
two; nothing in the package or the benchmark calls them.
"""

from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

from cubewords.billiard import (
    GOLDEN_DIRECTION,
    Direction,
    StartPoint,
    _axes,
    _emit,
    trace_letters,
)
from cubewords.exactnum import FieldNumber, _field, reduce_mod1
from cubewords.returns import (
    CellLabel,
    CirclePartition,
    FacePartition,
    HitsCut,
    InsufficientOccurrences,
    ReturnWords,
    return_words,
)


def square_trace(y, z, length: int) -> str:
    """Billiard word of the unit square in direction (phi - 1, 2 - phi).

    Same limit convention as the cube, restricted to the last two axes:
    the word is over b and c, a start on one wall writes that wall's
    letter at t = 0, the corner writes only its c (its y wall crossing at
    t = 0 is dropped), and ties resolve b before c.  The two axes go
    through the cube's crossing merge, billiard._emit.
    """
    _, y, z = StartPoint(0, y, z).coords  # checks y and z as axes b and c
    walls = [letter for letter, value in (("b", y), ("c", z)) if value == value.floor()]
    head = "c" if len(walls) == 2 else "".join(walls)
    offsets = [value - value.floor() for value in (y, z)]
    _, b_speed, c_speed = GOLDEN_DIRECTION.inverse_speeds
    return _emit(_axes("bc", head, offsets, (b_speed, c_speed)), length, with_times=False)[0]


def floor_sum(n: int, m: int, a: int, b: int) -> int:
    """The sum of floor((a*j + b) / m) over j = 0, ..., n - 1, for m >= 1.

    Once a and b are reduced modulo m, the sum counts the lattice points
    under a line, which is the same kind of sum with a and m swapped; so
    the loop takes the steps of Euclid's algorithm on (m, a).  It stops
    as soon as one term is left, floor(b / m), rather than running
    Euclid's algorithm to its end.  a and b may be any integers.  The
    reference count for billiard._min_mod's gate: with 2g < m, the terms
    j with (a*j + b) mod m <= 2g number
    floor_sum(n, m, a, b) - floor_sum(n, m, a, b - 2g - 1).
    """
    total = 0
    while n > 1:
        carry_a, a = divmod(a, m)
        carry_b, b = divmod(b, m)
        total += carry_a * (n * (n - 1) // 2) + carry_b * n
        n, b = divmod(a * n + b, m)
        m, a = a, m
    # n is 1 as the caller's, with m >= 1, or after a step that left a > 0
    return total + b // m if n else total


def cube_axis_specs(
    start: StartPoint, direction: Direction = GOLDEN_DIRECTION
) -> list[tuple[str, FieldNumber, FieldNumber]]:
    """(letter, offset, inverse speed) of each cube axis, in the tie order b, a, c.

    The offset is the start coordinate less its floor, so a coordinate on
    a wall, 0 or 1, has offset 0, and the inverse speed is 1 / speed of
    direction.speeds: axis i crosses plane n at (n - offset) * inverse
    speed.  Read from the start and the speeds alone, these check the
    engine's set-up, billiard._cube_axes, and its inverse speeds.
    """
    return [
        (letter, start.coords[i] - start.coords[i].floor(), 1 / direction.speeds[i])
        for letter, i in (("b", 1), ("a", 0), ("c", 2))
    ]


def raw_crossings(
    start: StartPoint, direction: Direction = GOLDEN_DIRECTION
) -> Iterator[tuple[FieldNumber, str]]:
    """Reference crossing stream: (time, letter) pairs in exact order.

    Merges the three progressions of cube_axis_specs with direct
    field-number comparisons and no dyadic shortcut: the route
    billiard._merged_axes replaces with a sort of bounded integer keys
    per chunk.  At t = 0 a start on one wall crosses that wall.  A start
    on two or three walls is the limit of starts shifted by
    epsilon * (0, +1, -1): x stays on its wall and is crossed at t = 0,
    z falls just below its wall and is crossed just after, and y moves
    off its wall.
    """
    specs = cube_axis_specs(start, direction)
    zero = FieldNumber(0)
    walls = [letter for letter, offset, _ in specs if offset == 0]
    if len(walls) > 1:
        walls = [letter for letter in "ac" if letter in walls]
    for letter in walls:
        yield zero, letter
    plane = [1] * len(specs)
    current = [(FieldNumber(1) - offset) * speed for _, offset, speed in specs]
    while True:
        lead = min(current)
        for i, (letter, offset, speed) in enumerate(specs):
            if current[i] == lead:
                yield lead, letter
                plane[i] += 1
                current[i] = (FieldNumber(plane[i]) - offset) * speed


def saddle_connection(a_i, a_j, alpha) -> Optional[int]:
    """Integer n with a_i - a_j = n*alpha (mod 1), or None.

    Two cuts connected this way merge under the orbit equivalence that
    controls coding complexity.  The candidate n is read off the
    irrational coordinates (the shift by n*alpha moves them linearly and
    nothing else can), then verified.  Rational alpha is rejected: its
    orbit is finite and connection-counting degenerates.
    """
    alpha = _field(alpha)
    if alpha.is_rational:
        raise ValueError("rotation angle is rational; saddle connections degenerate")
    difference = _field(a_i) - _field(a_j)
    d_coeffs = difference.coeffs
    a_coeffs = alpha.coeffs
    candidate: Optional[Fraction] = None
    for i in (1, 2, 3):
        if a_coeffs[i] != 0:
            candidate = d_coeffs[i] / a_coeffs[i]
            break
    assert candidate is not None
    if candidate.denominator != 1:
        return None
    n = int(candidate)
    shifted = difference - n * alpha
    if not shifted.is_rational:
        return None
    if shifted.as_fraction().denominator != 1:
        return None
    return n


def empirical_cells(r: Fraction) -> dict[str, list[tuple[Fraction, Fraction]]]:
    """First-return words observed on the interior points (i/20, j/20) of the face.

    The cells for any member of the family are whatever regions the
    observed first return words cut out.  Grid points whose traces are
    too short to close a return are skipped.
    """
    direction = Direction(r)
    found: dict[str, list[tuple[Fraction, Fraction]]] = {}
    for i in range(1, 20):
        for j in range(1, 20):
            y = Fraction(i, 20)
            z = Fraction(j, 20)
            word = trace_letters(StartPoint(0, y, z), direction, length=32)
            try:
                block = return_words(word).blocks[0]
            except InsufficientOccurrences:
                continue
            found.setdefault(block, []).append((y, z))
    return found


def scanned_return_words(word: str) -> ReturnWords:
    """Return words cut at the positions of a found by one scan of the letters.

    The route returns.return_words replaces with one str.split on a.
    """
    positions = [i for i, ch in enumerate(word) if ch == "a"]
    if len(positions) < 2:
        raise InsufficientOccurrences(
            f"need at least two occurrences of 'a', found {len(positions)}"
        )
    blocks = tuple(word[lo:hi] for lo, hi in zip(positions, positions[1:]))
    return ReturnWords(blocks=blocks, trailing=word[positions[-1] :])


def red_z(y: FieldNumber) -> FieldNumber:
    """Z on the red line at Y = y, in FieldNumber arithmetic."""
    return FacePartition.LINE_SLOPE * y + FacePartition.RED_INTERCEPT


def blue_z(y: FieldNumber) -> FieldNumber:
    """Z on the blue line at Y = y, in FieldNumber arithmetic."""
    return FacePartition.LINE_SLOPE * y + FacePartition.BLUE_INTERCEPT


def field_cut_candidates(s: FieldNumber) -> Iterator[tuple[str, FieldNumber]]:
    """Cut candidates of the circle s solved in FieldNumber arithmetic.

    The route returns._circle_cut_candidates replaces with signs of
    integer vectors over the denominator of s.  The circle is
    z(y) = s - y + e with branch e = 0 on y in [0, s] and e = 1 on y in
    (s, 1); each curve is solved against both branches, and solutions
    outside their branch are discarded.
    """
    one = FieldNumber(1)

    def branch_holds(y: FieldNumber, e: int) -> bool:
        if y < 0 or y >= 1:
            return False
        if e == 0:
            return y <= s
        return y > s

    if s != 0:
        yield "seam", s
    yield "horizontal", reduce_mod1(s - FacePartition.HORIZONTAL_Z)
    yield "vertical", FacePartition.VERTICAL_Y
    # z = (phi - 1)*y + b meets z = s - y + e where y = (s + e - b)/phi
    slope = FacePartition.LINE_SLOPE
    for e in (0, 1):
        red = (s + e - FacePartition.RED_INTERCEPT) * slope
        if branch_holds(red, e):
            yield "red", red
        blue = (s + e - FacePartition.BLUE_INTERCEPT) * slope
        if branch_holds(blue, e) and FacePartition.VERTICAL_Y < blue < one:
            yield "blue", blue


def interval_of(partition: CirclePartition, y: FieldNumber) -> int:
    """Index of the partition's interval containing y; HitsCut on a cut point."""
    if y < 0 or y >= 1:
        raise ValueError(f"circle position {y} outside [0, 1)")
    index = 0
    for cut in partition.cuts:
        relation = (y - cut).sign()
        if relation == 0:
            raise HitsCut(cut)
        if relation < 0:
            break
        index += 1
    return index


def label_of(partition: CirclePartition, y: FieldNumber) -> CellLabel:
    """Label of one circle point on FieldNumbers, the single-point route rotation_coding replaces."""
    return partition.labels[interval_of(partition, y)]


def lengths(partition: CirclePartition) -> tuple[FieldNumber, ...]:
    """Exact length of each interval of the partition."""
    bounds = (FieldNumber(0),) + partition.cuts + (FieldNumber(1),)
    return tuple(hi - lo for lo, hi in zip(bounds, bounds[1:]))


def fraction_rank(generators: Sequence) -> int:
    """Rank of the Z-module spanned by 1 and the generators, by elimination over Fraction.

    The route exactnum.zmodule_rank replaces with fraction-free integer
    elimination: each value is its row of four Fraction coordinates, the
    row of 1 first, and Gaussian elimination counts the pivots.
    """
    rows = [[Fraction(1), Fraction(0), Fraction(0), Fraction(0)]]
    for g in generators:
        rows.append(list(_field(g).coeffs))
    rank = 0
    for col in range(4):
        pivot = None
        for r in range(rank, len(rows)):
            if rows[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        head = rows[rank][col]
        for r in range(rank + 1, len(rows)):
            if rows[r][col] != 0:
                factor = rows[r][col] / head
                for c in range(col, 4):
                    rows[r][c] -= factor * rows[rank][c]
        rank += 1
    return rank


def fit_affine(points: Iterable[tuple[int, int]]) -> Optional[tuple[Fraction, Fraction]]:
    """Exact affine law through integer points, or None.

    Returns (slope, intercept) with p = slope*n + intercept satisfied by
    every point; at least two distinct n are required.
    """
    rows = sorted(points)
    if len(rows) < 2 or rows[0][0] == rows[-1][0]:
        return None
    (n0, p0), (n1, p1) = rows[0], rows[-1]
    slope = Fraction(p1 - p0, n1 - n0)
    intercept = p0 - slope * n0
    for n, p in rows:
        if slope * n + intercept != p:
            return None
    return slope, intercept


def fitted_tail(counts: Sequence[int]) -> Optional[tuple[Fraction, Fraction, int]]:
    """The affine tail of p(1..top) by one fit_affine per candidate n0, smallest first.

    The route words.fit_complexity_tail replaces with one backward pass
    over the first differences; a tail needs at least three points.
    """
    top = len(counts)
    for n0 in range(1, top - 1):
        law = fit_affine((n, counts[n - 1]) for n in range(n0, top + 1))
        if law is not None:
            return law[0], law[1], n0
    return None
