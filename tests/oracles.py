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
    _AxisSpec,
    _cube_axes,
    _emit,
    _on_wall,
    _wall_letters,
    trace_letters,
)
from cubewords.exactnum import FieldNumber, _field
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
    the word is over b and c, a z wall emits its c at t = 0, a y wall
    crossing at t = 0 is dropped, and ties resolve b before c.  The two
    axes go through the cube's crossing merge, billiard._emit.
    """
    _, y, z = StartPoint(0, y, z).coords  # checks y and z as axes b and c
    _, b_speed, c_speed = GOLDEN_DIRECTION.inverse_speeds
    specs = [
        _AxisSpec("b", FieldNumber(0) if _on_wall(y) else y, b_speed, _on_wall(y), None),
        _AxisSpec("c", FieldNumber(0) if _on_wall(z) else z, c_speed, _on_wall(z), 0),
    ]
    return _emit(specs, length, with_times=False)[0]


def raw_crossings(
    start: StartPoint, direction: Direction = GOLDEN_DIRECTION
) -> Iterator[tuple[FieldNumber, str]]:
    """Reference crossing stream: (time, letter) pairs in exact order.

    Merges the three progressions with direct field-number comparisons
    and no dyadic shortcut: the route billiard._merged_axes replaces
    with a sort of bounded integer keys per chunk.
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
