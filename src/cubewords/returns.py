"""Return words of the letter a and the face partition behind them.

For the direction with r = 1/2, the word between one a and the next is
one of only seven blocks, and which block follows a given crossing of
the face X = 0 depends only on where the trajectory hits that face.
The face splits into seven cells whose boundaries are four curves in
the (Y, Z) square:

* the horizontal line Z = 2*phi - 3,
* the vertical line Y = 4 - 2*phi,
* the red line Z = (phi - 1)*Y + (2 - phi),
* the blue segment Z = (phi - 1)*Y + (3 - 2*phi) over Y in [4-2*phi, 1].

The anti-diagonal Y + Z = 1 is also drawn on the face as the axis of
the trajectory flow, but it does not separate cells: the return word is
constant across it, so cell assignment ignores it (points exactly on
the four dividing curves are rejected instead).

Successive returns are driven by a rotation: consecutive hits of the
face differ by adding 2*theta_2 to Y and subtracting it from Z, so the
quantity s = Y + Z mod 1 is invariant and each start lives on a circle
{(y, s - y mod 1)}.  Cutting that circle with the four curves (and the
seam where Z wraps past 0) gives an interval partition with k pieces,
k in {3, 5, 6}; coding the rotation orbit of Y against it and mapping
each interval's cell digit through the block table reconstructs the
billiard word letter for letter.

The face partition decides on integers too, estimate first.  Every
cell, cut and range test is the sign of u - D*c, for an integer vector
u over a denominator D and a constant c, and exactnum owns the one
rule that reads it: exactnum._side takes u and c as rows, each an
integer vector after its exactnum._dyadic estimate and error bound,
settles the sign from the estimates when their gap clears the summed
bounds, and calls exactnum._compare only inside them.  _cell_label
takes a face point as two rows over one denominator; cell_of,
kth_return_prediction and the interval labels of circle_partition all
call it, so no cell is decided by FieldNumber arithmetic.
circle_partition solves its cuts as rows over the denominator of s.
The translates of kth_return_prediction, the z of each interval
midpoint and the horizontal cut are reduced mod 1 by
exactnum._mod1_row, which keeps the estimate.

rotation_coding codes that orbit on integers, as a string of cell
digits: each point is four integer coordinates over the common
denominator of the start, the angle and the cuts.  A certified dyadic
filter steps a dyadic estimate of the point under one error bound for
the whole orbit and places it among the cuts' estimates by bisection;
only a step whose estimate is too close to a cut or to the wrap point
to certify falls back to exactnum._compare or _int_sign.
"""

from __future__ import annotations

import logging
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from operator import add, sub
from typing import Iterator, Optional

from .billiard import GOLDEN_DIRECTION, Direction, StartPoint, trace_letters
from .exactnum import (
    _ONE_ROW,
    _PRECISION,
    _ZERO_ROW,
    PHI,
    FieldNumber,
    _compare,
    _dyadic,
    _field,
    _int_sign,
    _mod1_row,
    _reduced,
    _Row,
    _row,
    _side,
    _sorted_merged,
    _Vector,
    common_denominator,
    reduce_mod1,
)

logger = logging.getLogger(__name__)


class OnBoundary(ValueError):
    """The point lies exactly on a dividing curve of the face partition."""

    def __init__(self, curve: str, point: tuple[FieldNumber, FieldNumber]) -> None:
        super().__init__(f"point ({point[0]}, {point[1]}) lies on the {curve} curve")
        self.curve = curve
        self.point = point


class InsufficientOccurrences(ValueError):
    """Too few occurrences of the letter a to cut out return words."""


class HitsCut(ValueError):
    """A rotation orbit point landed exactly on a partition cut."""

    def __init__(self, position: FieldNumber, step: Optional[int] = None) -> None:
        where = f" at step {step}" if step is not None else ""
        super().__init__(f"orbit hits the cut {position}{where}")
        self.position = position
        self.step = step


class CellLabel(Enum):
    """The seven cells of the face partition, named by their return word."""

    A1 = 1
    A2 = 2
    A3 = 3
    A4 = 4
    A5 = 5
    A6 = 6
    A7 = 7

    @property
    def word(self) -> str:
        """The return word emitted from this cell."""
        return _CELL_WORDS[self]

    def __str__(self) -> str:
        return f"a{self.value}"


_CELL_WORDS = {
    CellLabel.A1: "acb",
    CellLabel.A2: "abc",
    CellLabel.A3: "abcb",
    CellLabel.A4: "abb",
    CellLabel.A5: "abbc",
    CellLabel.A6: "acbb",
    CellLabel.A7: "ab",
}

# the block of each cell digit of a rotation coding
_DIGIT_WORDS = {str(label.value): word for label, word in _CELL_WORDS.items()}


class FacePartition:
    """The curves of the seven-cell partition of the face X = 0 for r = 1/2.

    cell_of assigns the cells.  They are open: points on any of the four
    dividing curves are rejected, since trajectories from there may run
    into cube edges.  Constants are hard-coded exactly, here only: the
    integer classifier _cell_label and the cut solve of circle_partition
    read their vectors from them, and the whole table is cross-validated
    against traced return words in the tests.
    """

    HORIZONTAL_Z = 2 * PHI - 3
    VERTICAL_Y = 4 - 2 * PHI
    LINE_SLOPE = PHI - 1
    RED_INTERCEPT = 2 - PHI
    BLUE_INTERCEPT = 3 - 2 * PHI


# the curve constants as exactnum rows over the denominator 1, for exactnum._side
_HORIZONTAL_ROW = _row(FacePartition.HORIZONTAL_Z.scaled_coeffs(1))
_VERTICAL_ROW = _row(FacePartition.VERTICAL_Y.scaled_coeffs(1))
_RED_ROW = _row(FacePartition.RED_INTERCEPT.scaled_coeffs(1))
_BLUE_ROW = _row(FacePartition.BLUE_INTERCEPT.scaled_coeffs(1))


def _face_point(y: _Vector, z: _Vector, denom: int) -> tuple[FieldNumber, FieldNumber]:
    return _reduced(y, denom), _reduced(z, denom)


def _cell_label(y_row: _Row, z_row: _Row, denom: int) -> CellLabel:
    """cell_of for the point (y, z) / denom, each coordinate an exactnum row over denom > 0.

    A row is (E, B, v): an integer vector v after its exactnum._dyadic
    estimate E and bound B, |E - value*denom*2**p| < B.  Every test is
    the sign of an integer vector: v / denom < c for a constant c over
    1 iff v - denom*c < 0, which exactnum._side reads from the
    estimates first, the constants' rows computed once at import.  The
    open square is first one chained comparison per coordinate,
    B < E < M - B with M = denom << p, the exact estimate of 1; only a
    point that fails it is tested by _side against exactnum._ZERO_ROW
    and _ONE_ROW.  The curves Z = (phi - 1)*Y + b need the product
    (phi - 1)*y on vectors.  With phi**2 = 1 + phi,
    (phi - 1)*(a0 + a1*phi) = a0*phi + a1 + a1*phi - a0 - a1*phi =
    (a1 - a0) + a0*phi, and sqrt2 multiplies through, so
    (phi - 1)*(a0, a1, a2, a3) = (a1 - a0, a0, a3 - a2, a2); the row of
    w = z - (phi - 1)*y is shared by the red and blue
    tests.  The outcomes are cell_of's: a point outside the open square
    raises ValueError before any curve is reported, then the vertical
    line, the horizontal one, the red and the blue are tested in that
    order.
    """
    y_estimate, y_bound, y = y_row
    z_estimate, z_bound, z = z_row
    unit = denom << _PRECISION
    inside = y_bound < y_estimate < unit - y_bound and z_bound < z_estimate < unit - z_bound
    if not inside and any(
        _side(row, _ZERO_ROW, denom) <= 0 or _side(row, _ONE_ROW, denom) >= 0
        for row in (y_row, z_row)
    ):
        point = _face_point(y, z, denom)
        raise ValueError(f"point ({point[0]}, {point[1]}) outside the open unit square")
    vertical = _side(y_row, _VERTICAL_ROW, denom)
    horizontal = _side(z_row, _HORIZONTAL_ROW, denom)
    if vertical == 0:
        raise OnBoundary("vertical", _face_point(y, z, denom))
    if horizontal == 0:
        raise OnBoundary("horizontal", _face_point(y, z, denom))
    if horizontal < 0:
        return CellLabel.A7 if vertical < 0 else CellLabel.A4
    # z - (phi - 1)*y, then less the red or the blue intercept
    y0, y1, y2, y3 = y
    z0, z1, z2, z3 = z
    w = _row((z0 - y1 + y0, z1 - y0, z2 - y3 + y2, z3 - y2))
    red = _side(w, _RED_ROW, denom)
    if red == 0:
        raise OnBoundary("red", _face_point(y, z, denom))
    if vertical < 0:
        return CellLabel.A2 if red < 0 else CellLabel.A1
    if red > 0:
        return CellLabel.A6
    blue = _side(w, _BLUE_ROW, denom)
    if blue == 0:
        raise OnBoundary("blue", _face_point(y, z, denom))
    return CellLabel.A3 if blue > 0 else CellLabel.A5


def cell_of(y: FieldNumber, z: FieldNumber) -> CellLabel:
    """Label of the open cell containing (y, z); OnBoundary on a curve.

    ValueError outside the open unit square, and TypeError for input
    that is not an int, a Fraction or a FieldNumber.  Both coordinates
    go over their common denominator and _cell_label decides on the
    integer vectors and their estimates.
    """
    y, z = _field(y), _field(z)
    denom = common_denominator((y, z))
    return _cell_label(_row(y.scaled_coeffs(denom)), _row(z.scaled_coeffs(denom)), denom)


@dataclass(frozen=True)
class ReturnWords:
    """Return words of the letter a plus the trailing partial block."""

    blocks: tuple[str, ...]
    trailing: str


def return_words(word: str) -> ReturnWords:
    """Blocks from each occurrence of the letter a to just before the next.

    The final stretch, which is only bounded by the window and not by a
    further occurrence, is reported as trailing, not as a return word.
    The blocks are read from one str.split on the letter a.
    """
    pieces = word.split("a")
    if len(pieces) < 3:
        raise InsufficientOccurrences(
            f"need at least two occurrences of 'a', found {len(pieces) - 1}"
        )
    # pieces[0] precedes the first a; each later piece follows one a
    blocks = tuple(["a" + piece for piece in pieces[1:-1]])
    return ReturnWords(blocks=blocks, trailing="a" + pieces[-1])


def translation_step(r: Fraction) -> FieldNumber:
    """The rotation step theta_2 / r reduced mod 1; 2*phi - 3 for r = 1/2."""
    return reduce_mod1((PHI - 1) * (1 / Direction(r).r))


TRANSLATION_ANGLE = translation_step(Fraction(1, 2))
"""Rotation angle 2*phi - 3 driving returns for the r = 1/2 direction."""


def _translated_face_point(
    m: StartPoint, k: int, r: Fraction
) -> tuple[FieldNumber, FieldNumber]:
    """The face point (y + k*d, z + k*e) mod 1 of the (k+1)-th return.

    d = theta_2 / r and e = theta_3 / r = 1/r - d; e equals -d mod 1
    only when 1/r is an integer.  Its one caller, predict_return_words,
    checks the face and passes k >= 0.
    """
    step = translation_step(r)
    z_step = 1 / Fraction(r) - step
    return reduce_mod1(m.y + k * step), reduce_mod1(m.z + k * z_step)


_ANGLE = TRANSLATION_ANGLE.scaled_coeffs(1)


def kth_return_prediction(m: StartPoint, k: int) -> CellLabel:
    """Cell predicted to emit the (k+1)-th return word of the trace of m, r = 1/2.

    Consecutive face hits translate (Y, Z) by (theta_2 / r, theta_3 / r),
    so the prediction is the cell at the k-fold translate.  This is the
    single-point reference for predict_return_words: it rebuilds the
    translate from k = 0 and asks the cell classifier, with no rotation
    orbit and no circle partition.  For r = 1/2 the translate is
    (y + k*alpha, z + k*(2 - alpha)) mod 1 with alpha = 2*phi - 3, and
    z + k*(2 - alpha) = z - k*alpha mod 1.  alpha has denominator 1, so
    over the common denominator D of y and z both coordinates are the
    integer vectors y + k*D*alpha and z - k*D*alpha, each reduced mod 1
    by exactnum._mod1_row from one _dyadic estimate; the reduced rows go
    to _cell_label.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if m.x:
        raise ValueError("return prediction starts from the face X = 0")
    denom = common_denominator((m.y, m.z))
    shift = [k * denom * a for a in _ANGLE]
    y = _mod1_row(tuple(map(add, m.y.scaled_coeffs(denom), shift)), denom)
    z = _mod1_row(tuple(map(sub, m.z.scaled_coeffs(denom), shift)), denom)
    return _cell_label(y, z, denom)


def predict_return_words(m: StartPoint, count: int, r: Fraction = Fraction(1, 2)) -> list[str]:
    """The first ``count`` predicted return words of the trace of m.

    For r = 1/2 the k-th translate is (y + k*alpha, z - k*alpha) mod 1,
    alpha = 2*phi - 3, on the circle s = y + z mod 1: the predictions are
    the block words of one rotation orbit of y mod 1, so the wall start
    y = 1 codes as y = 0, and an orbit point on a cut raises HitsCut.
    A start with z = 0 or 1 and 0 < y < 1 sits on the seam cut s = y,
    so it raises HitsCut at step 0.  For other r each prediction traces
    floor(1/r) + 6 letters from the translated face point, as at most
    floor(1/r) + 2 crossings of Y and Z faces lie between two of X.
    r is coerced by Direction first, so a float raises TypeError.
    """
    direction = Direction(r)
    if m.x != 0:
        raise ValueError("return prediction starts from the face X = 0")
    if direction == GOLDEN_DIRECTION:
        partition = circle_partition(reduce_mod1(m.y + m.z))
        coding = rotation_coding(reduce_mod1(m.y), partition, TRANSLATION_ANGLE, count)
        return [_DIGIT_WORDS[digit] for digit in coding]
    length = int(1 / direction.r) + 6
    probes = (StartPoint(0, *_translated_face_point(m, k, direction.r)) for k in range(count))
    return [return_words(trace_letters(p, direction, length)).blocks[0] for p in probes]


@dataclass(frozen=True)
class CirclePartition:
    """Interval partition of the circle s = Y + Z mod 1, indexed by Y.

    cuts are the interior discontinuities in (0, 1), sorted; the wrap
    point Y = 0 always starts a fresh interval (the two columns of the
    face carry disjoint label sets, so the seam there is genuine) and
    is not listed.  Interval i is [cut_{i-1}, cut_i) with the implicit
    endpoints 0 and 1, so k = len(cuts) + 1.
    """

    s: FieldNumber
    cuts: tuple[FieldNumber, ...]
    labels: tuple[CellLabel, ...]

    @property
    def k(self) -> int:
        return len(self.labels)


def rotation_coding(
    y0: FieldNumber, partition: CirclePartition, angle: FieldNumber, n: int
) -> str:
    """Coding of y0, y0 + angle, ... against the partition, n steps, as a digit string.

    Each step writes the value 1..7 of its interval's CellLabel, so the
    coding of a circle of the face partition maps to return words
    digit by digit.  Any orbit point landing exactly on a cut raises
    HitsCut carrying the step index; the coding of such an orbit is
    ambiguous and the caller must pick a different start rather than get
    a silent choice.

    The angle is reduced mod 1 once.  Over the common denominator D of
    the start, the angle and the cuts, step j sits at the integer vector
    y_j = a + j*d - w*D, a and d the start's and the angle's, w the
    wraps so far.  A certified dyadic filter decides almost every step:

    * exactnum._dyadic gives p-bit estimates E(v) of a vector's value
      times 2**p, off by less than B(v), p = exactnum._PRECISION.  E is
      linear and E(D, 0, 0, 0) = D << p exactly, so
      E(y_j) = E(a) + j*E(d) - w*(D << p) costs one add per step and
      one subtraction per wrap.  B ignores the rational coordinate and
      is subadditive, so every point the orbit tests, y_j for j < n and
      y_j + d before its wrap, is within B = B(a) + n*B(d) of its
      estimate: one bound for the whole orbit, not one growing per
      step, computed before the loop.
    * bisect locates E(y_j) among the cuts' estimates at index i.  The
      digit is interval i's when E(y_j) - E(c_{i-1}) > B + B(c_{i-1})
      and E(c_i) - E(y_j) > B + B(c_i), for then c_{i-1} < y_j < c_i
      exactly, whatever the order of the other estimates.  Both limits
      are shifted by B before the loop, so the test is one chained
      comparison.  The wrap point bounds interval 0 below and the last
      interval above; y_j in [0, 1) is exact, so their sentinels -1
      and 2 can only send a step to the fallback.
    * y_j + angle wraps when its estimate exceeds (D << p) + B, and
      does not when it falls below (D << p) - B; both thresholds are
      set before the loop.

    Every other step, and every wrap too close to call, takes the exact
    route: exactnum._compare of y_j with the cuts in order, or
    exactnum._int_sign of y_j + d - D.  A point on a cut is never
    certified off it, so it reaches the exact route, which raises
    HitsCut with the same (cut, step) as an all-exact coding would.  No
    float and no uncertified margin decides a digit.
    """
    if n < 0:
        raise ValueError("orbit length must be nonnegative")
    y0 = _field(y0)
    angle = reduce_mod1(_field(angle))
    denom = common_denominator((y0, angle) + partition.cuts)
    start = _row(y0.scaled_coeffs(denom))
    if _side(start, _ZERO_ROW, denom) < 0 or _side(start, _ONE_ROW, denom) >= 0:
        raise ValueError(f"orbit start {y0} outside [0, 1)")
    estimate, error, (a0, a1, a2, a3) = start
    d0, d1, d2, d3 = angle.scaled_coeffs(denom)
    cuts = [(cut, cut.scaled_coeffs(denom)) for cut in partition.cuts]
    estimates = [_dyadic(vector) for _, vector in cuts]
    keys = [key for key, _ in estimates]
    one = denom << _PRECISION  # the exact estimate of 1 = D/D
    step_estimate, step_error = _dyadic((d0, d1, d2, d3))
    error += n * step_error
    lows = [key + bound + error for key, bound in [(-one, 0)] + estimates]
    highs = [key - bound - error for key, bound in estimates + [(2 * one, 0)]]
    wrap_low, wrap_high = one - error, one + error
    digits = [str(label.value) for label in partition.labels]

    def exact_point(step: int, wraps: int) -> tuple[int, int, int, int]:
        return (a0 + step * d0 - wraps * denom, a1 + step * d1, a2 + step * d2, a3 + step * d3)

    def exact_index(step: int, wraps: int) -> int:
        point = exact_point(step, wraps)
        index = 0
        for cut, vector in cuts:
            relation = _compare(point, vector)
            if relation == 0:
                raise HitsCut(cut, step)
            if relation < 0:
                break
            index += 1
        return index

    coding = []
    wraps = 0
    for step in range(n):
        index = bisect_right(keys, estimate)
        if not lows[index] < estimate < highs[index]:
            index = exact_index(step, wraps)
        coding.append(digits[index])
        estimate += step_estimate
        # the angle lies in [0, 1), so one comparison with 1 = D/D wraps y
        if estimate >= wrap_low and (
            estimate > wrap_high or _int_sign(exact_point(step + 1, wraps + 1)) >= 0
        ):
            estimate -= one
            wraps += 1
    return "".join(coding)


def _circle_cut_candidates(s: _Row, denom: int) -> Iterator[tuple[str, _Row]]:
    """Exact intersections of the circle with the seam and the four curves, as exactnum rows.

    s and every candidate are integer vectors over denom > 0, the
    denominator of the invariant, with their _dyadic estimates and
    bounds: the curve constants have denominator 1, so over denom they
    are denom times their vectors.  The circle is z(y) = s - y + e with
    branch e = 0 on y in [0, s] and e = 1 on y in (s, 1).  Each curve is
    solved against both branches; solutions outside their branch are
    discarded.  The anti-diagonal never crosses transversally (for
    s = 0 the circle lies inside it), so it contributes no cuts.  Every
    test is the sign of an integer vector, decided by exactnum._side
    from the estimates, and by exactnum._compare only inside their
    bounds: where cuts coincide or land on s or on the wrap point.
    """
    s0, s1, s2, s3 = invariant = s[2]
    if any(invariant):
        yield "seam", s
    horizontal = tuple(a - denom * b for a, b in zip(invariant, _HORIZONTAL_ROW[2]))
    yield "horizontal", _mod1_row(horizontal, denom)
    yield "vertical", _row(tuple(denom * a for a in _VERTICAL_ROW[2]))
    # z = (phi - 1)*y + b meets z = s - y + e where phi*y = s + e - b, so
    # y = (s + e - b)/phi, and 1/phi = phi - 1 maps (a0, a1, a2, a3) to
    # (a1 - a0, a0, a3 - a2, a2), as in _cell_label
    for e in (0, 1):
        for curve, (_, _, (b0, b1, b2, b3)) in (("red", _RED_ROW), ("blue", _BLUE_ROW)):
            a0, a1, a2, a3 = s0 + denom * (e - b0), s1 - denom * b1, s2 - denom * b2, s3 - denom * b3
            y = _row((a1 - a0, a0, a3 - a2, a2))
            # y in [0, 1) and on its branch: y <= s for e = 0, y > s for e = 1
            if (
                _side(y, _ZERO_ROW, denom) < 0
                or _side(y, _ONE_ROW, denom) >= 0
                or (_side(y, s, 1) > 0) != (e == 1)
            ):
                continue
            # the blue segment lies right of the vertical line
            if curve == "red" or _side(y, _VERTICAL_ROW, denom) > 0:
                yield curve, y


def circle_partition(s: FieldNumber) -> CirclePartition:
    """Partition of the circle with invariant s into labeled intervals.

    The range of s and every cut are decided on exactnum rows over the
    denominator D of s (_circle_cut_candidates), whose estimates
    exactnum._sorted_merged sorts and merges with no second _dyadic;
    the cuts become FieldNumbers only at the end.
    Cut candidates that coincide exactly (special circles run through
    multiple-curve intersection points) would bound zero-length
    intervals; they are merged and logged rather than kept, and so is a
    cut on the wrap point.  Each interval is labeled by the cell of its
    midpoint: the midpoint and s - midpoint mod 1 are integer vectors
    over 2*D, and _cell_label classifies them with their estimates.  No
    label raises OnBoundary: every point where the circle meets one of
    the four curves, and the seam where Z wraps, is a cut, and each
    midpoint lies strictly between two consecutive cuts or the wrap
    point.
    """
    s = _field(s)
    denom = common_denominator((s,))
    invariant = _row(s.scaled_coeffs(denom))
    if _side(invariant, _ZERO_ROW, denom) < 0 or _side(invariant, _ONE_ROW, denom) >= 0:
        raise ValueError(f"circle invariant {s} outside [0, 1)")
    candidates = list(_circle_cut_candidates(invariant, denom))
    cuts: list[FieldNumber] = []
    vectors: list[_Vector] = []
    # the sorts are stable, so each value lists its candidates in order
    for vector, tags in _sorted_merged((*row, i) for i, (_, row) in enumerate(candidates)):
        curves = [candidates[i][0] for i in tags]
        if not any(vector):
            for curve in curves:
                logger.info("circle s=%s: %s cut sits on the wrap point, dropped", s, curve)
            continue
        cuts.append(_reduced(vector, denom))
        vectors.append(vector)
        for curve in curves[1:]:
            logger.info(
                "circle s=%s: %s cut coincides with %s, zero-length interval dropped",
                s,
                curve,
                cuts[-1],
            )
    # midpoints (lo + hi) / 2 and s - mid mod 1 as integer vectors over 2*denom
    doubled = [2 * a for a in invariant[2]]
    bounds = [(0, 0, 0, 0)] + vectors + [(denom, 0, 0, 0)]
    labels = []
    for lo, hi in zip(bounds, bounds[1:]):
        mid = tuple(map(add, lo, hi))
        z = _mod1_row(tuple(map(sub, doubled, mid)), 2 * denom)
        labels.append(_cell_label(_row(mid), z, 2 * denom))
    partition = CirclePartition(s=s, cuts=tuple(cuts), labels=tuple(labels))
    if partition.k not in (3, 5, 6):
        raise ValueError(f"circle s={s} produced k={partition.k}, expected 3, 5 or 6")
    return partition


def reconstruct(m: StartPoint, n_letters: int) -> str:
    """Billiard word rebuilt from the circle coding instead of tracing.

    Joins the first n_letters // 2 + 2 predicted return words, the codes
    of one rotation orbit.  Independent of the crossing engine end to
    end, which is the point: the two pipelines must produce identical words.
    The starts predict_return_words rejects with HitsCut, such as those
    with z = 0 or 1 and 0 < y < 1, raise it here too.
    """
    if n_letters < 0:
        raise ValueError("n_letters must be nonnegative")
    return "".join(predict_return_words(m, n_letters // 2 + 2))[:n_letters]
