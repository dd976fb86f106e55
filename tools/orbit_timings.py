"""Per-op cost of the orbit path: predictions, codings, partitions, reconstruction and rank.

A timing script for ``tools/ab_record.py --part tools/orbit_timings.py``,
which loads two source trees' packages into one process and calls
``measure`` on each in turn.  The calls are those of one orbit_coding
op of perfbench, made on three starts y = 3/97 whose circles
s = y + z mod 1 are a zero, a golden and a quartic one (3, 5 and 6
arcs).  Every figure is the best of REPEATS CPU timings
(time.process_time) within one call, in microseconds per start unless
named otherwise:

  predictions_61_us      kth_return_prediction for k = 0, ..., 60
  coding_700_us          rotation_coding of 700 steps from y
  coding_4000_us         rotation_coding of 4000 steps from y
  circle_partition_us    circle_partition of the start's circle
  reconstruct_800_us     reconstruct(start, 800)
  zmodule_rank_us        zmodule_rank of the angle and the circle's cuts
  rotation_cli_ms        one default ``cubewords rotation`` request
                         through cli.main, its report discarded
"""

from __future__ import annotations

import contextlib
import importlib
import io
import time
from fractions import Fraction

REPEATS = 5


def best(call, repeats: int = REPEATS) -> float:
    times = []
    for _ in range(repeats):
        start = time.process_time()
        call()
        times.append(time.process_time() - start)
    return min(times)


def measure(cw) -> dict:
    phi, y = cw.PHI, Fraction(3, 97)
    circles = (cw.FieldNumber(0), 2 - phi, Fraction(4, 13) + cw.SQRT2 / 3)
    starts = [cw.StartPoint(0, y, cw.reduce_mod1(s - y)) for s in circles]
    angle = cw.TRANSLATION_ANGLE
    partitions = [cw.circle_partition(cw.reduce_mod1(start.y + start.z)) for start in starts]

    def per_start_us(body) -> float:
        """Best time of body(start, partition) over all starts, in microseconds per start."""
        pairs = list(zip(starts, partitions))
        return best(lambda: [body(start, part) for start, part in pairs]) / len(pairs) * 1e6

    cli = importlib.import_module(f"{cw.__name__}.cli")

    def rotation() -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["rotation"])

    return {
        "predictions_61_us": per_start_us(
            lambda start, _: [cw.kth_return_prediction(start, k) for k in range(61)]
        ),
        "coding_700_us": per_start_us(
            lambda start, part: cw.rotation_coding(start.y, part, angle, 700)
        ),
        "coding_4000_us": per_start_us(
            lambda start, part: cw.rotation_coding(start.y, part, angle, 4000)
        ),
        "circle_partition_us": per_start_us(lambda _, part: cw.circle_partition(part.s)),
        "reconstruct_800_us": per_start_us(lambda start, _: cw.reconstruct(start, 800)),
        "zmodule_rank_us": per_start_us(lambda _, part: cw.zmodule_rank((angle,) + part.cuts)),
        "rotation_cli_ms": best(rotation) * 1e3,
    }
