"""Per-start costs of the traced union: traces, validation, windows, reduce_mod1 and the union op.

A timing script for ``tools/ab_record.py --part tools/trace_timings.py``,
which loads two source trees' packages into one process and calls
``measure`` on each in turn.  Every figure is the best of REPEATS CPU
timings (time.process_time) within one call, in microseconds unless
its name ends in _ms.  The starts are the representative starts of the
first STARTS circles of sample_schedule(24, 5) that validate for 8000
letters:

  trace_letters_64_us      trace_letters at 64 letters, mean per start
  trace_letters_3000_us    the same at 3000 letters, the union_growth size
  trace_letters_8000_us    the same at 8000 letters, two chunks
  trace_times_64_us        trace with exact times at 64 letters, the
                           default of the trace subcommand
  validate_us              validate at horizon 3000
  valid_letters_1_us       billiard._valid_letters at 1 letter: the fixed
                           cost of a union start's check and trace
  validate_fresh_us        validate at horizon 3000 on a new StartPoint of
                           each start's coordinates, built in the timed
                           call as a union start is: the keys above reuse
                           their starts, so what a start keeps once built
                           reads free in them
  valid_letters_fresh_1_us _valid_letters at 1 letter on such new starts
  windows_16_us            words._windows of each start's 3000-letter
                           word at width 16, the union width, mean per word
  windows_40_us            the same at width 40, the complexity and
                           rotation subcommands' default
  reduce_mod1_us           reduce_mod1 of s - k/23 for each invariant s of
                           the schedule and k = 1, 11, mean per value
  union_op_ms              one union_growth-shaped op: union_complexity
                           over the first half of sample_schedule(24, 5),
                           then over all of it, at n_max 16 and prefix 3000
"""

from __future__ import annotations

import time
from fractions import Fraction

STARTS = 8
REPEATS = 5


def best(call, repeats: int = REPEATS) -> float:
    times = []
    for _ in range(repeats):
        start = time.process_time()
        call()
        times.append(time.process_time() - start)
    return min(times)


def measure(cw) -> dict:
    schedule = cw.sample_schedule(24, 5)
    starts = [cw.directional.representative_start(s) for s in schedule]
    starts = [start for start in starts if cw.validate(start, horizon=8000).ok][:STARTS]

    def traces(length: int):
        return lambda: [cw.trace_letters(start, length=length) for start in starts]

    words = [cw.trace_letters(start, length=3000) for start in starts]
    values = [s - Fraction(k, 23) for s in schedule for k in (1, 11)]

    def fresh(call):
        coords = [start.coords for start in starts]
        return lambda: [call(cw.StartPoint(*point)) for point in coords]

    def windows(width: int):
        return lambda: [cw.words._windows(word, width) for word in words]

    def union_op() -> None:
        cw.union_complexity(schedule[: len(schedule) // 2], 16, 3000)
        cw.union_complexity(schedule, 16, 3000)

    per_start = 1e6 / len(starts)
    return {
        "trace_letters_64_us": best(traces(64)) * per_start,
        "trace_letters_3000_us": best(traces(3000)) * per_start,
        "trace_letters_8000_us": best(traces(8000)) * per_start,
        "trace_times_64_us": best(
            lambda: [cw.trace(start, length=64) for start in starts]
        ) * per_start,
        "validate_us": best(
            lambda: [cw.validate(start, horizon=3000) for start in starts]
        ) * per_start,
        "valid_letters_1_us": best(
            lambda: [cw.billiard._valid_letters(start, 1) for start in starts]
        ) * per_start,
        "validate_fresh_us": best(fresh(lambda start: cw.validate(start, horizon=3000)))
        * per_start,
        "valid_letters_fresh_1_us": best(fresh(lambda start: cw.billiard._valid_letters(start, 1)))
        * per_start,
        "windows_16_us": best(windows(16)) * per_start,
        "windows_40_us": best(windows(40)) * per_start,
        "reduce_mod1_us": best(lambda: [cw.reduce_mod1(value) for value in values])
        * 1e6 / len(values),
        "union_op_ms": best(union_op) * 1e3,
    }
