"""Per-circle cost of the census: cut solve, circle sweep and schedule.

A timing script for ``tools/ab_record.py --part tools/circle_timings.py``,
which loads two source trees' packages into one process and calls
``measure`` on each in turn.  Every figure is the best of REPEATS CPU
timings (time.process_time) within one call, in microseconds:

  circle_partition_us    circle_partition, mean over the CIRCLES
                         circles of sample_schedule(CIRCLES, 0)
  language_n20_us        _partition_language at n = 20, mean over the
                         same circles' partitions
  language_n40_us        the same at n = 40
  sample_schedule_8_us   one sample_schedule(8, 0) call, the default
                         size of the directional subcommand
  directional_ms         one default ``cubewords directional`` request
                         through cli.main, its report discarded
"""

from __future__ import annotations

import contextlib
import importlib
import io
import time

CIRCLES = 64
REPEATS = 5


def best(call, repeats: int = REPEATS) -> float:
    times = []
    for _ in range(repeats):
        start = time.process_time()
        call()
        times.append(time.process_time() - start)
    return min(times)


def measure(cw) -> dict:
    circles = cw.directional.sample_schedule(CIRCLES, 0)
    partitions = [cw.returns.circle_partition(s) for s in circles]

    def partition_all() -> None:
        for s in circles:
            cw.returns.circle_partition(s)

    def languages(n: int):
        return lambda: [cw.directional._partition_language(p, n) for p in partitions]

    cli = importlib.import_module(f"{cw.__name__}.cli")

    def directional() -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["directional"])

    return {
        "circle_partition_us": best(partition_all) / CIRCLES * 1e6,
        "language_n20_us": best(languages(20)) / CIRCLES * 1e6,
        "language_n40_us": best(languages(40)) / CIRCLES * 1e6,
        "sample_schedule_8_us": best(lambda: cw.directional.sample_schedule(8, 0), 25) * 1e6,
        "directional_ms": best(directional) * 1e3,
    }
