"""CPU times of the factor-count layers and of the wide complexity requests.

Run from a checkout with its library on the path; prints one JSON
object of microseconds (best of 60 calls) and milliseconds (one call):

    PYTHONPATH=src python3 tools/factor_count_timings.py
    python3 tools/ab_record.py --parent P --change C --out BENCH_N.json \\
        --part tools/factor_count_timings.py

The words are the traced 8000-letter words of three starts: the zero,
golden and quartic reference starts.  ``_common_prefixes`` reads the
sorted width-107 windows that ``cassaigne_check(word, 52)`` reads.
"""

import contextlib
import io
import json
import time
from fractions import Fraction

from cubewords import returns, words
from cubewords.billiard import StartPoint, trace_letters
from cubewords.cli import main
from cubewords.exactnum import PHI, SQRT2

STARTS = {
    "zero": StartPoint(0, Fraction(1, 2), Fraction(1, 2)),
    "golden": StartPoint(0, 0, 2 - PHI),
    "quartic": StartPoint(0, 0, SQRT2 - 1),
}
WIDE = (
    ["complexity", "--letters", "4000", "--n-max", "2000"],
    ["complexity", "--letters", "100000", "--n-max", "200"],
)


def best_us(call, repeats: int = 60) -> float:
    times = []
    for _ in range(repeats):
        start = time.process_time()
        call()
        times.append(time.process_time() - start)
    return min(times) * 1e6


row = {}
for name, start in STARTS.items():
    word = trace_letters(start, length=8000)
    table = sorted(words._windows(word, 107))
    row[f"common_prefixes_107_{name}_us"] = best_us(lambda: words._common_prefixes(table))
    for width in (16, 52, 100, 103):
        row[f"windows_{width}_{name}_us"] = best_us(lambda: words._windows(word, width))
    row[f"return_words_{name}_us"] = best_us(lambda: returns.return_words(word))
for argv in WIDE:
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.process_time()
        main(argv)
        row[" ".join(argv) + " ms"] = (time.process_time() - start) * 1e3
print(json.dumps(row))
