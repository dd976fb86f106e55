"""Every library name the benchmark workloads call must resolve.

perfbench/workloads.py reaches the library through a module handle
``cw`` (``cw.sign``, ``cw.directional.representative_start``, ...).  A
rename or deletion in the package would otherwise surface only when the
benchmark runs; this test reads the workload source and fails first.
"""

import re
from pathlib import Path

import cubewords
import cubewords.cli  # noqa: F401  (cw.cli.* is referenced as a submodule)

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def referenced_names() -> set[str]:
    source = WORKLOADS.read_text(encoding="utf-8")
    return set(re.findall(r"\bcw((?:\.[A-Za-z_]\w*)+)", source))


def test_workload_names_resolve():
    names = referenced_names()
    # a pattern that matched nothing would pass vacuously
    assert {".sign", ".trace_letters", ".union_complexity", ".cli.run"} <= names
    missing = []
    for dotted in sorted(names):
        target = cubewords
        for part in dotted.split(".")[1:]:
            if not hasattr(target, part):
                missing.append("cw" + dotted)
                break
            target = getattr(target, part)
    assert missing == []
