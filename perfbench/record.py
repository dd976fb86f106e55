"""Run the benchmark over many seeds, report the spread, record a row.

Run from the repository root:

    python3 perfbench/record.py --seeds 1-10
    python3 perfbench/record.py --seeds 1-10 --trace-seeds 1-2 --append baseline

Each run is a separate ``perfbench/run.py`` process, one at a time.  For
every end-to-end metric of every workload this prints the median, the
quartiles and their distance as a share of the median (the spread),
next to the metric's bound from BENCHMARK.json.  Spreads above a third
of the bound are flagged.  With --append the medians, quartiles and the
environment are added as one row to perfbench/trajectory.jsonl, which
later performance changes compare against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRAJECTORY = HERE / "trajectory.jsonl"


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, float]:
    """(result, environment, process seconds) of one benchmark run.

    The result's metrics are all that run.py prints on its
    ``# all metrics`` line, the printed-only ones included.
    """
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    clock = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.perf_counter() - clock
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    found = {
        key: json.loads(line[len(key):])
        for line in lines
        for key in ("# environment ", "# all metrics ")
        if line.startswith(key)
    }
    result = json.loads(lines[-1])
    result["metrics"] = found["# all metrics "]
    return result, found["# environment "], elapsed


def summarise(results: list[dict]) -> dict:
    names = results[0]["metrics"]
    summary = {}
    for name in names:
        values = [r["metrics"][name]["value"] for r in results]
        q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        summary[name] = {
            "values": values,
            "median": statistics.median(values),
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else 0.0,
            "unit": results[0]["metrics"][name]["unit"],
        }
    return summary


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="untraced seeds, e.g. 1-10")
    parser.add_argument("--trace-seeds", default="", help="traced seeds, e.g. 1-2")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--append", metavar="LABEL", help="add a row to trajectory.jsonl")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    row = {"label": args.append, "seconds": args.seconds, "seeds": args.seeds,
           "trace_seeds": args.trace_seeds, "untraced": {}, "traced": {}}
    for workload in args.workloads.split(","):
        for trace, seeds, key in ((0, args.seeds, "untraced"), (1, args.trace_seeds, "traced")):
            if not seeds:
                continue
            results, elapsed = [], []
            for seed in seed_range(seeds):
                result, row["environment"], took = run_once(workload, seed, args.seconds, trace)
                if not result["correct"]:
                    print(f"{workload} seed {seed}: {result['failed']} of "
                          f"{result['attempted']} ops failed", file=sys.stderr)
                results.append(result)
                elapsed.append(took)
            summary = summarise(results)
            row[key][workload] = {
                "metrics": summary,
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
            }
            print(f"{workload} ({key}, seeds {seeds}): process seconds "
                  f"max {max(elapsed):.1f}, total {sum(elapsed):.0f}; "
                  f"failed {row[key][workload]['failed']} of {row[key][workload]['attempted']}")
            for name, s in summary.items():
                bound = bounds.get(name) if trace == 0 else None
                flag = "  <-- above bound/3" if bound and s["spread"] > bound / 3 else ""
                print(f"  {name:40s} {s['median']:14.6g} {s['unit']:10s} "
                      f"spread {s['spread']:.4f}" + (f" bound {bound}" if bound else "") + flag)
                print("      runs: " + " ".join(f"{v:.4g}" for v in s["values"]))
    if args.append:
        with TRAJECTORY.open("a", encoding="utf-8") as out:
            out.write(json.dumps(row) + "\n")
        print(f"row {args.append!r} appended to {TRAJECTORY.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
