"""Before/after record of two source trees: benchmark pairs, a traced pair, reports, Tier-1.

Run from the repository root, stdlib only:

    python3 tools/ab_record.py --parent P --change C --out BENCH_N.json --part pairs

P and C are two complete checkouts, for example ``git archive`` of the
parent commit and of the change, unpacked side by side.  Each --part
fills one section of the output file and keeps the others, so the
parts can run one at a time; a traced or FILE.py part run again on the
same file adds a run to its section and keeps the earlier ones, since
the host's speed can shift between runs and only repeated runs show
it.  Benchmark runs go through each tree's own
``perfbench/record.py`` (``run_once``, ``summarise``) at the run length
``run_seconds`` of BENCHMARK.json, one process at a time, with every
``__pycache__`` of the tree removed before each run:

  pairs    every workload of BENCHMARK.json on every seed of --seeds,
           untraced, the parent first on odd seeds and the change first
           on even ones; every run's metrics, and per end-to-end metric
           both trees' medians and quartiles and the pairs won
  traced   one traced run per tree of every workload of BENCHMARK.json
           on the first seed: the metrics it prints and, from its span
           file, the calls and mean self time (``perfbench/measure.py``)
           of every span name; each run is appended to ``runs``
  cli      SHA-256 of standard output and standard error and the exit
           status of every request in REQUESTS, in both formats, from
           one ``cli.main`` process per tree
  tier1    ``python -m pytest -q --continue-on-collection-errors`` in
           each tree with ``PYTHONPATH=src``
  FILE.py  a timing script that defines ``measure(cw) -> dict`` of
           numbers.  One child process loads both trees'
           ``src/cubewords`` under two package names and calls
           ``measure`` with each package for ROUNDS rounds, the trees
           alternating, so that both see the same spells of the host.
           Each run is appended to the ``runs`` of the script's entry
           under ``timings``, keyed by the script's file stem: per key,
           every round's value, the median and quartiles per tree, and
           the number of rounds in which the change read lower than the
           parent

All times are CPU seconds of the measuring process, as in perfbench.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ROUNDS = 7

# Every subcommand at its defaults, the wide complexity requests, the
# --r 1/3 family, a trace whose decimals need finer estimates and a
# circle solved over a large denominator, and invalid requests that must
# exit 1 with a reason.
REQUESTS = [
    ["trace"],
    ["complexity"],
    ["complexity", "--letters", "4000", "--n-max", "2000"],
    ["complexity", "--letters", "100000", "--n-max", "200"],
    ["complexity", "--m", "0,0,sqrt2-1", "--letters", "8000", "--n-max", "60"],
    ["returns"],
    ["returns", "--letters", "3000"],
    ["rotation"],
    ["rotation", "--m", "0,1/5,9/5-1*phi", "--letters", "2000"],
    ["directional"],
    ["directional", "--seed", "3", "--samples", "12"],
    ["verify", "--suite", "1"],
    ["verify", "--suite", "8"],
    ["verify", "--suite", "2,3,9"],
    ["trace", "--r", "1/3"],
    ["complexity", "--r", "1/3"],
    ["returns", "--r", "1/3"],
    ["rotation", "--r", "1/3"],
    ["trace", "--m", "0,123456789/987654321,1/3", "--letters", "16"],
    ["rotation", "--m", "0,1/5,12345/98765*sqrt2-1/9", "--letters", "400", "--n-max", "20"],
    ["complexity", "--letters", "50", "--n-max", "40"],
    ["returns", "--letters", "2"],
    ["trace", "--r", "0"],
    ["trace", "--m", "0,2,1/3"],
]

CLI_CHILD = r"""
import contextlib, hashlib, io, json, sys
from cubewords.cli import main
rows = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = main(argv)
        except SystemExit as stop:
            status = stop.code
    rows.append({
        "argv": argv,
        "status": status,
        "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        "stdout_bytes": len(out.getvalue().encode()),
        "stderr_sha256": hashlib.sha256(err.getvalue().encode()).hexdigest(),
    })
print(json.dumps(rows))
"""

# Every import inside the package is relative, so a tree's package loads
# under any name; the script sees each as the module it is handed.
SCRIPT_CHILD = r"""
import importlib.util, json, sys
from pathlib import Path

def load(name, path, search=None):
    spec = importlib.util.spec_from_file_location(name, path, submodule_search_locations=search)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module

script, rounds, trees = sys.argv[1], int(sys.argv[2]), json.loads(sys.argv[3])
packages = {
    side: load(f"cubewords_{side}", Path(tree, "src", "cubewords", "__init__.py"),
               [str(Path(tree, "src", "cubewords"))])
    for side, tree in trees.items()
}
measure = load("timing_script", script).measure
rows = {side: [] for side in packages}
for index in range(rounds):
    sides = list(packages) if index % 2 else list(packages)[::-1]
    for side in sides:
        rows[side].append(measure(packages[side]))
print(json.dumps(rows))
"""


def perfbench_module(tree: Path, name: str):
    """The tree's own perfbench/<name>.py, loaded so that its paths point into the tree."""
    spec = importlib.util.spec_from_file_location(
        f"{name}_of_{tree.name}", tree / "perfbench" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def clear_bytecode(tree: Path) -> None:
    for cache in list(tree.rglob("__pycache__")):
        shutil.rmtree(cache, ignore_errors=True)


def run_child(tree: Path, argv: list[str], pythonpath: str) -> object:
    env = dict(os.environ, PYTHONPATH=pythonpath)
    done = subprocess.run(
        [sys.executable, *argv], cwd=tree, env=env, capture_output=True, text=True, check=True
    )
    return json.loads(done.stdout.splitlines()[-1])


def ordered(trees: dict[str, Path], index: int) -> list[tuple[str, Path]]:
    sides = list(trees.items())
    return sides if index % 2 else sides[::-1]


def part_pairs(trees: dict[str, Path], seeds: list[int], spec: dict) -> dict:
    seconds = spec["run_seconds"]
    record = {side: perfbench_module(tree, "record") for side, tree in trees.items()}
    raw: dict = {w["name"]: {side: [] for side in trees} for w in spec["workloads"]}
    for seed in seeds:
        for workload, sides in raw.items():
            for side, tree in ordered(trees, seed):
                clear_bytecode(tree)
                result, environment, _ = record[side].run_once(workload, seed, seconds, 0)
                sides[side].append(result)
                print(side, seed, workload, result["failed"],
                      {m["name"]: result["metrics"][m["name"]]["value"] for m in spec["end_to_end"]},
                      file=sys.stderr, flush=True)
    workloads = {}
    for workload, sides in raw.items():
        summary = {side: record[side].summarise(results) for side, results in sides.items()}
        entry: dict = {}
        for metric in (m["name"] for m in spec["end_to_end"]):
            parent, change = summary["parent"][metric], summary["change"][metric]
            entry[metric] = {
                side: {key: summary[side][metric][key] for key in ("median", "q1", "q3", "values")}
                for side in trees
            }
            entry[metric]["pairs_won"] = sum(c < p for p, c in zip(parent["values"], change["values"]))
            entry[metric]["median_change_pct"] = 100 * (change["median"] / parent["median"] - 1)
        for key in ("attempted", "failed"):
            entry[key] = {side: sum(r[key] for r in results) for side, results in sides.items()}
        workloads[workload] = entry
    return {
        "command": f"python3 perfbench/run.py --workload W --seed N --seconds {seconds} --trace 0",
        "seeds": seeds,
        "order": "for each seed, every workload in turn; parent first on odd seeds",
        "environment": environment,
        "workloads": workloads,
    }


def part_traced(trees: dict[str, Path], seed: int, spec: dict) -> dict:
    result: dict = {"seed": seed, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        sides = result["workloads"][workload] = {}
        for side, tree in ordered(trees, seed):
            clear_bytecode(tree)
            run, _, _ = perfbench_module(tree, "record").run_once(
                workload, seed, spec["run_seconds"], 1
            )
            measure = perfbench_module(tree, "measure")
            payload = json.loads(
                (tree / "perfbench" / "out" / f"spans-{workload}-seed{seed}.json").read_text()
            )
            totals = measure.layer_totals([measure.Span(*span) for span in payload["spans"]])
            sides[side] = {
                "metrics": {name: metric["value"] for name, metric in run["metrics"].items()},
                "self_us_per_call": {
                    name: {"calls": total.calls, "mean": total.busy / total.calls * 1e6}
                    for name, total in sorted(totals.items())
                },
            }
            print(side, seed, workload, "traced", file=sys.stderr, flush=True)
    return result


def part_cli(trees: dict[str, Path]) -> dict:
    argvs = [argv + ["--format", fmt] for argv in REQUESTS for fmt in ("tsv", "json")]
    reports = {
        side: run_child(tree, ["-c", CLI_CHILD, json.dumps(argvs)], str(tree / "src"))
        for side, tree in trees.items()
    }
    identical = [p == c for p, c in zip(reports["parent"], reports["change"])]
    return {
        "requests": len(argvs),
        "identical": sum(identical),
        "differing": [r["argv"] for r, same in zip(reports["change"], identical) if not same],
        "reports": reports["change"],
    }


def part_tier1(trees: dict[str, Path]) -> dict:
    result = {"command": "PYTHONPATH=src python -m pytest -q --continue-on-collection-errors"}
    for side, tree in trees.items():
        clear_bytecode(tree)
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
             "-p", "no:cacheprovider"],
            cwd=tree, env=dict(os.environ, PYTHONPATH=str(tree / "src")),
            capture_output=True, text=True,
        )
        tail = [line for line in done.stdout.splitlines() if re.search(r"\d+ (passed|failed)", line)]
        result[side] = tail[-1].strip("= ") if tail else f"exit {done.returncode}"
    return result


def part_script(trees: dict[str, Path], script: Path) -> dict:
    """One run of the timing script: per key, every round and its summary per tree."""
    paths = json.dumps({side: str(tree) for side, tree in trees.items()})
    rows = run_child(ROOT, ["-c", SCRIPT_CHILD, str(script), str(ROUNDS), paths], "")
    run = {}
    for key in rows["parent"][0]:
        values = {side: [row[key] for row in side_rows] for side, side_rows in rows.items()}
        entry: dict = {}
        for side, series in values.items():
            q1, median, q3 = statistics.quantiles(series, n=4)
            entry[side] = {"median": median, "q1": q1, "q3": q3, "values": series}
        entry["change_lower"] = sum(c < p for p, c in zip(values["parent"], values["change"]))
        run[key] = entry
    return run


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--part", required=True, help="pairs, traced, cli, tier1 or a FILE.py")
    parser.add_argument("--seeds", default="1-10", help='inclusive range "a-b"')
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    low, _, high = args.seeds.partition("-")
    seeds = list(range(int(low), int(high or low) + 1))
    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    if args.part == "pairs":
        record["pairs"] = part_pairs(trees, seeds, spec)
    elif args.part == "traced":
        record.setdefault("traced", {"runs": []})["runs"].append(part_traced(trees, seeds[0], spec))
    elif args.part == "cli":
        record["cli"] = part_cli(trees)
    elif args.part == "tier1":
        record["tier1"] = part_tier1(trees)
    elif args.part.endswith(".py"):
        script = Path(args.part).resolve()
        name = script.relative_to(ROOT).as_posix() if script.is_relative_to(ROOT) else script.name
        how = f"{ROUNDS} rounds per run in one process holding both trees, trees alternating"
        entry = record.setdefault("timings", {}).setdefault(
            script.stem, {"script": name, "how": how, "runs": []}
        )
        entry["runs"].append(part_script(trees, script))
    else:
        parser.error(f"unknown part {args.part!r}")
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
