"""cubewords benchmark: one command, four seeded workloads.

Run from the repository root:

    python3 perfbench/run.py --workload long_words --seed 1 --seconds 15 --trace 0

The command imports cubewords from ``src/`` (no install step), builds the
workload's inputs from --seed, then repeats whole rounds of the workload
until --seconds have passed (and at least 11 ops are done, the fewest
that give a tail latency).  One client, one process, no extra threads
(only the set-up samples run as child processes, one at a time, while
this one waits); the garbage collector stays on because users pay for
it.  Every op
output is checked after the timed rounds by an independent route (see
workloads.py); an op that raises or fails its check counts in
``failed``, and ``failed / attempted`` prints as the fail ratio.

Times are CPU seconds of this process (see measure.py for why).

Untraced (--trace 0) end-to-end metrics, bounded in BENCHMARK.json:
  setup_s      the cold import of the program plus input generation, as
               a new process pays for it: the median of SETUP_REPEATS
               fresh processes (setup_once.py), started at even times
               during the run so that no one spell of host speed sets
               it; the run is lengthened by the time they take
  op_tail_ms   op latency at the highest percentile that has at least ten
               samples beyond it; the percentile and count print beside it
  peak_rss_mb  peak resident memory of the process after the timed rounds
and printed only (see UNBOUNDED for why):
  wall_s       mean time of one round of the workload's ops
  ops_per_s    ops completed per second of round time
  op_p50_ms    median op latency
  fail_ratio   failed ops over attempted ops

Traced (--trace 1) runs each round twice, once untraced and once with
spans around every call the benchmark makes into a cubewords module
(alternating which goes first), then the workload's probes.  It prints
the per_layer metrics of BENCHMARK.json and writes every span to
perfbench/out/.  How a metric is computed is read from its name (see
layer_kind).  busy_s, calls and counts are per round; rates are work
units over busy seconds; busy is self time (span duration minus the part
child spans cover).  A layer a workload does not exercise reads 0.
trace_overhead_s is the mean traced round time minus the mean untraced
one (wall_s traced minus wall_s untraced).

The last line of standard output is the JSON result; its metrics are
the ones BENCHMARK.json lists for the mode.  Lines before it give the
environment (Python version, nproc, CPU model, git commit), each metric
with its unit, the fail ratio, any failure reasons, and one line
``# all metrics {...}`` that holds the printed-only metrics as well
(record.py reads it).
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import random
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import mean, median

from measure import CLOCK, NullTracer, Tracer, layer_totals, tail
from workloads import WORKLOADS, OpFailed

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_REPEATS = 15
MIN_OPS = 11

# Printed, not bounded: means and medians move with the share of a run
# that falls in the host's fast spells (see measure.py).  Over 10 seeds of
# one workload their quartile spread reached 37% of the median, while the
# tail, which stays in the slow mode, kept within 18%.
UNBOUNDED = {"wall_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "fail_ratio": "ratio"}
# Per-layer metrics whose kind their last name part does not give.
DERIVED = {"directional.self_s": "union_self", "trace_overhead_s": "overhead"}


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def layer_kind(metric: str) -> str:
    """How a per-layer metric is computed, read from its name.

    The span a metric reads is the name without its last part.  ``*per_s``
    is work units over busy seconds, ``busy_s`` busy seconds per round,
    ``calls`` calls per round, ``p50_ms`` the median span duration; any
    other name is a count that the workload's probe returns.
    """
    if metric in DERIVED:
        return DERIVED[metric]
    last = metric.rsplit(".", 1)[-1]
    if last.endswith("per_s"):
        return "rate"
    return {"busy_s": "busy", "calls": "calls", "p50_ms": "p50"}.get(last, "count")


def set_up(workload, seed: int):
    """Import the program and make the inputs; returns (program, input pool)."""
    if str(SOURCE) not in sys.path:
        sys.path.insert(0, str(SOURCE))
    for name in workload.modules:
        importlib.import_module(name)
    cw = sys.modules["cubewords"]
    return cw, workload.make_inputs(cw, random.Random(f"{workload.name}:{seed}"))


def cold_set_up(workload, seed: int) -> float:
    """CPU seconds a fresh process spends on set_up's work (setup_once.py)."""
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_once.py"), workload.name, str(seed), *workload.modules],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout)


def run_round(workload, cw, inputs, tracer, first_op: int, latencies: list | None = None):
    """Run one round's ops in order; returns (outputs, round seconds)."""
    outputs = []
    begin = CLOCK()
    for i, inp in enumerate(inputs):
        clock = CLOCK()
        try:
            with tracer.span(f"op.{workload.name}", op=first_op + i):
                out = workload.op(cw, inp, tracer)
        except Exception as exc:  # a crash is a failed op, not a crashed run
            out = OpFailed(f"{type(exc).__name__}: {exc}")
        if latencies is not None:
            latencies.append(CLOCK() - clock)
        outputs.append(out)
    return outputs, CLOCK() - begin


def measure(workload, cw, pool, seconds: float, traced: bool, time_set_up=None) -> dict:
    """Time whole rounds for ``seconds``, then gate every op output.

    ``time_set_up`` (returning set-up seconds) is called SETUP_REPEATS
    times, between rounds at even intervals, so that the set-up samples
    span the run instead of one spell of host speed.  The wall-clock time
    it takes is added to the run, so it does not shorten the rounds.
    """
    untraced = NullTracer()
    tracer = Tracer() if traced else None
    latencies: list[float] = []
    walls: list[float] = []
    traced_walls: list[float] = []
    counts: dict[str, int] = {}
    first: dict[int, list] = {}
    executed: list[tuple[int, list[bool]]] = []
    started, cpu_started = time.perf_counter(), CLOCK()
    setup_times: list[float] = []
    setup_at = [seconds * i / SETUP_REPEATS for i in range(SETUP_REPEATS)] if time_set_up else []
    spent = 0.0  # wall-clock seconds of set-up samples, not counted as run time

    def elapsed() -> float:
        return time.perf_counter() - started - spent

    next_op = 0
    while not executed or elapsed() < seconds or len(latencies) < MIN_OPS:
        index = len(executed) % len(pool)
        inputs = pool[index]
        # The traced run times each round both ways, alternating which goes
        # first so that warm-up after the first pass biases neither side.
        traced_first = tracer is not None and len(executed) % 2 == 1
        if traced_first:
            again, traced_wall = run_round(workload, cw, inputs, tracer, next_op)
        outputs, wall = run_round(workload, cw, inputs, untraced, next_op, latencies)
        walls.append(wall)
        same = [True] * len(outputs)
        if tracer is not None:
            if not traced_first:
                again, traced_wall = run_round(workload, cw, inputs, tracer, next_op)
            traced_walls.append(traced_wall)
            same = [a == b for a, b in zip(outputs, again)]
            for i, (inp, out) in enumerate(zip(inputs, outputs)):
                if isinstance(out, OpFailed):
                    continue
                with tracer.span(f"probe.{workload.name}", op=next_op + i):
                    found = workload.probe(cw, inp, out, tracer)
                for name, value in found.items():
                    counts[name] = counts.get(name, 0) + value
        if index in first:
            same = [ok and a == b for ok, a, b in zip(same, outputs, first[index])]
        else:
            first[index] = outputs
        executed.append((index, same))
        next_op += len(inputs)
        if setup_at and elapsed() >= setup_at[0]:
            setup_at.pop(0)
            clock = time.perf_counter()
            setup_times.append(time_set_up())
            spent += time.perf_counter() - clock
    while setup_at:
        setup_at.pop()
        setup_times.append(time_set_up())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    clock_note = (
        f"the measurement used {CLOCK() - cpu_started:.2f} s of CPU "
        f"in {time.perf_counter() - started:.2f} s of wall-clock"
    )

    verdicts = {}
    for index, outputs in first.items():
        try:
            verdicts[index] = workload.check_round(cw, pool[index], outputs)
        except Exception as exc:  # a gate that cannot run fails its round
            verdicts[index] = [f"check raised {type(exc).__name__}: {exc}"] * len(outputs)
    failures = []
    for index, same in executed:
        for verdict, ok in zip(verdicts[index], same):
            if verdict is None and not ok:
                verdict = "output differs between runs of the same input"
            if verdict is not None:
                failures.append(verdict)
    return {
        "latencies": latencies,
        "walls": walls,
        "traced_walls": traced_walls,
        "spans": tracer.spans if tracer is not None else [],
        "counts": counts,
        "attempted": sum(len(same) for _, same in executed),
        "failures": failures,
        "peak_rss_mb": peak_rss_mb,
        "setup_times": setup_times,
        "clock_note": clock_note,
    }


def end_to_end(log: dict) -> tuple[dict, str]:
    """Every untraced metric, and a note on the tail."""
    latencies = log["latencies"]
    value, percentile = tail(latencies)
    note = f"op_tail_ms is p{percentile:.1f} of {len(latencies)} op latencies"
    return {
        "setup_s": median(log["setup_times"]),
        "op_tail_ms": 1000 * value,
        "peak_rss_mb": log["peak_rss_mb"],
        "wall_s": mean(log["walls"]),
        "ops_per_s": len(latencies) / sum(log["walls"]),
        "op_p50_ms": 1000 * median(latencies),
        "fail_ratio": len(log["failures"]) / log["attempted"],
    }, note


def per_layer(log: dict, metrics: list[str]) -> dict:
    totals = layer_totals(log["spans"])
    rounds = len(log["traced_walls"])
    durations: dict[str, list[float]] = {}
    for span in log["spans"]:
        durations.setdefault(span.name, []).append(span.end - span.start)

    def busy(name: str) -> float:
        return totals[name].busy / rounds if name in totals else 0.0

    values = {}
    for metric in metrics:
        kind = layer_kind(metric)
        name = metric.rsplit(".", 1)[0]
        if kind == "rate":
            t = totals.get(name)
            values[metric] = t.work / t.busy if t and t.busy > 0 else 0.0
        elif kind == "busy":
            values[metric] = busy(name)
        elif kind == "calls":
            values[metric] = totals[name].calls / rounds if name in totals else 0.0
        elif kind == "count":
            values[metric] = log["counts"].get(metric, 0) / rounds
        elif kind == "p50":
            values[metric] = 1000 * median(durations[name]) if name in durations else 0.0
        elif kind == "union_self":
            # Derived: within union_growth the validate and trace_letters
            # spans are the probe's replay on the starts the union used.
            union = "directional.union_complexity"
            values[metric] = (
                busy(union) - busy("billiard.validate") - busy("billiard.trace_letters")
                if union in totals
                else 0.0
            )
        else:
            values[metric] = mean(log["traced_walls"]) - mean(log["walls"])
    return values


def git_commit() -> str:
    """The checked-out commit read from .git, or "unknown" outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": git_commit(),
    }


def write_spans(workload: str, seed: int, env: dict, log: dict, metrics: dict) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload}-seed{seed}.json"
    payload = {
        "workload": workload,
        "seed": seed,
        "environment": env,
        "fields": ["id", "parent", "name", "start", "end", "work", "op"],
        "spans": [list(span) for span in log["spans"]],
        "metrics": metrics,
    }
    path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SOURCE / "cubewords" / "__init__.py").is_file():
        print(f"error: no cubewords source under {SOURCE}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]()
    cw, pool = set_up(workload, args.seed)
    # set-up is an end-to-end metric, so only the untraced run samples it
    time_set_up = None if args.trace else (lambda: cold_set_up(workload, args.seed))
    log = measure(workload, cw, pool, args.seconds, bool(args.trace), time_set_up)
    env = environment()
    print("# environment " + json.dumps(env))
    print("# " + log["clock_note"])
    listed = {m["name"]: m["unit"] for m in spec()["per_layer" if args.trace else "end_to_end"]}
    if args.trace:
        values = per_layer(log, list(listed))
        path = write_spans(args.workload, args.seed, env, log, values)
        print(f"# {len(log['spans'])} spans written to {path.relative_to(ROOT)}")
    else:
        values, note = end_to_end(log)
        print(f"# {note}")
    units = {**UNBOUNDED, **listed}
    for name, value in values.items():
        bounded = "" if name in listed else "\tprinted only, not in BENCHMARK.json"
        print(f"{name}\t{value!r}\t{units[name]}{bounded}")
    print("# all metrics " + json.dumps(
        {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    ))
    attempted, failed = log["attempted"], len(log["failures"])
    print(f"# {failed} of {attempted} ops failed")
    for reason in sorted(set(log["failures"]))[:10]:
        print(f"# failed: {reason}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in listed.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
