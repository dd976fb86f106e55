"""Command-line front end over the tracing and coding pipelines.

Six subcommands expose the library end to end: ``trace`` emits a word
with its crossing times, ``complexity`` a factor-count profile with the
fitted law and the second-difference check, ``returns`` the observed
versus predicted return-word sequence, ``rotation`` a circle partition
with its coded orbit and the rank-versus-slope comparison,
``directional`` a sampled census with the union table, and ``verify``
the acceptance suite.

Exact values cross the boundary as grammar strings, each next to a
20-digit decimal column that is advisory only and never parsed back.
TSV and JSON reports carry the same numeric content; reports are
byte-stable for a fixed configuration and seed.  Exit status: 0 on
success, 1 on invalid input with the reason on standard error, 2 when
the acceptance suite reports a failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from .billiard import Direction, StartPoint, trace, trace_letters
from .directional import census, sample_schedule
from .exactnum import FieldNumber, parse_field_number, reduce_mod1
from .returns import (
    HitsCut,
    InsufficientOccurrences,
    OnBoundary,
    circle_partition,
    predict_return_word,
    return_words,
    translation_step,
)
from .rotation import (
    coding_complexity,
    fit_complexity_tail,
    rotation_coding,
    zmodule_rank,
)
from .verification import run_all
from .words import cassaigne_check, complexity

DECIMAL_PLACES = 20
OUTDIR_VARIABLE = "CUBEWORDS_OUTDIR"


class InputError(ValueError):
    """Invalid configuration or start data; maps to exit status 1."""


@dataclass(frozen=True)
class RunConfig:
    """One CLI invocation, fully parsed but not yet validated."""

    command: str
    start: tuple[str, str, str] = ("0", "1/2", "1/2")
    r: str = "1/2"
    n_letters: int = 64
    n_max: int = 24
    samples: int = 8
    format: str = "tsv"
    output: Optional[str] = None
    seed: int = 0
    suite: str = "all"


def _positive(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError("count must be positive")
    return value


def parse_args(argv: Optional[Sequence[str]] = None) -> RunConfig:
    parser = argparse.ArgumentParser(
        prog="cubewords",
        description="exact symbolic dynamics of cube billiard words",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, *, point: bool) -> None:
        if point:
            p.add_argument(
                "--m",
                default="0,1/2,1/2",
                metavar="X,Y,Z",
                help="start point, three exact coordinates (grammar: 1/2, 2-1*phi, ...)",
            )
            p.add_argument("--r", default="1/2", help="rational direction component")
        p.add_argument("--format", choices=("tsv", "json"), default="tsv")
        p.add_argument(
            "--output",
            default=None,
            help=f"report file; bare names land in ${OUTDIR_VARIABLE} when set",
        )

    p = sub.add_parser("trace", help="billiard word with crossing times")
    p.add_argument("--letters", dest="n_letters", type=_positive, default=64)
    common(p, point=True)

    p = sub.add_parser("complexity", help="factor counts, fitted law, identity check")
    p.add_argument("--letters", dest="n_letters", type=_positive, default=4000)
    p.add_argument("--n-max", dest="n_max", type=_positive, default=40)
    common(p, point=True)

    p = sub.add_parser("returns", help="observed versus predicted return words")
    p.add_argument("--letters", dest="n_letters", type=_positive, default=400)
    common(p, point=True)

    p = sub.add_parser("rotation", help="circle partition, coded orbit, rank test")
    p.add_argument("--letters", dest="n_letters", type=_positive, default=4000)
    p.add_argument("--n-max", dest="n_max", type=_positive, default=40)
    common(p, point=True)

    p = sub.add_parser("directional", help="sampled census and union table")
    p.add_argument("--samples", type=_positive, default=8)
    p.add_argument("--n-max", dest="n_max", type=_positive, default=20)
    common(p, point=False)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("verify", help="acceptance suite; exit 2 on any failure")
    p.add_argument("--suite", default="all", help='"all" or criteria like "1,6,7"')
    common(p, point=False)

    args = parser.parse_args(argv)
    fields = {"command": args.command, "format": args.format}
    if args.output is not None:
        fields["output"] = args.output
    if hasattr(args, "m"):
        pieces = tuple(piece.strip() for piece in args.m.split(","))
        if len(pieces) != 3:
            parser.error("--m needs exactly three comma-separated coordinates")
        fields["start"] = pieces
        fields["r"] = args.r
    for name in ("n_letters", "n_max", "samples", "seed", "suite"):
        if hasattr(args, name):
            fields[name] = getattr(args, name)
    return RunConfig(**fields)


def _parse_start(config: RunConfig) -> StartPoint:
    coords = []
    for label, text in zip("xyz", config.start):
        try:
            coords.append(parse_field_number(text))
        except ValueError as exc:
            raise InputError(f"coordinate {label}: {exc}") from exc
    try:
        return StartPoint(*coords)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _parse_ratio(config: RunConfig) -> Fraction:
    try:
        return Fraction(config.r)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"direction component r: {exc}") from exc


def _direction(r: Fraction) -> Direction:
    try:
        return Direction(r)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _fit_meta(law: Optional[tuple]) -> Optional[dict]:
    if law is None:
        return None
    slope, intercept, threshold = law
    return {"slope": str(slope), "intercept": str(intercept), "threshold": threshold}


def _law_text(meta: Optional[dict]) -> str:
    if meta is None:
        return "none"
    return f"{meta['slope']}\t{meta['intercept']}\t{meta['threshold']}"


def _cmd_trace(config: RunConfig) -> tuple[int, list[str], dict]:
    start = _parse_start(config)
    direction = _direction(_parse_ratio(config))
    billiard_word = trace(start, direction, length=config.n_letters, with_times=True)
    assert billiard_word.times is not None
    crossings = [
        {
            "i": i,
            "letter": letter,
            "time": str(moment),
            "time_decimal": moment.decimal(DECIMAL_PLACES),
        }
        for i, (letter, moment) in enumerate(zip(billiard_word.word, billiard_word.times))
    ]
    lines = [billiard_word.word, "i\tletter\ttime\ttime_decimal"]
    lines += [f"{c['i']}\t{c['letter']}\t{c['time']}\t{c['time_decimal']}" for c in crossings]
    payload = {"command": "trace", "word": billiard_word.word, "crossings": crossings}
    return 0, lines, payload


def _cmd_complexity(config: RunConfig) -> tuple[int, list[str], dict]:
    start = _parse_start(config)
    direction = _direction(_parse_ratio(config))
    word = trace_letters(start, direction, length=config.n_letters)
    try:
        profile = complexity(word, config.n_max)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    law = _fit_meta(fit_complexity_tail(profile.full_counts[: profile.stable_through]))
    mismatches = cassaigne_check(word, config.n_max)
    rows = []
    for n in range(1, config.n_max + 1):
        s_value = profile.s(n) if n < config.n_max else None
        rows.append(
            {"n": n, "p": profile.p(n), "s": s_value, "stable": int(profile.stable(n))}
        )
    lines = [
        "# command\tcomplexity",
        f"# law\t{_law_text(law)}",
        f"# cassaigne_mismatches\t{len(mismatches)}",
        "n\tp\ts\tstable",
    ]
    lines += [
        "\t".join(
            (str(r["n"]), str(r["p"]), "" if r["s"] is None else str(r["s"]), str(r["stable"]))
        )
        for r in rows
    ]
    payload = {
        "command": "complexity",
        "law": law,
        "cassaigne_mismatches": [list(m) for m in mismatches],
        "rows": rows,
    }
    return 0, lines, payload


def _cmd_returns(config: RunConfig) -> tuple[int, list[str], dict]:
    start = _parse_start(config)
    ratio = _parse_ratio(config)
    direction = _direction(ratio)
    if start.x != 0:
        raise InputError("not_on_face: return analysis starts on the face x = 0")
    if start.is_degenerate:
        raise InputError("degenerate_start: y and z must be interior coordinates")
    word = trace_letters(start, direction, length=config.n_letters)
    try:
        blocks = return_words(word).blocks
    except InsufficientOccurrences as exc:
        raise InputError(str(exc)) from exc
    rows = []
    mismatches = 0
    for k, observed in enumerate(blocks):
        try:
            predicted = predict_return_word(start, k, ratio)
        except (OnBoundary, HitsCut) as exc:
            raise InputError(str(exc)) from exc
        match = int(observed == predicted)
        mismatches += 1 - match
        rows.append({"k": k, "observed": observed, "predicted": predicted, "match": match})
    lines = [
        "# command\treturns",
        f"# blocks\t{len(blocks)}",
        f"# mismatches\t{mismatches}",
        "k\tobserved\tpredicted\tmatch",
    ]
    lines += [
        f"{r['k']}\t{r['observed']}\t{r['predicted']}\t{r['match']}" for r in rows
    ]
    payload = {
        "command": "returns",
        "blocks": len(blocks),
        "mismatches": mismatches,
        "rows": rows,
    }
    return 0, lines, payload


def _cmd_rotation(config: RunConfig) -> tuple[int, list[str], dict]:
    start = _parse_start(config)
    ratio = _parse_ratio(config)
    _direction(ratio)
    if start.x != 0:
        raise InputError("not_on_face: the coded circle lives on the face x = 0")
    invariant = reduce_mod1(start.y + start.z)
    try:
        partition = circle_partition(invariant)
    except OnBoundary as exc:  # pragma: no cover - no boundary cases exist
        raise InputError(str(exc)) from exc
    angle = translation_step(ratio)
    try:
        coding = rotation_coding(reduce_mod1(start.y), partition, angle, config.n_letters)
    except HitsCut as exc:
        raise InputError(
            f"orbit_hits_cut: step {exc.step} lands on the cut at {exc.position}"
        ) from exc
    try:
        report = coding_complexity(coding, config.n_max)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    rank = zmodule_rank((angle,) + partition.cuts)
    law = _fit_meta(report.law)
    match = report.slope == rank
    cuts = [
        {
            "i": i,
            "cut": str(cut),
            "cut_decimal": cut.decimal(DECIMAL_PLACES),
            "label": str(label),
        }
        for i, (cut, label) in enumerate(zip(partition.cuts, partition.labels))
    ]
    # the final label covers the wrap interval behind the last cut
    trailing = str(partition.labels[-1])
    lines = [
        "# command\trotation",
        f"# s\t{invariant}\t{invariant.decimal(DECIMAL_PLACES)}",
        f"# angle\t{angle}\t{angle.decimal(DECIMAL_PLACES)}",
        f"# k\t{partition.k}",
        f"# rank\t{rank}",
        f"# law\t{_law_text(law)}",
        f"# match\t{int(match)}",
        f"# wrap_label\t{trailing}",
        "i\tcut\tcut_decimal\tlabel",
    ]
    lines += [f"{c['i']}\t{c['cut']}\t{c['cut_decimal']}\t{c['label']}" for c in cuts]
    lines.append(f"orbit\t{coding.symbols}")
    payload = {
        "command": "rotation",
        "s": {"exact": str(invariant), "decimal": invariant.decimal(DECIMAL_PLACES)},
        "angle": {"exact": str(angle), "decimal": angle.decimal(DECIMAL_PLACES)},
        "k": partition.k,
        "rank": rank,
        "law": law,
        "match": int(match),
        "wrap_label": trailing,
        "cuts": cuts,
        "orbit": coding.symbols,
    }
    return 0, lines, payload


def _cmd_directional(config: RunConfig) -> tuple[int, list[str], dict]:
    try:
        schedule = sample_schedule(config.samples, seed=config.seed)
        result = census(schedule, n_max=config.n_max)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    class_meta = []
    for label in sorted(result.classes):
        summary = result.classes[label]
        class_meta.append(
            {
                "label": label,
                "k": summary.k,
                "members": len(summary.s_values),
                "law": _fit_meta(summary.law),
            }
        )
    rows = []
    for n in range(1, config.n_max + 1):
        p_n = result.union_p(n)
        s_value = result.union_p(n + 1) - p_n if n < config.n_max else None
        rows.append(
            {"n": n, "p": p_n, "s": s_value, "ratio": f"{p_n / (n * n):.6f}"}
        )
    lines = [
        "# command\tdirectional",
        f"# samples\t{result.sample_count}",
    ]
    lines += [
        f"# class\t{m['label']}\tk\t{m['k']}\tmembers\t{m['members']}\tlaw\t{_law_text(m['law'])}"
        for m in class_meta
    ]
    lines.append("n\tp\ts\tratio")
    lines += [
        "\t".join(
            (str(r["n"]), str(r["p"]), "" if r["s"] is None else str(r["s"]), r["ratio"])
        )
        for r in rows
    ]
    payload = {
        "command": "directional",
        "samples": result.sample_count,
        "classes": class_meta,
        "rows": rows,
    }
    return 0, lines, payload


def _cmd_verify(config: RunConfig) -> tuple[int, list[str], dict]:
    if config.suite == "all":
        numbers = None
    else:
        try:
            numbers = [int(piece) for piece in config.suite.split(",")]
        except ValueError as exc:
            raise InputError(f'suite must be "all" or criterion numbers: {exc}') from exc
    try:
        results = run_all(numbers=numbers)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    failures = sum(1 for r in results if not r.passed)
    rows = [
        {
            "criterion": r.number,
            "verdict": "PASS" if r.passed else "FAIL",
            "name": r.name,
            "detail": r.detail,
        }
        for r in results
    ]
    # wall-clock seconds stay off the report to keep it byte-stable
    lines = [
        "# command\tverify",
        f"# failures\t{failures}",
        "criterion\tverdict\tname\tdetail",
    ]
    lines += [f"{r['criterion']}\t{r['verdict']}\t{r['name']}\t{r['detail']}" for r in rows]
    payload = {"command": "verify", "failures": failures, "results": rows}
    return (2 if failures else 0), lines, payload


_COMMANDS = {
    "trace": _cmd_trace,
    "complexity": _cmd_complexity,
    "returns": _cmd_returns,
    "rotation": _cmd_rotation,
    "directional": _cmd_directional,
    "verify": _cmd_verify,
}


def run(config: RunConfig) -> tuple[int, str]:
    """Execute one configuration; returns (exit status, report text)."""
    status, lines, payload = _COMMANDS[config.command](config)
    if config.format == "json":
        report = json.dumps(payload, indent=2) + "\n"
    else:
        report = "\n".join(lines) + "\n"
    return status, report


def _resolve_output(output: Optional[str]) -> Optional[Path]:
    if output is None:
        return None
    path = Path(output)
    outdir = os.environ.get(OUTDIR_VARIABLE)
    if outdir and not path.is_absolute() and path.parent == Path("."):
        path = Path(outdir) / path
    return path


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        config = parse_args(argv)
    except SystemExit as exc:
        return 0 if not exc.code else 1
    try:
        status, report = run(config)
    except InputError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 1
    destination = _resolve_output(config.output)
    if destination is None:
        sys.stdout.write(report)
    else:
        try:
            destination.write_text(report, encoding="utf-8")
        except OSError as exc:
            print(f"invalid input: cannot write {destination}: {exc}", file=sys.stderr)
            return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
