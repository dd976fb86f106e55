"""Command-line front end over the tracing and coding pipelines.

Six subcommands expose the library end to end: ``trace`` emits a word
with its crossing times, ``complexity`` a factor-count profile with the
fitted law and the second-difference check, ``returns`` the observed
versus predicted return-word sequence, ``rotation`` a circle partition
with its coded orbit and the rank-versus-slope comparison,
``directional`` a sampled census with the union table, and ``verify``
the acceptance suite.

run takes the namespace of parse_args, so argparse holds the only
defaults.  Each command builds its JSON payload first; each TSV table
is one _table over its rows, and each ``# key`` header line one _headers
over its fields.

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
from fractions import Fraction
from functools import cache
from pathlib import Path
from typing import Optional, Sequence

from .billiard import Direction, StartPoint, trace, trace_letters
from .directional import census, sample_schedule
from .exactnum import FieldNumber, reduce_mod1
from .returns import (
    HitsCut,
    InsufficientOccurrences,
    circle_partition,
    predict_return_words,
    return_words,
    translation_step,
)
from .rotation import coding_complexity, rotation_coding, zmodule_rank
from .verification import run_all
from .words import _cassaigne_failures, complexity

DECIMAL_PLACES = 20
OUTDIR_VARIABLE = "CUBEWORDS_OUTDIR"


class InputError(ValueError):
    """Invalid configuration or start data; maps to exit status 1."""


def _positive(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError("count must be positive")
    return value


@cache
def _parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by every later one."""
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
    return parser


def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    """One CLI invocation, parsed but not yet validated; --m becomes ``start``.

    Every call parses into a fresh namespace, so no value carries over
    from an earlier call to the shared parser.
    """
    parser = _parser()
    args = parser.parse_args(argv)
    if hasattr(args, "m"):
        args.start = tuple(piece.strip() for piece in args.m.split(","))
        if len(args.start) != 3:
            parser.error("--m needs exactly three comma-separated coordinates")
    return args


def _parse_start(config: argparse.Namespace) -> StartPoint:
    coords = []
    for label, text in zip("xyz", config.start):
        try:
            coords.append(FieldNumber.parse(text))
        except ValueError as exc:
            raise InputError(f"coordinate {label}: {exc}") from exc
    try:
        return StartPoint(*coords)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _direction(config: argparse.Namespace) -> Direction:
    try:
        r = Fraction(config.r)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"direction component r: {exc}") from exc
    try:
        return Direction(r)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _fit_meta(law: Optional[tuple]) -> Optional[dict]:
    if law is None:
        return None
    slope, intercept, threshold = law
    return {"slope": str(slope), "intercept": str(intercept), "threshold": threshold}


def _text(value) -> str:
    """A payload field as TSV: None prints none, a dict its values joined by tabs."""
    if value is None:
        return "none"
    if isinstance(value, dict):
        return "\t".join(str(v) for v in value.values())
    return str(value)


def _headers(payload: dict, *keys: str) -> list[str]:
    """One ``# key<TAB>value`` line per payload field, so the TSV restates no value."""
    return [f"# {key}\t{_text(payload[key])}" for key in keys]


def _table(columns: Sequence[str], rows: Sequence[dict]) -> list[str]:
    """A TSV header line and one line per row; a None field prints empty."""
    lines = ["\t".join(columns)]
    lines += ["\t".join("" if row[c] is None else str(row[c]) for c in columns) for row in rows]
    return lines


def _cmd_trace(config: argparse.Namespace) -> tuple[int, list[str], dict]:
    start = _parse_start(config)
    direction = _direction(config)
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
    lines = [billiard_word.word] + _table(("i", "letter", "time", "time_decimal"), crossings)
    payload = {"command": "trace", "word": billiard_word.word, "crossings": crossings}
    return 0, lines, payload


def _cmd_complexity(config: argparse.Namespace) -> tuple[int, list[str], dict]:
    start = _parse_start(config)
    direction = _direction(config)
    word = trace_letters(start, direction, length=config.n_letters)
    try:
        profile = complexity(word, config.n_max)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    law = _fit_meta(profile.law)
    mismatches = _cassaigne_failures(word, profile)
    rows = []
    for n in range(1, config.n_max + 1):
        s_value = profile.s(n) if n < config.n_max else None
        rows.append(
            {"n": n, "p": profile.p(n), "s": s_value, "stable": int(profile.stable(n))}
        )
    payload = {
        "command": "complexity",
        "law": law,
        "cassaigne_mismatches": [list(m) for m in mismatches],
        "rows": rows,
    }
    # the JSON lists the mismatches, the TSV counts them
    lines = _headers(payload, "command", "law")
    lines.append(f"# cassaigne_mismatches\t{len(mismatches)}")
    lines += _table(("n", "p", "s", "stable"), rows)
    return 0, lines, payload


def _orbit_hits_cut(exc: HitsCut) -> InputError:
    return InputError(f"orbit_hits_cut: step {exc.step} lands on the cut at {exc.position}")


def _cmd_returns(config: argparse.Namespace) -> tuple[int, list[str], dict]:
    start = _parse_start(config)
    direction = _direction(config)
    if start.x != 0:
        raise InputError("not_on_face: return analysis starts on the face x = 0")
    if start.is_degenerate:
        raise InputError("degenerate_start: y and z must be interior coordinates")
    word = trace_letters(start, direction, length=config.n_letters)
    try:
        blocks = return_words(word).blocks
    except InsufficientOccurrences as exc:
        raise InputError(str(exc)) from exc
    try:
        predictions = predict_return_words(start, len(blocks), direction.r)
    except HitsCut as exc:
        raise _orbit_hits_cut(exc) from exc
    rows = [
        {"k": k, "observed": observed, "predicted": predicted, "match": int(observed == predicted)}
        for k, (observed, predicted) in enumerate(zip(blocks, predictions))
    ]
    mismatches = sum(1 - row["match"] for row in rows)
    payload = {
        "command": "returns",
        "blocks": len(blocks),
        "mismatches": mismatches,
        "rows": rows,
    }
    lines = _headers(payload, "command", "blocks", "mismatches")
    lines += _table(("k", "observed", "predicted", "match"), rows)
    return 0, lines, payload


def _cmd_rotation(config: argparse.Namespace) -> tuple[int, list[str], dict]:
    start = _parse_start(config)
    ratio = _direction(config).r
    if start.x != 0:
        raise InputError("not_on_face: the coded circle lives on the face x = 0")
    invariant = reduce_mod1(start.y + start.z)
    partition = circle_partition(invariant)
    angle = translation_step(ratio)
    try:
        coding = rotation_coding(reduce_mod1(start.y), partition, angle, config.n_letters)
    except HitsCut as exc:
        raise _orbit_hits_cut(exc) from exc
    try:
        profile = coding_complexity(coding, config.n_max)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    rank = zmodule_rank((angle,) + partition.cuts)
    law = _fit_meta(profile.law)
    match = profile.slope == rank
    cuts = [
        {
            "i": i,
            "cut": str(cut),
            "cut_decimal": cut.decimal(DECIMAL_PLACES),
            "label": str(label),
        }
        for i, (cut, label) in enumerate(zip(partition.cuts, partition.labels))
    ]
    payload = {
        "command": "rotation",
        "s": {"exact": str(invariant), "decimal": invariant.decimal(DECIMAL_PLACES)},
        "angle": {"exact": str(angle), "decimal": angle.decimal(DECIMAL_PLACES)},
        "k": partition.k,
        "rank": rank,
        "law": law,
        "match": int(match),
        # the final label covers the wrap interval behind the last cut
        "wrap_label": str(partition.labels[-1]),
        "cuts": cuts,
        "orbit": coding,
    }
    lines = _headers(payload, "command", "s", "angle", "k", "rank", "law", "match", "wrap_label")
    lines += _table(("i", "cut", "cut_decimal", "label"), cuts)
    lines.append(f"orbit\t{coding}")
    return 0, lines, payload


def _cmd_directional(config: argparse.Namespace) -> tuple[int, list[str], dict]:
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
    payload = {
        "command": "directional",
        "samples": len(schedule),
        "classes": class_meta,
        "rows": rows,
    }
    lines = _headers(payload, "command", "samples")
    # a class line names each field before its value
    for meta in class_meta:
        fields = [f"{key}\t{_text(meta[key])}" for key in ("k", "members", "law")]
        lines.append("\t".join(["# class", meta["label"], *fields]))
    lines += _table(("n", "p", "s", "ratio"), rows)
    return 0, lines, payload


def _cmd_verify(config: argparse.Namespace) -> tuple[int, list[str], dict]:
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
    payload = {"command": "verify", "failures": failures, "results": rows}
    lines = _headers(payload, "command", "failures")
    lines += _table(("criterion", "verdict", "name", "detail"), rows)
    return (2 if failures else 0), lines, payload


_COMMANDS = {
    "trace": _cmd_trace,
    "complexity": _cmd_complexity,
    "returns": _cmd_returns,
    "rotation": _cmd_rotation,
    "directional": _cmd_directional,
    "verify": _cmd_verify,
}


def run(config: argparse.Namespace) -> tuple[int, str]:
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
