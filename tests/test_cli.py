"""Command-line reports: content, formats, exit statuses, output routing."""

import argparse
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from cubewords import cli, words
from cubewords.billiard import Direction, StartPoint, trace_letters
from cubewords.cli import main, parse_args, run
from cubewords.exactnum import FieldNumber, reduce_mod1
from cubewords.verification import CriterionResult


def invoke(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


class TestParse:
    def test_defaults(self):
        config = parse_args(["trace"])
        assert config == argparse.Namespace(
            command="trace",
            m="0,1/2,1/2",
            start=("0", "1/2", "1/2"),
            r="1/2",
            n_letters=64,
            format="tsv",
            output=None,
        )

    def test_point_and_counts(self):
        config = parse_args(
            ["complexity", "--m", "0, 1/3, 1/7", "--letters", "500", "--n-max", "12"]
        )
        assert config.start == ("0", "1/3", "1/7")
        assert config.n_letters == 500
        assert config.n_max == 12

    def test_bad_arity_exits_nonzero(self, capsys):
        status, _, err = invoke(capsys, "trace", "--m", "0,1/2")
        assert status == 1
        assert "three comma-separated coordinates" in err

    def test_nonpositive_count_rejected(self, capsys):
        status, _, err = invoke(capsys, "trace", "--letters", "0")
        assert status == 1
        assert "positive" in err

    def test_seed_only_on_directional(self, capsys):
        status, _, err = invoke(capsys, "trace", "--seed", "1")
        assert status == 1
        assert err.startswith("usage: cubewords")
        assert "unrecognized arguments: --seed 1" in err
        assert parse_args(["directional", "--seed", "3"]).seed == 3


class TestSharedParser:
    def test_omitted_options_fall_back_to_defaults(self):
        given = parse_args(
            ["rotation", "--m", "0,1/3,1/7", "--letters", "500", "--format", "json"]
        )
        assert (given.start, given.n_letters, given.format) == (("0", "1/3", "1/7"), 500, "json")
        again = parse_args(["rotation"])
        assert (again.m, again.start, again.n_letters, again.n_max, again.format) == (
            "0,1/2,1/2",
            ("0", "1/2", "1/2"),
            4000,
            40,
            "tsv",
        )
        assert parse_args(["directional", "--seed", "5"]).seed == 5
        assert parse_args(["directional"]).seed == 0

    def test_subcommands_share_no_attributes(self):
        trace = parse_args(["trace", "--letters", "9"])
        directional = parse_args(["directional", "--samples", "3"])
        verify = parse_args(["verify", "--suite", "6"])
        assert not hasattr(directional, "n_letters") and not hasattr(directional, "start")
        assert not hasattr(trace, "seed") and not hasattr(trace, "suite")
        assert not hasattr(verify, "samples") and not hasattr(verify, "m")
        assert parse_args(["trace"]) == argparse.Namespace(
            command="trace",
            m="0,1/2,1/2",
            start=("0", "1/2", "1/2"),
            r="1/2",
            n_letters=64,
            format="tsv",
            output=None,
        )
        assert trace is not parse_args(["trace", "--letters", "9"])

    def test_bad_argv_between_good_ones(self):
        assert parse_args(["trace", "--letters", "7"]).n_letters == 7
        with pytest.raises(SystemExit):
            parse_args(["trace", "--letters", "0"])
        with pytest.raises(SystemExit):
            parse_args(["complexity", "--m", "0,1/2"])
        assert main(["returns", "--bogus"]) == 1
        assert parse_args(["trace"]).n_letters == 64
        assert parse_args(["complexity"]).start == ("0", "1/2", "1/2")

    def test_one_build_per_process(self):
        for argv in (["trace"], ["directional"], ["verify"], ["trace", "--letters", "3"]):
            parse_args(argv)
        info = cli._parser.cache_info()
        assert (info.misses, info.currsize) == (1, 1)
        assert info.hits >= 3

    def test_import_builds_no_parser(self):
        code = "import cubewords.cli as c; print(c._parser.cache_info().misses)"
        done = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
            check=True,
        )
        assert done.stdout.strip() == "0"


class TestTrace:
    def test_short_word(self, capsys):
        status, out, _ = invoke(capsys, "trace", "--m", "0,1/2,1/2", "--letters", "12")
        assert status == 0
        lines = out.splitlines()
        assert lines[0] == "abcabcabbacb"
        assert lines[1] == "i\tletter\ttime\ttime_decimal"
        assert len(lines) == 14

    def test_rows_carry_exact_and_decimal_times(self, capsys):
        _, out, _ = invoke(capsys, "trace", "--letters", "6")
        rows = [line.split("\t") for line in out.splitlines()[2:]]
        previous = None
        for i, row in enumerate(rows):
            assert int(row[0]) == i
            moment = FieldNumber.parse(row[2])
            if previous is not None:
                assert previous < moment
            previous = moment
            whole, _, fractional = row[3].partition(".")
            assert len(fractional) == 20

    def test_json_mirrors_tsv(self, capsys):
        _, tsv, _ = invoke(capsys, "trace", "--letters", "9")
        _, raw, _ = invoke(capsys, "trace", "--letters", "9", "--format", "json")
        payload = json.loads(raw)
        lines = tsv.splitlines()
        assert payload["word"] == lines[0]
        for crossing, line in zip(payload["crossings"], lines[2:]):
            i, letter, time, decimal = line.split("\t")
            assert crossing["i"] == int(i)
            assert crossing["letter"] == letter
            assert crossing["time"] == time
            assert crossing["time_decimal"] == decimal

    def test_bad_coordinate_grammar(self, capsys):
        status, out, err = invoke(capsys, "trace", "--m", "0,one half,1/2")
        assert status == 1
        assert out == ""
        assert err.startswith("invalid input: coordinate y:")

    def test_zero_denominator_coordinate(self, capsys):
        status, out, err = invoke(capsys, "trace", "--m", "0,1/0,1/2")
        assert status == 1
        assert out == ""
        assert err.startswith("invalid input: coordinate y:")


class TestComplexity:
    def test_interior_law(self, capsys):
        status, out, _ = invoke(
            capsys, "complexity", "--letters", "2000", "--n-max", "20"
        )
        assert status == 0
        lines = out.splitlines()
        assert "# law\t2\t3\t2" in lines
        assert "# cassaigne_mismatches\t0" in lines
        header = lines.index("n\tp\ts\tstable")
        first = lines[header + 1].split("\t")
        assert first == ["1", "3", "4", "1"]
        last = lines[-1].split("\t")
        assert last[0] == "20" and last[2] == ""

    @pytest.mark.parametrize(
        "m, r, letters, n_max",
        [
            ("0,1/2,1/2", "1/2", 40, 20),
            ("0,1/5,2/7", "1/2", 60, 30),
            ("0,0,sqrt2-1", "1/3", 500, 12),
            ("0,1/5,2/7", "3", 300, 20),
        ],
    )
    def test_law_line_is_the_profile_law(self, capsys, m, r, letters, n_max):
        argv = ["complexity", "--m", m, "--r", r, "--letters", str(letters), "--n-max", str(n_max)]
        start = StartPoint(*m.split(","))
        profile = words.complexity(trace_letters(start, Direction(r), letters), n_max)
        law = cli._fit_meta(profile.law)
        status, out, _ = invoke(capsys, *argv)
        assert status == 0
        assert out.splitlines()[1] == "# law\t" + cli._text(law)
        status, out, _ = invoke(capsys, *argv, "--format", "json")
        assert status == 0
        assert json.loads(out)["law"] == law

    def test_profile_is_built_once(self, capsys, monkeypatch):
        calls = []
        real = words.complexity

        def spy(word, n_max):
            calls.append(n_max)
            return real(word, n_max)

        monkeypatch.setattr(cli, "complexity", spy)
        monkeypatch.setattr(words, "complexity", spy)
        status, _, _ = invoke(capsys, "complexity", "--letters", "2000", "--n-max", "20")
        assert status == 0
        assert calls == [20]


class TestReturns:
    def test_predictions_match(self, capsys):
        status, out, _ = invoke(capsys, "returns", "--letters", "400")
        assert status == 0
        lines = out.splitlines()
        assert "# mismatches\t0" in lines
        header = lines.index("k\tobserved\tpredicted\tmatch")
        for line in lines[header + 1 :]:
            k, observed, predicted, match = line.split("\t")
            assert observed == predicted
            assert match == "1"

    def test_small_ratio_closes_every_probe(self, capsys):
        status, out, _ = invoke(capsys, "returns", "--m", "0,1/5,2/7", "--r", "1/100")
        assert status == 0
        assert "# mismatches\t0" in out.splitlines()

    def test_degenerate_start_rejected(self, capsys):
        status, _, err = invoke(capsys, "returns", "--m", "0,0,1/2")
        assert status == 1
        assert err.startswith("invalid input: degenerate_start")

    def test_off_face_rejected(self, capsys):
        status, _, err = invoke(capsys, "returns", "--m", "1/2,1/3,1/5")
        assert status == 1
        assert err.startswith("invalid input: not_on_face")

    def test_orbit_on_cut_rejected(self, capsys):
        # 13 - 8*phi + 3*(2*phi - 3) is the vertical cut 4 - 2*phi
        status, out, err = invoke(capsys, "returns", "--m", "0,13-8*phi,1/3")
        assert status == 1
        assert out == ""
        assert err == "invalid input: orbit_hits_cut: step 3 lands on the cut at 4-2*phi\n"


class TestRotation:
    def test_golden_special_circle(self, capsys):
        status, out, _ = invoke(
            capsys, "rotation", "--m", "0,1/5,9/5-1*phi", "--letters", "3000"
        )
        assert status == 0
        lines = out.splitlines()
        assert "# k\t5" in lines
        assert "# rank\t2" in lines
        assert "# match\t1" in lines
        assert "# wrap_label\ta3" in lines
        law = next(line for line in lines if line.startswith("# law\t"))
        assert law.split("\t")[1] == "2"
        header = lines.index("i\tcut\tcut_decimal\tlabel")
        cut_rows = [line.split("\t") for line in lines[header + 1 : header + 5]]
        cuts = [FieldNumber.parse(row[1]) for row in cut_rows]
        assert cuts == [
            FieldNumber.parse("5-3*phi"),
            FieldNumber.parse("2-1*phi"),
            FieldNumber.parse("-1+1*phi"),
            FieldNumber.parse("4-2*phi"),
        ]
        assert [row[3] for row in cut_rows] == ["a2", "a7", "a1", "a2"]
        assert lines[-1].startswith("orbit\t")
        orbit = lines[-1].split("\t")[1]
        assert len(orbit) == 3000 and set(orbit) <= set("1234567")

    def test_orbit_on_cut_rejected(self, capsys):
        status, _, err = invoke(capsys, "rotation", "--m", "0,2-1*phi,0")
        assert status == 1
        assert err.startswith("invalid input: orbit_hits_cut: step 0")

    @pytest.mark.parametrize("digits", [40, 80])
    def test_large_coefficients_finish(self, capsys, digits):
        # the exact core raises its precision with the coefficients; at
        # the default sizes such a run takes a fraction of a second
        rng = random.Random(digits)
        low = 10 ** (digits - 1)

        def coefficient():
            return rng.choice((1, -1)) * rng.randrange(low, 10 * low)

        y = reduce_mod1(FieldNumber(coefficient(), Fraction(coefficient(), 7)))
        z = reduce_mod1(FieldNumber(coefficient(), coefficient(), coefficient(), coefficient()))
        assert len(str(y.coeffs[0].numerator)) >= digits - 1
        clock = time.process_time()
        status, out, err = invoke(capsys, "rotation", "--m", f"0,{y},{z}")
        assert time.process_time() - clock < 20
        assert (status, err) == (0, "")
        assert out.splitlines()[-1].startswith("orbit\t")

    @pytest.mark.parametrize("ratio", ["0", "-1/2"])
    def test_nonpositive_ratio_rejected(self, capsys, ratio):
        status, out, err = invoke(capsys, "rotation", f"--r={ratio}")
        assert status == 1
        assert out == ""
        assert err == "invalid input: the rational speed r must be positive\n"

    @pytest.mark.parametrize("ratio", ["1/3", "2"])
    def test_other_ratio_rejected(self, capsys, ratio):
        # the circle partition is the r = 1/2 face partition, whatever --r says
        status, out, err = invoke(capsys, "rotation", f"--r={ratio}")
        assert status == 1
        assert out == ""
        assert err == (
            "invalid input: unsupported_r: the circle partition is the face partition of r = 1/2\n"
        )


class TestDirectional:
    def test_fixed_seed_census(self, capsys):
        args = (
            "directional",
            "--samples",
            "6",
            "--n-max",
            "8",
        )
        status, out, _ = invoke(capsys, *args)
        assert status == 0
        lines = out.splitlines()
        assert "# samples\t6" in lines
        assert "# class\tzero\tk\t3\tmembers\t1\tlaw\t2\t3\t2" in lines
        assert sum(1 for line in lines if line.startswith("# class\t")) == 6
        header = lines.index("n\tp\ts\tratio")
        first = lines[header + 1].split("\t")
        assert first[:2] == ["1", "3"]
        assert len(lines[header + 2].split("\t")[3].partition(".")[2]) == 6
        # byte-stable for a fixed seed
        _, again, _ = invoke(capsys, *args)
        assert again == out

    def test_json_rows_match(self, capsys):
        args = ("directional", "--samples", "3", "--n-max", "6")
        _, tsv, _ = invoke(capsys, *args)
        _, raw, _ = invoke(capsys, *args, "--format", "json")
        payload = json.loads(raw)
        lines = tsv.splitlines()
        header = lines.index("n\tp\ts\tratio")
        for row, line in zip(payload["rows"], lines[header + 1 :]):
            n, p, _, ratio = line.split("\t")
            assert row["n"] == int(n)
            assert row["p"] == int(p)
            assert row["ratio"] == ratio
        assert "skipped" not in payload

    def test_census_on_a_circle_traces_misread(self, capsys):
        # 2000-letter traces of s=-24/97+64/89*sqrt2, one of these
        # circles, read 3n+11 where its language reads 4n+4
        status, out, err = invoke(
            capsys, "directional", "--samples", "20", "--n-max", "16", "--seed", "9"
        )
        assert status == 0, err
        assert "# samples\t20" in out.splitlines()

    def test_samples_beyond_the_pool(self, capsys, bounded):
        status, out, err = bounded(20, invoke, capsys, "directional", "--samples", "8592")
        assert status == 1
        assert out == ""
        assert err.startswith("invalid input: total 8592 outside 0..8591 distinct")

    def test_prefix_option_gone(self, capsys):
        status, _, err = invoke(capsys, "directional", "--prefix", "600")
        assert status == 1
        assert "--prefix" in err


class TestVerify:
    def test_single_fast_criterion(self, capsys):
        status, out, _ = invoke(capsys, "verify", "--suite", "6")
        assert status == 0
        lines = out.splitlines()
        assert "# failures\t0" in lines
        assert any(line.startswith("6\tPASS\tcircle census\t") for line in lines)
        # seconds stay off the report so reruns compare byte for byte
        assert "[" not in out

    def test_failure_maps_to_exit_two(self, capsys, monkeypatch):
        fake = [
            CriterionResult(3, "quartic start laws", False, "forced", 0.0),
            CriterionResult(6, "circle census", True, "ok", 0.0),
        ]
        monkeypatch.setattr("cubewords.cli.run_all", lambda numbers=None: fake)
        status, out, _ = invoke(capsys, "verify", "--suite", "3,6")
        assert status == 2
        assert "# failures\t1" in out
        assert "3\tFAIL\tquartic start laws\tforced" in out

    def test_unknown_criterion_rejected(self, capsys):
        status, _, err = invoke(capsys, "verify", "--suite", "11")
        assert status == 1
        assert "no criterion 11" in err

    def test_malformed_suite_rejected(self, capsys):
        status, _, err = invoke(capsys, "verify", "--suite", "1,x")
        assert status == 1
        assert "criterion numbers" in err


class TestOutput:
    def test_bare_name_lands_in_outdir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("CUBEWORDS_OUTDIR", str(tmp_path))
        status, out, _ = invoke(
            capsys, "trace", "--letters", "5", "--output", "report.tsv"
        )
        assert status == 0
        assert out == ""
        content = (tmp_path / "report.tsv").read_text(encoding="utf-8")
        assert content.splitlines()[0] == "abcab"

    def test_explicit_path_wins_over_outdir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("CUBEWORDS_OUTDIR", str(tmp_path / "elsewhere"))
        target = tmp_path / "direct.tsv"
        status, _, _ = invoke(
            capsys, "trace", "--letters", "5", "--output", str(target)
        )
        assert status == 0
        assert target.exists()

    def test_unwritable_destination(self, capsys, tmp_path):
        target = tmp_path / "missing" / "report.tsv"
        status, _, err = invoke(
            capsys, "trace", "--letters", "5", "--output", str(target)
        )
        assert status == 1
        assert "cannot write" in err


class TestRun:
    def test_run_returns_report_string(self):
        status, report = run(parse_args(["trace", "--letters", "4"]))
        assert status == 0
        assert report.endswith("\n")
        assert report.splitlines()[0] == "abca"

    def test_unknown_command_is_a_bug(self):
        with pytest.raises(KeyError):
            run(argparse.Namespace(command="plot"))

    @pytest.mark.parametrize(
        "argv",
        [
            ["trace"],
            ["complexity"],
            ["returns"],
            ["rotation"],
            ["directional"],
            ["verify", "--suite", "6"],
        ],
        ids=" ".join,
    )
    def test_run_uses_the_command_line_defaults(self, capsys, argv):
        status, out, _ = invoke(capsys, *argv)
        assert run(parse_args(argv)) == (status, out)

    @pytest.mark.parametrize(
        "argv",
        [["complexity"], ["returns"], ["rotation"], ["directional"], ["verify", "--suite", "6"]],
        ids=" ".join,
    )
    def test_tsv_headers_mirror_the_json(self, argv):
        def rendered(value):
            if value is None:
                return "none"
            if isinstance(value, dict):
                return "\t".join(str(v) for v in value.values())
            return str(value)

        _, tsv = run(parse_args(argv))
        _, raw = run(parse_args(argv + ["--format", "json"]))
        payload = json.loads(raw)
        headers = [line[2:].split("\t", 1) for line in tsv.splitlines() if line.startswith("# ")]
        keys = [key for key, _ in headers if key != "class"]
        # every field but the tables, the mismatch list aside, and rotation's orbit line
        assert keys == [
            key
            for key, value in payload.items()
            if key != "orbit" and (key == "cassaigne_mismatches" or not isinstance(value, list))
        ]
        classes = iter(payload.get("classes", ()))
        for key, value in headers:
            if key == "cassaigne_mismatches":
                assert value == str(len(payload[key]))
            elif key == "class":
                meta = next(classes)
                fields = [f"{name}\t{rendered(meta[name])}" for name in ("k", "members", "law")]
                assert value == "\t".join([meta["label"], *fields])
            else:
                assert value == rendered(payload[key]), key
        assert next(classes, None) is None
        if argv == ["rotation"]:
            assert tsv.splitlines()[-1] == f"orbit\t{payload['orbit']}"
