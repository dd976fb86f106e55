"""Command-line reports: content, formats, exit statuses, output routing."""

import json

import pytest

from cubewords.cli import RunConfig, main, parse_args, run
from cubewords.exactnum import parse_field_number
from cubewords.verification import CriterionResult


def invoke(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


class TestParse:
    def test_defaults(self):
        config = parse_args(["trace"])
        assert config == RunConfig(command="trace")

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
            moment = parse_field_number(row[2])
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
        cuts = [parse_field_number(row[1]) for row in cut_rows]
        assert cuts == [
            parse_field_number("5-3*phi"),
            parse_field_number("2-1*phi"),
            parse_field_number("-1+1*phi"),
            parse_field_number("4-2*phi"),
        ]
        assert [row[3] for row in cut_rows] == ["a2", "a7", "a1", "a2"]
        assert lines[-1].startswith("orbit\t")
        orbit = lines[-1].split("\t")[1]
        assert len(orbit) == 3000 and set(orbit) <= set("1234567")

    def test_orbit_on_cut_rejected(self, capsys):
        status, _, err = invoke(capsys, "rotation", "--m", "0,2-1*phi,0")
        assert status == 1
        assert err.startswith("invalid input: orbit_hits_cut: step 0")

    @pytest.mark.parametrize("ratio", ["0", "-1/2"])
    def test_nonpositive_ratio_rejected(self, capsys, ratio):
        status, out, err = invoke(capsys, "rotation", f"--r={ratio}")
        assert status == 1
        assert out == ""
        assert err == "invalid input: the rational speed r must be positive\n"


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


class TestRunConfig:
    def test_run_returns_report_string(self):
        status, report = run(RunConfig(command="trace", n_letters=4))
        assert status == 0
        assert report.endswith("\n")
        assert report.splitlines()[0] == "abca"

    def test_unknown_command_is_a_bug(self):
        with pytest.raises(KeyError):
            run(RunConfig(command="plot"))
