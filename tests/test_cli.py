"""End-to-end CLI tests: outputs, formats, exit codes."""

import argparse
import csv
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path
from xml.dom import minidom

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import servelab
import servelab.cli
from servelab import formulas
from servelab.atp import sample_path
from servelab.cli import main
from servelab.errors import ServelabError
from servelab.types import RuleKind

HEADER = "rank,name,p_f_in,p_f_won,p_s_won,p_t_won"
SAMPLE = str(sample_path())


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def data_lines(out):
    return [l for l in out.splitlines() if l and not l.startswith("#")]


class TestEval:
    def test_even_game(self, capsys):
        code, out, _ = run(capsys, "eval", "--game", "T", "--p", "0.5")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "metric,closed_form,engine"
        assert "win_prob,0.500000,0.500000" in lines
        assert "bp_prob,0.604167,0.604167" in lines
        assert "expected_points,6.750000,6.750000" in lines

    def test_proposed_game_headline_cutoff(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--game", "C", "--pf", "0.696", "--ps", "0.55"
        )
        assert code == 0
        assert "win_prob,0.749280,0.749280" in out
        assert "bp_prob,0.345079,0.345079" in out

    def test_proposed_game_other_cutoff_has_no_closed_form(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--game", "C", "--pf", "0.7", "--ps", "0.5", "--x", "5"
        )
        assert code == 0
        for line in data_lines(out)[1:]:
            name, closed, engine = line.split(",")
            assert closed == ""
            assert float(engine) >= 0.0

    def test_alternating_game_has_no_bp_rows(self, capsys):
        code, out, _ = run(capsys, "eval", "--game", "Bj", "--pf", "0.7", "--ps", "0.6")
        assert code == 0
        names = [l.split(",")[0] for l in data_lines(out)[1:]]
        assert names == ["win_prob", "expected_points"]

    def test_json_document(self, capsys):
        code, out, _ = run(capsys, "eval", "--game", "T", "--p", "0.696", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["game"] == "T"
        assert doc["profile"] == {"p_f": 0.696, "p_s": 0.696}
        assert doc["metrics"]["win_prob"]["engine"] == pytest.approx(0.895958, abs=5e-7)
        assert doc["max_disagreement"] <= 1e-9

    @pytest.mark.parametrize(
        "argv",
        [
            ("eval", "--game", "T"),
            ("eval", "--game", "T", "--p", "1.5"),
            ("eval", "--game", "Z", "--p", "0.5"),
            ("eval", "--game", "T", "--p", "0.5", "--x", "2"),
            ("eval", "--game", "T", "--p", "0.5", "--pf", "0.6"),
            ("eval", "--game", "Bj", "--pf", "0.7"),
            ("eval", "--game", "C", "--pf", "0.7", "--ps", "0.5", "--x", "9"),
            ("eval", "--game", "A", "--p", "0.5", "--order", "2"),
        ],
    )
    def test_usage_errors(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 2

    def test_divergence_exits_4(self, capsys, monkeypatch):
        monkeypatch.setitem(formulas.CLOSED_FORMS, RuleKind.T, (("win_prob", lambda _: 0.0),))
        code, out, err = run(capsys, "eval", "--game", "T", "--p", "0.6")
        assert code == 4
        assert "disagree" in err
        # the table is still printed, so the disagreeing row can be read
        assert out.splitlines()[:2] == ["metric,closed_form,engine", "win_prob,0.000000,0.735729"]

    def test_last_place_gap_on_a_huge_length_agrees(self, capsys):
        # expected points ~1.67e10, where closed form and engine differ by
        # one ulp (1.9e-6 absolute); formulas.agrees accepts that gap
        code, out, err = run(
            capsys, "eval", "--game", "B",
            "--pf", "0.9999999999085221", "--ps", "2.845773617600403e-11",
        )
        assert code == 0
        assert err == ""
        assert "expected_points,16675605832.53269" in out


class TestSimulate:
    def test_deterministic(self, capsys):
        argv = ("simulate", "--game", "T", "--p", "0.62", "--n", "2000", "--seed", "7")
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2
        assert out1.splitlines()[0] == "metric,mc_mean,mc_std_err,engine,z"

    def test_z_column_format(self, capsys):
        _, out, _ = run(
            capsys, "simulate", "--game", "T", "--p", "0.62", "--n", "500", "--seed", "1"
        )
        for line in out.splitlines()[1:]:
            z = line.split(",")[4]
            assert z.startswith(("+", "-"))

    def test_single_game_blanks(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--game", "T", "--p", "0.62", "--n", "1", "--seed", "0"
        )
        assert code == 0
        for line in out.splitlines()[1:]:
            fields = line.split(",")
            assert fields[2] == ""  # no std err from one game
            assert fields[4] == ""  # hence no z

    def test_json_reports_backend(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--game", "C", "--pf", "0.696", "--ps", "0.55",
            "--n", "100", "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["backend"] == "pure-python"
        assert doc["n_games"] == 100
        # the benchmark's start-up probe reaches the backend through the CLI
        # module, its provenance through simulate: one function under three names
        assert servelab.cli.mc_backend is servelab.mc_backend
        from servelab import simulate

        assert simulate.mc_backend is servelab.mc_backend

    def test_deuce_cap_is_a_data_error(self, capsys, monkeypatch):
        from servelab import simulate

        monkeypatch.setattr(simulate, "_MAX_DEUCE_CYCLES", 1)
        code, _, err = run(
            capsys, "simulate", "--game", "Bj", "--pf", "0.5", "--ps", "0.5", "--n", "50",
        )
        assert code == 3
        assert "deuce cycle cap (1)" in err

    def test_deuce_cap_is_not_a_flag(self, capsys):
        code, out, err = run(
            capsys, "simulate", "--game", "T", "--p", "0.5", "--max-deuce-cycles", "5",
        )
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --max-deuce-cycles 5" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("--game", "Bj", "--pf", "1", "--ps", "0", "--n", "5"),
            ("--game", "B", "--pf", "0", "--ps", "1", "--n", "2"),
        ],
    )
    def test_singular_profile_fails_before_simulating(self, capsys, argv):
        code, out, err = run(capsys, "simulate", *argv)
        assert code == 3
        assert "never terminates" in err
        assert out == ""

    def test_bad_n(self, capsys):
        code, _, _ = run(capsys, "simulate", "--game", "T", "--p", "0.5", "--n", "0")
        assert code == 2

    def test_n_is_capped_before_any_draw(self, capsys, monkeypatch):
        class Reached(ServelabError):
            pass

        def no_draws(sched, prof, cfg):
            raise Reached(f"estimate_metrics ran {cfg.n_games} games")

        monkeypatch.setattr("servelab.simulate.estimate_metrics", no_draws)
        argv = ("simulate", "--game", "T", "--p", "0.5", "--n")
        code, _, err = run(capsys, *argv, str(10**8))
        assert (code, err) == (3, "error: estimate_metrics ran 100000000 games\n")
        code, out, err = run(capsys, *argv, str(10**8 + 1))
        assert (code, out) == (2, "")
        assert "must lie in [1, 100000000], got 100000001" in err

    @pytest.mark.parametrize("argv", [
        ("--game", "B", "--pf", "1", "--ps", "1e-9", "--n", "5000"),
        ("--game", "Bj", "--pf", "1", "--ps", "1e-9", "--n", "1"),
        ("--game", "B", "--pf", "0.99", "--ps", "0.01", "--n", "9890000"),
    ])
    def test_draw_budget_is_kept_before_any_draw(self, capsys, monkeypatch, argv):
        from servelab import _mc_fallback, simulate

        def no_draws(*args):
            raise AssertionError("run_batch was called")

        monkeypatch.setattr(simulate, "run_batch", no_draws)
        monkeypatch.setattr(_mc_fallback, "run_batch", no_draws)
        code, out, err = run(capsys, "simulate", *argv)
        assert (code, out) == (3, "")
        assert err.startswith(f"error: --n {argv[-1]} at ")
        assert err.endswith(" draws, over the budget of 1,000,000,000\n")

    def test_draw_budget_admits_up_to_its_bound(self, capsys, monkeypatch):
        class Reached(ServelabError):
            pass

        def no_draws(sched, prof, cfg):
            raise Reached(f"estimate_metrics ran {cfg.n_games} games")

        monkeypatch.setattr("servelab.simulate.estimate_metrics", no_draws)
        # 101.17 expected points a game: 9,880,000 games need 0.9996e9 draws
        code, _, err = run(capsys, "simulate", "--game", "B", "--pf", "0.99", "--ps", "0.01",
                           "--n", "9880000")
        assert (code, err) == (3, "error: estimate_metrics ran 9880000 games\n")


class TestFit:
    def test_bundled_sample(self, capsys):
        code, out, _ = run(capsys, "fit", SAMPLE)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "rank,name,p_emp,predicted,observed,residual"
        assert len(data_lines(out)) == 7  # header + 6 players
        assert "# rows 6" in out
        fed = next(l for l in lines if l.startswith("1,"))
        assert fed.split(",")[2] == "0.694000"

    def test_names_with_commas_and_quotes_read_back(self, capsys, tmp_path):
        f = tmp_path / "quoted.csv"
        f.write_text(f'{HEADER}\n1,"Federer, R.",0.62,0.77,0.57,0.89\n'
                     '2,"""Rafa"" N",0.68,0.72,0.57,0.87\n3,plain name,0.6,0.7,0.5,0.8\n',
                     encoding="utf-8")
        code, out, err = run(capsys, "fit", str(f))
        assert (code, err) == (0, "")
        rows = list(csv.reader(io.StringIO("\n".join(data_lines(out)))))
        assert {len(r) for r in rows} == {6}
        assert [r[1] for r in rows[1:]] == ["Federer, R.", '"Rafa" N', "plain name"]
        assert any(line.startswith("3,plain name,") for line in out.splitlines())

    def test_json(self, capsys):
        code, out, _ = run(capsys, "fit", SAMPLE, "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["summary"]["n_rows"] == 6
        assert doc["summary"]["max_abs_residual"] < 0.02

    def test_header_only_file(self, capsys, tmp_path):
        f = tmp_path / "empty.csv"
        f.write_text(HEADER + "\n", encoding="utf-8")
        code, _, err = run(capsys, "fit", str(f))
        assert code == 2

    @pytest.mark.parametrize("argv", [("compare",), ("shape", "--low", "1", "--high", "2")])
    def test_header_only_file_in_other_commands(self, capsys, tmp_path, argv):
        f = tmp_path / "empty.csv"
        f.write_text(HEADER + "\n", encoding="utf-8")
        code, out, err = run(capsys, argv[0], str(f), *argv[1:])
        assert (code, out) == (2, "")
        assert err == "usage error: stats file has no data rows\n"

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "fit", str(tmp_path / "nope.csv"))
        assert code == 3
        assert "error" in err

    def test_percentage_rates(self, capsys, tmp_path):
        f = tmp_path / "pct.csv"
        f.write_text(HEADER + "\n1,x,62,0.77,0.57,0.88\n", encoding="utf-8")
        code, _, err = run(capsys, "fit", str(f))
        assert code == 3
        assert "percentages" in err

    def test_garbled_file(self, capsys, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("not,a,stats,file\n", encoding="utf-8")
        code, _, _ = run(capsys, "fit", str(f))
        assert code == 3

    @pytest.mark.parametrize(
        "argv", [("fit",), ("compare",), ("shape", "--low", "1", "--high", "2")]
    )
    def test_non_utf8_file(self, capsys, tmp_path, argv):
        f = tmp_path / "bad.csv"
        f.write_bytes(b"\xff\xfe")
        code, _, err = run(capsys, argv[0], str(f), *argv[1:])
        assert code == 3
        assert "UTF-8" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv", [("fit",), ("compare",), ("shape", "--low", "2", "--high", "1")]
    )
    def test_duplicate_rank_is_one_warning_line(self, capsys, tmp_path, argv):
        f = tmp_path / "dup.csv"
        f.write_text(f"{HEADER}\n1,x,0.62,0.77,0.57,0.88\n2,y,0.6,0.7,0.5,0.8\n"
                     "1,z,0.6,0.75,0.55,0.85\n", encoding="utf-8")
        code, _, err = run(capsys, argv[0], str(f), *argv[1:])
        assert code == 0
        assert err == "warning: duplicate rank 1 in stats table (line 4)\n"

    @pytest.mark.parametrize("argv,err", [
        (("fit", "DUP"), "warning: duplicate rank 1 in stats table (line 3)\n"),
        (("compare", "DUP"), "warning: duplicate rank 1 in stats table (line 3)\n"),
        (("shape", "DUP", "--low", "1", "--high", "1"),
         "warning: duplicate rank 1 in stats table (line 3)\n"),
        (("sweep", "--games", "Bj", "--var", "p_F", "--start", "0.9", "--stop", "1.0",
          "--step", "0.1", "--out", "-"),
         "warning: skipped Bj at 1.000000: tied-region cycle (1.0, 0.0) never terminates "
         "(denominator 0)\n"),
    ], ids=["fit", "compare", "shape", "sweep"])
    def test_error_filter_leaves_a_warning_a_warning(self, capsys, tmp_path, argv, err):
        # as under `python -W error` or PYTHONWARNINGS=error
        f = tmp_path / "dup.csv"
        f.write_text(f"{HEADER}\n1,x,0.62,0.77,0.57,0.88\n1,z,0.6,0.75,0.55,0.85\n",
                     encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, got = run(capsys, *(str(f) if a == "DUP" else a for a in argv))
        assert (code, got) == (0, err)


class TestShape:
    def test_by_name_and_rank(self, capsys):
        code, out, _ = run(
            capsys, "shape", SAMPLE, "--low", "T. Gabashvili", "--high", "1"
        )
        assert code == 0
        assert "p_trad,0.540392" in out
        assert "p_exc,0.606931" in out
        assert "x_low,3.23" in out
        assert "x_high,1.92" in out
        assert "x_recommended,3" in out
        assert "# warning:" in out

    def test_name_lookup_ignores_case(self, capsys):
        code, out, _ = run(
            capsys, "shape", SAMPLE, "--low", "t. gabashvili", "--high", "r. federer"
        )
        assert code == 0
        assert "x_recommended,3" in out

    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "shape", SAMPLE, "--low", "200", "--high", "1", "--json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["low"] == "T. Gabashvili"
        assert doc["x_recommended"] == 3
        assert doc["warning"]

    def test_unknown_player(self, capsys):
        code, _, err = run(capsys, "shape", SAMPLE, "--low", "nobody", "--high", "1")
        assert code == 3
        assert "no player" in err

    def test_bad_band(self, capsys):
        # the band is fixed at 0.60 to 0.75, so no flag sets it
        for flag in ("--p-low", "--p-high"):
            code, out, err = run(capsys, "shape", SAMPLE, "--low", "200", "--high", "1",
                                 flag, "0.6")
            assert (code, out) == (2, "")
            assert f"unrecognized arguments: {flag} 0.6" in err

    def test_cutoff_outside_game_c_is_warned(self, capsys):
        code, out, err = run(capsys, "shape", SAMPLE, "--low", "1", "--high", "1")
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert lines[4:] == [
            "x_recommended,-2",
            "# warning: rounded cutoffs disagree (-2 from 'R. Federer', 2 from 'R. Federer'); "
            "recommending the weaker player's -2; cutoff -2 lies outside game C's 0..6",
        ]


class TestCompare:
    def test_bundled_sample(self, capsys):
        code, out, _ = run(capsys, "compare", SAMPLE)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == (
            "rank,p_emp,p_s_won,p_t,p_c,p_t_br,p_c_br,e_t,e_c,e_t_br,e_c_br"
        )
        assert len(data_lines(out)) == 7
        fed = next(l for l in lines if l.startswith("1,"))
        assert "0.893487" in fed and "0.772460" in fed
        assert "# 3-decimal view" in lines
        assert any(l.startswith("# 7,") and "0.749" in l for l in lines)

    def test_csv_round_trip(self, capsys):
        _, out, _ = run(capsys, "compare", SAMPLE)
        rows = list(csv.DictReader(io.StringIO("\n".join(data_lines(out)))))
        assert len(rows) == 6
        for r in rows:
            assert float(r["p_c"]) < float(r["p_t"])
            assert float(r["e_c"]) > float(r["e_t"])

    def test_json(self, capsys):
        code, out, _ = run(capsys, "compare", SAMPLE, "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["x"] == 3
        assert len(doc["rows"]) == 6

    def test_bad_cutoff(self, capsys):
        code, _, _ = run(capsys, "compare", SAMPLE, "--x", "9")
        assert code == 2

    def test_divergence_exits_4(self, capsys, monkeypatch):
        monkeypatch.setitem(formulas.CLOSED_FORMS, RuleKind.C, (("win_prob", lambda _: 0.0),))
        code, out, err = run(capsys, "compare", SAMPLE)
        assert code == 4
        assert "diverged" in err
        assert out == ""


class TestSweep:
    def test_single_variable_to_stdout(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--games", "A,T", "--start", "0.3", "--stop", "0.7",
            "--step", "0.2", "--out", "-",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "game,metric,p,value"
        # 2 games x 4 metrics x 3 grid points
        assert len(lines) == 1 + 24
        assert "T,bp_prob,0.500000,0.604167" in lines

    def test_two_variable_grid(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--games", "Bj", "--var", "p_F", "--delta", "0.05",
            "--start", "0.5", "--stop", "0.6", "--step", "0.1", "--out", "-",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "game,metric,p_f,p_s,value"
        assert any(l.startswith("Bj,win_prob,0.500000,0.550000,") for l in lines)

    def test_file_and_svg_outputs(self, capsys, tmp_path):
        out_csv = tmp_path / "sweep.csv"
        out_svg = tmp_path / "sweep.svg"
        code, _, _ = run(
            capsys, "sweep", "--games", "C", "--var", "p_F", "--delta", "0.1",
            "--start", "0.55", "--stop", "0.75", "--step", "0.05",
            "--out", str(out_csv), "--svg", str(out_svg),
        )
        assert code == 0
        text = out_csv.read_text(encoding="utf-8")
        assert text.startswith("game,metric,p_f,p_s,value\n")
        dom = minidom.parseString(out_svg.read_text(encoding="utf-8"))
        assert dom.getElementsByTagName("polyline")

    def test_singular_grid_point_is_skipped_with_warning(self, capsys):
        code, out, err = run(
            capsys, "sweep", "--games", "Bj", "--var", "p_F", "--start", "0.8",
            "--stop", "1.0", "--step", "0.1", "--out", "-",
        )
        assert code == 0
        assert "skipped" in err
        assert not any(l.startswith("Bj,win_prob,1.000000,") for l in out.splitlines())

    @pytest.mark.parametrize(
        "argv",
        [
            ("sweep", "--games", "A", "--start", "0.7", "--stop", "0.3",
             "--step", "0.1", "--out", "-"),
            ("sweep", "--games", "A", "--start", "0.3", "--stop", "0.7",
             "--step", "0.0", "--out", "-"),
            ("sweep", "--games", "A,Q", "--start", "0.3", "--stop", "0.7",
             "--step", "0.1", "--out", "-"),
            ("sweep", "--games", "Bj", "--var", "p_F", "--delta", "0.7",
             "--start", "0.5", "--stop", "0.6", "--step", "0.1", "--out", "-"),
            ("sweep", "--games", "Bj", "--var", "p_F", "--delta", "0.4",
             "--start", "0.3", "--stop", "0.6", "--step", "0.1", "--out", "-"),
            ("sweep", "--games", "T", "--start", "0.1", "--stop", "0.2",
             "--step", "0.05", "--delta", "0.1", "--out", "-"),
            ("sweep", "--games", "T", "--start", "0", "--stop", "1",
             "--step", "1e-9", "--out", "-"),
        ],
    )
    def test_usage_errors(self, capsys, argv):
        code, _, _ = run(capsys, *argv)
        assert code == 2

    def test_repeated_game_is_a_usage_error(self, capsys, tmp_path):
        out_csv, out_svg = tmp_path / "o.csv", tmp_path / "o.svg"
        argv = ("sweep", "--games", "A, T,A", "--start", "0.4", "--stop", "0.5",
                "--step", "0.05")
        for outputs in (("--out", "-"), ("--out", str(out_csv), "--svg", str(out_svg))):
            code, out, err = run(capsys, *argv, *outputs)
            assert (code, out) == (2, "")
            assert err == "usage error: game A is named twice in --games\n"
        assert list(tmp_path.iterdir()) == []

    def test_cutoff_is_not_a_flag(self, capsys):
        # game C is swept at its headline cutoff, x = 3
        code, out, err = run(capsys, "sweep", "--games", "C", "--start", "0.4",
                             "--stop", "0.5", "--step", "0.05", "--x", "3", "--out", "-")
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --x 3" in err

    def test_failed_svg_leaves_no_csv(self, capsys, tmp_path):
        out_csv = tmp_path / "o.csv"
        code, out, err = run(
            capsys, "sweep", "--games", "A,T", "--start", "0.3", "--stop", "0.7",
            "--step", "0.1", "--out", str(out_csv), "--svg", str(tmp_path / "no" / "x.svg"),
        )
        assert (code, out) == (3, "")
        assert "No such file or directory" in err
        assert not out_csv.exists()

    def test_failed_svg_keeps_an_existing_csv(self, capsys, tmp_path):
        out_csv = tmp_path / "o.csv"
        older = "older run\n" * 100  # longer than the new CSV below
        out_csv.write_text(older, encoding="utf-8")
        argv = ("sweep", "--games", "A", "--start", "0.3", "--stop", "0.4", "--step", "0.1")
        assert run(capsys, *argv, "--out", str(out_csv), "--svg", str(tmp_path))[0] == 3
        assert out_csv.read_text(encoding="utf-8") == older
        code, printed, _ = run(capsys, *argv, "--out", "-")
        assert code == 0 and len(printed) < len(older)
        assert run(capsys, *argv, "--out", str(out_csv))[0] == 0
        assert out_csv.read_text(encoding="utf-8") == printed

    def test_failed_svg_prints_no_csv(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "sweep", "--games", "A,T", "--start", "0.3", "--stop", "0.7",
            "--step", "0.1", "--out", "-", "--svg", str(tmp_path / "no" / "x.svg"),
        )
        assert (code, out) == (3, "")
        assert err.startswith("error: ")

    def test_closed_stdout_pipe_ends_quietly(self):
        # about 2 MB of CSV, far more than a pipe buffers, so the writer
        # is still writing when the reader goes away after one line
        env = {**os.environ, "PYTHONPATH": str(Path(servelab.__file__).parents[1])}
        proc = subprocess.Popen(
            [sys.executable, "-m", "servelab.cli", "sweep", "--games", "A,T", "--start", "0",
             "--stop", "1", "--step", "1e-4", "--out", "-"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            assert proc.stdout.readline() == b"game,metric,p,value\n"
            proc.stdout.close()
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
            proc.wait()
        assert (proc.returncode, err) == (0, b"")

    def test_finest_allowed_grid(self, capsys):
        code, out, _ = run(capsys, "sweep", "--games", "A", "--start", "0", "--stop", "1",
                           "--step", "1e-5", "--out", "-")
        assert code == 0
        assert len({line.split(",")[2] for line in out.splitlines()[1:]}) == 100_001


def _cell(v, spec=".6f"):
    return "" if v is None else format(v, spec)


def _eval_csv(doc):
    return ["metric,closed_form,engine", *(
        f"{n},{_cell(m['closed_form'])},{_cell(m['engine'])}" for n, m in doc["metrics"].items()
    )]


def _simulate_csv(doc):
    return ["metric,mc_mean,mc_std_err,engine,z", *(
        f"{n},{_cell(m['mc_mean'])},{_cell(m['mc_std_err'])},{_cell(m['engine'])},"
        f"{_cell(m['z'], '+.3f')}" for n, m in doc["metrics"].items()
    )]


def _fit_csv(doc):
    s = doc["summary"]
    return [",".join(doc["rows"][0]), *(
        f"{r['rank']},{r['name']},{_cell(r['p_emp'])},{_cell(r['predicted'])},"
        f"{_cell(r['observed'])},{r['residual']:+.6f}" for r in doc["rows"]
    ), f"# rows {s['n_rows']}", f"# max_abs_residual {s['max_abs_residual']:.6f}",
        f"# mean_residual {s['mean_residual']:+.6f}",
        f"# nonpositive_residuals {s['nonpositive_count']} of {s['n_rows']}"]


def _shape_csv(doc):
    lines = [f"p_trad,{doc['p_trad']:.6f}", f"p_exc,{doc['p_exc']:.6f}",
             f"x_low,{doc['x_low']:.2f}", f"x_high,{doc['x_high']:.2f}",
             f"x_recommended,{doc['x_recommended']}"]
    return lines + ([f"# warning: {doc['warning']}"] if doc["warning"] is not None else [])


def _compare_csv(doc):
    cols = list(doc["rows"][0])
    assert cols[0] == "rank"

    def line(r, spec):
        return ",".join([str(r["rank"]), *(_cell(r[c], spec) for c in cols[1:])])

    return [",".join(cols), *(line(r, ".6f") for r in doc["rows"]), "# 3-decimal view",
            *(f"# {line(r, '.3f')}" for r in doc["rows"])]


class TestCsvMatchesJson:
    """CSV and --json report the same rows: each CSV line is the JSON
    document's values under that column's format."""

    @pytest.mark.parametrize(
        "argv, render",
        [
            (("eval", "--game", "C", "--pf", "0.696", "--ps", "0.55"), _eval_csv),
            (("eval", "--game", "C", "--pf", "0.7", "--ps", "0.5", "--x", "5"), _eval_csv),
            (("eval", "--game", "Bj", "--pf", "0.7", "--ps", "0.6", "--order", "2"), _eval_csv),
            (("eval", "--game", "T", "--p", "0.62"), _eval_csv),
            (("simulate", "--game", "T", "--p", "0.62", "--n", "2000", "--seed", "7"),
             _simulate_csv),
            (("simulate", "--game", "B", "--pf", "0.65", "--ps", "0.6", "--n", "500"),
             _simulate_csv),
            (("simulate", "--game", "C", "--pf", "0.7", "--ps", "0.5", "--n", "1"),
             _simulate_csv),
            (("fit", SAMPLE), _fit_csv),
            (("shape", SAMPLE, "--low", "200", "--high", "1"), _shape_csv),
            (("shape", SAMPLE, "--low", "200", "--high", "7"), _shape_csv),
            (("compare", SAMPLE), _compare_csv),
            (("compare", SAMPLE, "--x", "5"), _compare_csv),
        ],
    )
    def test_same_rows(self, capsys, argv, render):
        code, out, err = run(capsys, *argv)
        json_code, json_out, json_err = run(capsys, *argv, "--json")
        assert (code, err) == (json_code, json_err) == (0, "")
        assert out.splitlines() == render(json.loads(json_out))


def _readme_examples():
    """(argv text, expected stdout) for each `$ servelab ...` block in README.md."""
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    return re.findall(r"^\$ servelab ([^\n]+)\n(.*?)^```", text, re.M | re.S)


class TestReadme:
    def test_examples_print_what_readme_shows(self, capsys, monkeypatch):
        monkeypatch.chdir(Path(__file__).parents[1])  # the examples name repo paths
        examples = _readme_examples()
        assert [cmd.split()[0] for cmd, _ in examples] == ["eval", "shape", "simulate"]
        for cmd, expected in examples:
            assert run(capsys, *shlex.split(cmd)) == (0, expected, ""), cmd


class TestTopLevel:
    def test_import_skips_dataclasses_and_svg(self):
        # importing the CLI loads only errors and types, and naming the
        # backend loads nothing more; each command then imports what it
        # runs, so eval loads neither the simulator nor json
        lazy = ["dataclasses", "json", "csv"] + [
            f"servelab.{m}" for m in
            ("atp", "engine", "formulas", "shaping", "simulate", "_mc_fallback", "svg")
        ]
        code = "\n".join([
            "import contextlib, io, sys, servelab.cli",
            f"lazy = {lazy!r}",
            "print([m for m in lazy if m in sys.modules])",
            "print(servelab.cli.mc_backend(), [m for m in lazy if m in sys.modules])",
            "with contextlib.redirect_stdout(io.StringIO()):",
            "    code = servelab.cli.main(['eval', '--game', 'T', '--p', '0.6'])",
            "print(code, [m for m in lazy if m in sys.modules])",
        ])
        env = {**os.environ, "PYTHONPATH": str(Path(servelab.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.splitlines() == [
            "[]", "pure-python []", "0 ['servelab.engine', 'servelab.formulas']"
        ]

    def test_no_subcommand(self, capsys):
        code, _, err = run(capsys)
        assert code == 2
        assert "subcommand" in err

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 2

    def test_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "eval" in out and "sweep" in out

    def test_options_are_pinned(self):
        # each subcommand's options, and its positional argument if any;
        # ROADMAP's settings inventory lists who varies each of them
        game = {"--game", "--p", "--pf", "--ps", "--x", "--order"}
        expected = {
            "eval": game | {"--json"},
            "sweep": {"--games", "--var", "--start", "--stop", "--step", "--delta",
                      "--out", "--svg"},
            "fit": {"csv", "--json"},
            "shape": {"csv", "--low", "--high", "--json"},
            "compare": {"csv", "--x", "--json"},
            "simulate": game | {"--n", "--seed", "--json"},
        }
        sub = next(a for a in servelab.cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        got = {name: {s for a in p._actions for s in a.option_strings or [a.dest]}
                     - {"-h", "--help"}
               for name, p in sub.choices.items()}
        assert got == expected


def _command(*argv, script=None, stdout=subprocess.PIPE, **popen):
    """Run `python -m servelab.cli argv` with buffered stdout, or the Python
    `script` if given, and return (exit code, stdout, stderr)."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(servelab.__file__).parents[1])
    prog = ["-c", script] if script is not None else ["-m", "servelab.cli", *argv]
    proc = subprocess.run([sys.executable, *prog], env=env, stdout=stdout,
                          stderr=subprocess.PIPE, text=True, timeout=120, **popen)
    return proc.returncode, proc.stdout, proc.stderr


def _files(folder: Path) -> dict:
    return {f.name: f.read_bytes() for f in sorted(folder.iterdir())}


class TestCommandProcess:
    """The servelab process ends through cli.entrypoint, which flushes and
    leaves with os._exit: it prints, writes and exits as main() does."""

    @pytest.mark.parametrize("argv, code", [
        (("eval", "--game", "C", "--pf", "0.696", "--ps", "0.55"), 0),
        (("eval", "--game", "T", "--p", "0.62", "--json"), 0),
        (("eval", "--game", "T"), 2),
        (("sweep", "--games", "A,T", "--start", "0.3", "--stop", "0.7", "--step", "0.1",
          "--out", "OUT/o.csv", "--svg", "OUT/o.svg"), 0),
        (("sweep", "--games", "Bj", "--var", "p_F", "--start", "0.9", "--stop", "1.0",
          "--step", "0.1", "--out", "-"), 0),
        (("fit", SAMPLE), 0),
        (("shape", SAMPLE, "--low", "200", "--high", "1", "--json"), 0),
        (("shape", SAMPLE, "--low", "nobody", "--high", "1"), 3),
        (("compare", "DUP", "--x", "4"), 0),
        (("simulate", "--game", "T", "--p", "0.62", "--n", "2000", "--seed", "7"), 0),
        (("simulate", "--game", "C", "--pf", "0.7", "--ps", "0.5", "--n", "20000", "--json"), 0),
    ], ids=["eval", "eval-json", "usage-error", "sweep-files", "sweep-warning", "fit",
            "shape-json", "data-error", "compare-warning", "simulate", "simulate-sharded"])
    def test_process_matches_main(self, capsys, tmp_path, argv, code):
        # exit code, stdout, stderr and the files written; OUT is a folder
        # of each side's own, and DUP a stats file that warns
        dup = tmp_path / "dup.csv"
        dup.write_text(f"{HEADER}\n1,x,0.62,0.77,0.57,0.88\n1,z,0.6,0.75,0.55,0.85\n",
                       encoding="utf-8")
        got = {}
        for side in ("process", "main"):
            out = tmp_path / side
            out.mkdir()
            args = [str(dup) if a == "DUP" else a.replace("OUT", str(out)) for a in argv]
            ran = _command(*args) if side == "process" else run(capsys, *args)
            got[side] = (*ran, _files(out))
        assert got["process"] == got["main"]
        assert got["main"][0] == code

    @pytest.mark.parametrize("argv", [("--help",), ("eval", "--help")])
    def test_help_into_closed_pipe_exits_zero(self, argv):
        # the help text waits in stdout's buffer until the process ends
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            code, _, err = _command(*argv, stdout=write_end)
        finally:
            os.close(write_end)
        assert (code, err) == (0, "")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no full device")
    @pytest.mark.parametrize("argv, err", [
        (("--help",), ""),
        (("eval", "--game", "T", "--p", "0.6"), "error: [Errno 28] No space left on device\n"),
    ])
    def test_output_lost_on_a_full_device_is_a_data_error(self, argv, err):
        with open("/dev/full", "w") as full:
            assert _command(*argv, stdout=full)[::2] == (3, err)

    def test_closed_stdout_descriptor_keeps_the_code(self):
        # a process started without descriptor 1 has no sys.stdout to flush
        code, _, err = _command("eval", "--game", "T", stdout=subprocess.DEVNULL,
                                preexec_fn=lambda: os.close(1))
        assert (code, err) == (2, "usage error: --p is required for game T\n")

    def test_no_worker_outlives_a_command(self):
        # an exit handler registered after simulate's runs before it and
        # reports the workers that simulate's handler then kills and reaps
        script = (
            "import atexit, sys\n"
            "from servelab import cli, simulate as s\n"
            "s._usable_cpus = lambda: 3\n"
            "s._SHARD_MIN = 100\n"
            "atexit.register(lambda: print(*[w[0] for w in s._workers], file=sys.stderr))\n"
            "sys.argv = ['servelab', 'simulate', '--game', 'T', '--p', '0.62', '--n', '1000']\n"
            "cli.entrypoint()\n"
        )
        code, out, err = _command(script=script)
        assert (code, out.splitlines()[0]) == (0, "metric,mc_mean,mc_std_err,engine,z")
        pids = [int(pid) for pid in err.split()]
        assert len(pids) == 2
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)


# Number strings for every numeric flag: valid values that keep each run
# short, plus the non-finite, subnormal, huge and malformed kinds.  No pool
# value makes a near-singular profile (which would make `simulate` play
# astronomically long games), and every valid --step is >= 0.05.
_WEIRD = ("nan", "inf", "-inf", str(2**64), "junk", "", "-1", "0x10", "1e308")
_prob = st.sampled_from(("0", "1", "0.5", "0.3", "5e-324")) | st.sampled_from(_WEIRD)
_num = st.sampled_from(("1", "2", "3", "0x10")) | st.sampled_from(_WEIRD)
_small_n = st.sampled_from(("1", "7", "50", "nan", "inf", "5e-324", "0", "junk"))
_step = st.sampled_from(("0.05", "0.1", "0.25")) | st.sampled_from(_WEIRD + ("5e-324", "0"))
_json = st.sampled_from(([], ["--json"]))


def _flag(flag, values):
    return values.map(lambda v: [flag, v])


def _rare(flag, values):
    """Usually nothing, sometimes [flag, value]."""
    return st.integers(0, 5).flatmap(lambda i: _flag(flag, values) if i == 3 else st.just([]))


def _concat(*parts):
    """One argv list from strategies that each draw a list of arguments."""
    return st.tuples(*parts).map(lambda ps: [a for p in ps for a in p])


def _game_flags(game):
    if game in ("A", "T"):
        probs = _flag("--p", _prob)
    else:
        probs = _concat(_flag("--pf", _prob), _flag("--ps", _prob))
    return _concat(
        st.just(["--game", game]), probs, _rare("--p", _prob), _rare("--pf", _prob),
        _rare("--x", _num), _rare("--order", _num),
    )


def _argv(csv_paths, out_paths, svg_paths):
    game = st.sampled_from(("A", "Bj", "T", "B", "C", "Z")).flatmap(_game_flags)
    csv = csv_paths.map(lambda p: [p])
    games = st.sampled_from(("A", "T,Bj", "B,C", "Z", "", "A,,T", "C,C"))
    return st.one_of(
        _concat(st.just(["eval"]), game, _json),
        _concat(st.just(["simulate"]), game, _flag("--n", _small_n), _rare("--seed", _num),
                _json),
        _concat(st.just(["sweep"]), _flag("--games", games),
                _rare("--var", st.sampled_from(("p", "p_F", "q"))),
                _flag("--start", st.sampled_from(("0", "0.3")) | _prob),
                _flag("--stop", st.sampled_from(("0.6", "1")) | _prob),
                _flag("--step", _step), _rare("--delta", _prob),
                _flag("--out", out_paths), _rare("--svg", svg_paths)),
        _concat(st.just(["fit"]), csv, _json),
        _concat(st.just(["shape"]), csv,
                _flag("--low", st.sampled_from(("1", "6", "99", "junk", "nan"))),
                _flag("--high", st.sampled_from(("1", "2", "99", "junk", "inf"))),
                _json),
        _concat(st.just(["compare"]), csv, _rare("--x", _num), _json),
    )


class TestArgvFuzz:
    """Every argv ends in a documented exit code, never in a traceback."""

    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_exit_codes_are_documented(self, capsys, tmp_path, data):
        junk = tmp_path / "junk.csv"
        junk.write_bytes(b"rank,name\n1,nan,\xff\n")
        csv_paths = st.sampled_from((SAMPLE, str(junk), str(tmp_path / "missing.csv")))
        out_paths = st.sampled_from(("-", str(tmp_path / "o.csv"), str(tmp_path / "no" / "o.csv")))
        svg_paths = st.sampled_from((str(tmp_path / "s.svg"), str(tmp_path)))
        argv = data.draw(_argv(csv_paths, out_paths, svg_paths))
        code, _, err = run(capsys, *argv)
        assert code in (0, 2, 3, 4), (argv, code, err)
        assert "Traceback" not in err, argv


class TestHugeIntegers:
    """A well-formed integer past int()'s digit limit is out of range, and
    its digits are not repeated."""

    @pytest.mark.parametrize("value", ["1" + "0" * 5000, "-" + "9" * 5000],
                             ids=["10**5000", "-(10**5000-1)"])
    @pytest.mark.parametrize("flag", ["--seed", "--n"])
    def test_integer_flag(self, capsys, flag, value):
        code, out, err = run(capsys, "simulate", "--game", "T", "--p", "0.5", flag, value)
        assert (code, out) == (2, "")
        assert len(err.encode()) < 300 and "Traceback" not in err
        digits = len(value.lstrip("-"))
        assert f"argument {flag}: out of range: an integer of {digits} digits" in err


def _ends(head: str, tail: str, length: int, noun: str = "repr") -> str:
    """How a refusal shows a value whose repr is longer than 200 characters,
    or main a message longer than 250."""
    return f"{head}...{tail} (a {noun} of {length} characters)"


class TestLongValues:
    """A refused value of any length gives a short message: its repr's ends
    and its length, or a well-formed integer's digit count."""

    _ROW = "1,X,0.6,0.7,0.5,0.8"

    @pytest.mark.parametrize("argv,stats,code,message", [
        (["simulate", "--game", "T", "--p", "0.5", "--seed", "1" * 5000 + "x"], None, 2,
         "usage error: argument --seed: not an integer: "
         + _ends("'" + "1" * 49, "1" * 48 + "x'", 5003)),
        (["eval", "--game", "T", "--p", "0." + "5" * 4998 + "x"], None, 2,
         "usage error: argument --p: not a number: "
         + _ends("'0." + "5" * 47, "5" * 48 + "x'", 5003)),
        (["sweep", "--games", "T," + "Q" * 50_000, "--start", "0.1", "--stop", "0.9",
          "--step", "0.1", "--out", "-"], None, 2,
         "usage error: unknown game " + _ends("'" + "Q" * 49, "Q" * 49 + "'", 50_002)
         + " (choose from A,Bj,T,B,C)"),
        (["shape", SAMPLE, "--low", "z" * 50_000, "--high", "1"], None, 3,
         "error: no player matching " + _ends("'" + "z" * 49, "z" * 49 + "'", 50_002)
         + " in the stats file"),
        (["fit", "STATS"], "a," * 100_000, 3,
         f"error: line 1: expected header {HEADER}, got "
         + _ends("'" + "a," * 24 + "a", "," + "a," * 24 + "'", 200_002)),
        (["fit", "STATS"], f"{HEADER}\n{'7' * 6000},X,0.6,0.7,0.5,0.8", 3,
         "error: line 2: rank out of range: an integer of 6000 digits"),
        (["fit", "STATS"], f"{HEADER}\n{'r' * 6000},X,0.6,0.7,0.5,0.8", 3,
         "error: line 2: rank must be an integer, got "
         + _ends("'" + "r" * 49, "r" * 49 + "'", 6002)),
        (["fit", "STATS"], f"{HEADER}\n-{'9' * 4000},X,0.6,0.7,0.5,0.8", 3,
         "error: line 2: rank must be >= 1, got " + _ends("-" + "9" * 49, "9" * 50, 4001)),
        (["compare", "STATS"], f"{HEADER}\n1,X,{'p' * 6000},0.7,0.5,0.8", 3,
         "error: line 2: p_f_in must be a decimal, got "
         + _ends("'" + "p" * 49, "p" * 49 + "'", 6002)),
        # argparse words this one, with the whole value in it
        (["eval", "--game", "G" * 1000, "--p", "0.5"], None, 2,
         "usage error: " + _ends("argument --game: invalid choice: '" + "G" * 28,
                                 "G" * 22 + "' (choose from 'A', 'Bj', 'T', 'B', 'C')",
                                 1074, "message")),
    ], ids=["simulate --seed", "eval --p", "sweep --games", "shape --low", "header",
            "huge rank", "long rank", "long negative rank", "long rate", "long message"])
    def test_message_is_short(self, capsys, tmp_path, argv, stats, code, message):
        if stats is not None:
            path = tmp_path / "stats.csv"
            path.write_text(stats + "\n", encoding="utf-8")
            argv = [str(path) if a == "STATS" else a for a in argv]
        got, out, err = run(capsys, *argv)
        assert (got, out) == (code, "")
        assert "Traceback" not in err and len(err.encode()) < 300
        assert err == message + "\n"

    def test_duplicate_long_rank_warning_is_short(self, capsys, tmp_path):
        rank = "9" * 4000
        path = tmp_path / "stats.csv"
        path.write_text(f"{HEADER}\n{rank},X,0.6,0.7,0.5,0.8\n{rank},Y,0.6,0.7,0.5,0.8\n",
                        encoding="utf-8")
        code, _, err = run(capsys, "fit", str(path))
        assert code == 0
        assert err == ("warning: duplicate rank " + _ends("9" * 50, "9" * 50, 4000)
                       + " in stats table (line 3)\n")


def _subparsers() -> dict:
    sub = next(a for a in servelab.cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return sub.choices


# a valid argv for each subcommand, its positional first
_VALID = {
    "eval": ["--game", "C", "--pf", "0.7", "--ps", "0.5"],
    "simulate": ["--game", "T", "--p", "0.5", "--n", "10"],
    "sweep": ["--games", "A", "--start", "0.3", "--stop", "0.4", "--step", "0.1", "--out", "-"],
    "fit": [SAMPLE],
    "shape": [SAMPLE, "--low", "200", "--high", "1"],
    "compare": [SAMPLE],
}
_JUNK = "z" * 50_000


def _one_long_value():
    """(id, argv): the valid argv of a subcommand with one argument's value
    replaced by (or, for an absent option, given) _JUNK, for every argument
    of every subcommand, and _JUNK as the subcommand name."""
    yield "command", [_JUNK]
    for name, parser in _subparsers().items():
        base = _VALID[name]
        for action in parser._actions:
            if action.nargs == 0:  # --help, --json
                continue
            if not action.option_strings:
                yield f"{name} {action.dest}", [name, _JUNK, *base[1:]]
                continue
            flag = action.option_strings[0]
            if flag in base:
                at = base.index(flag) + 1
                yield f"{name} {flag}", [name, *base[:at], _JUNK, *base[at + 1:]]
            else:
                yield f"{name} {flag}", [name, *base, flag, _JUNK]


class TestEveryArgument:
    """Each argument of each subcommand refuses a 50,000-character value in
    a short message, whoever words it: servelab, argparse or the OS."""

    @pytest.mark.parametrize("argv", [pytest.param(argv, id=i) for i, argv in _one_long_value()])
    def test_long_value_is_refused_briefly(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv)
        assert code in (2, 3) and out == ""
        assert err.startswith(("usage error: ", "error: ")) and err.endswith("\n")
        assert len(err.encode()) < 300, err[:300]
        assert list(tmp_path.iterdir()) == []

    def test_valid_argv_runs(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for name, base in _VALID.items():
            assert run(capsys, name, *base)[0] == 0, name


# every numeric flag: (subcommand, flag, lo, hi)
_NUMERIC_FLAGS = [
    ("eval", "--p", 0, 1), ("eval", "--pf", 0, 1), ("eval", "--ps", 0, 1),
    ("eval", "--x", 0, 6), ("eval", "--order", 1, 2),
    ("simulate", "--p", 0, 1), ("simulate", "--pf", 0, 1), ("simulate", "--ps", 0, 1),
    ("simulate", "--x", 0, 6), ("simulate", "--order", 1, 2),
    ("simulate", "--n", 1, 10**8), ("simulate", "--seed", 0, 2**64 - 1),
    ("sweep", "--start", 0, 1), ("sweep", "--stop", 0, 1), ("sweep", "--step", 0, 1),
    ("sweep", "--delta", 0, 0.5),
    ("compare", "--x", 0, 6),
]
_INTEGER_FLAGS = {"--x", "--order", "--n", "--seed"}
# what each subcommand's parser requires besides the flag under test
_REQUIRED = {
    "eval": ["--game", "T"],
    "simulate": ["--game", "T"],
    "sweep": ["--games", "A", "--start", "0", "--stop", "1", "--step", "0.5", "--out", "-"],
    "compare": [SAMPLE],
}


class TestNumericFlags:
    """Each numeric flag's range, read by argparse alone, so that a valid
    --n 100000000 plays nothing."""

    def test_table_lists_every_numeric_flag(self):
        typed = {(name, a.option_strings[0]) for name, p in _subparsers().items()
                 for a in p._actions if a.type is not None}
        assert typed == {(name, flag) for name, flag, _, _ in _NUMERIC_FLAGS}
        assert len(_NUMERIC_FLAGS) == 17

    @staticmethod
    def _refusal(capsys, name, flag, text):
        code, out, err = run(capsys, name, *_REQUIRED[name], f"{flag}={text}")
        assert (code, out) == (2, "")
        return err

    @pytest.mark.parametrize("name,flag,lo,hi", _NUMERIC_FLAGS)
    def test_range(self, capsys, name, flag, lo, hi):
        parser = servelab.cli.build_parser()
        dest = flag.lstrip("-")
        for v in (lo, hi):
            args = parser.parse_args([name, *_REQUIRED[name], f"{flag}={v}"])
            assert getattr(args, dest) == v
        integer = flag in _INTEGER_FLAGS
        outside = (lo - 1, hi + 1) if integer else (math.nextafter(lo, -math.inf),
                                                     math.nextafter(hi, math.inf))
        for v in outside:
            err = self._refusal(capsys, name, flag, repr(v))
            assert err == f"usage error: argument {flag}: must lie in [{lo}, {hi}], got {v}\n"
        for text in ("nan", "inf"):
            err = self._refusal(capsys, name, flag, text)
            expected = (f"not an integer: {text!r}" if integer
                        else f"must lie in [{lo}, {hi}], got {text}")
            assert err == f"usage error: argument {flag}: {expected}\n"
        if integer:
            err = self._refusal(capsys, name, flag, "1.5")
            assert err == f"usage error: argument {flag}: not an integer: '1.5'\n"

    def test_seed_is_decimal(self, capsys):
        parser = servelab.cli.build_parser()
        argv = ["simulate", "--game", "T", "--seed"]
        assert parser.parse_args([*argv, "010"]).seed == 10
        assert parser.parse_args([*argv, "1_000"]).seed == 1000
        for text in ("0x10", "0o7", "0b1"):
            err = self._refusal(capsys, "simulate", "--seed", text)
            assert err == f"usage error: argument --seed: not an integer: {text!r}\n"


# tokens a damaged or hand-edited stats file may hold
_STATS_TOKENS = (b"nan", b"NaN", b"inf", b"-inf", b"1e308", b"-0.5", b"\xef\xbb\xbf", b"\x00",
                 b'"', b'""', b"'", b",", b"\n", b"\r\n", b"\r", b"#", b"\xff", b"\xc3", b" ", b"")


def _mutate(rng, data: bytes) -> bytes:
    """One to four random edits: a token put in or over some bytes, a
    field replaced by a token, or a few bytes deleted."""
    data = bytearray(data)
    for _ in range(rng.randint(1, 4)):
        kind = rng.random()
        at = rng.randrange(len(data) + 1)
        if kind < 0.3:
            data[at:at] = rng.choice(_STATS_TOKENS)
        elif kind < 0.55:
            data[at:at + rng.randint(1, 8)] = rng.choice(_STATS_TOKENS)
        elif kind < 0.85:
            lines = bytes(data).split(b"\n")
            row = rng.randrange(len(lines))
            fields = lines[row].split(b",")
            fields[rng.randrange(len(fields))] = rng.choice(_STATS_TOKENS)
            lines[row] = b",".join(fields)
            data = bytearray(b"\n".join(lines))
        else:
            del data[at:at + rng.randint(1, 16)]
    return bytes(data)


class TestStatsFileFuzz:
    """A damaged stats file ends in exit code 0, 2 or 3, never a traceback."""

    @pytest.mark.parametrize("seed", range(3))
    def test_mutated_sample(self, capsys, tmp_path, seed):
        import random

        rng = random.Random(seed)
        sample = Path(SAMPLE).read_bytes()
        path = tmp_path / "stats.csv"
        for _ in range(80):
            path.write_bytes(_mutate(rng, sample))
            for argv in (("fit",), ("compare",), ("shape", "--low", "200", "--high", "1")):
                code, _, err = run(capsys, argv[0], str(path), *argv[1:])
                assert code in (0, 2, 3), (path.read_bytes(), argv, code, err)
                assert "Traceback" not in err, (path.read_bytes(), argv)

    @pytest.mark.parametrize("row", [
        "1,{},0.6,0.7,0.5,0.6".format("x" * 131_073),  # one past csv.field_size_limit()
        "1," + "9" * 2**20,  # a 1 MB line
    ], ids=["field 131073", "line 1MB"])
    def test_oversize_row(self, capsys, tmp_path, row):
        path = tmp_path / "stats.csv"
        path.write_text(f"{HEADER}\n{row}\n", encoding="utf-8")
        for argv in (("fit",), ("compare",), ("shape", "--low", "200", "--high", "1")):
            code, out, err = run(capsys, argv[0], str(path), *argv[1:])
            assert (code, out) == (3, ""), (argv, err[:300])
            assert "line 2: " in err and "Traceback" not in err
            assert len(err.encode()) < 300


class TestStatsFileEncoding:
    """Stats files as spreadsheets export them, read from disk."""

    @pytest.mark.parametrize("comments", [True, False])
    @pytest.mark.parametrize("argv", [("fit",), ("fit", "--json"), ("compare",),
                                      ("shape", "--low", "200", "--high", "1")])
    def test_utf8_bom_is_ignored(self, capsys, tmp_path, argv, comments):
        text = Path(SAMPLE).read_text(encoding="utf-8")
        if not comments:  # the byte-order mark then sits right before the header
            text = "".join(l for l in text.splitlines(True) if not l.startswith("#"))
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_text(text, encoding="utf-8")
        bom.write_text(text, encoding="utf-8-sig")
        expected = run(capsys, argv[0], str(plain), *argv[1:])
        assert expected[0] == 0
        assert run(capsys, argv[0], str(bom), *argv[1:]) == expected
