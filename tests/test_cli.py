"""End-to-end CLI tests: outputs, formats, exit codes."""

import argparse
import csv
import hashlib
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
from servelab import _cli_shared, formulas
from servelab.atp import sample_path
from servelab.cli import main
from servelab.errors import ServelabError
from servelab.shaping import CompareRow
from servelab.types import RuleKind

HEADER = "rank,name,p_f_in,p_f_won,p_s_won,p_t_won"
SAMPLE = str(sample_path())


class _Writes(io.StringIO):
    """A stdout that keeps the text of each write."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


def _stats_table(folder: Path, n: int) -> str:
    """The path of an n-row stats table written in folder."""
    path = folder / "stats.csv"
    path.write_text(HEADER + "\n" + "".join(f"{i},p{i},0.6,0.75,0.5,0.8\n"
                                            for i in range(1, n + 1)), encoding="utf-8")
    return str(path)


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

    @pytest.mark.parametrize("flags, digest", [
        ((), "601f3013bb65ba64a22b88317b466d0d5903290f166ab13a3083b0a78744e008"),
        (("--json",), "d2926148ab2d57f8c5a30b6a2f6c69aefaf56a48a3c70699ce0aeaa2b1e0a8f0"),
    ], ids=["csv", "json"])
    def test_output_bytes(self, capsys, flags, digest):
        code, out, err = run(capsys, "fit", SAMPLE, *flags)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

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

    @pytest.mark.parametrize("flags, digest", [
        ((), "a3cbd2d9c1e6d0bd32ea68a4ca3c52826564338b26b69ff528e8e609e625c88d"),
        (("--json",), "f9165cc827b56fbff288fe66d3cee93a70a380eb8e252dcfd1edbc80168a0b23"),
    ], ids=["csv", "json"])
    def test_builds_only_its_output(self, capsys, monkeypatch, flags, digest):
        # the CSV output builds no row dict; both outputs keep their bytes
        if not flags:
            def refuse(row):
                raise AssertionError("CSV output built a row dict")

            monkeypatch.setattr(CompareRow, "_asdict", refuse)
        code, out, err = run(capsys, "compare", SAMPLE, *flags)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("name, digest, lines", [
        ("fit", "601f3013bb65ba64a22b88317b466d0d5903290f166ab13a3083b0a78744e008", 11),
        ("compare", "a3cbd2d9c1e6d0bd32ea68a4ca3c52826564338b26b69ff528e8e609e625c88d", 14),
    ])
    def test_csv_is_written_in_chunks(self, capsys, monkeypatch, name, digest, lines):
        # _CHUNK_PIECES lines a write, and the bytes of one whole write
        out = _Writes()
        monkeypatch.setattr(_cli_shared, "_CHUNK_PIECES", 4)
        monkeypatch.setattr(sys, "stdout", out)
        assert (main([name, SAMPLE]), capsys.readouterr().err) == (0, "")
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest
        assert [w.count("\n") for w in out.writes] == [4] * (lines // 4) + [lines % 4]

    @pytest.mark.parametrize("name", ["fit", "compare"])
    def test_json_is_written_in_few_writes(self, capsys, monkeypatch, tmp_path, name):
        # a 2,000-row document: json.dump made one write per encoder chunk,
        # 56,031 for fit and 96,013 for compare; 4,096 chunks a write make
        # 14 and 24
        out = _Writes()
        monkeypatch.setattr(sys, "stdout", out)
        assert (main([name, _stats_table(tmp_path, 2000), "--json"]),
                capsys.readouterr().err) == (0, "")
        assert len(json.loads(out.getvalue())["rows"]) == 2000
        assert len(out.writes) <= 30

    def test_json_rows_are_built_as_written(self, monkeypatch, tmp_path):
        # each row dict is made as the encoder reaches it, so the last is
        # made after the first writes have gone out
        out, asdict, made = _Writes(), CompareRow._asdict, []
        monkeypatch.setattr(CompareRow, "_asdict",
                            lambda row: (made.append(len(out.writes)), asdict(row))[1])
        monkeypatch.setattr(sys, "stdout", out)
        assert main(["compare", _stats_table(tmp_path, 2000), "--json"]) == 0
        assert len(made) == 2000 and made[0] == 0 and made[-1] > 0

    def test_closed_stdout_pipe_ends_quietly(self, tmp_path):
        # about 800 kB of CSV in many writes; the reader goes after one line
        env = {**os.environ, "PYTHONPATH": str(Path(servelab.__file__).parents[1])}
        proc = subprocess.Popen([sys.executable, "-m", "servelab.cli", "compare",
                                 _stats_table(tmp_path, 5000)],
                                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            assert proc.stdout.readline().startswith(b"rank,")
            proc.stdout.close()
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
            proc.wait()
        assert (proc.returncode, err) == (0, b"")

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
        # importing the CLI loads only errors and types, no handler module,
        # and naming the backend loads nothing more; each command then
        # imports its family's handler module and what it runs, so eval
        # loads neither the simulator nor json
        lazy = ["dataclasses", "json", "csv"] + [
            f"servelab.{m}" for m in
            ("atp", "engine", "formulas", "shaping", "simulate", "_mc_fallback", "svg",
             "_cli_game", "_cli_stats", "_cli_sweep")
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
            "[]", "pure-python []",
            "0 ['servelab.engine', 'servelab.formulas', 'servelab._cli_game']",
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


def _command(*argv, script=None, unbuffered=False, **popen):
    """Run `python -m servelab.cli argv`, or the Python `script` if given,
    with PYTHONUNBUFFERED=1 or unset, and return (exit code, stdout,
    stderr); a stream that popen does not send to a pipe reads None."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(servelab.__file__).parents[1])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    prog = ["-c", script] if script is not None else ["-m", "servelab.cli", *argv]
    proc = subprocess.run([sys.executable, *prog], env=env, text=True, timeout=120,
                          **{"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **popen})
    return proc.returncode, proc.stdout, proc.stderr


def _files(folder: Path) -> dict:
    return {f.name: f.read_bytes() for f in sorted(folder.iterdir())}


class TestCommandProcess:
    """The servelab process ends through cli.entrypoint, which leaves with
    os._exit: it prints, writes and exits as main() does."""

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
        # a refusal from each handler module's family
        (("sweep", "--games", "A", "--start", "0.5", "--stop", "0.4", "--step", "0.1",
          "--out", "-"), 2),
        (("compare", "EMPTY"), 2),
        (("simulate", "--game", "B", "--pf", "1", "--ps", "1e-9", "--n", "5000"), 3),
    ], ids=["eval", "eval-json", "usage-error", "sweep-files", "sweep-warning", "fit",
            "shape-json", "data-error", "compare-warning", "simulate", "simulate-sharded",
            "sweep-usage-error", "compare-no-rows", "simulate-data-error"])
    def test_process_matches_main(self, capsys, tmp_path, argv, code):
        # exit code, stdout, stderr and the files written; OUT is a folder
        # of each side's own, DUP a stats file that warns, and EMPTY one
        # with a header and no rows
        stats = {"DUP": tmp_path / "dup.csv", "EMPTY": tmp_path / "empty.csv"}
        stats["DUP"].write_text(f"{HEADER}\n1,x,0.62,0.77,0.57,0.88\n1,z,0.6,0.75,0.55,0.85\n",
                                encoding="utf-8")
        stats["EMPTY"].write_text(f"{HEADER}\n", encoding="utf-8")
        got = {}
        for side in ("process", "main"):
            out = tmp_path / side
            out.mkdir()
            args = [str(stats[a]) if a in stats else a.replace("OUT", str(out)) for a in argv]
            ran = _command(*args) if side == "process" else run(capsys, *args)
            got[side] = (*ran, _files(out))
        assert got["process"] == got["main"]
        assert got["main"][0] == code

    @pytest.mark.parametrize("argv", [("--help",), ("eval", "--help")])
    def test_help_into_closed_pipe_exits_zero(self, argv):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            got = {_command(*argv, unbuffered=u, stdout=write_end) for u in (True, False)}
        finally:
            os.close(write_end)
        assert got == {(0, None, "")}

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no full device")
    @pytest.mark.parametrize("argv, err", [
        (("--help",), "error: [Errno 28] No space left on device\n"),
        (("eval", "--game", "T", "--p", "0.6"), "error: [Errno 28] No space left on device\n"),
    ])
    def test_output_lost_on_a_full_device_is_a_data_error(self, argv, err):
        with open("/dev/full", "w") as full:
            got = {_command(*argv, unbuffered=u, stdout=full) for u in (True, False)}
        assert got == {(3, None, err)}

    def test_main_leaves_a_closed_stdout_pipe_in_place(self):
        # a library caller's stdout is a pipe whose reader has gone: main()
        # ends with code 0 and does not repoint the caller's descriptor
        script = (
            "import os, stat, sys\n"
            "from servelab.cli import main\n"
            "code = main(['eval', '--game', 'T', '--p', '0.6'])\n"
            "fifo = stat.S_ISFIFO(os.fstat(sys.stdout.fileno()).st_mode)\n"
            "print(code, fifo, file=sys.stderr, flush=True)\n"
            "os._exit(0)\n"
        )
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            code, _, err = _command(script=script, stdout=write_end)
        finally:
            os.close(write_end)
        assert (code, err) == (0, "0 True\n")

    def test_closed_stdout_descriptor_keeps_the_code(self):
        # a refusal writes nothing on stdout, so a process started without
        # descriptor 1 (sys.stdout is None) loses nothing
        got = {_command("eval", "--game", "T", unbuffered=u, stdout=subprocess.DEVNULL,
                        preexec_fn=lambda: os.close(1)) for u in (True, False)}
        assert got == {(2, None, "usage error: --p is required for game T\n")}

    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize("stderr", ["closed", "read-only"])
    def test_closed_stderr_loses_only_its_lines(self, tmp_path, stderr, unbuffered):
        # descriptor 2 closed (sys.stderr is None), or open on a file that
        # takes no write (each write fails with EBADF): the refusal, the
        # warning and "interrupted" are lost, and stdout and the code are
        # those of a process whose stderr is open
        dup = tmp_path / "dup.csv"
        dup.write_text(f"{HEADER}\n1,x,0.62,0.77,0.57,0.88\n1,z,0.6,0.75,0.55,0.85\n",
                       encoding="utf-8")
        interrupt = ("from servelab import cli\n"
                     "def main():\n"
                     "    raise KeyboardInterrupt\n"
                     "cli.main = main\n"
                     "cli.entrypoint()\n")
        for argv, script, code in [(["eval", "--game", "Z"], None, 2),
                                   (["fit", str(tmp_path / "missing.csv")], None, 3),
                                   (["fit", str(dup)], None, 0),
                                   ([], interrupt, 130)]:
            code_open, out_open, err_open = _command(*argv, script=script)
            assert code_open == code and err_open, argv
            with open(os.devnull, "rb") as read_only:
                if stderr == "closed":
                    popen = dict(stderr=subprocess.DEVNULL, preexec_fn=lambda: os.close(2))
                else:
                    popen = dict(stderr=read_only)
                got = _command(*argv, script=script, unbuffered=unbuffered, **popen)
            assert got == (code, out_open, None), argv or script

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

    def test_interrupt_exits_130_and_reaps_the_workers(self):
        # Ctrl-C lands in the parent's own range, once its two workers are
        # forked and sent theirs; the parent prints the workers' pids first
        script = (
            "import os, sys\n"
            "from servelab import cli, simulate as s\n"
            "s._usable_cpus = lambda: 3\n"
            "s._SHARD_MIN = 100\n"
            "parent, play = os.getpid(), s.run_batch\n"
            "def run_batch(*args):\n"
            "    if os.getpid() != parent:\n"
            "        return play(*args)\n"
            "    print(*[w[0] for w in s._workers], flush=True)\n"
            "    raise KeyboardInterrupt\n"
            "s.run_batch = run_batch\n"
            "sys.argv = ['servelab', 'simulate', '--game', 'T', '--p', '0.62', '--n', '1000']\n"
            "cli.entrypoint()\n"
        )
        code, out, err = _command(script=script)
        assert (code, err) == (130, "interrupted\n")
        pids = [int(pid) for pid in out.split()]
        assert len(pids) == 2
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)


# a command for each subcommand that prints, --help and a refusal
_STREAM_ARGV = {
    "eval": ["eval", "--game", "C", "--pf", "0.696", "--ps", "0.55"],
    "eval-json": ["eval", "--game", "T", "--p", "0.62", "--json"],
    "sweep": ["sweep", "--games", "A,T", "--start", "0.3", "--stop", "0.7", "--step", "0.1",
              "--out", "-"],
    "fit": ["fit", SAMPLE],
    "shape": ["shape", SAMPLE, "--low", "200", "--high", "1"],
    "compare": ["compare", SAMPLE],
    "simulate": ["simulate", "--game", "T", "--p", "0.62", "--n", "2000"],
    "help": ["--help"],
    "refusal": ["eval", "--game", "T"],
}
_LOST = {"closed": "[Errno 9] stdout is closed", "full": "[Errno 28] No space left on device"}


class TestStreamStates:
    """Each state of stdout or stderr ends each command with one documented
    code and no traceback, whether PYTHONUNBUFFERED is set or not.  Output
    stdout cannot take (closed, full) is lost: code 3 and one error line.
    A stdout whose reader has gone is code 0.  A stderr in any of these
    states loses only its own lines."""

    @pytest.mark.parametrize("state", [
        "closed",
        pytest.param("full", marks=pytest.mark.skipif(not os.path.exists("/dev/full"),
                                                      reason="no full device")),
        "gone",
    ])
    @pytest.mark.parametrize("stream", ["stdout", "stderr"])
    @pytest.mark.parametrize("name", list(_STREAM_ARGV))
    def test_one_code_whatever_the_buffering(self, capsys, monkeypatch, name, stream, state):
        monkeypatch.setenv("COLUMNS", "80")  # help's width, here and in each child
        argv = _STREAM_ARGV[name]
        code, out, err = run(capsys, *argv)  # both streams healthy
        read_end, write_end = os.pipe()
        os.close(read_end)  # a pipe whose reader has gone
        try:
            with open("/dev/full" if state == "full" else os.devnull, "w") as full:
                popen = {stream: {"closed": subprocess.DEVNULL, "full": full,
                                  "gone": write_end}[state]}
                if state == "closed":
                    fd = 1 if stream == "stdout" else 2
                    popen["preexec_fn"] = lambda: os.close(fd)
                got = {_command(*argv, unbuffered=u, **popen) for u in (True, False)}
        finally:
            os.close(write_end)
        if stream == "stderr":
            assert got == {(code, out, None)}
        elif code == 2:  # a refusal prints nothing on stdout
            assert got == {(2, None, err)}
        elif state == "gone":
            assert got == {(0, None, "")}
        else:
            assert got == {(3, None, f"error: {_LOST[state]}\n")}

    @pytest.mark.parametrize("state", [
        "closed",
        pytest.param("full", marks=pytest.mark.skipif(not os.path.exists("/dev/full"),
                                                      reason="no full device")),
        "gone",
    ])
    @pytest.mark.parametrize("older", [None, "an older chart\n" * 400], ids=["absent", "older"])
    def test_lost_csv_leaves_the_chart_as_it_was(self, tmp_path, state, older):
        # sweep opens its files, then writes stdout, then replaces the files
        chart = tmp_path / "f.svg"
        argv = [*_STREAM_ARGV["sweep"], "--svg", str(chart)]
        want = {} if older is None else {"f.svg": older.encode()}
        read_end, write_end = os.pipe()
        os.close(read_end)  # a pipe whose reader has gone
        try:
            with open("/dev/full" if state == "full" else os.devnull, "w") as full:
                popen = {"stdout": {"closed": subprocess.DEVNULL, "full": full,
                                    "gone": write_end}[state]}
                if state == "closed":
                    popen["preexec_fn"] = lambda: os.close(1)
                for unbuffered in (True, False):
                    if older is not None:
                        chart.write_text(older, encoding="utf-8")
                    got = _command(*argv, unbuffered=unbuffered, **popen)
                    if state == "gone":
                        assert got == (0, None, "")
                    else:
                        assert got == (3, None, f"error: {_LOST[state]}\n")
                    assert _files(tmp_path) == want
        finally:
            os.close(write_end)


def _address_space_limit():
    """Cap the child's address space at 1 GiB, so a read without end fails
    fast; the test process keeps its own limit."""
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


class TestStatsSourceBound:
    """A stats source past atp._MAX_SOURCE_BYTES, 4 MiB, is a data error
    that reads no further, in a process whose memory is capped."""

    def test_one_byte_over_the_bound(self, tmp_path):
        bound = 4 * 2**20  # the README's
        path = tmp_path / "big.csv"
        rows = f"{HEADER}\n" + "".join(f"{rank},x,0.62,0.77,0.57,0.88\n"
                                       for rank in range(1, bound // 30))
        # valid to the last byte, so only the bound refuses it
        path.write_text(rows + "#" * (bound - len(rows)) + "\n", encoding="utf-8")
        assert path.stat().st_size == bound + 1
        code, out, err = _command("fit", str(path), preexec_fn=_address_space_limit)
        assert (code, out, err) == (3, "", "error: stats file is larger than 4,194,304 bytes\n")

    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no zero device")
    @pytest.mark.parametrize("argv", [
        ("fit",), ("compare",), ("shape", "--low", "1", "--high", "2"),
    ])
    def test_endless_source(self, argv):
        code, out, err = _command(argv[0], "/dev/zero", *argv[1:],
                                  preexec_fn=_address_space_limit)
        assert (code, out, err) == (3, "", "error: stats file is larger than 4,194,304 bytes\n")


# Largest peak allowed, the process's own VmHWM, for `compare --json` on the
# largest stats table read: 100.7 MiB measured (103,100 kB; 135 MB when
# every row became a dict before the first write)
_COMPARE_JSON_PEAK_KB = 120 * 1024


class TestCommandPeakMemory:
    """A command on the largest table it reads stays under a peak-memory
    bound, read by the child from its own /proc/self/status: under pytest,
    RUSAGE_CHILDREN reports pytest's own peak."""

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="no /proc")
    def test_compare_json_on_a_4_mib_table(self, tmp_path):
        rows = [line.split(",", 1)[1] for line in Path(SAMPLE).read_text().splitlines()
                if line and not line.startswith(("#", "rank,"))]
        bound = 4 * 2**20  # the README's largest stats source
        parts, size = [f"{HEADER}\n"], len(HEADER) + 1
        while True:  # the sample's rows cycled, ranked 1..n, up to the bound
            line = f"{len(parts)},{rows[(len(parts) - 1) % len(rows)]}\n"
            if size + len(line) > bound:
                break
            parts.append(line)
            size += len(line)
        path = tmp_path / "big.csv"
        path.write_text("".join(parts), encoding="utf-8")
        assert bound - 40 < path.stat().st_size <= bound and len(parts) > 100_000
        script = ("import sys\n"
                  "from servelab.cli import main\n"
                  f"code = main(['compare', {str(path)!r}, '--json'])\n"
                  "peak = [l for l in open('/proc/self/status') if l.startswith('VmHWM:')]\n"
                  "print(code, peak[0].split()[1], file=sys.stderr)\n")
        code, _, err = _command(script=script, stdout=subprocess.DEVNULL)
        status, peak_kb = err.split()
        assert (code, status) == (0, "0")
        assert int(peak_kb) <= _COMPARE_JSON_PEAK_KB


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


# the servelab modules each subcommand's _VALID argv loads, besides the
# package, errors, types and _cli_shared, which every command loads
_LOADS = {
    "eval": {"_cli_game", "engine", "formulas"},
    "simulate": {"_cli_game", "engine", "simulate", "_mc_fallback"},
    "sweep": {"_cli_sweep", "engine"},
    "fit": {"_cli_stats", "atp", "formulas"},
    "shape": {"_cli_stats", "atp", "formulas", "shaping"},
    "compare": {"_cli_stats", "atp", "formulas", "engine", "shaping"},
}


class TestImportGraph:
    """A command compiles its own family's handler module and the library
    modules it runs, and never servelab.cli a second time."""

    @pytest.mark.parametrize("name", list(_VALID))
    def test_command_loads_only_its_family(self, name):
        # run as `python -m servelab.cli` does: cli's code under another
        # name, not registered as servelab.cli, so that a handler module
        # that imported servelab.cli would load it
        code = "\n".join([
            "import contextlib, io, runpy, sys",
            "cli = runpy.run_module('servelab.cli', run_name='cli_main')",
            "with contextlib.redirect_stdout(io.StringIO()):",
            f"    code = cli['main']({[name, *_VALID[name]]!r})",
            "print(code, *sorted(m for m in sys.modules if m.startswith('servelab')))",
        ])
        env = {**os.environ, "PYTHONPATH": str(Path(servelab.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, "")
        code, *loaded = proc.stdout.split()
        everyone = {"servelab", "servelab.errors", "servelab.types", "servelab._cli_shared"}
        assert (code, set(loaded)) == ("0", everyone | {f"servelab.{m}" for m in _LOADS[name]})


class TestHelpText:
    """main prints each help as build_parser prints it, and argparse's help
    screens and refusals read byte for byte as pinned: the sha256 of each
    help at 80 columns, and the line of each refusal."""

    @pytest.mark.parametrize("argv", [["--help"], *([name, "--help"] for name in _VALID)])
    def test_same_as_the_full_parser(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal
        with pytest.raises(SystemExit):
            servelab.cli.build_parser().parse_args(argv)
        full = capsys.readouterr().out
        assert full.startswith("usage: servelab ")
        assert run(capsys, *argv) == (0, full, "")

    @pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                        reason="argparse words its help as Python 3.11 does")
    @pytest.mark.parametrize("command, digest", [
        (None, "d411deabfcbf398ecb8e2a474c292619b18886b8e4d4a58e848f0623fbe7ffa4"),
        ("eval", "98566f8607b2b45a0567aa4626a12b7672f1e646d7565cee894827f409eaa581"),
        ("simulate", "f51c1a177f858474ffa284b8455b5511d3d3f2c731e9efa8f4964f49c72ca29f"),
        ("sweep", "098947a8d3863b4ea644895a449cf1d6daed8affd118db7f8ec996bc7b94efb4"),
        ("fit", "1b75c8a2112faad37159ea5c0f698a4090c82230260d9e25d684630bb9ae33f0"),
        ("shape", "e0fabd66905135766d67ee572e43c281acc2bc489f8ebfd0fec56891d35a280d"),
        ("compare", "822cc4598279d195f6a0b5d13aa00ee950d6738e6f50f0e1a9feb085c761fc4d"),
    ])
    def test_help_is_pinned(self, capsys, monkeypatch, command, digest):
        monkeypatch.setenv("COLUMNS", "80")
        code, out, err = run(capsys, *([command] if command else []), "--help")
        assert (code, hashlib.sha256(out.encode()).hexdigest(), err) == (0, digest, "")

    @pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                        reason="argparse words its refusals as Python 3.11 does")
    @pytest.mark.parametrize("argv, message", [
        (["sweep", "--s", "0"], "ambiguous option: --s could match --start, --stop, --step, --svg"),
        (["eval", "--game", "T", "--p", "0.5", "extra"], "unrecognized arguments: extra"),
        (["eval", "--game", "T", "--", "--p", "0.5"], "unrecognized arguments: -- --p 0.5"),
        (["eval", "--p", "0.5"], "the following arguments are required: --game"),
        (["fit"], "the following arguments are required: csv"),
        (["eval", "--game"], "argument --game: expected one argument"),
        (["eval", "--game", "Z", "--p", "0.5"],
         "argument --game: invalid choice: 'Z' (choose from 'A', 'Bj', 'T', 'B', 'C')"),
        (["eval", "--game", "T", "--p=2"], "argument --p: must lie in [0, 1], got 2.0"),
        (["nosuch"], "argument command: invalid choice: 'nosuch' (choose from 'eval', "
                     "'sweep', 'fit', 'shape', 'compare', 'simulate')"),
    ], ids=["ambiguous", "unrecognized", "double-dash", "missing-flag", "missing-csv",
            "no-value", "game-choice", "joined-value", "unknown-subcommand"])
    def test_refusal_is_pinned(self, capsys, argv, message):
        assert run(capsys, *argv) == (2, "", f"usage error: {message}\n")


# argvs of the shapes the cli-session benchmark workload runs
_SESSION = [
    ["eval", "--game", "A", "--p", "0.613"],
    ["eval", "--game", "Bj", "--pf", "0.702", "--ps", "0.488"],
    ["eval", "--game", "T", "--p", "0.613"],
    ["eval", "--game", "B", "--pf", "0.702", "--ps", "0.488", "--order", "2"],
    ["eval", "--game", "C", "--pf", "0.702", "--ps", "0.488", "--x", "0"],
    ["sweep", "--games", "A,Bj,T,B,C", "--var", "p_F", "--start", "0.412", "--stop", "0.912",
     "--step", "0.01", "--delta", "0.043", "--out", "o.csv", "--svg", "o.svg"],
    ["fit", SAMPLE],
    ["compare", SAMPLE, "--x", "6"],
    ["shape", "stats.csv", "--low", "300", "--high", "1"],
    ["simulate", "--game", "C", "--pf", "0.7", "--ps", "0.5", "--n", "2000",
     "--seed", str(2**64 - 1)],
]


def _variant(argv, data):
    """argv with one option token abbreviated, joined to its value with "=",
    or with the token after it replaced by one that starts with "-"."""
    at = [i for i, a in enumerate(argv) if a.startswith("--")]
    if not at:
        return argv
    i = data.draw(st.sampled_from(at))
    flag, rest = argv[i], argv[i + 1:]
    kind = data.draw(st.sampled_from(("abbreviate", "join", "dash")))
    if kind == "abbreviate" and len(flag) > 3:
        flag = flag[:data.draw(st.integers(3, len(flag) - 1))]
    elif kind == "join" and rest:
        flag, rest = f"{flag}={rest[0]}", rest[1:]
    elif kind == "dash":
        rest = [data.draw(st.sampled_from(("-", "-1", "-0.5", "-x", "--", "--json", "-h"))),
                *rest[1:]]
    return [*argv[:i], flag, *rest]


def _argparse_vars(argv):
    """vars() of argparse's namespace for argv, or None where it refuses
    argv or prints a help."""
    try:
        return vars(servelab.cli.build_parser().parse_args(argv))
    except (_cli_shared._UsageError, SystemExit):
        return None


class TestPlainParse:
    """main parses a plain argv without argparse, into the namespace
    argparse makes of it, and leaves every other argv to argparse."""

    @settings(max_examples=600, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_agrees_with_argparse(self, capsys, data):
        paths = st.sampled_from(("x.csv", "-", "", "csv", "a b"))
        argv = data.draw(_argv(paths, paths, paths))
        if data.draw(st.booleans()):
            argv = _variant(argv, data)
        plain = servelab.cli._plain_args(argv[0], argv[1:])
        if plain is not None:
            assert vars(plain) == _argparse_vars(argv), argv

    @pytest.mark.parametrize("argv", [
        *_SESSION, *([name, *base] for name, base in _VALID.items()),
        *(shlex.split(cmd) for cmd, _ in _readme_examples()),
        ["fit", "-", "--json"], ["sweep", "--out", "-", "--games", "", "--step", "1",
                                 "--stop", "1", "--start", "0", "--var", "p"],
        ["eval", "--game", "T", "--p", "0.1", "--p", "0.2", "--json", "--json"],
    ], ids=lambda argv: argv[0])
    def test_accepts_plain_argv(self, argv):
        plain = servelab.cli._plain_args(argv[0], argv[1:])
        assert plain is not None
        assert vars(plain) == _argparse_vars(argv)

    @pytest.mark.parametrize("argv", [
        ["eval", "--game", "T", "--p=0.5"], ["eval", "--gam", "T", "--p", "0.5"],
        ["eval", "--game", "T", "--p", "-0.5"], ["eval", "--game", "T", "--", "--p", "0.5"],
        ["eval", "--game", "T", "--p", "0.5", "--help"], ["eval", "--game", "Z", "--p", "0.5"],
        ["eval", "--game", "T", "--p", "2"], ["eval", "--p", "0.5"], ["eval", "--game"],
        ["fit"], ["fit", "a.csv", "b.csv"], ["fit", "-x"], ["eval", "--game", "T", "extra"],
        ["shape", "s.csv", "--low", "-x", "--high", "1"],
        ["sweep", "--games", "A", "--start", "0", "--stop", "1", "--step", "0.5"],
    ], ids=lambda argv: " ".join(argv))
    def test_declines_the_rest(self, argv):
        assert servelab.cli._plain_args(argv[0], argv[1:]) is None


def _loaded(argv, tmp_path) -> set:
    """The modules a `python -m servelab.cli argv` child imports, read from
    its -X importtime report."""
    env = {**os.environ, "PYTHONPATH": str(Path(servelab.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "servelab.cli", *argv],
                          env=env, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    return {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")}


class TestParserImports:
    """A plain argv loads no argparse, nor json without --json, and no
    command loads html, nor signal unless it has shard workers to kill;
    --help and a refusal load argparse, and shape no exact engine."""

    @pytest.mark.parametrize("argv", [
        *([name, *base] for name, base in _VALID.items()),
        ["sweep", "--games", "A", "--start", "0.3", "--stop", "0.4", "--step", "0.1",
         "--out", "o.csv", "--svg", "o.svg"],
    ], ids=[*_VALID, "sweep-svg"])
    def test_plain_argv_loads_no_argparse(self, tmp_path, argv):
        loaded = _loaded(argv, tmp_path)
        assert "servelab._cli_shared" in loaded  # the report is read
        assert {"argparse", "html", "json", "signal"} & loaded == set()

    @pytest.mark.parametrize("argv", [["--help"], ["eval", "--help"],
                                      ["eval", "--game", "T", "--p", "2"]])
    def test_help_and_refusal_load_argparse(self, tmp_path, argv):
        assert "argparse" in _loaded(argv, tmp_path)

    def test_shape_compiles_no_engine(self, tmp_path):
        loaded = _loaded(["shape", *_VALID["shape"]], tmp_path)
        assert "servelab.shaping" in loaded and "servelab.engine" not in loaded


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
