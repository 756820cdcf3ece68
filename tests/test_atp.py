import io

import pytest

from servelab.atp import (
    _MAX_SOURCE_BYTES,
    PlayerStats,
    fit_report,
    load_sample,
    p_emp,
    parse_stats,
    sample_path,
)
from servelab.errors import ParseError, RangeError
from servelab.formulas import p_win_T

HEADER = "rank,name,p_f_in,p_f_won,p_s_won,p_t_won"


def parse_text(text):
    return parse_stats(io.StringIO(text))


class TestParse:
    def test_happy_path(self):
        rows = parse_text(
            f"# leading comment\n\n{HEADER}\n"
            "1,R. Federer,0.62,0.77,0.57,0.88\n"
            "# interleaved comment\n"
            "  200 , T. Gabashvili , 0.57 , 0.70 , 0.48 , 0.74 \n"
        )
        assert len(rows) == 2
        assert rows[0] == PlayerStats(1, "R. Federer", 0.62, 0.77, 0.57, 0.88)
        assert rows[1].rank == 200
        assert rows[1].name == "T. Gabashvili"
        assert rows[1].p_s_won == 0.48

    def test_header_case_insensitive(self):
        rows = parse_text(f"{HEADER.upper()}\n3,x,0.5,0.5,0.5,0.5\n")
        assert rows[0].rank == 3

    def test_quoted_name_with_comma(self):
        rows = parse_text(f'{HEADER}\n5,"Last, First",0.6,0.7,0.5,0.8\n')
        assert rows[0].name == "Last, First"

    def test_missing_header(self):
        with pytest.raises(ParseError, match="header"):
            parse_text("1,x,0.5,0.5,0.5,0.5\n")

    def test_empty_input(self):
        with pytest.raises(ParseError, match="no header"):
            parse_text("# only a comment\n")

    def test_wrong_header_reports_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_text("# c\nrank,name,oops\n")

    def test_wrong_field_count_reports_line(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_text(f"# c\n{HEADER}\n1,x,0.5,0.5\n")

    def test_bad_rank(self):
        with pytest.raises(ParseError, match="rank"):
            parse_text(f"{HEADER}\nseven,x,0.5,0.5,0.5,0.5\n")
        with pytest.raises(ParseError, match="rank"):
            parse_text(f"{HEADER}\n0,x,0.5,0.5,0.5,0.5\n")

    def test_non_numeric_rate(self):
        with pytest.raises(ParseError, match="p_f_won"):
            parse_text(f"{HEADER}\n1,x,0.5,high,0.5,0.5\n")

    def test_percentage_style_rate_rejected(self):
        with pytest.raises(RangeError, match="line 2.*percentages"):
            parse_text(f"{HEADER}\n1,x,0.62,77,0.5,0.5\n")

    def test_non_utf8_input(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_bytes(b"\xff\xfe")
        with pytest.raises(ParseError, match="UTF-8"):
            parse_stats(f)
        with open(f, encoding="utf-8") as fh:
            with pytest.raises(ParseError, match="UTF-8"):
                parse_stats(fh)

    def test_duplicate_rank_warns(self):
        text = f"{HEADER}\n1,x,0.5,0.5,0.5,0.5\n1,y,0.6,0.6,0.6,0.6\n"
        with pytest.warns(UserWarning, match="duplicate rank 1"):
            rows = parse_text(text)
        assert len(rows) == 2

    def test_utf8_bom_in_open_file(self):
        text = f"{HEADER}\n9,z,0.6,0.7,0.5,0.8\n"
        assert parse_text("\ufeff" + text) == parse_text(text)

    def test_path_input(self, tmp_path):
        f = tmp_path / "stats.csv"
        f.write_text(f"{HEADER}\n9,z,0.6,0.7,0.5,0.8\n", encoding="utf-8")
        assert parse_stats(f)[0].rank == 9

    def test_source_bound(self, tmp_path):
        # a source of _MAX_SOURCE_BYTES is read; one byte more is refused,
        # from a path and from an open file alike
        head = f"{HEADER}\n9,z,0.6,0.7,0.5,0.8\n#"
        for size, fits in ((_MAX_SOURCE_BYTES, True), (_MAX_SOURCE_BYTES + 1, False)):
            text = head + "x" * (size - len(head) - 1) + "\n"
            f = tmp_path / "stats.csv"
            f.write_text(text, encoding="utf-8")
            assert f.stat().st_size == size
            for source in (f, io.StringIO(text)):
                if fits:
                    assert [r.rank for r in parse_stats(source)] == [9]
                    continue
                with pytest.raises(ParseError) as info:
                    parse_stats(source)
                assert str(info.value) == "stats file is larger than 4,194,304 bytes"


class TestBlend:
    def test_federer_anchor(self):
        s = PlayerStats(1, "F", 0.62, 0.77, 0.57, 0.88)
        assert p_emp(s) == pytest.approx(0.694, abs=0.0005)

    def test_gabashvili_anchor(self):
        s = PlayerStats(200, "G", 0.57, 0.70, 0.48, 0.74)
        assert p_emp(s) == pytest.approx(0.6054, abs=1e-12)

    def test_all_first_serves_in(self):
        s = PlayerStats(7, "x", 1.0, 0.696, 0.55, 0.896)
        assert p_emp(s) == pytest.approx(0.696, abs=1e-15)

    def test_never_in_falls_back_to_second_serve(self):
        s = PlayerStats(7, "x", 0.0, 0.9, 0.41, 0.5)
        assert p_emp(s) == pytest.approx(0.41, abs=1e-15)


class TestFitReport:
    def test_prediction_is_the_game_model(self):
        s = PlayerStats(1, "x", 1.0, 0.62, 0.5, 0.9)
        rows, _ = fit_report([s])
        assert rows[0].p_emp == pytest.approx(0.62, abs=1e-15)
        assert rows[0].predicted == p_win_T(0.62)
        assert rows[0].residual == pytest.approx(0.9 - p_win_T(0.62), abs=1e-15)

    def test_exact_match_gives_zero_residual(self):
        pred = p_win_T(0.62)
        s = PlayerStats(1, "x", 1.0, 0.62, 0.5, pred)
        rows, summary = fit_report([s])
        assert rows[0].residual == 0.0
        assert summary.max_abs_residual == 0.0
        assert summary.nonpositive_count == 1
        assert summary.n_rows == 1

    def test_summary_aggregation(self):
        a = PlayerStats(1, "a", 1.0, 0.6, 0.5, p_win_T(0.6) + 0.02)
        b = PlayerStats(2, "b", 1.0, 0.7, 0.5, p_win_T(0.7) - 0.04)
        _, summary = fit_report([a, b])
        assert summary.max_abs_residual == pytest.approx(0.04, abs=1e-12)
        assert summary.mean_residual == pytest.approx(-0.01, abs=1e-12)
        assert summary.nonpositive_count == 1
        assert summary.n_rows == 2

    def test_empty_rejected(self):
        with pytest.raises(RangeError):
            fit_report([])


class TestBundledSample:
    def test_loads_and_ranks(self):
        rows = load_sample()
        assert len(rows) == 6
        assert [r.rank for r in rows] == [1, 7, 27, 107, 187, 200]

    def test_named_players(self):
        rows = {r.name: r for r in load_sample()}
        fed = rows["R. Federer"]
        assert (fed.p_f_in, fed.p_f_won, fed.p_s_won, fed.p_t_won) == (
            0.62, 0.77, 0.57, 0.88,
        )
        gab = rows["T. Gabashvili"]
        assert (gab.p_f_in, gab.p_f_won, gab.p_s_won, gab.p_t_won) == (
            0.57, 0.70, 0.48, 0.74,
        )

    def test_sample_path_exists(self):
        assert sample_path().is_file()

    def test_fit_on_sample_is_reasonable(self):
        rows, summary = fit_report(load_sample())
        assert summary.n_rows == 6
        assert summary.max_abs_residual < 0.02
