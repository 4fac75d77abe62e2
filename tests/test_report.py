import re
from decimal import Decimal
from fractions import Fraction

import pytest

from ballotlab.rational import (
    MAX_EXPONENT,
    decimal_string,
    exact_rational,
    fraction_token,
    percent_string,
)
from ballotlab.report import (
    CSV,
    JSON_LINES,
    TABLE,
    Cell,
    Column,
    Report,
    emit_range_plot_data,
    emit_table,
)


class TestDecimalRendering:
    def test_round_half_up(self):
        assert decimal_string(Fraction(1, 8), 2) == "0.13"
        assert decimal_string(Fraction(1, 4), 1) == "0.3"
        assert decimal_string(Fraction(-1, 8), 2) == "-0.13"

    def test_published_percentages(self):
        assert percent_string(Fraction(101438, 165104)) == "61.44%"
        assert percent_string(Fraction(88126, 167612)) == "52.58%"
        assert percent_string(Fraction(91375, 177572)) == "51.46%"

    def test_four_place_threshold(self):
        assert decimal_string(Fraction(21738, 62291), 4) == "0.3490"
        assert decimal_string(1 + Fraction(21738, 62291), 3) == "1.349"

    def test_fraction_token(self):
        assert fraction_token(Fraction(3, 2)) == "3/2"
        assert fraction_token(Fraction(4, 2)) == "2"
        assert fraction_token(7) == "7"


class TestExactRational:
    @pytest.mark.parametrize("value", [Decimal("NaN"), Decimal("Infinity"), Decimal("-Infinity")])
    def test_non_finite_decimal_is_not_rational(self, value):
        with pytest.raises(ValueError, match=re.escape(f"x is not a rational number: {value!r}")):
            exact_rational(value, "x")

    @pytest.mark.parametrize("value", [
        "1e-30000000", " 1E+4301 ", "-2.5e4301", Decimal("1e-30000000"), Decimal("1e4301"),
    ])
    def test_exponent_past_the_bound_is_refused_before_converting(self, value):
        with pytest.raises(ValueError, match="^x has a decimal exponent outside ±4300: "):
            exact_rational(value, "x")

    @pytest.mark.parametrize("value", [f"1e-{MAX_EXPONENT}", Decimal(f"1e-{MAX_EXPONENT}")])
    def test_exponent_at_the_bound_converts(self, value):
        assert exact_rational(value, "x") == Fraction(1, 10**MAX_EXPONENT)


def small_report() -> Report:
    report = Report(
        title="Example",
        columns=(Column("candidate"), Column("votes", "int"), Column("share", "percent")),
    )
    report.add("Alpha", 3, Fraction(3, 4))
    report.add("Beta", 1, Fraction(1, 4))
    return report


class TestEmitTable:
    def test_csv_shape(self):
        out = emit_table(small_report(), CSV).decode()
        assert out == "candidate,votes,share\nAlpha,3,3/4\nBeta,1,1/4\n"

    def test_empty_report_is_header_only(self):
        report = Report("Empty", (Column("candidate"), Column("votes", "int")))
        assert emit_table(report, CSV).decode() == "candidate,votes\n"
        assert emit_table(report, JSON_LINES) == b""

    def test_json_lines(self):
        out = emit_table(small_report(), JSON_LINES).decode().splitlines()
        assert out[0] == '{"candidate":"Alpha","votes":3,"share":"3/4"}'

    def test_table_renders_percent(self):
        out = emit_table(small_report(), TABLE).decode()
        assert "75.00%" in out and "25.00%" in out

    def test_integral_fraction_collapses_to_int(self):
        report = Report("X", (Column("value", "decimal2"),))
        report.add(Fraction(10, 2))
        assert emit_table(report, CSV).decode() == "value\n5\n"

    def test_cell_override(self):
        report = Report("X", (Column("item"), Column("value")))
        report.add("share", Cell(Fraction(1, 2), "percent"))
        assert "50.00%" in emit_table(report, TABLE).decode()

    def test_row_width_checked(self):
        with pytest.raises(ValueError):
            small_report().add("only-one-cell")

    def test_notes_only_in_table_mode(self):
        report = small_report()
        report.notes.append("note: hello")
        assert b"note: hello" in emit_table(report, TABLE)
        assert b"hello" not in emit_table(report, CSV)
        assert b"hello" not in emit_table(report, JSON_LINES)


class TestUnknownNames:
    def test_column_kind(self):
        with pytest.raises(ValueError, match="^unknown column kind 'ratio'$"):
            Column("share", "ratio")

    def test_output_format(self):
        with pytest.raises(ValueError, match="^unknown output format 'xml'$"):
            emit_table(small_report(), "xml")


class TestRangePlotData:
    def test_approval_segments(self, alaska_profile):
        out = emit_range_plot_data(
            {"Begich": 54157, "Palin": 59055, "Peltola": 75895},
            alaska_profile,
            1,
        ).decode()
        lines = out.splitlines()
        assert lines[0] == "candidate,segment,source,value"
        assert "Begich,base,,54157" in lines
        assert "Begich,potential,Palin,34117" in lines
        assert "Begich,potential,Peltola,47429" in lines

    def test_star_segments_span_three_stars(self, alaska_profile):
        out = emit_range_plot_data(
            {"Begich": 352331, "Palin": 327260, "Peltola": 398730},
            alaska_profile,
            3,
        ).decode()
        assert "Begich,potential,Palin,102351" in out     # 3 x 34,117
        assert "Begich,potential,Peltola,142287" in out   # 3 x 47,429

    def test_segments_sum_to_maximum(self, alaska_profile):
        from ballotlab import approval_range

        rng = approval_range(alaska_profile)
        out = emit_range_plot_data(rng.minimum, alaska_profile, 1).decode()
        totals: dict[str, int] = {}
        for line in out.splitlines()[1:]:
            candidate, _, _, value = line.split(",")
            totals[candidate] = totals.get(candidate, 0) + int(value)
        assert totals == rng.maximum
