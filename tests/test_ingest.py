"""Claim CSV ingestion, panel statistics, canonical serialization."""

import csv
import datetime as dt
import io
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from paretopool import (Distortion, LossPanel, choquet, correlation,
                        parse_losses, summary_stats, to_space)
from paretopool.errors import DomainError, FormatError
from paretopool.ingest import ParseReport, load_panel, write_panel

SIX_ROW_FIXTURE = """dateOfLoss,state,amountPaid
2020-01-05,CA,100
2020-01-20,TX,40
2020-02-11,CA,7
2020-03-02,TX,12
2020-03-15,CA,3
2020-03-28,TX,8
"""


# -- parse_losses -------------------------------------------------------------


def test_same_cell_rows_are_summed():
    text = ("dateOfLoss,state,amountPaid\n"
            "2020-01-05,CA,3\n"
            "2020-01-20,CA,4\n")
    panel, report = parse_losses(text)
    assert panel.losses[0, 0] == 7.0
    assert report.used_rows == 2 and not report.rejected


def test_empty_body_yields_empty_panel():
    panel, report = parse_losses("dateOfLoss,state,amountPaid\n")
    assert panel.month_count == 0
    assert panel.agents == ()
    assert report.total_rows == 0


def test_six_row_fixture_aggregates_to_3x2():
    panel, report = parse_losses(SIX_ROW_FIXTURE)
    assert panel.months == ((2020, 1), (2020, 2), (2020, 3))
    assert panel.agents == ("CA", "TX")
    expected = np.array([[100.0, 40.0], [7.0, 0.0], [3.0, 20.0]])
    assert np.array_equal(panel.losses, expected)
    assert report.used_rows == 6


def test_missing_column_is_format_error():
    with pytest.raises(FormatError):
        parse_losses("dateOfLoss,region,amountPaid\n2020-01-05,CA,1\n")
    with pytest.raises(FormatError):
        parse_losses("")


def test_bad_rows_are_rejected_with_reasons():
    text = ("dateOfLoss,state,amountPaid\n"
            "not-a-date,CA,5\n"
            "2020-01-05,,5\n"
            "2020-01-06,CA,abc\n"
            "2020-01-07,CA,-3\n"
            "2020-01-08,CA,\n"
            "2020-01-09,CA,2\n")
    panel, report = parse_losses(text)
    assert report.total_rows == 6
    assert report.used_rows == 2        # empty loss counts as zero
    reasons = " | ".join(r for _, r in report.rejected)
    assert "bad date" in reasons
    assert "empty agent" in reasons
    assert "non-numeric" in reasons
    assert "invalid loss" in reasons
    assert panel.losses[0, 0] == 2.0


def test_gap_months_become_zero_states():
    text = ("dateOfLoss,state,amountPaid\n"
            "2020-01-05,CA,10\n"
            "2020-04-05,CA,20\n")
    panel, _ = parse_losses(text)
    assert panel.months == ((2020, 1), (2020, 2), (2020, 3), (2020, 4))
    assert list(panel.losses[:, 0]) == [10.0, 0.0, 0.0, 20.0]


def test_configurable_loss_column():
    text = ("dateOfLoss,state,amountPaid,buildingDamageAmount\n"
            "2020-01-05,CA,1,99\n")
    panel, _ = parse_losses(text, loss_column="buildingDamageAmount")
    assert panel.losses[0, 0] == 99.0


def test_aggregation_is_row_order_independent():
    rng = np.random.default_rng(61)
    header, *rows = SIX_ROW_FIXTURE.strip().split("\n")
    for _ in range(5):
        shuffled = list(rows)
        rng.shuffle(shuffled)
        a, _ = parse_losses("\n".join([header] + shuffled) + "\n")
        b, _ = parse_losses(SIX_ROW_FIXTURE)
        assert a.months == b.months and a.agents == b.agents
        assert np.array_equal(a.losses, b.losses)


# -- parse_losses against the csv.DictReader parser it replaced ---------------


def _dictreader_reference(text, loss_column="amountPaid"):
    """The per-row csv.DictReader parser that parse_losses replaced, kept
    as an oracle: (panel, report)."""
    reader = csv.DictReader(io.StringIO(text))
    header = reader.fieldnames
    if header is None:
        raise FormatError("empty input: no header row")
    for needed in ("dateOfLoss", "state", loss_column):
        if needed not in header:
            raise FormatError(f"missing required column '{needed}'")
    sums = {}
    total = used = 0
    rejected = []
    for row in reader:
        total += 1
        line = reader.line_num
        raw_date = (row.get("dateOfLoss") or "").strip()
        try:
            date = dt.date.fromisoformat(raw_date[:10])
        except ValueError:
            rejected.append((line, f"bad date {raw_date!r}"))
            continue
        agent = (row.get("state") or "").strip()
        if not agent:
            rejected.append((line, "empty agent label"))
            continue
        raw_loss = (row.get(loss_column) or "").strip()
        if raw_loss == "":
            loss = 0.0
        else:
            try:
                loss = float(raw_loss)
            except ValueError:
                rejected.append((line, f"non-numeric loss {raw_loss!r}"))
                continue
        if not math.isfinite(loss) or loss < 0.0:
            rejected.append((line, f"invalid loss {loss!r}"))
            continue
        used += 1
        cell = sums.setdefault((date.year, date.month), {})
        cell[agent] = cell.get(agent, 0.0) + loss
    report = ParseReport(total, used, tuple(rejected))
    if not sums:
        return LossPanel((), (), np.zeros((0, 0))), report
    (y0, m0), (y1, m1) = min(sums), max(sums)
    months = tuple((k // 12, k % 12 + 1) for k in range(12 * y0 + m0 - 1, 12 * y1 + m1))
    agents = tuple(sorted({a for cell in sums.values() for a in cell}))
    losses = np.array([[sums.get(month, {}).get(a, 0.0) for a in agents]
                       for month in months])
    return LossPanel(months, agents, losses), report


def _assert_matches_reference(text, loss_column="amountPaid"):
    try:
        expected, report = _dictreader_reference(text, loss_column)
    except (FormatError, DomainError) as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            parse_losses(text, loss_column)
        return
    panel, got = parse_losses(text, loss_column)
    assert got == report
    assert panel.months == expected.months and panel.agents == expected.agents
    assert panel.losses.shape == expected.losses.shape
    assert panel.losses.tobytes() == expected.losses.tobytes()


EDGE_CASES = {
    "blank lines": ("dateOfLoss,state,amountPaid\n\n2020-01-05,CA,1\n\n\n"
                    "bad,CA,2\n\n2020-03-01,TX,3\n\n"),
    "short and long rows": ("dateOfLoss,state,amountPaid\n2020-01-05,CA\n"
                            "2020-01-06\n2020-02-01,TX,4,extra,more\nx\n"),
    "duplicated header": ("state,dateOfLoss,amountPaid,state\n"
                          "XX,2020-01-05,1,CA\nXX,2020-01-06,2\n"
                          "YY,2020-02-01,3,TX,9\n"),
    "quoted newlines": ('dateOfLoss,state,amountPaid\n"2020-01-05",CA,"1\n"\n'
                        '"2020-\n01-06",CA,2\n2020-01-07,"C\nA",3\n'
                        '2020-01-08,"",4\n'),
    "padded whitespace": ("dateOfLoss,state,amountPaid\n  2020-01-05 , CA ,  7 \n"
                          "2020-01-06T12:00,CA\u00a0,\u20038\u2003\n"
                          "\t2020-01-07,\tTX, \n"),
    "bad dates": ("dateOfLoss,state,amountPaid\n2020-02-30,CA,1\n2020-13-01,CA,1\n"
                  "20200105,CA,1\n2020-1-5,CA,1\n,CA,1\n  nope ,CA,1\n2020-01-05,CA,1\n"),
    "empty labels": "dateOfLoss,state,amountPaid\n2020-01-05,,1\n2020-01-05,  ,1\n",
    "losses": ("dateOfLoss,state,amountPaid\n2020-01-05,CA,\n2020-01-05,CA,abc\n"
               "2020-01-05,CA,-3\n2020-01-05,CA,inf\n2020-01-05,CA,nan\n"
               "2020-01-05,CA,-0\n2020-01-05,CA,1_000\n2020-01-05,CA,1e308\n"
               "2020-01-05,TX,-inf\n2020-01-05,TX,0.1\n2020-01-05,TX,-0.0\n"),
    "overflowing sum": "dateOfLoss,state,amountPaid\n2020-01-05,CA,1e308\n2020-01-09,CA,1e308\n",
    "all rejected": "dateOfLoss,state,amountPaid\nbad,CA,1\n2020-01-05,,1\n\n",
    "empty body": "dateOfLoss,state,amountPaid\n",
    "blank header": "\ndateOfLoss,state,amountPaid\n2020-01-05,CA,1\n",
    "missing column": "dateOfLoss,state\n2020-01-05,CA\n",
    "empty input": "",
}


@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_parse_losses_matches_dictreader_reference(case):
    _assert_matches_reference(EDGE_CASES[case])


@pytest.mark.parametrize("seed", range(6))
def test_parse_losses_matches_dictreader_reference_seeded(seed):
    rng = np.random.default_rng(seed)
    dates = [f"{y}-{m:02d}-{d:02d}" for y in (1999, 2000, 2024)
             for m in (1, 2, 7, 12) for d in (1, 15, 28, 29, 30, 31)]
    dates += ["", "bad", "2020-13-01", " 2001-05-05 ", "2001-05-05T00:00:00Z"]
    labels = ["CA", "TX", " FL", "FL ", "", "ny"]
    losses = [f"{v:.2f}" for v in rng.pareto(1.5, 50) * 1000] + [
        "", "-1", "abc", "inf", "nan", "1e-320", "0", "-0.0"]
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["id", "dateOfLoss", "state", "amountPaid", "other"])
    for i in range(400):
        row = [str(i), rng.choice(dates), rng.choice(labels), rng.choice(losses), "x"]
        cut = rng.integers(0, 6)
        writer.writerow(row[:cut] if rng.random() < 0.05 else row)
    _assert_matches_reference(buf.getvalue())


_DATES = st.sampled_from([
    "2020-01-05", "2020-02-29", "2021-02-29", "1999-12-31", " 2000-06-01\t",
    "2000-06-01T10:00", "20000601", "2000-6-1", "bad", ""])
_LABELS = st.sampled_from(["CA", " TX ", "\u00a0FL", "a\nb", 'q"uote', "", "  "])
_LOSSES = st.sampled_from([
    "1", " 2.5 ", "", "-3", "inf", "nan", "1e308", "abc", "\u20031\u2003",
    "1_0", "0", "-0", "7e-320", "0.1"])
_COLUMNS = ["dateOfLoss", "state", "amountPaid", "other"]


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(order=st.permutations(_COLUMNS),
       duplicate=st.sampled_from([None, None, "dateOfLoss", "state", "amountPaid"]),
       missing=st.sampled_from([None] * 6 + ["dateOfLoss", "state", "amountPaid"]),
       rows=st.lists(st.tuples(_DATES, _LABELS, _LOSSES,
                               st.one_of(st.just(None), st.integers(-1, 6))),
                     max_size=30),
       newline=st.sampled_from(["\n", "\r\n"]))
def test_parse_losses_matches_dictreader_reference_generated(
        order, duplicate, missing, rows, newline):
    header = [c for c in order if c != missing] + ([duplicate] if duplicate else [])
    last = {name: j for j, name in enumerate(header)}
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator=newline)
    writer.writerow(header)
    for date, label, loss, cut in rows:
        if cut == -1:
            writer.writerow([])          # a blank line
            continue
        value = {"dateOfLoss": date, "state": label, "amountPaid": loss, "other": "o"}
        # Only the last column of a duplicated name carries the real value.
        row = [value[name] if last[name] == j else "junk"
               for j, name in enumerate(header)]
        if cut is not None:
            row = row[:cut] + ["extra"] * (cut - len(row))
        writer.writerow(row)
    _assert_matches_reference(buf.getvalue())


# -- LossPanel ----------------------------------------------------------------


def test_panel_validation():
    with pytest.raises(DomainError):
        LossPanel(((2020, 1),), ("CA",), np.array([[1.0, 2.0]]))
    with pytest.raises(DomainError):
        LossPanel(((2020, 2), (2020, 1)), ("CA",), np.zeros((2, 1)))
    with pytest.raises(DomainError):
        LossPanel(((2020, 1),), ("CA",), np.array([[-1.0]]))
    panel = LossPanel(((2020, 1),), ("CA",), np.array([[1.0]]))
    with pytest.raises(DomainError):
        panel.column("TX")


# -- to_space -----------------------------------------------------------------


def test_to_space_uniform_weights():
    panel, _ = parse_losses(SIX_ROW_FIXTURE)
    space, profiles = to_space(panel)
    assert space.state_count == 3
    assert np.all(space.weights == pytest.approx(1 / 3, abs=1e-15))
    assert np.array_equal(profiles[0], panel.losses[:, 0])
    assert profiles.shape == (2, 3)


def test_to_space_single_month():
    panel = LossPanel(((2020, 1),), ("CA",), np.array([[5.0]]))
    space, profiles = to_space(panel)
    assert space.weights[0] == 1.0
    assert profiles[0, 0] == 5.0


@pytest.mark.parametrize("m", [1, 2, 3, 7, 12, 30, 53])
def test_to_space_weights_sum_exactly_one(m):
    panel = LossPanel(tuple((2020 + (k // 12), 1 + (k % 12)) for k in range(m)),
                      ("A",), np.zeros((m, 1)))
    space, _ = to_space(panel)
    assert math.fsum(space.weights.tolist()) == 1.0


# -- summary_stats ------------------------------------------------------------


def test_summary_constant_series():
    panel = LossPanel(((2020, 1), (2020, 2), (2020, 3)), ("CA",),
                      np.full((3, 1), 4.0))
    stats = summary_stats(panel)["CA"]
    assert stats.mean == stats.median == stats.maximum == 4.0
    assert stats.std_dev == 0.0


def test_summary_hand_series():
    panel = LossPanel(tuple((2020, m) for m in range(1, 5)), ("CA",),
                      np.array([[1.0], [2.0], [3.0], [4.0]]))
    stats = summary_stats(panel)["CA"]
    assert stats.mean == 2.5
    assert stats.median == 2.5
    assert stats.maximum == 4.0
    assert stats.std_dev == pytest.approx(np.std([1, 2, 3, 4], ddof=1), abs=1e-12)
    assert stats.var_5pct == 4.0


def test_summary_single_month_rejected():
    panel = LossPanel(((2020, 1),), ("CA",), np.array([[5.0]]))
    with pytest.raises(DomainError):
        summary_stats(panel)


def test_summary_mean_equals_identity_choquet():
    panel, _ = parse_losses(SIX_ROW_FIXTURE)
    space, profiles = to_space(panel)
    stats = summary_stats(panel)
    for j, label in enumerate(panel.agents):
        assert stats[label].mean == pytest.approx(
            choquet(space, profiles[j], Distortion.identity()), abs=1e-9)


# -- correlation --------------------------------------------------------------


def test_correlation_identical_series():
    panel = LossPanel(((2020, 1), (2020, 2), (2020, 3)), ("A", "B"),
                      np.array([[1.0, 1.0], [2.0, 2.0], [5.0, 5.0]]))
    result = correlation(panel)
    assert result.matrix[0, 1] == pytest.approx(1.0, abs=1e-12)
    assert result.matrix[0, 0] == 1.0


def test_correlation_perfect_anti():
    panel = LossPanel(((2020, 1), (2020, 2), (2020, 3)), ("A", "B"),
                      np.array([[1.0, 3.0], [2.0, 2.0], [3.0, 1.0]]))
    result = correlation(panel)
    assert result.matrix[0, 1] == pytest.approx(-1.0, abs=1e-12)
    assert not result.degenerate


def test_correlation_zero_variance_flagged():
    panel = LossPanel(((2020, 1), (2020, 2)), ("A", "B"),
                      np.array([[1.0, 7.0], [2.0, 7.0]]))
    result = correlation(panel)
    assert math.isnan(result.matrix[0, 1])
    assert result.degenerate == ("B",)
    assert result.matrix[1, 1] == 1.0


# -- canonical serialization --------------------------------------------------


def test_panel_roundtrip_exact():
    panel, _ = parse_losses(SIX_ROW_FIXTURE)
    buf = io.StringIO()
    write_panel(panel, buf)
    clone = load_panel(io.StringIO(buf.getvalue()))
    assert clone.months == panel.months
    assert clone.agents == panel.agents
    assert np.array_equal(clone.losses, panel.losses)


def test_panel_roundtrip_preserves_floats_bitwise():
    losses = np.array([[0.1, 1e7 / 3.0], [math.pi, 2.0 ** -20]])
    panel = LossPanel(((2020, 1), (2020, 2)), ("A", "B"), losses)
    buf = io.StringIO()
    write_panel(panel, buf)
    clone = load_panel(io.StringIO(buf.getvalue()))
    assert np.array_equal(clone.losses, losses)


def test_load_panel_rejects_wrong_schema():
    with pytest.raises(FormatError):
        load_panel("month,agent\n2020-01,A\n")
    with pytest.raises(FormatError):
        load_panel("month,agent,loss\n2020-13,A,1\n")
    with pytest.raises(FormatError):
        load_panel("month,agent,loss\n2020-01,A,-5\n")
    with pytest.raises(FormatError):
        load_panel("month,agent,loss\n")
