"""Claim CSV ingestion, panel statistics, canonical serialization."""

import csv
import datetime as dt
import io
import math
import re
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from paretopool import (Distortion, LossPanel, choquet, correlation,
                        parse_losses, summary_stats, to_space)
from paretopool import ingest
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


def test_dates_are_strict_yyyy_mm_dd_on_every_python():
    # Python 3.11's fromisoformat reads the first two; 3.10's does not.
    text = ("dateOfLoss,state,amountPaid\n"
            "20200115,CA,5\n"
            "2020-W05-1,CA,7\n"
            "2020-03-15,CA,3\n")
    panel, report = parse_losses(text)
    assert report.used_rows == 1
    assert report.rejected == ((2, "bad date '20200115'"), (3, "bad date '2020-W05-1'"))
    assert panel.months == ((2020, 3),)
    assert panel.losses.tolist() == [[3.0]]


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
            # fromisoformat reads more than YYYY-MM-DD from Python 3.11 on.
            if raw_date[4:5] != "-" or raw_date[7:8] != "-":
                raise ValueError(raw_date)
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


# -- numpy's block path against the same reference ---------------------------


@contextmanager
def _loop_lines(block_lines=None):
    """Collect the lines the per-row loop pulls, with blocks of
    ``block_lines`` lines if given: an empty list means that numpy's block
    path read every line after the header."""
    seen = []
    real, size = ingest._read_rows, ingest._BLOCK_LINES

    def tee(lines):
        for line in lines:
            seen.append(line)
            yield line

    def spy(lines, *args):
        return real(tee(lines), *args)

    ingest._read_rows, ingest._BLOCK_LINES = spy, block_lines or size
    try:
        yield seen
    finally:
        ingest._read_rows, ingest._BLOCK_LINES = real, size


_CLEAN_SUFFIXES = st.sampled_from(["", "", "T00:00:00", "T12:30", "T23:59:59.5+02:00", "T08:00Z"])
_CLEAN_LABELS = st.text(st.characters(categories=("Lu", "Ll", "Nd")),
                        min_size=1, max_size=15)
_CLEAN_LOSSES = st.one_of(st.integers(0, 10 ** 12).map(str),
                          st.decimals(0, 10 ** 9, places=2).map(str),
                          st.floats(0.0, 1e300).map(repr))


def _clean_lines(data, order, first_year):
    """A header and up to 40 drawn claim lines, without line endings, that
    numpy's block path reads."""
    # Four years of dates, so that the panel stays small.
    dates = st.builds(lambda day, suffix: day.isoformat() + suffix,
                      st.dates(dt.date(first_year, 1, 1), dt.date(first_year + 3, 12, 31)),
                      _CLEAN_SUFFIXES)
    rows = data.draw(st.lists(st.one_of(st.tuples(dates, _CLEAN_LABELS, _CLEAN_LOSSES),
                                        st.none()), max_size=40))
    lines = [",".join(order)]
    for row in rows:
        if row is None:
            lines.append("")             # a blank line
            continue
        value = dict(zip(("dateOfLoss", "state", "amountPaid"), row), other="o")
        lines.append(",".join(value[name] for name in order))
    return lines


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(),
       order=st.permutations(_COLUMNS),
       first_year=st.sampled_from([1, 1896, 1899, 1999, 2023, 9996]),
       block_lines=st.integers(1, 9),
       final_newline=st.booleans())
def test_clean_claims_take_the_block_path(data, order, first_year, block_lines,
                                          final_newline):
    lines = _clean_lines(data, order, first_year)
    text = "\n".join(lines) + ("\n" if final_newline else "")
    with _loop_lines(block_lines) as seen:
        _assert_matches_reference(text)
    assert seen == []


_HEAD = "dateOfLoss,state,amountPaid\n"
_CLEAN = _HEAD + "2020-01-05,CA,1\n"
# One case per rule that sends a block to the loop.
DECLINE_CASES = {
    "quote": _CLEAN + '2020-01-06,"TX",2\n',
    "carriage return": _CLEAN + "2020-01-06,TX,2\r\n2020-01-07,TX,3\n",
    "NUL": _CLEAN + "2020-01-06,T\x00,2\n",
    "whitespace-only line": _CLEAN + " \t\n2020-01-06,TX,2\n",
    "short row": _CLEAN + "2020-01-06,TX\n",
    "label as wide as its field": _CLEAN + "2020-01-06," + "T" * 16 + ",2\n",
    "label wider than its field": _CLEAN + "2020-01-06," + "T" * 17 + ",2\n",
    "padded label": _CLEAN + "2020-01-06,TX\u00a0,2\n",
    "empty loss": _CLEAN + "2020-01-06,TX,\n",
    "loss float() reads and loadtxt does not": _CLEAN + "2020-01-06,TX,1_000\n",
    "padded date": _CLEAN + " 2020-01-06,TX,2\n",
    "impossible date": _CLEAN + "2021-02-29,TX,2\n",
    "year zero": _CLEAN + "0000-01-06,TX,2\n",
    "empty label": _CLEAN + "2020-01-06,,2\n",
    "negative loss": _CLEAN + "2020-01-06,TX,-2\n",
    "infinite loss": _CLEAN + "2020-01-06,TX,inf\n",
    "nan loss": _CLEAN + "2020-01-06,TX,nan\n",
}


def _body(text):
    """The lines a text stream of ``text`` yields, but the first."""
    return io.StringIO(text).readlines()[1:]


@pytest.mark.parametrize("case", sorted(DECLINE_CASES))
def test_declined_block_is_read_by_the_loop(case):
    with _loop_lines() as seen:
        _assert_matches_reference(DECLINE_CASES[case])
    assert seen == _body(DECLINE_CASES[case])


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(),
       case=st.sampled_from(sorted(DECLINE_CASES)),
       block_lines=st.integers(1, 9),
       final_newline=st.booleans())
def test_a_declined_block_alone_is_read_by_the_loop(data, case, block_lines, final_newline):
    # The cases are dated 2020, inside the clean dates' four years.
    lines = _clean_lines(data, _COLUMNS[:3], 2018)
    at = data.draw(st.integers(1, len(lines)))
    # The case's first line is the one that declines its block.
    lines[at:at] = DECLINE_CASES[case][len(_CLEAN):].rstrip("\n").split("\n")
    text = "\n".join(lines) + ("\n" if final_newline else "")
    first = (at - 1) // block_lines * block_lines
    with _loop_lines(block_lines) as seen:
        _assert_matches_reference(text)
    assert seen == _body(text)[first:first + block_lines]


def test_duplicated_header_name_takes_the_block_path():
    # ``index`` maps a repeated name to its last column, as DictReader does.
    text = "state,dateOfLoss,amountPaid,state\nXX,2020-01-05,1,CA\n"
    with _loop_lines() as seen:
        _assert_matches_reference(text)
    assert seen == []


@pytest.mark.parametrize("block_path", [True, False])
def test_loss_padded_with_separator_characters(block_path):
    # str.strip() strips \x1c-\x1f and float() does not; the loss is 2.0.
    text = _CLEAN + "2020-01-06,TX,\x1c2\x1f\n" + ("" if block_path else '"2020-01-07",TX,1\n')
    with _loop_lines() as seen:
        _assert_matches_reference(text)
    assert (seen == []) == block_path


def test_label_hash_collision_is_read_by_the_loop(monkeypatch):
    # With every multiplier 0 all labels share one hash.
    monkeypatch.setattr(ingest, "_LABEL_HASH", np.zeros_like(ingest._LABEL_HASH))
    text = _CLEAN + "2020-01-06,TX,2\n"
    with _loop_lines() as seen:
        _assert_matches_reference(text)
    assert seen == _body(text)


def test_loss_column_that_is_the_label_column_is_read_by_the_loop():
    with _loop_lines() as seen:
        _assert_matches_reference(_CLEAN, loss_column="state")
    assert seen == _body(_CLEAN)


@pytest.mark.parametrize("cell, error", [
    ("abcdefghijklmnopq", None),                 # the line is over the limit, no cell is
    ("abcdefghijklmnopqrstu", "line 3: field larger than field limit (20)"),
])
def test_field_size_limit_is_read_at_call_time(cell, error):
    text = _CLEAN + f"2020-01-06,TX,2,{cell}\n2020-01-07,TX,3\n"
    old = csv.field_size_limit(20)
    try:
        with _loop_lines() as seen:
            if error:
                with pytest.raises(FormatError, match=re.escape(error)):
                    parse_losses(text)
            else:
                _assert_matches_reference(text)
    finally:
        csv.field_size_limit(old)
    assert seen == _body(text)[:2 if error else None]


_CLEAN_BLOCK = "2020-01-05,CA,1\n" * 4
# Clean lines after the last declined block, which numpy reads.
_TAIL = "2020-04-01,CA,1\n" * 8
# Read in blocks of four lines; the loop reads the given physical lines:
# the declined blocks and the rest of a quoted record that runs past one.
BOUNDARY_CASES = {
    "decline in the second block": (
        _HEAD + _CLEAN_BLOCK
        + '2020-02-05,TX,2\nbad,TX,3\n2020-03-05,"T\nX",4\n2020-03-06,,5\n' + _TAIL,
        range(6, 14)),
    "rejected row on the last line of a block": (
        _HEAD + _CLEAN_BLOCK
        + "2020-02-05,TX,2\n" * 3 + "2020-02-30,TX,2\n2020-03-05,TX,-1\n" + _TAIL,
        range(6, 14)),
    "quoted field right after a clean block": (
        _HEAD + "2020-01-05,CA,1\n\n2020-01-06,CA,2\n2020-01-07,CA,3\n"
        '"2020-\n02-05",TX,2\n2020-02-06,TX,x\n2020-02-07,"",1\n' + _TAIL,
        range(6, 10)),
    "header over two lines": (
        'dateOfLoss,state,amountPaid,"a\nnote"\n' + "2020-01-05,CA,1,n\n" * 4
        + "2020-01-06,CA,1\n2020-01-07, CA,2\n2020-13-01,CA,3\n" + _TAIL,
        range(7, 11)),
    "declined block between clean ones": (
        _HEAD + _CLEAN_BLOCK
        + "2020-02-05,TX,2\n2020-02-06,TX,2\nbad,TX,3\n2020-02-07,TX,2\n" + _CLEAN_BLOCK,
        range(6, 10)),
    "quoted record past a declined block's end": (
        _HEAD + _CLEAN_BLOCK
        + '2020-02-05,TX,2\n2020-02-06,TX,x\n2020-02-07,TX,2\n2020-02-08,"T\nX\n",2\n'
        + _CLEAN_BLOCK + "2020-04-05,TX,-1\n",
        [*range(6, 12), 16]),
    "rejected rows in the second and fourth blocks": (
        _HEAD + _CLEAN_BLOCK
        + "2020-02-05,TX,2\n2020-02-30,TX,2\n2020-02-06,TX,2\n2020-02-07,TX,2\n"
        + _CLEAN_BLOCK
        + "2020-04-05,TX,2\n2020-04-06,,2\n2020-04-07,TX,2\n2020-04-08,TX,-5\n",
        [*range(6, 10), *range(14, 18)]),
}


@pytest.mark.parametrize("case", sorted(BOUNDARY_CASES))
def test_block_boundaries_keep_line_numbers(case):
    text, loop_lines = BOUNDARY_CASES[case]
    with _loop_lines(4) as seen:
        _assert_matches_reference(text)
    lines = io.StringIO(text).readlines()
    assert seen == [lines[i - 1] for i in loop_lines]
    assert parse_losses(text)[1].rejected


def test_each_distinct_date_text_is_parsed_once_per_file(monkeypatch):
    # Carriage returns decline every block, so the loop reads all eight.
    dates = ["2020-01-05", "2020-01-06", " 2020-01-06", "bad"]
    text = "dateOfLoss,state,amountPaid\r\n" + "".join(
        f"{dates[i % 4]},CA,{i}\r\n" for i in range(32))
    calls = []
    real = ingest._month_key
    monkeypatch.setattr(ingest, "_month_key", lambda raw: calls.append(raw) or real(raw))
    with _loop_lines(4) as seen:
        _assert_matches_reference(text)
    assert seen == _body(text)
    assert sorted(calls) == sorted(dates)


def test_a_declined_block_costs_no_more_memory_than_a_clean_one(monkeypatch):
    monkeypatch.setattr(ingest, "_BLOCK_LINES", 1024)
    rng = np.random.default_rng(7)
    rows = [f"{1990 + k // 12:04d}-{k % 12 + 1:02d}-15,S{j:02d},{x:.2f}\n"
            for k, j, x in zip(rng.integers(0, 240, 60000).tolist(),
                               rng.integers(0, 12, 60000).tolist(),
                               (rng.pareto(1.5, 60000) * 1000.0).tolist())]

    def peak(first_loss):
        first = rows[0].rsplit(",", 1)[0] + f",{first_loss}\n"
        stream = io.StringIO(_HEAD + first + "".join(rows[1:]))
        tracemalloc.start()
        try:
            parse_losses(stream)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # An empty loss cell on line 2 declines the first block.
    assert peak("") <= 1.2 * peak("1")


def test_mid_size_claims_equal_the_loop_exactly():
    rng = np.random.default_rng(20)
    n = 20000
    month = rng.integers(0, 240, n)
    day = rng.integers(1, 29, n)
    agent = rng.integers(0, 12, n)
    loss = rng.pareto(1.5, n) * 1000.0
    text = "dateOfLoss,state,amountPaid\n" + "".join(
        f"{1990 + k // 12:04d}-{k % 12 + 1:02d}-{d:02d},S{j:02d},{x:.2f}\n"
        for k, d, j, x in zip(month.tolist(), day.tolist(), agent.tolist(), loss.tolist()))
    with _loop_lines() as seen:
        _assert_matches_reference(text)
    assert seen == []


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


def test_constant_column_is_degenerate_despite_rounding():
    # np.std of seven 0.1s reads 1.5e-17, not 0: the mean rounds.
    months = tuple((2020, m) for m in range(1, 8))
    b = [0.0, 1.0, 3.0, 0.5, 2.0, 0.0, 4.0]
    panel = LossPanel(months, ("A", "B", "C"),
                      np.column_stack([np.full(7, 0.1), b, [0.0, 1e-300] + [0.0] * 5]))
    stats = summary_stats(panel)
    assert stats["A"].std_dev == 0.0
    assert stats["B"].std_dev == float(np.std(b, ddof=1))
    result = correlation(panel)
    assert result.degenerate == ("A", "C")
    assert np.isnan(result.matrix[0, 1:]).all() and np.isnan(result.matrix[1:, 0]).all()
    assert np.isnan(result.matrix[1, 2]) and np.diag(result.matrix).tolist() == [1.0] * 3


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


# A quoted cell one character over the csv module's field size limit.
BIG_CELL = '"' + "A" * (csv.field_size_limit() + 1) + '"'
OVERSIZED = f"field larger than field limit ({csv.field_size_limit()})"


@pytest.mark.parametrize("text, message", [
    ("month,agent,loss\n2020-01\n", "line 2: missing cells"),
    ("month,agent,loss\n2020-01,A\n", "line 2: missing cells"),
    ("month,agent,loss\n2020-01,A,nan\n", "line 2: out of range"),
    ("month,agent,loss\n2020-01,A,inf\n", "line 2: out of range"),
    ("month,agent,loss\n2020-01,A,1e308\n2020-01,A,1e308\n",
     "agent 'A' has inf in month 2020-01"),
    pytest.param(f"month,agent,loss\n2020-01,A,1\n2020-02,{BIG_CELL},1\n",
                 f"line 3: {OVERSIZED}", id="oversized cell"),
    pytest.param(f"month,agent,{BIG_CELL}\n", f"line 1: {OVERSIZED}", id="oversized header"),
])
def test_load_panel_raises_only_format_error(text, message):
    with pytest.raises(FormatError, match=re.escape(message)):
        load_panel(text)


def test_oversized_claim_cell_is_format_error_naming_its_line():
    with pytest.raises(FormatError, match=re.escape(f"line 2: {OVERSIZED}")):
        parse_losses(f"dateOfLoss,state,amountPaid\n2020-01-05,{BIG_CELL},1\n")


def test_read_error_surfaces_after_the_lines_before_it():
    # The first block's read meets the undecodable byte; the loop, reading
    # line by line, meets the oversized cell on line 3 first.
    head = f"dateOfLoss,state,amountPaid\n2020-01-05,CA,1\n2020-01-05,{BIG_CELL},1\n"
    tail = "2020-01-06,CA,1\n" * 2000
    data = (head + tail).encode() + b"\xff\n"

    def stream(raw):
        return io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", newline="")

    with pytest.raises(FormatError, match=re.escape(f"line 3: {OVERSIZED}")):
        parse_losses(stream(data))
    with pytest.raises(UnicodeDecodeError):
        parse_losses(stream(data.replace(BIG_CELL.encode(), b"CA")))


def test_load_panel_rejects_an_empty_agent_label():
    with pytest.raises(FormatError, match="line 2: empty agent label"):
        load_panel("month,agent,loss\n2020-01,,1\n")


def test_panel_validation_names_the_first_bad_cell():
    losses = np.array([[1.0, 2.0], [3.0, -1.0], [np.nan, 0.0]])
    with pytest.raises(DomainError, match=re.escape(
            "losses must be finite and non-negative: agent 'B' has -1.0 in month 2020-12")):
        LossPanel(((2020, 11), (2020, 12), (2021, 1)), ("A", "B"), losses)


def test_load_panel_rejects_wrong_schema():
    with pytest.raises(FormatError):
        load_panel("month,agent\n2020-01,A\n")
    with pytest.raises(FormatError):
        load_panel("month,agent,loss\n2020-13,A,1\n")
    with pytest.raises(FormatError):
        load_panel("month,agent,loss\n2020-01,A,-5\n")
    with pytest.raises(FormatError):
        load_panel("month,agent,loss\n")
