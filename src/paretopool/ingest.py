"""Claim-level CSV ingestion into monthly loss panels.

Input grammar: UTF-8 CSV with a header row and RFC-4180 quoting, one row per
claim, carrying at least a date column ``dateOfLoss`` (its first 10
characters a strict YYYY-MM-DD on every Python), an agent label column
``state`` and a numeric loss column (``amountPaid`` unless configured
otherwise).  Claims are summed by calendar month and agent.  The panel
spans every month between the first and last observed claim, so months
without claims become genuine zero-loss states; with uniform weights the
panel is an empirical probability space.

``parse_losses`` reads the lines after the header in blocks of a fixed
number of lines and keeps no line beyond its block.  A block is parsed in C
by ``np.loadtxt`` (date and label as fixed-width strings, the loss as a
float), its dates by a vectorized kernel that accepts only a strict ASCII
YYYY-MM-DD naming a real day, and its labels factorized on their
fixed-width text.  The block path declines a block it cannot prove equal
to the per-row loop, one holding

- a ``"``, a carriage return or a NUL character, or a line longer than the
  csv module's field size limit at the time of the call;
- a row loadtxt cannot read, such as a short or whitespace-only row, or a
  loss cell that is empty or that float() reads and loadtxt does not;
- a row the loop would reject or that the block path cannot check: a date
  cell that does not start with a strict YYYY-MM-DD (a padded one, say), a
  label that is empty, padded or as wide as its field (loadtxt may have cut
  it), a loss that is negative or not finite.

A declined block alone is read by the per-row loop, with ``csv.reader``,
which also reads on past the block's last line to finish a quoted record;
the next block goes back to loadtxt.  The loop caches each distinct date
text and label for the whole parse.  Rejected rows and their line numbers
therefore come from the loop alone: it accepts and rejects exactly what a
per-row ``csv.DictReader`` loop would, with the same reasons and line
numbers.  The used rows of both paths become three flat columns (month
key, agent id, loss) that one ``np.bincount`` sums into the panel in row
order.
"""

from __future__ import annotations

import csv
import datetime as _dt
import io
import itertools
import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import riskmeasure
from .errors import DomainError, FormatError
from .riskmeasure import EmpiricalSpace

DATE_COLUMN = "dateOfLoss"
AGENT_COLUMN = "state"
DEFAULT_LOSS_COLUMN = "amountPaid"

# Claim lines per block: memory holds one block of text and fields at a
# time beside the used rows' three columns.
_BLOCK_LINES = 1 << 13
# The fields np.loadtxt reads, which it cuts silently to their width.  The
# loop reads a date from raw.strip()[:10]; a cell that passes the date kernel
# has no leading whitespace, so its first 10 characters are all the loop
# reads of it.  A label as wide as its field may have been cut.
_LABEL_WIDTH = 16
_FIELDS = [("date", "U10"), ("label", f"U{_LABEL_WIDTH}"), ("loss", "f8")]
# csv reads quotes and carriage returns by rules of its own, and loadtxt
# drops NUL from strings.
_LOOP_ONLY = '"\r\x00'
# A strict YYYY-MM-DD: each code point minus its base is at most its span.
_ISO_BASE = np.array([48, 48, 48, 48, 45, 48, 48, 45, 48, 48], dtype=np.uint32)
_ISO_SPAN = np.array([9, 9, 9, 9, 0, 9, 9, 0, 9, 9], dtype=np.uint32)
_MONTH_DAYS = np.array([31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])
# Odd multipliers, one per 64-bit word of a label field, hashing labels for
# factorizing: np.unique on the strings themselves sorts them, at about
# 0.4 us a row.
_LABEL_HASH = np.array([0x98e64a46eaca6a33, 0xc096435a1624781b, 0xea29dbdbeff7f867,
                        0x8896ae6ade9a015d, 0xe4ef5de481811c63, 0xa54c2140eb3c8cd5,
                        0x9c5f7f319f02104f, 0x8ea84e3f7152ec81], dtype=np.uint64)


@dataclass(frozen=True, eq=False)
class LossPanel:
    """Monthly aggregated losses: months x agents, all cells present."""

    months: tuple[tuple[int, int], ...]
    agents: tuple[str, ...]
    losses: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.losses, dtype=float)
        if arr.shape != (len(self.months), len(self.agents)):
            raise DomainError("loss matrix shape must be months x agents")
        bad = np.argwhere(~(np.isfinite(arr) & (arr >= 0.0)))
        if bad.size:
            i, j = bad[0]
            raise DomainError("losses must be finite and non-negative: agent %r has %r in month "
                              "%04d-%02d" % (self.agents[j], float(arr[i, j]), *self.months[i]))
        if any(b <= a for a, b in zip(self.months, self.months[1:])):
            raise DomainError("months must be strictly increasing")
        arr.setflags(write=False)
        object.__setattr__(self, "losses", arr)
        object.__setattr__(self, "months", tuple(tuple(m) for m in self.months))
        object.__setattr__(self, "agents", tuple(self.agents))

    @property
    def month_count(self) -> int:
        return len(self.months)

    def column(self, label: str) -> np.ndarray:
        if label not in self.agents:
            raise DomainError(f"unknown agent label '{label}'")
        return self.losses[:, self.agents.index(label)]


@dataclass(frozen=True)
class ParseReport:
    """Row accounting from one parse: every rejected row carries a reason."""

    total_rows: int
    used_rows: int
    rejected: tuple[tuple[int, str], ...]


def _assemble(keys, agent_ids, losses, labels) -> LossPanel:
    """Months x agents panel from per-row (month key, agent id, loss) lists
    or arrays.

    A month key is 12 * year + month - 1 and ``labels[id]`` names an agent.
    Every month from the first to the last key is a state and absent cells
    are zero losses; agents without rows are dropped and the rest sorted by
    label.  Rows of one cell are summed in input order by ``np.bincount``.
    """
    if not len(keys):
        return LossPanel((), (), np.zeros((0, 0)))
    keys = np.asarray(keys, dtype=np.int64)
    ids = np.asarray(agent_ids, dtype=np.intp)
    first = int(keys.min())
    m = int(keys.max()) - first + 1
    present = np.flatnonzero(np.bincount(ids, minlength=len(labels)))
    order = sorted(present.tolist(), key=labels.__getitem__)
    column = np.empty(len(labels), dtype=np.intp)
    column[order] = np.arange(len(order))
    sums = np.bincount((keys - first) * len(order) + column[ids],
                       weights=losses, minlength=m * len(order))
    months = tuple((k // 12, k % 12 + 1) for k in range(first, first + m))
    return LossPanel(months, tuple(labels[i] for i in order),
                     sums.reshape(m, len(order)))


def _open_text(source):
    if isinstance(source, str):
        return io.StringIO(source)
    return source


@contextmanager
def _csv_errors(reader, lines_before: int = 0):
    """Report the csv module's own errors, such as a cell over its field
    size limit, as FormatError naming the line; ``lines_before`` lines were
    read before the reader's first."""
    try:
        yield
    except csv.Error as exc:
        raise FormatError(f"line {lines_before + reader.line_num}: {exc}") from exc


def _month_key(raw_date: str) -> int:
    """12 * year + month - 1 of a leading YYYY-MM-DD, or -1 if it is invalid
    (from Python 3.11 on, fromisoformat alone also reads YYYYMMDD and ISO
    week dates, which 3.10 and the block path reject)."""
    head = raw_date.strip()[:10]
    if head[4:5] != "-" or head[7:8] != "-":
        return -1
    try:
        date = _dt.date.fromisoformat(head)
    except ValueError:
        return -1
    return 12 * date.year + date.month - 1


def _iso_month_keys(dates: np.ndarray):
    """12 * year + month - 1 of each ``U10`` date, or None unless every one
    is a strict ASCII YYYY-MM-DD naming a real day of a year >= 1, the only
    date text :func:`_month_key` accepts on any Python."""
    c = np.ascontiguousarray(dates).view(np.uint32).reshape(len(dates), 10) - _ISO_BASE
    if (c > _ISO_SPAN).any():
        return None
    year = ((c[:, 0] * 10 + c[:, 1]) * 10 + c[:, 2]) * 10 + c[:, 3]
    month = c[:, 5] * 10 + c[:, 6]
    day = c[:, 8] * 10 + c[:, 9]
    if not ((year >= 1) & (month >= 1) & (month <= 12) & (day >= 1)).all():
        return None
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0)) & (month == 2)
    if not (day <= _MONTH_DAYS[month - 1] + leap).all():
        return None
    return 12 * year.astype(np.int64) + month - 1


def _agent_ids(field: np.ndarray, labels: dict[str, int]):
    """The agent id of each fixed-width label, new labels added to
    ``labels``; None on a label that is empty, padded or as wide as its
    field, or on a hash collision."""
    field = np.ascontiguousarray(field)
    words = field.view(np.uint64).reshape(len(field), -1)
    hashes, inverse = np.unique(words @ _LABEL_HASH, return_inverse=True)
    rep = np.empty(len(hashes), dtype=np.intp)
    rep[inverse] = np.arange(len(field))
    if not (words == words[rep][inverse]).all():
        return None
    names = field[rep].tolist()
    if not all(name and name.strip() == name and len(name) < _LABEL_WIDTH
               for name in names):
        return None
    ids = np.array([labels.setdefault(name, len(labels)) for name in names],
                   dtype=np.intp)
    return ids[inverse]


def _read_block(block: list[str], cols, labels: dict[str, int]):
    """Month keys, agent ids and losses of a block of claim lines, parsed by
    ``np.loadtxt``, or None where that parse is not provably the loop's
    (the module docstring lists the rules); ``cols`` are the date, label
    and loss columns."""
    text = "".join(block)
    if (any(c in text for c in _LOOP_ONLY)
            or max(map(len, block)) > csv.field_size_limit()):
        return None
    rows = len(block) - block.count("\n")  # blank lines: csv and loadtxt skip them
    if not rows:
        return np.empty(0, np.int64), np.empty(0, np.intp), np.empty(0)
    try:
        rec = np.loadtxt(block, dtype=_FIELDS, delimiter=",", usecols=cols,
                         comments=None, ndmin=1, encoding=None)
    except ValueError:  # such as a short or whitespace-only row, an empty loss
        return None
    loss = rec["loss"]
    if len(rec) != rows or not ((loss >= 0.0) & (loss < np.inf)).all():
        return None
    keys = _iso_month_keys(rec["date"])
    ids = None if keys is None else _agent_ids(rec["label"], labels)
    return None if ids is None else (keys, ids, loss.copy())


def _read_rows(lines, count: int, cols, labels: dict[str, int], cache,
               rejected: list[tuple[int, str]], lines_before: int):
    """The per-row loop over the records that start in the first ``count``
    of ``lines``, numbered on from ``lines_before``: the number of lines
    read, more than ``count`` only to finish a quoted record, and the used
    rows' month keys, agent ids and losses.

    Rejected rows go to ``rejected``.  ``cache`` is the parse's pair of
    month-key and agent-id caches, keyed by raw cell text.
    """
    reader = csv.reader(lines)
    di, ai, li = cols
    width = max(cols) + 1
    month_of, agent_of = cache
    keys: list[int] = []
    ids: list[int] = []
    losses: list[float] = []
    with _csv_errors(reader, lines_before):
        while reader.line_num < count:
            row = next(reader)
            if len(row) < width:
                if not row:
                    continue
                row = row + [""] * (width - len(row))
            raw = row[di]
            key = month_of.get(raw)
            if key is None:
                key = month_of[raw] = _month_key(raw)
            if key < 0:
                rejected.append((lines_before + reader.line_num, f"bad date {raw.strip()!r}"))
                continue
            raw = row[ai]
            agent = agent_of.get(raw)
            if agent is None:
                label = raw.strip()
                agent = agent_of[raw] = labels.setdefault(label, len(labels)) if label else -1
            if agent < 0:
                rejected.append((lines_before + reader.line_num, "empty agent label"))
                continue
            raw = row[li]
            try:
                loss = float(raw)
            except ValueError:
                # str.strip() also strips \x1c-\x1f, which float() keeps.
                raw = raw.strip()
                try:
                    loss = float(raw) if raw else 0.0
                except ValueError:
                    rejected.append((lines_before + reader.line_num,
                                     f"non-numeric loss {raw!r}"))
                    continue
            if not 0.0 <= loss < math.inf:
                rejected.append((lines_before + reader.line_num, f"invalid loss {loss!r}"))
                continue
            keys.append(key)
            ids.append(agent)
            losses.append(loss)
    return reader.line_num, (np.array(keys, dtype=np.int64), np.array(ids, dtype=np.intp),
                             np.array(losses, dtype=float))


def parse_losses(source, loss_column: str = DEFAULT_LOSS_COLUMN
                 ) -> tuple[LossPanel, ParseReport]:
    """Aggregate a claim-level CSV into a LossPanel.

    ``source`` is an open text stream or a CSV string.  Rows with an
    unparseable date, an empty agent label, or a negative or non-numeric
    loss are skipped and reported; an empty loss cell counts as zero.
    Missing required columns, and text the csv module cannot read, abort
    with FormatError.

    Rows are read as ``csv.DictReader`` reads them: blank lines are
    skipped, a duplicated header name refers to its last column and cells
    beyond a short row are empty.  A rejected row is reported with the
    number of its last physical line.

    The lines after the header are read in blocks of ``_BLOCK_LINES``, each
    parsed by ``np.loadtxt`` and the date kernel, or by the per-row loop
    where that path declines it (see the module docstring); so only the
    loop rejects rows.
    """
    lines = iter(_open_text(source))
    reader = csv.reader(lines)
    with _csv_errors(reader):
        header = next(reader, None)
    if header is None:
        raise FormatError("empty input: no header row")
    for needed in (DATE_COLUMN, AGENT_COLUMN, loss_column):
        if needed not in header:
            raise FormatError(f"missing required column '{needed}'")
    index = {name: j for j, name in enumerate(header)}
    cols = (index[DATE_COLUMN], index[AGENT_COLUMN], index[loss_column])
    labels: dict[str, int] = {}
    cache: tuple[dict[str, int], dict[str, int]] = ({}, {})
    rejected: list[tuple[int, str]] = []
    parts = [(np.empty(0, np.int64), np.empty(0, np.intp), np.empty(0))]
    lines_before = reader.line_num
    while True:
        block: list[str] = []
        try:
            block.extend(itertools.islice(lines, _BLOCK_LINES))
        except (OSError, ValueError):
            # A read error, such as undecodable text, surfaces where the
            # loop would meet it: after the lines before it are read.
            _read_rows(block, len(block), cols, labels, cache, rejected, lines_before)
            raise
        if not block:
            break
        part = _read_block(block, cols, labels)
        read = len(block)
        if part is None:
            read, part = _read_rows(itertools.chain(block, lines), read, cols, labels,
                                    cache, rejected, lines_before)
        parts.append(part)
        lines_before += read
    keys, ids, losses = (np.concatenate(column) for column in zip(*parts))
    # No usable rows is not a format error: rejections are reported, and an
    # empty body legitimately yields an empty panel.
    return (_assemble(keys, ids, losses, list(labels)),
            ParseReport(len(keys) + len(rejected), len(keys), tuple(rejected)))


def to_space(panel: LossPanel) -> tuple[EmpiricalSpace, np.ndarray]:
    """Uniform empirical space over months plus per-agent loss profiles.

    Returns (space, profiles) with profiles[j] the loss profile of
    panel.agents[j].
    """
    return EmpiricalSpace.uniform(panel.month_count), panel.losses.T.copy()


@dataclass(frozen=True)
class AgentStats:
    mean: float
    median: float
    var_5pct: float
    maximum: float
    std_dev: float


STAT_FIELDS = ("mean", "median", "var_5pct", "maximum", "std_dev")


def summary_stats(panel: LossPanel) -> dict[str, AgentStats]:
    """Per-agent location and tail statistics of the monthly losses.

    The 5% value at risk uses the same strict-survival convention as
    :func:`paretopool.riskmeasure.var`; the standard deviation is the
    sample one (m - 1 denominator), so a single-month panel is rejected; a
    constant series has exactly 0, not the rounding of its mean.
    """
    if panel.month_count < 2:
        raise DomainError("standard deviation needs at least two months")
    space, profiles = to_space(panel)
    out = {}
    for j, label in enumerate(panel.agents):
        x = profiles[j]
        out[label] = AgentStats(
            mean=float(np.mean(x)),
            median=float(np.median(x)),
            var_5pct=riskmeasure.var(space, x, 0.05),
            maximum=float(np.max(x)),
            std_dev=float(np.std(x, ddof=1)) if np.ptp(x) > 0.0 else 0.0,
        )
    return out


@dataclass(frozen=True, eq=False)
class CorrelationResult:
    """Pairwise Pearson correlations; entries touching a zero-variance
    agent (all months equal, or a spread whose variance underflows to 0)
    are NaN and the agent is listed in ``degenerate``."""

    matrix: np.ndarray
    degenerate: tuple[str, ...]


def correlation(panel: LossPanel) -> CorrelationResult:
    _, profiles = to_space(panel)
    n = len(panel.agents)
    flat = (np.ptp(profiles, axis=1) == 0.0) | (profiles.std(axis=1) == 0.0)
    matrix = np.eye(n)
    degenerate = tuple(label for j, label in enumerate(panel.agents) if flat[j])
    for a in range(n):
        for b in range(a + 1, n):
            if flat[a] or flat[b]:
                matrix[a, b] = matrix[b, a] = float("nan")
            else:
                matrix[a, b] = matrix[b, a] = float(
                    np.corrcoef(profiles[a], profiles[b])[0, 1])
    return CorrelationResult(matrix, degenerate)


def write_panel(panel: LossPanel, stream) -> None:
    """Serialize a panel to the canonical (month, agent, loss) CSV."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["month", "agent", "loss"])
    for i, (y, m) in enumerate(panel.months):
        for j, agent in enumerate(panel.agents):
            writer.writerow([f"{y:04d}-{m:02d}", agent, repr(float(panel.losses[i, j]))])


def load_panel(source) -> LossPanel:
    """Read a canonical (month, agent, loss) CSV back into a panel; any bad
    row, cell or overflowing cell sum raises FormatError."""
    reader = csv.DictReader(_open_text(source))
    # A DictReader's own line_num lags on a row that fails to read.
    with _csv_errors(reader.reader):
        if reader.fieldnames is None or set(reader.fieldnames) != {"month", "agent", "loss"}:
            raise FormatError("canonical panel CSV needs columns month, agent, loss")
        keys, ids, losses, labels = [], [], [], {}
        for row in reader:
            try:
                y, m = row["month"].split("-")
                year, month, loss = int(y), int(m), float(row["loss"])
                agent = row["agent"].strip()
            except (ValueError, AttributeError, TypeError) as exc:
                reason = "missing cells" if None in row.values() else exc
                raise FormatError(f"bad canonical row near line {reader.line_num}: {reason}")
            if not 1 <= month <= 12 or not 0.0 <= loss < math.inf:
                raise FormatError(f"bad canonical row near line {reader.line_num}: out of range")
            if not agent:
                raise FormatError(f"bad canonical row near line {reader.line_num}: "
                                  "empty agent label")
            keys.append(12 * year + month - 1)
            ids.append(labels.setdefault(agent, len(labels)))
            losses.append(loss)
    if not keys:
        raise FormatError("no panel rows")
    try:
        return _assemble(keys, ids, losses, list(labels))
    except DomainError as exc:
        raise FormatError(str(exc)) from exc
