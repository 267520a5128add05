"""Claim-level CSV ingestion into monthly loss panels.

Input grammar: UTF-8 CSV with a header row and RFC-4180 quoting, one row per
claim, carrying at least a date column ``dateOfLoss`` (ISO 8601, a leading
YYYY-MM-DD is enough), an agent label column ``state`` and a numeric loss
column (``amountPaid`` unless configured otherwise).  Claims are summed by
calendar month and agent.  The panel spans every month between the first
and last observed claim, so months without claims become genuine zero-loss
states; with uniform weights the panel is an empirical probability space.

``parse_losses`` reads the file in one streaming ``csv.reader`` pass and
keeps no row: each distinct date text is parsed once, each distinct label
stripped once, and the used rows become three flat lists (month key, agent
id, loss) that one ``np.bincount`` sums into the panel.  It accepts and
rejects exactly what a per-row ``csv.DictReader`` loop would, with the same
reasons and line numbers.
"""

from __future__ import annotations

import csv
import datetime as _dt
import io
import math
from dataclasses import dataclass

import numpy as np

from . import riskmeasure
from .errors import DomainError, FormatError
from .riskmeasure import EmpiricalSpace

DATE_COLUMN = "dateOfLoss"
AGENT_COLUMN = "state"
DEFAULT_LOSS_COLUMN = "amountPaid"


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
        if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
            raise DomainError("losses must be finite and non-negative")
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
    """Months x agents panel from per-row (month key, agent id, loss) lists.

    A month key is 12 * year + month - 1 and ``labels[id]`` names an agent.
    Every month from the first to the last key is a state and absent cells
    are zero losses; agents without rows are dropped and the rest sorted by
    label.  Rows of one cell are summed in input order by ``np.bincount``.
    """
    if not keys:
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


def _month_key(raw_date: str) -> int:
    """12 * year + month - 1 of a leading ISO date, or -1 if it is invalid."""
    try:
        date = _dt.date.fromisoformat(raw_date.strip()[:10])
    except ValueError:
        return -1
    return 12 * date.year + date.month - 1


def parse_losses(source, loss_column: str = DEFAULT_LOSS_COLUMN
                 ) -> tuple[LossPanel, ParseReport]:
    """Aggregate a claim-level CSV into a LossPanel.

    ``source`` is an open text stream or a CSV string.  Rows with an
    unparseable date, an empty agent label, or a negative or non-numeric
    loss are skipped and reported; an empty loss cell counts as zero.
    Missing required columns abort with FormatError.

    Rows are read as ``csv.DictReader`` reads them: blank lines are
    skipped, a duplicated header name refers to its last column and cells
    beyond a short row are empty.  A rejected row is reported with the
    number of its last physical line.
    """
    reader = csv.reader(_open_text(source))
    header = next(reader, None)
    if header is None:
        raise FormatError("empty input: no header row")
    for needed in (DATE_COLUMN, AGENT_COLUMN, loss_column):
        if needed not in header:
            raise FormatError(f"missing required column '{needed}'")
    index = {name: j for j, name in enumerate(header)}
    di, ai, li = index[DATE_COLUMN], index[AGENT_COLUMN], index[loss_column]
    width = max(di, ai, li) + 1
    # One pass, no row kept: month keys and agent ids are cached per raw
    # cell text, and the used rows go to three flat lists.
    month_of: dict[str, int] = {}
    agent_of: dict[str, int] = {}
    labels: dict[str, int] = {}
    keys: list[int] = []
    ids: list[int] = []
    losses: list[float] = []
    rejected: list[tuple[int, str]] = []
    for row in reader:
        if len(row) < width:
            if not row:
                continue
            row = row + [""] * (width - len(row))
        raw = row[di]
        key = month_of.get(raw)
        if key is None:
            key = month_of[raw] = _month_key(raw)
        if key < 0:
            rejected.append((reader.line_num, f"bad date {raw.strip()!r}"))
            continue
        raw = row[ai]
        agent = agent_of.get(raw)
        if agent is None:
            label = raw.strip()
            agent = agent_of[raw] = labels.setdefault(label, len(labels)) if label else -1
        if agent < 0:
            rejected.append((reader.line_num, "empty agent label"))
            continue
        raw = row[li]
        try:
            loss = float(raw)
        except ValueError:
            # float() ignores the same surrounding whitespace as str.strip().
            raw = raw.strip()
            if raw:
                rejected.append((reader.line_num, f"non-numeric loss {raw!r}"))
                continue
            loss = 0.0
        if not 0.0 <= loss < math.inf:
            rejected.append((reader.line_num, f"invalid loss {loss!r}"))
            continue
        keys.append(key)
        ids.append(agent)
        losses.append(loss)
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
    sample one (m - 1 denominator), so a single-month panel is rejected.
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
            std_dev=float(np.std(x, ddof=1)),
        )
    return out


@dataclass(frozen=True, eq=False)
class CorrelationResult:
    """Pairwise Pearson correlations; entries touching a zero-variance
    agent are NaN and the agent is listed in ``degenerate``."""

    matrix: np.ndarray
    degenerate: tuple[str, ...]


def correlation(panel: LossPanel) -> CorrelationResult:
    _, profiles = to_space(panel)
    n = len(panel.agents)
    stds = profiles.std(axis=1)
    matrix = np.eye(n)
    degenerate = tuple(label for j, label in enumerate(panel.agents)
                       if stds[j] == 0.0)
    for a in range(n):
        for b in range(a + 1, n):
            if stds[a] == 0.0 or stds[b] == 0.0:
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
    """Read a canonical (month, agent, loss) CSV back into a panel."""
    reader = csv.DictReader(_open_text(source))
    if reader.fieldnames is None or set(reader.fieldnames) != {"month", "agent", "loss"}:
        raise FormatError("canonical panel CSV needs columns month, agent, loss")
    keys, ids, losses, labels = [], [], [], {}
    for row in reader:
        try:
            y, m = row["month"].split("-")
            year, month, loss = int(y), int(m), float(row["loss"])
        except (ValueError, AttributeError) as exc:
            raise FormatError(f"bad canonical row near line {reader.line_num}: {exc}")
        if not 1 <= month <= 12 or loss < 0.0:
            raise FormatError(f"bad canonical row near line {reader.line_num}")
        keys.append(12 * year + month - 1)
        ids.append(labels.setdefault(row["agent"].strip(), len(labels)))
        losses.append(loss)
    if not keys:
        raise FormatError("no panel rows")
    return _assemble(keys, ids, losses, list(labels))
