"""Claim-level CSV ingestion into monthly loss panels.

Input grammar: UTF-8 CSV with a header row and RFC-4180 quoting, one row per
claim, carrying at least a date column ``dateOfLoss`` (ISO 8601, a leading
YYYY-MM-DD is enough), an agent label column ``state`` and a numeric loss
column (``amountPaid`` unless configured otherwise).  Claims are summed by
calendar month and agent.  The panel spans every month between the first
and last observed claim, so months without claims become genuine zero-loss
states; with uniform weights the panel is an empirical probability space.
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


def _assemble(sums: dict[tuple[int, int], dict[str, float]]) -> LossPanel:
    """Months x agents panel of per-(month, agent) sums over every month from
    the first to the last key; absent cells are zero losses."""
    (y0, m0), (y1, m1) = min(sums), max(sums)
    months = tuple((k // 12, k % 12 + 1) for k in range(12 * y0 + m0 - 1, 12 * y1 + m1))
    agents = tuple(sorted({a for cell in sums.values() for a in cell}))
    losses = np.array([[sums.get(month, {}).get(a, 0.0) for a in agents]
                       for month in months])
    return LossPanel(months, agents, losses)


def _open_text(source):
    if isinstance(source, str):
        return io.StringIO(source)
    return source


def parse_losses(source, loss_column: str = DEFAULT_LOSS_COLUMN
                 ) -> tuple[LossPanel, ParseReport]:
    """Aggregate a claim-level CSV into a LossPanel.

    ``source`` is an open text stream or a CSV string.  Rows with an
    unparseable date, an empty agent label, or a negative or non-numeric
    loss are skipped and reported; an empty loss cell counts as zero.
    Missing required columns abort with FormatError.
    """
    reader = csv.DictReader(_open_text(source))
    header = reader.fieldnames
    if header is None:
        raise FormatError("empty input: no header row")
    for needed in (DATE_COLUMN, AGENT_COLUMN, loss_column):
        if needed not in header:
            raise FormatError(f"missing required column '{needed}'")
    sums: dict[tuple[int, int], dict[str, float]] = {}
    total = used = 0
    rejected: list[tuple[int, str]] = []
    for row in reader:
        total += 1
        line = reader.line_num
        raw_date = (row.get(DATE_COLUMN) or "").strip()
        try:
            date = _dt.date.fromisoformat(raw_date[:10])
        except ValueError:
            rejected.append((line, f"bad date {raw_date!r}"))
            continue
        agent = (row.get(AGENT_COLUMN) or "").strip()
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
        key = (date.year, date.month)
        cell = sums.setdefault(key, {})
        cell[agent] = cell.get(agent, 0.0) + loss
    if not sums:
        # No usable rows is not a format error: rejections are reported,
        # and an empty body legitimately yields an empty panel.
        return (LossPanel((), (), np.zeros((0, 0))),
                ParseReport(total, used, tuple(rejected)))
    return _assemble(sums), ParseReport(total, used, tuple(rejected))


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
    sums: dict[tuple[int, int], dict[str, float]] = {}
    for row in reader:
        try:
            y, m = row["month"].split("-")
            key = (int(y), int(m))
            loss = float(row["loss"])
        except (ValueError, AttributeError) as exc:
            raise FormatError(f"bad canonical row near line {reader.line_num}: {exc}")
        if not 1 <= key[1] <= 12 or loss < 0.0:
            raise FormatError(f"bad canonical row near line {reader.line_num}")
        cell, agent = sums.setdefault(key, {}), row["agent"].strip()
        cell[agent] = cell.get(agent, 0.0) + loss
    if not sums:
        raise FormatError("no panel rows")
    return _assemble(sums)
