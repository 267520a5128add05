"""Seeded input generator for the paretopool CLI benchmark.

Every workload is a claim-level CSV plus a run configuration (and, for the
peer-to-peer market, per-agent belief files).  The same seed always gives
byte-identical files.  The program under test only ever sees these files
through its command line.

Claim amounts are Pareto distributed (heavy right tail), one agent label per
column of the panel, and every panel spans exactly the requested number of
months: the first and the last month always carry a claim.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

# Grid of the agent-3 power exponent in the sweep workload; the other two
# agents use Kahneman-Tversky 0.4 and 0.5 (acceptance criterion 8).
SWEEP_GRID = "0.3,0.4,0.5,0.6,0.65,0.7"


@dataclass(frozen=True)
class Sizes:
    """Shape of a generated claim panel."""

    months: int
    agents: int
    nonzero_share: float       # share of month-agent cells with claims
    extra_rows_mean: float     # Poisson mean of rows beyond the first
    robust_agents: int = 0     # agents with three candidate distortions
    belief_agents: int = 0     # agents with their own belief file
    start_year: int = 1900


P2P_WIDE = Sizes(months=2000, agents=30, nonzero_share=0.7, extra_rows_mean=2.0,
                 robust_agents=3, belief_agents=5, start_year=1850)
# Forty years of monthly data: the measure LP's dense exceedance matrix then
# takes about 1.5 s of HiGHS time and a third of a gigabyte per op.
CENTRAL_LP = Sizes(months=480, agents=10, nonzero_share=1.0, extra_rows_mean=0.0,
                   start_year=1980)
# Warm-up inputs: the same subcommands on a few years of data.
TINY_P2P = Sizes(months=36, agents=4, nonzero_share=0.8, extra_rows_mean=1.0,
                 robust_agents=1, belief_agents=1)
TINY_CENTRAL = Sizes(months=36, agents=3, nonzero_share=1.0, extra_rows_mean=0.0)


@dataclass(frozen=True)
class Workload:
    """Generated files and the CLI argument vector that consumes them."""

    argv: tuple[str, ...]      # without --out
    data: Path
    config: Path
    claim_rows: int
    months: int
    agents: int
    panel: tuple[tuple[float, ...], ...]   # month x agent sums, ingest order


def _poisson(rng: random.Random, mean: float) -> int:
    if mean <= 0.0:
        return 0
    limit, k, p = math.exp(-mean), 0, rng.random()
    while p > limit:
        k += 1
        p *= rng.random()
    return k


def _month(start_year: int, index: int) -> tuple[int, int]:
    return start_year + index // 12, index % 12 + 1


def _labels(n: int) -> list[str]:
    return [f"A{j:02d}" for j in range(n)]


def _write_claims(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["dateOfLoss", "state", "amountPaid"])
        writer.writerows(rows)


def pareto_claims(rng: random.Random, sizes: Sizes):
    """Claim rows and the month x agent panel they aggregate to.

    Each agent has its own Pareto tail index in [1.5, 3] and scale in
    [1e3, 1e4]; amounts are written with two decimals.  The panel sums the
    written amounts in row order, as the CSV ingest does.
    """
    labels = _labels(sizes.agents)
    tails = [rng.uniform(1.5, 3.0) for _ in labels]
    scales = [rng.uniform(1e3, 1e4) for _ in labels]
    rows, panel = [], []
    last = sizes.months - 1
    for i in range(sizes.months):
        y, mo = _month(sizes.start_year, i)
        sums = []
        for j, label in enumerate(labels):
            forced = j == 0 and i in (0, last)
            total = 0.0
            if forced or rng.random() < sizes.nonzero_share:
                for _ in range(1 + _poisson(rng, sizes.extra_rows_mean)):
                    amount = f"{scales[j] * (1.0 - rng.random()) ** (-1.0 / tails[j]):.2f}"
                    rows.append((f"{y:04d}-{mo:02d}-{rng.randint(1, 28):02d}",
                                 label, amount))
                    total += float(amount)
            sums.append(total)
        panel.append(tuple(sums))
    return rows, tuple(panel)


def _dist(family: str, value: float) -> dict:
    key = {"power": "gamma", "kahneman_tversky": "gamma",
           "prelec1": "alpha", "tvar": "alpha"}[family]
    return {"family": family, "params": {key: round(value, 4)}}


def _random_dist(rng: random.Random, family: str) -> dict:
    lo, hi = {"power": (0.4, 0.9), "kahneman_tversky": (0.4, 0.9),
              "prelec1": (0.5, 0.9), "tvar": (0.1, 0.5)}[family]
    return _dist(family, rng.uniform(lo, hi))


def write_belief(path: Path, rng: random.Random, m: int) -> None:
    """Strictly positive weights, one per month, written with repr.

    The last entry closes the sum, so the exact (fsum) total is 1 within one
    rounding of the final subtraction.
    """
    raw = [rng.uniform(0.5, 1.5) for _ in range(m)]
    total = math.fsum(raw)
    w = [v / total for v in raw]
    w[-1] = 1.0 - math.fsum(w[:-1])
    path.write_text("".join(repr(v) + "\n" for v in w), encoding="utf-8")


def _write_config(path: Path, agents: list[dict]) -> None:
    payload = {"version": 1, "alpha": 0.15, "weights": "equal", "agents": agents}
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def make_p2p(out: Path, seed: int, sizes: Sizes = P2P_WIDE) -> Workload:
    """Peer-to-peer market: mixed distortions, robust agents, own beliefs."""
    rng = random.Random(f"p2p-wide/{seed}")
    rows, panel = pareto_claims(rng, sizes)
    labels = _labels(sizes.agents)
    special = rng.sample(range(sizes.agents), sizes.robust_agents + sizes.belief_agents)
    robust = set(special[:sizes.robust_agents])
    believers = set(special[sizes.robust_agents:])
    families = ("power", "prelec1", "kahneman_tversky", "tvar")
    agents = []
    for j, label in enumerate(labels):
        if j in robust:
            dists = [_random_dist(rng, f) for f in rng.sample(families, 3)]
        else:
            dists = [_random_dist(rng, families[j % len(families)])]
        rec = {"label": label, "distortions": dists}
        if j in believers:
            name = f"belief_{label}.txt"
            write_belief(out / name, rng, sizes.months)
            rec["belief"] = {"weights_file": name}
        agents.append(rec)
    data, config = out / "claims.csv", out / "run.json"
    _write_claims(data, rows)
    _write_config(config, agents)
    argv = ("po-decentralized", "--config", str(config), "--data", str(data))
    return Workload(argv, data, config, len(rows), sizes.months, sizes.agents, panel)


def make_central(out: Path, seed: int, sizes: Sizes = CENTRAL_LP) -> Workload:
    """Centralized market: single distortions on the shared measure."""
    rng = random.Random(f"central-lp/{seed}")
    rows, panel = pareto_claims(rng, sizes)
    families = ("kahneman_tversky", "prelec1")
    agents = [{"label": label,
               "distortions": [_random_dist(rng, families[j % len(families)])]}
              for j, label in enumerate(_labels(sizes.agents))]
    data, config = out / "claims.csv", out / "run.json"
    _write_claims(data, rows)
    _write_config(config, agents)
    argv = ("stackelberg", "--config", str(config), "--data", str(data))
    return Workload(argv, data, config, len(rows), sizes.months, sizes.agents, panel)


def make_sweep(out: Path, seed: int, panel_csv: Path) -> Workload:
    """The checked-in three-agent panel as claim rows, one per cell.

    The panel file is only read.  The seed picks the day of month and the
    row order, neither of which changes the monthly sums: loss strings are
    copied verbatim, so each cell parses to the panel's own float.
    """
    rng = random.Random(f"sweep-panel/{seed}")
    with open(panel_csv, encoding="utf-8", newline="") as fh:
        cells = list(csv.DictReader(fh))
    labels = sorted({c["agent"] for c in cells})
    months = sorted({c["month"] for c in cells})
    sums = {(c["month"], c["agent"]): float(c["loss"]) for c in cells}
    rows = [(f"{c['month']}-{rng.randint(1, 28):02d}", c["agent"], c["loss"])
            for c in cells]
    rng.shuffle(rows)
    dists = [_dist("kahneman_tversky", 0.4), _dist("kahneman_tversky", 0.5),
             _dist("power", 0.5)]
    agents = [{"label": label, "distortions": [d]} for label, d in zip(labels, dists)]
    data, config = out / "claims.csv", out / "run.json"
    _write_claims(data, rows)
    _write_config(config, agents)
    argv = ("sweep", "--config", str(config), "--data", str(data),
            "--grid", SWEEP_GRID, "--sweep-agent", labels[-1])
    panel = tuple(tuple(sums.get((mo, a), 0.0) for a in labels) for mo in months)
    return Workload(argv, data, config, len(rows), len(months), len(labels), panel)
