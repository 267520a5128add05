"""Output checks for the benchmark workloads.

Each check reads one op's output directory and returns a list of problems;
an empty list means the outputs pass.  Only invariants that every correct
solver must keep are checked, never exact solver values, so a faster or
more exact solver still passes:

* ``po-decentralized``: the layer slopes of every layer sum to 1, the side
  payments sum to 0, the equal welfare split gives every agent the same
  gain, and re-evaluating the reloaded ``allocation.json`` reproduces
  ``market_report.json``.
* ``stackelberg``: every policyholder is exactly indifferent (zero gain) and
  the insurer collects the whole aggregate gain, which is non-negative.
* ``sweep``: the percent-decrease column changes sign over the grid and
  every centralized gain is positive (acceptance criterion 8).

Tolerances are relative: 1e-9 of the natural scale of each quantity.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

REL = 1e-9


def output_digest(out: Path) -> str:
    """SHA-256 over the names and bytes of every file an op wrote."""
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _market(config: Path, data: Path):
    """Rebuild the peer-to-peer market from the input files alone, through
    the package's public API, so the check does not share the CLI's own
    market assembly."""
    from paretopool import AgentSpec, EmpiricalSpace, parse_losses, to_space
    from paretopool.cli import load_config

    cfg = load_config(config)
    with open(data, encoding="utf-8", newline="") as fh:
        panel, _ = parse_losses(fh, cfg.loss_column)
    shared, _ = to_space(panel)
    agents = []
    for acfg in cfg.agents:
        belief = shared
        if acfg.belief_file is not None:
            text = (cfg.base_dir / acfg.belief_file).read_text(encoding="utf-8")
            belief = EmpiricalSpace(np.array([float(v) for v in text.split()]))
        agents.append(AgentSpec(belief, acfg.distortions,
                                panel.column(acfg.endowment_column)))
    return agents


def check_p2p(out: Path, config: Path, data: Path) -> list[str]:
    from paretopool import LayerAllocation, welfare_report

    problems = []
    alloc_payload = json.loads((out / "allocation.json").read_text(encoding="utf-8"))
    report = json.loads((out / "market_report.json").read_text(encoding="utf-8"))
    slopes = np.asarray(alloc_payload["slopes"], dtype=float)
    if slopes.size and np.max(np.abs(slopes.sum(axis=0) - 1.0)) > REL:
        problems.append("allocation slopes do not sum to 1 on every layer")
    c = np.asarray(alloc_payload["side_payments"], dtype=float)
    if abs(math.fsum(c)) > REL * max(np.max(np.abs(c)), 1.0):
        problems.append(f"side payments sum to {math.fsum(c)!r}, not 0")
    gains = np.asarray(report["welfare_gains"], dtype=float)
    if np.ptp(gains) > REL * max(np.max(np.abs(gains)), 1.0):
        problems.append("equal-rule welfare gains differ between agents")
    agents = _market(config, data)
    again = welfare_report(agents, LayerAllocation.from_dict(alloc_payload)).to_dict()
    scale = max(np.max(np.abs(report["initial_values"])), 1.0)
    for key in ("initial_values", "post_trade_values", "welfare_gains",
                "total_welfare", "average_gain", "optimum_value"):
        if not np.allclose(again[key], report[key], rtol=REL, atol=REL * scale):
            problems.append(f"reloaded allocation does not reproduce report {key}")
    return problems


def check_central(out: Path) -> list[str]:
    problems = []
    rows = _read_csv(out / "premiums_stackelberg.csv")
    premiums = [float(r["premium"]) for r in rows]
    for r, premium in zip(rows, premiums):
        gain = float(r["policyholder_gain"])
        if abs(gain) > REL * abs(premium):
            problems.append(f"policyholder {r['agent']} gains {gain!r}, not 0")
    summary = json.loads((out / "stackelberg.json").read_text(encoding="utf-8"))
    insurer, aggregate = summary["insurer_gain"], summary["aggregate_gain"]
    scale = max(math.fsum(abs(p) for p in premiums), abs(aggregate), 1.0)
    if abs(insurer - aggregate) > REL * scale:
        problems.append(f"insurer gain {insurer!r} differs from aggregate {aggregate!r}")
    if min(insurer, aggregate) < -REL * scale:
        problems.append("insurer or aggregate gain is negative")
    return problems


def check_sweep(out: Path) -> list[str]:
    rows = _read_csv(out / "sweep.csv")
    pct = np.array([float(r["percent_decrease"]) for r in rows])
    cen = np.array([float(r["centralized_avg_gain"]) for r in rows])
    problems = []
    if not rows or not np.all(np.isfinite(pct)):
        problems.append("percent-decrease column is empty or not finite")
    if not (np.any(pct > 0.0) and np.any(pct < 0.0)):
        problems.append("percent-decrease column does not change sign")
    if not np.all(cen > 0.0):
        problems.append("a centralized gain is not positive")
    return problems
