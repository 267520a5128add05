"""Command line front end.

Subcommands: summary, po-decentralized, po-centralized, stackelberg, sweep,
validate-config.  Run configuration is a JSON file with an explicit schema
version; unknown keys anywhere in the tree are rejected.  Emitted CSV files
round floats to 9 significant digits; JSON files keep full precision so an
allocation can be reloaded and re-evaluated without loss.

Exit codes: 0 success, 2 input or data format error, 3 solver failure,
4 configuration error.  The PARETOPOOL_LOG environment variable sets the
logging level.  A package warning prints as the one line ``warning:
<message>`` on stderr, each distinct message once per run.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import os
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import centralized as central
from . import ingest
from .distortion import (PARAM_NAMES, POWER, TABULATED, Distortion,
                         DistortionSet, single)
from .errors import (ConfigError, DomainError, FormatError, InvalidWeightsError,
                     ParetopoolError, ParetopoolWarning, UnsupportedOperationError)
from .posolver import (AgentSpec, aggregate_loss, settle, solve_robust,
                       welfare_shares)
from .riskmeasure import EmpiricalSpace, choquet

log = logging.getLogger(__name__)

SCHEMA_VERSION = 1
DEFAULT_ALPHA = 0.15
DEFAULT_OUT = "paretopool_out"

_TOP_KEYS = {"version", "alpha", "weights", "loss_column", "agents"}
_AGENT_KEYS = {"label", "distortions", "belief", "endowment_column"}
_DIST_KEYS = {"family", "params"}


@dataclass(frozen=True)
class AgentConfig:
    label: str
    distortions: DistortionSet
    belief_file: str | None
    endowment_column: str


@dataclass(frozen=True)
class RunConfig:
    agents: tuple[AgentConfig, ...]
    alpha: float
    weights: object            # "equal" | "last" | tuple of proportions
    loss_column: str
    base_dir: Path


def _object(value, allowed, where: str) -> dict:
    """A JSON object whose keys all lie in ``allowed``."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where}: must be an object")
    unknown = set(value) - set(allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    return value


def _text(value, where: str) -> str:
    """A non-empty JSON string."""
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{where}: must be a non-empty string")
    return value


def _real(value, where: str) -> float:
    """A finite JSON number; booleans, strings, NaN and Infinity are refused."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max):
        raise ConfigError(f"{where}: must be a finite number, got {json.dumps(value)}")
    return float(value)


def _distortion_from_record(rec, where: str) -> Distortion:
    """A distortion from its config record; the Distortion constructor is the
    only range check, and its message follows ``where``."""
    rec = _object(rec, _DIST_KEYS, where)
    family = _text(rec.get("family"), f"{where}.family")
    if family not in PARAM_NAMES:
        raise ConfigError(f"{where}: unknown family '{family}'")
    names = ("knots",) if family == TABULATED else PARAM_NAMES[family]
    params = _object(rec.get("params", {}), names, f"{where}.params")
    if family == TABULATED:
        pairs = params.get("knots")
        if not isinstance(pairs, list) or not all(
                isinstance(p, list) and len(p) == 2 for p in pairs):
            raise ConfigError(f"{where}.params.knots: must be a list of [t, T(t)] pairs")
        values, knots = (), tuple((_real(t, f"{where}.params.knots[{j}][0]"),
                                   _real(v, f"{where}.params.knots[{j}][1]"))
                                  for j, (t, v) in enumerate(pairs))
    else:
        values = tuple(_real(params[n], f"{where}.params.{n}") for n in names if n in params)
        knots = ()
    try:
        return Distortion(family, values, knots)
    except DomainError as exc:
        raise ConfigError(f"{where}: {exc}")


def _weights_from_value(value, where: str, n: int):
    """``config.weights``: a weight rule name or a tuple of proportions that
    :func:`~paretopool.posolver.welfare_shares` accepts for n agents."""
    if isinstance(value, list):
        value = tuple(_real(v, f"{where}[{j}]") for j, v in enumerate(value))
    elif not isinstance(value, str):
        raise ConfigError(f"{where}: unsupported weights value {value!r}")
    try:
        welfare_shares(value, n)
    except InvalidWeightsError as exc:
        raise ConfigError(f"{where}: {exc}")
    return value


def _read_json(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8-sig"))
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    except ValueError as exc:          # bad JSON, or an integer past the digit limit
        raise ConfigError(f"config is not valid JSON: {exc}")


def load_config(path) -> RunConfig:
    """Parse and validate a run configuration file (fail-fast)."""
    path = Path(path)
    payload = _object(_read_json(path), _TOP_KEYS, "config")
    if _real(payload.get("version"), "config.version") != SCHEMA_VERSION:
        raise ConfigError(f"config version must be {SCHEMA_VERSION}")
    alpha = _real(payload.get("alpha", DEFAULT_ALPHA), "config.alpha")
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must lie in (0, 1), got {alpha}")
    loss_column = _text(payload.get("loss_column", ingest.DEFAULT_LOSS_COLUMN),
                        "config.loss_column")
    raw_agents = payload.get("agents")
    if not isinstance(raw_agents, list) or not raw_agents:
        raise ConfigError("config.agents must be a non-empty list")
    agents: list[AgentConfig] = []
    for i, rec in enumerate(raw_agents):
        where = f"config.agents[{i}]"
        rec = _object(rec, _AGENT_KEYS, where)
        label = _text(rec.get("label"), f"{where}.label")
        if any(a.label == label for a in agents):
            raise ConfigError(f"{where}: duplicate label '{label}'")
        recs = rec.get("distortions")
        if not isinstance(recs, list) or not recs:
            raise ConfigError(f"{where}: distortions must be a non-empty list")
        dset = DistortionSet(tuple(
            _distortion_from_record(r, f"{where}.distortions[{j}]")
            for j, r in enumerate(recs)))
        belief = rec.get("belief", "shared")
        belief_file = None if belief == "shared" else _text(
            _object(belief, {"weights_file"}, f"{where}.belief").get("weights_file"),
            f"{where}.belief.weights_file")
        column = _text(rec.get("endowment_column", label), f"{where}.endowment_column")
        agents.append(AgentConfig(label, dset, belief_file, column))
    weights = _weights_from_value(payload.get("weights", "equal"), "config.weights", len(agents))
    return RunConfig(tuple(agents), alpha, weights, loss_column, path.parent)


# -- market assembly ---------------------------------------------------------


def _load_belief(cfg: RunConfig, agent: AgentConfig, m: int) -> EmpiricalSpace | None:
    if agent.belief_file is None:
        return None
    path = cfg.base_dir / agent.belief_file      # an absolute file stays as it is
    try:
        values = [float(line) for line in path.read_text(encoding="utf-8-sig").split()]
    except (OSError, ValueError) as exc:
        raise ConfigError(f"belief file {path}: {exc}")
    if len(values) != m:
        raise ConfigError(f"belief file {path} has {len(values)} weights for {m} months")
    try:
        return EmpiricalSpace(np.array(values))
    except ParetopoolError as exc:
        raise ConfigError(f"belief file {path}: {exc}")


def _read_panel(path, loss_column: str) -> ingest.LossPanel:
    """The monthly panel of a claims CSV; text that is not UTF-8 (a leading
    byte-order mark is allowed), text that breaks the CSV grammar, an
    overflowing cell sum or no usable claim row is a format error that
    names the file."""
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        try:
            panel, report = ingest.parse_losses(fh, loss_column)
        except (DomainError, FormatError, UnicodeDecodeError) as exc:
            raise FormatError(f"{path}: {exc}") from exc
    log.info("parsed %d claim rows (%d used, %d rejected) into %d months x %d agents",
             report.total_rows, report.used_rows, len(report.rejected),
             panel.month_count, len(panel.agents))
    if not report.used_rows:
        first = "; the first at line %d: %s" % report.rejected[0] if report.rejected else ""
        raise FormatError(f"{path}: no usable claim rows, {len(report.rejected)} rejected{first}")
    return panel


def _load_market(args, cfg: RunConfig):
    panel = _read_panel(args.data, cfg.loss_column)
    shared = EmpiricalSpace.uniform(panel.month_count)
    agents = []
    for acfg in cfg.agents:
        try:
            profile = panel.column(acfg.endowment_column)
        except ParetopoolError:
            raise ConfigError(
                f"agent '{acfg.label}': data has no column '{acfg.endowment_column}' "
                f"(available: {list(panel.agents)})")
        belief = _load_belief(cfg, acfg, panel.month_count) or shared
        agents.append(AgentSpec(belief, acfg.distortions, profile))
    return shared, agents


def _require_plain_centralized(cfg: RunConfig) -> list[Distortion]:
    dists = []
    for acfg in cfg.agents:
        if acfg.belief_file is not None:
            raise ConfigError(
                f"agent '{acfg.label}': centralized commands use the shared "
                "reference measure; per-agent beliefs are not supported there")
        if len(acfg.distortions) != 1:
            raise ConfigError(
                f"agent '{acfg.label}': centralized commands need a single "
                "distortion per agent")
        dists.append(acfg.distortions[0])
    return dists


# -- output helpers ----------------------------------------------------------


# Every CSV float: 9 significant digits.
_fmt = "{:.9g}".format


def _write_csv(path: Path, header, rows) -> None:
    """``rows`` is a list of cell lists, or the body as formatted text."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        if isinstance(rows, str):
            fh.write(rows)
        else:
            writer.writerows(rows)


def _json_text(value, pad: str = "") -> str:
    """``json.dumps(value, indent=2)``, each line after the first led by ``pad``.

    Under ``indent`` json's pure-Python encoder writes every token; here a
    list of plain floats is one join of ``float.__repr__``, json's own
    spelling of a finite float, lists and dicts with string keys recurse,
    and every other value is json's text.
    """
    inner = pad + "  "
    sep = ",\n" + inner
    if type(value) is list and value:
        if set(map(type, value)) == {float}:
            body = sep.join(map(float.__repr__, value))
            if "n" not in body:        # json spells nan and inf NaN and Infinity
                return f"[\n{inner}{body}\n{pad}]"
        return f"[\n{inner}{sep.join(_json_text(v, inner) for v in value)}\n{pad}]"
    if type(value) is dict and set(map(type, value)) == {str}:
        body = sep.join(f"{json.dumps(k)}: {_json_text(v, inner)}" for k, v in value.items())
        return f"{{\n{inner}{body}\n{pad}}}"
    return json.dumps(value, indent=2).replace("\n", "\n" + pad)


def _write_json(path: Path, payload: dict) -> None:
    """Write ``payload`` as the same bytes as ``json.dumps(payload, indent=2)``
    and a newline, in one write."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_json_text(payload) + "\n")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _ranked_rows(S: np.ndarray, columns: np.ndarray) -> str:
    """CSV body of rows rank, state, S, columns[:, state] with states in
    stable S order; one %-format per row writes each float as ``_fmt``.

    A column of one bit pattern (so 0.0 and -0.0 differ) is formatted once
    into the row template; a formatted float holds no '%'."""
    order = np.argsort(S, kind="stable")
    table = np.vstack([S, columns]).T[order]
    bits = table.view(np.int64)
    varies = (bits != bits[0]).any(axis=0)
    line = "%d,%d," + ",".join(["%.9g" if v else "%.9g" % x for x, v in
                                zip(table[0].tolist(), varies.tolist())]) + "\n"
    return "".join([line % (rank, state, *values) for rank, (state, values)
                    in enumerate(zip(order.tolist(), table[:, varies].tolist()))])


# -- subcommands -------------------------------------------------------------


def cmd_summary(args) -> int:
    cfg = load_config(args.config) if args.config else None
    panel = _read_panel(args.data, cfg.loss_column if cfg else ingest.DEFAULT_LOSS_COLUMN)
    out = _out_dir(args)
    stats = ingest.summary_stats(panel)
    header = ["statistic"] + list(panel.agents)
    rows = [[field] + [_fmt(getattr(stats[a], field)) for a in panel.agents]
            for field in ingest.STAT_FIELDS]
    _write_csv(out / "summary.csv", header, rows)
    corr = ingest.correlation(panel)
    header = ["agent"] + list(panel.agents)
    rows = [[a] + [_fmt(v) for v in corr.matrix[i]]
            for i, a in enumerate(panel.agents)]
    _write_csv(out / "correlation.csv", header, rows)
    print(f"wrote summary.csv and correlation.csv to {out}")
    return 0


def cmd_po_decentralized(args) -> int:
    cfg = load_config(args.config)
    _, agents = _load_market(args, cfg)
    labels = [a.label for a in cfg.agents]
    solution = solve_robust(agents)
    alloc, report = settle(agents, solution.allocation, cfg.weights)
    out = _out_dir(args)

    payload = alloc.to_dict()
    payload["agent_labels"] = labels
    _write_json(out / "allocation.json", payload)

    rep = report.to_dict()
    rep["agent_labels"] = labels
    rep["solver_value"] = solution.value
    _write_json(out / "market_report.json", rep)

    S = aggregate_loss(agents)
    header = ["rank", "state", "aggregate_loss"]
    for label in labels:
        header += [f"retained_raw_{label}", f"retained_norm_{label}"]
    # g_i(S) + c_i, then the zero-retention-at-zero-loss g_i(S), per agent;
    # the first is alloc.profiles(S), from one evaluation of the layer grid.
    coverage = alloc.coverage(S)
    retained = np.stack([coverage + alloc.side_payments[:, None], coverage], axis=1)
    rows = _ranked_rows(S, retained.reshape(2 * len(labels), -1))
    _write_csv(out / "retention_decentralized.csv", header, rows)
    print(f"total welfare gain {_fmt(report.total_welfare)}; outputs in {out}")
    return 0


def _centralized_market(args):
    """Config, labels, shared space, endowments and distortions of a
    centralized command (po-centralized, stackelberg, sweep)."""
    cfg = load_config(args.config)
    dists = _require_plain_centralized(cfg)
    space, agents = _load_market(args, cfg)
    labels = [a.label for a in cfg.agents]
    return cfg, labels, space, [a.endowment for a in agents], dists


def cmd_po_centralized(args) -> int:
    cfg, labels, space, endowments, dists = _centralized_market(args)
    contract = central.solve_centralized(space, endowments, dists, cfg.alpha)
    welfare = central.centralized_welfare(space, endowments, dists, contract)
    out = _out_dir(args)
    _write_json(out / "contract.json", contract.to_dict(labels))
    _write_json(out / "welfare_centralized.json", welfare.to_dict(labels))

    S = np.sum(endowments, axis=0)
    indemnities = contract.indemnity_profiles(space, endowments)
    header = ["rank", "state", "aggregate_loss"] + [f"retained_{l}" for l in labels]
    rows = _ranked_rows(S, np.asarray(endowments) - indemnities)
    _write_csv(out / "retention_centralized.csv", header, rows)
    print(f"aggregate welfare gain {_fmt(welfare.aggregate_gain)}; outputs in {out}")
    return 0


def cmd_stackelberg(args) -> int:
    cfg, labels, space, endowments, dists = _centralized_market(args)
    contract = central.solve_centralized(space, endowments, dists, cfg.alpha)
    # The premiums are the gross gains, bit for bit: every policyholder gains 0.
    welfare = central.centralized_welfare(space, endowments, dists, contract)
    out = _out_dir(args)
    rows = [[label, _fmt(premium), _fmt(0.0)]
            for label, premium in zip(labels, welfare.gross_gains)]
    _write_csv(out / "premiums_stackelberg.csv",
               ["agent", "premium", "policyholder_gain"], rows)
    _write_json(out / "stackelberg.json", {
        "schema_version": 1,
        "insurer_gain": welfare.aggregate_gain,
        "aggregate_gain": welfare.aggregate_gain,
        "average_gain": welfare.average_gain,
    })
    print(f"insurer gain {_fmt(welfare.aggregate_gain)}; outputs in {out}")
    return 0


def sweep_rows(space, endowments, dist_sets, sweep_index, gammas, alpha):
    """Welfare comparison rows for a grid of power exponents.

    The swept agent's distortion is replaced by power(gamma) at each grid
    value; every agent must carry a single distortion and the shared
    reference measure, and ``sweep_index`` must name one of the agents
    (0 to n - 1), else DomainError.  A grid point pays only for what its
    swept distortion changes:

    - Each agent's pre-trade risk rho_i(X_i) is evaluated once per distinct
      distortion it has in the sweep.  The decentralized average gain is
      (sum_i rho_i(X_i) - v) / n, with v the layer optimum of
      :func:`~paretopool.posolver.solve_robust`, which for singleton agents
      is the post-trade total.
    - The peer-to-peer solves run in grid order on one worker thread while
      this thread solves the measure LPs and the centralized welfare.  The
      first grid point builds the measure LP; each later one is warm from
      the one before: it rebuilds nothing, pushes only the swept agent's
      caps into HiGHS and re-solves the same live model from its last basis.
    - The centralized gross gains are priced on each contract's layers with
      no sort (:func:`~paretopool.centralized.centralized_welfare`).

    Nothing is kept past the call.  The rows come back in grid order.
    """
    n = len(dist_sets)
    if not 0 <= sweep_index < n:
        raise DomainError(f"sweep index {sweep_index} names no agent: "
                          f"the market has {n} agents (0 to {n - 1})")
    for i, ds in enumerate(dist_sets):
        if len(ds) != 1:
            raise UnsupportedOperationError(
                f"sweep needs a single distortion per agent; agent {i} has {len(ds)} candidates")
    base = [ds[0] for ds in dist_sets]
    grid = [[Distortion.power(gamma) if i == sweep_index else d for i, d in enumerate(base)]
            for gamma in gammas]
    if not grid:
        return []

    def layer_optimum(dists):
        return solve_robust([AgentSpec(space, single(d), x)
                             for d, x in zip(dists, endowments)]).value

    # The first LP loads scipy before the worker starts.  One worker: the
    # peer-to-peer solves hold the GIL, so more threads would only take it
    # from each other; HiGHS releases it while it solves.
    rows, contract = [], central.solve_measure_lp(space, endowments, grid[0], alpha)
    risks = {}
    with ThreadPoolExecutor(max_workers=1) as pool:
        optima = [pool.submit(layer_optimum, dists) for dists in grid]
        for k, (gamma, dists, optimum) in enumerate(zip(gammas, grid, optima)):
            if k:
                # The grid's LPs differ only in the swept agent's caps: each
                # starts from the optimal basis of the one before.
                contract = central.solve_measure_lp(space, endowments, dists, alpha,
                                                    warm=contract)
            cen = central.centralized_welfare(space, endowments, dists, contract).average_gain
            for i, d in enumerate(dists):
                if (i, d) not in risks:
                    risks[i, d] = choquet(space, endowments[i], d)
            initial = sum(risks[i, d] for i, d in enumerate(dists))
            dec = (initial - optimum.result()) / n
            pct = 100.0 * (cen - dec) / cen if cen != 0.0 else math.nan
            rows.append((gamma, 1.0 - gamma, cen, dec, pct))
    return rows


def cmd_sweep(args) -> int:
    cfg, labels, space, endowments, _ = _centralized_market(args)
    if args.sweep_agent is None:
        sweep_index = len(labels) - 1
    elif args.sweep_agent in labels:
        sweep_index = labels.index(args.sweep_agent)
    else:
        raise ConfigError(f"unknown sweep agent '{args.sweep_agent}'")
    if cfg.agents[sweep_index].distortions[0].family != POWER:
        raise ConfigError(
            f"sweep agent '{labels[sweep_index]}' must use a power distortion")
    try:
        gammas = [float(v) for v in args.grid.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"bad sweep grid '{args.grid}'")
    if not gammas or not all(0.0 < g < math.inf for g in gammas):
        raise ConfigError("sweep grid needs positive finite gamma values")
    dist_sets = [a.distortions for a in cfg.agents]
    rows = sweep_rows(space, endowments, dist_sets, sweep_index, gammas, cfg.alpha)
    out = _out_dir(args)
    _write_csv(out / "sweep.csv",
               ["gamma", "rpra", "centralized_avg_gain",
                "decentralized_avg_gain", "percent_decrease"],
               [[_fmt(v) for v in row] for row in rows])
    print(f"swept {len(gammas)} grid points; outputs in {out}")
    return 0


def cmd_validate_config(args) -> int:
    load_config(args.config)
    print("config ok")
    return 0


# -- entry point -------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paretopool",
        description="Pareto-optimal risk sharing with distortion risk measures")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, data=True, config_required=True):
        p.add_argument("--config", required=config_required,
                       help="run configuration JSON file")
        if data:
            p.add_argument("--data", required=True,
                           help="claim-level CSV input")
            p.add_argument("--out", default=DEFAULT_OUT,
                           help="output directory (created if missing)")

    p = sub.add_parser("summary", help="panel statistics and correlations")
    add_common(p, config_required=False)
    p.set_defaults(func=cmd_summary)

    p = sub.add_parser("po-decentralized",
                       help="peer-to-peer allocation, optimal among comonotone "
                            "(layer) allocations")
    add_common(p)
    p.set_defaults(func=cmd_po_decentralized)

    p = sub.add_parser("po-centralized",
                       help="centralized Pareto-optimal indemnities")
    add_common(p)
    p.set_defaults(func=cmd_po_centralized)

    p = sub.add_parser("stackelberg",
                       help="insurer-optimal premiums on the centralized contract")
    add_common(p)
    p.set_defaults(func=cmd_stackelberg)

    p = sub.add_parser("sweep",
                       help="welfare comparison across a power-gamma grid")
    add_common(p)
    p.add_argument("--grid", required=True,
                   help="comma-separated gamma values")
    p.add_argument("--sweep-agent", default=None,
                   help="label of the swept agent (default: last)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("validate-config", help="check a config file and exit")
    add_common(p, data=False)
    p.set_defaults(func=cmd_validate_config)

    return parser


def _configure_logging() -> None:
    level_name = os.environ.get("PARETOPOOL_LOG", "WARNING").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level,
                        format="%(levelname)s %(name)s: %(message)s")


def _show_once(show):
    """A ``warnings.showwarning`` that prints each distinct package warning
    once, as ``warning: <message>``, and hands other warnings to ``show``."""
    seen = set()

    def showwarning(message, category, *where):
        if not issubclass(category, ParetopoolWarning):
            show(message, category, *where)
        elif str(message) not in seen:
            seen.add(str(message))
            print(f"warning: {message}", file=sys.stderr)
    return showwarning


def main(argv=None) -> int:
    _configure_logging()
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = _show_once(warnings.showwarning)
        try:
            return args.func(args)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 4
        except (FormatError, OSError) as exc:
            print(f"input error: {exc}", file=sys.stderr)
            return 2
        except ParetopoolError as exc:
            print(f"solver error: {exc}", file=sys.stderr)
            return 3


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
