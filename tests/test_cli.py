"""Command line surface: config handling, subcommands, exit codes, files."""

import csv
import json
import logging
import math
import os
import re
import shlex
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from paretopool import (AgentSpec, Distortion, DistortionSet, EmpiricalSpace,
                        LayerAllocation, centralized_welfare, parse_losses,
                        posolver, side_payments, single, solve_centralized,
                        solve_fixed, solve_robust, stackelberg_premiums,
                        summary_stats, to_space, welfare_report,
                        with_side_payments)
import paretopool
from paretopool import cli
from paretopool.cli import load_config, main, sweep_rows
from paretopool.errors import ConfigError, UnsupportedOperationError
from paretopool.ingest import load_panel
from testkit import rand_agents, rand_distortion

SRC = Path(paretopool.__file__).resolve().parents[1]
SWEEP_PANEL = Path(__file__).resolve().parent / "data" / "sweep_panel.csv"
README = Path(__file__).resolve().parents[1] / "README.md"

DATA_CSV = """dateOfLoss,state,amountPaid
2021-01-04,CA,120
2021-01-09,TX,30
2021-01-15,FL,5
2021-02-02,CA,10
2021-02-14,TX,80
2021-03-21,FL,60
2021-04-02,CA,45
2021-04-18,TX,5
2021-04-25,FL,15
2021-05-30,CA,220
2021-06-11,TX,140
2021-06-12,FL,35
"""


def base_config(**overrides):
    cfg = {
        "version": 1,
        "alpha": 0.25,
        "weights": "equal",
        "agents": [
            {"label": "CA",
             "distortions": [{"family": "kahneman_tversky", "params": {"gamma": 0.4}}]},
            {"label": "FL",
             "distortions": [{"family": "kahneman_tversky", "params": {"gamma": 0.5}}]},
            {"label": "TX",
             "distortions": [{"family": "power", "params": {"gamma": 0.6}}]},
        ],
    }
    cfg.update(overrides)
    return cfg


@pytest.fixture
def workdir(tmp_path):
    data = tmp_path / "data.csv"
    data.write_text(DATA_CSV)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(base_config()))
    return tmp_path


def run(workdir, *argv):
    return main([str(a) for a in argv])


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def market_from(workdir):
    panel, _ = parse_losses(DATA_CSV)
    space, _ = to_space(panel)
    cfg = load_config(workdir / "config.json")
    agents = [AgentSpec(space, a.distortions, panel.column(a.label))
              for a in cfg.agents]
    return space, cfg, agents


# -- config loading -----------------------------------------------------------


def test_validate_config_ok(workdir, capsys):
    assert run(workdir, "validate-config", "--config", workdir / "config.json") == 0
    assert "config ok" in capsys.readouterr().out


def test_load_config_defaults(workdir):
    cfg = load_config(workdir / "config.json")
    assert cfg.alpha == 0.25
    assert cfg.weights == "equal"
    assert cfg.loss_column == "amountPaid"
    assert [a.label for a in cfg.agents] == ["CA", "FL", "TX"]
    assert cfg.agents[0].endowment_column == "CA"


def _tabulated(knots):
    return lambda c: c["agents"][0].update(
        distortions=[{"family": "tabulated", "params": {"knots": knots}}])


@pytest.mark.parametrize("mutate", [
    lambda c: c.update(extra=1),
    lambda c: c.update(version=2),
    lambda c: c.update(alpha=1.5),
    lambda c: c.update(weights="most"),
    lambda c: c.update(weights=[0.5, 0.5]),           # wrong length
    lambda c: c.update(weights=[-1.0, 1.0, 1.0]),
    lambda c: c.update(agents=[]),
    lambda c: c["agents"][0].pop("label"),
    lambda c: c["agents"][0].update(label="FL"),      # duplicate
    lambda c: c["agents"][0].update(unexpected=True),
    lambda c: c["agents"][0].update(distortions=[]),
    lambda c: c["agents"][0]["distortions"][0].update(family="gompertz"),
    lambda c: c["agents"][0]["distortions"][0].update(params={"gamma": 0.2}),
    lambda c: c["agents"][0].update(belief=42),
    _tabulated([[0, 0], [0.5, 0.9], [0.75, 0.8], [1, 1]]),  # decreasing
    _tabulated([[0, 0], [1, 0.3]]),                         # ends at 0.3
    lambda c: c["agents"][0]["distortions"][0].update(params={"gamma": 0.2791}),
])
def test_config_rejections(tmp_path, mutate):
    cfg = base_config()
    mutate(cfg)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(ConfigError):
        load_config(path)
    assert main(["validate-config", "--config", str(path)]) == 4


def test_config_tolerances_key_is_unknown(tmp_path, capsys):
    # The layer solve's tie band is a fixed constant, not a config option.
    path = tmp_path / "config.json"
    path.write_text(json.dumps(base_config(tolerances={"tie": 1e-12})))
    assert main(["validate-config", "--config", str(path)]) == 4
    assert capsys.readouterr().err == "config error: config: unknown keys ['tolerances']\n"


# Each value must be a finite JSON number, and the message names the field;
# weight vectors have one entry per agent so that only the entry itself is at
# fault.
_FINITE = ": must be a finite number"
_KNOTS = "config.agents[0].distortions[0].params.knots"
MALFORMED_NUMBERS = {
    "alpha abc": (lambda c: c.update(alpha="abc"), "config.alpha" + _FINITE),
    "alpha list": (lambda c: c.update(alpha=[1]), "config.alpha" + _FINITE),
    "alpha numeric string": (lambda c: c.update(alpha="0.2"), "config.alpha" + _FINITE),
    "alpha bool": (lambda c: c.update(alpha=True), "config.alpha" + _FINITE),
    "knots scalar": (_tabulated(3), _KNOTS + ": must be a list of [t, T(t)] pairs"),
    "knots triples": (_tabulated([[0, 0, 0], [1, 1, 1]]),
                      _KNOTS + ": must be a list of [t, T(t)] pairs"),
    "knots string": (_tabulated([["a", 0], [1, 1]]), _KNOTS + "[0][0]" + _FINITE),
    "gamma inf": (lambda c: c["agents"][2]["distortions"][0]["params"].update(gamma=math.inf),
                  "config.agents[2].distortions[0].params.gamma" + _FINITE),
    "weights nan": (lambda c: c.update(weights=[math.nan, 1, 1]), "config.weights[0]" + _FINITE),
    "weights inf": (lambda c: c.update(weights=[math.inf, 1, 1]), "config.weights[0]" + _FINITE),
    "weights bool": (lambda c: c.update(weights=[True, False, True]),
                     "config.weights[0]" + _FINITE),
    "weights scalar": (lambda c: c.update(weights=3),
                       "config.weights: unsupported weights value 3"),
    "weights sum overflows": (lambda c: c.update(weights=[1e308, 1e308, 1]),
                              "config.weights: weight proportions must be non-negative "
                              "with a positive finite sum"),
}


@pytest.mark.parametrize("case", list(MALFORMED_NUMBERS))
def test_config_malformed_numbers_are_config_errors(tmp_path, capsys, case):
    mutate, message = MALFORMED_NUMBERS[case]
    cfg = base_config()
    mutate(cfg)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(ConfigError):
        load_config(path)
    assert main(["validate-config", "--config", str(path)]) == 4
    assert capsys.readouterr().err.startswith(f"config error: {message}")


@pytest.mark.parametrize("digits", [400, 5000])
def test_config_integer_past_the_float_range_is_config_error(tmp_path, capsys, digits):
    # 5000 digits also passes the interpreter's int-parsing digit limit.
    path = tmp_path / "config.json"
    path.write_text(json.dumps(base_config()).replace('"alpha": 0.25',
                                                      '"alpha": 1' + "0" * digits))
    assert main(["validate-config", "--config", str(path)]) == 4
    assert capsys.readouterr().err.startswith("config error: config")


# Each weight vector, written as JSON text into the config, and the exact
# config error that po-decentralized reports for it.
WEIGHTS_FILE_ERRORS = {
    "[NaN, 1, 1]": "config.weights[0]: must be a finite number",
    "[Infinity, 1, 1]": "config.weights[0]: must be a finite number",
    "[true, false, true]": "config.weights[0]: must be a finite number",
    "[0, 0, 0]": ("config.weights: weight proportions must be non-negative "
                  "with a positive finite sum"),
}


@pytest.mark.parametrize("vector", list(WEIGHTS_FILE_ERRORS))
def test_weights_file_malformed_numbers_are_config_errors(workdir, capsys, vector):
    (workdir / "config.json").write_text(json.dumps(base_config(weights=json.loads(vector))))
    assert run(workdir, "po-decentralized", "--config", workdir / "config.json",
               "--data", workdir / "data.csv", "--out", workdir / "x") == 4
    assert capsys.readouterr().err.startswith(f"config error: {WEIGHTS_FILE_ERRORS[vector]}")
    assert not (workdir / "x").exists()


def test_config_not_json(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("{not json")
    assert main(["validate-config", "--config", str(path)]) == 4


def test_config_missing_file(tmp_path):
    assert main(["validate-config", "--config", str(tmp_path / "nope.json")]) == 4


def test_config_tabulated_distortion(tmp_path):
    cfg = base_config()
    cfg["agents"][0]["distortions"] = [
        {"family": "tabulated",
         "params": {"knots": [[0.0, 0.0], [0.5, 0.7], [1.0, 1.0]]}}]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    loaded = load_config(path)
    assert loaded.agents[0].distortions[0](0.5) == 0.7


# -- summary ------------------------------------------------------------------


def test_summary_outputs(workdir, capsys):
    out = workdir / "out"
    code = run(workdir, "summary", "--data", workdir / "data.csv", "--out", out)
    assert code == 0
    rows = read_csv(out / "summary.csv")
    assert rows[0] == ["statistic", "CA", "FL", "TX"]
    panel, _ = parse_losses(DATA_CSV)
    stats = summary_stats(panel)
    by_stat = {r[0]: r[1:] for r in rows[1:]}
    assert float(by_stat["mean"][0]) == pytest.approx(stats["CA"].mean, rel=1e-9)
    assert float(by_stat["maximum"][2]) == pytest.approx(stats["TX"].maximum, rel=1e-9)
    corr = read_csv(out / "correlation.csv")
    assert corr[0] == ["agent", "CA", "FL", "TX"]
    assert float(corr[1][1]) == 1.0


def test_summary_without_config(workdir):
    assert run(workdir, "summary", "--data", workdir / "data.csv",
               "--out", workdir / "o2") == 0


def test_summary_single_month_is_solver_error(tmp_path):
    data = tmp_path / "one.csv"
    data.write_text("dateOfLoss,state,amountPaid\n2021-01-04,CA,5\n")
    assert main(["summary", "--data", str(data), "--out", str(tmp_path / "o")]) == 3


def test_summary_missing_data_file(workdir):
    assert run(workdir, "summary", "--data", workdir / "absent.csv",
               "--out", workdir / "o3") == 2


def test_summary_bad_header(tmp_path):
    data = tmp_path / "bad.csv"
    data.write_text("date,region,paid\n2021-01-04,CA,5\n")
    assert main(["summary", "--data", str(data), "--out", str(tmp_path / "o")]) == 2


def test_summary_loss_column_override(tmp_path):
    data = tmp_path / "alt.csv"
    data.write_text("dateOfLoss,state,amountPaid,buildingDamageAmount\n"
                    "2021-01-04,CA,1,100\n2021-02-04,CA,2,30\n")
    config = tmp_path / "config.json"
    config.write_text(json.dumps(base_config(loss_column="buildingDamageAmount")))
    out = tmp_path / "o"
    assert main(["summary", "--config", str(config), "--data", str(data),
                 "--out", str(out)]) == 0
    rows = read_csv(out / "summary.csv")
    by_stat = {r[0]: r[1:] for r in rows[1:]}
    assert float(by_stat["mean"][0]) == 65.0


# -- po-decentralized ---------------------------------------------------------


def test_po_decentralized_outputs_and_roundtrip(workdir):
    out = workdir / "dec"
    code = run(workdir, "po-decentralized", "--config", workdir / "config.json",
               "--data", workdir / "data.csv", "--out", out)
    assert code == 0

    space, cfg, agents = market_from(workdir)
    solution = solve_robust(agents)
    c = side_payments(solution.allocation, agents, "equal")
    expected = welfare_report(agents, with_side_payments(solution.allocation, c))

    report = json.loads((out / "market_report.json").read_text())
    assert report["agent_labels"] == ["CA", "FL", "TX"]
    assert report["total_welfare"] == pytest.approx(expected.total_welfare, abs=1e-9)
    assert report["solver_value"] == pytest.approx(solution.value, abs=1e-9)

    # Re-evaluating the serialized allocation reproduces the report.
    payload = json.loads((out / "allocation.json").read_text())
    alloc = LayerAllocation.from_dict(payload)
    redone = welfare_report(agents, alloc)
    assert redone.total_welfare == pytest.approx(report["total_welfare"], abs=1e-9)
    assert list(redone.welfare_gains) == pytest.approx(
        report["welfare_gains"], abs=1e-9)

    rows = read_csv(out / "retention_decentralized.csv")
    assert rows[0][:3] == ["rank", "state", "aggregate_loss"]
    assert len(rows) == 1 + space.state_count
    S = np.array([float(r[2]) for r in rows[1:]])
    assert np.all(np.diff(S) >= 0.0)
    # Raw and normalized retention columns per agent.
    assert len(rows[0]) == 3 + 2 * len(agents)


def _per_cell_retention(S, columns) -> str:
    """Retention CSV text written one formatted cell at a time."""
    lines = []
    for rank, idx in enumerate(np.argsort(S, kind="stable")):
        cells = [str(rank), str(int(idx)), f"{float(S[idx]):.9g}"]
        cells += [f"{float(col[idx]):.9g}" for col in columns]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def test_retention_csvs_match_per_cell_formatting(workdir):
    space, cfg, agents = market_from(workdir)
    S = np.sum([a.endowment for a in agents], axis=0)
    (workdir / "config.json").write_text(json.dumps(base_config(weights="last")))
    assert run(workdir, "po-decentralized", "--config", workdir / "config.json",
               "--data", workdir / "data.csv", "--out", workdir / "dec") == 0
    alloc = LayerAllocation.from_dict(
        json.loads((workdir / "dec" / "allocation.json").read_text()))
    raw, norm = alloc.profiles(S), alloc.coverage(S)
    columns = [col for i in range(len(agents)) for col in (raw[i], norm[i])]
    body = (workdir / "dec" / "retention_decentralized.csv").read_text()
    assert body.split("\n", 1)[1] == _per_cell_retention(S, columns)

    assert run(workdir, "po-centralized", "--config", workdir / "config.json",
               "--data", workdir / "data.csv", "--out", workdir / "cen") == 0
    endowments = [a.endowment for a in agents]
    dists = [a.distortions[0] for a in agents]
    contract = solve_centralized(space, endowments, dists, 0.25)
    indemnities = contract.indemnity_profiles(space, endowments)
    columns = [endowments[i] - indemnities[i] for i in range(len(agents))]
    body = (workdir / "cen" / "retention_centralized.csv").read_text()
    assert body.split("\n", 1)[1] == _per_cell_retention(S, columns)


def test_ranked_rows_format_each_float_as_fmt():
    specials = [-0.0, 0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -5e-324,
                1e16, 123456789.5, -123456789.5, 0.1, 1 / 3, 2.5e-7, 1.7976931348623157e308]
    S = np.array([3.0, 1.0, 2.0, 1.0] + [7.0] * (len(specials) - 4))
    columns = np.array([specials, specials[::-1]])
    lines = cli._ranked_rows(S, columns).splitlines()
    order = np.argsort(S, kind="stable")
    assert len(lines) == len(S)
    for rank, (line, state) in enumerate(zip(lines, order)):
        cells = [str(rank), str(state), cli._fmt(S[state])]
        cells += [cli._fmt(col[state]) for col in columns]
        assert line.split(",") == cells


@pytest.mark.parametrize("S, columns", [
    ([3.0, 1.0, 2.0], [[-0.0, -0.0, -0.0], [1.0, 2.0, 3.0]]),
    ([3.0, 1.0, 2.0], [[0.0, -0.0, 0.0], [-0.0, 0.0, 0.0]]),
    ([3.0, 1.0, 2.0, 1.0], [[math.nan] * 4, [math.inf] * 4, [-math.inf] * 4, [0.5, 0.25, 0.5, 1.0]]),
    ([4.0], [[-0.0], [1 / 3], [math.nan]]),
    ([2.5, 2.5, 2.5], [[0.0] * 3, [-0.0] * 3, [1e16] * 3, [5e-324] * 3]),
], ids=["negative-zero", "mixed-zeros", "nan-and-inf", "one-state", "all-constant"])
def test_ranked_rows_constant_columns_match_per_cell_formatting(S, columns):
    S, columns = np.array(S), np.array(columns)
    assert cli._ranked_rows(S, columns) == _per_cell_retention(S, columns)


_json_floats = st.one_of(
    st.floats(allow_subnormal=True),
    st.sampled_from([-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324]))
_json_scalars = st.one_of(_json_floats, _json_floats.map(np.float64), st.integers(),
                          st.booleans(), st.none(), st.text(max_size=4))
_json_values = st.recursive(
    st.one_of(_json_scalars, st.lists(_json_floats, max_size=6)),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=24)


@given(payload=st.dictionaries(st.text(max_size=4), _json_values, max_size=5))
@example(payload={"zeros": [-0.0, 0.0, -0.0], "mixed": [1, 2.5, True, None, "é"],
                  "numpy": [np.float64(-0.0), 0.5], "odd": [math.nan, -math.inf, 5e-324],
                  "empty": [[], {}, [[]]], "nested": {"rows": [[0.0, -0.0], [1e308]]}})
@settings(max_examples=200, deadline=None)
def test_write_json_matches_json_indent_2(payload, tmp_path_factory):
    path = tmp_path_factory.mktemp("json") / "out.json"
    cli._write_json(path, payload)
    assert path.read_text(encoding="utf-8") == json.dumps(payload, indent=2) + "\n"


def _is_json_indent_2(path) -> bool:
    text = path.read_text(encoding="utf-8")
    return text == json.dumps(json.loads(text), indent=2) + "\n"


def test_written_json_is_jsons_own_indent_2_text(workdir):
    # Besides the base market, a peer-to-peer one where CA is robust over
    # three candidates and FL prices with its own belief.
    m = parse_losses(DATA_CSV)[0].month_count
    belief = np.arange(1.0, m + 1.0) / (m * (m + 1) / 2)
    (workdir / "belief.txt").write_text("".join(f"{w!r}\n" for w in belief.tolist()))
    mixed = base_config()
    mixed["agents"][0]["distortions"] = [
        {"family": "prelec1", "params": {"alpha": 0.7}},
        {"family": "tvar", "params": {"alpha": 0.3}},     # CA's worst case
        {"family": "power", "params": {"gamma": 0.5}}]
    mixed["agents"][1]["belief"] = {"weights_file": "belief.txt"}
    (workdir / "mixed.json").write_text(json.dumps(mixed))
    written = []
    for command, config in (("po-decentralized", "config.json"),
                            ("po-decentralized", "mixed.json"),
                            ("po-centralized", "config.json"),
                            ("stackelberg", "config.json")):
        out = workdir / command / config
        assert run(workdir, command, "--config", workdir / config,
                   "--data", workdir / "data.csv", "--out", out) == 0
        written += sorted(out.glob("*.json"))
    assert len(written) == 7
    assert all(_is_json_indent_2(path) for path in written)


def test_allocation_json_of_a_sparse_robust_market_is_jsons_indent_2_text(tmp_path):
    rng = np.random.default_rng(21)
    agents = rand_agents(rng, 200, 6)
    robust = DistortionSet(tuple(rand_distortion(rng) for _ in range(3)))
    agents[0] = AgentSpec(agents[0].belief, robust, agents[0].endowment)
    alloc, _ = posolver.settle(agents, solve_robust(agents).allocation, "equal")
    payload = alloc.to_dict()
    assert sum(not any(row) for row in payload["slopes"]) >= 3
    cli._write_json(tmp_path / "allocation.json", payload)
    assert _is_json_indent_2(tmp_path / "allocation.json")


def test_po_decentralized_weights_last(workdir):
    (workdir / "config.json").write_text(json.dumps(base_config(weights="last")))
    out = workdir / "dec_last"
    code = run(workdir, "po-decentralized", "--config", workdir / "config.json",
               "--data", workdir / "data.csv", "--out", out)
    assert code == 0
    report = json.loads((out / "market_report.json").read_text())
    gains = report["welfare_gains"]
    assert gains[0] == pytest.approx(0.0, abs=1e-9)
    assert gains[1] == pytest.approx(0.0, abs=1e-9)
    assert gains[2] == pytest.approx(report["total_welfare"], abs=1e-9)


def test_po_decentralized_weights_file(workdir):
    (workdir / "config.json").write_text(json.dumps(base_config(weights=[3, 1, 0])))
    out = workdir / "dec_w"
    code = run(workdir, "po-decentralized", "--config", workdir / "config.json",
               "--data", workdir / "data.csv", "--out", out)
    assert code == 0
    report = json.loads((out / "market_report.json").read_text())
    gains = report["welfare_gains"]
    assert gains[0] == pytest.approx(0.75 * report["total_welfare"], abs=1e-9)
    assert gains[2] == pytest.approx(0.0, abs=1e-9)


def test_po_decentralized_weights_file_at_flood_scale(tmp_path):
    # 240 months x 10 agents of Pareto-tailed monthly losses in the
    # thousands of dollars times 1000: the welfare gain W is about 1e8, so
    # scaling proportions to W rounds by a few ulp(W) (about 3e-8), more
    # than an absolute 1e-9 tolerance on the weights' sum allows.
    rng = np.random.default_rng(2024)
    labels = [f"A{j:02d}" for j in range(10)]
    lines = ["dateOfLoss,state,amountPaid"]
    for i in range(240):
        for j, label in enumerate(labels):
            amount = 1000.0 * 5e3 * (1.0 - rng.random()) ** (-1.0 / rng.uniform(1.5, 3.0))
            lines.append(f"{1990 + i // 12:04d}-{i % 12 + 1:02d}-15,{label},{amount:.2f}")
    (tmp_path / "data.csv").write_text("\n".join(lines) + "\n")
    family = ("kahneman_tversky", "power")
    cfg = base_config(agents=[
        {"label": label, "distortions": [{"family": family[j % 2],
                                          "params": {"gamma": round(0.4 + 0.05 * j, 2)}}]}
        for j, label in enumerate(labels)])
    for k in range(4):
        props = np.round(rng.uniform(0.5, 2.0, len(labels)), 3)
        cfg["weights"] = props.tolist()
        (tmp_path / "config.json").write_text(json.dumps(cfg))
        out = tmp_path / f"dec_w{k}"
        assert run(tmp_path, "po-decentralized", "--config", tmp_path / "config.json",
                   "--data", tmp_path / "data.csv", "--out", out) == 0
        report = json.loads((out / "market_report.json").read_text())
        total = report["total_welfare"]
        assert total > 1e7
        np.testing.assert_allclose(report["welfare_gains"],
                                   total * props / props.sum(), rtol=1e-9)


def test_po_decentralized_per_agent_belief(workdir):
    panel, _ = parse_losses(DATA_CSV)
    m = panel.month_count
    belief = workdir / "belief.txt"
    w = np.full(m, 1.0 / m)
    w[0] = w[0] + 0.0    # uniform is fine; the point is the loading path
    belief.write_text("\n".join(repr(float(v)) for v in w))
    cfg = base_config()
    cfg["agents"][0]["belief"] = {"weights_file": "belief.txt"}
    (workdir / "config.json").write_text(json.dumps(cfg))
    out = workdir / "dec_belief"
    assert run(workdir, "po-decentralized", "--config", workdir / "config.json",
               "--data", workdir / "data.csv", "--out", out) == 0


def test_po_decentralized_near_tie_goes_to_cheaper_agent(workdir):
    # Shared belief, power(0.5) against power(0.5000001): the second
    # agent's distorted survival s**0.5000001 undercuts s**0.5 by about
    # 1e-7 relative on every layer with survival s < 1, far outside the
    # fixed 1e-12 tie band, so it takes those layers.
    cfg = base_config()
    cfg["agents"] = [
        {"label": "CA", "distortions": [{"family": "power", "params": {"gamma": 0.5}}]},
        {"label": "FL", "distortions": [{"family": "power", "params": {"gamma": 0.5000001}}]},
    ]
    (workdir / "config.json").write_text(json.dumps(cfg))
    out = workdir / "dec_tie"
    assert run(workdir, "po-decentralized", "--config", workdir / "config.json",
               "--data", workdir / "data.csv", "--out", out) == 0
    slopes = np.array(json.loads((out / "allocation.json").read_text())["slopes"])
    assert slopes.shape[1] >= 2
    # Every month has a CA or FL loss, so the bottom layer has survival 1,
    # where both agents price at exactly 1 and the first one wins.
    assert slopes[0, 0] == 1.0
    assert np.all(slopes[1, 1:] == 1.0)
    assert np.all(slopes[0, 1:] == 0.0)


def test_po_decentralized_over_cap_candidate_product_is_solver_error(
        workdir, capsys, monkeypatch):
    cfg = base_config()
    for agent in cfg["agents"]:
        agent["distortions"] = [{"family": "power", "params": {"gamma": g}}
                                for g in (0.5, 0.7, 0.9)]      # product 27
    (workdir / "config.json").write_text(json.dumps(cfg))
    monkeypatch.setattr(posolver, "PRODUCT_CAP", 10)
    assert run(workdir, "po-decentralized", "--config", workdir / "config.json",
               "--data", workdir / "data.csv", "--out", workdir / "x") == 3
    assert "solver error: candidate product 27 exceeds cap 10" in capsys.readouterr().err


def test_po_decentralized_unknown_endowment_column(workdir):
    cfg = base_config()
    cfg["agents"][0]["endowment_column"] = "NV"
    (workdir / "config.json").write_text(json.dumps(cfg))
    assert run(workdir, "po-decentralized", "--config", workdir / "config.json",
               "--data", workdir / "data.csv", "--out", workdir / "x") == 4


def test_po_decentralized_memory_linear_in_months_and_agents(tmp_path):
    # Aim 3's "no hidden O(m^2)": doubling m, or n, at most about doubles
    # the Python-side peak of a whole run, claim ingest included.  Three
    # claim rows per cell and one robust agent; every file here fits one
    # ingest block, so the block's own buffers scale with it too.
    def peak(m, n):
        rng = np.random.default_rng(100 * m + n)
        labels = [f"A{j:02d}" for j in range(n)]
        lines = ["dateOfLoss,state,amountPaid"] + [
            f"{1900 + i // 12:04d}-{i % 12 + 1:02d}-{rng.integers(1, 29):02d},"
            f"{label},{1e3 * rng.pareto(2.0):.2f}"
            for i in range(m) for label in labels for _ in range(3)]
        (tmp_path / "data.csv").write_text("\n".join(lines) + "\n")
        family = ("kahneman_tversky", "power")
        cfg = base_config(agents=[
            {"label": label, "distortions": [{"family": family[j % 2],
                                              "params": {"gamma": round(0.5 + 0.03 * j, 2)}}]}
            for j, label in enumerate(labels)])
        cfg["agents"][0]["distortions"].append({"family": "tvar", "params": {"alpha": 0.3}})
        (tmp_path / "config.json").write_text(json.dumps(cfg))
        tracemalloc.start()
        try:
            assert run(tmp_path, "po-decentralized", "--config", tmp_path / "config.json",
                       "--data", tmp_path / "data.csv", "--out", tmp_path / "out") == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(24, 2)  # lazy imports and caches are filled before any peak is traced
    base = peak(240, 4)
    assert peak(480, 4) < 2.3 * base
    assert peak(240, 8) < 2.3 * base


# -- po-centralized -----------------------------------------------------------


def test_po_centralized_outputs(workdir):
    out = workdir / "cen"
    code = run(workdir, "po-centralized", "--config", workdir / "config.json",
               "--data", workdir / "data.csv", "--out", out)
    assert code == 0

    space, cfg, agents = market_from(workdir)
    endowments = [a.endowment for a in agents]
    dists = [a.distortions[0] for a in agents]
    contract = solve_centralized(space, endowments, dists, 0.25)
    welfare = centralized_welfare(space, endowments, dists, contract)

    saved = json.loads((out / "contract.json").read_text())
    assert [a["label"] for a in saved["agents"]] == ["CA", "FL", "TX"]
    assert saved["alpha"] == 0.25
    assert saved["lp_value"] == pytest.approx(contract.value, abs=1e-9)

    wjson = json.loads((out / "welfare_centralized.json").read_text())
    assert wjson["aggregate_gain"] == pytest.approx(welfare.aggregate_gain, abs=1e-9)
    assert wjson["average_gain"] == pytest.approx(welfare.average_gain, abs=1e-9)

    rows = read_csv(out / "retention_centralized.csv")
    assert len(rows) == 1 + space.state_count
    retained = np.array([[float(v) for v in r[3:]] for r in rows[1:]])
    assert np.all(retained >= -1e-9)


def test_po_centralized_alpha_override(workdir):
    (workdir / "config.json").write_text(json.dumps(base_config(alpha=0.4)))
    out = workdir / "cen_a"
    code = run(workdir, "po-centralized", "--config", workdir / "config.json",
               "--data", workdir / "data.csv", "--out", out)
    assert code == 0
    saved = json.loads((out / "contract.json").read_text())
    assert saved["alpha"] == 0.4


def test_po_centralized_rejects_candidate_sets(workdir):
    cfg = base_config()
    cfg["agents"][0]["distortions"].append(
        {"family": "power", "params": {"gamma": 0.9}})
    (workdir / "config.json").write_text(json.dumps(cfg))
    assert run(workdir, "po-centralized", "--config", workdir / "config.json",
               "--data", workdir / "data.csv", "--out", workdir / "x") == 4


def test_po_centralized_rejects_per_agent_beliefs(workdir):
    panel, _ = parse_losses(DATA_CSV)
    belief = workdir / "belief.txt"
    belief.write_text("\n".join(["0.16666666666666666"] * panel.month_count))
    cfg = base_config()
    cfg["agents"][0]["belief"] = {"weights_file": "belief.txt"}
    (workdir / "config.json").write_text(json.dumps(cfg))
    assert run(workdir, "po-centralized", "--config", workdir / "config.json",
               "--data", workdir / "data.csv", "--out", workdir / "x") == 4


# -- stackelberg --------------------------------------------------------------


def test_stackelberg_outputs(workdir):
    out = workdir / "stack"
    code = run(workdir, "stackelberg", "--config", workdir / "config.json",
               "--data", workdir / "data.csv", "--out", out)
    assert code == 0
    rows = read_csv(out / "premiums_stackelberg.csv")
    assert rows[0] == ["agent", "premium", "policyholder_gain"]
    for row in rows[1:]:
        assert abs(float(row[2])) <= 1e-9
    payload = json.loads((out / "stackelberg.json").read_text())
    assert payload["insurer_gain"] == pytest.approx(
        payload["aggregate_gain"], abs=1e-9)

    space, cfg, agents = market_from(workdir)
    endowments = [a.endowment for a in agents]
    dists = [a.distortions[0] for a in agents]
    contract = solve_centralized(space, endowments, dists, 0.25)
    premiums = stackelberg_premiums(space, endowments, dists, contract)
    for row, pi in zip(rows[1:], premiums):
        assert float(row[1]) == pytest.approx(pi, rel=1e-8, abs=1e-9)


# -- sweep ----------------------------------------------------------------


def test_sweep_single_point_matches_individual_commands(workdir):
    out = workdir / "sw"
    code = run(workdir, "sweep", "--config", workdir / "config.json",
               "--data", workdir / "data.csv", "--out", out, "--grid", "0.6")
    assert code == 0
    rows = read_csv(out / "sweep.csv")
    assert rows[0] == ["gamma", "rpra", "centralized_avg_gain",
                       "decentralized_avg_gain", "percent_decrease"]
    assert len(rows) == 2
    gamma, rpra, cen, dec, pct = map(float, rows[1])
    assert gamma == 0.6
    assert rpra == pytest.approx(0.4, abs=1e-12)

    space, cfg, agents = market_from(workdir)
    endowments = [a.endowment for a in agents]
    dists = [a.distortions[0] for a in agents]
    contract = solve_centralized(space, endowments, dists, 0.25)
    welfare = centralized_welfare(space, endowments, dists, contract)
    assert cen == pytest.approx(welfare.average_gain, rel=1e-8)

    solution = solve_robust(agents)
    report = welfare_report(agents, solution.allocation)
    assert dec == pytest.approx(report.average_gain, rel=1e-8)
    pct_full = 100.0 * (welfare.average_gain - report.average_gain) / welfare.average_gain
    assert pct == pytest.approx(pct_full, rel=1e-6, abs=1e-6)


def test_sweep_multi_point_grid_order(workdir):
    out = workdir / "sw2"
    code = run(workdir, "sweep", "--config", workdir / "config.json",
               "--data", workdir / "data.csv", "--out", out,
               "--grid", "0.4,0.5,0.7", "--sweep-agent", "TX")
    assert code == 0
    rows = read_csv(out / "sweep.csv")
    assert [float(r[0]) for r in rows[1:]] == [0.4, 0.5, 0.7]
    for r in rows[1:]:
        assert float(r[1]) == pytest.approx(1.0 - float(r[0]), abs=1e-12)


def test_sweep_rows_rejects_candidate_sets():
    space = EmpiricalSpace.uniform(3)
    endowments = [np.array([0.0, 1.0, 2.0]), np.array([1.0, 0.0, 3.0])]
    dist_sets = [single(Distortion.power(0.5)),
                 DistortionSet((Distortion.power(0.5), Distortion.power(0.9)))]
    with pytest.raises(UnsupportedOperationError, match="agent 1 has 2 candidates"):
        sweep_rows(space, endowments, dist_sets, 0, [0.5], 0.25)


def test_sweep_alpha_out_of_range_is_config_error(workdir, capsys):
    for alpha in (1.5, 0):
        (workdir / "config.json").write_text(json.dumps(base_config(alpha=alpha)))
        assert run(workdir, "sweep", "--config", workdir / "config.json",
                   "--data", workdir / "data.csv", "--out", workdir / "x",
                   "--grid", "0.5") == 4
        assert "config error: alpha must lie in (0, 1)" in capsys.readouterr().err
        assert not (workdir / "x").exists()


def test_sweep_rejects_non_power_agent(workdir):
    assert run(workdir, "sweep", "--config", workdir / "config.json",
               "--data", workdir / "data.csv", "--out", workdir / "x",
               "--grid", "0.5", "--sweep-agent", "CA") == 4


def test_sweep_rejects_unknown_agent_and_bad_grid(workdir):
    base = ["sweep", "--config", str(workdir / "config.json"),
            "--data", str(workdir / "data.csv"), "--out", str(workdir / "x")]
    assert main(base + ["--grid", "0.5", "--sweep-agent", "NV"]) == 4
    assert main(base + ["--grid", "abc"]) == 4
    assert main(base + ["--grid", "-0.5"]) == 4
    assert main(base + ["--grid", ""]) == 4


@pytest.mark.parametrize("grid", ["nan", "inf", "0.5,inf"])
def test_sweep_non_finite_grid_is_config_error(workdir, capsys, grid):
    assert run(workdir, "sweep", "--config", workdir / "config.json",
               "--data", workdir / "data.csv", "--out", workdir / "x",
               "--grid", grid) == 4
    assert "config error: sweep grid needs positive finite gamma values" in capsys.readouterr().err
    assert not (workdir / "x").exists()


# -- bad claim input and weight vectors: one reader, one exit code each ---------


MARKET_COMMANDS = [["summary"], ["po-decentralized"], ["stackelberg"],
                   ["sweep", "--grid", "0.5"]]
BAD_CLAIMS = {
    # Two finite claims of one cell whose sum overflows to inf.
    "overflowing cell": (DATA_CSV + "2021-03-01,CA,1e308\n2021-03-02,CA,1e308\n",
                         "losses must be finite and non-negative: agent 'CA' has inf "
                         "in month 2021-03"),
    "empty body": ("dateOfLoss,state,amountPaid\n", "no usable claim rows, 0 rejected"),
    "empty file": ("", "empty input: no header row"),
    "missing column": ("dateOfLoss,state,paid\n2021-01-04,CA,5\n",
                       "missing required column 'amountPaid'"),
    "every row rejected": ("dateOfLoss,state,amountPaid\n2021-01-04,,5\nsoon,CA,1\n",
                           "no usable claim rows, 2 rejected; "
                           "the first at line 2: empty agent label"),
}


@pytest.mark.parametrize("command", MARKET_COMMANDS, ids=lambda c: c[0])
@pytest.mark.parametrize("case", sorted(BAD_CLAIMS))
def test_bad_claim_input_is_input_error(workdir, capsys, command, case):
    text, message = BAD_CLAIMS[case]
    data = workdir / "bad.csv"
    data.write_text(text)
    assert run(workdir, *command, "--config", workdir / "config.json",
               "--data", data, "--out", workdir / "x") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"input error: {data}: ")
    assert message in err
    assert not (workdir / "x").exists()


@pytest.mark.parametrize("command", MARKET_COMMANDS, ids=lambda c: c[0])
def test_oversized_claim_cell_is_input_error(workdir, capsys, command):
    limit = csv.field_size_limit()
    data = workdir / "big.csv"
    data.write_text(DATA_CSV.replace("TX,30", '"' + "T" * (limit + 1) + '",30'))
    assert run(workdir, *command, "--config", workdir / "config.json",
               "--data", data, "--out", workdir / "x") == 2
    assert capsys.readouterr().err == (
        f"input error: {data}: line 3: field larger than field limit ({limit})\n")
    assert not (workdir / "x").exists()


def test_claims_that_are_not_utf8_are_input_error(workdir, capsys):
    data = workdir / "latin1.csv"
    data.write_bytes("dateOfLoss,state,amountPaid\n2021-01-04,Cé,5\n".encode("latin-1"))
    assert run(workdir, "summary", "--data", data, "--out", workdir / "x") == 2
    assert capsys.readouterr().err.startswith(f"input error: {data}: 'utf-8' codec")


# A leading UTF-8 byte-order mark, as some editors and spreadsheet exports
# write, is read as no text at all.
BOM = "\ufeff"


def test_claims_with_a_byte_order_mark(workdir):
    data = workdir / "bom.csv"
    data.write_text(BOM + DATA_CSV, encoding="utf-8")
    assert run(workdir, "summary", "--data", data, "--out", workdir / "bom") == 0
    assert run(workdir, "summary", "--data", workdir / "data.csv", "--out", workdir / "plain") == 0
    for name in ("summary.csv", "correlation.csv"):
        assert (workdir / "bom" / name).read_bytes() == (workdir / "plain" / name).read_bytes()


def test_config_with_a_byte_order_mark(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(BOM + json.dumps(base_config()), encoding="utf-8")
    assert main(["validate-config", "--config", str(path)]) == 0
    assert capsys.readouterr().out == "config ok\n"


def test_belief_file_with_a_byte_order_mark(workdir):
    m = parse_losses(DATA_CSV)[0].month_count
    (workdir / "belief.txt").write_text(BOM + "\n".join([repr(1.0 / m)] * m), encoding="utf-8")
    cfg = base_config()
    cfg["agents"][0]["belief"] = {"weights_file": "belief.txt"}
    (workdir / "config.json").write_text(json.dumps(cfg))
    assert run(workdir, "po-decentralized", "--config", workdir / "config.json",
               "--data", workdir / "data.csv", "--out", workdir / "dec") == 0


# Each belief file for a three-month panel (None: no file at all) and a part
# of the config error that po-decentralized reports for it.
BELIEF_FILE_ERRORS = {
    "not a number": ("abc", "w.txt: could not convert string to float: 'abc'"),
    "too few weights": ("0.5 0.5", "has 2 weights for 3 months"),
    "negative": ("0.5 0.6 -0.1", "weights must be finite and non-negative"),
    "nan": ("nan 0.5 0.5", "weights must be finite and non-negative"),
    "overflow": ("1e400 0 0", "weights must be finite and non-negative"),
    "missing": (None, "No such file or directory"),
}


@pytest.mark.parametrize("case", list(BELIEF_FILE_ERRORS))
def test_belief_file_errors_are_config_errors(tmp_path, capsys, case):
    text, message = BELIEF_FILE_ERRORS[case]
    # The first three months of DATA_CSV.
    (tmp_path / "data.csv").write_text("\n".join(DATA_CSV.splitlines()[:7]) + "\n")
    if text is not None:
        (tmp_path / "w.txt").write_text(text)
    cfg = base_config()
    cfg["agents"][0]["belief"] = {"weights_file": "w.txt"}
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    assert run(tmp_path, "po-decentralized", "--config", tmp_path / "config.json",
               "--data", tmp_path / "data.csv", "--out", tmp_path / "x") == 4
    err = capsys.readouterr().err
    assert err.startswith(f"config error: belief file {tmp_path / 'w.txt'}")
    assert message in err
    assert not (tmp_path / "x").exists()


def test_wrong_length_weights_are_config_errors_from_one_validator(workdir, capsys):
    (workdir / "short.json").write_text(json.dumps(base_config(weights=[1.0, 2.0])))
    assert run(workdir, "po-decentralized", "--config", workdir / "short.json",
               "--data", workdir / "data.csv", "--out", workdir / "x") == 4
    assert capsys.readouterr().err == "config error: config.weights: 2 weights for 3 agents\n"
    assert not (workdir / "x").exists()


# -- removed options: the run config is the one source of alpha, weights and
# the loss column -------------------------------------------------------------


REMOVED_OPTIONS = {
    "po-centralized --alpha": (["po-centralized"], ["--alpha", "0.4"]),
    "stackelberg --alpha": (["stackelberg"], ["--alpha", "0.4"]),
    "sweep --alpha": (["sweep", "--grid", "0.5"], ["--alpha", "0.4"]),
    "po-decentralized --weights": (["po-decentralized"], ["--weights", "last"]),
    **{f"{cmd[0]} --loss-column": (cmd, ["--loss-column", "amountPaid"])
       for cmd in [["summary"], ["po-decentralized"], ["po-centralized"],
                   ["stackelberg"], ["sweep", "--grid", "0.5"]]},
    "validate-config --out": (["validate-config"], ["--out", "out"]),
}


@pytest.mark.parametrize("case", list(REMOVED_OPTIONS))
def test_removed_options_are_unrecognized(workdir, capsys, case):
    command, removed = REMOVED_OPTIONS[case]
    files = ["--config", workdir / "config.json"]
    if command[0] != "validate-config":
        files += ["--data", workdir / "data.csv", "--out", workdir / "x"]
    with pytest.raises(SystemExit) as exit_info:
        run(workdir, *command, *files, *removed)
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {' '.join(removed)}" in capsys.readouterr().err
    assert not (workdir / "x").exists()


# -- process-level entry ------------------------------------------------------


def test_module_entrypoint_subprocess(workdir):
    out = workdir / "proc"
    env = dict(os.environ, PARETOPOOL_LOG="INFO")
    proc = subprocess.run(
        [sys.executable, "-m", "paretopool.cli", "summary",
         "--data", str(workdir / "data.csv"), "--out", str(out)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "summary.csv").exists()


@pytest.mark.parametrize("name, level", [("bogus", logging.WARNING), ("info", logging.INFO)])
def test_log_level_from_environment(workdir, monkeypatch, name, level):
    # A name that is no logging level falls back to WARNING; the run goes on.
    seen = {}
    monkeypatch.setenv("PARETOPOOL_LOG", name)
    monkeypatch.setattr(cli.logging, "basicConfig", lambda **kwargs: seen.update(kwargs))
    assert run(workdir, "validate-config", "--config", workdir / "config.json") == 0
    assert seen["level"] == level


def _fresh_python(script: str, cwd, *options: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *options, "-c", textwrap.dedent(script)],
                          cwd=cwd, capture_output=True, text=True, env=env)


def test_cli_import_and_po_decentralized_do_not_load_scipy(workdir):
    proc = _fresh_python("""
        import sys
        import paretopool.cli as cli
        assert "scipy" not in sys.modules, "import paretopool.cli loaded scipy"
        code = cli.main(["po-decentralized", "--config", "config.json",
                         "--data", "data.csv", "--out", "dec"])
        assert code == 0, code
        assert "scipy" not in sys.modules, "po-decentralized loaded scipy"
        """, workdir)
    assert proc.returncode == 0, proc.stderr
    assert (workdir / "dec" / "market_report.json").exists()


def test_cli_import_does_not_load_the_test_oracle(workdir):
    proc = _fresh_python("""
        import sys
        import paretopool.cli
        assert "paretopool.oracle" not in sys.modules, "import paretopool.cli loaded the oracle"
        from paretopool import oracle
        assert oracle is sys.modules["paretopool.oracle"]
        """, workdir)
    assert proc.returncode == 0, proc.stderr


def test_star_import_does_not_load_the_test_oracle(workdir):
    proc = _fresh_python("""
        import sys
        from paretopool import *
        assert "paretopool.oracle" not in sys.modules, "from paretopool import * loaded the oracle"
        from paretopool import oracle
        assert oracle is sys.modules["paretopool.oracle"]
        """, workdir)
    assert proc.returncode == 0, proc.stderr


def test_sweep_fresh_process_on_sweep_panel(tmp_path):
    """A cold sweep of the checked-in panel: the HiGHS binding is loaded in
    the calling thread before the pool's threads solve their first LPs, and
    neither scipy.optimize nor scipy.sparse is ever imported."""
    panel = load_panel(SWEEP_PANEL.read_text())
    with open(tmp_path / "claims.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["dateOfLoss", "state", "amountPaid"])
        for i, (y, m) in enumerate(panel.months):
            for j, label in enumerate(panel.agents):
                writer.writerow([f"{y:04d}-{m:02d}-15", label, repr(float(panel.losses[i, j]))])
    families = [("kahneman_tversky", 0.4), ("kahneman_tversky", 0.5), ("power", 0.5)]
    cfg = {"version": 1, "alpha": 0.15, "agents": [
        {"label": label, "distortions": [{"family": f, "params": {"gamma": g}}]}
        for label, (f, g) in zip(panel.agents, families)]}
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    proc = _fresh_python("""
        import sys
        import paretopool.cli as cli

        class Pool(cli.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                print("binding at pool start:", "scipy.optimize._highspy._core" in sys.modules)
                print("scipy.optimize at pool start:", "scipy.optimize" in sys.modules)
                print("scipy.sparse at pool start:", "scipy.sparse" in sys.modules)
                super().__init__(*args, **kwargs)

        cli.ThreadPoolExecutor = Pool
        sys.exit(cli.main(["sweep", "--config", "config.json", "--data", "claims.csv",
                           "--grid", "0.3,0.4,0.5,0.6,0.65,0.7", "--out", "sw"]))
        """, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "binding at pool start: True" in proc.stdout
    assert "scipy.optimize at pool start: False" in proc.stdout
    assert "scipy.sparse at pool start: False" in proc.stdout
    rows = read_csv(tmp_path / "sw" / "sweep.csv")
    assert len(rows) == 7
    assert all(math.isfinite(float(v)) for row in rows[1:] for v in row)


@pytest.mark.parametrize("command", [
    ["summary"], ["po-centralized"], ["stackelberg"], ["sweep", "--grid", "0.5,0.6"],
], ids=lambda c: c[0])
def test_cold_commands_do_not_import_scipy_optimize(workdir, command):
    proc = _fresh_python(f"""
        import sys
        import paretopool.cli as cli
        code = cli.main({command!r} + ["--config", "config.json",
                                       "--data", "data.csv", "--out", "out"])
        assert code == 0, code
        print([m in sys.modules for m in
               ("scipy", "scipy.optimize", "scipy.sparse", "scipy.optimize._highspy._core")])
        """, workdir)
    assert proc.returncode == 0, proc.stderr
    # summary loads no scipy at all; the LP commands the binding alone.
    assert proc.stdout.splitlines()[-1] == str(
        [False] * 4 if command == ["summary"] else [True, False, False, True])


# min -x - 2y subject to x + y <= 1.5 and 0 <= x, y <= 1: -2.5 at (0.5, 1).
_SMALL_LP = """
    import numpy as np
    from scipy import sparse
    from paretopool import centralized

    def value_by_centralized():
        return centralized.linprog(
            np.array([-1.0, -2.0]), A_ub=sparse.coo_array([[1.0, 1.0]]),
            b_ub=np.array([1.5]), A_eq=sparse.coo_array((0, 2)), b_eq=np.zeros(0),
            bounds=np.array([[0.0, 1.0], [0.0, 1.0]])).fun
"""


def test_highs_binding_loaded_by_file_is_the_one_scipy_optimize_uses(tmp_path):
    proc = _fresh_python(_SMALL_LP + """
    import sys
    core = centralized._highs_binding()
    assert "scipy.optimize" not in sys.modules
    first = value_by_centralized()
    import scipy.optimize
    from scipy.optimize._highspy import _core
    assert _core is core
    assert centralized._highs_binding() is core
    values = [first, value_by_centralized(),
              scipy.optimize.linprog([-1.0, -2.0], A_ub=[[1.0, 1.0]], b_ub=[1.5],
                                     bounds=[(0, 1)] * 2, method="highs").fun,
              scipy.optimize.milp([-1.0, -2.0], bounds=scipy.optimize.Bounds(0, 1),
                                  constraints=scipy.optimize.LinearConstraint(
                                      [[1.0, 1.0]], -np.inf, 1.5)).fun]
    assert values == [-2.5] * 4, values
    """, tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_highs_binding_after_scipy_optimize_is_scipys_module(tmp_path):
    proc = _fresh_python("""
    import scipy.optimize
    """ + _SMALL_LP + """
    assert centralized._highs_binding() is scipy.optimize._highspy._core
    assert value_by_centralized() == -2.5
    """, tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_highs_binding_falls_back_to_the_plain_import(tmp_path):
    # An empty folder in place of scipy's: find_spec finds no extension file.
    proc = _fresh_python(_SMALL_LP + f"""
    import sys
    import scipy
    real, scipy.__file__ = scipy.__file__, {str(tmp_path / "__init__.py")!r}
    try:
        core = centralized._highs_binding()
    finally:
        scipy.__file__ = real
    assert "scipy.optimize" in sys.modules
    assert core is sys.modules["scipy.optimize._highspy._core"]
    assert value_by_centralized() == -2.5
    """, tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_highs_binding_loads_once_under_racing_threads(tmp_path):
    proc = _fresh_python("""
    import sys
    import threading
    from paretopool import centralized

    n = 8
    barrier, found = threading.Barrier(n), []

    def load():
        barrier.wait(timeout=30)
        found.append(centralized._highs_binding())

    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=load) for _ in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(0.005)
    assert not any(t.is_alive() for t in threads)
    assert len(found) == n and all(m is sys.modules[m.__name__] for m in found)
    assert len(set(map(id, found))) == 1
    assert "scipy.optimize" not in sys.modules
    """, tmp_path)
    assert proc.returncode == 0, proc.stderr


# -- README examples ----------------------------------------------------------


def _readme_blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", README.read_text(encoding="utf-8"),
                      re.S | re.M)


def _only_readme_block(lang: str) -> str:
    blocks = _readme_blocks(lang)
    assert len(blocks) == 1, f"expected one {lang} block in README.md, found {len(blocks)}"
    return blocks[0]


def test_readme_json_block_passes_validate_config(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(_only_readme_block("json"), encoding="utf-8")
    assert main(["validate-config", "--config", str(config)]) == 0
    assert capsys.readouterr().out == "config ok\n"


def test_readme_python_block_runs_with_warnings_as_errors(tmp_path):
    proc = _fresh_python(_only_readme_block("python"), tmp_path, "-W", "error")
    assert proc.returncode == 0, proc.stderr


def test_readme_command_lines_parse():
    # Optional parts are unbracketed; only argparse runs, no file is opened.
    lines = [line for block in _readme_blocks("sh") for line in block.splitlines()
             if line.startswith("paretopool ")]
    assert lines, "no paretopool command line in README.md"
    for line in lines:
        argv = shlex.split(line.replace("[", "").replace("]", ""), comments=True)[1:]
        try:
            cli.build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command line does not parse: {line}")
