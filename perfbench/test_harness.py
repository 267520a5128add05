"""Self-tests of the benchmark harness.

Run from the root of a checkout with

    python3 -m pytest perfbench -q

They check that the tracer is transparent (traced and untraced ops write
byte-identical outputs), that its counts repeat exactly, that every output
check rejects a deliberately corrupted file, and that the input generator
is deterministic in its seed.
"""

from __future__ import annotations

import csv
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
from paretopool import cli, posolver  # noqa: E402
from paretopool.riskmeasure import EmpiricalSpace  # noqa: E402

SWEEP_PANEL = ROOT / "tests" / "data" / "sweep_panel.csv"


def _op(argv, out: Path) -> str:
    assert cli.main(list(argv) + ["--out", str(out)]) == 0
    return checks.output_digest(out)


# A centralized market whose contract cedes (seed 2), so the premium and
# gain checks see non-zero values.
CEDING_CENTRAL = inputs.Sizes(months=60, agents=4, nonzero_share=1.0, extra_rows_mean=0.0)


def _small(kind: str, tmp_path: Path):
    """A small seeded workload of one subcommand and its output check."""
    data_dir = tmp_path / "inputs"
    data_dir.mkdir()
    if kind == "p2p":
        wl = inputs.make_p2p(data_dir, 5, inputs.TINY_P2P)
        return wl, lambda out: checks.check_p2p(out, wl.config, wl.data)
    if kind == "central":
        return inputs.make_central(data_dir, 2, CEDING_CENTRAL), checks.check_central
    return inputs.make_sweep(data_dir, 5, SWEEP_PANEL), checks.check_sweep


@pytest.fixture(params=["p2p", "central", "sweep"])
def small(request, tmp_path):
    return _small(request.param, tmp_path)


def test_traced_outputs_are_byte_identical(small, tmp_path):
    wl, check = small
    plain = _op(wl.argv, tmp_path / "plain")
    original = posolver.layer_decomposition
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert posolver.layer_decomposition is not original
        traced = _op(wl.argv, tmp_path / "traced")
    finally:
        tracer.uninstall()
    assert posolver.layer_decomposition is original
    assert traced == plain
    assert check(tmp_path / "plain") == []
    (metrics,) = tracer.op_metrics()
    assert metrics["cli.main.calls"] == 1
    assert metrics["ingest.rows"] == wl.claim_rows


def test_traced_counts_repeat_exactly(tmp_path):
    wl = inputs.make_sweep(tmp_path, 3, SWEEP_PANEL)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for k in range(2):
            _op(wl.argv, tmp_path / f"out{k}")
    finally:
        tracer.uninstall()
    first, second = tracer.op_metrics()
    for name in ("ingest.rows", "posolver.layers", "posolver.robust_combos",
                 "riskmeasure.choquet.calls", "centralized.lp_nit",
                 "centralized.solve_measure_lp.calls"):
        assert first[name] == second[name] > 0, name
    # Grid points run on the pool but stay inside the op's span tree.
    assert first["cli.sweep_point.calls"] == 6
    assert first["cli.sweep_rows.parallelism"] > 0.0


def _edit_json(path: Path, edit) -> None:
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))


def _edit_csv(path: Path, edit) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    header = list(rows[0])
    edit(rows)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, header, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def _flip_slope(p):
    p["slopes"][0][0] = 1.0 - p["slopes"][0][0]


def _shift_payment(p):
    p["side_payments"][0] += 1.0


def _unequal_gain(p):
    p["welfare_gains"][0] *= 1.5


def _report_total(p):
    p["total_welfare"] += 1.0


def _ph_gain(rows):
    rows[0]["policyholder_gain"] = "5.0"


def _insurer_gain(p):
    p["insurer_gain"] += 1.0


def _negative_gain(p):
    p["insurer_gain"] = p["aggregate_gain"] = -1.0


def _one_sign(rows):
    for r in rows:
        r["percent_decrease"] = str(abs(float(r["percent_decrease"])) + 1.0)


def _zero_central(rows):
    rows[0]["centralized_avg_gain"] = "0"


CORRUPTIONS = [
    ("p2p", "allocation.json", _edit_json, _flip_slope),
    ("p2p", "allocation.json", _edit_json, _shift_payment),
    ("p2p", "market_report.json", _edit_json, _unequal_gain),
    ("p2p", "market_report.json", _edit_json, _report_total),
    ("central", "premiums_stackelberg.csv", _edit_csv, _ph_gain),
    ("central", "stackelberg.json", _edit_json, _insurer_gain),
    ("central", "stackelberg.json", _edit_json, _negative_gain),
    ("sweep", "sweep.csv", _edit_csv, _one_sign),
    ("sweep", "sweep.csv", _edit_csv, _zero_central),
]


@pytest.mark.parametrize("kind,name,editor,edit", CORRUPTIONS,
                         ids=[c[3].__name__.strip("_") for c in CORRUPTIONS])
def test_checks_reject_corrupted_outputs(kind, name, editor, edit, tmp_path):
    wl, check = _small(kind, tmp_path)
    out = tmp_path / "out"
    before = _op(wl.argv, out)
    assert check(out) == []
    if kind == "central":
        assert json.loads((out / "stackelberg.json").read_text())["insurer_gain"] > 0.0
    editor(out / name, edit)
    assert check(out) != []
    assert checks.output_digest(out) != before


def test_inputs_repeat_for_a_seed_and_differ_across_seeds(tmp_path):
    def files(seed, tag):
        d = tmp_path / tag
        d.mkdir()
        inputs.make_p2p(d, seed, inputs.TINY_P2P)
        return {p.name: p.read_bytes() for p in sorted(d.iterdir())}
    first = files(11, "a")
    assert first == files(11, "b")
    assert first != files(12, "c")


def test_generated_beliefs_and_panels_load(tmp_path):
    wl = inputs.make_p2p(tmp_path, 2, inputs.TINY_P2P)
    cfg = cli.load_config(wl.config)
    believers = [a for a in cfg.agents if a.belief_file is not None]
    assert len(believers) == inputs.TINY_P2P.belief_agents
    for a in believers:
        text = (tmp_path / a.belief_file).read_text()
        EmpiricalSpace([float(v) for v in text.split()])
    with open(wl.data, newline="") as fh:
        panel, report = cli.ingest.parse_losses(fh)
    assert report.total_rows == report.used_rows == wl.claim_rows
    assert panel.month_count == wl.months
    assert [tuple(r) for r in panel.losses.tolist()] == list(wl.panel)


def test_sweep_claims_reproduce_the_checked_in_panel(tmp_path):
    wl = inputs.make_sweep(tmp_path, 9, SWEEP_PANEL)
    with open(wl.data, newline="") as fh:
        panel, _ = cli.ingest.parse_losses(fh)
    reference = cli.ingest.load_panel(SWEEP_PANEL.read_text())
    assert panel.months == reference.months
    assert (panel.losses == reference.losses).all()


def test_tail_has_ten_samples_beyond():
    value, pct, beyond = run.tail_latency([float(k) for k in range(20, 0, -1)])
    assert (value, pct, beyond) == (10.0, 50.0, 10)
    value, pct, beyond = run.tail_latency([float(k) for k in range(11)])
    assert (value, beyond) == (0.0, 10)


def test_overdue_process_is_killed():
    argv = [sys.executable, "-c", "import time; time.sleep(30)"]
    with pytest.raises(subprocess.TimeoutExpired):
        run._run(argv, deadline=0.0)          # the shortest timeout, 1 s

