#!/usr/bin/env python3
"""Seeded end-to-end benchmark of the paretopool command line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload p2p-wide --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py            # every workload, one after the other

Each workload generates its input files from the seed (``inputs.py``), then
measures the CLI as a single client in a closed loop: one process runs one
subcommand at a time through ``paretopool.cli.main`` (``worker.py``).
Between two warm ops, while the worker waits, fresh processes import the
CLI and run the subcommand cold, so both kinds of sample spread over the
whole run.  Every process runs BLAS and OpenMP on one thread.  The
outputs of every op are checked (``checks.py``); an op fails on a non-zero
exit, on outputs that differ from the first op's, or when the first op's
outputs break a check.

With ``--trace 0`` the end-to-end metrics are reported:

* ``setup_s``      median wall time of a fresh interpreter importing the CLI
* ``cli_cold_s``   median wall time of the subcommand as a fresh process
* ``op_s_p50``     median warm in-process op latency
* ``op_s_tail``    highest percentile of warm latency with ten samples
                   beyond it (at least 13 ops are always run)
* ``ops_per_s``    verified warm ops per second of warm-op time
* ``peak_rss_mb``  peak resident set of the warm-loop process
* ``verified_share`` verified ops / attempted ops (1 - error rate)

With ``--trace 1`` untraced and traced ops alternate in one worker and the
per-layer metrics of ``tracer.py`` are reported instead, each the median
over the traced ops, plus import times and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A readable record
with the environment, input sizes and every op lives in
``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import clock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SWEEP_PANEL = ROOT / "tests" / "data" / "sweep_panel.csv"
WORK = ROOT / ".perfbench_work"

MIN_WARM_OPS = 13       # the tail percentile keeps ten samples beyond it
MIN_FRESH = 6           # fresh import + cold CLI process pairs, at least
TRACED_MIN_OPS = 3
RUN_DEADLINE_S = 170    # a workload run ends within 180 s, or fails

END_TO_END = {
    "setup_s": "s", "cli_cold_s": "s", "op_s_p50": "s", "op_s_tail": "s",
    "ops_per_s": "1/s", "peak_rss_mb": "MB", "verified_share": "ratio",
}

# Per-layer metrics of the traced run: name -> unit.  Counts are per op.
PER_LAYER = {
    "ingest.parse_losses.self_s": "s",
    "ingest.rows": "count",
    "ingest.us_per_row": "us",
    "ingest.rejected": "count",
    "distortion.eval.calls": "count",
    "distortion.eval.points": "count",
    "distortion.eval.self_s": "s",
    "riskmeasure.choquet.calls": "count",
    "riskmeasure.choquet.self_s": "s",
    "riskmeasure.choquet.distinct_ratio": "ratio",
    "riskmeasure.robust_drm.calls": "count",
    "riskmeasure.es.self_s": "s",
    "posolver.layer_decomposition.calls": "count",
    "posolver.layer_decomposition.self_s": "s",
    "posolver.layers": "count",
    "posolver.layer_cells": "count",
    "posolver.coverage.self_s": "s",
    "posolver.solve_robust.self_s": "s",
    "posolver.robust_combos": "count",
    "posolver.solve_fixed.calls": "count",
    "posolver.welfare_report.calls": "count",
    "posolver.welfare_report.self_s": "s",
    "posolver.side_payments.self_s": "s",
    "centralized.solve_measure_lp.calls": "count",
    "centralized.lp_build.self_s": "s",
    "centralized.lp_rows": "count",
    "centralized.lp_cols": "count",
    "centralized.lp_nnz": "count",
    "centralized.highs.self_s": "s",
    "centralized.highs.wait_s": "s",
    "centralized.lp_nit": "count",
    "centralized.build_indemnities.self_s": "s",
    "centralized.indemnity.self_s": "s",
    "centralized.stackelberg_premiums.self_s": "s",
    "centralized.centralized_welfare.self_s": "s",
    "cli.main.self_s": "s",
    "cli.sweep_rows.parallelism": "ratio",
    "cli.sweep_rows.wait_s": "s",
    "import.numpy_s": "s",
    "import.scipy_s": "s",
    "import.paretopool_s": "s",
    "trace.overhead_s": "s",
}

WORKLOADS = ("p2p-wide", "central-lp", "sweep-panel")


# Every process the benchmark starts runs its BLAS and OpenMP code on one
# thread.  On a host of a few shared cores, a BLAS pool spinning beside the
# sweep's thread pool or another tenant measures the scheduler: one-thread
# BLAS gives the same cold p2p-wide wall time with about half the spread.
ONE_THREAD = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def _env() -> dict:
    env = dict(os.environ, **ONE_THREAD)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _run(argv, deadline: float, **kwargs) -> tuple[float, subprocess.CompletedProcess]:
    """Run a process to its end; its duration on the steal-free clock.

    The process is killed, and the run fails, when it would outlast the
    ``deadline`` (a ``perf_counter`` time).  The wait blocks in the kernel
    rather than polling, as ``subprocess.run`` with a timeout does in steps
    of up to 50 ms, so the duration ends when the process does.
    """
    timeout = max(1.0, deadline - time.perf_counter())
    t0 = clock.now()
    with subprocess.Popen(argv, env=_env(), cwd=ROOT, stdin=subprocess.DEVNULL,
                          **kwargs) as proc, _Watchdog(proc, timeout):
        _, stderr = proc.communicate()
    elapsed = clock.now() - t0
    return elapsed, subprocess.CompletedProcess(argv, proc.returncode, None, stderr)


class _Watchdog:
    """Kills ``proc`` after ``timeout`` seconds; leaving the block then
    raises ``TimeoutExpired``.  Whatever ends the block, ``proc`` has been
    killed or has exited, so the ``Popen`` block around it can reap it."""

    def __init__(self, proc: subprocess.Popen, timeout: float):
        self.proc, self.timeout = proc, timeout
        self.fired = threading.Event()
        self.timer = threading.Timer(timeout, self._kill)

    def _kill(self) -> None:
        self.fired.set()
        self.proc.kill()

    def __enter__(self):
        self.timer.start()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.timer.cancel()
        if self.proc.poll() is None:
            self.proc.kill()
        if self.fired.is_set():
            raise subprocess.TimeoutExpired(self.proc.args, self.timeout)
        return False


def _make_inputs(workload: str, seed: int, work: Path):
    """(main workload, warm-up workload, output check) for one workload."""
    import checks
    import inputs

    main_dir, warm_dir = work / "inputs", work / "warmup_inputs"
    main_dir.mkdir(parents=True)
    warm_dir.mkdir(parents=True)
    if workload == "p2p-wide":
        wl = inputs.make_p2p(main_dir, seed)
        warm = inputs.make_p2p(warm_dir, seed, inputs.TINY_P2P)
        return wl, warm, lambda out: checks.check_p2p(out, wl.config, wl.data)
    if workload == "central-lp":
        wl = inputs.make_central(main_dir, seed)
        warm = inputs.make_central(warm_dir, seed, inputs.TINY_CENTRAL)
        return wl, warm, checks.check_central
    wl = inputs.make_sweep(main_dir, seed, SWEEP_PANEL)
    return wl, wl, checks.check_sweep


def _input_sizes(wl) -> dict:
    import numpy as np

    panel = np.array(wl.panel, dtype=float)

    def layers(x):
        return int(np.unique(x[x > 0.0]).size)
    return {"claim_rows": wl.claim_rows, "months": wl.months, "agents": wl.agents,
            "layers": layers(panel.sum(axis=1)),
            "agent_layers": sum(layers(panel[:, j]) for j in range(panel.shape[1]))}


def tail_latency(latencies) -> tuple[float, float, int]:
    """The highest percentile with ten samples beyond it: (value,
    percentile, samples beyond).  Falls back to the maximum below 11."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, 0
    return xs[n - 11], 100.0 * (n - 10) / n, 10


def _warm_loop(spec: dict, work: Path, deadline: float, fresh=None) -> dict:
    """Run the warm loop in one worker process and return its result.

    The worker runs ops until their time adds up to ``seconds`` and
    ``min_ops`` ops are done.  ``fresh``, when given, takes fresh-process
    samples and returns their duration; it is called between two ops
    whenever the fresh samples so far took less time than the ops, and the
    loop goes on until it has been called ``MIN_FRESH`` times.  Both kinds of
    sample are so spread evenly over the whole run.
    """
    spec_path = work / "worker_spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    log = work / "worker.log"
    argv = [sys.executable, str(HERE / "worker.py"), str(spec_path)]
    with open(log, "w", encoding="utf-8") as fh, \
            subprocess.Popen(argv, env=_env(), cwd=ROOT, stdin=subprocess.PIPE,
                             stdout=subprocess.PIPE, stderr=fh, text=True) as proc, \
            _Watchdog(proc, max(1.0, deadline - time.perf_counter())):

        def ask(request: str) -> dict:
            try:
                proc.stdin.write(json.dumps({"request": request}) + "\n")
                proc.stdin.flush()
            except BrokenPipeError:
                pass
            line = proc.stdout.readline()
            if not line:
                raise RuntimeError("worker stopped answering:\n"
                                   + log.read_text(encoding="utf-8")[-3000:])
            return json.loads(line)

        if not proc.stdout.readline():
            raise RuntimeError("worker failed to start:\n"
                               + log.read_text(encoding="utf-8")[-3000:])
        op_s, fresh_s, ops, calls = 0.0, 0.0, 0, 0
        while (op_s < spec["seconds"] or ops < spec["min_ops"]
               or (fresh is not None and calls < MIN_FRESH)):
            reply = ask("op")
            op_s += reply["op"]["latency_s"] + (reply["traced"] or {}).get("latency_s", 0.0)
            ops += 1
            if fresh is not None and fresh_s < op_s:
                fresh_s += fresh()
                calls += 1
        proc.stdin.write(json.dumps({"request": "finish"}) + "\n")
        proc.stdin.close()
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n"
                           + log.read_text(encoding="utf-8")[-3000:])
    return json.loads(Path(spec["result"]).read_text(encoding="utf-8"))


def _fresh_pair(wl, out_root: Path, deadline: float, setup: list, cold: list) -> float:
    """One fresh interpreter importing the CLI, then one fresh CLI process
    running the op; appends to ``setup`` and ``cold``, returns their time."""
    from checks import output_digest

    elapsed, proc = _run([sys.executable, "-c", "import paretopool.cli"], deadline)
    if proc.returncode != 0:
        raise RuntimeError("importing paretopool.cli failed")
    setup.append(elapsed)
    out = out_root / f"cold_{len(cold)}"
    latency, proc = _run([sys.executable, "-m", "paretopool.cli", *wl.argv,
                          "--out", str(out)], deadline,
                         stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    cold.append({"latency_s": latency, "exit": proc.returncode,
                 "digest": output_digest(out) if proc.returncode == 0 else None,
                 "stderr": proc.stderr.decode(errors="replace")[-500:]})
    if proc.returncode == 0:
        shutil.rmtree(out, ignore_errors=True)
    return elapsed + latency


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy
    import scipy

    # Fills the bytecode and page caches of a fresh checkout before any
    # fresh process is timed.
    import paretopool.cli  # noqa: F401

    deadline = time.perf_counter() + RUN_DEADLINE_S
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    work = WORK / f"{tag}-{os.getpid()}"
    results = WORK / "results"
    shutil.rmtree(work, ignore_errors=True)
    results.mkdir(parents=True, exist_ok=True)
    try:
        wl, warm, check = _make_inputs(workload, seed, work)
        out_root = work / "out"
        out_root.mkdir()
        spec = {
            "argv": list(wl.argv), "warmup_argv": list(warm.argv),
            "out_root": str(out_root), "keep": str(out_root / "op_000"),
            "trace": trace, "result": str(work / "worker_result.json"),
            "spans": str(results / f"{tag}-spans.json"),
            "seconds": seconds,
            "min_ops": TRACED_MIN_OPS if trace else MIN_WARM_OPS,
        }
        cold, setup = [], []
        fresh = None if trace else (
            lambda: _fresh_pair(wl, out_root, deadline, setup, cold))
        res = _warm_loop(spec, work, deadline, fresh)
        ops = res["ops"] + res["traced_ops"]

        reference = ops[0]["digest"] if ops[0]["exit"] == 0 else None
        try:
            problems = check(Path(spec["keep"])) if reference else ["first op failed"]
        except (OSError, KeyError, ValueError) as exc:
            problems = [f"outputs unreadable: {exc!r}"]
        if res["warmup_exit"] != 0:
            problems.append(f"warm-up op exited with {res['warmup_exit']}")
        attempted = ops + cold
        failed = sum(1 for op in attempted
                     if problems or op["exit"] != 0 or op["digest"] != reference)
        lat = [op["latency_s"] for op in res["ops"]]

        record = {
            "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "environment": {
                "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
                "python": platform.python_version(), "numpy": numpy.__version__,
                "scipy": scipy.__version__,
                "linprog_method": (res["linprog"] or {}).get("method", "not called"),
                "machine": platform.machine(), "threads_env": ONE_THREAD,
            },
            "inputs": _input_sizes(wl),
            "problems": problems,
            "ops": res["ops"], "cold": cold, "setup_s": setup,
        }
        if trace:
            traced = [op["latency_s"] for op in res["traced_ops"]]
            # median_low: an observed value, so counts stay whole numbers.
            metrics = {name: statistics.median_low(op.get(name, 0) for op in res["layers"])
                       for name in PER_LAYER if not name.startswith(("import.", "trace."))}
            for lib, value in res["import_s"].items():
                metrics[f"import.{lib}_s"] = value
            metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(lat)
            units = PER_LAYER
            record["traced_ops"] = res["traced_ops"]
            record["layers_per_op"] = res["layers"]
        else:
            tail, pct, beyond = tail_latency(lat)
            verified = sum(1 for op in res["ops"]
                           if not problems and op["exit"] == 0 and op["digest"] == reference)
            metrics = {
                "setup_s": statistics.median(setup),
                "cli_cold_s": statistics.median(op["latency_s"] for op in cold),
                "op_s_p50": statistics.median(lat),
                "op_s_tail": tail,
                "ops_per_s": verified / sum(lat),
                "peak_rss_mb": res["peak_rss_mb"],
                "verified_share": (len(attempted) - failed) / len(attempted),
            }
            units = END_TO_END
            record["op_s_tail"] = {"percentile": pct, "samples": len(lat),
                                   "beyond": beyond}
        record["metrics"] = metrics
        (results / f"{tag}.json").write_text(json.dumps(record, indent=2, default=str),
                                             encoding="utf-8")
        return {
            "record": record,
            "result": {"correct": failed == 0 and not problems,
                       "attempted": len(attempted), "failed": failed,
                       "metrics": {name: {"value": value, "unit": units[name]}
                                   for name, value in metrics.items()}},
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _print_report(workload: str, record: dict, result: dict) -> None:
    print(f"[{workload}] seed {record['seed']} environment {json.dumps(record['environment'])}")
    print(f"[{workload}] inputs {json.dumps(record['inputs'])}")
    for problem in record["problems"]:
        print(f"[{workload}] CHECK FAILED: {problem}")
    for name, m in result["metrics"].items():
        extra = ""
        if name == "op_s_tail":
            t = record["op_s_tail"]
            extra = f"  (p{t['percentile']:.1f} of {t['samples']} ops, {t['beyond']} beyond)"
        print(f"[{workload}] {name} = {m['value']:.6g} {m['unit']}{extra}")
    print(f"[{workload}] attempted {result['attempted']} failed {result['failed']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in (SRC / "paretopool" / "cli.py", SWEEP_PANEL) if not p.is_file()]
    if missing:
        print(f"benchmark needs the paretopool checkout; missing {missing[0]}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            out = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"[{name}] benchmark run failed: {exc}", file=sys.stderr)
            return 1
        _print_report(name, out["record"], out["result"])
        if len(names) == 1:
            combined = out["result"]
            break
        combined["correct"] &= out["result"]["correct"]
        combined["attempted"] += out["result"]["attempted"]
        combined["failed"] += out["result"]["failed"]
        for metric, value in out["result"]["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
