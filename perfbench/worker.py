"""Warm-loop worker: one process, one CLI op at a time (closed loop).

Run by ``run.py`` as ``python3 perfbench/worker.py SPEC.json`` with the
checkout's ``src`` on ``PYTHONPATH``.  The spec names the op's argument
vector, a small warm-up argument vector of the same subcommand, the output
root and whether to trace.  The worker

1. times its own imports (numpy, scipy's optimize and sparse, the CLI),
2. runs the warm-up op untimed, so lazy imports and first-call set-up are
   paid before timing, recording how ``linprog`` was called,
3. answers requests from ``run.py``, one JSON line each on its standard
   input: ``op`` runs one timed op through ``paretopool.cli.main`` into its
   own output directory (with tracing on, followed by a traced op of the
   same input) and replies with the op's record; ``finish`` ends the loop,
4. hashes every op's outputs and writes a JSON result (latencies, exit
   codes, output digests, peak RSS, import times, per-op layer metrics).

Replies go to the standard output the worker was started with; whatever
the CLI prints goes to the standard error instead.  ``run.py`` decides when
to run an op, so it can start fresh processes between two ops while the
worker waits.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()
import numpy  # noqa: E402,F401
_T1 = time.perf_counter()
import scipy.optimize  # noqa: E402,F401
import scipy.sparse  # noqa: E402,F401
_T2 = time.perf_counter()
from paretopool import cli  # noqa: E402
_T3 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import clock  # noqa: E402
import tracer as tracing  # noqa: E402
from checks import output_digest  # noqa: E402


def run_op(argv, out: Path) -> dict:
    """One CLI op; latency on the steal-free clock, raw wall time beside it."""
    t0, w0 = clock.now(), time.perf_counter()
    code = cli.main(list(argv) + ["--out", str(out)])
    return {"dir": str(out), "latency_s": clock.now() - t0,
            "wall_s": time.perf_counter() - w0, "exit": code}


def main(spec_path: str) -> int:
    replies = os.fdopen(os.dup(1), "w", encoding="utf-8")
    os.dup2(2, 1)
    sys.stdout = sys.stderr

    def reply(payload) -> None:
        replies.write(json.dumps(payload) + "\n")
        replies.flush()

    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    out_root = Path(spec["out_root"])
    with tracing.probe_linprog() as lp_calls:
        warm_code = cli.main(list(spec["warmup_argv"]) + ["--out", str(out_root / "warmup")])
    result = {
        "import_s": {"numpy": _T1 - _T0, "scipy": _T2 - _T1, "paretopool": _T3 - _T2},
        "warmup_exit": warm_code,
        "linprog": lp_calls[0] if lp_calls else None,
    }
    reply({"ready": True})
    # With a tracer every op is followed by a traced op of the same input, so
    # the traced and untraced latencies see the same machine conditions.
    tracer = tracing.Tracer() if spec["trace"] else None
    ops, traced = [], []
    for line in sys.stdin:
        if json.loads(line)["request"] == "finish":
            break
        ops.append(run_op(spec["argv"], out_root / f"op_{len(ops):03d}"))
        if tracer is not None:
            tracer.install()
            try:
                traced.append(run_op(spec["argv"], out_root / f"traced_{len(traced):03d}"))
            finally:
                tracer.uninstall()
        reply({"op": ops[-1], "traced": traced[-1] if traced else None})
    result.update(ops=ops, traced_ops=traced)
    if tracer is not None:
        result["layers"] = tracer.op_metrics()
        with open(spec["spans"], "w", encoding="utf-8") as fh:
            json.dump([s[:7] for s in tracer.spans], fh)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    keep = spec["keep"]
    for op in ops + traced:
        out = Path(op["dir"])
        op["digest"] = output_digest(out) if op["exit"] == 0 else None
        if op["dir"] != keep:
            shutil.rmtree(out, ignore_errors=True)
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
