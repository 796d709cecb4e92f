"""povmcomp benchmark: the thresholds, decode and region workloads.

    python3 bench/run.py --workload decode --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1     # each workload in turn
    python3 bench/run.py --self-check                # every workload on `trivial`

BENCHMARK.json lists ``decode`` and ``region``; ``thresholds`` runs on
request (see bench/NOTES.md for why it is not listed).

Each run is one fresh worker process (bench/worker.py) with the hash seed
pinned and one BLAS/OpenMP thread.  The workloads are fixed lists of
operations (see bench/workloads.py), so every run does identical work;
``--seed`` is recorded with the results.  With ``--trace 0`` the run
reports the end-to-end metrics: CPU times of the worker rescaled to a
reference speed, and its peak memory.  With ``--trace 1`` it reports the
per-layer metrics of one traced pass.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``--out FILE`` also writes the worker's full report
(per-operation records, environment, and with ``--trace 1`` every span)
to FILE.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKER = HERE / "worker.py"
WORKLOADS = ("thresholds", "decode", "region")
# the whole command must end within 180 s
DEADLINE_S = 170.0
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONDONTWRITEBYTECODE": "1",
}
COUNT_SUFFIXES = (
    "calls", "solves", "iterations", "sessions", "attempts", "cells", "cache_hits", "max_var_reals"
)


def unit_of(name: str) -> str:
    name = name.removeprefix("setup.")
    leaf = name.rsplit(".", 1)[-1]
    if name == "peak_rss_mb":
        return "MB"
    if name.endswith("_s") or leaf == "s":
        return "s"
    if leaf in COUNT_SUFFIXES or name.startswith("sdp.verdict."):
        return "count"
    return "ratio"


class WorkerFailed(RuntimeError):
    def __init__(self, code: int):
        super().__init__(f"worker exited with code {code}")
        self.code = code


def run_worker(args: list[str], deadline: float) -> tuple[list[str], dict | None]:
    """Run the worker to completion (killed at the deadline); return its output."""
    env = dict(os.environ, **PINNED_ENV)
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args],
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired:
        print("worker timed out and was stopped", file=sys.stderr)
        raise WorkerFailed(124) from None
    lines = proc.stdout.splitlines()
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        raise WorkerFailed(proc.returncode)
    try:
        return lines[:-1], json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return lines, None


def summarise(res: dict) -> None:
    print(
        f"{res['workload']} seed={res['seed']} trace={res['trace']}: "
        f"{len(res['passes'])} pass(es), failed {res['failed']} of {res['attempted']} operations"
    )
    rows = dict(res["metrics"])
    if not res["trace"]:
        rows.update(res["raw"])
        rows["failed_share"] = res["failed"] / res["attempted"]
    for name, value in rows.items():
        print(f"  {name:34s} {value:14.6g} {unit_of(name)}")
    print("env " + json.dumps(res["env"]))


def result_line(results: list[dict], prefix: bool) -> str:
    metrics = {}
    for res in results:
        for name, value in res["metrics"].items():
            key = f"{res['workload']}.{name}" if prefix else name
            metrics[key] = {"value": value, "unit": unit_of(name)}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    return json.dumps(
        {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1, help="recorded; the workloads are fixed")
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="write the worker's full report here (single workload only)")
    ap.add_argument(
        "--self-check", action="store_true", help="run every workload on the trivial instance"
    )
    args = ap.parse_args(argv)
    # on SIGTERM, unwind through subprocess.run, which kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + DEADLINE_S
    if not (SRC / "povmcomp" / "__init__.py").is_file():
        print(f"povmcomp sources not found under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.self_check:
            lines, _ = run_worker(["--self-check"], deadline)
            print("\n".join(lines))
            return 0
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        if args.out and len(names) > 1:
            ap.error("--out needs a single --workload")
        results = []
        for name in names:
            cmd = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds)]
            cmd += ["--trace", str(args.trace)] + (["--out", args.out] if args.out else [])
            lines, res = run_worker(cmd, deadline)
            if res is None:
                print("worker printed no result", file=sys.stderr)
                return 1
            print("\n".join(lines))
            summarise(res)
            results.append(res)
    except WorkerFailed as exc:
        return exc.code or 1
    print(result_line(results, prefix=len(results) > 1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
