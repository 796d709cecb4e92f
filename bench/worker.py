"""One benchmark run in a fresh process; started by ``run.py``.

Prints one ``record`` line per timed operation and, last, one JSON object
with the run's figures.  ``run.py`` pins the environment (hash seed, BLAS
threads) before starting it, so run measurements through ``run.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import povmcomp  # noqa: E402
import spans as tr  # noqa: E402
import workloads as wl  # noqa: E402

# set-ups per run: at least SETUP_REPEATS, and cheap ones repeat until
# SETUP_MIN_S of CPU time is spent, so that millisecond set-ups report a
# steady median
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0
# a run of S seconds makes S // PASS_BUDGET_S passes (at least one)
PASS_BUDGET_S = 20.0
# the speed probe times its kernel every SPEED_PERIOD_S; a window needs
# SPEED_MIN_SAMPLES samples, and a kernel time of SPEED_REF_S is reference speed
SPEED_PERIOD_S = 0.02
SPEED_MIN_SAMPLES = 25
SPEED_REF_S = 150e-6
# layer metrics of the traced set-up that are reported under "setup."
SETUP_LAYER_METRICS = (
    "sdp.solves",
    "sdp.solve.s",
    "sdp.verdict.max_iter",
    "sdp.max_iter.s",
    "entropies.d_max_smooth.calls",
    "prep.prepare.s",
    "prep.thresholds.calls",
    "prep.thresholds.cache_hits",
    "prep.thresholds.self_s",
)


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        blas = {}
    pinned = ("PYTHONHASHSEED", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
        "env": {k: os.environ.get(k) for k in pinned},
    }


def _speed_kernel() -> int:
    """Fixed pure-Python work that allocates no tracked objects."""
    s = 0
    for i in range(1500):
        s += (i * 7) % 5
    return s


class SpeedProbe:
    """Times a fixed kernel from a second thread pinned to the worker's CPU.

    On a shared host the speed of identical work drifts by tens of percent
    over minutes.  The kernel's CPU time at each moment measures that
    drift, so an operation's CPU time can be rescaled to reference speed.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (perf_counter, kernel CPU s)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(SPEED_PERIOD_S):
            c0 = time.thread_time()
            _speed_kernel()
            self.samples.append((time.perf_counter(), time.thread_time() - c0))

    def __enter__(self) -> SpeedProbe:
        # both threads on one CPU, so the kernel runs where the work runs
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def window(self, t0: float, t1: float) -> list[float]:
        """Kernel CPU times of the samples taken in [t0, t1]."""
        return [k for t, k in self.samples if t0 <= t <= t1]

    def kernel_s(self, t0: float, t1: float) -> float | None:
        """Median kernel time in [t0, t1], or None if too few samples."""
        ks = self.window(t0, t1)
        return statistics.median(ks) if len(ks) >= SPEED_MIN_SAMPLES else None

    def own_cpu(self, t0: float, t1: float) -> float:
        """CPU the kernel took from the process in [t0, t1]."""
        return sum(self.window(t0, t1))


@dataclass
class Pass:
    """Outcome of one pass over a workload's operations."""

    wall: float = 0.0
    cpu: float = 0.0
    attempted: int = 0
    failed: int = 0
    records: list = field(default_factory=list)


def run_pass(workload: wl.Workload, state: dict, probe=contextlib.nullcontext, rec=None) -> Pass:
    """Time each operation (inside ``probe``), then check its output untimed."""
    out = Pass()
    for op in workload.ops(state):
        out.attempted += 1
        if rec is not None:
            rec.op = f"{op.instance}:{op.stage}"
        failure = None
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            with probe():
                result = op.run()
        except Exception:
            failure = traceback.format_exc()
        dt = time.perf_counter() - t0
        dc = time.process_time() - c0
        out.cpu += dc
        out.wall += dt
        if failure is None:
            try:
                op.check(result)
            except Exception:
                failure = traceback.format_exc()
        if failure is not None:
            out.failed += 1
            print(f"FAILED {op.instance} {op.stage}:\n{failure}", file=sys.stderr)
        out.records.append(
            {
                "instance": op.instance,
                "stage": op.stage,
                "seconds": dt,
                "cpu_seconds": dc,
                "start": t0,
                "end": t0 + dt,
                "ok": failure is None,
            }
        )
    return out


def best_pass(passes: list[Pass], key: str) -> float:
    """Seconds of a pass made of each operation's fastest run.

    Contention from other tenants only ever adds time, so the lowest of an
    operation's runs is its steadiest estimate.
    """
    runs_per_op = zip(*(p.records for p in passes))
    return sum(min(r[key] for r in runs) for runs in runs_per_op)


def measure(workload: wl.Workload, instances, seconds: float) -> dict:
    """Untraced run: repeated set-ups, then as many passes as fit in ``seconds``."""
    setups = []
    with SpeedProbe() as speed:
        while len(setups) < SETUP_REPEATS or sum(s["cpu_seconds"] for s in setups) < SETUP_MIN_S:
            c0, t0 = time.process_time(), time.perf_counter()
            state = workload.setup(instances)
            c1, t1 = time.process_time(), time.perf_counter()
            setups.append({"seconds": t1 - t0, "cpu_seconds": c1 - c0, "start": t0, "end": t1})
        setup_end = time.perf_counter()
        # the pass count depends on the budget only, so every run does identical work
        count = max(1, int(seconds // PASS_BUDGET_S))
        passes = [run_pass(workload, state) for _ in range(count)]
    # Take the kernel's own CPU out of each timed span, then rescale the span
    # to reference speed by the kernel's median time during it; spans too
    # short for that (millisecond set-ups) use their phase's median.
    run_k = statistics.median(k for _, k in speed.samples)
    setup_k = speed.kernel_s(setups[0]["start"], setup_end) or run_k
    pass_k = speed.kernel_s(setup_end, time.perf_counter()) or run_k
    for r, phase_k in [(s, setup_k) for s in setups] + [
        (r, pass_k) for p in passes for r in p.records
    ]:
        r["cpu_seconds"] -= speed.own_cpu(r["start"], r["end"])
        k = speed.kernel_s(r["start"], r["end"]) or phase_k
        r["ref_cpu_seconds"] = r["cpu_seconds"] * SPEED_REF_S / k
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {
            "ref_cpu_s": best_pass(passes, "ref_cpu_seconds"),
            "setup_s": statistics.median(s["ref_cpu_seconds"] for s in setups),
            "peak_rss_mb": rss_kb / 1024.0,
        },
        # measured figures, reported alongside the metrics
        "raw": {
            "cpu_s": best_pass(passes, "cpu_seconds"),
            "setup_cpu_s": statistics.median(s["cpu_seconds"] for s in setups),
            "wall_s": statistics.median(p.wall for p in passes),
            "setup_wall_s": statistics.median(s["seconds"] for s in setups),
            "speed_kernel_s": pass_k,
        },
        "passes": [p.wall for p in passes],
        "setups": setups,
        "records": [r for p in passes for r in p.records],
    }


def measure_traced(workload: wl.Workload, instances) -> dict:
    """Traced set-up, one untraced reference pass, then one traced pass."""
    rec_setup, rec_pass = tr.Recorder(), tr.Recorder()
    c0, t0 = time.process_time(), time.perf_counter()
    with tr.instrumented(rec_setup):
        state = workload.setup(instances)
    setup_wall, setup_cpu = time.perf_counter() - t0, time.process_time() - c0
    plain = run_pass(workload, state)
    traced = run_pass(workload, state, probe=lambda: tr.instrumented(rec_pass), rec=rec_pass)
    metrics = tr.layer_metrics(rec_pass, traced.wall, traced.cpu)
    setup_metrics = tr.layer_metrics(rec_setup, setup_wall, setup_cpu)
    for name in SETUP_LAYER_METRICS:
        metrics[f"setup.{name}"] = setup_metrics[name]
    metrics["trace.wall_s"] = traced.wall
    metrics["trace.overhead"] = traced.cpu / plain.cpu if plain.cpu > 0 else 0.0
    for name in sorted(rec_setup.missing | rec_pass.missing):
        print(f"probe: {name} not found; its metrics read 0", file=sys.stderr)
    breaches = wl.invariant_breaches(workload.name, metrics)
    for b in breaches:
        print(f"INVARIANT {workload.name}: {b}", file=sys.stderr)
    return {
        # the invariants count as one more checked operation
        "attempted": plain.attempted + traced.attempted + 1,
        "failed": plain.failed + traced.failed + (1 if breaches else 0),
        "metrics": metrics,
        "passes": [plain.wall, traced.wall],
        "records": traced.records,
        "spans": {"setup": rec_setup.to_payload(), "pass": rec_pass.to_payload()},
    }


def self_check() -> int:
    """Every workload, untraced and traced, on the trivial instance."""
    problems = []
    for workload in wl.WORKLOADS.values():
        instances = ("trivial",)
        before = _probed_functions()
        plain = measure(workload, instances, seconds=0.0)
        traced = measure_traced(workload, instances)
        if _probed_functions() != before:
            problems.append(f"{workload.name}: traced run left probes installed")
        for label, res in (("untraced", plain), ("traced", traced)):
            if res["failed"]:
                failed = f"{res['failed']} of {res['attempted']} failed"
                problems.append(f"{workload.name} {label}: {failed}")
        print(
            f"self-check {workload.name} on trivial: cpu {plain['metrics']['ref_cpu_s']:.3f} s, "
            f"setup {plain['metrics']['setup_s']:.3f} s, "
            f"{traced['metrics']['sdp.solves']} solves traced"
        )
    for p in problems:
        print(f"self-check: {p}", file=sys.stderr)
    print("self-check", "FAILED" if problems else "passed")
    return 1 if problems else 0


def _probed_functions() -> dict:
    """Identity of every povmcomp module and probed class attribute."""
    owners = [mod for name, mod in sys.modules.items() if name.split(".")[0] == "povmcomp"]
    targets = (tr._resolve(module, path) for module, path, *_ in tr._probe_table())
    owners += [t[0] for t in targets if t is not None and isinstance(t[0], type)]
    return {(id(o), attr): id(val) for o in owners for attr, val in vars(o).items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1, help="recorded; the workloads are fixed")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write the full report (records, spans) to this file")
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args(argv)
    if Path(povmcomp.__file__).resolve().parent != SRC / "povmcomp":
        print(f"imported povmcomp from {povmcomp.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.self_check:
        return self_check()
    if args.workload is None:
        ap.error("--workload is required")
    env = environment()
    workload = wl.WORKLOADS[args.workload]
    if args.trace:
        res = measure_traced(workload, workload.instances)
    else:
        res = measure(workload, workload.instances, args.seconds)
    res.update(workload=workload.name, seed=args.seed, trace=args.trace, env=env)
    for r in res["records"]:
        print("record " + json.dumps(r))
    if args.out:
        Path(args.out).write_text(json.dumps(res, indent=1) + "\n")
    res.pop("spans", None)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
