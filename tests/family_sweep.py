"""The random-instance table of ROADMAP's Baseline, rerun from its two
seeded families (``oracles.family_instance_parts``).

Four sweeps, each one line per draw (family, seed, shape, outcome, CPU
seconds of ``time.process_time``) or per run, and a summary:

- ``table``: families 1 and 2 at seeds 1-20, the full pipeline under a
  60 s alarm: ``prepare``, ``thresholds``, the centralised protocol at
  ``budget_from_thresholds`` at the default and the zero additive
  constant (codebook seed 1), ``one_shot_region`` at theta 0.5 and
  ``iid_region``, all at eps 0.1;
- ``scan``: families 1 and 2 at seeds 21-100 (160 draws), ``thresholds``
  and a theta 0.5 ``one_shot_region`` at eps 0.1 under a 20 s alarm;
- ``values``: every smoothing value of ``thresholds`` and of the five-theta
  ``one_shot_region``, at eps 0.1 and 0.01, on the bundled instances and
  the ``table``'s 40 draws, with the widest certified interval in bits;
- ``ladder``: the bundled instances at each eps of ``LADDER`` and at the
  default and the zero additive constant, under a 60 s alarm: ``thresholds``,
  the centralised protocol at ``budget_from_thresholds`` (codebook seed 1)
  and ``one_shot_region`` at theta 0.5.  A run that finishes reports its
  nice fraction and whether event E held; one that fails names its stage.

A draw's outcome is "ok" or the exception it raised, named with its
message; the alarm raises ``Alarm``.  Arguments after the sweep's name,
as ``family:seed``, run those draws alone.  The BLAS thread count is the
environment's; ROADMAP's Baseline reads one thread.  Run from the
repository root:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/family_sweep.py table
    OPENBLAS_NUM_THREADS=2 PYTHONPATH=src python tests/family_sweep.py scan 2:61 2:68
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/family_sweep.py ladder
"""

from __future__ import annotations

import math
import signal
import sys
import time
from collections import Counter

import numpy as np

import oracles
from povmcomp import entropies as ent
from povmcomp import io, qobjects as qo, sdp
from povmcomp import protocols as P

EPS = 0.1
LADDER = (0.1, 0.01, 1e-3, 1e-4, 1e-6)


class Alarm(Exception):
    """The draw ran past its alarm."""


def instance(family: int, seed: int) -> io.Instance:
    dims, rho, alpha_x, alpha_y, elements = oracles.family_instance_parts(seed, family)
    return io.Instance(dims, rho, qo.JointPOVM(tuple(alpha_x), tuple(alpha_y), elements))


def shape(inst: io.Instance) -> str:
    dims = "".join(f"{k}{v}" for k, v in inst.dims.items())
    rank = int(np.sum(inst.spectrum[1] > 1e-12))
    return f"{dims} |X|={len(inst.povm.alphabet_x)} |Y|={len(inst.povm.alphabet_y)} rank {rank}"


def pipeline(inst: io.Instance) -> None:
    prep = P.prepare(inst)
    P.thresholds(prep, EPS)
    for c in (None, 0.0):
        budget = P.budget_from_thresholds(prep, EPS, log_const=c)
        P.centralised_protocol(prep, budget, 1, log_const=c)
    P.one_shot_region(prep, EPS, theta_grid=(0.5,))
    P.iid_region(prep)


def smoothing(inst: io.Instance) -> None:
    prep = P.prepare(inst)
    P.thresholds(prep, EPS)
    P.one_shot_region(prep, EPS, theta_grid=(0.5,))


def outcome(step, seconds: int) -> str:
    """``step()`` under a ``seconds`` alarm: "ok" or its exception, named
    with its message."""

    def ring(signum, frame):
        raise Alarm(f"past {seconds} s")

    signal.signal(signal.SIGALRM, ring)
    signal.alarm(seconds)
    try:
        step()
        return "ok"
    except Exception as err:  # a sweep records every failure and goes on
        return f"{type(err).__name__}: {str(err)[:120]}"
    finally:
        signal.alarm(0)


def run(draws, step, seconds: int) -> Counter:
    """``step`` on each (family, seed) of ``draws`` under the alarm;
    prints one line per draw and returns the outcomes' counts."""
    outcomes = Counter()
    for family, seed in draws:
        inst, start = instance(family, seed), time.process_time()
        result = outcome(lambda: step(inst), seconds)
        outcomes[(family, result.split(":")[0])] += 1
        print(f"family {family} seed {seed:3d}  {shape(inst):28s} {result}  "
              f"{time.process_time() - start:.2f} s", flush=True)
    return outcomes


def certified_widths() -> tuple[int, float]:
    """The count and the widest interval (bits) of the values certified by
    ``thresholds`` and the five-theta ``one_shot_region`` at eps 0.1 and
    0.01, on the bundled instances and the ``table``'s draws; a value that
    fails raises its SolverError."""
    widths, certified = [], ent._certified_value

    def recording(ball, res):
        value = certified(ball, res)
        widths.append(value - math.log2(sdp.lower_bound(ball, res.dual)))
        return value

    ent._certified_value = recording
    try:
        sources = [io.load_bundled(name) for name in io.BUNDLED]
        sources += [instance(f, s) for f in (1, 2) for s in range(1, 21)]
        for inst in sources:
            prep = P.prepare(inst)
            for eps in (0.1, 0.01):
                P.thresholds(prep, eps)
                P.one_shot_region(prep, eps)
    finally:
        ent._certified_value = certified
    return len(widths), max(widths)


def ladder() -> Counter:
    """The ``ladder`` sweep: prints one line per (instance, eps, c) and
    returns the counts of (c, outcome), a failure named by stage and kind."""
    outcomes = Counter()
    for name in io.BUNDLED:
        prep = P.prepare(io.load_bundled(name))
        for eps in LADDER:
            for c in (None, 0.0):
                seen, start = {}, time.process_time()

                def step(eps=eps, c=c):
                    seen["stage"] = "thresholds"
                    P.thresholds(prep, eps, c)
                    seen["stage"] = "protocol"
                    budget = P.budget_from_thresholds(prep, eps, log_const=c)
                    run = P.centralised_protocol(prep, budget, 1, log_const=c)
                    seen["nice"] = run["fraction_nice"]
                    seen["stage"] = "region"
                    P.one_shot_region(prep, eps, theta_grid=(0.5,), log_const=c)

                result = outcome(step, 60)
                if result != "ok":
                    result = f"{seen['stage']} {result}"
                label = "default" if c is None else "0"
                outcomes[(label, result.split(":")[0])] += 1
                if result == "ok":
                    held = seen["nice"] >= 1.0 - eps**0.25
                    result += f", nice {seen['nice']:.3g}, E {'holds' if held else 'fails'}"
                print(f"{name:26s} eps {eps:<6g} c {label:7s} {result}  "
                      f"{time.process_time() - start:.2f} s", flush=True)
    return outcomes


def summarise(outcomes: Counter, groups, title: str) -> None:
    """One line per group of ``outcomes``' (group, kind) counts."""
    for group in groups:
        mine = {kind: n for (g, kind), n in outcomes.items() if g == group}
        print(f"{title} {group}: {mine.get('ok', 0)} of {sum(mine.values())} finish; "
              + ", ".join(f"{kind} {n}" for kind, n in sorted(mine.items()) if kind != "ok"))


def main(sweep: str, picked: list[str]) -> None:
    if sweep == "ladder":
        summarise(ladder(), ("default", "0"), "c")
        return
    if sweep == "values":
        count, widest = certified_widths()
        print(f"{count} values certified, widest {widest:.3g} bits")
        return
    seeds, step, seconds = {
        "table": (range(1, 21), pipeline, 60),
        "scan": (range(21, 101), smoothing, 20),
    }[sweep]
    draws = [tuple(map(int, p.split(":"))) for p in picked]
    outcomes = run(draws or [(f, s) for f in (1, 2) for s in seeds], step, seconds)
    summarise(outcomes, (1, 2), "family")


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2:])
