import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from povmcomp import io
from povmcomp import protocols as P

SRC = Path(__file__).resolve().parent.parent / "src"

# Prints the codebook counts of seed 1 and the centralised deviations on
# qubit_cq at log_const 0, as one JSON line.
SEEDED_RUN = """
import json
from povmcomp import io
from povmcomp import protocols as P
from povmcomp.protocols.compress import draw_codebook

prep = P.prepare(io.load_bundled("qubit_cq"))
cx = draw_codebook("X", 4, 64, prep.px, 1)
cy = draw_codebook("Y", 4, 64, prep.py, 1)
budget = P.budget_from_thresholds(prep, 0.1, log_const=0.0)
run = P.centralised_protocol(prep, budget, 1, log_const=0.0)
print(json.dumps({
    "counts_x": cx.counts.tolist(),
    "counts_y": cy.counts.tolist(),
    "deviations": {name: sc["deviation"] for name, sc in run["scenarios"].items()},
}))
"""


def test_seeded_run_is_the_same_in_every_process():
    procs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, OMP_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        procs.append(
            subprocess.Popen(
                [sys.executable, "-c", SEEDED_RUN], env=env, stdout=subprocess.PIPE, text=True
            )
        )
    outs = []
    for proc in procs:
        stdout, _ = proc.communicate(timeout=300)
        assert proc.returncode == 0
        outs.append(json.loads(stdout.strip().splitlines()[-1]))
    assert outs[0] == outs[1]


@pytest.fixture(scope="module")
def instrument_derived():
    prep = P.prepare(io.load_bundled("instrument_derived"))
    return prep, P.budget_from_thresholds(prep, 0.1, log_const=0.0)


def test_centralised_runs_on_sparse_joint_povm(instrument_derived):
    # the joint distribution of instrument_derived lacks some (x, y) pairs
    prep, budget = instrument_derived
    n_pairs = len(prep.px.alphabet) * len(prep.py.alphabet)
    assert len(prep.joint.alphabet) < n_pairs
    run = P.centralised_protocol(prep, budget, 1, log_const=0.0)
    assert run["family"].completeness_residual(prep) <= 1e-9
    for name, sc in run["scenarios"].items():
        trace = sum(float(np.trace(op).real) for op in sc["output"].values())
        assert abs(trace - 1.0) <= 1e-9, name
