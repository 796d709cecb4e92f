import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from povmcomp import io, sdp
from povmcomp import protocols as P
from povmcomp.budget import OneShotBudget
from povmcomp.protocols import compose
from povmcomp.protocols.cdcqsi import SequentialDecoder
from povmcomp.protocols.compress import ABORT

import oracles

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


# Prints block_dict_distance over eight keys, one of trace norm 1 and seven
# of 2^-53, whose float sum depends on where the large one is added.
DISTANCE_SUM = """
import numpy as np
from povmcomp.protocols.compress import block_dict_distance

a = {f"k{i}": np.array([[1.0 if i == 0 else 2.0**-53]]) for i in range(8)}
b = {f"k{i}": np.zeros((1, 1)) for i in range(8)}
print(block_dict_distance(a, b).hex())
"""


def _run_under_hash_seeds(script: str, hash_seeds) -> list[str]:
    """The last stdout line of ``script`` under each PYTHONHASHSEED."""
    procs = []
    for hash_seed in hash_seeds:
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, OMP_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        procs.append(
            subprocess.Popen(
                [sys.executable, "-c", script], env=env, stdout=subprocess.PIPE, text=True
            )
        )
    outs = []
    for proc in procs:
        stdout, _ = proc.communicate(timeout=300)
        assert proc.returncode == 0
        outs.append(stdout.strip().splitlines()[-1])
    return outs


def test_seeded_run_is_the_same_in_every_process():
    outs = [json.loads(line) for line in _run_under_hash_seeds(SEEDED_RUN, ("1", "2"))]
    assert outs[0] == outs[1]


def test_block_distance_is_the_same_in_every_process():
    outs = _run_under_hash_seeds(DISTANCE_SUM, ("1", "2", "3", "4"))
    assert len(set(outs)) == 1, outs


# thresholds(prep, 0.1, 0) of qubit_entangled_side_info, as float.hex
GOLDEN_THRESHOLDS = {
    "log_const": "0x0.0p+0",
    "logL1": "0x1.4e3c12a130358p+0",
    "logL2": "0x1.78a7c7d8b03acp-2",
    "logKL1": "0x1.55ba5e95d860cp-1",
    "logKL2": "0x1.9d5d9fd5010b3p-1",
    "imax_x": "0x1.4e3c12a130358p+0",
    "imax_y": "0x1.78a7c7d8b03acp-2",
    "hmax_x": "0x1.55ba5e95d860cp-1",
    "hmax_y": "0x1.9d5d9fd5010b3p-1",
    "ih_x_b": "0x1.6f2a1bc9a9885p+0",
    "ih_y_b": "0x1.75d7e614b4b48p-1",
    "rate_x": "-0x1.07704943ca968p-3",
    "rate_y": "-0x1.73080450b92e4p-2",
    "coin_rate_x": "0x0.0p+0",
    "coin_rate_y": "0x1.c21377d151dbap-2",
}


def test_golden_thresholds_with_certified_verdicts(monkeypatch):
    results = []
    solve = sdp.Session.solve

    def recording_solve(self, warm=None):
        results.append(solve(self, warm))
        return results[-1]

    monkeypatch.setattr(sdp.Session, "solve", recording_solve)
    prep = P.prepare(io.load_bundled("qubit_entangled_side_info"))
    th = P.thresholds(prep, 0.1, 0.0)
    assert {k: float(v).hex() for k, v in th.items()} == GOLDEN_THRESHOLDS
    statuses = [res.status for res in results]
    assert statuses.count("maxIterations") == 0
    assert "infeasible" in statuses
    for res in results:
        if res.status == "infeasible":
            gap, resid = res.residuals["witness_gap"], res.residuals["witness_resid"]
            assert gap > 0 and resid <= sdp.WITNESS_RATIO * gap


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


def _signature_pairs(stage, codebook) -> set:
    """Distinct (coin, class sequence in decoder order) of the link's
    multi-candidate fibers, found by brute force."""
    hashes = stage.hash_scheme.apply_many(np.arange(stage.ensemble.messages))
    pairs = set()
    for k in range(codebook.coins):
        offsets = codebook.offsets(k)
        for m in np.unique(hashes):
            fiber = sorted((int(i) for i in np.flatnonzero(hashes == m)), key=str)
            if len(fiber) > 1:
                sig = tuple(int(np.searchsorted(offsets, i, side="right")) - 1 for i in fiber)
                pairs.add((k, sig))
    return pairs


def test_signature_decode_matches_per_message_decode(monkeypatch):
    # both links hashed: X 8 -> 6 bits (fibers of 4), Y 7 -> 6 bits (fibers of 2)
    prep = P.prepare(io.load_bundled("qubit_entangled_side_info"))
    budget = OneShotBudget(0.1, r_x=8, r_y=7, c_x=1, c_y=1)
    wire = {"X": 6, "Y": 6}
    builds = []
    build = SequentialDecoder.build

    def counting_build(bucket, tests):
        builds.append(tuple(bucket))
        return build(bucket, tests)

    with monkeypatch.context() as patch:
        patch.setattr(SequentialDecoder, "build", staticmethod(counting_build))
        run = P.centralised_protocol(prep, budget, 1, log_const=0.0, wire_override=wire)
    family = run["family"]
    stage_x, stage_y = run["stage_x"], run["stage_y"]
    assert stage_x.wire_bits < stage_x.log_l and stage_y.wire_bits < stage_y.log_l
    n_pairs = len(_signature_pairs(stage_x, family.codebook_x)) + len(
        _signature_pairs(stage_y, family.codebook_y)
    )
    assert len(builds) == n_pairs

    per_message = functools.partial(
        oracles.PerMessageStageDecoder, build=SequentialDecoder.build, abort=ABORT
    )
    monkeypatch.setattr(compose, "_StageDecoder", per_message)
    ref = P.centralised_protocol(
        prep, budget, 1, log_const=0.0, family=family, wire_override=wire
    )
    assert run["transcript"] == ref["transcript"]
    assert set(run["scenarios"]) == set(ref["scenarios"])
    for name, sc in run["scenarios"].items():
        want = ref["scenarios"][name]
        assert set(sc["output"]) == set(want["output"]), name
        for key, op in sc["output"].items():
            assert np.max(np.abs(op - want["output"][key])) <= 1e-12, (name, key)
        assert abs(sc["deviation"] - want["deviation"]) <= 1e-12, name
