import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import conftest  # noqa: F401  one BLAS thread, also when run as the pin writer
import numpy as np
import pytest

from povmcomp import entropies as ent
from povmcomp import io, qobjects as qo, sdp
from povmcomp import protocols as P
from povmcomp.budget import OneShotBudget
from povmcomp.protocols import compose, compress
from povmcomp.protocols.compress import ABORT, SCENARIOS

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


# Golden pins: every value below was recorded as float.hex at eps 0.1,
# seed 1 and log_const 0, with the status of every ``sdp.minimize`` solve
# of ``thresholds`` in call order (``python tests/test_protocols.py`` rewrites
# the file).  Codebook plans come from explicit integer budgets, not from
# budget_from_thresholds; the X links of the two instances with a B
# register hash 3 message bits to 2.
GOLDEN_PATH = Path(__file__).resolve().parent / "golden_protocols.json"
GOLDEN_EPS, GOLDEN_SEED, GOLDEN_C = 0.1, 1, 0.0
GOLDEN_BUDGETS = {
    "trivial": OneShotBudget(GOLDEN_EPS, r_x=0),
    "classical_commuting": OneShotBudget(GOLDEN_EPS, r_x=3, r_y=2, c_x=1, c_y=1),
    "qubit_cq": OneShotBudget(GOLDEN_EPS, r_x=3, r_y=2, c_x=1, c_y=1),
    "qubit_entangled_side_info": OneShotBudget(GOLDEN_EPS, r_x=3, r_y=2, c_x=1, c_y=1),
    "instrument_derived": OneShotBudget(GOLDEN_EPS, r_x=2, r_y=3, c_x=1, c_y=1),
    "rate_split_showcase": OneShotBudget(GOLDEN_EPS, r_x=4, c_x=1),
}
GOLDEN_WIRE = {"classical_commuting": {"X": 2}, "qubit_entangled_side_info": {"X": 2}}
ONE_SHOT_INSTANCES = ("trivial", "instrument_derived")
COMPOSE_INSTANCES = ("trivial", "qubit_entangled_side_info")


def _hex(values) -> dict | list:
    if isinstance(values, dict):
        return {k: float(v).hex() for k, v in values.items()}
    return [float(v).hex() for v in values]


def _solve_instance(name: str):
    """(prep, thresholds at log_const 0, and per smooth D_max the thresholds
    took: its arguments (rho, sigma, eps), its value and its ``sdp.minimize``
    result)."""
    calls, results = [], []
    d_max_smooth, minimize = ent.d_max_smooth, sdp.minimize

    def recording_d_max_smooth(rho, sigma, eps):
        calls.append((rho, sigma, eps, d_max_smooth(rho, sigma, eps)))
        return calls[-1][-1]

    def recording_minimize(prob):
        results.append(minimize(prob))
        return results[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ent, "d_max_smooth", recording_d_max_smooth)
        mp.setattr(sdp, "minimize", recording_minimize)
        prep = P.prepare(io.load_bundled(name))
        th = P.thresholds(prep, GOLDEN_EPS, GOLDEN_C)
    assert len(calls) == len(results)
    return name, prep, th, list(zip(calls, results))


def _threshold_pins(th: dict, solves) -> dict:
    return {"thresholds": _hex(th), "statuses": [res.status for _, res in solves]}


def _protocol_runs(name: str, prep):
    budget = GOLDEN_BUDGETS[name]
    run = P.centralised_protocol(
        prep, budget, GOLDEN_SEED, log_const=GOLDEN_C, wire_override=GOLDEN_WIRE.get(name)
    )
    unassisted = P.simulate_unassisted(prep, budget, GOLDEN_SEED, log_const=GOLDEN_C)
    return run, unassisted


def _run_pins(run: dict, unassisted: dict) -> dict:
    return {
        label: _hex({sc: out["deviation"] for sc, out in res["scenarios"].items()})
        for label, res in (("centralised", run), ("unassisted", unassisted))
    }


def _one_shot_rhs(prep) -> list:
    region = P.one_shot_region(prep, GOLDEN_EPS, theta_grid=(0.5,), log_const=GOLDEN_C)
    return _hex(h.rhs for h in region.constraints)


COMPOSE_KEYS = (
    "net_rate_x", "realized_rate", "wire_bits", "deviation", "composition_check",
    "hmax_kl", "i_hyp_kl_kb",
)


def _composition(name: str, prep) -> dict:
    out = P.compose_with_side_information(
        prep.instance, GOLDEN_BUDGETS[name], GOLDEN_SEED, log_const=GOLDEN_C
    )
    return {k: out[k] for k in COMPOSE_KEYS}


@pytest.fixture(scope="module", params=io.BUNDLED)
def solved(request):
    return _solve_instance(request.param)


@functools.cache
def _golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_thresholds_with_certified_verdicts(solved):
    name, _, th, solves = solved
    want = _golden()[name]
    assert _threshold_pins(th, solves) == {k: want[k] for k in ("thresholds", "statuses")}
    # both certificates of every value v, checked again from the programs'
    # expressions: the solve's rho' is feasible at v, and its dual is a
    # Farkas witness at v - BISECT_TOL_BITS
    for (rho, sigma, eps, value), res in solves:
        primal = sdp._recheck(ent._capped_ball(rho, sigma, eps, value), res.assignment)
        assert primal["primal"] <= 10 * sdp.FEASIBLE_TOL and primal["gap"] <= 10 * sdp.FEASIBLE_TOL
        lo = ent._capped_ball(rho, sigma, eps, value - ent.BISECT_TOL_BITS)
        gap, resid = oracles.farkas_from_expressions(lo, res.dual[0])
        assert gap > 0 and resid <= sdp.WITNESS_RATIO * gap


def _hashed_axes(run: dict) -> set:
    return {
        axis for axis, stage in (("X", run["stage_x"]), ("Y", run["stage_y"]))
        if stage.wire_bits < stage.log_l
    }


def test_golden_protocol_runs(solved):
    name, prep, _, _ = solved
    run, unassisted = _protocol_runs(name, prep)
    assert _run_pins(run, unassisted) == {
        k: _golden()[name][k] for k in ("centralised", "unassisted")
    }
    hashed = _hashed_axes(run)
    assert hashed == set(GOLDEN_WIRE.get(name, ()))
    for res in (run, unassisted):
        assert res["family"].completeness_residual(prep) <= 1e-9
        for sc_name, sc in res["scenarios"].items():
            trace = sum(float(np.trace(op).real) for op in sc["output"].values())
            assert abs(trace - 1.0) <= 1e-9, sc_name
    for sc in SCENARIOS:
        on = {axis for axis, live in (("X", sc.x_link_on), ("Y", sc.y_link_on)) if live}
        if not on & hashed:
            got = run["scenarios"][sc.name]["deviation"]
            want = unassisted["scenarios"][sc.name]["deviation"]
            assert abs(got - want) <= 1e-12, sc.name
    if name in COMPOSE_INSTANCES:
        out = _composition(name, prep)
        assert _hex(out) == _golden()[name]["compose"]
        assert out["composition_check"] >= -1.0


def test_centralised_reads_cached_side_corrections(solved, monkeypatch):
    # thresholds hold I_H^(eps0/2)(X:B) and (Y:B); the run makes no i_hyp_cq call of its own
    name, prep, _, _ = solved
    calls = []
    i_hyp_cq = ent.i_hyp_cq

    def counting_i_hyp_cq(*args, **kwargs):
        calls.append(args)
        return i_hyp_cq(*args, **kwargs)

    monkeypatch.setattr(ent, "i_hyp_cq", counting_i_hyp_cq)
    run = P.centralised_protocol(
        prep, GOLDEN_BUDGETS[name], GOLDEN_SEED, log_const=GOLDEN_C,
        wire_override=GOLDEN_WIRE.get(name),
    )
    assert calls == []
    want = _golden()[name]["centralised"]
    assert _hex({sc: out["deviation"] for sc, out in run["scenarios"].items()}) == want


def test_only_hashed_links_build_decoder_tests(solved, monkeypatch):
    # a link builds its tests, one i_hyp_weighted_cq solve at the protocol's
    # eps, only when it hashes; identity links and rate bookkeeping make none
    name, prep, _, _ = solved
    calls = []
    i_hyp_weighted_cq = ent.i_hyp_weighted_cq

    def counting_i_hyp_weighted_cq(symbols, weights, blocks, eps):
        calls.append(eps)
        return i_hyp_weighted_cq(symbols, weights, blocks, eps)

    monkeypatch.setattr(ent, "i_hyp_weighted_cq", counting_i_hyp_weighted_cq)
    run = P.centralised_protocol(
        prep, GOLDEN_BUDGETS[name], GOLDEN_SEED, log_const=GOLDEN_C,
        wire_override=GOLDEN_WIRE.get(name),
    )
    hashed = set(GOLDEN_WIRE.get(name, ()))
    assert calls == [GOLDEN_EPS] * len(hashed)
    tested = {axis for axis, stage in (("X", run["stage_x"]), ("Y", run["stage_y"])) if stage.tests}
    assert tested == hashed


def test_abort_key_is_no_real_outcome(solved):
    # protocol-abort mass must count against the ideal output in full, never
    # against the block of a real outcome that carries the same key
    _, prep, _, _ = solved
    for sc in SCENARIOS:
        key = qo.join_symbol(ABORT, ABORT) if sc.x_link_on and sc.y_link_on else ABORT
        assert key not in compress.ideal_blocks(prep, sc), sc.name


def test_golden_regions(solved):
    name, prep, _, _ = solved
    rhs = _hex(h.rhs for h in P.iid_region(prep).constraints)
    assert rhs == _golden()[name]["iid_region"]
    if name in ONE_SHOT_INSTANCES:
        assert _one_shot_rhs(prep) == _golden()[name]["one_shot_region"]


def test_one_shot_region_steers_nothing_after_prepare(monkeypatch):
    # prepare steers the POVM through the purified state once; every
    # (axis, theta) cell of the region reads those E-blocks
    prep = P.prepare(io.load_bundled("trivial"))
    calls = []
    steered_blocks = qo.steered_blocks

    def counting_steered_blocks(*args, **kwargs):
        calls.append(args)
        return steered_blocks(*args, **kwargs)

    monkeypatch.setattr(qo, "steered_blocks", counting_steered_blocks)
    region = P.one_shot_region(prep, GOLDEN_EPS, theta_grid=(0.0, 0.5, 1.0))
    assert len(region.constraints) == 4 * 3 * 2
    assert calls == []


@pytest.mark.parametrize("log_const", [0.0, None], ids=["c0", "cdefault"])
def test_default_budget_is_planned(solved, log_const):
    # budget_from_thresholds and plan_codebooks follow one rounding rule
    _, prep, _, _ = solved
    budget = P.budget_from_thresholds(prep, GOLDEN_EPS, log_const=log_const)
    P.plan_codebooks(prep, budget, log_const)


def _write_golden() -> None:
    payload = {}
    for name in io.BUNDLED:
        _, prep, th, solves = _solve_instance(name)
        pins = _threshold_pins(th, solves)
        pins.update(_run_pins(*_protocol_runs(name, prep)))
        pins["iid_region"] = _hex(h.rhs for h in P.iid_region(prep).constraints)
        if name in ONE_SHOT_INSTANCES:
            pins["one_shot_region"] = _one_shot_rhs(prep)
        if name in COMPOSE_INSTANCES:
            pins["compose"] = _hex(_composition(name, prep))
        payload[name] = pins
    GOLDEN_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


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
    build = compose.sequential_kraus

    def counting_build(tests):
        builds.append(len(tests))
        return build(tests)

    with monkeypatch.context() as patch:
        patch.setattr(compose, "sequential_kraus", counting_build)
        run = P.centralised_protocol(prep, budget, 1, log_const=0.0, wire_override=wire)
    family = run["family"]
    stage_x, stage_y = run["stage_x"], run["stage_y"]
    assert stage_x.wire_bits < stage_x.log_l and stage_y.wire_bits < stage_y.log_l
    n_pairs = len(_signature_pairs(stage_x, family.codebook_x)) + len(
        _signature_pairs(stage_y, family.codebook_y)
    )
    assert len(builds) == n_pairs

    per_message = functools.partial(
        oracles.PerMessageStageDecoder, build=compose.sequential_kraus, abort=ABORT
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


if __name__ == "__main__":
    _write_golden()
