import collections
import functools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import conftest  # noqa: F401  one BLAS thread, also when run as the pin writer
import numpy as np
import pytest

from povmcomp import entropies as ent
from povmcomp import covering as cov, io, qobjects as qo, sdp
from povmcomp import protocols as P
from povmcomp.budget import OneShotBudget, default_log_const
from povmcomp.protocols import compose, compress, prep as prep_mod
from povmcomp.protocols.compress import ABORT, SCENARIOS
from povmcomp.protocols.hashing import HashScheme

import oracles
import sdp_reference as ref
from test_covering import check_against_purification
from test_sdp import linalg_spy

SRC = Path(__file__).resolve().parent.parent / "src"

# Prints the codebook counts of seed 1 and the centralised deviations on
# qubit_cq at log_const 0, as one JSON line.
SEEDED_RUN = """
import json
from povmcomp import io
from povmcomp import protocols as P
from povmcomp.protocols.compress import draw_codebook

prep = P.prepare(io.load_bundled("qubit_cq"))
cx = draw_codebook(0, 4, 64, prep.marginals[0], 1)
cy = draw_codebook(1, 4, 64, prep.marginals[1], 1)
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
# seed 1 and log_const 0, with the status of every ``sdp.minimize_balls`` solve
# of ``thresholds`` in call order and the certified interval of every I_max
# value of ``thresholds`` and of the one-shot region (``python
# tests/test_protocols.py`` rewrites the file, prints each pin it moves, with
# its Δ, and ends with a one-line summary).  Codebook plans come
# from explicit integer budgets, not from budget_from_thresholds; the X links
# of the two instances with a B register hash 3 message bits to 2.
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
COMPOSE_INSTANCES = ("trivial", "qubit_entangled_side_info")


def _hex(values) -> dict | list:
    if isinstance(values, dict):
        return {k: float(v).hex() for k, v in values.items()}
    return [float(v).hex() for v in values]


def _certified_solves(run):
    """``run()``'s output and, per smooth D_max it certified, in call order:
    (its value, its ``sdp.Ball`` and its ``sdp.BallSolve``, from
    ``sdp.minimize_balls`` or, for a classical value, from
    ``entropies._water_fill``).  Every value goes through
    ``entropies._certified_value``."""
    solves, certified_value = [], ent._certified_value

    def recording(ball, res):
        value = certified_value(ball, res)
        solves.append((value, ball, res))
        return value

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ent, "_certified_value", recording)
        out = run()
    return out, solves


def _solve_instance(name: str):
    """(prep, thresholds at log_const 0, and the certified solves of the
    thresholds, ``_certified_solves``)."""
    prep = P.prepare(io.load_bundled(name))
    th, solves = _certified_solves(lambda: P.thresholds(prep, GOLDEN_EPS, GOLDEN_C))
    return name, prep, th, solves


def _lower_end(ball, res) -> float:
    """The certified lower end of a value from its ``_certified_solves``
    record, as the library takes it."""
    return math.log2(sdp.lower_bound(ball, res.dual))


def _intervals(solves) -> list:
    """Each value's certified interval [lower, v], in call order."""
    return [_hex((_lower_end(ball, res), value)) for value, ball, res in solves]


def _check_certificates(solves) -> None:
    """The certified interval [lower, v] of every value v, checked again
    from the expressions of the reference program
    (``sdp_reference.capped_ball``): the point is feasible with t pinned
    at 2^v (``oracles.pin_variable``), and the lower end that weak duality
    gives from the same dual (``oracles.lower_end_from_expressions``) is
    the library's within 1e-9 bits, at most BISECT_TOL_BITS below v
    (``oracles.ball_certificates``, closed-form and interior-point solves
    alike)."""
    for value, ball, res in solves:
        primal, want = oracles.ball_certificates(ref, ball, res, GOLDEN_EPS)
        lower = _lower_end(ball, res)
        assert primal["primal"] <= sdp.FEASIBLE_TOL and primal["gap"] <= sdp.FEASIBLE_TOL
        assert lower == pytest.approx(want, abs=1e-9)
        assert abs(value - lower) <= ent.BISECT_TOL_BITS


def _threshold_pins(th: dict, solves) -> dict:
    """The thresholds, each value's status (a closed-form value's, its
    solve's "closedForm", pinned as "optimal") and each value's certified
    interval."""
    statuses = ["optimal" if res.status == "closedForm" else res.status for *_, res in solves]
    return {"thresholds": _hex(th), "statuses": statuses, "intervals": _intervals(solves)}


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


def _one_shot_rhs(prep) -> tuple[list, list]:
    """The one-shot region's right-hand sides and its certified solves
    (``_certified_solves``)."""
    region, solves = _certified_solves(
        lambda: P.one_shot_region(prep, GOLDEN_EPS, theta_grid=(0.5,), log_const=GOLDEN_C)
    )
    return _hex(h.rhs for h in region.constraints), solves


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


@pytest.mark.parametrize("field", ["eps", "r_x", "r_y", "c_x", "c_y"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_budget_rejects_non_finite_fields(field, value):
    fields = {"eps": 0.1, "r_x": 3.0, "r_y": 2.0, "c_x": 1.0, "c_y": 1.0, field: value}
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        OneShotBudget(**fields)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: default_log_const(1.0), ValueError, r"eps must lie in \(0, 1\)"),
        (lambda: OneShotBudget(0.0, r_x=1.0), ValueError, r"eps must lie in \(0, 1\)"),
        (lambda: OneShotBudget(0.1, r_x=1.0, c_y=-0.5), ValueError, "rate c_y must be nonnegative"),
        (lambda: compress.AdversaryScenario(False, False), ValueError, "at least one link"),
        (
            lambda: compress.plan_codebooks(
                P.prepare(io.load_bundled("qubit_cq")), OneShotBudget(GOLDEN_EPS, r_x=0.0), GOLDEN_C
            ),
            compress.BudgetError,
            "X link budget",
        ),
    ],
    ids=["log_const_eps", "budget_eps", "negative_rate", "no_link", "rates_below_thresholds"],
)
def test_out_of_range_inputs_are_refused(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_golden_thresholds_with_certified_verdicts(solved):
    name, _, th, solves = solved
    want = _golden()[name]
    assert _threshold_pins(th, solves) == {
        k: want[k] for k in ("thresholds", "statuses", "intervals")
    }
    _check_certificates(solves)


def _hashed_axes(run: dict) -> set:
    return {
        axis for axis, stage in (("X", run["stage_x"]), ("Y", run["stage_y"]))
        if stage.wire_bits < stage.log_l
    }


def _links(sc) -> set:
    return {P.LINKS[i] for i in sc.links}


def _check_outputs(prep, res: dict) -> None:
    """A complete compressed POVM and a trace-one output in every scenario."""
    assert res["family"].completeness_residual(prep) <= 1e-9
    for sc_name, sc in res["scenarios"].items():
        trace = sum(float(np.trace(op).real) for op in sc["output"].values())
        assert abs(trace - 1.0) <= 1e-9, sc_name


def _check_env_blocks(prep, family) -> None:
    """The same completeness on E, from the E-operators each block carries,
    and each E-operator's trace against its element's outcome probability;
    block by block, through ``oracles.family_blocks``."""
    supp_e = prep.steer(prep.supp_proj_a)
    for blk in oracles.family_blocks(family).values():
        total = sum(blk.counts[c] * env for c, env in blk.env.items()) + blk.env0
        assert np.max(np.abs(total - supp_e)) <= 1e-12
        for c, env in blk.env.items():
            want = np.trace(blk.gammas[c] @ prep.spectrum_a[0]).real
            assert abs(np.trace(env).real - want) <= 1e-12, c


def test_golden_protocol_runs(solved):
    name, prep, _, _ = solved
    run, unassisted = _protocol_runs(name, prep)
    assert _run_pins(run, unassisted) == {
        k: _golden()[name][k] for k in ("centralised", "unassisted")
    }
    hashed = _hashed_axes(run)
    assert hashed == set(GOLDEN_WIRE.get(name, ()))
    for res in (run, unassisted):
        _check_outputs(prep, res)
        _check_env_blocks(prep, res["family"])
    # every scenario whose links carry whole indices, block by block against
    # the independent reference
    unhashed = [(unassisted, sc) for sc in SCENARIOS]
    unhashed += [(run, sc) for sc in SCENARIOS if not _links(sc) & hashed]
    for res, sc in unhashed:
        want = oracles.unassisted_output_blocks(
            res["family"], prep.rho_e, sc, qo.join_symbol, ABORT
        )
        got = res["scenarios"][sc.name]["output"]
        assert set(got) == set(want), sc.name
        for key, op in got.items():
            assert np.max(np.abs(op - want[key])) <= 1e-12, (sc.name, key)
    if name in COMPOSE_INSTANCES:
        out = _composition(name, prep)
        assert _hex(out) == _golden()[name]["compose"]
        assert out["composition_check"] >= -1.0


def test_golden_good_sets_match_the_purification(solved, monkeypatch):
    # the golden draw's GOOD sets, against the purification proof row by
    # row; rate_split_showcase's one row misses rho_A's 0.07 direction
    # (its nice block has no class of "2"), where the purification adds
    # it to a primed state and the closed form keeps the parts themselves
    name, prep, _, _ = solved
    calls, good_sets = [], cov.good_sets
    monkeypatch.setattr(cov, "good_sets", lambda *args: calls.append(args) or good_sets(*args))
    compress.build_compressed_povm(prep, GOLDEN_BUDGETS[name], GOLDEN_SEED, GOLDEN_C)
    (args,) = calls
    low = check_against_purification(*args)
    assert low == ([0] if name == "rate_split_showcase" else [])
    if name == "rate_split_showcase":
        parts = args[0]
        good, primed = good_sets(*args)
        assert good[0].sum() == 3
        for i in np.flatnonzero(good[0]):
            assert np.max(np.abs(primed[0, i] - parts[i])) <= 1e-12


def test_centralised_reads_cached_side_corrections(solved, monkeypatch):
    # thresholds hold I_H^(eps0/2)(X:B) and (Y:B); the run makes no i_hyp_cq
    # call at eps0/2 of its own, only the link tests' calls at the protocol's eps
    name, prep, _, _ = solved
    calls = []
    i_hyp_cq = ent.i_hyp_cq

    def counting_i_hyp_cq(cq, eps, slots=None):
        calls.append(eps)
        return i_hyp_cq(cq, eps, slots)

    monkeypatch.setattr(ent, "i_hyp_cq", counting_i_hyp_cq)
    run = P.centralised_protocol(
        prep, GOLDEN_BUDGETS[name], GOLDEN_SEED, log_const=GOLDEN_C,
        wire_override=GOLDEN_WIRE.get(name),
    )
    assert GOLDEN_EPS ** 0.1 / 2 not in calls
    assert set(calls) <= {GOLDEN_EPS}
    want = _golden()[name]["centralised"]
    assert _hex({sc: out["deviation"] for sc, out in run["scenarios"].items()}) == want


def test_only_hashed_links_build_decoder_tests(solved, monkeypatch):
    # a link builds its tests, one i_hyp_cq solve of its state at the
    # protocol's eps, only when it hashes; unhashed links make none
    name, prep, _, _ = solved
    calls = []
    i_hyp_cq = ent.i_hyp_cq

    def counting_i_hyp_cq(cq, eps, slots=None):
        calls.append(eps)
        return i_hyp_cq(cq, eps, slots)

    monkeypatch.setattr(ent, "i_hyp_cq", counting_i_hyp_cq)
    run = P.centralised_protocol(
        prep, GOLDEN_BUDGETS[name], GOLDEN_SEED, log_const=GOLDEN_C,
        wire_override=GOLDEN_WIRE.get(name),
    )
    hashed = set(GOLDEN_WIRE.get(name, ()))
    assert calls == [GOLDEN_EPS] * len(hashed)
    tested = {
        axis
        for axis, stage in (("X", run["stage_x"]), ("Y", run["stage_y"]))
        if stage.tests is not None
    }
    assert tested == hashed


@pytest.mark.parametrize(
    "name, wire, n_dead",
    [
        *((name, wire, (0, None)) for name, wire in GOLDEN_WIRE.items()),
        ("classical_commuting", {"X": 2, "Y": 1}, (0, 2)),
    ],
    ids=[*GOLDEN_WIRE, "classical_commuting_both_hashed"],
)
def test_link_tests_are_one_stack_by_coin_and_class(name, wire, n_dead):
    # a hashed link's stage holds one (coins, classes, d_B, d_B) stack: at
    # each live (coin, class) of its link state, flat index k n_cls + c,
    # the test i_hyp_cq takes there, and exact zeros at the n_dead other
    # pairs; an unhashed link (n_dead None) has no stack
    prep = P.prepare(io.load_bundled(name))
    run = P.centralised_protocol(
        prep, GOLDEN_BUDGETS[name], GOLDEN_SEED, log_const=GOLDEN_C, wire_override=wire
    )
    family, d_b = run["family"], prep.dim_b
    for i, (stage, dead) in enumerate(zip((run["stage_x"], run["stage_y"]), n_dead)):
        if dead is None:
            assert stage.tests is None
            continue
        codebook = family.codebooks[i]
        n_cls = len(codebook.alphabet)
        state, live = compose._link_state(family, prep, i)
        want = ent.i_hyp_cq(state, GOLDEN_EPS, live // n_cls)[1].tests
        assert stage.tests.shape == (codebook.coins, n_cls, d_b, d_b)
        flat = stage.tests.reshape(-1, d_b, d_b)
        assert np.array_equal(flat[live], want)
        others = np.setdiff1d(np.arange(len(flat)), live)
        assert len(others) == dead and not flat[others].any()


def _stacked_rows(tests) -> int:
    """How many test sequences a stacked ``sequential_kraus`` call decodes."""
    return int(np.prod(np.shape(tests)[:-3]))


def test_unhashed_links_tabulate_nothing(solved, monkeypatch):
    # a link tabulates its hash fibers and builds sequential decoders only
    # when it hashes, with one stacked call for all its coins and one
    # decoder per (coin, signature); an unhashed link reads each class off
    # the wire
    name, prep, _, _ = solved
    calls, rows = [], []
    fibers, build = HashScheme.fibers, compose.sequential_kraus

    def counting_fibers(self):
        calls.append("fibers")
        return fibers(self)

    def counting_build(tests):
        calls.append("kraus")
        rows.append(_stacked_rows(tests))
        return build(tests)

    monkeypatch.setattr(HashScheme, "fibers", counting_fibers)
    monkeypatch.setattr(compose, "sequential_kraus", counting_build)
    budget = GOLDEN_BUDGETS[name]
    P.simulate_unassisted(prep, budget, GOLDEN_SEED, log_const=GOLDEN_C)
    assert calls == []
    run = P.centralised_protocol(
        prep, budget, GOLDEN_SEED, log_const=GOLDEN_C, wire_override=GOLDEN_WIRE.get(name)
    )
    hashed = GOLDEN_WIRE.get(name, {})
    assert calls.count("fibers") == len(hashed)
    assert ("kraus" in calls) == bool(hashed)
    family = run["family"]
    links = tuple(zip(P.LINKS, (run["stage_x"], run["stage_y"]), family.codebooks))
    assert calls.count("kraus") == len(hashed)
    assert sum(rows) == sum(
        len(_signature_pairs(stage, cb)) for axis, stage, cb in links if axis in hashed
    )


def test_transcript_follows_each_link(solved):
    # each wire reports its stage's width; a transcript that does not abort
    # puts every link's index in the range its codebook gives one kept class
    # of the coin block, and every wire message is its stage's hash of it
    name, prep, _, _ = solved
    for run in _protocol_runs(name, prep):
        tr, family = run["transcript"], run["family"]
        stages = (run["stage_x"], run["stage_y"])
        assert (tr["wire_x"], tr["wire_y"]) == tuple(st.wire_bits for st in stages)
        if tr["abort"]:
            continue
        coins, indices = (tr["k1"], tr["k2"]), (tr["l1"], tr["l2"])
        hits = [
            cls
            for cls in oracles.family_blocks(family)[coins].gammas
            if all(
                lo <= index < hi
                for cb, k, sym, index in zip(family.codebooks, coins, cls, indices)
                for lo, hi in [cb.index_range(k, cb.alphabet.index(sym))]
            )
        ]
        assert len(hits) == 1, (name, tr)
        for stage, index, key in zip(stages, indices, ("mx", "my")):
            assert tr[key] == stage.hash_scheme.apply(index)


@pytest.mark.parametrize(
    "name, wire",
    [
        ("qubit_entangled_side_info", {"Z": 1}),
        ("qubit_entangled_side_info", {"X": -3}),
        ("qubit_cq", {"X": 1}),
    ],
    ids=["unknown_link", "negative", "undecodable"],
)
def test_bad_wire_override_is_refused(name, wire):
    # a key that names no link, a negative width, or a width below logL
    # with no B register to decode a hash on, is an error, not a silently
    # unhashed or clamped link
    prep = P.prepare(io.load_bundled(name))
    with pytest.raises(ValueError, match="wire_override"):
        P.centralised_protocol(
            prep, GOLDEN_BUDGETS[name], GOLDEN_SEED, log_const=GOLDEN_C, wire_override=wire
        )


def test_unassisted_run_under_one_scenario_keeps_it_alone():
    # the scenario the unassisted simulator is asked for is the full run's,
    # to the bit, and the only one it returns
    name = "qubit_cq"
    prep = P.prepare(io.load_bundled(name))
    budget = GOLDEN_BUDGETS[name]
    full = P.simulate_unassisted(prep, budget, GOLDEN_SEED, log_const=GOLDEN_C)
    one = P.simulate_unassisted(
        prep, budget, GOLDEN_SEED, scenario=compress.AdversaryScenario(False, True),
        log_const=GOLDEN_C,
    )
    assert list(one["scenarios"]) == ["y_only"]
    got, want = one["scenarios"]["y_only"], full["scenarios"]["y_only"]
    assert got["deviation"] == want["deviation"]
    assert got["output"].keys() == want["output"].keys()
    for key, op in want["output"].items():
        assert np.array_equal(got["output"][key], op), key


def test_one_shot_region_is_the_union_of_its_cells():
    # qubit_cq's theta 0.5 region has one cell per split axis; a point just
    # above one cell's facets, and below another's, is admitted
    prep = P.prepare(io.load_bundled("qubit_cq"))
    region = P.one_shot_region(prep, GOLDEN_EPS, theta_grid=(0.5,))
    assert not region.admits(0.0, 0.0, 0.0, 0.0)
    cells = collections.defaultdict(list)
    for h in region.constraints:
        cells[h.provenance["axis"]].append(h)
    assert len(cells) == 2

    def meets(cell, point):
        return all(sum(h.coeffs.get(k, 0.0) * v for k, v in point.items()) > h.rhs for h in cell)

    for axis, cell in cells.items():
        point = dict.fromkeys(("R_X", "R_Y", "C_X", "C_Y"), 0.0)
        for h in cell:
            if len(h.coeffs) == 1:
                point[next(iter(h.coeffs))] = h.rhs + 1.0
        for h in cell:
            if len(h.coeffs) == 2:
                rate, coin = sorted(h.coeffs, reverse=True)
                point[coin] = max(0.0, h.rhs - point[rate]) + 1.0
        assert meets(cell, point)
        assert not any(meets(other, point) for a, other in cells.items() if a != axis)
        assert region.admits(point["R_X"], point["R_Y"], point["C_X"], point["C_Y"]), axis


def test_abort_key_is_no_real_outcome(solved):
    # protocol-abort mass must count against the ideal output in full, never
    # against the block of a real outcome that carries the same key
    _, prep, _, _ = solved
    for sc in SCENARIOS:
        key = qo.join_symbol(*(ABORT for _ in sc.links))
        assert key not in compress.ideal_blocks(prep, sc), sc.name


def test_golden_regions(solved):
    name, prep, _, _ = solved
    rhs = _hex(h.rhs for h in P.iid_region(prep).constraints)
    assert rhs == _golden()[name]["iid_region"]
    rhs, solves = _one_shot_rhs(prep)
    assert rhs == _golden()[name]["one_shot_region"]
    assert _intervals(solves) == _golden()[name]["one_shot_intervals"]
    _check_certificates(solves)


# family 2 seeds (``oracles.family_instance_parts``) whose values once
# failed: too many free reals (4, 7, 13, 15), no certificate (12) or 26-69 s
# (9, 14); seed 19 has a rank-1 rho_A
@pytest.mark.parametrize("seed", [4, 7, 9, 12, 13, 14, 15, 19])
def test_family_two_values_are_certified(seed):
    # every I_max^eps of thresholds and of a theta 0.5 region is certified
    # (a value that is not raises SolverError), once each value is cut to
    # supp(sigma)
    dims, rho, alpha_x, alpha_y, elements = oracles.family_instance_parts(seed, 2)
    inst = io.Instance(dims, rho, qo.JointPOVM(tuple(alpha_x), tuple(alpha_y), elements))
    prep = P.prepare(inst)
    th = P.thresholds(prep, 0.1)
    region = P.one_shot_region(prep, 0.1, theta_grid=(0.5,))
    assert math.isfinite(th["imax_x"]) and math.isfinite(th["imax_y"])
    assert region.constraints and all(math.isfinite(h.rhs) for h in region.constraints)


def test_one_shot_region_steers_nothing_after_prepare(monkeypatch):
    # prepare steers each POVM element through the purified state once;
    # every (axis, theta) cell of the region reads those E-blocks
    calls = []
    steer = P.PreparedInstance.steer

    def counting_steer(self, op_a):
        calls.append(op_a)
        return steer(self, op_a)

    monkeypatch.setattr(P.PreparedInstance, "steer", counting_steer)
    prep = P.prepare(io.load_bundled("trivial"))
    assert len(calls) == len(prep.instance.povm.elements)
    calls.clear()
    region = P.one_shot_region(prep, GOLDEN_EPS, theta_grid=(0.0, 0.5, 1.0))
    assert len(region.constraints) == 4 * 3 * 2
    assert calls == []


def test_derived_states_pass_the_full_check(monkeypatch):
    # the one-shot regions derive every state from the checked env_cq and
    # skip only the eigenvalue check on them; each passes the full check
    derived = []
    make = qo.CQState.derived.__func__

    def recording(cls, symbols, blocks):
        derived.append(make(cls, symbols, blocks))
        return derived[-1]

    monkeypatch.setattr(qo.CQState, "derived", classmethod(recording))
    for name in io.BUNDLED:
        count = len(derived)
        P.one_shot_region(P.prepare(io.load_bundled(name)), GOLDEN_EPS, theta_grid=(0.5,))
        assert len(derived) > count, name
    for state in derived:
        qo.CQState(state.symbols, state.blocks)


def test_env_cq_is_built_once_and_left_alone():
    # one CQState per prepared instance, shared by thresholds and both
    # regions, none of which mutates its stack
    prep = P.prepare(io.load_bundled("instrument_derived"))
    cq = prep.env_cq()
    symbols, blocks = cq.symbols, cq.blocks.copy()
    P.thresholds(prep, GOLDEN_EPS, GOLDEN_C)
    P.one_shot_region(prep, GOLDEN_EPS, theta_grid=(0.5,))
    P.iid_region(prep)
    assert prep.env_cq() is cq and cq.symbols == symbols
    assert np.array_equal(cq.blocks, blocks)


@pytest.mark.parametrize("name", io.BUNDLED)
def test_both_joint_distributions_agree_up_to_round_off(name):
    # p(x, y) is held twice: the codebooks draw from Tr[Lambda rho_A], the
    # cq states weigh their blocks by the steered blocks' traces; one symbol
    # order, values within 2e-16 but not always to the bit, so reading one
    # in place of the other moves golden pins in their last bits
    prep = P.prepare(io.load_bundled(name))
    cq = prep.env_cq()
    assert prep.joint.alphabet == cq.symbols
    assert np.max(np.abs(prep.joint.probs - cq.probs)) <= 2e-16


def test_entropies_get_cq_states_of_unit_mass(monkeypatch):
    # on every bundled instance, each cq state that thresholds and the
    # theta 0.5 one-shot region hand to the entropies has block traces
    # summing to 1 within 1e-12, and the X state's traces are the X marginal
    states, i_max_cq_many, i_hyp_cq = [], ent.i_max_cq_many, ent.i_hyp_cq

    def recording_i_max(cqs, eps):
        states.extend(cqs)
        return i_max_cq_many(cqs, eps)

    def recording_i_hyp(cq, eps, slots=None):
        states.append(cq)
        return i_hyp_cq(cq, eps, slots)

    monkeypatch.setattr(ent, "i_max_cq_many", recording_i_max)
    monkeypatch.setattr(ent, "i_hyp_cq", recording_i_hyp)
    for name in io.BUNDLED:
        prep = P.prepare(io.load_bundled(name))
        count = len(states)
        P.thresholds(prep, GOLDEN_EPS, GOLDEN_C)
        P.one_shot_region(prep, GOLDEN_EPS, theta_grid=(0.5,), log_const=GOLDEN_C)
        assert len(states) > count, name
        x_probs = prep_mod._x_env_cq(prep).probs
        assert np.max(np.abs(x_probs - prep.marginals[0].probs)) <= 1e-12, name
    assert len(states) == 39 + 16  # 39 I_max, 16 I_H on B
    for state in states:
        assert abs(state.probs.sum() - 1.0) <= 1e-12


def test_moved_pin_summary_names_each_section():
    # the pin writer's last line: the moved pins' count, and per section
    # the largest |Δ| or the count of pins moved without one
    old = {"a": {"thresholds": {"imax_x": (0.5).hex()}, "statuses": ["optimal"]}}
    new = {
        "a": {
            "thresholds": {"imax_x": (0.5 + 2.0**-50).hex()},
            "statuses": ["maxIterations"],
            "intervals": [[(0.25).hex(), (0.5).hex()]],
        }
    }
    moved = _moved_pins(old, new)
    assert [(path, delta) for path, _, _, delta in moved] == [
        ("a/thresholds/imax_x", 2.0**-50), ("a/statuses[0]", None), ("a/intervals", None)
    ]
    assert _moved_summary(moved) == (
        "3 pins moved; thresholds max |Δ| 8.882e-16; statuses 1 without Δ; "
        "intervals 1 without Δ; deviations unmoved; iid unmoved; one-shot unmoved; "
        "compose unmoved; other unmoved"
    )


@pytest.mark.parametrize("log_const", [0.0, None], ids=["c0", "cdefault"])
def test_default_budget_is_planned(solved, log_const):
    # budget_from_thresholds and plan_codebooks follow one rounding rule, and
    # the protocol runs end to end at that budget
    _, prep, _, _ = solved
    budget = P.budget_from_thresholds(prep, GOLDEN_EPS, log_const=log_const)
    P.plan_codebooks(prep, budget, log_const)
    _check_outputs(prep, P.centralised_protocol(prep, budget, GOLDEN_SEED, log_const=log_const))


@pytest.mark.parametrize(
    "eps, log_const, wire, nice",
    [
        (0.1, 0.0, None, 0.0),
        (0.1, 0.0, {"X": 0}, 0.0),
        (1e-4, None, None, 1.0),
        (1e-8, None, None, None),
    ],
    ids=["no_nice_block", "no_nice_block_hashed", "eps_1e-4", "eps_1e-8"],
)
def test_the_first_codebook_draw_is_reported(eps, log_const, wire, nice):
    # classical_commuting at budget_from_thresholds, codebook seed 1.  At eps
    # 0.1 and c = 0 no coin block is nice, so every block aborts and each
    # scenario outputs rho_E on the abort key, at distance 2 from its target,
    # and the composition, whose X link state is then empty, is refused.
    # At eps 1e-4 logL is 36 per link, so a class's product of counts passes
    # 2^63; at eps 1e-8 logL is 63, past the int64 counts, and is refused
    prep = P.prepare(io.load_bundled("classical_commuting"))
    budget = P.budget_from_thresholds(prep, eps, log_const=log_const)
    if nice is None:
        with pytest.raises(P.ProtocolError, match="int64"):
            P.centralised_protocol(prep, budget, GOLDEN_SEED, log_const=log_const)
        return
    run = P.centralised_protocol(prep, budget, GOLDEN_SEED, log_const, wire_override=wire)
    _check_outputs(prep, run)
    assert run["fraction_nice"] == nice
    deviations = [sc["deviation"] for sc in run["scenarios"].values()]
    if nice:
        assert max(deviations) <= math.sqrt(eps)
    else:
        assert all(abs(d - 2.0) <= 1e-12 for d in deviations)
        with pytest.raises(P.ProtocolError, match="no coin block"):
            P.compose_with_side_information(prep.instance, budget, GOLDEN_SEED, log_const)


def test_a_threshold_solve_that_raises_caches_nothing(monkeypatch):
    # the entropies are cached per eps; a solve that raises must leave no
    # half-filled entry for a later call at another additive constant to read
    prep = P.prepare(io.load_bundled("qubit_cq"))

    def failing(*args):
        raise ent.SolverError("not certified")

    monkeypatch.setattr(ent, "i_max_cq_many", failing)
    with pytest.raises(ent.SolverError):
        P.thresholds(prep, GOLDEN_EPS)
    monkeypatch.undo()
    fresh = P.prepare(prep.instance)
    assert P.thresholds(prep, GOLDEN_EPS, GOLDEN_C) == P.thresholds(fresh, GOLDEN_EPS, GOLDEN_C)


def test_hash_cap_applies_only_to_hashed_links():
    # at log_const 15 the default budget gives the X link logL 17, above the
    # cap on tabulated links, but the link sends its index whole and runs;
    # hashing that link to fewer bits is refused
    prep = P.prepare(io.load_bundled("qubit_entangled_side_info"))
    budget = P.budget_from_thresholds(prep, GOLDEN_EPS, log_const=15.0)
    run = P.centralised_protocol(prep, budget, GOLDEN_SEED, log_const=15.0)
    assert run["stage_x"].log_l == compose.MAX_HASHED_LOG_L + 1
    assert _hashed_axes(run) == set()
    _check_outputs(prep, run)
    with pytest.raises(P.ProtocolError, match="logL=17"):
        P.centralised_protocol(
            prep, budget, GOLDEN_SEED, family=run["family"], wire_override={"X": 16}
        )


def test_coin_blocks_stop_at_their_bound():
    # with c_y = 1, c_x = MAX_LOG_BLOCKS - 1 plans 2^MAX_LOG_BLOCKS coin
    # blocks, and one coin bit more is refused before any is drawn
    prep = P.prepare(io.load_bundled("qubit_cq"))
    at, past = (
        OneShotBudget(GOLDEN_EPS, r_x=3, r_y=2, c_x=c_x, c_y=1)
        for c_x in (compress.MAX_LOG_BLOCKS - 1, compress.MAX_LOG_BLOCKS)
    )
    assert compress.plan_codebooks(prep, at, GOLDEN_C).log_k == (compress.MAX_LOG_BLOCKS - 1, 1)
    with pytest.raises(P.ProtocolError, match=r"2\^17 coin blocks \(sum of logK <= 16\)"):
        compress.plan_codebooks(prep, past, GOLDEN_C)


def _write_golden() -> None:
    payload = {}
    for name in io.BUNDLED:
        _, prep, th, solves = _solve_instance(name)
        pins = _threshold_pins(th, solves)
        pins.update(_run_pins(*_protocol_runs(name, prep)))
        pins["iid_region"] = _hex(h.rhs for h in P.iid_region(prep).constraints)
        rhs, solves = _one_shot_rhs(prep)
        pins["one_shot_region"], pins["one_shot_intervals"] = rhs, _intervals(solves)
        if name in COMPOSE_INSTANCES:
            pins["compose"] = _hex(_composition(name, prep))
        payload[name] = pins
    old = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
    moved = _moved_pins(old, payload)
    for path, was, now, delta in moved:
        print(f"{path}: {was} -> {now}" + ("" if delta is None else f"  Δ {delta:+.3e}"))
    print(_moved_summary(moved))
    GOLDEN_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def _moved_pins(old, new, path: str = "") -> list[tuple]:
    """(path, old, new, Δ) of each pin that differs between two golden
    payloads, Δ None unless both are float.hex values."""
    if isinstance(old, dict) and isinstance(new, dict):
        keys = list(old) + [k for k in new if k not in old]
        return [
            moved
            for k in keys
            for moved in _moved_pins(old.get(k), new.get(k), f"{path}/{k}" if path else k)
        ]
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        return [
            moved
            for i, (o, n) in enumerate(zip(old, new))
            for moved in _moved_pins(o, n, f"{path}[{i}]")
        ]
    if old == new:
        return []
    try:
        delta = float.fromhex(new) - float.fromhex(old)
    except (TypeError, ValueError):
        delta = None
    return [(path, old, new, delta)]


# the summary's section of each pin key
PIN_SECTIONS = {
    "thresholds": "thresholds",
    "statuses": "statuses",
    "intervals": "intervals",
    "one_shot_intervals": "intervals",
    "centralised": "deviations",
    "unassisted": "deviations",
    "iid_region": "iid",
    "one_shot_region": "one-shot",
    "compose": "compose",
}


def _moved_summary(moved) -> str:
    """One line: how many pins moved and, per section, the largest |Δ| of
    its moved float pins, and how many of its pins moved with no Δ (a
    status, or a pin one payload lacks)."""
    worst, other = {}, {}
    for path, _, _, delta in moved:
        section = PIN_SECTIONS.get(path.split("/")[1].split("[")[0], "other")
        if delta is None:
            other[section] = other.get(section, 0) + 1
        else:
            worst[section] = max(worst.get(section, 0.0), abs(delta))
    parts = []
    for section in dict.fromkeys([*PIN_SECTIONS.values(), "other"]):
        text = [f"max |Δ| {worst[section]:.3e}"] if section in worst else []
        text += [f"{other[section]} without Δ"] if section in other else []
        parts.append(f"{section} {', '.join(text) or 'unmoved'}")
    return f"{len(moved)} pins moved; " + "; ".join(parts)


@pytest.fixture(scope="module")
def instrument_derived():
    prep = P.prepare(io.load_bundled("instrument_derived"))
    return prep, P.budget_from_thresholds(prep, 0.1, log_const=0.0)


def test_centralised_runs_on_sparse_joint_povm(instrument_derived):
    # the joint distribution of instrument_derived lacks some (x, y) pairs
    prep, budget = instrument_derived
    n_pairs = len(prep.marginals[0].alphabet) * len(prep.marginals[1].alphabet)
    assert len(prep.joint.alphabet) < n_pairs
    _check_outputs(prep, P.centralised_protocol(prep, budget, 1, log_const=0.0))


def _signature_pairs(stage, codebook) -> set:
    """Distinct (coin, class sequence in decoder order) of the link's
    multi-candidate fibers, found by brute force."""
    hashes = stage.hash_scheme.apply_many(np.arange(2**stage.log_l))
    pairs = set()
    for k in range(codebook.coins):
        offsets = codebook.offsets(k)
        for m in np.unique(hashes):
            fiber = [int(i) for i in np.flatnonzero(hashes == m)]
            if len(fiber) > 1:
                sig = tuple(int(np.searchsorted(offsets, i, side="right")) - 1 for i in fiber)
                pairs.add((k, sig))
    return pairs


def test_signature_numbering_matches_lexicographic_unique():
    # monotone class rows, as a decoder sees its fibers: a few sorted rows
    # repeated in random order.  Fibers of 256 over 12 classes have
    # 257^12 > 2^63 class histograms, so a packed integer code would overflow.
    rng = np.random.default_rng(16)
    for n_fib, size, n_cls in ((1, 1, 1), (32, 1, 6), (64, 4, 3), (300, 7, 5), (50, 256, 12)):
        for _ in range(3):
            probs = rng.dirichlet(np.ones(n_cls))
            pool = np.sort(rng.choice(n_cls, size=(max(n_fib // 4, 1), size), p=probs), axis=1)
            rows = pool[rng.integers(len(pool), size=n_fib)]
            first, sig = compose._signatures(rows)
            want_first, want_sig = oracles.unique_row_signatures(rows)
            assert first.tolist() == want_first.tolist()
            assert sig.tolist() == want_sig.tolist()


def test_signature_decode_matches_per_message_decode(monkeypatch):
    # both links hashed: X 8 -> 6 bits (fibers of 4), Y 7 -> 6 bits (fibers of 2)
    prep = P.prepare(io.load_bundled("qubit_entangled_side_info"))
    budget = OneShotBudget(0.1, r_x=8, r_y=7, c_x=1, c_y=1)
    wire = {"X": 6, "Y": 6}
    rows = []
    build = compose.sequential_kraus

    def counting_build(tests):
        rows.append(_stacked_rows(tests))
        return build(tests)

    with monkeypatch.context() as patch:
        patch.setattr(compose, "sequential_kraus", counting_build)
        run = P.centralised_protocol(prep, budget, 1, log_const=0.0, wire_override=wire)
    family = run["family"]
    stage_x, stage_y = run["stage_x"], run["stage_y"]
    assert stage_x.wire_bits < stage_x.log_l and stage_y.wire_bits < stage_y.log_l
    n_pairs = sum(
        len(_signature_pairs(stage, cb)) for stage, cb in zip((stage_x, stage_y), family.codebooks)
    )
    # one stacked call per link, one row per (coin, signature)
    assert len(rows) == len(family.codebooks)
    assert sum(rows) == n_pairs

    _check_against_per_message_decode(prep, run)


def _check_against_per_message_decode(prep, run) -> None:
    """The run, scenario by scenario, against per-message decoders (the same
    sequential_kraus, one fiber at a time) summed by the reference accumulator."""

    def single_row_build(tests):
        return list(compose.sequential_kraus(np.stack(tests)[None])[0])

    family = run["family"]
    decoders = [
        oracles.PerMessageStageDecoder(stage, cb, prep.dim_e // prep.dim_b, single_row_build, ABORT)
        for stage, cb in zip((run["stage_x"], run["stage_y"]), family.codebooks)
    ]
    want = oracles.centralised_output_blocks(family, prep.rho_e, decoders, qo.join_symbol, ABORT)
    assert set(run["scenarios"]) == set(want)
    for name, sc in run["scenarios"].items():
        assert set(sc["output"]) == set(want[name]), name
        for key, op in sc["output"].items():
            assert np.max(np.abs(op - want[name][key])) <= 1e-12, (name, key)


@pytest.mark.parametrize(
    "coins, wire", [(3, {"X": 6, "Y": 6}), (2, {"X": 6})], ids=["c3_both_hashed", "c2_x_hashed"]
)
def test_coin_scaling_matches_per_message_decode(coins, wire):
    # 2^c coins per link, so 4^c coin blocks, decoded in one array pass per
    # layer; every scenario's output against the per-message reference, and
    # every block's E-operators against its completeness and traces
    prep = P.prepare(io.load_bundled("qubit_entangled_side_info"))
    budget = OneShotBudget(0.1, r_x=8, r_y=7, c_x=coins, c_y=coins)
    run = P.centralised_protocol(prep, budget, 1, log_const=0.0, wire_override=wire)
    assert [cb.coins for cb in run["family"].codebooks] == [2**coins] * 2
    assert _hashed_axes(run) == set(wire)
    _check_against_per_message_decode(prep, run)
    _check_env_blocks(prep, run["family"])


@pytest.mark.parametrize("coins", [1, 2])
def test_decode_work_does_not_grow_with_the_coins(coins, monkeypatch):
    # at every coin count: rho_A not decomposed at all (every codebook
    # draw's GOOD sets read prepare's ``spectrum_a``), link
    # tests (``i_hyp_cq`` on the link states) that decompose nothing larger
    # than d_B, and one sequential_kraus call per hashed link; np.linalg's
    # eigh, eigvalsh and svd are spied on
    prep = P.prepare(io.load_bundled("qubit_entangled_side_info"))
    budget = OneShotBudget(0.1, r_x=8, r_y=7, c_x=coins, c_y=coins)
    seen = {"build": [], "link": [], "kraus": 0}
    step = []  # the library step running now

    def within(name, fn):
        def wrapped(*args, **kwargs):
            step.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                step.pop()

        return wrapped

    def spying(fn):
        def spy(a, *args, **kwargs):
            if step:
                seen[step[-1]].append(np.reshape(a, (-1,) + np.shape(a)[-2:]))
            return fn(a, *args, **kwargs)

        return spy

    def counting_build(tests):
        seen["kraus"] += 1
        return build(tests)

    build = compose.sequential_kraus
    monkeypatch.setattr(compose, "sequential_kraus", counting_build)
    build_povm = within("build", compose.build_compressed_povm)
    monkeypatch.setattr(compose, "build_compressed_povm", build_povm)
    monkeypatch.setattr(ent, "i_hyp_cq", within("link", ent.i_hyp_cq))
    for name in ("eigh", "eigvalsh", "svd"):
        monkeypatch.setattr(np.linalg, name, spying(getattr(np.linalg, name)))
    run = P.centralised_protocol(prep, budget, 1, log_const=0.0, wire_override={"X": 6, "Y": 6})
    monkeypatch.undo()
    assert _hashed_axes(run) == {"X", "Y"}
    assert seen["kraus"] == 2
    rho_a = prep.spectrum_a[0]
    of_rho_a = sum(
        int(np.sum(np.all(np.abs(mats - rho_a) <= 1e-15, axis=(1, 2))))
        for mats in seen["build"]
        if mats.shape[-2:] == rho_a.shape
    )
    assert of_rho_a == 0
    assert seen["link"] and max(mats.shape[-1] for mats in seen["link"]) == prep.dim_b


def test_a_decode_pass_decomposes_rho_a_in_no_step(monkeypatch):
    # the decode benchmark's pass after its set-up: the GOOD sets read
    # prepare's checked rho_A, so no eigh of it is taken again: of the 10,
    # 8 are the hashed link's test, 1 the root of its decoder's failure
    # branch and 1 the GOOD sets' Uhlmann maps, all rows in one stack; the
    # one svd is the decoder's, and the GOOD sets take no svd or qr
    prep = P.prepare(io.load_bundled("qubit_entangled_side_info"))
    P.thresholds(prep, 0.1, 0.0)
    budget = OneShotBudget(0.1, r_x=14, r_y=13, c_x=1, c_y=1)
    calls = linalg_spy(monkeypatch)
    run = P.centralised_protocol(prep, budget, 1, log_const=0.0, wire_override={"X": 12})
    assert run["fraction_nice"] == 1.0
    assert collections.Counter(calls) == {"eigh": 10, "eigvalsh": 9, "svd": 1}


def _bundled_link_states():
    """(label, state, slots) of both links of the two bundled instances with
    a B register, at the golden rates with two and with four coins per link."""
    for name in ("classical_commuting", "qubit_entangled_side_info"):
        prep = P.prepare(io.load_bundled(name))
        for coins in (1, 2):
            budget = OneShotBudget(GOLDEN_EPS, r_x=3, r_y=2, c_x=coins, c_y=coins)
            family = compress.build_compressed_povm(prep, budget, GOLDEN_SEED, GOLDEN_C)
            for i, link in enumerate(P.LINKS):
                state, live = compose._link_state(family, prep, i)
                yield f"{name}/{link}/c{coins}", state, live // len(family.codebooks[i].alphabet)


def _seeded_link_states():
    """(label, state, slots) of seeded link states over three coin slots on a
    B of dimension 2 or 3.  Slot 1's blocks share one rank-1 support and slot
    2's one of rank d - 1, so their averages are singular, and on the dense
    register every symbol's sigma has kernel directions on other slots."""
    for seed, d in ((0, 2), (1, 3), (2, 3), (3, 2)):
        rng = np.random.default_rng(seed)
        symbols, blocks, slots = [], [], []
        for k, rank in enumerate((d, 1, d - 1)):
            iso = np.linalg.qr(rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank)))[0]
            for x in range(2 + seed % 2):
                symbols.append(qo.join_symbol(str(k), str(x)))
                blocks.append(iso @ oracles.random_density(rng, rank) @ iso.conj().T)
                slots.append(k)
        weights = rng.dirichlet(np.ones(len(symbols)))
        state = qo.CQState(tuple(symbols), weights[:, None, None] * np.stack(blocks))
        yield f"seed{seed}/d{d}", state, np.array(slots)


@pytest.mark.parametrize("eps", [GOLDEN_EPS, GOLDEN_EPS**0.1], ids=["eps", "eps0"])
def test_slot_link_tests_equal_register_tests(eps):
    # the link tests taken on d_B x d_B slot blocks against i_hyp_cq on the
    # dense (K', B) register, whose test is read on each symbol's slot
    cases = [*_bundled_link_states(), *_seeded_link_states()]
    for label, state, slots in cases:
        assert state.quantum_dim <= 3, label
        value, test = ent.i_hyp_cq(state, eps, slots)
        want_value, alpha, beta, want_tests = oracles.register_link_test(
            ent.i_hyp_cq, state, slots, eps
        )
        got = (value, test.achieved_alpha, test.achieved_beta)
        for got, want in zip(got, (want_value, alpha, beta)):
            assert abs(got - want) <= 1e-12 * abs(want), (label, got, want)
        for s, block in zip(state.symbols, test.tests, strict=True):
            assert np.max(np.abs(block - want_tests[s])) <= 1e-12, (label, s)


def test_decode_thresholds_read_few_points(monkeypatch):
    # the bench ``decode`` set-up (thresholds at log_const 0) and one pass:
    # each of their three Neyman-Pearson thresholds takes its bracket from
    # alpha_strict's jumps in at most 8 readings, where the bisection alone
    # reads 54, 56 and 55
    counts, alpha_strict, bisect = [], ent._Blocks.alpha_strict, ent._np_bisect

    def counted_alpha(self, t):
        counts[-1] += 1
        return alpha_strict(self, t)

    def counted_bisect(blocks, target):
        counts.append(0)
        return bisect(blocks, target)

    monkeypatch.setattr(ent._Blocks, "alpha_strict", counted_alpha)
    monkeypatch.setattr(ent, "_np_bisect", counted_bisect)
    prep = P.prepare(io.load_bundled("qubit_entangled_side_info"))
    P.thresholds(prep, 0.1, 0.0)
    assert len(counts) == 2
    budget = OneShotBudget(0.1, r_x=14, r_y=13, c_x=1, c_y=1)
    P.centralised_protocol(prep, budget, 1, log_const=0.0, wire_override={"X": 12})
    assert len(counts) == 3 and max(counts) <= 8


def test_hashed_link_decodes_better_with_distinguishable_side_information():
    # A measured in Z, Y trivial, rho = (|0><0| (x) b0 + |1><1| (x) b1) / 2:
    # X's hash (4 -> 2 bits) leaves fibers of 4 indices for Bob to tell
    # apart on B, which orthogonal b0, b1 let him do and b0 = b1 does not
    z0, z1 = np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)
    povm = qo.povm_from_elements({("0", "_"): z0, ("1", "_"): z1})
    budget = OneShotBudget(0.1, r_x=4, c_x=1)

    def x_only_deviation(b0, b1):
        rho = 0.5 * (np.kron(z0, b0) + np.kron(z1, b1))
        inst = io.Instance({"A": 2, "B": 2, "R": 1}, rho, povm)
        run = P.centralised_protocol(inst, budget, 1, log_const=0.0, wire_override={"X": 2})
        assert run["stage_x"].wire_bits < run["stage_x"].log_l
        return run["scenarios"]["x_only"]["deviation"]

    mixed = np.eye(2, dtype=complex) / 2
    assert x_only_deviation(z0, z1) < x_only_deviation(mixed, mixed)



@pytest.mark.parametrize("seed", [1, 3, 7])
def test_an_outcome_the_state_never_yields_runs(seed):
    # rho = u0 u0^dag measured in the basis {u0, u1}: p("1") is 0, computed
    # as a float just below 0 and held as 0, which the codebook's
    # multinomial draw takes; a negative one made numpy refuse the draw
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    projectors = [np.outer(u[:, i], u[:, i].conj()) for i in range(2)]
    povm = qo.povm_from_elements({("0", "a"): projectors[0], ("1", "a"): projectors[1]})
    prep = P.prepare(io.Instance({"A": 2, "B": 1, "R": 1}, projectors[0], povm))
    assert prep.joint.prob("1|a") == 0.0
    budget = OneShotBudget(0.1, r_x=3, r_y=0, c_x=1, c_y=0)
    run = P.centralised_protocol(prep, budget, 1, log_const=0.0)
    assert run["family"].completeness_residual(prep) <= 1e-12
    assert all(sc["deviation"] <= 1e-11 for sc in run["scenarios"].values())

if __name__ == "__main__":
    _write_golden()
