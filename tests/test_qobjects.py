import collections
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from povmcomp import io, linalg as la, qobjects as qo
from povmcomp import protocols as P

import oracles
from test_sdp import linalg_spy


def two_outcome_povm(d=2):
    p0 = np.diag([1.0, 0.0]).astype(complex)
    return qo.povm_from_elements({("0", "y"): p0, ("1", "y"): np.eye(d) - p0})


class TestPOVMValidation:
    def test_rejects_incomplete(self):
        with pytest.raises(ValueError):
            qo.povm_from_elements({("0", "0"): 0.5 * np.eye(2)})

    def test_rejects_negative_element(self):
        with pytest.raises(ValueError):
            qo.povm_from_elements(
                {("0", "0"): np.diag([1.2, 1.0]), ("1", "0"): np.diag([-0.2, 0.0])}
            )

    def test_rejects_reserved_symbols(self):
        # the abort symbol and the '|' separator would merge an outcome's key
        # with the protocol's abort key or with another joint symbol
        for key in ((qo.ABORT, "0"), ("0", qo.ABORT), ("0|1", "0"), ("0", "a|b")):
            with pytest.raises(ValueError, match="abort symbol"):
                qo.povm_from_elements({key: np.eye(2, dtype=complex)})

    def test_random_generated_povms_validate(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            parts = oracles.random_povm(rng, 3, 4)
            elements = {(str(i), "0"): p for i, p in enumerate(parts)}
            povm = qo.povm_from_elements(elements)
            total = sum(povm.elements.values())
            assert np.max(np.abs(total - np.eye(3))) < 1e-8


class TestInstrument:
    def test_unitary_single_kraus(self):
        h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        povm = qo.instrument_to_povm(qo.Instrument({("u", "u"): h}))
        assert set(povm.elements) == {("u", "u")}
        assert np.allclose(povm.elements["u", "u"], np.eye(2))

    def test_projective_kraus(self):
        inst = qo.Instrument(
            {("0", "y"): np.diag([1.0, 0.0]).astype(complex),
             ("1", "y"): np.diag([0.0, 1.0]).astype(complex)}
        )
        povm = qo.instrument_to_povm(inst)
        assert np.allclose(povm.elements["0", "y"], np.diag([1.0, 0.0]))
        assert np.allclose(povm.elements["1", "y"], np.diag([0.0, 1.0]))
        assert (qo.DEFICIT, qo.DEFICIT) not in povm.elements

    def test_deficit_completion(self):
        rng = np.random.default_rng(1)
        k0 = 0.6 * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        k0 /= np.linalg.norm(k0, 2) * 1.5
        k1 = 0.4 * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        k1 /= np.linalg.norm(k1, 2) * 1.5
        inst = qo.Instrument({("0", "a"): k0, ("1", "b"): k1})
        povm = qo.instrument_to_povm(inst)
        assert (qo.DEFICIT, qo.DEFICIT) in povm.elements
        assert qo.ABORT not in povm.alphabet_x + povm.alphabet_y
        total = sum(povm.elements.values())
        assert np.max(np.abs(total - np.eye(2))) < 1e-8
        with pytest.raises(ValueError, match="reserved"):
            qo.instrument_to_povm(qo.Instrument({(qo.DEFICIT, "a"): k0}))

    def test_a_deficit_is_dropped_only_within_the_completeness_check(self):
        # a deficit of Frobenius norm up to the POVM's completeness slack
        # (1e-11) is dropped, and the POVM still loads; a larger one is kept
        for deficit, kept in ((2e-12, False), (1e-10, True)):
            kraus = np.sqrt(1.0 - deficit) * np.eye(2, dtype=complex)
            povm = qo.instrument_to_povm(qo.Instrument({("0", "0"): kraus}))
            assert ((qo.DEFICIT, qo.DEFICIT) in povm.elements) == kept

    def test_exceeding_identity_rejected(self):
        with pytest.raises(ValueError):
            qo.Instrument({("0", "0"): 1.2 * np.eye(2, dtype=complex)})

    def test_the_povm_takes_one_decomposition(self, monkeypatch):
        # the deficit's check is the instrument's own, and its Frobenius
        # norm comes from its entries: the one eigvalsh is JointPOVM's
        rng = np.random.default_rng(1)
        kraus = 0.5 * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        inst = qo.Instrument({("0", "a"): kraus / np.linalg.norm(kraus, 2)})
        calls = linalg_spy(monkeypatch)
        povm = qo.instrument_to_povm(inst)
        assert (qo.DEFICIT, qo.DEFICIT) in povm.elements
        assert collections.Counter(calls) == {"eigvalsh": 1}


class TestDistribution:
    def test_a_negative_probability_within_its_slack_is_held_as_zero(self):
        dist = qo.Distribution(("a", "b"), np.array([1.0, -0.5 * la.NEG_PROB_SLACK]))
        assert dist.probs.tolist() == [1.0, 0.0]
        with pytest.raises(ValueError, match="negative probability"):
            qo.Distribution(("a", "b"), np.array([1.0 + 2e-12, -2 * la.NEG_PROB_SLACK]))


class TestInducedDistribution:
    def test_single_outcome(self):
        povm = qo.povm_from_elements({("x", "y"): np.eye(2, dtype=complex)})
        dist = qo.induced_distribution(povm, np.eye(2) / 2)
        assert dist.as_dict() == {"x|y": 1.0}

    def test_computational_basis(self):
        dist = qo.induced_distribution(two_outcome_povm(), np.diag([0.3, 0.7]).astype(complex))
        assert np.isclose(dist.prob("0|y"), 0.3)
        assert np.isclose(dist.prob("1|y"), 0.7)

    def test_random_qutrit_vs_trace_oracle(self):
        rng = np.random.default_rng(2)
        parts = oracles.random_povm(rng, 3, 3)
        povm = qo.povm_from_elements({(str(i), "0"): p for i, p in enumerate(parts)})
        rho = oracles.random_density(rng, 3)
        dist = qo.induced_distribution(povm, rho)
        for i, p in enumerate(parts):
            assert np.isclose(dist.prob(f"{i}|0"), np.trace(p @ rho).real, atol=1e-10)
        assert np.isclose(dist.probs.sum(), 1.0, atol=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            qo.induced_distribution(two_outcome_povm(), np.eye(3) / 3)

    def test_marginal_element_identity(self):
        rng = np.random.default_rng(3)
        parts = oracles.random_povm(rng, 2, 4)
        elements = {
            ("0", "0"): parts[0], ("0", "1"): parts[1],
            ("1", "0"): parts[2], ("1", "1"): parts[3],
        }
        povm = qo.povm_from_elements(elements)
        rho = oracles.random_density(rng, 2)
        joint = qo.induced_distribution(povm, rho)
        mx = qo.marginal(joint, 0)
        for x in ("0", "1"):
            direct = np.trace(povm.marginal_x_element(x) @ rho).real
            assert abs(mx.prob(x) - direct) < 1e-12


class TestPostMeasurementCQ:
    def test_classical_marginal_matches_induced(self):
        rng = np.random.default_rng(6)
        parts = oracles.random_povm(rng, 2, 3)
        povm = qo.povm_from_elements({(str(i), "0"): p for i, p in enumerate(parts)})
        rho = oracles.random_density(rng, 4)
        prep = P.prepare(io.Instance({"A": 2, "B": 2, "R": 1}, rho, povm))
        cq = prep.env_cq()
        assert cq.symbols == prep.joint.alphabet
        for s, p in zip(cq.symbols, cq.probs):
            assert abs(p - prep.joint.prob(s)) < 1e-10

    def test_env_blocks_match_dense_lueders_oracle(self):
        # prepare steers each element through the pure state on A x E with
        # E = B R M; the dense sandwich on all of A B R M, traced over A,
        # must agree, and the blocks must sum to what the identity steers
        rng = np.random.default_rng(7)
        parts = oracles.random_povm(rng, 2, 3)
        povm = qo.povm_from_elements({(str(i), str(i % 2)): p for i, p in enumerate(parts)})
        rho = oracles.random_density(rng, 8, rank=3)
        insts = [io.load_bundled(name) for name in io.BUNDLED]
        insts.append(io.Instance({"A": 2, "B": 2, "R": 2}, rho, povm))
        for inst in insts:
            prep = P.prepare(inst)
            dims = [prep.dim_a] + [prep.env_dims[f] for f in ("B", "R", "M")]
            abr = oracles.partial_trace_oracle(
                np.outer(prep.global_pure, prep.global_pure.conj()), dims, [0, 1, 2]
            )
            assert np.max(np.abs(abr - inst.state)) < 1e-12
            want = oracles.steered_blocks_oracle(inst.povm.elements, prep.global_pure, dims)
            assert prep.env_blocks.keys() == want.keys()
            for key, blk in prep.env_blocks.items():
                assert np.max(np.abs(blk - want[key])) < 1e-12, key
            total = sum(prep.env_blocks.values())
            assert np.max(np.abs(total - prep.steer(np.eye(prep.dim_a)))) < 1e-12


class TestCQState:
    def test_group_symbols(self):
        rng = np.random.default_rng(8)
        b0, b1 = oracles.random_density(rng, 2), oracles.random_density(rng, 2)
        cq = qo.CQState(("a|0", "a|1", "b|0"), np.stack([b0 / 4, b1 / 4, b0 / 2]))
        grouped = cq.group_symbols(lambda s: qo.split_symbol(s)[0])
        assert grouped.symbols == ("a", "b")
        assert np.allclose(grouped.probs, [0.5, 0.5])
        assert np.allclose(grouped.blocks, [(b0 + b1) / 4, b0 / 2])

    def test_embed_parts_matches_kron_oracle(self):
        # symbols u|v|y; "z" has weight 0 and is dropped from the kept register
        rng = np.random.default_rng(10)
        symbols = ("0|a|0", "1|a|1", "0|b|1", "1|b|0", "1|a|0", "0|z|1")
        p = np.append(rng.dirichlet(np.ones(5)), 0.0)
        weights = dict(zip(symbols, p))
        blocks = {s: oracles.random_density(rng, 2) for s in symbols}
        cq = qo.CQState(symbols, np.stack([weights[s] * blocks[s] for s in symbols]))
        out = cq.embed_parts(1, (0, 2))
        slots = ["0|0", "1|1", "0|1", "1|0"]  # (u, y) in order of first appearance
        assert out.symbols == ("a", "b")
        for t, p_t, got in zip(out.symbols, out.probs, out.blocks):
            w_t = sum(weights[s] for s in symbols if s.split("|")[1] == t)
            assert abs(p_t - w_t) < 1e-15
            want = np.zeros((8, 8), dtype=complex)
            for s in symbols:
                u, v, y = s.split("|")
                if v == t:
                    proj = np.zeros((4, 4))
                    proj[slots.index(f"{u}|{y}"), slots.index(f"{u}|{y}")] = 1.0
                    want += weights[s] * oracles.kron_oracle(proj, blocks[s])
            assert np.max(np.abs(got - want)) < 1e-15

    def test_blocks_checked_as_one_stack(self, monkeypatch):
        # one stacked eigvalsh of the weighted blocks, with the contract's
        # PSD slack
        calls, eigvalsh = [], np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
        shifted = np.diag([0.25 + 5e-9, -5e-9]).astype(complex)
        qo.CQState(("a", "b", "c"), np.stack([np.eye(2) / 8, shifted, np.eye(2) / 4]))
        assert calls == [(3, 2, 2)]

    @pytest.mark.parametrize(
        "symbols, blocks",
        [
            (("a", "b"), np.eye(2)[None] / 2),
            (("a", "a"), np.stack([np.eye(2) / 4] * 2)),
            (("a",), np.eye(2) / 2),
        ],
        ids=["too_few_blocks", "repeated_symbol", "no_stack"],
    )
    def test_one_block_per_distinct_symbol(self, symbols, blocks):
        with pytest.raises(ValueError, match="one member per distinct symbol"):
            qo.CQState(symbols, blocks)

    def test_traces_are_the_probabilities(self):
        # zero mass off the stack is refused, and a symbol of weight 0 has a
        # zero block
        blocks = np.stack([np.eye(2) / 2, np.zeros((2, 2))])
        assert qo.CQState(("a", "b"), blocks).probs.tolist() == [1.0, 0.0]
        with pytest.raises(ValueError, match="total mass 0.5 is not 1"):
            qo.CQState(("a", "b"), blocks / 2)

    @pytest.mark.parametrize(
        "bad, message",
        [
            (np.diag([0.25 + 2e-7, -2e-7]), "negative eigenvalue"),
            (np.array([[0.125, 0.1], [0.0, 0.125]]), "not Hermitian"),
            (np.diag([np.nan, 0.25]), "non-finite"),
        ],
    )
    def test_rejects_a_bad_block_among_good_ones(self, bad, message):
        blocks = np.stack([np.eye(2) / 8, bad.astype(complex), np.eye(2) / 4])
        with pytest.raises(ValueError, match=message):
            qo.CQState(("a", "b", "c"), blocks)

    def test_tensor_power_matches_kron_oracle(self):
        # symbols joined letter by letter, the first letter most significant,
        # and each block the Kronecker product of its letters' weighted blocks
        rng = np.random.default_rng(11)
        blocks = np.stack([0.3 * oracles.random_density(rng, 2), 0.7 * oracles.random_density(rng, 2)])
        power = qo.cq_tensor_power(qo.CQState(("a", "b"), blocks), 3)
        assert power.symbols[:3] == ("a|a|a", "a|a|b", "a|b|a") and len(power.symbols) == 8
        for sym, got in zip(power.symbols, power.blocks):
            i, j, k = ("ab".index(c) for c in qo.split_symbol(sym))
            want = oracles.kron_oracle(oracles.kron_oracle(blocks[i], blocks[j]), blocks[k])
            assert np.max(np.abs(got - want)) < 1e-15

    def test_dense_layout(self):
        u, v = np.eye(2) / 4, np.array([[0.4, 0.1j], [-0.1j, 0.1]])
        dense = qo.CQState(("u", "v"), np.stack([u, v])).dense()
        want = np.zeros((4, 4), dtype=complex)
        want[:2, :2], want[2:, 2:] = u, v
        assert np.array_equal(dense, want)


class TestInstanceIO:
    def test_round_trip_bytes(self, tmp_path):
        rng = np.random.default_rng(9)
        parts = oracles.random_povm(rng, 2, 2)
        inst = io.Instance(
            {"A": 2, "B": 1, "R": 1},
            oracles.random_density(rng, 2),
            qo.povm_from_elements({("0", "0"): parts[0], ("1", "0"): parts[1]}),
        )
        path = tmp_path / "inst.json"
        io.save_instance(inst, path)
        first = path.read_bytes()
        loaded = io.load_instance(path)
        io.save_instance(loaded, path)
        assert path.read_bytes() == first

    @pytest.mark.parametrize("name", io.BUNDLED)
    def test_bundled_instances_round_trip_bytes(self, name):
        path = io.bundled_instance_path(name)
        assert io.dumps_canonical(io.load_bundled(name).to_payload()) == path.read_text()

    @pytest.mark.parametrize(
        "dims, message",
        [
            ({"A": 2.9, "B": 1, "R": 1}, "register A must be an integer"),
            ({"A": 2.0, "B": 1, "R": 1}, "register A must be an integer"),
            ({"A": 2, "B": True, "R": 1}, "register B must be an integer"),
            ({"A": 2, "B": 1, "R": 0}, "register R must be an integer >= 1"),
            ({"A": 2, "B": 1, "R": 1, "C": 3}, "exactly the registers A, B and R"),
            ({"A": 2, "B": 1}, "exactly the registers A, B and R"),
        ],
    )
    def test_dims_name_exactly_a_b_r_as_integers(self, dims, message):
        payload = io.load_bundled("trivial").to_payload()
        assert payload["dims"] == {"A": 2, "B": 1, "R": 1}
        payload["dims"] = dims
        with pytest.raises(ValueError, match=message):
            io.instance_from_payload(payload)

    @pytest.mark.parametrize("axis", ["alphabetX", "alphabetY"])
    def test_repeated_outcome_rejected(self, axis):
        # an alphabet that repeats "0" is refused on load, naming the
        # outcome, not later by the probability sum of prepare
        payload = io.load_bundled("qubit_cq").to_payload()
        payload["povm"][axis].append("0")
        with pytest.raises(ValueError, match=f"outcome '0' repeats in alphabet {axis[-1]}"):
            io.instance_from_payload(payload)

    def test_invalid_state_rejected(self, tmp_path):
        payload = {
            "dims": {"A": 2, "B": 1, "R": 1},
            "state": io.matrix_to_json(np.diag([0.7, 0.7])),
            "povm": {
                "alphabetX": ["0", "1"],
                "alphabetY": ["0"],
                "elements": {
                    "0|0": io.matrix_to_json(np.diag([1.0, 0.0])),
                    "1|0": io.matrix_to_json(np.diag([0.0, 1.0])),
                },
            },
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError):
            io.load_instance(path)

    def test_trace_tolerance_is_the_distributions(self):
        # a state whose trace is 1 within the Distribution's tolerance loads
        # and prepares; at 1 +- 5e-9 it is refused when it is built, by the
        # payload and by direct construction alike, not later by prepare
        payload = io.load_bundled("qubit_cq").to_payload()
        state = io.instance_from_payload(payload).state
        for scale in (1 + 5e-11, 1 - 5e-11):
            payload["state"] = io.matrix_to_json(state * scale)
            P.prepare(io.instance_from_payload(payload))
        povm = io.instance_from_payload(payload).povm
        for scale in (1 + 5e-9, 1 - 5e-9):
            payload["state"] = io.matrix_to_json(state * scale)
            with pytest.raises(ValueError, match="is not 1 within tolerance"):
                io.instance_from_payload(payload)
            with pytest.raises(ValueError, match="is not 1 within tolerance"):
                io.Instance(payload["dims"], state * scale, povm)

    def test_malformed_element_keys_are_named(self):
        payload = io.load_bundled("qubit_cq").to_payload()
        elements = payload["povm"]["elements"]
        elements["0|0|z"] = elements.pop("0|0")
        with pytest.raises(ValueError, match=r"element key '0\|0\|z' is not of the form"):
            io.instance_from_payload(payload)
        payload["povm"]["elements"] = {}
        with pytest.raises(ValueError, match="POVM has no elements"):
            io.instance_from_payload(payload)

    def test_a_povm_that_loads_gives_a_distribution(self):
        # qubit_cq's elements scaled by 1 + 5e-9 would give probabilities
        # summing to 1.000000005, which prepare refuses; the completeness
        # check refuses them first, with the POVM's own message, and
        # elements within it prepare
        payload = io.load_bundled("qubit_cq").to_payload()
        povm = payload["povm"]

        def scaled(scale: float) -> dict:
            elements = {
                key: [[re * scale, im * scale] for re, im in entries]
                for key, entries in povm["elements"].items()
            }
            return dict(payload, povm=dict(povm, elements=elements))

        with pytest.raises(ValueError, match="POVM elements do not sum to the identity"):
            io.instance_from_payload(scaled(1 + 5e-9))
        prep = P.prepare(io.instance_from_payload(scaled(1 + 5e-12)))
        assert abs(prep.joint.probs.sum() - 1.0) <= 1e-11

    def test_the_contract_edges_load_prepare_and_run(self):
        # the state's trace at +-0.99 of its share with the completeness
        # residual at its bound loads, prepares and gives thresholds; just
        # outside either slack is refused at load with that check's message
        payload = io.load_bundled("qubit_cq").to_payload()
        state = io.instance_from_payload(payload).state
        complete = la.COMPLETE_SLACK / math.sqrt(2)  # elements x (1 + g): |g I|_F = g sqrt(2)

        def scaled(state_scale: float, element_scale: float) -> dict:
            elements = {
                key: [[re * element_scale, im * element_scale] for re, im in entries]
                for key, entries in payload["povm"]["elements"].items()
            }
            povm = dict(payload["povm"], elements=elements)
            return dict(payload, state=io.matrix_to_json(state * state_scale), povm=povm)

        for sign in (1, -1):
            for element_sign in (1, -1):
                inst = io.instance_from_payload(
                    scaled(1 + sign * 0.99 * la.TRACE_SLACK, 1 + element_sign * 0.99 * complete)
                )
                P.thresholds(P.prepare(inst), 0.1)
            for bad, message in (
                (scaled(1 + sign * 1.01 * la.TRACE_SLACK, 1.0), "is not 1 within tolerance"),
                (scaled(1.0, 1 + sign * 1.01 * complete), "do not sum to the identity"),
                # inside the distribution's sum slack, outside the state's share
                (scaled(1 + sign * 0.99e-10, 1 + 5e-12), "is not 1 within tolerance"),
            ):
                with pytest.raises(ValueError, match=message):
                    io.instance_from_payload(bad)

    def test_povm_must_act_on_register_a(self):
        inst = io.load_bundled("qubit_cq")
        with pytest.raises(ValueError, match="POVM acts on dimension 2, register A has 1"):
            io.Instance({"A": 1, "B": 2, "R": 1}, inst.state, inst.povm)

    @pytest.mark.parametrize("name", io.BUNDLED)
    def test_setup_decomposes_each_matrix_once(self, name, monkeypatch):
        # one eigh of rho (the instance's check), one of rho_A (prepare) and
        # one eigvalsh of the stacked POVM elements; nothing else
        calls = linalg_spy(monkeypatch)
        P.prepare(io.load_bundled(name))
        assert collections.Counter(calls) == {"eigh": 2, "eigvalsh": 1}


GOOD_STATE = np.diag([0.7, 0.3]).astype(complex)
GOOD_ELEMENTS = {"0|0": np.diag([1.0, 0.0]), "1|0": np.diag([0.0, 1.0])}


@pytest.mark.parametrize(
    "state, elements, message",
    [
        (np.diag([0.7, np.nan]), {}, "non-finite entries"),
        (np.array([[0.5, 0.1], [0.0, 0.5]]), {}, "not Hermitian"),
        (np.diag([1.2, -0.2]), {}, "negative eigenvalue -2.000e-01"),
        (np.diag([0.7, 0.7]), {}, "trace 1.4 is not 1"),
        (np.eye(3) / 3, {}, "matrix has 9 entries, expected 4"),
        (GOOD_STATE, {"0|0": np.array([[1.0, 0.0], [0.1, 0.0]])}, "not Hermitian"),
        (
            GOOD_STATE,
            {"0|0": np.diag([1.2, 0.0]), "1|0": np.diag([-0.2, 1.0])},
            "negative eigenvalue -2.000e-01",
        ),
        (GOOD_STATE, {"2|0": np.zeros((2, 2))}, "outside the alphabets"),
        (GOOD_STATE, {"0|0": np.diag([0.5, 0.0])}, "do not sum to the identity"),
    ],
)
def test_validation_is_the_same_on_every_entry_path(state, elements, message):
    """Each contract violation of the state or of the POVM raises one
    message, whether the instance is loaded from a payload or built
    directly and then prepared."""
    elements = {key: np.asarray(m, dtype=complex) for key, m in (GOOD_ELEMENTS | elements).items()}
    state = np.asarray(state, dtype=complex)
    payload = {
        "dims": {"A": 2, "B": 1, "R": 1},
        "state": io.matrix_to_json(state),
        "povm": {
            "alphabetX": ["0", "1"],
            "alphabetY": ["0"],
            "elements": {key: io.matrix_to_json(m) for key, m in elements.items()},
        },
    }
    with pytest.raises(ValueError, match=message) as from_payload:
        io.instance_from_payload(payload)
    with pytest.raises(ValueError) as direct:
        povm = qo.JointPOVM(
            ("0", "1"), ("0",), {qo.split_symbol(key): m for key, m in elements.items()}
        )
        P.prepare(io.Instance(payload["dims"], state, povm))
    assert str(direct.value) == str(from_payload.value)


# a slack's share: the edges on either side of it, or anywhere within 1.5 of it
SHARES = st.one_of(st.sampled_from([-1.01, -0.99, 0.99, 1.01]), st.floats(-1.5, 1.5))


@settings(max_examples=24, derandomize=True, deadline=None, database=None)
@given(
    dims=st.tuples(st.integers(2, 3), st.integers(1, 2), st.integers(1, 2)),
    seed=st.integers(0, 2**16),
    state_share=SHARES,
    complete_share=SHARES,
)
def test_an_instance_that_loads_prepares(dims, seed, state_share, complete_share):
    """A random instance whose state and elements are scaled anywhere
    within 1.5 times their slacks is refused at load, by the check it
    fails, or it prepares and gives thresholds at eps 0.1: ``prepare``
    never refuses what loads."""
    a, b, r = dims
    rng = np.random.default_rng(seed)
    state = oracles.random_density(rng, a * b * r) * (1 + state_share * la.TRACE_SLACK)
    scale = 1 + complete_share * la.COMPLETE_SLACK / math.sqrt(a)
    keys = ("0|0", "0|1", "1|0", "1|1")
    payload = {
        "dims": {"A": a, "B": b, "R": r},
        "state": io.matrix_to_json(state),
        "povm": {
            "alphabetX": ["0", "1"],
            "alphabetY": ["0", "1"],
            "elements": {
                key: io.matrix_to_json(el * scale)
                for key, el in zip(keys, oracles.random_povm(rng, a, len(keys)))
            },
        },
    }
    try:
        inst = io.instance_from_payload(payload)
    except ValueError as err:
        assert "is not 1 within tolerance" in str(err) or "do not sum to the identity" in str(err)
        return
    prep = P.prepare(inst)
    # rho_A, held unchecked, is Hermitian to the bit as the partial trace gives it
    rho_a = prep.spectrum_a[0]
    assert np.array_equal(rho_a, rho_a.conj().T)
    P.thresholds(prep, 0.1)
