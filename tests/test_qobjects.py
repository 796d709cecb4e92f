import json

import numpy as np
import pytest

from povmcomp import io, qobjects as qo
from povmcomp import protocols as P

import oracles


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

    def test_exceeding_identity_rejected(self):
        with pytest.raises(ValueError):
            qo.Instrument({("0", "0"): 1.2 * np.eye(2, dtype=complex)})


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
        for s in cq.symbols:
            assert abs(cq.weights[s] - prep.joint.prob(s)) < 1e-10

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
        cq = qo.CQState(
            ("a|0", "a|1", "b|0"),
            {"a|0": 0.25, "a|1": 0.25, "b|0": 0.5},
            {"a|0": b0, "a|1": b1, "b|0": b0},
        )
        grouped = cq.group_symbols(lambda s: qo.split_symbol(s)[0])
        assert grouped.symbols == ("a", "b")
        assert np.isclose(grouped.weights["a"], 0.5)
        assert np.allclose(grouped.blocks["a"], (b0 + b1) / 2)

    def test_embed_parts_matches_kron_oracle(self):
        # symbols u|v|y; "z" has weight 0 and is dropped from the kept register
        rng = np.random.default_rng(10)
        symbols = ("0|a|0", "1|a|1", "0|b|1", "1|b|0", "1|a|0", "0|z|1")
        p = np.append(rng.dirichlet(np.ones(5)), 0.0)
        weights = dict(zip(symbols, p))
        blocks = {s: oracles.random_density(rng, 2) for s in symbols}
        cq = qo.CQState(symbols, weights, blocks)
        out = cq.embed_parts(1, (0, 2))
        slots = ["0|0", "1|1", "0|1", "1|0"]  # (u, y) in order of first appearance
        assert out.symbols == ("a", "b")
        for t in out.symbols:
            w_t = sum(weights[s] for s in symbols if s.split("|")[1] == t)
            assert abs(out.weights[t] - w_t) < 1e-15
            want = np.zeros((8, 8), dtype=complex)
            for s in symbols:
                u, v, y = s.split("|")
                if v == t:
                    proj = np.zeros((4, 4))
                    proj[slots.index(f"{u}|{y}"), slots.index(f"{u}|{y}")] = 1.0
                    want += weights[s] / w_t * oracles.kron_oracle(proj, blocks[s])
            assert np.max(np.abs(out.blocks[t] - want)) < 1e-15

    def test_blocks_checked_one_stack_per_shape(self, monkeypatch):
        # one stacked eigvalsh per block shape, with CQState's 1e-7 tolerance
        calls, eigvalsh = [], np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
        shifted = np.diag([1.0 + 5e-8, -5e-8]).astype(complex)
        blocks = {"a": np.eye(2) / 2, "b": shifted, "c": np.eye(3) / 3}
        qo.CQState(("a", "b", "c"), {"a": 0.25, "b": 0.25, "c": 0.5}, blocks)
        assert calls == [(2, 2, 2), (1, 3, 3)]

    @pytest.mark.parametrize(
        "bad, message",
        [
            (np.diag([1.0 + 2e-7, -2e-7]), "negative eigenvalue"),
            (np.array([[0.5, 0.1], [0.0, 0.5]]), "not Hermitian"),
            (np.diag([np.nan, 1.0]), "non-finite"),
        ],
    )
    def test_rejects_a_bad_block_among_good_ones(self, bad, message):
        blocks = {"a": np.eye(2) / 2, "b": bad.astype(complex), "c": np.eye(2) / 2}
        with pytest.raises(ValueError, match=message):
            qo.CQState(("a", "b", "c"), {"a": 0.25, "b": 0.25, "c": 0.5}, blocks)

    def test_dense_layout(self):
        cq = qo.CQState(
            ("u", "v"),
            {"u": 0.5, "v": 0.5},
            {"u": np.eye(2, dtype=complex) / 2, "v": np.diag([1.0, 0.0]).astype(complex)},
        )
        dense = cq.dense()
        assert dense.shape == (4, 4)
        assert np.isclose(np.trace(dense).real, 1.0)


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
