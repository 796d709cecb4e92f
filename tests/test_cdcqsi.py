import itertools
import math

import numpy as np
import pytest

from povmcomp import entropies as ent
from povmcomp import qobjects as qo
from povmcomp.protocols import cdc_qsi
from povmcomp.protocols.cdcqsi import sequential_kraus
from povmcomp.protocols.hashing import HashScheme, draw_hash, identity_hash

import oracles


def orthogonal_fixture(n=4):
    """Uniform n-symbol source with orthogonal side-information states."""
    blocks = {}
    for i in range(n):
        b = np.zeros((n, n), dtype=complex)
        b[i, i] = 1.0
        blocks[str(i)] = b
    return qo.CQState(tuple(str(i) for i in range(n)), {str(i): 1.0 / n for i in range(n)}, blocks)


class TestHashScheme:
    def test_two_universal_exact(self):
        # enumerate every (matrix, offset) for n = 2, R = 1: collision
        # probability of any fixed pair must be exactly 2^-R
        n, r = 2, 1
        pairs = [(0, 1), (0, 2), (1, 3), (2, 3)]
        for a, b in pairs:
            collisions = 0
            total = 0
            for bits in itertools.product([0, 1], repeat=n * r + r):
                m = np.array(bits[: n * r], dtype=np.uint8).reshape(r, n)
                o = np.array(bits[n * r :], dtype=np.uint8)
                scheme = HashScheme(r, m, o)
                total += 1
                if scheme.apply(a) == scheme.apply(b):
                    collisions += 1
            assert collisions / total == 0.5

    def test_preimages_match_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            r = int(rng.integers(0, n + 1))
            scheme = draw_hash(n, r, rng)
            table = scheme.fibers(2**n)
            vals = scheme.apply_many(np.arange(2**n)).tolist()
            for i in (0, 2**n - 1, int(rng.integers(2**n))):
                assert scheme.apply(i) == oracles.gf2_hash(scheme.matrix, scheme.offset, i)
            # every fiber is the full preimage of its value, inputs ascending
            for fiber in table:
                val = vals[int(fiber[0])]
                brute = [i for i in range(2**n) if vals[i] == val]
                assert fiber.tolist() == brute
            # the fibers partition the input space, one per realised value
            assert sorted(table.ravel().tolist()) == list(range(2**n))
            assert len(table) == len(set(vals))

    def test_rank_deficient_hash_fibers(self):
        # a repeated row leaves rank 2 of 3 output bits: 2^2 fibers of 2^(5-2)
        a, b = [1, 0, 1, 1, 0], [0, 1, 1, 0, 1]
        matrix = np.array([a, b, a], dtype=np.uint8)
        scheme = HashScheme(3, matrix, np.array([1, 0, 0], dtype=np.uint8))
        table = scheme.fibers(32)
        assert table.shape == (4, 8)
        vals = [oracles.gf2_hash(matrix, scheme.offset, i) for i in range(32)]
        heads = [vals[int(f[0])] for f in table]
        assert heads == sorted(set(vals))
        for fiber, val in zip(table, heads):
            assert fiber.tolist() == [i for i in range(32) if vals[i] == val]

    def test_apply_many_matches_gf2_oracle(self):
        # every input width from 1 to 20 bits, so the last byte of the
        # byte tables is full or partial, with indices 0 and 2^n - 1 in
        # every batch; and a hash to no bits
        rng = np.random.default_rng(5)
        cases = [(4, 0)] + [
            (n, r) for n in range(1, 21) for r in sorted({1, int(rng.integers(1, n + 1)), n})
        ]
        for n, r in cases:
            scheme = draw_hash(n, r, rng)
            top = 2**n - 1
            if n <= 12:
                idx = np.arange(2**n)
            else:
                idx = np.concatenate([[0, top], rng.integers(0, 2**n, size=2000)])
            want = oracles.gf2_hash_many(scheme.matrix, scheme.offset, idx)
            assert np.array_equal(scheme.apply_many(idx), want), (n, r)
            for i in (0, top):
                assert scheme.apply(i) == oracles.gf2_hash(scheme.matrix, scheme.offset, i)

    def test_fibers_of_unequal_size_raise(self):
        # over [0, 3) the map b -> b_0 has fibers {0, 2} and {1}
        scheme = HashScheme(1, np.array([[1, 0]], dtype=np.uint8), np.zeros(1, dtype=np.uint8))
        assert scheme.fibers(4).tolist() == [[0, 2], [1, 3]]
        with pytest.raises(ValueError):
            scheme.fibers(3)

    def test_identity_hash(self):
        scheme = identity_hash(4)
        for i in (0, 5, 11):
            assert scheme.apply(i) == i
        assert scheme.fibers(16).tolist() == [[i] for i in range(16)]


def completeness_residual(kraus):
    total = sum(k.conj().T @ k for k in kraus)
    return np.max(np.abs(total - np.eye(len(total))))


class TestSequentialKraus:
    def test_povm_validity(self):
        rng = np.random.default_rng(2)
        kraus = sequential_kraus([oracles.random_povm(rng, 3, 2)[0] for _ in range(3)])
        assert len(kraus) == 4
        assert completeness_residual(kraus) < 1e-10

    def test_branch_probabilities_sum_to_one(self):
        rng = np.random.default_rng(3)
        kraus = sequential_kraus([oracles.random_povm(rng, 2, 2)[0] for _ in range(2)])
        rho = oracles.random_density(rng, 2)
        probs = [np.trace(k @ rho @ k.conj().T).real for k in kraus]
        assert np.isclose(sum(probs), 1.0, atol=1e-10)

    def test_projective_single_candidate(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        decoded, failure = sequential_kraus([np.diag([1.0, 0.0]).astype(complex)])
        post = decoded @ rho @ decoded.conj().T
        assert np.isclose(np.trace(post).real, 1.0)
        assert np.allclose(post, rho)
        assert np.allclose(failure, 0.0)

    def test_single_candidate_needs_no_measurement(self):
        # a fractional test must not be applied to a lone candidate: the
        # hash already names it, so it decodes with certainty and leaves rho
        kraus = sequential_kraus([0.9 * np.eye(2, dtype=complex)])
        rho = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]], dtype=complex)
        assert len(kraus) == 2
        decoded, failure = kraus
        post = decoded @ rho @ decoded.conj().T
        assert np.isclose(np.trace(post).real, 1.0, atol=1e-12)
        assert np.allclose(post, rho, atol=1e-12)
        assert np.allclose(failure, 0.0)
        assert completeness_residual(kraus) < 1e-12

    @pytest.mark.parametrize("n_cand", [1, 2, 4])
    @pytest.mark.parametrize("d", [2, 3])
    def test_stack_rows_match_single_sequences(self, n_cand, d):
        # a stack of test sequences decodes row by row as the single sequences do
        rng = np.random.default_rng(10 * n_cand + d)
        stack = np.array(
            [
                [[oracles.random_povm(rng, d, 2)[0] for _ in range(n_cand)] for _ in range(3)]
                for _ in range(2)
            ]
        )
        kraus = sequential_kraus(stack)
        assert kraus.shape == (2, 3, n_cand + 1, d, d)
        for row, tests in zip(kraus.reshape(-1, n_cand + 1, d, d), stack.reshape(-1, n_cand, d, d)):
            assert completeness_residual(row) <= 1e-12
            single = sequential_kraus(list(tests))
            want = oracles.sequential_kraus_oracle(list(tests))
            for op, one, ref in zip(row, single, want):
                assert np.array_equal(op, one)
                assert np.array_equal(op, ref)


class TestCdcQsi:
    def test_single_symbol(self):
        cq = qo.CQState(("a",), {"a": 1.0}, {"a": np.eye(2, dtype=complex) / 2})
        out = cdc_qsi(cq, eps=0.1, seed=0, hash_draws=5)
        assert out["rate"] == 0
        assert out["avg_error"] == 0.0

    def test_orthogonal_fixture_bound(self):
        cq = orthogonal_fixture(4)
        out = cdc_qsi(cq, eps=0.1, seed=1, hash_draws=100)
        bound = math.sqrt(0.2) + 0.1
        assert out["rate"] == max(
            0, math.ceil(out["hmax"] - out["i_hyp"] + math.log2(10))
        )
        assert out["avg_error"] <= bound
        assert out["distance"] <= out["distance_bound"]

    def test_trivial_side_info_rate(self):
        # trivial B: buckets must be resolved by rate alone
        blocks = {str(i): np.eye(1, dtype=complex) for i in range(4)}
        cq = qo.CQState(tuple(str(i) for i in range(4)), {str(i): 0.25 for i in range(4)}, blocks)
        out = cdc_qsi(cq, eps=0.1, seed=2, hash_draws=40)
        # I_H against a trivial register is -log2(1-eps)
        assert np.isclose(out["i_hyp"], -math.log2(0.9), atol=1e-9)
        assert out["rate"] == math.ceil(out["hmax"] + math.log2(0.9) + math.log2(10))
        assert out["avg_error"] <= math.sqrt(0.2) + 0.1

    def test_exhaustive_hash_enumeration_small(self):
        # 2-symbol uniform source, trivial B: enumerate every (matrix, offset)
        blocks = {"0": np.eye(1, dtype=complex), "1": np.eye(1, dtype=complex)}
        cq = qo.CQState(("0", "1"), {"0": 0.5, "1": 0.5}, blocks)
        ref = cdc_qsi(cq, eps=0.1, seed=3, hash_draws=400)
        rate, input_bits = ref["rate"], 1
        _, test = ent.i_hyp_cq(cq, 0.1)
        errs = []
        for bits in itertools.product([0, 1], repeat=rate * input_bits + rate):
            m = np.array(bits[: rate * input_bits], dtype=np.uint8).reshape(rate, input_bits)
            o = np.array(bits[rate * input_bits :], dtype=np.uint8)
            scheme = HashScheme(rate, m, o)
            buckets = {}
            for i, sym in enumerate(("0", "1")):
                buckets.setdefault(scheme.apply(i), []).append(sym)
            # each bucket's error is that of the decoder cdc_qsi builds for
            # it: a lone candidate decodes with certainty, while a collision
            # runs the scalar 0.9 tests in turn and can still decode right
            err = 0.0
            for b in buckets.values():
                kraus = sequential_kraus([test.per_symbol[s] for s in sorted(b)])
                for s, k in zip(sorted(b), kraus):
                    correct = np.trace(k @ cq.blocks[s] @ k.conj().T).real
                    err += 0.5 * (1.0 - correct)
            errs.append(err)
        exact = float(np.mean(errs))
        # the per-draw error is 0 or the collision error (about 0.59, hit
        # with probability 2^-rate = 1/32); over 400 draws its mean has a
        # standard deviation of about 0.005, so 0.03 is six of them
        assert abs(ref["avg_error"] - exact) < 0.03

    def test_error_decreases_with_distinguishability(self):
        rng = np.random.default_rng(4)
        mixed = {
            "0": np.diag([0.6, 0.4]).astype(complex),
            "1": np.diag([0.4, 0.6]).astype(complex),
        }
        sharp = {
            "0": np.diag([1.0, 0.0]).astype(complex),
            "1": np.diag([0.0, 1.0]).astype(complex),
        }
        out_m = cdc_qsi(
            qo.CQState(("0", "1"), {"0": 0.5, "1": 0.5}, mixed),
            eps=0.1, seed=5, hash_draws=60, rate_override=0,
        )
        out_s = cdc_qsi(
            qo.CQState(("0", "1"), {"0": 0.5, "1": 0.5}, sharp),
            eps=0.1, seed=5, hash_draws=60, rate_override=0,
        )
        assert out_s["avg_error"] < out_m["avg_error"]

    def test_deterministic_under_seed(self):
        cq = orthogonal_fixture(3)
        a = cdc_qsi(cq, eps=0.1, seed=6, hash_draws=10)
        b = cdc_qsi(cq, eps=0.1, seed=6, hash_draws=10)
        assert a["avg_error"] == b["avg_error"]
        assert a["per_draw_error"] == b["per_draw_error"]
