import itertools

import numpy as np
import pytest

from povmcomp.protocols.compose import sequential_kraus
from povmcomp.protocols.hashing import HashScheme, draw_hash, identity_hash

import oracles


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

    def test_byte_tables_are_built_once_per_scheme(self):
        # fibers and apply share one set of tables, kept on the scheme
        scheme = draw_hash(12, 5, np.random.default_rng(8))
        scheme.fibers(2**12)
        tables = scheme.__dict__["_tables"]
        for i in (0, 77, 2**12 - 1):
            assert scheme.apply(i) == oracles.gf2_hash(scheme.matrix, scheme.offset, i)
        assert scheme.__dict__["_tables"] is tables

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
