import numpy as np
import pytest

from povmcomp import linalg as la

import oracles


def bell_state():
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / np.sqrt(2)
    return np.outer(v, v.conj())


class TestTensor:
    def test_identity(self):
        assert np.allclose(la.tensor(np.eye(2), np.eye(2)), np.eye(4))

    def test_basis_bookkeeping(self):
        out = la.tensor(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        assert np.allclose(out, np.diag([0.0, 1.0, 0.0, 0.0]))

    def test_random_pair_vs_oracle(self):
        rng = np.random.default_rng(7)
        a = oracles.random_hermitian(rng, 2)
        b = oracles.random_hermitian(rng, 2)
        out = la.tensor(a, b)
        assert np.allclose(out, oracles.kron_oracle(a, b))
        assert np.max(np.abs(out - out.conj().T)) < 1e-12
        assert np.isclose(np.trace(out), np.trace(a) * np.trace(b))


class TestPartialTrace:
    def test_product_case(self):
        rng = np.random.default_rng(0)
        rho = oracles.random_density(rng, 2)
        sig = oracles.random_density(rng, 3)
        lay = la.layout(("A", 2), ("B", 3))
        out = la.partial_trace(la.tensor(rho, sig), lay, keep=["A"])
        assert np.allclose(out, rho)

    def test_bell_keep_a(self):
        lay = la.layout(("A", 2), ("B", 2))
        out = la.partial_trace(bell_state(), lay, keep=["A"])
        assert np.allclose(out, np.eye(2) / 2)

    def test_random_23_vs_oracle(self):
        rng = np.random.default_rng(1)
        rho = oracles.random_density(rng, 6)
        lay = la.layout(("A", 2), ("B", 3))
        out = la.partial_trace(rho, lay, keep=["B"])
        assert np.allclose(out, oracles.partial_trace_oracle(rho, [2, 3], [1]))
        assert abs(np.trace(out).real - 1.0) < 1e-12
        assert oracles.min_eig(out) > -1e-12

    def test_unknown_label(self):
        lay = la.layout(("A", 2), ("B", 2))
        with pytest.raises(ValueError):
            la.partial_trace(np.eye(4), lay, keep=["C"])

    def test_fuzz_trace_and_psd(self):
        rng = np.random.default_rng(2)
        lay = la.layout(("A", 2), ("B", 2), ("C", 3))
        for _ in range(1000):
            rho = oracles.random_density(rng, 12)
            out = la.partial_trace(rho, lay, keep=["A", "C"])
            assert abs(np.trace(out).real - np.trace(rho).real) < 1e-9
            assert oracles.min_eig(out) > -1e-9


class TestTraceNorm:
    def test_same_state(self):
        rng = np.random.default_rng(4)
        rho = oracles.random_density(rng, 3)
        assert la.trace_norm_distance(rho, rho) == 0.0

    def test_orthogonal_pure(self):
        assert np.isclose(la.trace_norm_distance(np.diag([1.0, 0]), np.diag([0, 1.0])), 2.0)

    def test_diagonal_example(self):
        assert np.isclose(la.trace_norm_distance(np.diag([0.7, 0.3]), np.diag([0.5, 0.5])), 0.4)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            la.trace_norm_distance(np.eye(2), np.eye(3))

    def test_projector_oracle_commuting(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            p = rng.dirichlet(np.ones(6))
            q = rng.dirichlet(np.ones(6))
            lhs = la.trace_norm_distance(np.diag(p), np.diag(q))
            assert np.isclose(lhs, oracles.trace_norm_subset_oracle(p - q), atol=1e-12)


class TestFidelity:
    def test_self(self):
        rng = np.random.default_rng(6)
        rho = oracles.random_density(rng, 4)
        assert np.isclose(la.fidelity(rho, rho), 1.0, atol=1e-10)
        assert np.isclose(la.purified_distance(rho, rho), 0.0, atol=1e-5)

    def test_analytic_overlap(self):
        plus = np.full((2, 2), 0.5, dtype=complex)
        zero = np.diag([1.0, 0.0]).astype(complex)
        assert np.isclose(la.fidelity(zero, plus), 1 / np.sqrt(2))
        assert np.isclose(la.purified_distance(zero, plus), 1 / np.sqrt(2))

    def test_random_qubits_vs_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a = oracles.random_density(rng, 2)
            b = oracles.random_density(rng, 2)
            assert np.isclose(la.fidelity(a, b), oracles.fidelity_oracle(a, b), atol=1e-8)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            a = oracles.random_density(rng, 3)
            b = oracles.random_density(rng, 3)
            c = oracles.random_density(rng, 3)
            assert la.purified_distance(a, c) <= (
                la.purified_distance(a, b) + la.purified_distance(b, c) + 1e-8
            )


class TestSqrt:
    def test_diagonal(self):
        assert np.allclose(la.matrix_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    def test_pinv_sqrt_kernel(self):
        assert np.allclose(la.pseudo_inverse_sqrt(np.diag([1.0, 0.0])), np.diag([1.0, 0.0]))

    def test_reconstruction(self):
        rng = np.random.default_rng(9)
        rho = oracles.random_density(rng, 4)
        s = la.matrix_sqrt(rho)
        assert np.max(np.abs(s @ s - rho)) < 1e-9

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            la.matrix_sqrt(np.diag([1.0, -1e-3]))


class TestPurify:
    def test_pure_input_is_product(self):
        v = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
        rho = np.outer(v, v.conj())
        psi = la.purify(rho)
        mat = psi.reshape(2, 2)
        assert np.linalg.matrix_rank(np.round(mat, 10)) == 1

    def test_maximally_mixed_gives_bell_type(self):
        psi = la.purify(np.eye(2) / 2)
        red = oracles.partial_trace_oracle(np.outer(psi, psi.conj()), [2, 2], [0])
        assert np.allclose(red, np.eye(2) / 2, atol=1e-10)

    def test_random_qutrit_reduction(self):
        rng = np.random.default_rng(10)
        rho = oracles.random_density(rng, 3)
        psi = la.purify(rho)
        red = oracles.partial_trace_oracle(np.outer(psi, psi.conj()), [3, 3], [0])
        assert np.max(np.abs(red - rho)) < 1e-10

    def test_truncated_rank(self):
        rng = np.random.default_rng(11)
        rho = oracles.random_density(rng, 4, rank=2)
        psi = la.purify(rho, truncate=True)
        assert psi.size == 4 * 2
        red = oracles.partial_trace_oracle(np.outer(psi, psi.conj()), [4, 2], [0])
        assert np.max(np.abs(red - rho)) < 1e-10


class TestUhlmann:
    def test_partner_of_own_state(self):
        rng = np.random.default_rng(12)
        rho = oracles.random_density(rng, 3)
        psi = la.purify(rho)
        phi = la.uhlmann_partner(psi, rho)
        assert np.isclose(abs(np.vdot(phi, psi)), 1.0, atol=1e-8)

    def test_orthogonal_supports(self):
        psi = la.purify(np.diag([1.0, 0.0]).astype(complex))
        phi = la.uhlmann_partner(psi, np.diag([0.0, 1.0]).astype(complex))
        assert abs(np.vdot(phi, psi)) < 1e-10
        red = oracles.partial_trace_oracle(np.outer(phi, phi.conj()), [2, 2], [0])
        assert np.allclose(red, np.diag([0.0, 1.0]), atol=1e-10)

    def test_overlap_equals_fidelity(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            rho = oracles.random_density(rng, 2)
            tgt = oracles.random_density(rng, 2)
            psi = la.purify(rho)
            phi = la.uhlmann_partner(psi, tgt)
            red = oracles.partial_trace_oracle(np.outer(phi, phi.conj()), [2, 2], [0])
            assert np.max(np.abs(red - tgt)) < 1e-8
            ov = np.vdot(phi, psi)
            assert abs(ov.imag) < 1e-8 and ov.real > -1e-12
            assert np.isclose(ov.real, oracles.fidelity_oracle(rho, tgt), atol=1e-7)

    def test_purifying_dim_too_small(self):
        psi = np.array([1.0, 0.0], dtype=complex)  # system 2, mirror 1
        with pytest.raises(ValueError):
            la.uhlmann_partner(psi, np.eye(2, dtype=complex) / 2)
