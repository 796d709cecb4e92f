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

    def test_stack_matches_members(self):
        # a (2, 3, 12, 12) stack traced at once: each member's result is the
        # oracle's, and its own single-matrix call's to the bit
        rng = np.random.default_rng(3)
        lay = la.layout(("A", 2), ("B", 2), ("C", 3))
        stack = np.array([[oracles.random_density(rng, 12) for _ in range(3)] for _ in range(2)])
        out = la.partial_trace(stack, lay, keep=["C", "A"])
        assert out.shape == (2, 3, 6, 6)
        for got, member in zip(out.reshape(-1, 6, 6), stack.reshape(-1, 12, 12)):
            assert np.allclose(got, oracles.partial_trace_oracle(member, [2, 2, 3], [0, 2]))
            assert np.array_equal(got, la.partial_trace(member, lay, keep=["A", "C"]))

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
        assert oracles.trace_norm_distance(rho, rho) == 0.0

    def test_orthogonal_pure(self):
        assert np.isclose(oracles.trace_norm_distance(np.diag([1.0, 0]), np.diag([0, 1.0])), 2.0)

    def test_diagonal_example(self):
        got = oracles.trace_norm_distance(np.diag([0.7, 0.3]), np.diag([0.5, 0.5]))
        assert np.isclose(got, 0.4)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            oracles.trace_norm_distance(np.eye(2), np.eye(3))

    def test_projector_oracle_commuting(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            p = rng.dirichlet(np.ones(6))
            q = rng.dirichlet(np.ones(6))
            lhs = oracles.trace_norm_distance(np.diag(p), np.diag(q))
            assert np.isclose(lhs, oracles.trace_norm_subset_oracle(p - q), atol=1e-12)

    def test_stack_matches_members(self):
        rng = np.random.default_rng(15)
        stack = np.array([oracles.random_hermitian(rng, 3) for _ in range(5)])
        got = la.trace_norm_many(stack)
        assert got.shape == (5,)
        assert got.tolist() == [oracles.trace_norm_oracle(m) for m in stack]
        assert got.tolist() == [la.trace_norm(m) for m in stack]
        assert la.trace_norm_many(np.zeros((0, 3, 3))).shape == (0,)


class TestFidelity:
    """``oracles.fidelity``, the nuclear norm of the product of the roots,
    against the ``sqrtm`` form of ``oracles.fidelity_oracle``; smoothing
    reaches fidelity only through its SDP, so the library has no routine."""

    def test_self(self):
        rng = np.random.default_rng(6)
        rho = oracles.random_density(rng, 4)
        assert np.isclose(oracles.fidelity(rho, rho), 1.0, atol=1e-10)
        assert np.isclose(oracles.purified_distance(oracles.fidelity(rho, rho)), 0.0, atol=1e-5)

    def test_analytic_overlap(self):
        plus = np.full((2, 2), 0.5, dtype=complex)
        zero = np.diag([1.0, 0.0]).astype(complex)
        assert np.isclose(oracles.fidelity(zero, plus), 1 / np.sqrt(2))
        assert np.isclose(oracles.purified_distance(oracles.fidelity(zero, plus)), 1 / np.sqrt(2))

    def test_random_qubits_vs_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a = oracles.random_density(rng, 2)
            b = oracles.random_density(rng, 2)
            assert np.isclose(oracles.fidelity(a, b), oracles.fidelity_oracle(a, b), atol=1e-8)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            a = oracles.random_density(rng, 3)
            b = oracles.random_density(rng, 3)
            c = oracles.random_density(rng, 3)
            ac, ab, bc = (
                oracles.purified_distance(oracles.fidelity(x, y)) for x, y in ((a, c), (a, b), (b, c))
            )
            assert ac <= ab + bc + 1e-8


class TestSqrt:
    def test_diagonal(self):
        assert np.allclose(la.matrix_sqrt_many(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    def test_pinv_sqrt_kernel(self):
        w, v = np.linalg.eigh(np.diag([1.0, 0.0]))
        assert np.allclose(la._pinv_root(w, v), np.diag([1.0, 0.0]))

    def test_reconstruction(self):
        rng = np.random.default_rng(9)
        rho = oracles.random_density(rng, 4)
        s = la.matrix_sqrt_many(rho)
        assert np.max(np.abs(s @ s - rho)) < 1e-9

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            la.matrix_sqrt_many(np.diag([1.0, -1e-3]))

    def test_stack_matches_members(self):
        # one stacked eigh gives each member's root bit for bit
        rng = np.random.default_rng(16)
        stack = np.array([oracles.random_density(rng, 3, rank=1 + i % 3) for i in range(6)])
        roots = la.matrix_sqrt_many(stack)
        assert roots.shape == stack.shape
        for root, member in zip(roots, stack):
            assert np.array_equal(root, oracles.psd_sqrt_oracle(member))

    def test_stack_keeps_the_psd_check(self):
        stack = np.array([np.eye(2), np.diag([1.0, -1e-3]), np.eye(2)])
        with pytest.raises(ValueError, match="negative eigenvalue"):
            la.matrix_sqrt_many(stack)
        # within assert_psd's tolerance the member is clamped, not refused
        root = la.matrix_sqrt_many(np.diag([1.0, -1e-9])[None])
        assert np.array_equal(root, np.diag([1.0, 0.0])[None])
        with pytest.raises(ValueError, match="square"):
            la.matrix_sqrt_many(np.ones((2, 2, 3)))


class TestPurify:
    """``la.purify``: the purification from a matrix's eigenpairs, its
    mirror cut down to the rank."""

    def test_pure_input_is_product(self):
        # a one-dimensional mirror: the state itself, up to a phase
        v = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
        psi = la.purify(*np.linalg.eigh(np.outer(v, v.conj())))
        assert psi.size == 2
        assert np.isclose(abs(np.vdot(psi, v)), 1.0)

    def test_maximally_mixed_gives_bell_type(self):
        psi = la.purify(*np.linalg.eigh(np.eye(2, dtype=complex) / 2))
        red = oracles.partial_trace_oracle(np.outer(psi, psi.conj()), [2, 2], [0])
        assert np.allclose(red, np.eye(2) / 2, atol=1e-10)

    def test_random_qutrit_reduction(self):
        rng = np.random.default_rng(10)
        rho = oracles.random_density(rng, 3)
        psi = la.purify(*np.linalg.eigh(rho))
        red = oracles.partial_trace_oracle(np.outer(psi, psi.conj()), [3, 3], [0])
        assert np.max(np.abs(red - rho)) < 1e-10

    def test_truncated_rank(self):
        rng = np.random.default_rng(11)
        rho = oracles.random_density(rng, 4, rank=2)
        psi = la.purify(*np.linalg.eigh(rho))
        assert psi.size == 4 * 2
        red = oracles.partial_trace_oracle(np.outer(psi, psi.conj()), [4, 2], [0])
        assert np.max(np.abs(red - rho)) < 1e-10

    def test_zero_operator_refused(self):
        with pytest.raises(ValueError, match="zero operator"):
            la.purify(*np.linalg.eigh(np.zeros((2, 2), dtype=complex)))


class TestUhlmann:
    """``oracles.uhlmann_partner``, the reference ``covering.good_sets`` is
    checked against."""

    def test_partner_of_own_state(self):
        rng = np.random.default_rng(12)
        rho = oracles.random_density(rng, 3)
        psi = oracles.sqrt_purify(rho)
        phi = oracles.uhlmann_partner(psi, rho)
        assert np.isclose(abs(np.vdot(phi, psi)), 1.0, atol=1e-8)

    def test_orthogonal_supports(self):
        psi = oracles.sqrt_purify(np.diag([1.0, 0.0]).astype(complex))
        phi = oracles.uhlmann_partner(psi, np.diag([0.0, 1.0]))
        assert abs(np.vdot(phi, psi)) < 1e-10
        red = oracles.partial_trace_oracle(np.outer(phi, phi.conj()), [2, 2], [0])
        assert np.allclose(red, np.diag([0.0, 1.0]), atol=1e-10)

    def test_overlap_equals_fidelity(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            rho = oracles.random_density(rng, 2)
            tgt = oracles.random_density(rng, 2)
            psi = oracles.sqrt_purify(rho)
            phi = oracles.uhlmann_partner(psi, tgt)
            red = oracles.partial_trace_oracle(np.outer(phi, phi.conj()), [2, 2], [0])
            assert np.max(np.abs(red - tgt)) < 1e-8
            ov = np.vdot(phi, psi)
            assert abs(ov.imag) < 1e-8 and ov.real > -1e-12
            assert np.isclose(ov.real, oracles.fidelity_oracle(rho, tgt), atol=1e-7)

    def test_purifying_dim_too_small(self):
        psi = np.array([1.0, 0.0], dtype=complex)  # system 2, mirror 1
        with pytest.raises(ValueError):
            oracles.uhlmann_partner(psi, np.eye(2) / 2)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: la.as_matrix(np.zeros((2, 3))), "expected a square matrix"),
        (lambda: la.layout(("A", 2), ("A", 3)), "duplicate factor labels"),
        (lambda: la.layout(("A", 2), ("B", 0)), "dimensions must be >= 1"),
        (
            lambda: la.partial_trace(np.eye(3), la.layout(("A", 2), ("B", 2)), ["A"]),
            "operator dim 3 != layout dim 4",
        ),
        (
            lambda: oracles.uhlmann_partner(np.ones(5), np.eye(2) / 2),
            "not divisible by the target dimension",
        ),
    ],
    ids=["non_square", "duplicate_label", "zero_dimension", "partial_trace_dim", "psi_length"],
)
def test_malformed_inputs_are_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call()
