import numpy as np
import pytest

from povmcomp import entropies as ent
from povmcomp import io, sdp
from povmcomp.protocols import prep as prep_mod

import oracles


def feasibility_x_in_box(dim, target_trace):
    """find X PSD, X <= I, Tr X = target_trace"""
    prob = sdp.SDProblem()
    prob.add_var("X", dim)
    prob.require_psd(sdp.AffineExpr.zero(dim).plus_var("X"))
    prob.require_psd(sdp.AffineExpr.const_expr(np.eye(dim)).plus_var("X", -1.0))
    prob.require_eq(sdp.trace_functional("X", dim, const=-float(target_trace)))
    return prob


def marginal_kron_problem(p):
    """X on C^2 (x) C^3 with 1.7 X - 0.4 p (x) Tr_1 X and 0.9 p (x) X PSD, Tr X = 1."""
    prob = sdp.SDProblem()
    prob.add_var("X", 6)
    expr = sdp.AffineExpr.zero(6).plus_var("X", 1.7)
    expr.plus_marginal_product(p, "X", (2, 3), coeff=-0.4)
    prob.require_psd(expr)
    expr2 = sdp.AffineExpr.zero(12).plus_kron(p, "X", coeff=0.9)
    prob.require_psd(expr2)
    prob.require_eq(sdp.trace_functional("X", 6, const=-1.0))
    return prob, expr, expr2


def interleaved_blocks_problem():
    """PSD blocks of dimensions 2, 3, 2, 4, 3 in that order, plus two
    scalar inequalities."""
    prob = sdp.SDProblem()
    prob.add_var("X", 2)
    prob.add_var("Y", 3)
    prob.add_var("W", 4)
    prob.require_psd(sdp.AffineExpr.zero(2).plus_var("X"))
    prob.require_psd(sdp.AffineExpr.zero(3).plus_var("Y"))
    prob.require_psd(sdp.AffineExpr.const_expr(np.eye(2)).plus_var("X", -1.0))
    prob.require_psd(sdp.AffineExpr.zero(4).plus_var("W"))
    prob.require_psd(sdp.AffineExpr.const_expr(np.eye(3)).plus_var("Y", -1.0))
    prob.require_geq(sdp.trace_functional("X", 2, const=-0.5))
    prob.require_geq(sdp.trace_functional("W", 4, coeff=-1.0, const=2.0))
    prob.require_eq(sdp.trace_functional("Y", 3, const=-1.0))
    return prob


def named_problem(which):
    if which == "box":
        return feasibility_x_in_box(3, 3)
    if which == "interleaved":
        return interleaved_blocks_problem()
    if which == "marginal_kron_psd":
        # a density matrix p, so that X = I/6 is feasible
        return marginal_kron_problem(oracles.random_density(np.random.default_rng(0), 2))[0]
    # an indefinite p: p (x) X PSD forces X = 0 against Tr X = 1, so infeasible
    return marginal_kron_problem(oracles.random_hermitian(np.random.default_rng(0), 2))[0]


def captured_problem(fn, *args):
    """The first SDProblem that fn(*args) builds a Session for; fn is cut
    short there."""

    class Captured(Exception):
        pass

    def capture(self, prob, max_iter=sdp.MAX_ITER):
        raise Captured(prob)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sdp.Session, "__init__", capture)
        with pytest.raises(Captured) as info:
            fn(*args)
    return info.value.args[0]


def kernel_problem(which):
    """Problems covering every Term kind: "ball_cap" is d_max_smooth's
    fidelity-ball program with its cap (id, kron, subblock_conj),
    "dense_tilde" i_max_tilde's program for a state that is not cq
    (kron, marginal_product)."""
    rng = np.random.default_rng(11)
    if which == "ball_cap":
        rho = oracles.random_density(rng, 3, rank=2)
        return captured_problem(ent.d_max_smooth, rho, oracles.random_density(rng, 3), 0.1)
    if which == "dense_tilde":
        return captured_problem(ent.i_max_tilde, oracles.random_density(rng, 4), (2, 2), 0.1)
    return named_problem(which)


KERNEL_PROBLEMS = ["box", "interleaved", "marginal_kron", "ball_cap", "dense_tilde"]


def fires(gap, resid):
    return gap > 0 and resid <= sdp.WITNESS_RATIO * gap


class TestAdjoints:
    def test_probed_linear_map_matches_terms(self):
        rng = np.random.default_rng(0)
        p = oracles.random_hermitian(rng, 2)
        prob, expr, expr2 = marginal_kron_problem(p)
        sess = sdp.Session(prob)
        for _ in range(5):
            x = oracles.random_hermitian(rng, 6)
            probed = sess.g_graph @ sdp.herm_to_rvec(x)
            direct = np.concatenate(
                [
                    sdp.herm_to_rvec(expr.evaluate_linear({"X": x})),
                    sdp.herm_to_rvec(expr2.evaluate_linear({"X": x})),
                ]
            )
            assert np.max(np.abs(probed - direct)) < 1e-10

    def test_rvec_isometry(self):
        rng = np.random.default_rng(1)
        a = oracles.random_hermitian(rng, 4)
        b = oracles.random_hermitian(rng, 4)
        va, vb = sdp.herm_to_rvec(a), sdp.herm_to_rvec(b)
        assert np.isclose(va @ vb, np.real(np.sum(a.conj() * b)), atol=1e-12)
        assert np.allclose(sdp.rvec_to_herm(va, 4), a)


class TestBatchedCone:
    """The batched cone projection is bit-identical to the per-block loop."""

    def test_batched_maps_equal_single_calls(self):
        rng = np.random.default_rng(6)
        for d in (1, 2, 3, 5):
            mats = np.stack([oracles.random_hermitian(rng, d) for _ in range(4)])
            vecs = sdp.herm_to_rvec(mats)
            assert vecs.shape == (4, d * d)
            assert np.array_equal(vecs, np.stack([sdp.herm_to_rvec(m) for m in mats]))
            back = sdp.rvec_to_herm(vecs, d)
            assert back.shape == (4, d, d)
            assert np.array_equal(back, np.stack([sdp.rvec_to_herm(v, d) for v in vecs]))
            assert np.allclose(back, mats, atol=1e-14)

    def test_projection_matches_per_block_oracle(self):
        # the d >= 3 blocks keep the oracle's eigh bits; the 2x2 blocks are
        # projected in closed form, so they match it to rounding
        sess = sdp.Session(interleaved_blocks_problem())
        assert sess.block_dims == [2, 3, 2, 4, 3]
        small = small_block_slots(sess)
        rng = np.random.default_rng(7)
        for _ in range(20):
            y = rng.normal(size=sess.total)
            got, want = sess.project_cone(y), oracles.project_cone_per_block(sess, y)
            assert np.array_equal(got[~small], want[~small])
            tol = 1e-14 * (1.0 + np.linalg.norm(y[small]))
            assert np.max(np.abs(got[small] - want[small])) <= tol
            assert sess.cone_violation(y) == pytest.approx(
                oracles.cone_violation_per_block(sess, y), abs=tol
            )

    @pytest.mark.parametrize("which", ["box", "marginal_kron", "interleaved"])
    def test_solve_identical_to_per_block_oracle(self, which, monkeypatch):
        batched = sdp.solve(named_problem(which))
        monkeypatch.setattr(sdp.Session, "project_cone", oracles.project_cone_per_block)
        monkeypatch.setattr(sdp.Session, "cone_violation", oracles.cone_violation_per_block)
        looped = sdp.solve(named_problem(which))
        assert batched.status == looped.status
        assert batched.iterations == looped.iterations
        if looped.warm is None:
            assert batched.warm is None
        else:
            assert batched.warm.tobytes() == looped.warm.tobytes()
        for lab, mat in looped.assignment.items():
            assert batched.assignment[lab].tobytes() == mat.tobytes()


def small_block_slots(sess) -> np.ndarray:
    """Mask of the iterate slots that belong to PSD blocks of dimension <= 2."""
    mask = np.zeros(sess.total, dtype=bool)
    pos = sess.n_vars
    for d in sess.block_dims:
        mask[pos : pos + d * d] = d <= 2
        pos += d * d
    return mask


def small_blocks_problem(n_pairs):
    """X on C^2 required PSD n_pairs times as a 2x2 block and as its 1x1
    trailing entry, Tr X = 1."""
    prob = sdp.SDProblem()
    prob.add_var("X", 2)
    for _ in range(n_pairs):
        prob.require_psd(sdp.AffineExpr.zero(2).plus_var("X"))
        prob.require_psd(sdp.AffineExpr.zero(1).plus_subblock("X", 1, np.eye(1)))
    prob.require_eq(sdp.trace_functional("X", 2, const=-1.0))
    return prob


def special_2x2_blocks(rng):
    """2x2 Hermitian blocks on and around the cases of the closed form."""
    u = rng.normal(size=2) + 1j * rng.normal(size=2)
    u /= np.linalg.norm(u)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    tiny = np.array([[0.0, 1e-300 + 1e-300j], [1e-300 - 1e-300j, 0.0]])
    small = np.array([[0.0, 1e-9 - 2e-9j], [1e-9 + 2e-9j, 0.0]])
    return [
        a @ a.conj().T,  # PSD
        -(a @ a.conj().T),  # NSD
        2.5 * np.outer(u, u.conj()),  # rank one: the smaller eigenvalue is 0
        -2.5 * np.outer(u, u.conj()),
        np.diag([1.7, 0.0]),  # rank one, exactly
        np.diag([0.0, -0.3]),
        3.0 * np.eye(2),  # multiples of I: r = 0
        -0.4 * np.eye(2),
        np.zeros((2, 2)),
        np.diag([1.0, -1.0]) + tiny,  # tiny off-diagonal parts
        np.diag([0.5, 0.5]) + small,
        np.diag([-0.5, -0.5]) + small,
        np.diag([1e-12, -1e-12]) + small,
        np.diag([2.0, -3.0]) + small,
    ]


class TestSmallBlockKernel:
    """The closed-form projection of the 1x1 and 2x2 PSD blocks."""

    @staticmethod
    def blocks_in_iterate(sess, blocks):
        """An iterate whose 2x2 slots hold ``blocks`` and whose 1x1 slots
        hold the blocks' (1, 0) real parts."""
        y = np.zeros(sess.total)
        pos = sess.n_vars
        for d, block in zip(sess.block_dims, np.repeat(blocks, 2, axis=0)):
            y[pos : pos + d * d] = sdp.herm_to_rvec(block) if d == 2 else block[1, 0].real
            pos += d * d
        return y

    def random_blocks(self, rng):
        blocks = [oracles.random_hermitian(rng, 2) * scale for scale in (1e-8, 1.0, 1e4)]
        return blocks + special_2x2_blocks(rng)

    def test_matches_eigh_projection(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            blocks = self.random_blocks(rng)
            sess = sdp.Session(small_blocks_problem(len(blocks)))
            y = self.blocks_in_iterate(sess, blocks)
            got, want = sess.project_cone(y), oracles.project_cone_per_block(sess, y)
            pos = sess.n_vars
            for d, block in zip(sess.block_dims, np.repeat(blocks, 2, axis=0)):
                part = slice(pos, pos + d * d)
                tol = 1e-14 * (1.0 + np.linalg.norm(y[part]))
                assert np.max(np.abs(got[part] - want[part])) <= tol, block
                pos += d * d

    def test_psd_blocks_are_kept_and_nsd_blocks_cleared(self):
        rng = np.random.default_rng(13)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        blocks = [a @ a.conj().T, np.diag([1.7, 0.0]), -(a @ a.conj().T), -0.4 * np.eye(2)]
        sess = sdp.Session(small_blocks_problem(len(blocks)))
        y = self.blocks_in_iterate(sess, blocks)
        out = sess.project_cone(y)
        n = sess.n_vars
        assert np.array_equal(out[n : n + 4], y[n : n + 4])
        assert np.array_equal(out[n + 5 : n + 9], y[n + 5 : n + 9])
        assert not np.any(out[n + 10 : n + 14]) and not np.any(out[n + 15 : n + 19])

    @pytest.mark.parametrize("which", ["small", "interleaved"])
    def test_moreau_identities(self, which):
        # y = P(y) - P(-y) and <P(y), P(-y)> = 0 on the cone slots
        rng = np.random.default_rng(14)
        blocks = self.random_blocks(rng)
        if which == "small":
            sess = sdp.Session(small_blocks_problem(len(blocks)))
            ys = [self.blocks_in_iterate(sess, blocks)]
        else:
            sess = sdp.Session(interleaved_blocks_problem())
            ys = []
        ys += [rng.normal(size=sess.total) for _ in range(10)]
        n = sess.n_vars
        for y in ys:
            plus, minus = sess.project_cone(y)[n:], sess.project_cone(-y)[n:]
            tol = 1e-14 * (1.0 + np.linalg.norm(y[n:]))
            assert np.max(np.abs(plus - minus - y[n:])) <= tol
            assert abs(plus @ minus) <= tol * (1.0 + np.linalg.norm(y[n:]))

    def test_cone_violation_is_minus_least_eigenvalue(self):
        rng = np.random.default_rng(15)
        for _ in range(30):
            blocks = self.random_blocks(rng)
            sess = sdp.Session(small_blocks_problem(len(blocks)))
            y = self.blocks_in_iterate(sess, blocks)
            least = min(
                min(np.linalg.eigvalsh(b)[0] for b in blocks),
                min(b[1, 0].real for b in blocks),
            )
            tol = 1e-14 * (1.0 + np.abs(y).max())
            assert sess.cone_violation(y) == pytest.approx(max(-least, 0.0), abs=tol)


class TestFusedAffine:
    """The one-map affine projection against the factored three-step one."""

    @pytest.mark.parametrize("which", KERNEL_PROBLEMS)
    def test_matches_factored_and_lands_on_the_affine_set(self, which):
        sess = sdp.Session(kernel_problem(which))
        rng = np.random.default_rng(8)
        n = sess.n_vars
        for _ in range(10):
            y = rng.normal(size=sess.total)
            fused = sess.project_affine(y)
            assert np.max(np.abs(fused - oracles.project_affine_factored(sess, y))) <= 1e-12
            x, s = fused[:n], fused[n:]
            assert np.max(np.abs(sess.g_graph @ x + sess.c_graph - s), initial=0.0) <= 1e-12
            assert np.max(np.abs(sess.g_eq @ x + sess.c_eq), initial=0.0) <= 1e-12
            assert np.max(np.abs(sess.project_affine(fused) - fused)) <= 1e-12

    def test_offset_follows_update_constants(self):
        sess = sdp.Session(feasibility_x_in_box(3, 3))
        sess.update_constants(feasibility_x_in_box(3, 1.5))
        y = np.random.default_rng(9).normal(size=sess.total)
        fused = sess.project_affine(y)
        assert np.max(np.abs(fused - oracles.project_affine_factored(sess, y))) <= 1e-12
        assert abs(np.trace(sdp.rvec_to_herm(fused[:9], 3)).real - 1.5) <= 1e-12

    @pytest.mark.parametrize(
        "other",
        [
            feasibility_x_in_box(4, 3),
            interleaved_blocks_problem(),
            marginal_kron_problem(np.eye(2))[0],
        ],
    )
    def test_update_constants_rejects_another_structure(self, other):
        sess = sdp.Session(feasibility_x_in_box(3, 3))
        with pytest.raises(ValueError, match="structure"):
            sess.update_constants(other)

    def test_update_constants_rejects_other_counts(self):
        sess = sdp.Session(feasibility_x_in_box(3, 3))
        extra_geq = feasibility_x_in_box(3, 3)
        extra_geq.require_geq(sdp.trace_functional("X", 3))
        extra_eq = feasibility_x_in_box(3, 3)
        extra_eq.require_eq(sdp.trace_functional("X", 3, const=-3.0))
        for prob in (extra_geq, extra_eq):
            with pytest.raises(ValueError, match="structure"):
                sess.update_constants(prob)


class TestBatchedProbe:
    """Set-up probing over stacked bases equals the per-basis prober."""

    @pytest.mark.parametrize("which", KERNEL_PROBLEMS)
    def test_columns_equal_per_basis_prober(self, which):
        sess = sdp.Session(kernel_problem(which))
        assert np.array_equal(sess._columns(), oracles.probe_columns_per_basis(sess))

    def test_every_term_kind_is_probed(self):
        kinds = {
            t.kind
            for which in KERNEL_PROBLEMS
            for expr in kernel_problem(which).psd_constraints
            for t in expr.terms
        }
        assert kinds == {"id", "kron", "marginal_product", "subblock_conj"}

    def test_batched_apply_equals_per_matrix_calls(self):
        rng = np.random.default_rng(10)
        left = oracles.random_hermitian(rng, 2)
        rot = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
        terms = [
            sdp.Term("X", "id", -0.7),
            sdp.Term("X", "kron", 1.3, left=left),
            sdp.Term("X", "marginal_product", 0.9, left=left, split=(2, 3)),
            sdp.Term("X", "subblock_conj", -1.1, left=rot, split=(2,)),
        ]
        stack = np.stack([oracles.random_hermitian(rng, 6) for _ in range(5)])
        for t in terms:
            batched = t.apply(stack)
            assert np.array_equal(batched, np.stack([t.apply(m) for m in stack]))
        # the kron term keeps np.kron's products
        assert np.array_equal(terms[1].apply(stack[0]), 1.3 * np.kron(left, stack[0]))


class TestKernelVerdicts:
    def test_smoothing_identical_with_oracle_kernels(self, monkeypatch):
        """i_max_smooth of qubit_entangled_side_info's X env state keeps its
        bytes, and every solve its status and iteration count, when the
        session runs on the factored projection and the per-basis prober."""
        prep = prep_mod.prepare(io.load_bundled("qubit_entangled_side_info"))
        cq = prep_mod._x_env_cq(prep)
        args = (cq.dense(), (len(cq.symbols), prep.dim_e), 0.1)
        solve = sdp.Session.solve

        def run():
            verdicts = []

            def recording_solve(self, warm=None):
                res = solve(self, warm)
                verdicts.append((res.status, res.iterations))
                return res

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(sdp.Session, "solve", recording_solve)
                value = ent.i_max_smooth(*args)
            return float(value).hex(), verdicts

        kernels = run()
        monkeypatch.setattr(sdp.Session, "project_affine", oracles.project_affine_factored)
        monkeypatch.setattr(sdp.Session, "_columns", oracles.probe_columns_per_basis)
        factored = run()
        assert kernels == factored
        assert {status for status, _ in kernels[1]} == {"feasible", "infeasible"}


class TestFeasibility:
    def test_unique_point_identity(self):
        res = sdp.solve(feasibility_x_in_box(3, 3))
        assert res.status == "feasible"
        assert np.max(np.abs(res.assignment["X"] - np.eye(3))) < 1e-5

    def test_infeasible_trace(self):
        res = sdp.solve(feasibility_x_in_box(3, 4))
        assert res.status in ("infeasible", "maxIterations")
        assert res.status == "infeasible"

    def test_feasible_interior(self):
        res = sdp.solve(feasibility_x_in_box(4, 2.0))
        assert res.status == "feasible"
        w = np.linalg.eigvalsh(res.assignment["X"])
        assert w[0] > -1e-7 and w[-1] < 1 + 1e-6
        assert abs(np.trace(res.assignment["X"]).real - 2.0) < 1e-6

    def test_recheck_residuals_reported(self):
        res = sdp.solve(feasibility_x_in_box(2, 1.0))
        assert res.residuals["primal"] <= 1e-7
        assert res.residuals["gap"] <= 1e-7


def witness_functional(prob, w, nu, assign) -> float:
    """<G x + c, w> + <G_eq x + c_eq, nu> at x = assign, evaluated from the
    problem's own expressions: w holds one rvec block per PSD constraint,
    then one weight per inequality; nu one weight per equality."""
    val, pos = 0.0, 0
    for expr in prob.psd_constraints:
        block = sdp.rvec_to_herm(w[pos : pos + expr.dim**2], expr.dim)
        assert np.linalg.eigvalsh(block)[0] >= -1e-12
        val += float(np.real(np.sum(block.conj() * expr.evaluate(assign))))
        pos += expr.dim**2
    assert np.all(w[pos:] >= 0.0)
    val += sum(wi * iq.evaluate(assign) for wi, iq in zip(w[pos:], prob.inequalities))
    return val + sum(ni * eq.evaluate(assign) for ni, eq in zip(nu, prob.equalities))


def herm_basis(d):
    """Orthonormal basis of the d x d Hermitian matrices under Re Tr[A^dag B]."""
    out = []
    for i in range(d):
        e = np.zeros((d, d), dtype=complex)
        e[i, i] = 1.0
        out.append(e)
        for j in range(i + 1, d):
            for val in (1.0, 1j):
                e = np.zeros((d, d), dtype=complex)
                e[i, j], e[j, i] = val / np.sqrt(2), np.conj(val) / np.sqrt(2)
                out.append(e)
    return out


class TestWitness:
    def test_box_witness_checked_from_expressions(self):
        prob = feasibility_x_in_box(3, 4)
        res = sdp.solve(prob)
        assert res.status == "infeasible"
        w, nu = res.witness
        gap, resid = res.residuals["witness_gap"], res.residuals["witness_resid"]
        const = witness_functional(prob, w, nu, {"X": np.zeros((3, 3), dtype=complex)})
        r = [witness_functional(prob, w, nu, {"X": b}) - const for b in herm_basis(3)]
        assert const == pytest.approx(-gap, abs=1e-12)
        assert np.linalg.norm(r) == pytest.approx(resid, abs=1e-12)
        assert fires(gap, resid)
        # at a feasible X every term is >= 0, yet 0 <= X <= I gives |X| <= sqrt 3
        # and a value <= -gap + |r| sqrt 3 < 0: no feasible X exists
        assert gap - np.linalg.norm(r) * np.sqrt(3) > 0

    @staticmethod
    def assert_no_witness_fires(which, relax):
        sess = sdp.Session(named_problem(which))
        assert sess.solve().status == "feasible"
        # every displacement of a longer run than the solve needs
        y = np.zeros(sess.total)
        for _ in range(400):
            pa = sess.project_affine(y)
            pk = sess.project_cone(2 * pa - y)
            y = y + relax * (pk - pa)
            assert not fires(*sess.witness(pa - pk)[2:])

    @pytest.mark.parametrize("which", ["box", "interleaved", "marginal_kron_psd"])
    def test_no_witness_fires_on_feasible_problems(self, which):
        self.assert_no_witness_fires(which, 1.0)

    @pytest.mark.parametrize("which", ["box", "interleaved", "marginal_kron_psd"])
    def test_no_witness_fires_under_the_relaxed_step(self, which):
        # the solver's step y + RELAX (pk - pa)
        self.assert_no_witness_fires(which, sdp.RELAX)

    def test_indefinite_marginal_kron_is_certified(self):
        res = sdp.solve(named_problem("marginal_kron"))
        assert res.status == "infeasible"
        assert fires(res.residuals["witness_gap"], res.residuals["witness_resid"])

    @pytest.mark.parametrize("offset", [0.0005, 0.05, 0.5])
    def test_feasible_solves_unchanged(self, offset, monkeypatch):
        rng = np.random.default_rng(5)
        p, s = rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(3))
        lam = oracles.dmax_smooth_classical_oracle(p, s, 0.1) + offset
        target = np.sqrt(1 - 0.1**2)

        def run():
            prob = TestFidelityBlock.fidelity_ball_problem(np.diag(p), np.diag(s), lam, target)
            return sdp.solve(prob, max_iter=60000)

        checked = run()
        monkeypatch.setattr(sdp.Session, "witness", lambda self, d: (None, None, 0.0, 0.0))
        unchecked = run()
        assert checked.status == unchecked.status == "feasible"
        assert checked.iterations == unchecked.iterations
        assert checked.warm.tobytes() == unchecked.warm.tobytes()
        for lab, mat in unchecked.assignment.items():
            assert checked.assignment[lab].tobytes() == mat.tobytes()


class TestGeneratedSuite:
    def test_strictly_feasible_within_budget(self):
        # X PSD with margin: find X with A X A^dag <= B where B has slack
        rng = np.random.default_rng(2)
        for trial in range(10):
            d = int(rng.integers(2, 5))
            rho = oracles.random_density(rng, d)
            prob = sdp.SDProblem()
            prob.add_var("X", d)
            prob.require_psd(sdp.AffineExpr.zero(d).plus_var("X"))
            # X <= rho + margin I has interior point X = rho
            prob.require_psd(
                sdp.AffineExpr.const_expr(rho + 5e-3 * np.eye(d)).plus_var("X", -1.0)
            )
            prob.require_eq(sdp.trace_functional("X", d, const=-1.0))
            res = sdp.solve(prob, max_iter=50000)
            assert res.status == "feasible", f"trial {trial}"
            assert res.iterations <= 50000

    def test_marginal_product_constraint(self):
        # q <= 2 * (marg_a tensor q_b) is feasible for a product state
        rng = np.random.default_rng(3)
        a = oracles.random_density(rng, 2)
        b = oracles.random_density(rng, 2)
        q = oracles.kron_oracle(a, b)
        prob = sdp.SDProblem()
        prob.add_var("Q", 4)
        prob.require_psd(sdp.AffineExpr.zero(4).plus_var("Q"))
        expr = sdp.AffineExpr.zero(4)
        expr.plus_marginal_product(a, "Q", (2, 2), coeff=2.0)
        expr.plus_var("Q", -1.0)
        prob.require_psd(expr)
        prob.require_eq(sdp.trace_functional("Q", 4, const=-1.0))
        # pin Q to the product state via fidelity-free equality rows:
        res = sdp.solve(prob)
        assert res.status == "feasible"

    def test_objective_minimize_trace(self):
        # minimize Tr X subject to X >= rho (X PSD): optimum X = rho
        rng = np.random.default_rng(4)
        rho = oracles.random_density(rng, 2)
        prob = sdp.SDProblem()
        prob.add_var("X", 2)
        prob.require_psd(sdp.AffineExpr.const_expr(-rho).plus_var("X"))
        prob.require_psd(sdp.AffineExpr.zero(2).plus_var("X"))
        prob.objective = sdp.trace_functional("X", 2)
        res = sdp.solve(prob)
        assert res.status == "feasible"
        assert abs(np.trace(res.assignment["X"]).real - 1.0) < 5e-3


class TestFidelityBlock:
    @staticmethod
    def fidelity_ball_problem(rho, sigma, lam, c):
        """Exists rho' with [[rho, Z], [Z^dag, rho']] PSD, Re Tr Z >= c,
        rho' <= 2^lam sigma, Tr rho' = 1."""
        d = rho.shape[0]
        e00 = np.diag([1.0, 0.0])
        e11 = np.diag([0.0, 1.0])
        sx = np.array([[0.0, 1.0], [1.0, 0.0]])
        sy = np.array([[0.0, -1j], [1j, 0.0]])
        prob = sdp.SDProblem()
        prob.add_var("rhop", d)
        prob.add_var("Zre", d)
        prob.add_var("Zim", d)
        block = sdp.AffineExpr.const_expr(np.kron(e00, rho))
        block.plus_kron(e11, "rhop")
        block.plus_kron(sx, "Zre")
        block.plus_kron(-sy, "Zim")
        prob.require_psd(block)
        cap = sdp.AffineExpr.const_expr(2.0**lam * sigma).plus_var("rhop", -1.0)
        prob.require_psd(cap)
        prob.require_eq(sdp.trace_functional("rhop", d, const=-1.0))
        prob.require_geq(sdp.trace_functional("Zre", d, const=-float(c)))
        return prob

    def test_commuting_matches_classical_oracle(self):
        rng = np.random.default_rng(5)
        p = rng.dirichlet(np.ones(3))
        s = rng.dirichlet(np.ones(3))
        eps = 0.1
        target = np.sqrt(1 - eps**2)
        lam_star = oracles.dmax_smooth_classical_oracle(p, s, eps)
        for lam in np.linspace(lam_star - 1.0, lam_star + 1.0, 20):
            prob = self.fidelity_ball_problem(np.diag(p), np.diag(s), lam, target)
            res = sdp.solve(prob, max_iter=60000)
            should_be_feasible = lam >= lam_star
            if abs(lam - lam_star) < 2e-3:
                continue  # too close to the boundary to classify numerically
            assert (res.status == "feasible") == should_be_feasible, (
                f"lam={lam}, lam*={lam_star}, status={res.status}"
            )
            if res.status == "infeasible":
                assert fires(res.residuals["witness_gap"], res.residuals["witness_resid"])
