import math

import numpy as np
import pytest

from povmcomp import entropies as ent
from povmcomp import io, sdp
from povmcomp import linalg as la
from povmcomp.protocols import prep as prep_mod

import oracles


def box_problem(dim, target_trace):
    """X PSD, X <= I, Tr X = target_trace"""
    prob = sdp.SDProblem()
    prob.add_var("X", dim)
    prob.require_psd(sdp.AffineExpr.zero(dim).plus_var("X"))
    prob.require_psd(sdp.AffineExpr.const_expr(np.eye(dim)).plus_var("X", -1.0))
    prob.require_eq(sdp.trace_functional("X", dim, const=-float(target_trace)))
    return prob


def box_min_t(dim, target_trace):
    """box_problem with its cap I relaxed to t I, and min t: the optimum is
    target_trace / dim, so box_problem(dim, target_trace) is feasible iff
    that is at most 1."""
    prob = sdp.SDProblem()
    prob.add_var("X", dim)
    prob.add_var("t", 1)
    prob.require_psd(sdp.AffineExpr.zero(dim).plus_var("X"))
    prob.require_psd(sdp.AffineExpr.zero(dim).plus_kron(np.eye(dim), "t").plus_var("X", -1.0))
    prob.require_eq(sdp.trace_functional("X", dim, const=-float(target_trace)))
    prob.objective = sdp.trace_functional("t", 1)
    return prob


def feasibility_problem(which):
    """A problem with the objective Tr X, which its constraints fix ("box")
    or bound below ("interleaved"), so that ``minimize`` finds a feasible point."""
    prob = box_problem(3, 3) if which == "box" else interleaved_blocks_problem()
    prob.objective = sdp.trace_functional("X", prob.variables[0][1])
    return prob


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


def marginals_product(rho, dims):
    """rho_A (x) rho_B of a state on A (x) B, the sigma of I_max."""
    lay = la.layout(("A", dims[0]), ("B", dims[1]))
    return la.tensor(la.partial_trace(rho, lay, ["A"]), la.partial_trace(rho, lay, ["B"]))


def env_state_pair():
    """(rho, sigma) of the smooth I_max of qubit_entangled_side_info's X env state."""
    prep = prep_mod.prepare(io.load_bundled("qubit_entangled_side_info"))
    cq = prep_mod._x_env_cq(prep)
    rho = cq.dense()
    return rho, marginals_product(rho, (len(cq.symbols), prep.dim_e))


def random_pair():
    """A rank-2 state against a full-rank one, both on C^3."""
    rng = np.random.default_rng(11)
    return oracles.random_density(rng, 3, rank=2), oracles.random_density(rng, 3)


def kernel_problem(which):
    """Problems covering every Term kind: "ball_cap" is d_max_smooth's
    fixed-lambda fidelity-ball program with its cap (id, subblock_conj),
    "min_t" its min t program (id, subblock_conj, kron)."""
    if which == "box":
        return box_problem(3, 3)
    if which == "interleaved":
        return interleaved_blocks_problem()
    rho, sigma = random_pair()
    return ent._capped_ball(rho, sigma, 0.1, ent.d_max(rho, sigma) if which == "ball_cap" else None)


KERNEL_PROBLEMS = ["box", "interleaved", "ball_cap", "min_t"]


def fires(gap, resid):
    return gap > 0 and resid <= sdp.WITNESS_RATIO * gap


class TestAdjoints:
    def test_probed_linear_map_matches_terms(self):
        rng = np.random.default_rng(0)
        prob = kernel_problem("min_t")
        prog = sdp.Program(prob)
        for _ in range(5):
            assign = {lab: oracles.random_hermitian(rng, d) for lab, d in prob.variables}
            x = np.concatenate([sdp.herm_to_rvec(assign[lab]) for lab, _ in prob.variables])
            probed = prog.g_graph[: prog.n_psd] @ x
            direct = np.concatenate(
                [sdp.herm_to_rvec(oracles.linear_part(e, assign)) for e in prob.psd_constraints]
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
    """The batched rvec maps, and the cone projection that ``Program.farkas``
    makes with one stacked ``eigh`` per block dimension."""

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
        # blocks of dimensions 2, 3, 2, 4, 3 and two inequality weights
        prob = interleaved_blocks_problem()
        prog = sdp.Program(prob)
        assert prog.block_dims == [2, 3, 2, 4, 3]
        rng = np.random.default_rng(7)
        for _ in range(20):
            slack = rng.normal(size=prog.n_graph)
            blocks, weights = oracles.clip_slack_per_block(prob, slack)
            want = np.concatenate([sdp.herm_to_rvec(b) for b in blocks] + [weights])
            assert np.max(np.abs(prog.farkas(slack)[0] - want)) <= 1e-14


class TestBatchedProbe:
    """Set-up probing over stacked bases equals the per-basis prober."""

    @pytest.mark.parametrize("which", KERNEL_PROBLEMS)
    def test_columns_equal_per_basis_prober(self, which):
        prog = sdp.Program(kernel_problem(which))
        assert np.array_equal(prog._columns(), oracles.probe_columns_per_basis(prog))

    def test_every_term_kind_is_probed(self):
        kinds = {
            t.kind
            for which in KERNEL_PROBLEMS
            for expr in kernel_problem(which).psd_constraints
            for t in expr.terms
        }
        assert kinds == {"id", "kron", "subblock_conj"}

    def test_batched_apply_equals_per_matrix_calls(self):
        rng = np.random.default_rng(10)
        left = oracles.random_hermitian(rng, 2)
        rot = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
        terms = [
            sdp.Term("X", "id", -0.7),
            sdp.Term("X", "kron", 1.3, left=left),
            sdp.Term("X", "subblock_conj", -1.1, left=rot, start=2),
        ]
        stack = np.stack([oracles.random_hermitian(rng, 6) for _ in range(5)])
        for t in terms:
            batched = t.apply(stack)
            assert np.array_equal(batched, np.stack([t.apply(m) for m in stack]))
        # the kron term keeps np.kron's products
        assert np.array_equal(terms[1].apply(stack[0]), 1.3 * np.kron(left, stack[0]))


class TestKernelVerdicts:
    def test_smoothing_identical_with_oracle_kernels(self, monkeypatch):
        """d_max_smooth's min t program for the smooth I_max of
        qubit_entangled_side_info's X env state gets the same status,
        iteration count and value bits from ``sdp.minimize`` when ``Program``
        probes its map per basis matrix."""
        prob = ent._capped_ball(*env_state_pair(), 0.1, None)

        def run():
            res = sdp.minimize(prob)
            return res.status, res.iterations, float(res.assignment["t"][0, 0].real).hex()

        kernels = run()
        monkeypatch.setattr(sdp.Program, "_columns", oracles.probe_columns_per_basis)
        assert kernels == run()
        assert kernels[0] == "optimal"


class TestFeasibility:
    """Feasibility problems posed to ``minimize`` with an objective that
    their trace equality holds constant."""

    @staticmethod
    def solve_box(dim, target_trace):
        prob = box_problem(dim, target_trace)
        prob.objective = sdp.trace_functional("X", dim)
        return sdp.minimize(prob)

    def test_unique_point_identity(self):
        res = self.solve_box(3, 3)
        assert res.status == "optimal"
        assert np.max(np.abs(res.assignment["X"] - np.eye(3))) < 1e-5

    def test_infeasible_trace(self):
        # 0 <= X <= I caps Tr X at 3: the relaxation X <= t I has min t = 4/3,
        # and its dual is a witness against t = 1
        res = sdp.minimize(box_min_t(3, 4))
        assert res.status == "optimal"
        assert res.assignment["t"][0, 0].real == pytest.approx(4 / 3, abs=1e-5)
        assert fires(*sdp.Program(box_problem(3, 4)).farkas(res.dual[0])[2:])

    def test_infeasible_box_stops_without_a_verdict(self):
        # the iterates of 0 <= X <= I, Tr X = 4 diverge: minimize stops once
        # the duality gap passes degree / GAP_TOL and keeps its last point
        res = self.solve_box(3, 4)
        assert res.status == "maxIterations"
        assert res.residuals["primal"] > 0.1

    def test_feasible_interior(self):
        res = self.solve_box(4, 2.0)
        assert res.status == "optimal"
        w = np.linalg.eigvalsh(res.assignment["X"])
        assert w[0] > -1e-7 and w[-1] < 1 + 1e-6
        assert abs(np.trace(res.assignment["X"]).real - 2.0) < 1e-6

    def test_recheck_residuals_reported(self):
        res = self.solve_box(2, 1.0)
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
    """The infeasibility certificate of ``d_max_smooth``: the dual z of the
    min t solve, read as a Farkas witness on the fixed-lambda program."""

    def test_box_witness_checked_from_expressions(self):
        prob = box_problem(3, 4)
        w, nu, gap, resid = sdp.Program(prob).farkas(sdp.minimize(box_min_t(3, 4)).dual[0])
        const = witness_functional(prob, w, nu, {"X": np.zeros((3, 3), dtype=complex)})
        r = [witness_functional(prob, w, nu, {"X": b}) - const for b in herm_basis(3)]
        assert const == pytest.approx(-gap, abs=1e-12)
        assert np.linalg.norm(r) == pytest.approx(resid, abs=1e-12)
        assert fires(gap, resid)
        # at a feasible X every term is >= 0, yet 0 <= X <= I gives |X| <= sqrt 3
        # and a value <= -gap + |r| sqrt 3 < 0: no feasible X exists
        assert gap - np.linalg.norm(r) * np.sqrt(3) > 0

    @pytest.mark.parametrize("which", ["box", "interleaved"])
    def test_no_witness_fires_on_feasible_problems(self, which):
        # a feasible point x has |x| < 1 / WITNESS_RATIO, so no witness may fire
        prob = feasibility_problem(which)
        res = sdp.minimize(prob)
        assert res.status == "optimal"
        assert not fires(*sdp.Program(prob).farkas(res.dual[0])[2:])

    @staticmethod
    def solved(which):
        """(rho, sigma, v = log2 of the optimal t, the solve's result) at eps 0.1."""
        rho, sigma = env_state_pair() if which == "env" else random_pair()
        res = sdp.minimize(ent._capped_ball(rho, sigma, 0.1, None))
        assert res.status == "optimal"
        return rho, sigma, math.log2(float(res.assignment["t"][0, 0].real)), res

    @pytest.mark.parametrize("which", ["env", "random"])
    def test_min_t_dual_fires_only_below_the_value(self, which):
        rho, sigma, value, res = self.solved(which)
        tol = ent.BISECT_TOL_BITS
        below = ent._capped_ball(rho, sigma, 0.1, value - tol)
        assert fires(*sdp.Program(below).farkas(res.dual[0])[2:])
        # the soundness half: above the value the program is feasible (the
        # solve's own point passes), so no witness may fire there
        above = ent._capped_ball(rho, sigma, 0.1, value + tol)
        assert sdp.recheck(above, res.assignment)[0]
        assert not fires(*sdp.Program(above).farkas(res.dual[0])[2:])

    @pytest.mark.parametrize("which", ["env", "random"])
    def test_farkas_matches_expression_oracle_on_min_t_duals(self, which):
        # Program.farkas clips each block dimension's stack with one eigh;
        # the oracle clips block by block and evaluates the expressions
        rho, sigma, value, res = self.solved(which)
        z = res.dual[0]
        below = ent._capped_ball(rho, sigma, 0.1, value - ent.BISECT_TOL_BITS)
        gap, resid = sdp.Program(below).farkas(z)[2:]
        want_gap, want_resid = oracles.farkas_from_expressions(below, z)
        assert fires(gap, resid) and fires(want_gap, want_resid)
        assert gap == pytest.approx(want_gap, rel=1e-12)
        assert resid == pytest.approx(want_resid, abs=1e-13)  # w is a unit vector
        above = ent._capped_ball(rho, sigma, 0.1, value + ent.BISECT_TOL_BITS)
        assert not fires(*oracles.farkas_from_expressions(above, z))


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
            prob.objective = sdp.trace_functional("X", d)  # constant: a feasibility solve
            res = sdp.minimize(prob)
            assert res.status == "optimal", f"trial {trial}"

    def test_objective_minimize_trace(self):
        # minimize Tr X subject to X >= rho (X PSD): optimum X = rho
        rng = np.random.default_rng(4)
        rho = oracles.random_density(rng, 2)
        prob = sdp.SDProblem()
        prob.add_var("X", 2)
        prob.require_psd(sdp.AffineExpr.const_expr(-rho).plus_var("X"))
        prob.require_psd(sdp.AffineExpr.zero(2).plus_var("X"))
        prob.objective = sdp.trace_functional("X", 2)
        res = sdp.minimize(prob)
        assert res.status == "optimal"
        assert abs(np.trace(res.assignment["X"]).real - 1.0) <= 1e-6


class TestMinimize:
    """The interior-point solve behind d_max_smooth."""

    def test_d_max_smooth_certifies_on_random_states(self):
        # every (dims, rank) state at two of the four eps, every eps on four states
        rng = np.random.default_rng(21)
        cases = [(dims, rank) for dims in ((2, 2), (2, 3), (3, 2), (3, 3)) for rank in (1, None)]
        for i, (dims, rank) in enumerate(cases):
            rho = oracles.random_density(rng, dims[0] * dims[1], rank=rank)
            sigma = marginals_product(rho, dims)
            top = ent.d_max(rho, sigma)
            for eps in (0.05, 0.1, 0.2, 0.3)[i % 2 :: 2]:
                # d_max_smooth raises SolverError unless both certificates pass
                assert ent.d_max_smooth(rho, sigma, eps) <= top + 1e-9, (dims, rank, eps)

    def test_d_max_smooth_certifies_at_small_eps(self):
        # a thin fidelity ball, on which the dual z grows large: the solve
        # must still stop with a dual residual the witness accepts
        rng = np.random.default_rng(1)
        for dims in ((2, 2), (2, 3)):
            d = dims[0] * dims[1]
            w = rng.dirichlet(np.ones(d) * 0.2)
            u = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
            rho = (u * w) @ u.conj().T
            sigma = marginals_product(rho, dims)
            for eps in (0.001, 0.01):
                assert ent.d_max_smooth(rho, sigma, eps) <= ent.d_max(rho, sigma) + 1e-9, (dims, eps)


class TestFidelityBlock:
    @staticmethod
    def fidelity_ball_problem(rho, sigma, lam, c):
        """Exists rho' with [[rho, Z], [Z^dag, rho']] PSD, Re Tr Z >= c,
        rho' <= 2^lam sigma, Tr rho' = 1.  With ``lam`` None the cap is
        rho' <= t sigma with t a 1x1 variable, and the objective min t."""
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
        if lam is None:
            prob.add_var("t", 1)
            prob.objective = sdp.trace_functional("t", 1)
            cap = sdp.AffineExpr.zero(d).plus_kron(sigma, "t")
        else:
            cap = sdp.AffineExpr.const_expr(2.0**lam * sigma)
        prob.require_psd(cap.plus_var("rhop", -1.0))
        prob.require_eq(sdp.trace_functional("rhop", d, const=-1.0))
        prob.require_geq(sdp.trace_functional("Zre", d, const=-float(c)))
        return prob

    def test_commuting_matches_classical_oracle(self):
        # the min t solve classifies every fixed lambda: its point is feasible
        # above lambda*, and its dual a witness below
        rng = np.random.default_rng(5)
        p = rng.dirichlet(np.ones(3))
        s = rng.dirichlet(np.ones(3))
        eps = 0.1
        target = np.sqrt(1 - eps**2)
        lam_star = oracles.dmax_smooth_classical_oracle(p, s, eps)
        res = sdp.minimize(self.fidelity_ball_problem(np.diag(p), np.diag(s), None, target))
        assert res.status == "optimal"
        assert math.log2(res.assignment["t"][0, 0].real) == pytest.approx(lam_star, abs=1e-5)
        for lam in np.linspace(lam_star - 1.0, lam_star + 1.0, 20):
            if abs(lam - lam_star) < 2e-3:
                continue  # too close to the boundary to classify numerically
            prob = self.fidelity_ball_problem(np.diag(p), np.diag(s), lam, target)
            feasible = sdp.recheck(prob, res.assignment)[0]
            infeasible = fires(*sdp.Program(prob).farkas(res.dual[0])[2:])
            assert (feasible, infeasible) == (lam >= lam_star, lam < lam_star), lam
