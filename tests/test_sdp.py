import collections
import math

import numpy as np
import pytest

from povmcomp import entropies as ent
from povmcomp import io, sdp
from povmcomp import linalg as la
from povmcomp import protocols as P
from povmcomp.protocols import prep as prep_mod

import oracles
import sdp_reference as ref


def box_problem(dim, target_trace):
    """X PSD, X <= I, Tr X = target_trace"""
    prob = ref.SDProblem()
    prob.add_var("X", dim)
    prob.require_psd(ref.AffineExpr.zero(dim).plus_var("X"))
    prob.require_psd(oracles.const_expr(ref, np.eye(dim)).plus_var("X", -1.0))
    prob.require_eq(ref.trace_functional("X", dim, const=-float(target_trace)))
    return prob


def box_with_objective(dim, target_trace):
    """box_problem with the objective Tr X, which its trace equality holds
    constant: a feasibility problem for ``minimize_many``."""
    prob = box_problem(dim, target_trace)
    prob.objective = ref.trace_functional("X", dim)
    return prob


def box_min_t(dim, target_trace):
    """box_problem with its cap I relaxed to t I, and min t: the optimum is
    target_trace / dim, so box_problem(dim, target_trace) is feasible iff
    that is at most 1."""
    prob = ref.SDProblem()
    prob.add_var("X", dim)
    prob.add_var("t", 1)
    prob.require_psd(ref.AffineExpr.zero(dim).plus_var("X"))
    prob.require_psd(ref.AffineExpr.zero(dim).plus_kron(np.eye(dim), "t").plus_var("X", -1.0))
    prob.require_eq(ref.trace_functional("X", dim, const=-float(target_trace)))
    prob.objective = ref.trace_functional("t", 1)
    return prob


def feasibility_problem(which):
    """A problem with the objective Tr X, which its constraints fix ("box")
    or bound below (the others), so that ``minimize_many`` finds a feasible point."""
    prob = kernel_problem(which)
    prob.objective = ref.trace_functional("X", prob.variables["X"])
    return prob


def interleaved_blocks_problem():
    """PSD blocks of dimensions 2, 3, 2, 4, 3 in that order, plus two
    scalar inequalities."""
    prob = ref.SDProblem()
    prob.add_var("X", 2)
    prob.add_var("Y", 3)
    prob.add_var("W", 4)
    prob.require_psd(ref.AffineExpr.zero(2).plus_var("X"))
    prob.require_psd(ref.AffineExpr.zero(3).plus_var("Y"))
    prob.require_psd(oracles.const_expr(ref, np.eye(2)).plus_var("X", -1.0))
    prob.require_psd(ref.AffineExpr.zero(4).plus_var("W"))
    prob.require_psd(oracles.const_expr(ref, np.eye(3)).plus_var("Y", -1.0))
    prob.require_geq(ref.trace_functional("X", 2, const=-0.5))
    prob.require_geq(ref.trace_functional("W", 4, coeff=-1.0, const=2.0))
    prob.require_eq(ref.trace_functional("Y", 3, const=-1.0))
    return prob


def mixed_rows_problem():
    """``interleaved_blocks_problem`` with one more inequality that holds W
    twice, lists its variables in another order than the problem and has a
    nonzero constant; every bounded point meets it."""
    prob = interleaved_blocks_problem()
    rng = np.random.default_rng(12)
    f = {lab: oracles.random_hermitian(rng, d) / 10 for lab, d in prob.variables.items()}
    terms = (("W", f["W"]), ("Y", f["Y"]), ("X", f["X"]), ("W", -f["W"] / 3))
    prob.require_geq(ref.ScalarExpr(3.0, terms))
    return prob


def marginals_product(rho, dims):
    """rho_A (x) rho_B of a state on A (x) B, the sigma of I_max."""
    lay = la.layout(("A", dims[0]), ("B", dims[1]))
    return la.tensor(la.partial_trace(rho, lay, ["A"]), la.partial_trace(rho, lay, ["B"]))


def minimize(prob):
    """``ref.minimize_many`` of the one program."""
    return ref.minimize_many([prob])[0]


def capped_ball(rho, sigma, eps):
    """``d_max_smooth``'s min t program of the one pair (rho, sigma), in
    the reference's generic form."""
    return ref.capped_ball(ref.plain(*ent._ball_blocks([(rho, sigma)])), eps)


def capped_ball_at(rho, sigma, eps, lam):
    """That program with t held at 2^lam (``oracles.pin_variable``)."""
    return oracles.pin_variable(capped_ball(rho, sigma, eps), "t", 2.0**lam)


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
    """Problems covering every Term kind: "min_t" is d_max_smooth's min t
    program (id, subblock, kron), "ball_cap" the same with t pinned, its
    cap a constant (id, subblock)."""
    if which == "box":
        return box_problem(3, 3)
    if which == "interleaved":
        return interleaved_blocks_problem()
    if which == "mixed_rows":
        return mixed_rows_problem()
    rho, sigma = random_pair()
    if which == "ball_cap":
        return capped_ball_at(rho, sigma, 0.1, ent.d_max(rho, sigma))
    return capped_ball(rho, sigma, 0.1)


KERNEL_PROBLEMS = ["box", "interleaved", "mixed_rows", "ball_cap", "min_t"]


@pytest.mark.parametrize("which", KERNEL_PROBLEMS)
def test_field_follows_the_data(which):
    # box and interleaved have real data only; mixed_rows has a complex
    # scalar row, and the ball programs of the complex random_pair have
    # complex constants (its sigma in the eigenbasis of rho, which does not
    # commute with it).  Each keeps its field's reals per
    # variable: d(d+1)/2 real symmetric, d^2 Hermitian
    prob = kernel_problem(which)
    prog = ref.Program(prob)
    assert prog.real == (which in ("box", "interleaved")) == oracles.problem_is_real(prob)
    assert prog.n_vars == sum(ref.rvec_size(d, prog.real) for d in prob.variables.values())
    assert prog.n_graph == sum(ref.rvec_size(e.dim, prog.real) for e in prob.psd_constraints) + len(
        prob.inequalities
    )


def test_add_var_rejects_a_duplicate_label():
    prob = interleaved_blocks_problem()
    with pytest.raises(ValueError, match="duplicate variable 'Y'"):
        prob.add_var("Y", 2)
    assert prob.variables == {"X": 2, "Y": 3, "W": 4}
    assert list(prob.variables) == ["X", "Y", "W"]


class TestAdjoints:
    def test_probed_linear_map_matches_terms(self):
        rng = np.random.default_rng(0)
        prob = kernel_problem("min_t")
        prog = ref.Program(prob)
        for _ in range(5):
            assign = {lab: oracles.random_hermitian(rng, d) for lab, d in prob.variables.items()}
            x = np.concatenate([ref.herm_to_rvec(assign[lab]) for lab in prob.variables])
            probed = prog.g_graph[: prog.n_psd] @ x
            direct = np.concatenate(
                [ref.herm_to_rvec(oracles.linear_part(e, assign)) for e in prob.psd_constraints]
            )
            assert np.max(np.abs(probed - direct)) < 1e-10


class TestBatchedCone:
    """The batched rvec maps, and the cone projection that ``Program.farkas``
    makes with one stacked ``eigh`` per block dimension."""

    def test_batched_maps_equal_single_calls(self):
        rng = np.random.default_rng(6)
        for d in (1, 2, 3, 5):
            mats = np.stack([oracles.random_hermitian(rng, d) for _ in range(4)])
            vecs = ref.herm_to_rvec(mats)
            assert vecs.shape == (4, d * d)
            assert np.array_equal(vecs, np.stack([ref.herm_to_rvec(m) for m in mats]))
            back = ref.rvec_to_herm(vecs, d)
            assert back.shape == (4, d, d)
            assert np.array_equal(back, np.stack([ref.rvec_to_herm(v, d) for v in vecs]))
            assert np.allclose(back, mats, atol=1e-14)

    def test_projection_matches_per_block_oracle(self):
        # blocks of dimensions 2, 3, 2, 4, 3 and two inequality weights (three
        # in mixed_rows), over the real field and the Hermitian one
        rng = np.random.default_rng(7)
        for prob, real in ((interleaved_blocks_problem(), True), (mixed_rows_problem(), False)):
            prog = ref.Program(prob)
            assert prog.block_dims == [2, 3, 2, 4, 3] and prog.real == real
            for _ in range(20):
                slack = rng.normal(size=prog.n_graph)
                blocks, weights = oracles.clip_slack_per_block(prob, slack)
                want = np.concatenate([ref.herm_to_rvec(b, real) for b in blocks] + [weights])
                assert np.max(np.abs(prog.farkas(slack)[0] - want)) <= 1e-14


def random_interior(prog, rng):
    """A slack-side point strictly inside the cone of ``prog``, in its slab
    layout: each PSD block G G^H + I for a random G (complex unless the
    program is real), each inequality slot in [0.5, 1.5)."""
    point = rng.uniform(0.5, 1.5, size=prog.n_graph)
    for d, lo, n in prog.slabs:
        g = rng.normal(size=(n, d, d)) + (0 if prog.real else 1j) * rng.normal(size=(n, d, d))
        blocks = ref.herm_to_rvec(g @ np.conj(np.swapaxes(g, -1, -2)) + np.eye(d), prog.real)
        point[lo : lo + blocks.size] = blocks.ravel()
    return point


class TestIterationKernels:
    """The cached-basis conversions and the interior-point iteration's
    congruences, paired step test and primal step."""

    def test_cached_basis_conversions(self):
        rng = np.random.default_rng(20)
        for d in range(1, 6):
            mats = np.stack([oracles.random_hermitian(rng, d) for _ in range(6)])
            vecs = ref.herm_to_rvec(mats)
            assert np.max(np.abs(ref.rvec_to_herm(vecs, d) - mats)) <= 1e-14
            raw = rng.normal(size=(6, d * d))
            assert np.max(np.abs(ref.herm_to_rvec(ref.rvec_to_herm(raw, d)) - raw)) <= 1e-14
            # isometric: <rvec A, rvec B> = Re Tr[A^H B] for every pair
            gram = np.real(np.einsum("aij,bij->ab", mats.conj(), mats))
            assert np.max(np.abs(vecs @ vecs.T - gram)) <= 1e-12
            for m, v, r in zip(mats, vecs, raw):
                assert np.max(np.abs(v - oracles._herm_to_rvec_single(m))) <= 1e-14
                back = ref.rvec_to_herm(r, d)
                assert np.max(np.abs(back - oracles._rvec_to_herm_single(r, d))) <= 1e-14
            # the real field: the Hermitian rvec of a real symmetric matrix
            # without its imaginary coordinates, which are 0
            k = ref.rvec_size(d, True)
            sym = np.real(mats)
            real_vecs = ref.herm_to_rvec(sym, True)
            assert real_vecs.shape == (6, k) == (6, d * (d + 1) // 2)
            assert np.array_equal(real_vecs, ref.herm_to_rvec(sym.astype(complex))[:, :k])
            assert not np.any(ref.herm_to_rvec(sym.astype(complex))[:, k:])
            assert ref.rvec_to_herm(real_vecs, d, True).dtype == np.float64
            assert np.max(np.abs(ref.rvec_to_herm(real_vecs, d, True) - sym)) <= 1e-14
            gram = np.einsum("aij,bij->ab", sym, sym)
            assert np.max(np.abs(real_vecs @ real_vecs.T - gram)) <= 1e-12
            for m, r in zip(sym, raw[:, :k]):
                want = oracles._herm_to_rvec_single(m, True)
                assert np.array_equal(ref.herm_to_rvec(m, True), want)
                back = ref.rvec_to_herm(r, d, True)
                assert np.max(np.abs(back - oracles._rvec_to_herm_single(r, d, True))) <= 1e-14

    @pytest.mark.parametrize("real", [False, True], ids=["hermitian", "real"])
    def test_one_coordinate_table_orders_the_rvecs(self, real):
        # _rvec_coords's column k is (i, j, part) of rvec coordinate k: the
        # diagonal, then the upper entries' real parts, then (Hermitian)
        # their imaginary parts, each run in triu order; row k of the basis
        # is that coordinate's matrix, _rvec_positions enumerates the table
        # and a layout's eigenvalue pairs are its entries (i, j)
        for d in range(1, 7):
            coords = sdp._rvec_coords(d, real)
            assert coords.shape == (3, sdp.rvec_size(d, real)) and not coords.flags.writeable
            iu = [(i, j) for i in range(d) for j in range(i + 1, d)]
            want = [(i, i, 0) for i in range(d)] + [(i, j, part) for part in (0, 1) for i, j in iu]
            want = want[: coords.shape[1]]
            assert [tuple(c) for c in coords.T.tolist()] == want
            basis = sdp._rvec_basis(d, real)[0].reshape(-1, d, d)
            for row, (i, j, part) in zip(basis, coords.T.tolist(), strict=True):
                mat = np.zeros((d, d), dtype=complex)
                if i == j:
                    mat[i, i] = 1.0
                else:
                    mat[i, j] = (1j if part else 1.0) / math.sqrt(2.0)
                    mat[j, i] = np.conj(mat[i, j])
                assert np.array_equal(row, mat), (d, i, j, part)
            assert sdp._rvec_positions(d, real) == {c: k for k, c in enumerate(want)}
        groups = tuple((1, d, real, 2) for d in range(1, 6))
        lay = sdp._Layout(((groups, False), (groups[:2], True)))
        sizes = []
        for size, _, _, count, k, pair, *_ in lay.slab_info:
            sizes.append(size)
            ends = pair.reshape(2, count, k) - size * np.arange(count)[:, None]
            assert (ends == sdp._rvec_coords(size, real)[:2, None]).all(), size
        assert sizes == [2, 3, 4, 5, 6]

    def test_congruence_acts_on_rvecs(self):
        rng = np.random.default_rng(21)
        for d in range(1, 6):
            c = rng.normal(size=(3, d, d)) + 1j * rng.normal(size=(3, d, d))
            mats = np.stack([oracles.random_hermitian(rng, d) for _ in range(3)])
            got = (ref._congruence(c) @ ref.herm_to_rvec(mats)[..., None])[..., 0]
            want = ref.herm_to_rvec(c @ mats @ np.conj(np.swapaxes(c, -1, -2)))
            assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))
            # over the real field, for a real C
            c, mats = np.real(c), np.real(mats)
            got = (ref._congruence(c, True) @ ref.herm_to_rvec(mats, True)[..., None])[..., 0]
            want = ref.herm_to_rvec(c @ mats @ np.swapaxes(c, -1, -2), True)
            assert got.shape == (3, ref.rvec_size(d, True))
            assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))

    def test_paired_step_is_the_shorter_single_step(self):
        prog = ref.Program(interleaved_blocks_problem())
        rng = np.random.default_rng(22)
        for _ in range(20):
            s, z = random_interior(prog, rng), random_interior(prog, rng)
            (cone,) = ref._scaled_cones([(prog, s, z)])
            a, b = rng.normal(size=(2, prog.n_graph))

            def max_step(*directions):
                return ref._max_steps([(cone, directions)])[0]

            assert max_step(a, b) == min(max_step(a), max_step(b))
            # a direction into the cone never limits the step
            assert max_step(cone.lam) == math.inf
            assert max_step(cone.lam, b) == max_step(b)

    def test_primal_step_is_the_unscaled_newton_step(self, monkeypatch):
        """On the min t program of qubit_entangled_side_info's smooth I_max,
        each step s takes, r_p + A du, is T^-1 ds~ of the corrector's
        direction at that iterate's scaling."""
        scaled_cones, max_steps = ref._scaled_cones, ref._max_steps
        cones = []

        def recording_cones(items):
            out = scaled_cones(items)
            for cone, (_, s, _) in zip(out, items):
                cone.s, cone.directions = s, []
                cones.append(cone)
            return out

        def recording_steps(items):
            for cone, directions in items:
                cone.directions.append(directions)
            return max_steps(items)

        monkeypatch.setattr(ref, "_scaled_cones", recording_cones)
        monkeypatch.setattr(ref, "_max_steps", recording_steps)
        res = minimize(capped_ball(*env_state_pair(), 0.1))
        assert res.status == "optimal" and len(cones) == res.iterations > 10
        for cone, following in zip(cones, cones[1:]):
            ds, dz = cone.directions[-1]
            alpha = min(1.0, ref.STEP_TO_BOUNDARY * max_steps([(cone, (ds, dz))])[0])
            unscaled = ds / np.concatenate([np.ones(cone.n_psd), cone.t_scalar])
            for (d, lo, n), scale in zip(cone.slabs, cone.scales):
                k = ref.rvec_size(d, cone.real)
                blocks = ds[lo : lo + n * k].reshape(n, k, 1)
                unscaled[lo : lo + n * k] = np.linalg.solve(scale, blocks).ravel()
            assert np.max(np.abs((following.s - cone.s) / alpha - unscaled)) <= 1e-10

    def test_one_congruence_per_block_group_per_iteration(self, monkeypatch):
        prob = capped_ball(*env_state_pair(), 0.1)
        calls = []
        congruence = ref._congruence

        def counting(c, real):
            calls.append(c.shape)
            return congruence(c, real)

        monkeypatch.setattr(ref, "_congruence", counting)
        res = minimize(prob)
        slabs = len(ref.Program(prob).slabs)
        assert slabs == 2 and len(calls) == slabs * res.iterations


def linalg_spy(monkeypatch) -> list:
    """Records the name of every ``np.linalg`` function called from now on."""
    calls = []
    for name in np.linalg.__all__:
        fn = getattr(np.linalg, name)
        if callable(fn) and not isinstance(fn, type):

            def spy(*args, _fn=fn, _name=name, **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, spy)
    return calls


class TestSlabLayout:
    """The slab layout of ``Program``: the blocks of one dimension side by
    side, slot maps to the eigenvalue pairs, and a dual in problem order."""

    def test_slabs_group_the_blocks_by_dimension(self):
        # one layout over the Hermitian field (d^2 slots per block) and the
        # real one (d(d+1)/2): mixed_rows has the blocks of the real
        # interleaved problem and one complex inequality more
        for prob, slabs in (
            (mixed_rows_problem(), [(2, 0, 2), (3, 8, 2), (4, 26, 1)]),
            (interleaved_blocks_problem(), [(2, 0, 2), (3, 6, 2), (4, 18, 1)]),
        ):
            prog = ref.Program(prob)
            assert prog.slabs == slabs
            # problem order: dims 2, 3, 2, 4, 3, then the inequality slots
            sizes = [ref.rvec_size(d, prog.real) for d in (2, 3, 2, 4, 3)]
            offsets = np.cumsum([0] + sizes)
            slab_order = (0, 2, 1, 4, 3)  # the blocks of dims 2, 2, 3, 3, 4
            want = [offsets[k] + np.arange(sizes[k]) for k in slab_order]
            want.append(np.arange(offsets[-1], prog.n_graph))
            assert np.array_equal(prog.order, np.concatenate(want))
        # a problem with its blocks grouped by dimension keeps its order
        grouped = ref.Program(kernel_problem("min_t"))
        assert np.array_equal(grouped.order, np.arange(grouped.n_graph))

    def test_slot_maps_give_each_slot_its_eigenvalue_pair(self):
        # lam, mid and isq of _ScaledCone against the eigenvalues of S Z,
        # block by block, for every rvec slot of entry (i, j), on the real
        # interleaved problem and the complex mixed_rows one
        rng = np.random.default_rng(23)
        progs = [ref.Program(interleaved_blocks_problem()), ref.Program(mixed_rows_problem())]
        for prog in progs * 5:
            s, z = random_interior(prog, rng), random_interior(prog, rng)
            (cone,) = ref._scaled_cones([(prog, s, z)])
            lam, mid, isq = [], [], []
            for d, lo, n in prog.slabs:
                iu = np.triu_indices(d, k=1)
                parts = 1 if prog.real else 2
                i, j = (np.concatenate([np.arange(d)] + [side] * parts) for side in iu)
                k = len(i)
                for b in range(n):
                    blk = slice(lo + b * k, lo + (b + 1) * k)
                    sm, zm = ref.rvec_to_herm(np.stack((s[blk], z[blk])), d, prog.real)
                    sz = sm @ zm
                    ev = np.sort(np.sqrt(np.linalg.eigvals(sz).real))[::-1]
                    lam.append(np.where(i == j, ev[i], 0.0))
                    mid.append((ev[i] + ev[j]) / 2)
                    isq.append(1.0 / np.sqrt(ev[i] * ev[j]))
            ineq = np.sqrt(s[prog.n_psd :] * z[prog.n_psd :])
            wants = (lam + [ineq], mid + [ineq], isq + [1 / ineq])
            for got, want in zip((cone.lam, cone.mid, cone.isq), map(np.concatenate, wants)):
                assert np.max(np.abs(got - want) / want.clip(1.0)) <= 1e-10
            # the Jordan product, block by block
            a, b = rng.normal(size=(2, prog.n_graph))
            jordan = a * b
            for d, lo, n in prog.slabs:
                k = ref.rvec_size(d, prog.real)
                for blk in np.arange(lo, lo + n * k).reshape(n, k):
                    ma, mb = ref.rvec_to_herm(np.stack((a[blk], b[blk])), d, prog.real)
                    jordan[blk] = ref.herm_to_rvec((ma @ mb + mb @ ma) / 2, prog.real)
            assert np.max(np.abs(ref._jordans([(cone, a, b)])[0] - jordan)) <= 1e-12
            # the scaled point: T s = T^-T z = lam
            t_s = ref._scale_many([(cone, s)])[0]
            assert np.max(np.abs(t_s - cone.lam)) <= 1e-10 * np.max(cone.lam)
            assert np.array_equal(cone.scale(s[:, None])[:, 0], t_s)
            t_adj = ref._scale_adjoint_many([(cone, cone.lam)])[0]
            assert np.max(np.abs(t_adj - z)) <= 1e-10 * np.max(np.abs(z))

    def test_dual_is_in_problem_order(self):
        # the solve runs in slab order; the z it returns is read in problem
        # order, as a dual point (G^T z - q in the row space of G_eq, and
        # <G x + c, z> ~ 0) and by farkas and its expression oracle alike.
        # An indefinite objective presses on every block, so no block's z is 0
        prob = interleaved_blocks_problem()
        rng = np.random.default_rng(25)
        prob.objective = ref.ScalarExpr(
            0.0, tuple((lab, oracles.random_hermitian(rng, d)) for lab, d in prob.variables.items())
        )
        prog = ref.Program(prob)
        assert not np.array_equal(prog.order, np.arange(prog.n_graph))
        res = minimize(prob)
        assert res.status == "optimal"
        z = res.dual
        null = np.linalg.svd(prog.g_eq)[2][prog.n_eq :].T
        q = prog.functional(prob.objective)
        assert np.linalg.norm(null.T @ (prog.g_graph.T @ z - q)) <= 1e-5
        x = np.concatenate([ref.herm_to_rvec(res.assignment[lab]) for lab in prob.variables])
        assert abs((prog.g_graph @ x + prog.c_graph) @ z) <= 1e-5
        gap, resid = prog.farkas(z)[2:]
        want_gap, want_resid = oracles.farkas_from_expressions(prob, z)
        assert gap == pytest.approx(want_gap, rel=1e-12, abs=1e-14)
        assert resid == pytest.approx(want_resid, abs=1e-13)


@pytest.fixture(scope="module")
def region_balls():
    """The six capped balls of the ``region`` benchmark's pass
    (instrument_derived, theta 0.5, eps 0.1, axes X and Y): the six values
    ``one_shot_region`` hands to ``entropies._d_max_smooth_many`` in one
    call, built as it builds them, the X cell's three registers U, V and
    Y, then the Y cell's.  The Y cell's pairs are the X cell's to the
    byte, so the library solves three: the classical one in closed form,
    two in ``sdp.minimize_balls``; here all six are balls for
    ``sdp.minimize_balls``."""
    prep = prep_mod.prepare(io.load_bundled("instrument_derived"))
    calls, smooth_many = [], ent._d_max_smooth_many

    def recording(values, eps):
        calls.append((values, eps))
        return smooth_many(values, eps)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ent, "_d_max_smooth_many", recording)
        P.one_shot_region(prep, 0.1, theta_grid=(0.5,))
    ((values, eps),) = calls
    assert len(values) == 6 and eps == 0.1
    return [sdp.Ball(*ent._ball_blocks(pairs), math.sqrt(1 - eps * eps)) for pairs in values]


@pytest.fixture(scope="module")
def region_programs(region_balls):
    """The six region values as the reference's min t programs."""
    return [
        ref.capped_ball(ref.plain(ball.eigs, ball.sigma, ball.free_mass), 0.1)
        for ball in region_balls
    ]


def bit_twins(balls, i: int) -> list[int]:
    """The positions of the balls equal to ``balls[i]`` to the bit.  On the
    region pass, the X cell's V register and the Y cell's are the same
    state (instrument_derived's outcomes pair x with y), and the stacked
    weighted blocks make them the same ball."""
    def data(ball):
        return (ball.free_mass, ball.fidelity, [m.tobytes() for m in ball.eigs + ball.sigma])

    twins = [j for j, ball in enumerate(balls) if data(ball) == data(balls[i])]
    assert twins == [1, 4]
    return twins


def shapes(ball) -> list:
    """(r, d, real) of each sub-block of a ball."""
    return [(r, d, real) for r, d, real, n in sdp._groups(ball) for _ in range(n)]


def layout(*balls):
    """The library's layout of a batch of balls: their pose, read where
    the solver reads it."""
    return sdp._Layout(tuple((sdp._groups(ball), ball.free_mass > 0.0) for ball in balls))


def block_sizes(ball) -> set:
    """The sizes of a ball's PSD blocks."""
    return {size for size, *_ in layout(ball).slabs}


def slabs(ball) -> set:
    """(size, field) of a ball's PSD blocks, the stacks of a batch."""
    return {(size, real) for size, real, *_ in layout(ball).slabs}


def schur_size(ball) -> int:
    """A ball's free reals, plus the trace row that borders its Schur matrix."""
    return layout(ball).n_x + 1


@pytest.fixture(scope="module")
def decode_balls():
    """The two capped balls of the ``decode`` benchmark's set-up
    (qubit_entangled_side_info, ``thresholds`` at eps 0.1), as it hands
    them to ``sdp.minimize_balls``: the X value, two real (2, 2)
    sub-blocks, and the Y|XE value, four real (1, 2) sub-blocks."""
    batches, minimize_balls = [], sdp.minimize_balls
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(
            sdp, "minimize_balls", lambda balls: (batches.append(balls), minimize_balls(balls))[1]
        )
        P.thresholds(prep_mod.prepare(io.load_bundled("qubit_entangled_side_info")), 0.1)
    ((x_value, y_value),) = batches
    assert shapes(x_value) == [(2, 2, True)] * 2 and shapes(y_value) == [(1, 2, True)] * 4
    return x_value, y_value


@pytest.fixture(scope="module")
def wide_ball():
    """A complex ball of four (1, 6) sub-blocks, each sigma_b of rank 2
    (``oracles.shared_support_pairs``), at eps 0.1: d > 2r, so each keeps
    Watrous's (r + d) block."""
    pairs = oracles.shared_support_pairs(np.random.default_rng(3), 4, 6, 2)
    value = sdp.Ball(*ent._ball_blocks(pairs), math.sqrt(1 - 0.1**2))
    assert shapes(value) == [(1, 6, False)] * 4
    return value


def test_the_pose_of_a_sub_block_reads_its_rank_and_dimension(wide_ball):
    # the support pose (k = r) while d <= 2r, Watrous's (r + d) block
    # (k = d) past it; r = d is both
    want = {(1, 1): 1, (2, 2): 2, (1, 2): 1, (2, 3): 2, (2, 4): 2, (3, 4): 3,
            (1, 3): 3, (1, 6): 6, (2, 5): 5, (1, 20): 20}
    assert {shape: sdp._trailing(*shape) for shape in want} == want
    assert sdp._blocks(1, 2) == (("g", 2), ("p", 2), ("c", 2))
    assert sdp._blocks(1, 6) == (("g", 7), ("c", 6))
    # the wide ball: one 7 x 7 G_b and one 6 x 6 cap per sub-block, Z_b
    # 1 x 6 and rho'_b whole in G_b, and no rho'_b block
    assert [(size, count) for size, _, _, count, *_ in layout(wide_ball).slabs] == [(6, 4), (7, 4)]
    assert schur_size(wide_ball) == 4 * (7 * 7 - 1) + 1 + 1
    (res,) = sdp.minimize_balls([wide_ball])
    assert res.status == "optimal"
    assert [z.shape for z in res.point.z] == [(4, 1, 6)] and res.dual.psd == [None]


def test_support_pose_of_the_decode_batch(decode_balls):
    # each (1, 2) sub-block of the Y|XE value is posed as a 2 x 2 G_b on
    # supp(rho_b), its 2 x 2 rho'_b and its 2 x 2 cap: 4 free reals each
    # (Z_b, rho'_b's three), so the batch has two block sizes, not three,
    # and the Y|XE Schur system is 4 * 4 + t + the trace row
    x_value, y_value = decode_balls
    assert block_sizes(x_value) == {2, 4} and block_sizes(y_value) == {2}
    assert schur_size(x_value) == 16 and schur_size(y_value) == 18
    assert [(size, count) for size, _, _, count, *_ in layout(*decode_balls).slabs] == [
        (2, 14),
        (4, 2),
    ]


def test_linalg_calls_per_iteration_on_the_support_pose(decode_balls, monkeypatch):
    # the Y|XE value has one block size: per iteration one cholesky and one
    # eigh (the scaling), one eigvalsh in each of the two step tests and
    # two Schur solves; around the loop each recheck's one eigvalsh
    ball = decode_balls[1]
    rechecks, recheck = [], sdp.recheck
    monkeypatch.setattr(sdp, "recheck", lambda *args: (rechecks.append(1), recheck(*args))[1])
    calls = linalg_spy(monkeypatch)
    (res,) = sdp.minimize_balls([ball])
    assert res.status == "optimal" and res.iterations == 11
    count = collections.Counter(calls)
    assert count["cholesky"] == count["eigh"] == res.iterations
    assert count["eigvalsh"] == 2 * res.iterations + len(rechecks)
    assert count["solve"] == 2 * res.iterations
    assert sum(count.values()) == sum(count[k] for k in ("cholesky", "eigh", "eigvalsh", "solve"))


def test_linalg_calls_per_iteration_on_the_region_program(region_balls, monkeypatch):
    # the largest value of the X-axis cell (real sub-blocks, five of (2, 2)
    # and two of (1, 1), and w: 41 free reals): per iteration one cholesky
    # and one eigh per block size (the scaling), one eigvalsh per block size
    # in each of the two step tests and two Schur solves; around the loop
    # the rechecks' one eigvalsh per block size.  No svd, no null space
    ball = max(region_balls[:3], key=schur_size)
    assert schur_size(ball) == 42 and block_sizes(ball) == {2, 4}
    rechecks, recheck = [], sdp.recheck
    monkeypatch.setattr(sdp, "recheck", lambda *args: (rechecks.append(1), recheck(*args))[1])
    calls = linalg_spy(monkeypatch)
    (res,) = sdp.minimize_balls([ball])
    assert res.status == "optimal" and res.iterations > 10
    count = collections.Counter(calls)
    assert count["cholesky"] == count["eigh"] == 2 * res.iterations
    assert count["eigvalsh"] == 2 * 2 * res.iterations + 2 * len(rechecks)
    assert count["solve"] == 2 * res.iterations
    assert sum(count.values()) == sum(count[k] for k in ("cholesky", "eigh", "eigvalsh", "solve"))


def dual_bits(dual) -> tuple:
    """A block-form dual as exact values and bytes."""
    blocks = [m.tobytes() for m in dual.g + [p for p in dual.psd if p is not None] + dual.cap]
    return blocks, [p is None for p in dual.psd], dual.fid, dual.floor, dual.free_cap


def ball_bits(res) -> tuple:
    """Everything a block-form solve returns, as exact values and bytes."""
    point = res.point
    return (
        res.status,
        res.iterations,
        {k: float(v).hex() for k, v in res.residuals.items()},
        (point.t.hex(), point.w.hex(), [m.tobytes() for m in point.z + point.rho]),
        dual_bits(res.dual),
    )


def result_bits(res) -> tuple:
    """Everything a solve returns, as exact values and bytes."""
    return (
        res.status,
        res.iterations,
        {k: float(v).hex() for k, v in res.residuals.items()},
        {k: v.tobytes() for k, v in res.assignment.items()},
        res.dual.tobytes(),
    )


class TestBatch:
    """``sdp.minimize_balls`` steps its values together and gives each the
    result of its lone solve (a batch of one), bit for bit, and so does
    the reference's ``minimize_many`` with its programs."""

    def test_each_result_is_its_lone_solve(self, region_balls):
        # the six region values (real sub-blocks of shapes (2, 2) and
        # (1, 1)), the Hermitian ball of random_pair, and the first region
        # value with fidelity 1.5, which no point meets (sum_a Re Z[a, a] <=
        # sqrt(sum_a lambda_a) sqrt(Tr rho') = 1), so its iterates diverge
        # and stop "maxIterations" long before IPM_MAX_ITER; in two orders
        herm = sdp.Ball(*ent._ball_blocks([random_pair()]), math.sqrt(1 - 0.1**2))
        first = region_balls[0]
        far = sdp.Ball(first.eigs, first.sigma, first.free_mass, 1.5)
        batch = [*region_balls, herm, far]
        fields = [{not real for _, _, real in shapes(ball)} for ball in batch]
        assert fields == [{False}] * 6 + [{True}, {False}]
        lone = [ball_bits(sdp.minimize_balls([ball])[0]) for ball in batch]
        assert [bits[0] for bits in lone] == ["optimal"] * 7 + ["maxIterations"]
        assert lone[-1][1] < sdp.IPM_MAX_ITER
        for order in (list(range(len(batch))), list(range(len(batch)))[::-1]):
            got = sdp.minimize_balls([batch[i] for i in order])
            assert [ball_bits(res) for res in got] == [lone[i] for i in order]

    def test_a_batch_of_both_poses_is_each_lone_solve(self, decode_balls, region_balls, wide_ball):
        # values with r < d sub-blocks in the support pose (the Y|XE value
        # of decode's set-up, whose G_b, rho'_b and caps all share the 2 x 2
        # slab) and in the (r + d) block (the wide ball) beside values
        # whose sub-blocks all have r = d, interleaved, in two orders
        batch = [decode_balls[1], region_balls[0], wide_ball, decode_balls[0], region_balls[2]]
        psd = [any(p is not None for p in sdp.minimize_balls([b])[0].dual.psd) for b in batch]
        assert psd == [True, False, False, False, False]
        lone = [ball_bits(sdp.minimize_balls([ball])[0]) for ball in batch]
        assert [bits[0] for bits in lone] == ["optimal"] * 5
        for order in ([0, 1, 2, 3, 4], [4, 3, 2, 1, 0]):
            got = sdp.minimize_balls([batch[i] for i in order])
            assert [ball_bits(res) for res in got] == [lone[i] for i in order]

    def test_kernels_match_per_program_calls(self, region_programs):
        # the interleaved problem (real blocks 2, 3, 2, 4, 3), mixed_rows
        # (the same blocks over the Hermitian field) and two region programs
        # (real blocks 4 and 2): union slabs of three dimensions and both
        # fields, each program's share at its own rows.  Every kernel over
        # all four gives each program the bytes of its own call
        progs = [
            ref.Program(prob)
            for prob in (interleaved_blocks_problem(), mixed_rows_problem(), *region_programs[:2])
        ]
        rng = np.random.default_rng(26)
        for _ in range(3):
            items = [(prog, random_interior(prog, rng), random_interior(prog, rng)) for prog in progs]
            cones = ref._scaled_cones(items)
            alone = [ref._scaled_cones([item])[0] for item in items]
            for cone, one in zip(cones, alone):
                assert [m.tobytes() for m in cone.scales] == [m.tobytes() for m in one.scales]
                for name in ("lam", "mid", "isq", "t_scalar"):
                    assert getattr(cone, name).tobytes() == getattr(one, name).tobytes()
            vecs = [rng.normal(size=(2, prog.n_graph)) for prog in progs]
            for kernel, args in (
                (ref._max_steps, [(c, tuple(v)) for c, v in zip(cones, vecs)]),
                (ref._jordans, [(c, *v) for c, v in zip(cones, vecs)]),
                (ref._scale_many, [(c, v[0]) for c, v in zip(cones, vecs)]),
                (ref._scale_adjoint_many, [(c, v[1]) for c, v in zip(cones, vecs)]),
            ):
                each = [kernel([arg])[0] for arg in args]
                assert [np.asarray(x).tobytes() for x in kernel(args)] == [
                    np.asarray(x).tobytes() for x in each
                ]

    def test_a_linalg_error_stops_only_its_program(
        self, region_balls, region_programs, monkeypatch
    ):
        # a cholesky that raises on the blocks of one program's fourth cone
        # (the 56-real program of the X cell, whose 18 blocks of dimension 2
        # share their slab with the other programs' blocks): that program,
        # and the Y cell's program that is the same to the bit, stop at
        # "maxIterations" after 3 steps, as it does alone, and the others do
        # not change
        twins = bit_twins(region_balls, 1)
        target = region_programs[1]
        assert [d for d, _, _ in ref.Program(target).slabs] == [2]
        cholesky, inputs = np.linalg.cholesky, []
        with monkeypatch.context() as mp:
            mp.setattr(np.linalg, "cholesky", lambda a: (inputs.append(a.copy()), cholesky(a))[1])
            minimize(target)
        poison = {m.tobytes() for m in inputs[3].reshape(-1, 2, 2)}
        raised = []

        def poisoned(a):
            if any(m.tobytes() in poison for m in a.reshape((-1,) + a.shape[-2:])):
                raised.append(a.shape)
                raise np.linalg.LinAlgError("poisoned block")
            return cholesky(a)

        want = [result_bits(minimize(prob)) for prob in region_programs]
        monkeypatch.setattr(np.linalg, "cholesky", poisoned)
        alone = minimize(target)
        assert (alone.status, alone.iterations) == ("maxIterations", 3)
        for i in twins:
            want[i] = result_bits(alone)
        raised.clear()
        assert [result_bits(res) for res in ref.minimize_many(region_programs)] == want
        # the stacked call over all six programs' blocks of dimension 2, then
        # the own calls of the target and its twin
        assert raised == [(2, 56, 2, 2)] + [(2, 18, 2, 2)] * len(twins)

    def test_linalg_calls_per_round_on_the_region_batch(self, region_balls, monkeypatch):
        # per round of the loop: one cholesky and one eigh per union slab
        # (a block size and field of the values still stepping), one
        # eigvalsh per union slab in each of the two step tests, and two
        # stacked Schur solves per size of the stepping values' Schur
        # matrices; around the loop: each recheck's one eigvalsh per block
        # size.  No svd
        rechecked, recheck = [], sdp.recheck
        monkeypatch.setattr(
            sdp, "recheck", lambda ball, point: (rechecked.append(ball), recheck(ball, point))[1]
        )
        calls = linalg_spy(monkeypatch)
        results = sdp.minimize_balls(region_balls)
        assert [res.status for res in results] == ["optimal"] * 6
        steps = [res.iterations for res in results]
        rounds = range(max(steps))
        stepping = [[b for b, n in zip(region_balls, steps) if n > r] for r in rounds]
        unions = [len(set().union(*map(slabs, balls))) for balls in stepping]
        sizes = [len({schur_size(b) for b in balls}) for balls in stepping]
        count = collections.Counter(calls)
        assert count["svd"] == 0
        assert count["cholesky"] == count["eigh"] == sum(unions)
        recheck_eigs = sum(len(block_sizes(ball)) for ball in rechecked)
        assert count["eigvalsh"] == 2 * sum(unions) + recheck_eigs
        assert count["solve"] == 2 * sum(sizes)
        kinds = ("cholesky", "eigh", "eigvalsh", "solve")
        assert sum(count.values()) == sum(count[k] for k in kinds)
        # the lone solves make one cholesky per slab per value and step
        assert sum(unions) < sum(len(slabs(b)) * n for b, n in zip(region_balls, steps))


def mixed_field_pairs() -> list:
    """Two pairs, one value: each pair the direct sum of three 2 x 2
    components whose rho is diagonal (its own eigenbasis, up to order): of
    rank 2 under a complex sigma, of rank 1 under a real sigma that joins
    its two indices, and of rank 2 under a real sigma.  So the value has
    sub-blocks of one (r, d) = (2, 2) over both fields, and of (1, 2)
    beside them, two of each."""
    out = []
    for rank_two, rank_one, off in (((0.2, 0.1), 0.08, 0.3), ((0.15, 0.12), 0.05, 0.2)):
        rho, sigma = np.zeros((6, 6), dtype=complex), np.zeros((6, 6), dtype=complex)
        rho[[0, 1, 4, 5], [0, 1, 4, 5]] = [*rank_two, *rank_two]
        rho[2, 2] = rank_one
        sigma[:2, :2] = [[0.2, off * 0.1j], [-off * 0.1j, 0.1]]
        sigma[2:4, 2:4] = [[0.1, off * 0.1], [off * 0.1, 0.2]]
        sigma[4:, 4:] = [[0.3, 0.05], [0.05, 0.1]]
        out.append((rho, sigma / 2))
    total = sum(np.trace(rho).real for rho, _ in out)
    return [(rho / total, sigma) for rho, sigma in out]


class TestGroups:
    """A ball holds one stack per (r, d, field): sub-blocks of one (r, d)
    over two fields are two stacks, each solved over its own field."""

    def test_one_stack_per_rank_dimension_and_field(self, region_balls):
        pairs = mixed_field_pairs()
        ball = sdp.Ball(*ent._ball_blocks(pairs), math.sqrt(1 - 0.1**2))
        assert sdp._groups(ball) == ((2, 2, False, 2), (1, 2, True, 2), (2, 2, True, 2))
        # the certified interval (v - BISECT_TOL_BITS, v] holds the
        # reference program's min t
        (res,) = sdp.minimize_balls([ball])
        value = ent._certified_value(ball, res)
        prob = ref.capped_ball(ref.plain(ball.eigs, ball.sigma, ball.free_mass), 0.1)
        want = minimize(prob)
        assert want.status == "optimal"
        top = math.log2(float(want.assignment["t"][0, 0].real))
        assert value - ent.BISECT_TOL_BITS < top <= value + 1e-12
        # its solve among the region values is its lone solve, bit for bit
        lone = ball_bits(res)
        for batch in ([*region_balls, ball], [*region_balls[:3], ball, *region_balls[3:]]):
            (got,) = [res for b, res in zip(batch, sdp.minimize_balls(batch)) if b is ball]
            assert ball_bits(got) == lone


class TestBlockSolver:
    """``sdp.minimize_balls``' size cap and its ``LinAlgError`` trace."""

    def test_too_large_ball_raises_before_building(self, monkeypatch):
        # the cap counts the free reals of the block form, G_b's rvec off its
        # corner plus t: a complex sub-block of rank 1 and dimension 77 has
        # 78^2 - 1 + 1 = 6084 > MAX_VAR_REALS, a real one of dimension 109
        # 110 * 111 / 2 - 1 + 1 = 6105
        def guard(balls):
            raise AssertionError("the size check must come before the batch is built")

        monkeypatch.setattr(sdp, "_Batch", guard)
        phase = np.eye(77, dtype=complex)
        phase[0, 1], phase[1, 0] = 0.1j, -0.1j
        for sigma, reals in ((phase, 6084), (np.eye(109), 6105)):
            ball = sdp.Ball([np.ones((1, 1))], [sigma[None]], 0.0, 0.9)
            with pytest.raises(sdp.ProblemTooLarge) as info:
                sdp.minimize_balls([ball])
            assert isinstance(info.value, ValueError)
            assert f"{reals} var reals" in str(info.value)
            assert f"MAX_VAR_REALS = {sdp.MAX_VAR_REALS}" in str(info.value)

    def test_a_linalg_error_stops_only_its_value(self, region_balls, monkeypatch):
        # a cholesky that raises on the blocks of one value's fourth scaling
        # (the X cell's value of eighteen (1, 1) sub-blocks, whose 2 x 2 G_b
        # share their stack with the other values' blocks of size 2): that
        # value, and the Y cell's value that is the same to the bit, stop
        # "maxIterations" after 3 steps, as it does alone, and the others do
        # not change
        twins = bit_twins(region_balls, 1)
        target = region_balls[1]
        assert slabs(target) == {(2, True)} and len(shapes(target)) == 18
        cholesky, inputs = np.linalg.cholesky, []
        with monkeypatch.context() as mp:
            mp.setattr(np.linalg, "cholesky", lambda a: (inputs.append(a.copy()), cholesky(a))[1])
            sdp.minimize_balls([target])
        poison = {m.tobytes() for m in inputs[3].reshape(-1, 2, 2)}
        raised = []

        def poisoned(a):
            if any(m.tobytes() in poison for m in a.reshape((-1,) + a.shape[-2:])):
                raised.append(a.shape)
                raise np.linalg.LinAlgError("poisoned block")
            return cholesky(a)

        want = [ball_bits(sdp.minimize_balls([ball])[0]) for ball in region_balls]
        monkeypatch.setattr(np.linalg, "cholesky", poisoned)
        (alone,) = sdp.minimize_balls([target])
        assert (alone.status, alone.iterations) == ("maxIterations", 3)
        for i in twins:
            want[i] = ball_bits(alone)
        raised.clear()
        assert [ball_bits(res) for res in sdp.minimize_balls(region_balls)] == want
        # the stacked call over all six values' blocks of size 2, then the
        # own calls of the target and its twin
        (size_two,) = [count for size, _, _, count, *_ in layout(*region_balls).slabs if size == 2]
        assert raised == [(size_two, 2, 2)] + [(18, 2, 2)] * len(twins)


def kernel_assignments(which) -> list:
    """Assignments of a ``kernel_problem``: the solve's point (feasible),
    that point moved by 1e-9 (feasible within the recheck's tolerance) and
    by 0.1, and three random Hermitian assignments (infeasible)."""
    prob = kernel_problem(which)
    ball = which in ("ball_cap", "min_t")
    point = minimize(kernel_problem("min_t") if ball else feasibility_problem(which)).assignment
    rng = np.random.default_rng(24)
    out = [point]
    for size in (1e-9, 0.1):
        out.append({k: x + size * oracles.random_hermitian(rng, len(x)) for k, x in point.items()})
    out += [{lab: oracles.random_hermitian(rng, d) for lab, d in prob.variables.items()} for _ in range(3)]
    return out


class TestRecheck:
    """``_recheck`` evaluates the problem's own expressions, with one stacked
    ``eigvalsh`` per block dimension and the scalar terms stacked per shape
    of their F."""

    @pytest.mark.parametrize("which", KERNEL_PROBLEMS)
    def test_matches_per_expression_oracle(self, which):
        prob = kernel_problem(which)
        verdicts = set()
        for assign in kernel_assignments(which):
            got = ref._recheck(prob, assign)
            want = oracles.recheck_per_expression(prob, assign)
            assert {k: v.hex() for k, v in got.items()} == {k: v.hex() for k, v in want.items()}
            verdicts.add(ref.recheck(prob, assign)[0])
        assert verdicts == {True, False}

    def test_region_rechecks_match_per_expression_oracle(self, region_programs):
        # the rechecks of a region pass, on programs of up to 20 variables
        # whose scalar rows mix terms of shapes 1, 2 and 4: each solve's
        # point, and the same point with t lowered by BISECT_TOL_BITS, over
        # its caps
        verdicts = set()
        for prob, res in zip(region_programs, ref.minimize_many(region_programs)):
            low = dict(res.assignment, t=res.assignment["t"] * 2.0**-ent.BISECT_TOL_BITS)
            for assign in (res.assignment, low):
                got = ref._recheck(prob, assign)
                want = oracles.recheck_per_expression(prob, assign)
                assert {k: v.hex() for k, v in got.items()} == {k: v.hex() for k, v in want.items()}
                verdicts.add(ref.recheck(prob, assign)[0])
        assert verdicts == {True, False}

    @pytest.mark.parametrize("which", KERNEL_PROBLEMS)
    def test_scalar_rows_match_evaluate(self, which):
        # each row's value has the bits of ScalarExpr.evaluate: its terms
        # added to the constant in term order, whatever the variables' order
        prob = kernel_problem(which)
        for assign in kernel_assignments(which):
            for rows in (prob.inequalities, prob.equalities):
                got = ref._scalar_values(rows, assign).tolist()
                assert [v.hex() for v in got] == [row.evaluate(assign).hex() for row in rows]

    @pytest.mark.parametrize("which", KERNEL_PROBLEMS)
    def test_one_eigvalsh_per_block_dimension(self, which, monkeypatch):
        prob = kernel_problem(which)
        assign = kernel_assignments(which)[-1]
        calls = linalg_spy(monkeypatch)
        ref._recheck(prob, assign)
        assert calls == ["eigvalsh"] * len(set(e.dim for e in prob.psd_constraints))


class TestBatchedProbe:
    """Set-up probing over stacked bases equals the per-basis prober."""

    @pytest.mark.parametrize("which", KERNEL_PROBLEMS)
    def test_columns_equal_per_basis_prober(self, which):
        prog = ref.Program(kernel_problem(which))
        assert np.array_equal(prog._columns(), oracles.probe_columns_per_basis(prog))

    def test_every_term_kind_is_probed(self):
        kinds = {
            t.kind
            for which in KERNEL_PROBLEMS
            for expr in kernel_problem(which).psd_constraints
            for t in expr.terms
        }
        assert kinds == {"id", "kron", "subblock"}

    def test_batched_apply_equals_per_matrix_calls(self):
        rng = np.random.default_rng(10)
        left = oracles.random_hermitian(rng, 2)
        terms = [
            ref.Term("X", "id", -0.7),
            ref.Term("X", "kron", 1.3, left=left),
            ref.Term("X", "subblock", -1.1, start=2),
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
        iteration count and value bits from ``ref.minimize_many`` when
        ``Program`` probes its map per basis matrix."""
        prob = capped_ball(*env_state_pair(), 0.1)

        def run():
            res = minimize(prob)
            return res.status, res.iterations, float(res.assignment["t"][0, 0].real).hex()

        kernels = run()
        monkeypatch.setattr(ref.Program, "_columns", oracles.probe_columns_per_basis)
        assert kernels == run()
        assert kernels[0] == "optimal"


class TestFeasibility:
    """Feasibility problems posed to ``minimize_many`` with an objective that
    their trace equality holds constant."""

    @staticmethod
    def solve_box(dim, target_trace):
        return minimize(box_with_objective(dim, target_trace))

    def test_unique_point_identity(self):
        res = self.solve_box(3, 3)
        assert res.status == "optimal"
        assert np.max(np.abs(res.assignment["X"] - np.eye(3))) < 1e-5

    def test_infeasible_trace(self):
        # 0 <= X <= I caps Tr X at 3: the relaxation X <= t I has min t = 4/3,
        # and its dual is a witness against t = 1
        res = minimize(box_min_t(3, 4))
        assert res.status == "optimal"
        assert res.assignment["t"][0, 0].real == pytest.approx(4 / 3, abs=1e-5)
        assert ref.witness_fires(*ref.Program(box_problem(3, 4)).farkas(res.dual)[2:])

    def test_infeasible_box_stops_without_a_verdict(self):
        # the iterates of 0 <= X <= I, Tr X = 4 diverge: the solve stops once
        # the duality gap passes the start's gap / GAP_TOL, long before
        # IPM_MAX_ITER, and keeps its last point
        res = self.solve_box(3, 4)
        assert res.status == "maxIterations"
        assert res.iterations < ref.IPM_MAX_ITER
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


class TestSizeCap:
    def test_too_large_problem_raises_before_compiling(self, monkeypatch):
        # the cap counts the reals of the field solved: one 78 x 78 variable
        # has 6084 > MAX_VAR_REALS Hermitian coordinates (a complex constant
        # makes the problem complex), and a real 110 x 110 one 6105 real
        # symmetric ones
        def compile_guard(self):
            raise AssertionError("the size check must come before the compile step")

        monkeypatch.setattr(ref.Program, "_columns", compile_guard)

        def one_block(d, const):
            prob = ref.SDProblem()
            prob.add_var("X", d)
            prob.require_psd(oracles.const_expr(ref, const).plus_var("X"))
            return prob

        phase = np.zeros((78, 78), dtype=complex)
        phase[0, 1], phase[1, 0] = 1j, -1j
        for prob, reals in ((one_block(78, phase), 6084), (one_block(110, 0 * np.eye(110)), 6105)):
            with pytest.raises(ref.ProblemTooLarge) as info:
                ref.Program(prob)
            assert isinstance(info.value, ValueError)
            assert f"{reals} var reals" in str(info.value)
            assert f"MAX_VAR_REALS = {ref.MAX_VAR_REALS}" in str(info.value)


def witness_functional(prob, w, nu, assign) -> float:
    """<G x + c, w> + <G_eq x + c_eq, nu> at x = assign, evaluated from the
    problem's own expressions: w holds one rvec block per PSD constraint
    (over the field of ``Program(prob)``), then one weight per inequality;
    nu one weight per equality."""
    val, pos, real = 0.0, 0, ref.Program(prob).real
    for expr in prob.psd_constraints:
        k = ref.rvec_size(expr.dim, real)
        block = ref.rvec_to_herm(w[pos : pos + k], expr.dim, real)
        assert np.linalg.eigvalsh(block)[0] >= -1e-12
        val += float(np.real(np.sum(block.conj() * expr.evaluate(assign))))
        pos += k
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
    min t solve, read as a Farkas witness on the program with t fixed (the
    solve's own program with t held, or ``oracles.pin_variable``'s)."""

    def test_box_witness_checked_from_expressions(self):
        # the box has real data, so its witness is a real one; r runs over
        # the Hermitian basis, so it bounds every Hermitian X, not only the
        # real symmetric ones the solve worked over
        prob = box_problem(3, 4)
        assert ref.Program(prob).real
        w, nu, gap, resid = ref.Program(prob).farkas(minimize(box_min_t(3, 4)).dual)
        const = witness_functional(prob, w, nu, {"X": np.zeros((3, 3), dtype=complex)})
        r = [witness_functional(prob, w, nu, {"X": b}) - const for b in herm_basis(3)]
        assert const == pytest.approx(-gap, abs=1e-12)
        assert np.linalg.norm(r) == pytest.approx(resid, abs=1e-12)
        assert ref.witness_fires(gap, resid)
        # at a feasible X every term is >= 0, yet 0 <= X <= I gives |X| <= sqrt 3
        # and a value <= -gap + |r| sqrt 3 < 0: no feasible X exists
        assert gap - np.linalg.norm(r) * np.sqrt(3) > 0

    @pytest.mark.parametrize("which", ["box", "interleaved"])
    def test_no_witness_fires_on_feasible_problems(self, which):
        # a feasible point x has |x| < 1 / WITNESS_RATIO, so no witness may fire
        prob = feasibility_problem(which)
        res = minimize(prob)
        assert res.status == "optimal"
        assert not ref.witness_fires(*ref.Program(prob).farkas(res.dual)[2:])

    @staticmethod
    def solved(which):
        """(rho, sigma, v = log2 of the optimal t, the solve's result) at eps 0.1."""
        rho, sigma = env_state_pair() if which == "env" else random_pair()
        res = minimize(capped_ball(rho, sigma, 0.1))
        assert res.status == "optimal"
        return rho, sigma, math.log2(float(res.assignment["t"][0, 0].real)), res

    @pytest.mark.parametrize("which", ["env", "random"])
    def test_min_t_dual_fires_only_below_the_value(self, which):
        rho, sigma, value, res = self.solved(which)
        tol = ent.BISECT_TOL_BITS
        below = capped_ball_at(rho, sigma, 0.1, value - tol)
        assert ref.witness_fires(*ref.Program(below).farkas(res.dual)[2:])
        # the soundness half: above the value the program is feasible (the
        # solve's own point passes), so no witness may fire there
        above = capped_ball_at(rho, sigma, 0.1, value + tol)
        assert ref.recheck(above, res.assignment)[0]
        assert not ref.witness_fires(*ref.Program(above).farkas(res.dual)[2:])

    @pytest.mark.parametrize("which", ["env", "random"])
    def test_farkas_matches_expression_oracle_on_min_t_duals(self, which):
        # Program.farkas clips each block dimension's stack with one eigh;
        # the oracle clips block by block and evaluates the expressions
        rho, sigma, value, res = self.solved(which)
        z = res.dual
        below = capped_ball_at(rho, sigma, 0.1, value - ent.BISECT_TOL_BITS)
        gap, resid = ref.Program(below).farkas(z)[2:]
        want_gap, want_resid = oracles.farkas_from_expressions(below, z)
        assert ref.witness_fires(gap, resid) and ref.witness_fires(want_gap, want_resid)
        assert gap == pytest.approx(want_gap, rel=1e-12)
        assert resid == pytest.approx(want_resid, abs=1e-13)  # w is a unit vector
        above = capped_ball_at(rho, sigma, 0.1, value + ent.BISECT_TOL_BITS)
        assert not ref.witness_fires(*oracles.farkas_from_expressions(above, z))

    def test_held_t_matches_the_pinned_program_on_region_programs(self, region_programs):
        # d_max_smooth's witness: the solve's own program with t held, against
        # the fixed-t program rebuilt from the expressions; it fires below the
        # value and not above it
        for prob, res in zip(region_programs, ref.minimize_many(region_programs)):
            value = math.log2(float(res.assignment["t"][0, 0].real))
            for step, below in ((-ent.BISECT_TOL_BITS, True), (ent.BISECT_TOL_BITS, False)):
                t0 = 2.0 ** (value + step)
                gap, resid = res.program.farkas(res.dual, {"t": t0})[2:]
                pinned = oracles.pin_variable(prob, "t", t0)
                want = oracles.farkas_from_expressions(pinned, res.dual)
                assert ref.witness_fires(gap, resid) == ref.witness_fires(*want) == below
                assert gap == pytest.approx(want[0], rel=1e-9)

    def test_held_variable_in_an_equality_row_raises(self, region_programs):
        # w joins the trace equality, so holding it would change nu
        res = minimize(next(prob for prob in region_programs if "w" in prob.variables))
        with pytest.raises(ValueError, match="outside every equality row"):
            res.program.farkas(res.dual, {"w": 0.5})


class TestGeneratedSuite:
    def test_strictly_feasible_within_budget(self):
        # X PSD with margin: find X with A X A^dag <= B where B has slack
        rng = np.random.default_rng(2)
        for trial in range(10):
            d = int(rng.integers(2, 5))
            rho = oracles.random_density(rng, d)
            prob = ref.SDProblem()
            prob.add_var("X", d)
            prob.require_psd(ref.AffineExpr.zero(d).plus_var("X"))
            # X <= rho + margin I has interior point X = rho
            prob.require_psd(
                oracles.const_expr(ref, rho + 5e-3 * np.eye(d)).plus_var("X", -1.0)
            )
            prob.require_eq(ref.trace_functional("X", d, const=-1.0))
            prob.objective = ref.trace_functional("X", d)  # constant: a feasibility solve
            res = minimize(prob)
            assert res.status == "optimal", f"trial {trial}"

    def test_objective_minimize_trace(self):
        # minimize Tr X subject to X >= rho (X PSD): optimum X = rho
        rng = np.random.default_rng(4)
        rho = oracles.random_density(rng, 2)
        prob = ref.SDProblem()
        prob.add_var("X", 2)
        prob.require_psd(oracles.const_expr(ref, -rho).plus_var("X"))
        prob.require_psd(ref.AffineExpr.zero(2).plus_var("X"))
        prob.objective = ref.trace_functional("X", 2)
        res = minimize(prob)
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
        prob = ref.SDProblem()
        prob.add_var("rhop", d)
        prob.add_var("Zre", d)
        prob.add_var("Zim", d)
        block = oracles.const_expr(ref, np.kron(e00, rho))
        block.plus_kron(e11, "rhop")
        block.plus_kron(sx, "Zre")
        block.plus_kron(-sy, "Zim")
        prob.require_psd(block)
        if lam is None:
            prob.add_var("t", 1)
            prob.objective = ref.trace_functional("t", 1)
            cap = ref.AffineExpr.zero(d).plus_kron(sigma, "t")
        else:
            cap = oracles.const_expr(ref, 2.0**lam * sigma)
        prob.require_psd(cap.plus_var("rhop", -1.0))
        prob.require_eq(ref.trace_functional("rhop", d, const=-1.0))
        prob.require_geq(ref.trace_functional("Zre", d, const=-float(c)))
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
        res = minimize(self.fidelity_ball_problem(np.diag(p), np.diag(s), None, target))
        assert res.status == "optimal"
        assert math.log2(res.assignment["t"][0, 0].real) == pytest.approx(lam_star, abs=1e-5)
        for lam in np.linspace(lam_star - 1.0, lam_star + 1.0, 20):
            if abs(lam - lam_star) < 2e-3:
                continue  # too close to the boundary to classify numerically
            prob = self.fidelity_ball_problem(np.diag(p), np.diag(s), lam, target)
            feasible = ref.recheck(prob, res.assignment)[0]
            infeasible = ref.witness_fires(*ref.Program(prob).farkas(res.dual)[2:])
            assert (feasible, infeasible) == (lam >= lam_star, lam < lam_star), lam
