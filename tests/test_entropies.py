import collections
import dataclasses
import itertools
import math

import numpy as np
import pytest
import scipy.linalg

from povmcomp import entropies as ent, io, linalg as la, qobjects as qo, sdp
from povmcomp import protocols as P

import oracles


def dist(*probs, names=None):
    names = names or tuple(str(i) for i in range(len(probs)))
    return qo.Distribution(tuple(names), np.array(probs))


class TestHmax:
    def test_uniform_eps0(self):
        assert np.isclose(ent.h_max_smooth(dist(0.25, 0.25, 0.25, 0.25), 0.0), 2.0)

    def test_spec_example(self):
        # eps = 0.05 drops exactly the last symbol
        value = ent.h_max_smooth(dist(0.5, 0.3, 0.15, 0.05), 0.05)
        assert np.isclose(value, math.log2(3), atol=1e-12)

    def test_eps0_support_size(self):
        assert np.isclose(ent.h_max_smooth(dist(0.9, 0.0999, 0.0001), 0.0), math.log2(3))

    def test_matches_lp_oracle(self):
        rng = np.random.default_rng(0)
        for trial in range(200):
            n = int(rng.integers(2, 13))
            p = rng.dirichlet(np.ones(n) * rng.uniform(0.3, 3.0))
            eps = [0.0, 0.05, 0.1][trial % 3]
            value = ent.h_max_smooth(dist(*p), eps)
            assert abs(value - oracles.hmax_lp_oracle(p, eps)) < 1e-9

    def test_monotone_in_eps(self):
        rng = np.random.default_rng(1)
        p = rng.dirichlet(np.ones(6))
        vals = [ent.h_max_smooth(dist(*p), e) for e in (0.0, 0.02, 0.1, 0.3)]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_eps_out_of_range(self):
        with pytest.raises(ValueError):
            ent.h_max_smooth(dist(1.0), 1.0)

    def test_atoms_with_multiplicity(self):
        # 8 atoms of 1/8 equals one atom with multiplicity 8
        v1 = ent.smooth_max_entropy_atoms([(0.125, 8.0)], 0.1)
        v2 = ent.h_max_smooth(dist(*([0.125] * 8)), 0.1)
        assert np.isclose(v1, v2, atol=1e-12)


class TestDHyp:
    def test_equal_states(self):
        rho = np.diag([0.6, 0.4]).astype(complex)
        for eps in (0.1, 0.25):
            val, test = ent.d_hyp(rho, rho, eps)
            assert np.isclose(val, -math.log2(1 - eps), atol=1e-9)
            assert test.achieved_alpha >= 1 - eps - 1e-10

    def test_orthogonal_states(self):
        val, _ = ent.d_hyp(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), 0.1)
        assert math.isinf(val)

    def test_spec_diagonal_example(self):
        val, test = ent.d_hyp(np.diag([0.7, 0.3]), np.diag([0.3, 0.7]), 0.2)
        assert np.isclose(2.0 ** (-val), 8.0 / 15.0, atol=1e-10)
        assert np.isclose(val, 0.9069, atol=1e-3)
        assert np.isclose(test.achieved_alpha, 0.8, atol=1e-10)

    def test_commuting_vs_lp_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            n = int(rng.integers(2, 11))
            p = rng.dirichlet(np.ones(n))
            s = rng.dirichlet(np.ones(n))
            eps = float(rng.uniform(0.02, 0.4))
            val, test = ent.d_hyp(np.diag(p), np.diag(s), eps)
            beta_lp = oracles.np_test_lp_oracle(p, s, eps)
            assert abs(test.achieved_beta - beta_lp) < 1e-8

    def test_noncommuting_duality_gap(self):
        # primal beta equals the dual value max_t t(1-eps) - Tr[(t rho - sigma)_+]
        rng = np.random.default_rng(3)
        for _ in range(20):
            rho = oracles.random_density(rng, 3)
            sig = oracles.random_density(rng, 3)
            eps = 0.15
            _, test = ent.d_hyp(rho, sig, eps)

            # the dual on a grid of t, one stacked eigvalsh over the whole grid
            ts = np.linspace(0, 50, 20000)
            w = np.linalg.eigvalsh(ts[:, None, None] * rho - sig)
            best = float(np.max(ts * (1 - eps) - np.where(w > 0, w, 0.0).sum(axis=1)))
            assert test.achieved_beta >= best - 1e-4
            assert test.achieved_beta <= best + 1e-3

    def test_monotone_in_eps(self):
        rng = np.random.default_rng(4)
        rho = oracles.random_density(rng, 3)
        sig = oracles.random_density(rng, 3)
        vals = [ent.d_hyp(rho, sig, e)[0] for e in (0.05, 0.1, 0.2, 0.4)]
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))

    def test_data_processing_partial_trace(self):
        rng = np.random.default_rng(5)
        lay = la.layout(("A", 2), ("C", 2))
        for _ in range(15):
            rho = oracles.random_density(rng, 4)
            sig = oracles.random_density(rng, 4)
            big, _ = ent.d_hyp(rho, sig, 0.1)
            small, _ = ent.d_hyp(
                la.partial_trace(rho, lay, ["A"]), la.partial_trace(sig, lay, ["A"]), 0.1
            )
            assert small <= big + 1e-6

    def test_test_operator_valid(self):
        rng = np.random.default_rng(6)
        rho = oracles.random_density(rng, 4)
        sig = oracles.random_density(rng, 4)
        _, test = ent.d_hyp(rho, sig, 0.2)
        w = np.linalg.eigvalsh(test.operator)
        assert w[0] > -1e-10 and w[-1] < 1 + 1e-10
        assert np.isclose(np.trace(test.operator @ rho).real, test.achieved_alpha)


class TestIHyp:
    def test_product_state(self):
        rng = np.random.default_rng(7)
        cq = qo.CQState(
            ("a", "b"),
            {"a": 0.5, "b": 0.5},
            {"a": oracles.random_density(rng, 2), "b": oracles.random_density(rng, 2)},
        )
        avg = 0.5 * cq.blocks["a"] + 0.5 * cq.blocks["b"]
        cq_prod = qo.CQState(("a", "b"), {"a": 0.5, "b": 0.5}, {"a": avg, "b": avg})
        val, _ = ent.i_hyp_cq(cq_prod, 0.1)
        assert np.isclose(val, -math.log2(0.9), atol=1e-9)

    def test_correlated_bits_vs_classical_oracle(self):
        # perfectly correlated uniform pair vs product: diag(.5,0,0,.5) / diag(.25 x4)
        cq = qo.CQState(
            ("0", "1"),
            {"0": 0.5, "1": 0.5},
            {"0": np.diag([1.0, 0.0]).astype(complex), "1": np.diag([0.0, 1.0]).astype(complex)},
        )
        val, test = ent.i_hyp_cq(cq, 0.1)
        beta_lp = oracles.np_test_lp_oracle(
            np.array([0.5, 0.0, 0.0, 0.5]), np.array([0.25] * 4), 0.1
        )
        assert np.isclose(test.achieved_beta, beta_lp, atol=1e-10)
        d, _ = ent.d_hyp(np.diag([0.5, 0, 0, 0.5]), np.diag([0.25] * 4), 0.1)
        assert np.isclose(val, d, atol=1e-12)

    def test_orthogonal_cq_trend(self):
        blocks = {str(i): np.zeros((4, 4), dtype=complex) for i in range(4)}
        for i in range(4):
            blocks[str(i)][i, i] = 1.0
        cq = qo.CQState(tuple(str(i) for i in range(4)), {str(i): 0.25 for i in range(4)}, blocks)
        vals = [ent.i_hyp_cq(cq, e)[0] for e in (0.3, 0.1, 0.01)]
        assert vals[0] >= vals[1] >= vals[2]
        assert abs(vals[2] - 2.0) < 0.2  # approaches log2 |X|

    def test_per_symbol_tests_block_structure(self):
        rng = np.random.default_rng(8)
        cq = qo.CQState(
            ("x", "y"),
            {"x": 0.6, "y": 0.4},
            {"x": oracles.random_density(rng, 2), "y": oracles.random_density(rng, 2)},
        )
        _, test = ent.i_hyp_cq(cq, 0.1)
        assert set(test.per_symbol) == {"x", "y"}
        for t in test.per_symbol.values():
            w = np.linalg.eigvalsh(t)
            assert w[0] > -1e-10 and w[-1] < 1 + 1e-10

    def test_dense_matches_cq(self):
        rng = np.random.default_rng(9)
        cq = qo.CQState(
            ("0", "1"),
            {"0": 0.3, "1": 0.7},
            {"0": oracles.random_density(rng, 2), "1": oracles.random_density(rng, 2)},
        )
        v_cq, _ = ent.i_hyp_cq(cq, 0.15)
        rho = cq.dense()
        marginals = [oracles.partial_trace_oracle(rho, [2, 2], [i]) for i in (0, 1)]
        v_dense, _ = ent.d_hyp(rho, np.kron(*marginals), 0.15)
        assert np.isclose(v_cq, v_dense, atol=1e-9)


class TestNPBisection:
    """The threshold bisection stops once the midpoint stops moving, with
    the same result as the fixed 120 halvings."""

    @staticmethod
    def block_lists():
        rng = np.random.default_rng(11)
        for n_blocks, d in ((1, 2), (2, 2), (3, 3), (4, 2)):
            p = rng.dirichlet(np.ones(n_blocks))
            rho = [pi * oracles.random_density(rng, d) for pi in p]
            avg = sum(rho)
            yield ent._Blocks(rho, [pi * avg for pi in p])  # i_hyp_cq's pair

    @pytest.mark.parametrize("eps", [0.01, 0.1, 0.3])
    def test_matches_fixed_bisection(self, eps, monkeypatch):
        target = 1.0 - eps
        for blocks in self.block_lists():
            assert ent._np_bisect(blocks, target) == oracles.np_bisect_fixed(
                blocks.alpha_strict, target
            )
            calls = []
            alpha_strict = blocks.alpha_strict
            blocks.alpha_strict = lambda t, tol: calls.append(t) or alpha_strict(t, tol)
            beta, tests, alpha = ent._np_threshold(blocks, eps)
            n_calls = len(calls)
            assert 0 < n_calls <= 60
            with monkeypatch.context() as patch:
                patch.setattr(
                    ent, "_np_bisect", lambda b, tg: oracles.np_bisect_fixed(b.alpha_strict, tg)
                )
                ref_beta, ref_tests, ref_alpha = ent._np_threshold(blocks, eps)
            assert len(calls) - n_calls > 120
            assert beta == ref_beta and alpha == ref_alpha
            for t, ref in zip(tests, ref_tests):
                assert np.array_equal(t, ref)


class TestStackedNP:
    """The stacked Neyman-Pearson search, one ``eigh`` per probe over all
    blocks, gives the per-block loop's bracket, tests and (alpha, beta)
    bit for bit."""

    @staticmethod
    def assert_matches(rho, sigma, eps):
        blocks, ref = ent._Blocks(rho, sigma), oracles.PerBlockNP(rho, sigma)
        target = 1.0 - eps
        for t in (0.0, 0.3, 1.0, 2.5, 17.0):
            assert blocks.alpha_strict(t, 0.0) == ref.alpha_strict(t, 0.0)
        assert ent._np_bisect(blocks, target) == oracles.np_bisect_fixed(ref.alpha_strict, target)
        beta, tests, alpha = ent._np_threshold(blocks, eps)
        ref_beta, ref_tests, ref_alpha = ref.threshold(eps)
        assert (beta, alpha) == (ref_beta, ref_alpha)
        assert len(tests) == len(ref_tests) == len(rho)
        for t, want in zip(tests, ref_tests):
            assert np.array_equal(t, want)

    @pytest.mark.parametrize("n_blocks", [1, 3, 6])
    @pytest.mark.parametrize("d", [2, 3])
    def test_random_pairs(self, n_blocks, d):
        rng = np.random.default_rng(100 * n_blocks + d)
        p = rng.dirichlet(np.ones(n_blocks))
        q = rng.dirichlet(np.ones(n_blocks))
        rho = [pi * oracles.random_density(rng, d, rank=1 + i % d) for i, pi in enumerate(p)]
        sigma = [qi * oracles.random_density(rng, d) for qi in q]
        for eps in (0.02, 0.1, 0.3):
            self.assert_matches(rho, sigma, eps)

    def test_commuting_pair(self):
        # diagonal blocks: alpha(t) is a step function, the optimal test
        # puts a fractional weight on the tied entries, and sigma's zero
        # entry carries rho mass that the kernel test alone cannot reach
        rho = [np.diag([0.2, 0.1, 0.05]), np.diag([0.3, 0.15, 0.2])]
        sigma = [np.diag([0.1, 0.05, 0.0]), np.diag([0.3, 0.15, 0.4])]
        for eps in (0.1, 0.25, 0.5):
            self.assert_matches(rho, sigma, eps)
        # and a kernel mass of 1 - eps: beta = 0 through the kernel test
        self.assert_matches(rho, sigma, 0.95)


class TestNPBracket:
    """Each branch of the threshold search (``_np_bracket``, ``_np_root``):
    the bracket is the fixed 120-halving bisection's and the test the
    per-block search's, bit for bit, and the search reads no more points
    than the bisection alone."""

    @staticmethod
    def counted(blocks) -> list:
        calls, alpha_strict = [], blocks.alpha_strict
        blocks.alpha_strict = lambda t, tol: calls.append(t) or alpha_strict(t, tol)
        return calls

    def branch(self, rho, sigma, eps, monkeypatch, excess=0) -> str:
        """Checks one pair and returns the branch its search took: "jump"
        (a bracket confirmed at a jump), "root" (confirmed by the root
        search) or "none" (no confirmed bracket).  The search must read at
        most ``excess`` points more than the bisection alone."""
        blocks, ref = ent._Blocks(rho, sigma), oracles.PerBlockNP(rho, sigma)
        target = 1.0 - eps
        beta, tests, alpha = ent._np_threshold(blocks, eps)
        ref_beta, ref_tests, ref_alpha = ref.threshold(eps)
        assert (beta, alpha) == (ref_beta, ref_alpha) and math.isfinite(beta)
        for t, want in zip(tests, ref_tests, strict=True):
            assert np.array_equal(t, want)
        searches, roots = [], []
        calls = self.counted(blocks)
        with monkeypatch.context() as patch:
            bracket, root = ent._np_bracket, ent._np_root
            patch.setattr(ent, "_np_bracket", lambda rd: searches.append(rd) or bracket(rd))
            patch.setattr(ent, "_np_root", lambda rd: roots.append(rd) or root(rd))
            got = ent._np_bisect(blocks, target)
        assert got == oracles.np_bisect_fixed(ref.alpha_strict, target)
        read = len(calls)
        with monkeypatch.context() as patch:
            patch.setattr(ent, "_np_bracket", lambda rd: None)
            assert ent._np_bisect(blocks, target) == got
        assert read <= len(calls) - read + excess
        (rd,) = searches
        if math.isinf(rd.hi):
            return "none"
        assert rd.lo < got[1] and got[0] < rd.hi
        return "root" if roots else "jump"

    def test_jump_with_tied_entries(self, monkeypatch):
        # sigma / rho is 0.5 on two entries in two blocks and 2 on the others:
        # alpha_strict steps 0 -> 0.6 at t = 0.5 and 0.6 -> 1 at t = 2, and
        # the test puts a fractional weight on the tied entries
        rho = [np.diag([0.3, 0.2]), np.diag([0.2, 0.3])]
        sigma = [np.diag([0.15, 0.4]), np.diag([0.4, 0.15])]
        assert ent._Blocks(rho, sigma).jumps()[0] == pytest.approx([0.5, 2.0], rel=1e-15)
        assert self.branch(rho, sigma, 0.5, monkeypatch) == "jump"
        # t* = 2 > 1: the bisection's expansion to [1, 4] is answered too
        assert self.branch(rho, sigma, 0.1, monkeypatch) == "jump"

    def test_target_inside_a_continuous_segment(self, monkeypatch):
        # a non-commuting pair: alpha_strict jumps 0 -> 0.37 at t = 0.215 and
        # 0.992 -> 1 at t = 36.5, and grows continuously between them
        rng = np.random.default_rng(5)
        rho, sigma = [oracles.random_density(rng, 2)], [oracles.random_density(rng, 2)]
        blocks = ent._Blocks(rho, sigma)
        (low, high), _ = blocks.jumps()
        assert blocks.alpha_strict(low * (1 + 1e-9), 0.0) < 0.5
        assert blocks.alpha_strict(high * (1 - 1e-9), 0.0) > 0.99
        for eps in (0.5, 0.2, 0.02):
            assert self.branch(rho, sigma, eps, monkeypatch) == "root"

    def test_singular_sigma(self, monkeypatch):
        # rho carries about a third of its mass on ker sigma and couples it
        # to supp sigma: the jumps come from the Schur complement of that corner
        rng = np.random.default_rng(6)
        rho = [oracles.random_density(rng, 3)]
        sigma = [oracles.random_density(rng, 3, rank=2)]
        w, v = np.linalg.eigh(sigma[0])
        ker = v[:, np.abs(w) <= 1e-12]
        assert 0.1 < np.trace(ker.conj().T @ rho[0] @ ker).real < 0.5
        branches = [self.branch(rho, sigma, eps, monkeypatch) for eps in (0.3, 0.1, 0.01)]
        assert branches == ["jump", "root", "jump"]

    def test_rank_deficient_rho(self, monkeypatch):
        # a pure rho: one jump, after which alpha_strict grows continuously to 1
        rng = np.random.default_rng(7)
        blocks_rho = [0.6 * oracles.random_density(rng, 3, rank=1), 0.4 * np.eye(3) / 3]
        blocks_sigma = [0.5 * oracles.random_density(rng, 3), 0.5 * np.eye(3) / 3]
        branches = [
            self.branch(blocks_rho, blocks_sigma, eps, monkeypatch) for eps in (0.4, 0.1, 0.01)
        ]
        assert branches == ["jump", "jump", "root"]

    def test_threshold_above_one_replays_the_expansion(self, monkeypatch):
        # t* = 19 (commuting) and t* near 36 (the pair of the continuous
        # case at eps 0.005): the expansion's probes 1, 4, 16 (and 64) are
        # answered by the confirmed bracket
        rho, sigma = [np.diag([0.95, 0.05])], [np.diag([0.05, 0.95])]
        assert self.branch(rho, sigma, 0.01, monkeypatch) == "jump"
        rng = np.random.default_rng(5)
        rho, sigma = [oracles.random_density(rng, 2)], [oracles.random_density(rng, 2)]
        assert self.branch(rho, sigma, 0.005, monkeypatch) == "jump"

    def test_wrong_or_missing_jumps_leave_the_bisection_its_own(self, monkeypatch):
        # with no jumps there is no bracket and the bisection reads all its
        # points; with jumps 0.1% off and windows of 4 ulps the confirmations
        # fail and the root search takes over, and the bracket is still the
        # bisection's own.  On the continuous crossing the root search still
        # saves reads; on the commuting pair alpha_strict is a step, so its
        # first reading equal to the end it replaces stops it, and the
        # bisection reads all its points after the bracket's two probes, the
        # confirmation's end and that one reading
        rng = np.random.default_rng(5)
        rho, sigma = [oracles.random_density(rng, 2)], [oracles.random_density(rng, 2)]
        jumps = ent._Blocks.jumps
        monkeypatch.setattr(ent._Blocks, "jumps", lambda self: ([], []))
        assert self.branch(rho, sigma, 0.2, monkeypatch) == "none"
        commuting = (
            [np.diag([0.3, 0.2]), np.diag([0.2, 0.3])],
            [np.diag([0.15, 0.4]), np.diag([0.4, 0.15])],
        )

        def off(self):
            points, _ = jumps(self)
            return [1.001 * t for t in points], [0.0] * len(points)

        monkeypatch.setattr(ent._Blocks, "jumps", off)
        for eps in (0.5, 0.2):
            assert self.branch(rho, sigma, eps, monkeypatch) in {"root", "none"}
            assert self.branch(*commuting, eps, monkeypatch, excess=4) == "none"

    def test_kernel_test_exit(self, monkeypatch):
        # rho's mass on ker sigma reaches 1 - eps: beta = 0, no search at all
        rho = [np.diag([0.2, 0.1, 0.05]), np.diag([0.3, 0.15, 0.2])]
        sigma = [np.diag([0.1, 0.05, 0.0]), np.diag([0.3, 0.15, 0.0])]
        monkeypatch.setattr(ent, "_np_bisect", lambda b, tg: pytest.fail("searched"))
        beta, tests, alpha = ent._np_threshold(ent._Blocks(rho, sigma), 0.75)
        ref_beta, ref_tests, ref_alpha = oracles.PerBlockNP(rho, sigma).threshold(0.75)
        assert math.isinf(beta) and (beta, alpha) == (ref_beta, ref_alpha) and alpha == 0.25
        for t, want in zip(tests, ref_tests, strict=True):
            assert np.array_equal(t, want)


class TestDMax:
    def test_equal(self):
        rng = np.random.default_rng(10)
        rho = oracles.random_density(rng, 3)
        assert abs(ent.d_max(rho, rho)) < 1e-10

    def test_pure_vs_mixed(self):
        assert np.isclose(ent.d_max(np.diag([1.0, 0.0]), np.eye(2) / 2), 1.0)

    def test_out_of_support(self):
        assert math.isinf(ent.d_max(np.diag([0.5, 0.5]), np.diag([1.0, 0.0])))

    def test_random_vs_bisection_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            rho = oracles.random_density(rng, 2)
            sig = oracles.random_density(rng, 2)
            assert abs(ent.d_max(rho, sig) - oracles.dmax_bisect_oracle(rho, sig)) < 1e-8


class TestDMaxSmooth:
    def test_eps0_equals_dmax(self):
        rng = np.random.default_rng(12)
        rho = oracles.random_density(rng, 3)
        sig = oracles.random_density(rng, 3)
        assert abs(ent.d_max_smooth(rho, sig, 0.0) - ent.d_max(rho, sig)) < 1e-6

    def test_commuting_vs_classical_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(6):
            n = int(rng.integers(2, 7))
            p = rng.dirichlet(np.ones(n))
            s = rng.dirichlet(np.ones(n))
            eps = float(rng.uniform(0.05, 0.3))
            mine = ent.d_max_smooth(np.diag(p), np.diag(s), eps)
            oracle = oracles.dmax_smooth_classical_oracle(p, s, eps)
            assert abs(mine - oracle) < ent.BISECT_TOL_BITS, (p, s, eps)

    def test_monotone_and_bounded(self):
        v = np.zeros(3, dtype=complex)
        v[0] = 1.0
        rho = np.outer(v, v.conj())
        sig = np.eye(3) / 3
        vals = [ent.d_max_smooth(rho, sig, e) for e in (0.0, 0.1, 0.3)]
        assert vals[0] <= math.log2(3) + 1e-9
        assert all(b <= a + 2e-3 for a, b in zip(vals, vals[1:]))


def block_pair(rng, carried, free, zero=0):
    """(rho, sigma) on ``carried`` blocks that hold rho, ``free`` blocks
    where only sigma lives and ``zero`` isolated indices where both vanish,
    the indices shuffled.  Each entry of ``carried``/``free`` is a block
    size; sigma is a random density on each block, scaled to trace 1."""
    sizes = list(carried) + list(free) + [1] * zero
    d = sum(sizes)
    rho = np.zeros((d, d), dtype=complex)
    sigma = np.zeros((d, d), dtype=complex)
    weights = rng.dirichlet(np.ones(len(carried)))
    pos = 0
    for k, size in enumerate(sizes):
        sl = slice(pos, pos + size)
        if k < len(carried):
            rho[sl, sl] = weights[k] * oracles.random_density(rng, size)
        if k < len(carried) + len(free):
            sigma[sl, sl] = oracles.random_density(rng, size)
        pos += size
    perm = rng.permutation(d)
    return rho[np.ix_(perm, perm)], sigma[np.ix_(perm, perm)] / np.trace(sigma).real


def min_t(prob) -> float:
    (res,) = sdp.minimize_many([prob])
    assert res.status == "optimal"
    return float(res.assignment["t"][0, 0].real)


def ball(rho, sigma) -> tuple:
    """The sub-blocks of the one pair (rho, sigma)."""
    return ent._ball_blocks([(rho, sigma)])


def capped_ball(rho, sigma, eps):
    """``d_max_smooth``'s min t program of the one pair (rho, sigma)."""
    return ent._capped_ball(ball(rho, sigma), eps)


def at_lam(prob, lam):
    """The min t program ``prob`` with t held at 2^lam
    (``oracles.pin_variable``), or ``prob`` itself when ``lam`` is None."""
    return prob if lam is None else oracles.pin_variable(prob, "t", 2.0**lam)


def direct_sum(pairs) -> tuple:
    """The dense (rho, sigma) of the direct sum of the pairs (rho_k, sigma_k)."""
    return tuple(scipy.linalg.block_diag(*mats) for mats in zip(*pairs))


def smoothing_values(monkeypatch, run) -> list:
    """The pairs (rho_k, sigma_k) of every smooth D_max that ``run()`` asks
    for, one list per value, each answered with 0 instead of a solve.
    Every value, single or in a batch, goes through
    ``entropies._d_max_smooth_many``; a cq state's pairs are its classes."""
    values = []

    def record(batch, eps):
        values.extend(batch)
        return [0.0] * len(batch)

    monkeypatch.setattr(ent, "_d_max_smooth_many", record)
    run()
    return values


def compiled(prob) -> tuple:
    prog = sdp.Program(prob)
    arrays = (prog.g_graph, prog.c_graph, prog.g_eq, prog.c_eq)
    return list(prob.variables.items()), [a.tobytes() for a in arrays]


def support_patterns(rng, d) -> list:
    """Seeded support patterns on d indices, each a list of matrices: one
    chain through all indices in a random order, the same chain cut at
    random places and split over two matrices, isolated indices (entries
    only below 1e-12), the full pattern, and a random sparse pattern."""
    perm = rng.permutation(d)
    chain = np.zeros((d, d), dtype=complex)
    chain[perm[:-1], perm[1:]] = rng.normal(size=d - 1) + 1j
    cut = chain.copy()
    cut[perm[:-1], perm[1:]] *= rng.random(d - 1) < 0.7
    half = rng.random((d, d)) < 0.5
    sparse = (rng.random((d, d)) < 1.5 / d) * rng.normal(size=(d, d))
    return [
        [chain],
        [cut * half, cut * ~half],
        [np.full((d, d), 1e-13), np.zeros((d, d))],
        [np.ones((d, d))],
        [sparse, np.diag(rng.normal(size=d))],
    ]


def classical_copy_pair(rng, classes, groups, real):
    """(rho, sigma) of I_max(X : C Q) for a seeded cq state whose side
    register holds C = classes[x], a classical copy of x's class, and Q.

    Each tau_x is V_k D_x V_k^H, with one random unitary V_k per class k
    (real or complex) and D_x block diagonal over ``groups`` (block sizes
    adding up to dim Q).  The class's first symbol has a random full-rank
    block in every group; each other symbol a random rank per group, 0
    included (at least 1 in the first).  So every class average has full
    rank, and in the eigenbasis of rho_c a one-symbol class commutes with
    its sigma_c, while a larger one splits along the groups: partly
    commuting, with rank-deficient and rho-free sub-blocks."""
    n, k, q = len(classes), max(classes) + 1, sum(groups)
    imag = 0.0 if real else 1j
    vs = [np.linalg.qr(rng.normal(size=(q, q)) + imag * rng.normal(size=(q, q)))[0] for _ in range(k)]
    p = rng.dirichlet(np.ones(n))
    dim_e = k * q
    rho = np.zeros((n * dim_e, n * dim_e), dtype=float if real else complex)
    for x, c in enumerate(classes):
        first, d_x, lo = classes.index(c) == x, np.zeros((q, q)), 0
        for j, g in enumerate(groups):
            r = g if first else int(rng.integers(1 if j == 0 else 0, g + 1))
            f = rng.normal(size=(g, r))
            d_x[lo : lo + g, lo : lo + g] = f @ f.T
            lo += g
        tau = vs[c] @ d_x @ vs[c].conj().T
        off = x * dim_e + c * q
        rho[off : off + q, off : off + q] = p[x] * tau / np.trace(tau).real
    lay = la.layout(("X", n), ("E", dim_e))
    sigma = la.tensor(la.partial_trace(rho, lay, ["X"]), la.partial_trace(rho, lay, ["E"]))
    return rho, sigma


# the (classes, groups, real) shapes of ``classical_copy_pairs``
CLASSICAL_COPY_SHAPES = [
    ((0, 1, 2), (1, 2), True),
    ((0, 0, 1), (1, 2), True),
    ((0, 0, 1, 1), (1, 1, 2), False),
    ((0, 0, 0), (2, 1), False),
]


def classical_copy_pairs() -> list:
    """Eight seeded (rho, sigma, eps) of ``classical_copy_pair``, cycling
    over the four ``CLASSICAL_COPY_SHAPES`` and eps 0.05, 0.1, 0.2."""
    rng = np.random.default_rng(61)
    return [
        (*classical_copy_pair(rng, *CLASSICAL_COPY_SHAPES[k % 4]), (0.05, 0.1, 0.2)[k % 3])
        for k in range(8)
    ]


def all_components_commute(rho, sigma) -> bool:
    """Whether rho_c and sigma_c commute on every component of the joint
    support pattern (``oracles.support_components_oracle``)."""
    for c in oracles.support_components_oracle([rho, sigma]):
        r, s = rho[np.ix_(c, c)], sigma[np.ix_(c, c)]
        if np.abs(r @ s - s @ r).max() > 1e-12:
            return False
    return True


def split_kinds(rho, sigma) -> set:
    """The kinds of sub-block that the eigenbasis split of (rho, sigma)
    makes, found with the oracle's components, per component that carries
    rho, in the basis of its own ``eigh`` (descending): "commuting" (it
    splits into 1x1 sub-blocks only), "partly commuting" (into a 1x1 and
    a larger one), "rank-deficient" (rho_c has a kernel) and "rho-free" (a
    sub-block holds only kernel directions)."""
    kinds = set()
    for c in oracles.support_components_oracle([rho, sigma]):
        w, u = np.linalg.eigh(rho[np.ix_(c, c)])
        kept, u = w[::-1] > 1e-12, u[:, ::-1]
        if not kept.any():
            continue
        subs = oracles.support_components_oracle([u.conj().T @ sigma[np.ix_(c, c)] @ u])
        sizes = sorted(len(sub) for sub in subs)
        if len(subs) > 1 and sizes[-1] == 1:
            kinds.add("commuting")
        if sizes[0] == 1 < sizes[-1]:
            kinds.add("partly commuting")
        if not kept.all():
            kinds.add("rank-deficient")
        if any(not kept[sub].any() for sub in subs):
            kinds.add("rho-free")
    return kinds


def corner_pins(rho, sigma, real: bool) -> int:
    """The equalities a smoothing program of (rho, sigma) needs: the trace
    row, and per sub-block of rank r its r diagonal corner pins and
    r(r-1)/2 off-diagonal ones, twice over (real and imaginary part) on a
    Hermitian program."""
    blocks, _ = ball(rho, sigma)
    off = sum(b.rank * (b.rank - 1) // 2 for b in blocks)
    return 1 + sum(b.rank for b in blocks) + off * (1 if real else 2)


def commuting_pairs(free: bool) -> list:
    """Six seeded commuting (rho, sigma, p, s) on 2 to 6 indices: diag(p)
    and diag(s), rotated by one random real orthogonal matrix in every
    other pair.  With ``free`` the first third of p (at least one entry)
    is 0, so sigma holds free mass there."""
    rng = np.random.default_rng(71 + free)
    out = []
    for k in range(6):
        n = int(rng.integers(2, 7))
        p, s = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))
        if free:
            p[: max(1, n // 3)] = 0.0
            p /= p.sum()
        u = np.linalg.qr(rng.normal(size=(n, n)))[0] if k % 2 else np.eye(n)
        out.append((u @ np.diag(p) @ u.T, u @ np.diag(s) @ u.T, p, s))
    return out


def is_classical(sub_blocks) -> bool:
    """Whether every sub-block that carries rho is 1x1 with sigma_b > 0."""
    return all(blk.rank == blk.dim == 1 and blk.sigma[0, 0] > 0 for blk in sub_blocks[0])


def solver_batches(monkeypatch) -> list:
    """Patch ``sdp.minimize_many`` to record the size of every batch it gets."""
    sizes, minimize_many = [], sdp.minimize_many
    monkeypatch.setattr(
        sdp, "minimize_many", lambda probs: (sizes.append(len(probs)), minimize_many(probs))[1]
    )
    return sizes


class TestWaterFill:
    """A classical value (every sub-block that carries rho 1x1, with
    sigma_b > 0) gets its min t solve in closed form (``_water_fill``),
    with no program, and its two certificates are evaluated on its
    vectors (``TestScalarCertificates``)."""

    def test_oracle_gives_the_free_mass_to_the_rho_free_entries(self):
        # both caps full: sqrt(0.1 t 0.5) twice = sqrt(0.99) at t = 0.99 / 0.2,
        # and the third entry takes the remaining mass, under its cap 0.8 t
        p, s = np.array([0.5, 0.5, 0.0]), np.array([0.1, 0.1, 0.8])
        want = math.log2(0.99 / 0.2)
        assert oracles.dmax_smooth_classical_oracle(p, s, 0.1) == pytest.approx(want, abs=1e-9)
        value = ent.d_max_smooth(np.diag(p), np.diag(s), 0.1)
        assert value - ent.BISECT_TOL_BITS < want <= value

    @pytest.mark.parametrize("free", [False, True])
    def test_certified_interval_holds_the_oracle_value(self, monkeypatch, free):
        # the commuting part of the eps ladder: (v - BISECT_TOL_BITS, v]
        # holds the exact classical value, with no program for the solver
        sizes = solver_batches(monkeypatch)
        for rho, sigma, p, s in commuting_pairs(free):
            sub_blocks = ball(rho, sigma)
            assert is_classical(sub_blocks) and (sub_blocks[1] > 0.0) == free
            for eps in (0.1, 1e-2, 1e-3, 1e-4, 1e-5):
                value = ent.d_max_smooth(rho, sigma, eps)
                oracle = oracles.dmax_smooth_classical_oracle(p, s, eps)
                assert value - ent.BISECT_TOL_BITS < oracle <= value, (p, s, eps)
        assert set(sizes) == {0}

    def test_an_ill_conditioned_crossing_is_raised_by_a_quarter_tolerance(self):
        # at eps 1e-8 the crossing of the second pair is too flat for the
        # error bound of its root (the shift would pass 1e-6 of the root), so
        # its t is raised by 2^(BISECT_TOL_BITS / 4), and both certificates
        # still hold; at eps 1e-7 the bound holds and the value barely moves
        rho, sigma, _, _ = commuting_pairs(False)[1]
        raised = ent.d_max_smooth(rho, sigma, 1e-8) - ent.d_max_smooth(rho, sigma, 1e-7)
        assert 0.9 < raised / (ent.BISECT_TOL_BITS / 4) < 1.1

    def test_bundled_classical_values_match_the_interior_point_solve(self, smoothed_cq_states):
        balls = [ent._ball_blocks(ent._cq_pairs(cq)) for cq in smoothed_cq_states]
        classical = [sub_blocks for sub_blocks in balls if is_classical(sub_blocks)]
        assert len(classical) == 20
        solved = sdp.minimize_many([ent._capped_ball(sub_blocks, 0.1) for sub_blocks in classical])
        for sub_blocks, res in zip(classical, solved):
            closed = ent._certified_fill(water_fill(sub_blocks, 0.1))
            # the closed form is exact; the solve's t is above the optimum
            below = ent._certified_value(res) - closed
            assert res.iterations > 0 and 0.0 <= below < ent.BISECT_TOL_BITS

    def test_values_bound_by_the_normalisation(self, smoothed_cq_states):
        # t* = t_min = 1 / (sum_b sigma_b + s0) when the fidelity at t_min
        # already reaches sqrt(1 - eps^2): the bundled 0-bit values (trivial's
        # thresholds among them), where every sub-block is capped at t_min
        # and the witness below is the trace contradiction alone
        bound = []
        for cq in smoothed_cq_states:
            sub_blocks = ent._ball_blocks(ent._cq_pairs(cq))
            if not is_classical(sub_blocks):
                continue
            fill = water_fill(sub_blocks, 0.1)
            sigmas = np.array([blk.sigma[0, 0] for blk in sub_blocks[0]])
            t_min = 1.0 / (sigmas.sum() + max(sub_blocks[1], 0.0))
            if fill.t_cap == pytest.approx(t_min, rel=1e-14):
                bound.append(ent._certified_fill(fill))
                fid, floor, caps, free_cap = fill.ineq
                assert not fill.v.any() and (fid, floor, free_cap, fill.nu[1]) == (0, 0, 1, 1)
                assert not fill.nu[0].any() and set(caps.tolist()) == {1.0}
                assert fill.x == pytest.approx(t_min * sigmas, rel=1e-14)
        assert len(bound) == 5 and max(abs(v) for v in bound) < 1e-12
        # rho = diag(0.5, 0.5, 0): the free mass 0.1 fills the trace at t = 1
        p, s = np.array([0.5, 0.5, 0.0]), np.array([0.45, 0.45, 0.1])
        value = ent.d_max_smooth(np.diag(p), np.diag(s), 0.4)
        assert abs(value) <= 1e-15
        oracle = oracles.dmax_smooth_classical_oracle(p, s, 0.4)
        assert value - ent.BISECT_TOL_BITS < oracle <= value

    def test_a_sub_block_without_sigma_stays_on_the_interior_point_method(self, monkeypatch):
        # sigma_b = 0 under rho's second entry: its cap pins x_b to 0, and
        # the value goes to the solver, as every value that is not classical
        p, s = np.array([0.995, 0.005]), np.array([1.0, 0.0])
        assert [blk.sigma[0, 0] for blk in ball(np.diag(p), np.diag(s))[0]] == [1.0, 0.0]
        sizes = solver_batches(monkeypatch)

        def no_water_fill(*args):
            raise AssertionError("a value with sigma_b = 0 went to the closed form")

        monkeypatch.setattr(ent, "_water_fill", no_water_fill)
        value = ent.d_max_smooth(np.diag(p), np.diag(s), 0.1)
        assert sizes == [1]
        oracle = oracles.dmax_smooth_classical_oracle(p, s, 0.1)
        assert value - ent.BISECT_TOL_BITS < oracle <= value

    def test_each_value_makes_one_recheck(self, monkeypatch):
        # the region pass: the certificate of each of the four solved values
        # reads its solve's final recheck, the one recheck of its program,
        # and each of the two classical values is rechecked on its scalars
        prep = P.prepare(io.load_bundled("instrument_derived"))
        checked, recheck = [], sdp._recheck
        fills, fill_residuals = [], ent._fill_residuals

        def recording_recheck(prob, assign):
            checked.append(id(prob))
            return recheck(prob, assign)

        def recording_fill_residuals(fill):
            fills.append(fill)
            return fill_residuals(fill)

        monkeypatch.setattr(sdp, "_recheck", recording_recheck)
        monkeypatch.setattr(ent, "_fill_residuals", recording_fill_residuals)
        sizes = solver_batches(monkeypatch)
        P.one_shot_region(prep, 0.1, theta_grid=(0.5,))
        assert (sizes, len(fills)) == ([4], 2)
        assert len(checked) == len(set(checked)) == 4


def water_fill(sub_blocks, eps):
    """``_water_fill``'s record of a classical ``_ball_blocks`` result."""
    return ent._water_fill(*ent._scalars(sub_blocks), eps)


def check_scalar_certificates(fill) -> dict:
    """The scalar certificates of ``fill`` against the program oracle
    (``oracles.water_fill_certificates``): the same two verdicts, and the
    witness gap, normalised as the oracle's, within 1e-9 relative."""
    got = ent._fill_residuals(fill)
    primal, gap, resid, norm = oracles.water_fill_certificates(ent, sdp, fill)
    assert sdp.within_tolerance(got) == sdp.within_tolerance(primal)
    assert sdp.witness_fires(got["witness_gap"], got["witness_resid"]) == sdp.witness_fires(
        gap, resid
    )
    assert got["witness_gap"] / norm == pytest.approx(gap, rel=1e-9)
    return got


def certified(residuals) -> tuple[bool, bool]:
    return sdp.within_tolerance(residuals), sdp.witness_fires(
        residuals["witness_gap"], residuals["witness_resid"]
    )


class TestScalarCertificates:
    """A classical value is certified on (lambda_b, sigma_b, s0) alone
    (``_fill_residuals``); the program oracle rebuilds its ``_capped_ball``
    and checks both certificates from the program's expressions."""

    def test_bundled_values_agree_with_the_program_oracle(self, smoothed_cq_states):
        balls = [ent._ball_blocks(ent._cq_pairs(cq)) for cq in smoothed_cq_states]
        fills = [water_fill(b, 0.1) for b in balls if is_classical(b)]
        assert len(fills) == 20
        for fill in fills:
            assert certified(check_scalar_certificates(fill)) == (True, True)

    def test_seeded_pairs_agree_with_the_program_oracle(self):
        # 12 commuting pairs with and without free mass at eps 0.1 and 1e-5,
        # and pairs bound by the normalisation, whose witness is the
        # contradiction t_low (sum_b sigma_b + s0) < 1
        cases = [
            (p, s, eps)
            for free in (False, True)
            for _, _, p, s in commuting_pairs(free)
            for eps in (0.1, 1e-5)
        ]
        cases += [
            (np.array([0.5, 0.5, 0.0]), np.array([0.45, 0.45, 0.1]), 0.4),
            (np.array([0.5, 0.5]), np.array([0.5, 0.5]), 0.1),
        ]
        kinds = collections.Counter()
        for p, s, eps in cases:
            fill = water_fill(ball(np.diag(p), np.diag(s)), eps)
            assert certified(check_scalar_certificates(fill)) == (True, True)
            contradiction = fill.t_low * (fill.sig.sum() + fill.free_mass) < 1.0
            kinds[fill.free_mass > 0.0, contradiction] += 1
        assert set(kinds) == {(False, False), (True, False), (False, True), (True, True)}

    def test_a_point_past_its_cap_is_not_feasible(self, smoothed_cq_states):
        # x_b moved 1e-6 past its cap, the mass taken from w, so that only
        # the cap row sees it
        moved = 0
        for cq in smoothed_cq_states:
            sub_blocks = ent._ball_blocks(ent._cq_pairs(cq))
            if not is_classical(sub_blocks):
                continue
            fill = water_fill(sub_blocks, 0.1)
            x = fill.x.copy()
            x[0] = 2.0 ** math.log2(fill.t_cap) * fill.sig[0] + 1e-6
            w = fill.w - (x[0] - fill.x[0])
            if fill.free_mass == 0.0 or w < 0.0:
                continue
            past = dataclasses.replace(fill, x=x, z=np.sqrt(fill.lam * x), w=w)
            assert ent._fill_residuals(past)["gap"] < 1e-12
            assert certified(check_scalar_certificates(past)) == (False, True)
            moved += 1
        assert moved >= 3

    def test_the_stationarity_residual_is_read_not_assumed(self, smoothed_cq_states):
        # the trace row's multiplier moved by 1: every x_b coordinate of r
        # (and w's) moves by 1, the gap by 1, and the witness must not fire
        for cq in smoothed_cq_states:
            sub_blocks = ent._ball_blocks(ent._cq_pairs(cq))
            if not is_classical(sub_blocks):
                continue
            fill = water_fill(sub_blocks, 0.1)
            pins, trace = fill.nu
            moved = ent._fill_residuals(dataclasses.replace(fill, nu=(pins, trace + 1.0)))
            got = ent._fill_residuals(fill)
            n = len(fill.lam) + (fill.free_mass > 0.0)
            assert moved["witness_resid"] == pytest.approx(math.sqrt(n), rel=1e-9)
            assert moved["witness_gap"] == pytest.approx(got["witness_gap"] + 1.0, rel=1e-12)
            assert certified(moved) == (True, False)

    def test_the_dual_at_the_optimum_does_not_fire(self, monkeypatch, smoothed_cq_states):
        # with no tolerance below v the multipliers are taken at 2^v itself,
        # where the point is feasible: no witness may fire there
        monkeypatch.setattr(ent, "BISECT_TOL_BITS", 0.0)
        pairs = commuting_pairs(False) + commuting_pairs(True)
        cases = [ball(np.diag(p), np.diag(s)) for *_, p, s in pairs]
        balls = [ent._ball_blocks(ent._cq_pairs(cq)) for cq in smoothed_cq_states]
        for sub_blocks in [b for b in balls if is_classical(b)] + cases:
            fill = water_fill(sub_blocks, 0.1)
            assert fill.t_low == 2.0 ** math.log2(fill.t_cap)
            assert certified(check_scalar_certificates(fill))[1] is False

    def test_no_program_is_built_for_a_classical_instance(self, monkeypatch):
        # classical_commuting's thresholds and theta 0.5 region: 8 values,
        # all classical, with no SDProblem and no Program
        prep = P.prepare(io.load_bundled("classical_commuting"))
        fills, certified_fill = [], ent._certified_fill

        def refuse(*args, **kwargs):
            raise AssertionError("a classical value built a program")

        monkeypatch.setattr(sdp.Program, "__init__", refuse)
        monkeypatch.setattr(sdp.SDProblem, "__init__", refuse)
        monkeypatch.setattr(ent, "_certified_fill", lambda f: fills.append(f) or certified_fill(f))
        P.thresholds(prep, 0.1, 0.0)
        P.one_shot_region(prep, 0.1, theta_grid=(0.5,))
        assert len(fills) == 8


class TestSupportComponents:
    @pytest.mark.parametrize("d", [1, 2, 5, 17, 40])
    def test_matches_oracle_on_seeded_patterns(self, d):
        # the patterns one at a time, and all as one stack (each padded to
        # two matrices), whose members take different numbers of sweeps
        patterns = support_patterns(np.random.default_rng(40 + d), d)
        wants = [oracles.support_components_oracle(mats) for mats in patterns]
        padded = [mats + [np.zeros((d, d))] * (2 - len(mats)) for mats in patterns]
        stacked = ent._support_components([np.stack(mats) for mats in zip(*padded)])
        for mats, want, in_stack in zip(patterns, wants, stacked):
            (got,) = ent._support_components([m[None] for m in mats])
            for labels in (got, in_stack):
                comps = [np.flatnonzero(labels == r) for r in np.unique(labels)]
                assert len(comps) == len(want)
                assert all(np.array_equal(g, w) for g, w in zip(comps, want))
                assert all(labels[c].tolist() == [c[0]] * len(c) for c in comps)

    def test_one_eigh_per_component_size(self, monkeypatch):
        # components of sizes 1, 2 and 3 that carry rho, rho-free ones of
        # sizes 1 and 2; each spectrum is that of the component's own eigh,
        # and each sigma_b is the component's sigma in that eigenbasis
        rho, sigma = block_pair(np.random.default_rng(41), [2, 1, 3, 2, 1], [2, 1], zero=1)
        comps = oracles.support_components_oracle([rho, sigma])
        eigh, calls = np.linalg.eigh, []

        def counting(a):
            calls.append(a.shape)
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        blocks, _ = ball(rho, sigma)
        assert len(calls) == len({len(c) for c in comps}) == 3
        monkeypatch.setattr(np.linalg, "eigh", eigh)
        carried = [c for c in comps if np.abs(rho[np.ix_(c, c)]).max() > 1e-12]
        assert len(blocks) == len(carried) == 5
        for blk, c in zip(blocks, carried):
            w, u = np.linalg.eigh(rho[np.ix_(c, c)])
            keep = w > 1e-12
            assert np.array_equal(blk.eigs, w[keep][::-1])
            assert blk.dim == len(c)
            u = u[:, ::-1]
            np.testing.assert_allclose(blk.sigma, u.conj().T @ sigma[np.ix_(c, c)] @ u, atol=1e-15)

    def test_pairs_split_as_their_direct_sum(self, monkeypatch):
        # a classical-copy pair cut into its classes, as a cq state's pairs:
        # the sub-blocks, their order (pair by pair, then by least original
        # index) and s0 are those of the dense direct sum, to the bit, from
        # one eigh per component size across all the pairs
        eigh, calls = np.linalg.eigh, []

        def counting(a):
            calls.append(a.shape[-1])
            return eigh(a)

        for k, (rho, sigma, _) in enumerate(classical_copy_pairs()):
            n = len(CLASSICAL_COPY_SHAPES[k % 4][0])
            cuts = [slice(x * len(rho) // n, (x + 1) * len(rho) // n) for x in range(n)]
            pairs = [(rho[c, c], sigma[c, c]) for c in cuts]
            assert np.array_equal(direct_sum(pairs)[1], sigma)
            want_blocks, want_free = ball(rho, sigma)
            with monkeypatch.context() as patch:
                patch.setattr(np.linalg, "eigh", counting)
                blocks, free = ent._ball_blocks(pairs)
            sizes = {len(c) for r, s in pairs for c in oracles.support_components_oracle([r, s])}
            assert sorted(calls) == sorted(sizes)
            calls.clear()
            assert free == want_free
            assert len(blocks) == len(want_blocks)
            for got, want in zip(blocks, want_blocks):
                assert got.var == want.var and got.sigma.dtype == want.sigma.dtype
                assert np.array_equal(got.eigs, want.eigs)
                assert np.array_equal(got.sigma, want.sigma)


def assert_same_sub_blocks(got, want) -> None:
    """Two ``_ball_blocks`` results agree to the bit: order, names,
    spectra, sigma_b and its field, and s0."""
    (blocks, free), (want_blocks, want_free) = got, want
    assert free.hex() == want_free.hex() and len(blocks) == len(want_blocks)
    for b, w in zip(blocks, want_blocks):
        assert b.var == w.var and b.sigma.dtype == w.sigma.dtype
        assert b.eigs.tobytes() == w.eigs.tobytes() and b.sigma.tobytes() == w.sigma.tobytes()


def degenerate_pairs(rng) -> list:
    """Seeded pairs (rho_k, sigma_k) of one dimension, the indices of each
    shuffled: per pair, blocks of 1 to 9 indices whose rho has a
    degenerate spectrum (some of it 0) in a random complex basis, under a
    sigma that is a random complex density, or commutes with rho there
    (so its rotated sigma is real up to round-off), or is the only mass."""
    d, out = int(rng.integers(4, 13)), []
    for _ in range(int(rng.integers(1, 4))):
        rho, sigma = np.zeros((d, d), dtype=complex), np.zeros((d, d), dtype=complex)
        pos = 0
        while pos < d:
            size = min(int(rng.integers(1, 10)), d - pos)
            sl = slice(pos, pos + size)
            u = np.linalg.qr(rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size)))[0]
            vals = rng.choice([0.0, 0.2, 0.2, 0.5], size=size)
            kind = int(rng.integers(0, 3))
            if kind < 2:
                rho[sl, sl] = u @ np.diag(vals) @ u.conj().T
            if kind == 1:
                sigma[sl, sl] = u @ np.diag(rng.choice([0.1, 0.3], size=size)) @ u.conj().T
            else:
                sigma[sl, sl] = oracles.random_density(rng, size)
            pos += size
        perm = rng.permutation(d)
        out.append((rho[np.ix_(perm, perm)], sigma[np.ix_(perm, perm)]))
    return out


class TestBallBlocksReference:
    """``_ball_blocks``' array pass against the per-sub-block loop it
    replaced (``oracles.ball_blocks_reference``), to the bit."""

    def test_bundled_values(self, smoothed_cq_states):
        # every threshold and region value; each interior-point program
        # then compiles to the reference's bytes
        for cq in smoothed_cq_states:
            pairs = ent._cq_pairs(cq)
            got, want = ent._ball_blocks(pairs), oracles.ball_blocks_reference(ent, pairs)
            assert_same_sub_blocks(got, want)
            if not is_classical(got):
                prog, ref = (sdp.Program(ent._capped_ball(b, 0.1)) for b in (got, want))
                for name in ("g_graph", "c_graph", "g_eq", "c_eq"):
                    assert getattr(prog, name).tobytes() == getattr(ref, name).tobytes()

    def test_seeded_degenerate_and_complex_pairs(self):
        rng = np.random.default_rng(90)
        fields = collections.Counter()
        for _ in range(24):
            pairs = degenerate_pairs(rng)
            got = ent._ball_blocks(pairs)
            assert_same_sub_blocks(got, oracles.ball_blocks_reference(ent, pairs))
            fields.update(b.sigma.dtype.kind for b in got[0])
            fields["free"] += got[1] > 0.0
        assert fields["c"] and fields["f"] and fields["free"]


class TestFoldedBall:
    """The rho-free components of the smoothing program fold into one
    scalar w; ``oracles.capped_ball_per_component`` keeps one ball variable
    per component."""

    def check_fold(self, rho, sigma, eps, has_w):
        folded = capped_ball(rho, sigma, eps)
        assert ("w" in folded.variables) == has_w
        t = min_t(folded)
        want = min_t(oracles.capped_ball_per_component(sdp, rho, sigma, eps, None))
        assert t == pytest.approx(want, rel=1e-6)
        # d_max_smooth raises SolverError unless both certificates pass on
        # the folded program with t held
        assert ent.d_max_smooth(rho, sigma, eps) == pytest.approx(math.log2(want), abs=1e-6)

    def test_folded_matches_per_component_program(self):
        rng = np.random.default_rng(31)
        for trial in range(6):
            carried = rng.integers(1, 3, size=int(rng.integers(1, 3))).tolist()
            free = rng.integers(1, 3, size=int(rng.integers(1, 4))).tolist()
            rho, sigma = block_pair(rng, carried, free)
            self.check_fold(rho, sigma, (0.05, 0.1, 0.3)[trial % 3], has_w=True)

    def test_isolated_index_where_both_vanish(self):
        # the zero index is a rho-free component with sigma_c = 0; it adds
        # nothing to s0, and w still stands for the other rho-free block
        rho, sigma = block_pair(np.random.default_rng(32), [2], [1], zero=1)
        self.check_fold(rho, sigma, 0.1, has_w=True)

    def test_no_w_when_every_rho_free_component_has_no_sigma(self):
        rho, sigma = block_pair(np.random.default_rng(33), [2, 1], [], zero=2)
        assert ball(rho, sigma)[1] == 0.0
        self.check_fold(rho, sigma, 0.1, has_w=False)

    @pytest.mark.parametrize("name", ["qubit_cq", "qubit_entangled_side_info"])
    def test_programs_without_rho_free_components_are_unchanged(self, monkeypatch, name):
        # no component of these pairs is rho-free or splits in its
        # eigenbasis: each program has the unsplit program's variables and
        # blocks, and its value (the caps now live in the eigenbasis, so
        # the compiled bytes differ)
        prep = P.prepare(io.load_bundled(name))
        values = smoothing_values(monkeypatch, lambda: P.thresholds(prep, 0.1))
        assert len(values) == 2
        monkeypatch.undo()
        for pairs in values:
            rho, sigma = direct_sum(pairs)
            sub_blocks = ent._ball_blocks(pairs)
            assert sub_blocks[1] == 0.0
            for lam in (None, 0.7):
                got = at_lam(ent._capped_ball(sub_blocks, 0.1), lam)
                want = oracles.capped_ball_per_component(sdp, rho, sigma, 0.1, lam)
                assert list(got.variables.values()) == list(want.variables.values())
                assert [e.dim for e in got.psd_constraints] == [e.dim for e in want.psd_constraints]
                assert (len(got.equalities), len(got.inequalities)) == (
                    len(want.equalities),
                    len(want.inequalities),
                )
            want_t = min_t(oracles.capped_ball_per_component(sdp, rho, sigma, 0.1, None))
            assert min_t(ent._capped_ball(sub_blocks, 0.1)) == pytest.approx(want_t, rel=1e-6)

    def test_largest_region_program_size(self, monkeypatch):
        prep = P.prepare(io.load_bundled("instrument_derived"))
        values = smoothing_values(
            monkeypatch, lambda: P.one_shot_region(prep, 0.1, theta_grid=(0.5,), axes=("X", "Y"))
        )
        sizes = []
        for pairs in values:
            prog = sdp.Program(ent._capped_ball(ent._ball_blocks(pairs), 0.1))
            ref = oracles.capped_ball_per_component(sdp, *direct_sum(pairs), 0.1, None)
            ref = sdp.Program(ref)
            sizes.append((ref.n_vars, prog.n_vars, collections.Counter(prog.block_dims)))
        ref_reals, reals, blocks = max(sizes, key=lambda s: s[0])
        # real data: both programs are solved over real symmetric matrices;
        # all 9 components that carry rho commute with their sigma_c, so each
        # splits into two 2x2 balls with scalar caps
        assert (ref_reals, reals, blocks) == (118, 56, {2: 18})


@pytest.fixture(scope="module")
def region_x_pairs() -> list:
    """The dense (rho, sigma) of the three smooth D_max of the ``region``
    benchmark's X-axis cell: instrument_derived, theta 0.5, eps 0.1."""
    prep = P.prepare(io.load_bundled("instrument_derived"))
    with pytest.MonkeyPatch.context() as mp:
        values = smoothing_values(
            mp, lambda: P.one_shot_region(prep, 0.1, theta_grid=(0.5,), axes=("X",))
        )
    assert len(values) == 3
    return [direct_sum(pairs) for pairs in values]


class TestSmoothingSolve:
    @pytest.mark.parametrize("kappa", [1e-2, 1e2])
    def test_value_is_covariant_under_scaling_sigma(self, region_x_pairs, kappa):
        # D_max^eps(rho || kappa sigma) = D_max^eps(rho || sigma) - log2 kappa;
        # d_max_smooth raises SolverError unless both certificates pass, and
        # the solve starts from a point scaled to the data, whatever kappa is
        for rho, sigma in region_x_pairs:
            want = ent.d_max_smooth(rho, sigma, 0.1)
            got = ent.d_max_smooth(rho, kappa * sigma, 0.1) + math.log2(kappa)
            assert abs(got - want) <= ent.BISECT_TOL_BITS

    def test_one_build_of_the_blocks_per_value(self, monkeypatch, region_x_pairs):
        # the solve and both certificates share one classification of the
        # components, one program and its one compile, which has the bytes
        # of a program built from a fresh classification
        ball_blocks, capped_ball, program = ent._ball_blocks, ent._capped_ball, sdp.Program
        balls, built, progs = [], [], []

        def recording_ball_blocks(pairs):
            balls.append(ball_blocks(pairs))
            return balls[-1]

        def recording_capped_ball(sub_blocks, eps):
            built.append((sub_blocks, eps, capped_ball(sub_blocks, eps)))
            return built[-1][-1]

        def recording_program(prob):
            progs.append(program(prob))
            return progs[-1]

        monkeypatch.setattr(ent, "_ball_blocks", recording_ball_blocks)
        monkeypatch.setattr(ent, "_capped_ball", recording_capped_ball)
        monkeypatch.setattr(sdp, "Program", recording_program)
        for rho, sigma in region_x_pairs:
            ent.d_max_smooth(rho, sigma, 0.1)
        monkeypatch.undo()
        # the classical value among them builds no program
        solved = [(pair, b) for pair, b in zip(region_x_pairs, balls) if not is_classical(b)]
        assert (len(balls), len(solved), len(built), len(progs)) == (3, 2, 2, 2)
        for (pair, sub_blocks), (b, eps, prob), prog in zip(solved, built, progs):
            assert b is sub_blocks and prog.prob is prob
            assert compiled(prob) == compiled(capped_ball(ball_blocks([pair]), eps))

    def test_certificates_decide_whatever_the_status(self, monkeypatch, region_x_pairs):
        # a solve reported "maxIterations" whose point and dual pass both
        # certificates gives the value of the optimal report, to the bit; with
        # its dual zeroed there is no infeasibility witness, and no value
        rho, sigma = region_x_pairs[0]
        want = ent.d_max_smooth(rho, sigma, 0.1)
        stalled_solves(monkeypatch, lambda res: {})
        assert ent.d_max_smooth(rho, sigma, 0.1).hex() == want.hex()
        stalled_solves(monkeypatch, lambda res: {"dual": res.dual * 0.0})
        with pytest.raises(ent.SolverError, match="not certified infeasible " + STALLED) as err:
            ent.d_max_smooth(rho, sigma, 0.1)
        # the error carries both certificates: the point still passes
        residuals = err.value.residuals
        assert set(residuals) == {"primal", "gap", "witness_gap", "witness_resid"}
        assert residuals["primal"] <= 10 * sdp.FEASIBLE_TOL
        assert not sdp.witness_fires(residuals["witness_gap"], residuals["witness_resid"])

    def test_a_point_over_its_cap_is_not_certified_feasible(self, monkeypatch, region_x_pairs):
        # t halved under the solve's rho': the point is over its cap, while
        # the dual is a witness below the halved value as well.  A result's
        # residuals are its own point's recheck, so the halved point carries
        # none, and the certificate rechecks it
        rho, sigma = region_x_pairs[0]

        def halved(res):
            halved_t = {**res.assignment, "t": 0.5 * res.assignment["t"]}
            return {"assignment": halved_t, "residuals": {}}

        stalled_solves(monkeypatch, halved)
        with pytest.raises(ent.SolverError, match="not certified feasible " + STALLED) as err:
            ent.d_max_smooth(rho, sigma, 0.1)
        residuals = err.value.residuals
        assert set(residuals) == {"primal", "gap", "witness_gap", "witness_resid"}
        assert residuals["primal"] > 10 * sdp.FEASIBLE_TOL
        assert sdp.witness_fires(residuals["witness_gap"], residuals["witness_resid"])

    @pytest.mark.parametrize("t", [0.0, math.nan])
    def test_a_solve_without_positive_t_raises(self, monkeypatch, region_x_pairs, t):
        # no value to certify: the error carries the solve's own residuals
        rho, sigma = region_x_pairs[0]
        stalled = []

        def no_t(res):
            stalled.append(res)
            return {"assignment": {**res.assignment, "t": np.full_like(res.assignment["t"], t)}}

        stalled_solves(monkeypatch, no_t)
        with pytest.raises(ent.SolverError, match=f"solve gave t = {t} " + STALLED) as err:
            ent.d_max_smooth(rho, sigma, 0.1)
        assert err.value.residuals == stalled[0].residuals


STALLED = r"\(solve ended maxIterations after \d+ iterations\)"


def stalled_solves(monkeypatch, change) -> None:
    """Patch ``sdp.minimize_many`` to report each solve "maxIterations",
    with the fields that ``change(result)`` returns replaced."""
    minimize_many = sdp.minimize_many

    def stalled(probs):
        return [
            dataclasses.replace(res, status="maxIterations", **change(res))
            for res in minimize_many(probs)
        ]

    monkeypatch.setattr(sdp, "minimize_many", stalled)


def phased(rho, sigma) -> tuple:
    """(U rho U^H, U sigma U^H) for a fixed complex unitary U, block
    diagonal over the pair's support components (a seeded random unitary
    per component): the components and every smoothed value stay, but in
    the eigenbasis of rho_c a component that does not commute turns
    complex.  Diagonal phases alone would not: the ``eigh`` of a
    phase-conjugated real matrix returns the conjugated real eigenbasis,
    up to one phase, so its rotated sigma'_c is real again."""
    rng = np.random.default_rng(53)
    u = np.zeros(rho.shape, dtype=complex)
    for c in oracles.support_components_oracle([rho, sigma]):
        g = rng.normal(size=(len(c), len(c))) + 1j * rng.normal(size=(len(c), len(c)))
        u[np.ix_(c, c)] = np.linalg.qr(g)[0]
    return u @ rho @ u.conj().T, u @ sigma @ u.conj().T


def real_pairs() -> list:
    """Six seeded real (rho, sigma): real states on C^2 (x) C^2 and
    C^2 (x) C^3, of rank 1 and full rank, against their marginals' product."""
    rng = np.random.default_rng(51)
    out = []
    for dims, rank in itertools.product(((2, 2), (2, 3)), (1, 2, None)):
        d = dims[0] * dims[1]
        g = rng.normal(size=(d, rank or d))
        rho = g @ g.T / np.trace(g @ g.T)
        lay = la.layout(("A", dims[0]), ("B", dims[1]))
        sigma = la.tensor(la.partial_trace(rho, lay, ["A"]), la.partial_trace(rho, lay, ["B"]))
        out.append((rho, np.real(sigma)))
    return out


class TestRealField:
    """Real pairs make real smoothing programs, solved over real symmetric
    matrices; a complex unitary conjugation of each support component
    (``phased``) forces the Hermitian path wherever a component does not
    commute, and must give the same value."""

    @staticmethod
    def check_parity(rho, sigma, eps):
        # in the eigenbasis of rho_c a commuting component is real whatever
        # its phases, so the phased program is Hermitian exactly when some
        # component does not commute; then every block's variable has d^2
        # reals, else d(d+1)/2
        real = sdp.Program(capped_ball(rho, sigma, eps))
        herm = sdp.Program(capped_ball(*phased(rho, sigma), eps))
        assert real.real and herm.real == all_components_commute(rho, sigma)
        assert herm.n_vars == sum(sdp.rvec_size(d, herm.real) for d in herm.prob.variables.values())
        assert real.n_vars == sum(d * (d + 1) // 2 for d in real.prob.variables.values())
        # a Hermitian program pins the imaginary parts of every corner too
        assert len(real.prob.equalities) == corner_pins(rho, sigma, True)
        assert len(herm.prob.equalities) == corner_pins(*phased(rho, sigma), herm.real)
        # d_max_smooth raises SolverError unless both certificates pass
        got = ent.d_max_smooth(rho, sigma, eps)
        assert abs(got - ent.d_max_smooth(*phased(rho, sigma), eps)) <= 1e-6

    def test_real_pairs_match_their_phased_pairs(self):
        for k, (rho, sigma) in enumerate(real_pairs()):
            self.check_parity(rho, sigma, (0.05, 0.1, 0.2)[k % 3])

    def test_region_pairs_match_their_phased_pairs(self, monkeypatch):
        prep = P.prepare(io.load_bundled("instrument_derived"))
        values = smoothing_values(
            monkeypatch, lambda: P.one_shot_region(prep, 0.1, theta_grid=(0.5,), axes=("X", "Y"))
        )
        monkeypatch.undo()
        pairs = [direct_sum(value) for value in values]
        assert len(pairs) == 6
        assert [all_components_commute(*pair) for pair in pairs] == [False, True, False] * 2
        for rho, sigma in pairs:
            self.check_parity(rho, sigma, 0.1)

    def test_round_off_imaginary_parts_are_dropped(self):
        # imaginary parts within la.HERM_TOL are round-off: the program is
        # the real one, byte for byte, and its rotated sigma_b are real
        rho, sigma = real_pairs()[4]
        noise = 1e-12 * oracles.random_hermitian(np.random.default_rng(52), len(rho))
        noisy = (rho + 1j * np.imag(noise), sigma.astype(complex))
        for lam in (None, 0.4):
            assert compiled(at_lam(capped_ball(*noisy, 0.1), lam)) == compiled(
                at_lam(capped_ball(rho, sigma, 0.1), lam)
            )
        assert all(not np.iscomplexobj(blk.sigma) for blk in ball(*noisy)[0])

    @pytest.mark.parametrize("name", io.BUNDLED)
    def test_bundled_smoothing_programs_are_real(self, monkeypatch, name):
        prep = P.prepare(io.load_bundled(name))

        def run():
            P.thresholds(prep, 0.1)
            P.one_shot_region(prep, 0.1, theta_grid=(0.5,))

        values = smoothing_values(monkeypatch, run)
        assert values
        for pairs in values:
            for lam in (None, 0.4):
                prob = ent._capped_ball(ent._ball_blocks(pairs), 0.1)
                assert sdp.Program(at_lam(prob, lam)).real


class TestEigenbasisSplit:
    """Each certified value of the split programs against the unsplit
    ``oracles.capped_ball_per_component``: every support component whole
    and in one block, its cap in its eigenbasis, and no fold."""

    @staticmethod
    def check_oracle_parity(pairs, eps):
        """The value of the direct sum of ``pairs`` against the oracle's."""
        prob = oracles.capped_ball_per_component(sdp, *direct_sum(pairs), eps, None)
        # the value is certified: a failed certificate raises SolverError
        assert abs(ent._d_max_smooth_many([pairs], eps)[0] - math.log2(min_t(prob))) <= 1e-6

    def test_classical_copy_pairs_match_the_unsplit_oracle(self):
        kinds = set()
        for rho, sigma, eps in classical_copy_pairs():
            kinds |= split_kinds(rho, sigma)
            self.check_oracle_parity([(rho, sigma)], eps)
        assert kinds == {"commuting", "partly commuting", "rank-deficient", "rho-free"}

    def test_region_pairs_match_the_unsplit_oracle(self, monkeypatch):
        prep = P.prepare(io.load_bundled("instrument_derived"))
        values = smoothing_values(
            monkeypatch, lambda: P.one_shot_region(prep, 0.1, theta_grid=(0.5,), axes=("X", "Y"))
        )
        monkeypatch.undo()
        assert len(values) == 6
        for pairs in values:
            self.check_oracle_parity(pairs, 0.1)

    @pytest.mark.parametrize("name", io.BUNDLED)
    def test_threshold_pairs_match_the_unsplit_oracle(self, monkeypatch, name):
        prep = P.prepare(io.load_bundled(name))
        values = smoothing_values(monkeypatch, lambda: P.thresholds(prep, 0.1))
        monkeypatch.undo()
        assert len(values) == 2
        for pairs in values:
            self.check_oracle_parity(pairs, 0.1)

    def test_hermitian_programs_pin_every_corner(self):
        # the complex classical-copy pairs mix real sub-blocks (commuting
        # components) with complex ones of rank 2: the program is Hermitian
        # and every corner's imaginary parts are pinned
        mixed = 0
        for rho, sigma, eps in classical_copy_pairs():
            prog = sdp.Program(capped_ball(rho, sigma, eps))
            assert len(prog.prob.equalities) == corner_pins(rho, sigma, prog.real)
            blocks = ball(rho, sigma)[0]
            kinds = {np.iscomplexobj(b.sigma) for b in blocks}
            mixed += kinds == {True, False} and max(b.rank for b in blocks) > 1
            assert prog.real == (True not in kinds)
        assert mixed


class TestIMax:
    def test_product_is_zero(self):
        rng = np.random.default_rng(14)
        rho = la.tensor(oracles.random_density(rng, 2), oracles.random_density(rng, 2))
        for eps in (0.05, 0.2):
            assert abs(ent.i_max_smooth(rho, (2, 2), eps)) < 2e-3

    def test_same_value_on_a_padded_register(self):
        # sqrt(0.978)|00> + sqrt(0.022)|11> with B of dimension 3 is the same
        # state as with B of dimension 2, padded by an unused level
        def state(db):
            v = np.zeros(2 * db, dtype=complex)
            v[0], v[db + 1] = math.sqrt(0.978), math.sqrt(0.022)
            return np.outer(v, v.conj())

        padded = ent.i_max_smooth(state(3), (2, 3), 0.05)
        plain = ent.i_max_smooth(state(2), (2, 2), 0.05)
        assert abs(padded - plain) <= ent.BISECT_TOL_BITS

    def test_classical_correlated_eps0(self):
        rho = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
        assert np.isclose(ent.i_max_smooth(rho, (2, 2), 0.0), 1.0, atol=1e-9)


@pytest.fixture(scope="module")
def smoothed_cq_states() -> list:
    """Every cq state whose smooth I_max ``thresholds`` and
    ``one_shot_region`` (theta 0.5) take on the bundled instances, taken
    with ``CQState.dense`` patched to raise: neither call builds the dense
    cq matrix."""
    states, i_max_cq_many = [], ent.i_max_cq_many

    def recording(cqs, eps):
        states.extend(cqs)
        return i_max_cq_many(cqs, eps)

    def no_dense(self):
        raise AssertionError("the dense cq matrix was built")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ent, "i_max_cq_many", recording)
        mp.setattr(qo.CQState, "dense", no_dense)
        for name in io.BUNDLED:
            prep = P.prepare(io.load_bundled(name))
            P.thresholds(prep, 0.1)
            P.one_shot_region(prep, 0.1, theta_grid=(0.5,))
    assert len(states) == 39
    return states


class TestCqPath:
    """``i_max_cq_many`` smooths a cq state from its blocks, one pair per
    symbol; ``i_max_smooth`` smooths its dense matrix."""

    @pytest.mark.parametrize("eps", [0.1, 0.0])
    def test_blocks_and_dense_matrix_agree(self, smoothed_cq_states, eps):
        # to the bit at eps 0.1; at eps 0 the max of d_max over the blocks
        # against d_max of the dense pair
        for cq in smoothed_cq_states:
            (got,) = ent.i_max_cq_many([cq], eps)
            want = ent.i_max_smooth(cq.dense(), (len(cq.symbols), cq.quantum_dim), eps)
            if eps:
                assert got.hex() == want.hex()
            else:
                assert abs(got - want) <= 1e-12

    def test_block_checks_are_the_dense_checks(self):
        # a weighted block with eigenvalue -5e-8 passes CQState's 1e-7 check
        # but not the dense matrix's, nor the blocks' (smoothed or in the
        # Holevo quantity)
        cq = qo.CQState(
            ("0", "1"),
            {"0": 0.5, "1": 0.5},
            {"0": np.diag([1.0 + 1e-7, -1e-7]), "1": np.eye(2) / 2},
        )
        assert np.linalg.eigvalsh(0.5 * cq.blocks["0"])[0] == pytest.approx(-5e-8)
        with pytest.raises(ValueError, match="negative eigenvalue"):
            ent.i_max_smooth(cq.dense(), (2, 2), 0.1)
        for eps in (0.0, 0.1):
            with pytest.raises(ValueError, match="negative eigenvalue"):
                ent.i_max_cq_many([cq], eps)
        with pytest.raises(ValueError, match="negative eigenvalue"):
            ent.holevo_cq(cq)


class TestVonNeumann:
    def test_max_mixed(self):
        assert np.isclose(ent.entropy(np.eye(2) / 2), 1.0)

    def test_bell_mutual_information(self):
        v = np.zeros(4, dtype=complex)
        v[0] = v[3] = 1 / np.sqrt(2)
        bell = np.outer(v, v.conj())
        assert np.isclose(oracles.mutual_information_oracle(bell, (2, 2)), 2.0, atol=1e-10)
        rho_a = oracles.partial_trace_oracle(bell, [2, 2], [0])
        assert np.isclose(ent.entropy(rho_a), 1.0, atol=1e-10)
        assert abs(ent.entropy(bell)) <= 1e-10


def _iid_states(prep) -> dict:
    """The five cq states of ``iid_region``, by its provenance key: each
    link's E-blocks and their reductions to B, and the joint E-blocks."""
    cq, lay = prep.env_cq(), prep.env_layout()
    states = {}
    for i, link in enumerate(P.LINKS):
        state = cq.group_parts((i,))
        states[f"I({link}:E)"] = state
        states[f"I({link}:B)"] = state.map_blocks(lambda b: la.partial_trace(b, lay, ("B",)))
    states["I(XY:E)"] = cq.group_parts((0, 1))
    return states


def _dense_holevo(cq: qo.CQState) -> float:
    return oracles.mutual_information_oracle(cq.dense(), (len(cq.symbols), cq.quantum_dim))


class TestHolevo:
    """``holevo_cq`` takes I(S:Q) from the blocks; the reference is
    H(S) + H(Q) - H(SQ) of the dense cq matrix."""

    @pytest.mark.parametrize("name", io.BUNDLED)
    def test_iid_states_match_dense_oracle(self, name, monkeypatch):
        prep = P.prepare(io.load_bundled(name))
        states = _iid_states(prep)
        for key, state in states.items():
            assert abs(ent.holevo_cq(state) - _dense_holevo(state)) <= 1e-12, key

        # iid_region reads these values and builds no dense cq matrix
        def no_dense(self):
            raise AssertionError("the dense cq matrix was built")

        monkeypatch.setattr(qo.CQState, "dense", no_dense)
        values = P.iid_region(prep).constraints[0].provenance["values"]
        for key, state in states.items():
            side = key.endswith("E)") or prep.has_side_information()
            assert values[key] == (ent.holevo_cq(state) if side else 0.0), key

    def test_random_cq_states_match_dense_oracle(self):
        # subnormalized blocks, one of rank 1 and one symbol of weight 0
        rng = np.random.default_rng(31)
        for _ in range(20):
            n, d = int(rng.integers(3, 6)), int(rng.integers(1, 5))
            traces = rng.uniform(0.3, 1.0, size=n)
            blocks = [t * oracles.random_density(rng, d) for t in traces]
            blocks[1] = traces[1] * oracles.random_density(rng, d, rank=1)
            raw = rng.dirichlet(np.ones(n))
            raw[-1] = 0.0
            weights = raw / (raw * traces).sum()
            symbols = tuple(str(s) for s in range(n))
            cq = qo.CQState(symbols, dict(zip(symbols, weights)), dict(zip(symbols, blocks)))
            assert abs(ent.holevo_cq(cq) - _dense_holevo(cq)) <= 1e-12


class TestQAEPTrend:
    def test_normalized_gap_nonincreasing(self):
        # five fixed cq qubit instances, D_H^eps and H_max^eps at eps = 0.1
        fixtures = []
        rng = np.random.default_rng(17)
        for _ in range(5):
            p = float(rng.uniform(0.25, 0.75))
            b0 = oracles.random_density(rng, 2, rank=1)
            b1 = oracles.random_density(rng, 2)
            fixtures.append(
                qo.CQState(("0", "1"), {"0": p, "1": 1 - p}, {"0": b0, "1": b1})
            )
        eps = 0.1
        for cq in fixtures:
            dist_x = cq.classical_distribution()
            h_lim = oracles.shannon_entropy(dist_x.probs)
            i_lim = ent.holevo_cq(cq)
            h_gaps, d_gaps = [], []
            for n in (1, 2, 3):
                pn = qo.distribution_power(dist_x, n)
                h_n = ent.h_max_smooth(pn, eps) / n
                h_gaps.append(abs(h_n - h_lim))
                cqn = qo.cq_tensor_power(cq, n)
                d_n = ent.i_hyp_cq(cqn, eps)[0] / n
                d_gaps.append(abs(d_n - i_lim))
            assert all(b <= a + 1e-9 for a, b in zip(h_gaps, h_gaps[1:])), h_gaps
            assert all(b <= a + 1e-9 for a, b in zip(d_gaps, d_gaps[1:])), d_gaps
