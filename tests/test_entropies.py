import collections
import copy
import dataclasses
import decimal
import itertools
import math
import re

import numpy as np
import pytest
import scipy.linalg

from povmcomp import entropies as ent, io, linalg as la, qobjects as qo, sdp
from povmcomp import protocols as P

import np_sweep
import oracles
import sdp_reference as ref
from test_sdp import linalg_spy


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
        (operator,) = test.tests
        w = np.linalg.eigvalsh(operator)
        assert w[0] > -1e-10 and w[-1] < 1 + 1e-10
        assert np.isclose(np.trace(operator @ rho).real, test.achieved_alpha)


class TestIHyp:
    def test_product_state(self):
        rng = np.random.default_rng(7)
        cq = qo.CQState(
            ("a", "b"),
            0.5 * np.stack([oracles.random_density(rng, 2), oracles.random_density(rng, 2)]),
        )
        avg = cq.blocks[0] + cq.blocks[1]
        cq_prod = qo.CQState(("a", "b"), 0.5 * np.stack([avg, avg]))
        val, _ = ent.i_hyp_cq(cq_prod, 0.1)
        assert np.isclose(val, -math.log2(0.9), atol=1e-9)

    def test_correlated_bits_vs_classical_oracle(self):
        # perfectly correlated uniform pair vs product: diag(.5,0,0,.5) / diag(.25 x4)
        cq = qo.CQState(("0", "1"), np.stack([np.diag([0.5, 0.0]), np.diag([0.0, 0.5])]))
        val, test = ent.i_hyp_cq(cq, 0.1)
        beta_lp = oracles.np_test_lp_oracle(
            np.array([0.5, 0.0, 0.0, 0.5]), np.array([0.25] * 4), 0.1
        )
        assert np.isclose(test.achieved_beta, beta_lp, atol=1e-10)
        d, _ = ent.d_hyp(np.diag([0.5, 0, 0, 0.5]), np.diag([0.25] * 4), 0.1)
        assert np.isclose(val, d, atol=1e-12)

    def test_orthogonal_cq_trend(self):
        blocks = np.zeros((4, 4, 4), dtype=complex)
        for i in range(4):
            blocks[i, i, i] = 0.25
        cq = qo.CQState(tuple(str(i) for i in range(4)), blocks)
        vals = [ent.i_hyp_cq(cq, e)[0] for e in (0.3, 0.1, 0.01)]
        assert vals[0] >= vals[1] >= vals[2]
        assert abs(vals[2] - 2.0) < 0.2  # approaches log2 |X|

    def test_per_symbol_tests_block_structure(self):
        rng = np.random.default_rng(8)
        cq = qo.CQState(
            ("x", "y"),
            np.stack([0.6 * oracles.random_density(rng, 2), 0.4 * oracles.random_density(rng, 2)]),
        )
        _, test = ent.i_hyp_cq(cq, 0.1)
        assert test.tests.shape == (2, 2, 2)
        for t in test.tests:
            w = np.linalg.eigvalsh(t)
            assert w[0] > -1e-10 and w[-1] < 1 + 1e-10

    def test_dense_matches_cq(self):
        rng = np.random.default_rng(9)
        cq = qo.CQState(
            ("0", "1"),
            np.stack([0.3 * oracles.random_density(rng, 2), 0.7 * oracles.random_density(rng, 2)]),
        )
        v_cq, _ = ent.i_hyp_cq(cq, 0.15)
        rho = cq.dense()
        marginals = [oracles.partial_trace_oracle(rho, [2, 2], [i]) for i in (0, 1)]
        v_dense, _ = ent.d_hyp(rho, np.kron(*marginals), 0.15)
        assert np.isclose(v_cq, v_dense, atol=1e-9)


def certified_interval(rho, sigma, eps) -> tuple[float, float]:
    """The library's certified interval [-log2 beta, -log2 dual_beta] of a
    block-diagonal pair's Neyman-Pearson value, once the per-block
    oracle's value (``oracles.PerBlockNP``, the fixed 120-halving
    bisection) is checked to lie inside it, up to its NP_TOL bits, and
    both tests to reach alpha = 1 - eps."""
    value, test = ent._np_test(rho, sigma, eps)
    upper = -math.log2(test.dual_beta) if test.dual_beta > 0.0 else math.inf
    ref_beta, _, ref_alpha = oracles.PerBlockNP(rho, sigma).threshold(eps)
    want = -math.log2(ref_beta) if 0.0 < ref_beta < math.inf else math.inf
    if math.isinf(want):
        assert value == upper == math.inf
    else:
        assert value - ent.NP_TOL <= want <= upper + ent.NP_TOL, (value, want, upper)
    assert abs(test.achieved_alpha - ref_alpha) <= ent.NP_TOL
    return value, upper


def counted(blocks) -> list:
    """The points at which ``blocks`` is read from now on."""
    calls, alpha_strict = [], blocks.alpha_strict
    blocks.alpha_strict = lambda t, tol: calls.append(t) or alpha_strict(t, tol)
    return calls


class TestNPBisection:
    """The threshold search reads a fraction of the fixed 120-halving
    bisection's points, and that bisection's value lies in the search's
    certified interval."""

    @staticmethod
    def pairs():
        rng = np.random.default_rng(11)
        for n_blocks, d in ((1, 2), (2, 2), (3, 3), (4, 2)):
            p = rng.dirichlet(np.ones(n_blocks))
            rho = [pi * oracles.random_density(rng, d) for pi in p]
            avg = sum(rho)
            yield rho, [pi * avg for pi in p]  # i_hyp_cq's pair

    @pytest.mark.parametrize("eps", [0.01, 0.1, 0.3])
    def test_matches_fixed_bisection(self, eps):
        for rho, sigma in self.pairs():
            certified_interval(rho, sigma, eps)
            blocks = ent._Blocks(rho, sigma)
            calls = counted(blocks)
            ent._np_threshold(blocks, eps)
            n_calls = len(calls)
            assert 0 < n_calls <= 60
            oracles.np_bisect_fixed(blocks.alpha_strict, 1.0 - eps)
            assert len(calls) - n_calls > 120


class TestStackedNP:
    """The stacked Neyman-Pearson search, one ``eigh`` per probe over all
    blocks, reads alpha_strict as the per-block loop does, up to the
    summation order (2^-46, 64 ulps), and the per-block search's value
    lies in its certified interval."""

    @staticmethod
    def assert_matches(rho, sigma, eps):
        blocks, ref = ent._Blocks(rho, sigma), oracles.PerBlockNP(rho, sigma)
        for t in (0.0, 0.3, 1.0, 2.5, 17.0):
            assert abs(blocks.alpha_strict(t, 0.0) - ref.alpha_strict(t, 0.0)) <= 2.0**-46
        certified_interval(rho, sigma, eps)

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


# sigma / rho is 0.5 on two entries in two blocks and 2 on the others:
# alpha_strict steps 0 -> 0.6 at t = 0.5 and 0.6 -> 1 at t = 2
TIED = ([np.diag([0.3, 0.2]), np.diag([0.2, 0.3])], [np.diag([0.15, 0.4]), np.diag([0.4, 0.15])])


class TestNPBracket:
    """Each branch of the threshold search (a ``_straddle`` at a jump or at
    a secant root, or neither): the per-block search's value lies in the
    certified interval, the bracket overlaps the fixed bisection's, and
    the search reads no more points than the bisection alone."""

    def branch(self, rho, sigma, eps, monkeypatch, excess=0) -> str:
        """Checks one pair and returns the branch its search took: "jump"
        (a straddle of a jump), "root" (a straddle of a secant root) or
        "none" (no straddle held: the loop's own bracket).  The search
        must read at most ``excess`` points more than the bisection
        alone."""
        assert math.isfinite(certified_interval(rho, sigma, eps)[0])
        blocks, target = ent._Blocks(rho, sigma), 1.0 - eps
        found, straddle = [], ent._straddle

        def spy(rd, t):
            found.append((t, straddle(rd, t)))
            return found[-1][1]

        calls = counted(blocks)
        with monkeypatch.context() as patch:
            patch.setattr(ent, "_straddle", spy)
            got = ent._np_bisect(blocks, target)
        read = len(calls)
        fixed = oracles.np_bisect_fixed(blocks.alpha_strict, target)
        # past the point where its midpoint stops moving, the fixed
        # bisection only re-reads its own ends
        assert read <= len(set(calls[read:])) + excess
        assert got[0] < fixed[1] and fixed[0] < got[1]
        held = [(t, bracket) for t, bracket in found if bracket is not None]
        if not held:
            return "none"
        [(t, bracket)] = held
        assert got == bracket
        return "jump" if t in blocks.jumps() else "root"

    def test_jump_with_tied_entries(self, monkeypatch):
        # the test puts a fractional weight on the tied entries
        assert ent._Blocks(*TIED).jumps() == pytest.approx([0.5, 2.0], rel=1e-15)
        assert self.branch(*TIED, 0.5, monkeypatch) == "jump"
        # t* = 2 > 1
        assert self.branch(*TIED, 0.1, monkeypatch) == "jump"

    def test_target_inside_a_continuous_segment(self, monkeypatch):
        # a non-commuting pair: alpha_strict jumps 0 -> 0.37 at t = 0.215 and
        # 0.992 -> 1 at t = 36.5, and grows continuously between them
        rng = np.random.default_rng(5)
        rho, sigma = [oracles.random_density(rng, 2)], [oracles.random_density(rng, 2)]
        blocks = ent._Blocks(rho, sigma)
        low, high = blocks.jumps()
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

    def test_threshold_above_one(self, monkeypatch):
        # t* = 19 (commuting) and t* near 36 (the pair of the continuous
        # case at eps 0.005): the jump's straddle is taken with no reading
        # of the bisection's expansion 1, 4, 16 (and 64)
        rho, sigma = [np.diag([0.95, 0.05])], [np.diag([0.05, 0.95])]
        assert self.branch(rho, sigma, 0.01, monkeypatch) == "jump"
        rng = np.random.default_rng(5)
        rho, sigma = [oracles.random_density(rng, 2)], [oracles.random_density(rng, 2)]
        assert self.branch(rho, sigma, 0.005, monkeypatch) == "jump"

    def test_wrong_or_missing_jumps_leave_the_bisection_its_own(self, monkeypatch):
        # with no jumps the secant loop alone finds the continuous crossing
        # and straddles its root; with jumps off by 2^-37 or 0.1%, their
        # straddles fail and the loop takes over.  On the continuous
        # crossing it still saves reads; on the commuting pair alpha_strict
        # is a step, so the secant root lands off it and the loop shrinks
        # the bracket to 4 ulps, around the step itself, reading at most 4
        # points more than the bisection alone
        rng = np.random.default_rng(5)
        rho, sigma = [oracles.random_density(rng, 2)], [oracles.random_density(rng, 2)]
        jumps = ent._Blocks.jumps
        monkeypatch.setattr(ent._Blocks, "jumps", lambda self: [])
        assert self.branch(rho, sigma, 0.2, monkeypatch) == "root"
        for off in (2.0**-37, 1e-3):
            monkeypatch.setattr(
                ent._Blocks, "jumps", lambda self: [(1 + off) * t for t in jumps(self)]
            )
            for eps in (0.5, 0.2):
                assert self.branch(rho, sigma, eps, monkeypatch) == "root"
                assert self.branch(*TIED, eps, monkeypatch, excess=4) == "none"

    def test_a_target_never_read_raises(self, monkeypatch):
        # alpha_strict read 0 everywhere: no reading up to 4^200 reaches the
        # target, and the search raises rather than bracket it at t = inf
        blocks = ent._Blocks(*TIED)
        monkeypatch.setattr(blocks, "alpha_strict", lambda t, tol: 0.0)
        with pytest.raises(ent.SolverError, match="stays below 0.5"):
            ent._np_bisect(blocks, 0.5)

    def test_kernel_test_exit(self, monkeypatch):
        # rho's mass on ker sigma reaches 1 - eps: beta = 0, no search at all
        rho = [np.diag([0.2, 0.1, 0.05]), np.diag([0.3, 0.15, 0.2])]
        sigma = [np.diag([0.1, 0.05, 0.0]), np.diag([0.3, 0.15, 0.0])]
        monkeypatch.setattr(ent, "_np_bisect", lambda b, tg: pytest.fail("searched"))
        tests, alpha, beta, dual = ent._np_threshold(ent._Blocks(rho, sigma), 0.75)
        ref_beta, ref_tests, ref_alpha = oracles.PerBlockNP(rho, sigma).threshold(0.75)
        assert math.isinf(ref_beta) and (beta, dual) == (0.0, 0.0)
        assert alpha == ref_alpha == 0.25
        for t, want in zip(tests, ref_tests, strict=True):
            assert np.array_equal(t, want)
        assert certified_interval(rho, sigma, 0.75) == (math.inf, math.inf)


def test_np_sweep_slice_is_certified_in_few_reads():
    # the first 300 draws of ``np_sweep`` (899 searches at eps 0.1, 0.01 and
    # 1e-3): every value is certified, and the searches read on average at
    # most 10% more points than the jump-window search with a noise model
    # that the fixed-width straddles replaced (8.806 on this slice)
    out = np_sweep.sweep(300)
    assert out["failures"] == []
    assert len(out["reads"]) == 899
    assert np.mean(out["reads"]) <= 1.1 * 8.806


class TestNPCertificate:
    """``_certified`` passes the threshold's test, and fails it once the
    test leaves [0, I] or its alpha falls below 1 - eps, once the search
    lands off the threshold, or once the dual is taken off it.  Both exits
    of ``_np_threshold`` return through it."""

    @staticmethod
    def threshold(rho, sigma, eps):
        blocks = ent._Blocks(rho, sigma)
        tests, alpha, beta, dual = ent._np_threshold(blocks, eps)
        test = ent.NPTest(tests, alpha, beta, dual)
        assert ent._certified(blocks, tests, test, eps) < math.inf
        return blocks, tests, test

    def failed(self, blocks, tests, test, eps) -> dict:
        with pytest.raises(ent.SolverError, match="not certified") as info:
            ent._certified(blocks, tests, test, eps)
        return info.value.residuals

    @pytest.mark.parametrize("seed", [None, 5])
    @pytest.mark.parametrize("scale, fails", [(1.0 - 1e-9, "alpha"), (1.0 + 1e-9, "range")])
    def test_scaled_test(self, seed, scale, fails):
        # every test scaled with its own alpha and beta: by 1 - 1e-9, alpha
        # falls 1e-9 short of 1 - eps; by 1 + 1e-9, T exceeds I
        pair = TIED
        if seed is not None:
            rng = np.random.default_rng(seed)
            pair = [oracles.random_density(rng, 2)], [oracles.random_density(rng, 2)]
        blocks, tests, test = self.threshold(*pair, 0.2)
        alpha, beta = scale * test.achieved_alpha, scale * test.achieved_beta
        scaled = dataclasses.replace(test, achieved_alpha=alpha, achieved_beta=beta)
        residuals = self.failed(blocks, [scale * t for t in tests], scaled, 0.2)
        assert residuals[fails] > 1e-10 and residuals["beta"] <= ent.NP_TOL

    def test_bracket_off_the_threshold(self, monkeypatch):
        # a search landing 10% above the threshold t* = 0.5: its test takes
        # alpha 0.6 > 1 - eps, and the bound at its t falls below beta
        bisect = ent._np_bisect
        monkeypatch.setattr(ent, "_np_bisect", lambda b, tg: tuple(1.1 * t for t in bisect(b, tg)))
        with pytest.raises(ent.SolverError, match="not certified") as info:
            ent._np_test(*TIED, 0.5)
        assert info.value.residuals["width"] > 0.1

    @pytest.mark.parametrize("eps", [0.5, 0.1])
    def test_dual_off_the_threshold(self, eps):
        # the dual is the Lagrange bound at the middle t of the bracket; at
        # mu = t (1 + 1e-6) instead, at a jump, the bound falls first order
        # in mu - t below beta
        blocks, tests, test = self.threshold(*TIED, eps)
        t = sum(ent._np_bisect(blocks, 1.0 - eps)) / 2.0

        def dual(mu):
            d = np.linalg.eigvalsh(mu * blocks.rho - blocks.sigma)
            return mu * (1.0 - eps) - float(np.maximum(d, 0.0).sum())

        assert abs(test.dual_beta - dual(t)) <= ent.NP_TOL
        off = dataclasses.replace(test, dual_beta=dual(t * (1.0 + 1e-6)))
        residuals = self.failed(blocks, tests, off, eps)
        assert residuals["width"] > 1e-8
        assert max(residuals[k] for k in ("range", "alpha", "beta")) <= ent.NP_TOL

    @pytest.mark.parametrize("eps", [1e-3, 1e-4])
    def test_small_eps_random_pairs(self, eps):
        # continuous crossings at large t / beta, each certified: the test
        # is taken at the bracket's middle, where alpha is within the
        # slope times half the bracket's width of 1 - eps
        rng = np.random.default_rng(0)
        for _ in range(200):
            d = int(rng.integers(2, 5))
            rho = oracles.random_density(rng, d, rank=int(rng.integers(1, d + 1)))
            ent.d_hyp(rho, oracles.random_density(rng, d), eps)

    def test_exits_are_checked(self, monkeypatch):
        # the eps = 0 support exit and the kernel exit (beta = 0) take no
        # search, and return through the same check
        rho, sigma = np.diag([0.7, 0.3, 0.0]), np.diag([0.2, 0.3, 0.5])
        value, test = ent.d_hyp(rho, sigma, 0.0)
        assert value == 1.0 and test.dual_beta == test.achieved_beta == 0.5
        on_kernel = np.diag([0.95, 0.05, 0.0]), np.diag([0.0, 0.3, 0.7])
        value, test = ent.d_hyp(*on_kernel, 0.1)
        assert math.isinf(value) and test.dual_beta == test.achieved_beta == 0.0
        with monkeypatch.context() as patch:
            # every eigenvalue read 0.3 low: the support's cutoff drops rho's
            # 0.3, and the exit's alpha falls to 0.7
            eigh = np.linalg.eigh
            patch.setattr(np.linalg, "eigh", lambda m: (lambda w, v: (w - 0.3, v))(*eigh(m)))
            with pytest.raises(ent.SolverError, match="not certified"):
                ent._np_test([rho], [sigma], 0.0)
        # every eigenvector of sigma taken for its kernel: T = I, whose beta is 1
        every = (np.zeros((1, 3)), np.eye(3, dtype=complex)[None])
        monkeypatch.setattr(ent._Blocks, "sigma_eigh", property(lambda self: every))
        with pytest.raises(ent.SolverError, match="not certified"):
            ent.d_hyp(*on_kernel, 0.1)

    def test_the_support_exit_is_taken_at_eps_0_only(self):
        # at eps 1e-14 the search runs, and its Lagrange bound, which
        # subtracts two numbers of size t, cancels to 4.8e-9 bits off beta:
        # the value raises naming both ends, where a support exit would
        # return 0 bits on a zero-width interval
        with pytest.raises(ent.SolverError, match=r"in \[7\.22\d+e-06, 7\.22\d+e-06\]"):
            ent.d_hyp(np.diag([1.0 - 1e-9, 1e-9]), np.eye(2) / 2, 1e-14)
        # at eps 0 the support keeps rho's eigenvalue 2e-12, above NP_TOL / 2,
        # which la._support's cutoff 1e-10 would drop
        value, test = ent.d_hyp(np.diag([1.0 - 2e-12, 2e-12]), np.eye(2) / 2, 0.0)
        assert value == 0.0 and test.achieved_alpha == 1.0


class TestDMax:
    def test_sigma_is_decomposed_once(self, monkeypatch):
        # rho's PSD check, one checked eigh of sigma for its support and its
        # inverse root, and the pencil's top eigenvalue
        rng = np.random.default_rng(14)
        rho, sigma = oracles.random_density(rng, 2), oracles.random_density(rng, 2)
        calls = linalg_spy(monkeypatch)
        ent.d_max(rho, sigma)
        assert collections.Counter(calls) == {"eigvalsh": 2, "eigh": 1}

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
    (res,) = ref.minimize_many([prob])
    assert res.status == "optimal"
    return float(res.assignment["t"][0, 0].real)


def ball(rho, sigma) -> tuple:
    """The sub-blocks of the one pair (rho, sigma): ``_ball_blocks``'
    per-group spectra and sigma_b, and s0."""
    return ent._ball_blocks([(rho, sigma)])


def capped_ball(rho, sigma, eps):
    """``d_max_smooth``'s min t program of the one pair (rho, sigma), in
    the reference's generic form."""
    return ref.capped_ball(ref.plain(*ball(rho, sigma)), eps)


def group_major(items: list, key) -> list:
    """``items`` stably reordered group by group, the groups of one
    ``key`` in order of first appearance: the order in which
    ``_ball_blocks`` stacks its sub-blocks by (r, d, field)."""
    first: dict = {}
    for item in items:
        first.setdefault(key(item), len(first))
    return sorted(items, key=lambda item: first[key(item)])


def block_key(block) -> tuple:
    """(r, d, field) of a plain sub-block (Lambda_b, sigma_b)."""
    eigs, sigma = block
    return len(eigs), len(sigma), sigma.dtype.kind


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
    prog = ref.Program(prob)
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
    ranks = [len(eigs) for eigs, _ in ref.plain(*ball(rho, sigma))[0]]
    off = sum(r * (r - 1) // 2 for r in ranks)
    return 1 + sum(ranks) + off * (1 if real else 2)


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
    blocks, _ = ref.plain(*sub_blocks)
    return all(len(eigs) == len(sigma) == 1 and sigma[0, 0] > 0 for eigs, sigma in blocks)


def solver_batches(monkeypatch) -> list:
    """Patch ``sdp.minimize_balls`` to record the size of every batch it gets."""
    sizes, minimize_balls = [], sdp.minimize_balls
    monkeypatch.setattr(
        sdp, "minimize_balls", lambda balls: (sizes.append(len(balls)), minimize_balls(balls))[1]
    )
    return sizes


class TestWaterFill:
    """A classical value (one real group of 1x1 sub-blocks, with
    sigma_b > 0) gets its min t solve in closed form (``_water_fill``),
    with no program, as a ``sdp.BallSolve`` that ``_certified_value``
    certifies as it does an interior-point one
    (``TestScalarCertificates``)."""

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
            assert is_classical(sub_blocks) and (sub_blocks[2] > 0.0) == free
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
        balls = [sdp.Ball(*sub_blocks, math.sqrt(1 - 0.1**2)) for sub_blocks in classical]
        for value, res in zip(balls, sdp.minimize_balls(balls)):
            closed = ent._certified_value(value, ent._water_fill(value))
            # the closed form is exact; the solve's t is above the optimum
            below = ent._certified_value(value, res) - closed
            assert res.iterations > 0 and 0.0 <= below < ent.BISECT_TOL_BITS

    def test_values_bound_by_the_normalisation(self, smoothed_cq_states):
        # t* = t_min = 1 / (sum_b sigma_b + s0) when the fidelity at t_min
        # already reaches sqrt(1 - eps^2): the bundled 0-bit values (trivial's
        # thresholds among them), where every sub-block is capped at t_min
        # and the lower end is the trace contradiction alone: 1 on every cap
        # and on w's, 0 elsewhere
        bound = []
        for cq in smoothed_cq_states:
            sub_blocks = ent._ball_blocks(ent._cq_pairs(cq))
            if not is_classical(sub_blocks):
                continue
            value, res = water_fill(sub_blocks, 0.1)
            sigmas = np.array([sigma[0, 0] for _, sigma in ref.plain(*sub_blocks)[0]])
            t_min = 1.0 / (sigmas.sum() + max(sub_blocks[2], 0.0))
            if res.point.t == pytest.approx(t_min, rel=1e-14):
                bound.append(ent._certified_value(value, res))
                dual = res.dual
                assert not dual.g[0].any() and (dual.fid, dual.floor, dual.free_cap) == (0, 0, 1)
                assert set(dual.cap[0].ravel().tolist()) == {1.0}
                assert res.point.rho[0].ravel() == pytest.approx(t_min * sigmas, rel=1e-14)
        assert len(bound) == 5 and max(abs(v) for v in bound) < 1e-12
        # rho = diag(0.5, 0.5, 0): the free mass 0.1 fills the trace at t = 1
        p, s = np.array([0.5, 0.5, 0.0]), np.array([0.45, 0.45, 0.1])
        value = ent.d_max_smooth(np.diag(p), np.diag(s), 0.4)
        assert abs(value) <= 1e-15
        oracle = oracles.dmax_smooth_classical_oracle(p, s, 0.4)
        assert value - ent.BISECT_TOL_BITS < oracle <= value

    def test_a_sub_block_without_sigma_is_cut_to_the_closed_form(self, monkeypatch):
        # sigma = 0 under rho's second entry: the cut to supp(sigma) drops
        # that direction with its mass 0.005, which leaves 0.995 >= 1 - eps^2
        # on the support, so the value is classical and goes to no solver
        p, s = np.array([0.995, 0.005]), np.array([1.0, 0.0])
        sub_blocks = ball(np.diag(p), np.diag(s))
        blocks, free = ref.plain(*sub_blocks)
        assert [(eigs.tolist(), sigma.tolist()) for eigs, sigma in blocks] == [([0.995], [[1.0]])]
        assert free == 0.0 and is_classical(sub_blocks)
        sizes = solver_batches(monkeypatch)
        value = ent.d_max_smooth(np.diag(p), np.diag(s), 0.1)
        assert sizes == [0]
        oracle = oracles.dmax_smooth_classical_oracle(p, s, 0.1)
        assert value - ent.BISECT_TOL_BITS < oracle <= value

    def test_each_value_makes_one_recheck(self, monkeypatch):
        # the region pass: the certificate of each distinct value reads its
        # solve's own recheck, the one recheck of its ball: the final one of
        # each of the two interior-point solves, and the closed form's of the
        # classical value (the Y cell's three values repeat the X cell's
        # bytes, so they get no ball of their own)
        prep = P.prepare(io.load_bundled("instrument_derived"))
        checked, recheck = [], sdp.recheck
        fills, closed_form = [], ent._water_fill

        def recording_recheck(ball, point):
            checked.append(ball)
            return recheck(ball, point)

        def recording_water_fill(ball):
            fills.append(ball)
            return closed_form(ball)

        monkeypatch.setattr(sdp, "recheck", recording_recheck)
        monkeypatch.setattr(ent, "_water_fill", recording_water_fill)
        sizes = solver_batches(monkeypatch)
        P.one_shot_region(prep, 0.1, theta_grid=(0.5,))
        assert (sizes, len(fills)) == ([2], 1)
        assert len(checked) == len({id(ball) for ball in checked}) == 2 + 1


def test_every_certified_value_reads_its_solves_own_recheck(monkeypatch):
    # the thresholds and the default five-theta region of every bundled
    # instance at eps 0.1 and 0.01: a solve hands its point back at
    # t = 2^(log2 t), so each of the 216 certified values takes one recheck,
    # its solve's, and none at 2^v
    rechecked, certified = [], []
    recheck, certified_value = sdp.recheck, ent._certified_value

    def recording_recheck(ball, point):
        rechecked.append(ball)
        return recheck(ball, point)

    def recording(ball, res):
        value = certified_value(ball, res)
        certified.append(2.0**value == res.point.t)
        return value

    monkeypatch.setattr(sdp, "recheck", recording_recheck)
    monkeypatch.setattr(ent, "_certified_value", recording)
    for name in io.BUNDLED:
        for eps in (0.1, 0.01):
            prep = P.prepare(io.load_bundled(name))
            P.thresholds(prep, eps)
            P.one_shot_region(prep, eps)
    assert (len(rechecked), len(certified), sum(certified)) == (216, 216, 216)


def test_a_repeated_value_is_solved_and_certified_once(monkeypatch):
    # values a, b, a, c, b, a, each repeat a copy with the same bytes: a and
    # b go to the solver, c to the closed form; each distinct value gets one
    # _ball_blocks, one solve and one certificate, and every value's bits
    # are those of its lone call
    (a, b), c = real_pairs()[:2], commuting_pairs(False)[0][:2]
    alone = [ent._d_max_smooth_many([[pair]], 0.1)[0].hex() for pair in (a, b, c)]
    order = [0, 1, 0, 2, 1, 0]
    values = [[tuple(m.copy() for m in (a, b, c)[i])] for i in order]
    built, certified = [], []
    ball_blocks, certified_value = ent._ball_blocks, ent._certified_value

    def building(pairs):
        built.append(pairs)
        return ball_blocks(pairs)

    def certifying(ball, res):
        certified.append(res.status)
        return certified_value(ball, res)

    monkeypatch.setattr(ent, "_ball_blocks", building)
    monkeypatch.setattr(ent, "_certified_value", certifying)
    sizes = solver_batches(monkeypatch)
    got = [v.hex() for v in ent._d_max_smooth_many(values, 0.1)]
    assert got == [alone[i] for i in order]
    assert (len(built), sizes, certified) == (3, [2], ["optimal", "optimal", "closedForm"])
    # a failing value repeated: c, b, c, b with b's solve giving no t raises
    # once, at b's first position, after c's one certificate
    certified.clear()
    stalled_solves(
        monkeypatch, lambda ball, res: {"point": dataclasses.replace(res.point, t=math.nan)}
    )
    with pytest.raises(ent.SolverError, match="solve gave t = nan " + STALLED):
        ent._d_max_smooth_many([values[3], values[1], values[3], values[4]], 0.1)
    assert certified == ["closedForm", "maxIterations"]


def water_fill(sub_blocks, eps) -> tuple:
    """The ``sdp.Ball`` at eps of a classical ``_ball_blocks`` result, and
    its closed-form ``sdp.BallSolve`` (``_water_fill``)."""
    value = sdp.Ball(*sub_blocks, math.sqrt(max(0.0, 1.0 - eps * eps)))
    return value, ent._water_fill(value)


def ends(value, res) -> dict:
    """Both ends of a solve as ``_certified_value`` reads them: the
    recheck of its point at t = 2^v, v = log2 of its t, and "lower", log2
    of ``sdp.lower_bound`` of its dual (-inf when that is 0)."""
    point = dataclasses.replace(res.point, t=2.0 ** math.log2(res.point.t))
    t_low = sdp.lower_bound(value, res.dual)
    return dict(sdp.recheck(value, point), lower=math.log2(t_low) if t_low > 0.0 else -math.inf)


def exact_log2_t_star(value, eps) -> decimal.Decimal:
    """log2 of the least t of a classical ball's program, its
    (lambda_b, sigma_b, s0) and eps taken as exact: ``_water_fill``'s
    closed form evaluated with
    ``decimal`` at 50 digits.  In the order of lambda_b / sigma_b,
    descending, segment k (its first k sub-blocks capped) has
    A = sum sqrt(lambda_b sigma_b) and S = sum sigma_b over them and
    L = sum lambda_b over the others, and ends where its k-th sub-block
    uncaps, at lambda_k / (sigma_k L + lambda_k S); the crossing lies on
    the last segment whose end has F = A sqrt(t) + sqrt(L (1 - S t)) at or
    above c = sqrt(1 - eps^2), and is the smaller root there; t* is it or
    t_min = 1 / (sum_b sigma_b + s0), whichever is larger."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        lam, sig = value.eigs[0].ravel(), value.sigma[0].ravel()
        exact = [decimal.Decimal(float(v)) for v in (*lam, *sig, max(value.free_mass, 0.0), eps)]
        n = len(lam)
        lam, sig, s0, eps = exact[:n], exact[n : 2 * n], exact[-2], exact[-1]
        c = (1 - eps * eps).sqrt()
        lam, sig = zip(*sorted(zip(lam, sig), key=lambda pair: pair[0] / pair[1], reverse=True))

        def segment(k):
            return (
                sum((a * b).sqrt() for a, b in zip(lam[:k], sig[:k])),
                sum(sig[:k], decimal.Decimal(0)),
                sum(lam[k:], decimal.Decimal(0)),
            )

        k = 1
        for j in range(1, n + 1):
            a, s, rest = segment(j)
            top = lam[j - 1] / (sig[j - 1] * rest + lam[j - 1] * s)
            if a * top.sqrt() + (rest * max(1 - s * top, 0)).sqrt() >= c:
                k = j
        a, s, rest = segment(k)
        root = (c * c - rest) / (c * a + (rest * max(a * a + s * (rest - c * c), 0)).sqrt())
        t_star = max(1 / (sum(sig) + s0), max(root, 0) ** 2)
        return t_star.ln() / decimal.Decimal(2).ln()


def check_scalar_certificates(value, res, eps) -> dict:
    """Both ends of a closed-form solve (``ends``) against the program
    oracle (``oracles.ball_certificates``): the same recheck verdict, and
    the same lower end within 1e-8 bits.  Both sides sum terms of size 1
    that cancel to t* held, which is 2e-6 to 1e-5 at eps 1e-5 (0.02 to
    0.5 at eps 0.1), so their round-off differs by up to 1.7e-9 bits
    there (6e-14 at eps 0.1)."""
    got = ends(value, res)
    primal, lower = oracles.ball_certificates(ref, value, res, eps)
    assert sdp.within_tolerance(got) == sdp.within_tolerance(primal)
    assert got["lower"] == pytest.approx(lower, abs=1e-8)
    return got


def certified(res, residuals) -> tuple[bool, bool]:
    """Whether the point passes its recheck, and whether the interval
    [lower, log2 t] is at most BISECT_TOL_BITS wide."""
    width = abs(math.log2(res.point.t) - residuals["lower"])
    return sdp.within_tolerance(residuals), width <= ent.BISECT_TOL_BITS


class TestScalarCertificates:
    """A classical value's closed-form solve is certified in block form on
    its one group of 1x1 sub-blocks; the program oracle rebuilds its
    ``_capped_ball`` and checks both certificates from the program's
    expressions."""

    def test_bundled_values_agree_with_the_program_oracle(self, smoothed_cq_states):
        balls = [ent._ball_blocks(ent._cq_pairs(cq)) for cq in smoothed_cq_states]
        fills = [water_fill(b, 0.1) for b in balls if is_classical(b)]
        assert len(fills) == 20
        for value, res in fills:
            assert certified(res, check_scalar_certificates(value, res, 0.1)) == (True, True)

    def test_seeded_pairs_agree_with_the_program_oracle(self):
        # 12 commuting pairs with and without free mass at eps 0.1 and 1e-5,
        # and pairs bound by the normalisation, whose multipliers weigh the
        # caps and w's alone, for the lower end 1 / (sum_b sigma_b + s0)
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
            value, res = water_fill(ball(np.diag(p), np.diag(s)), eps)
            assert certified(res, check_scalar_certificates(value, res, eps)) == (True, True)
            kinds[value.free_mass > 0.0, not res.dual.g[0].any()] += 1
        assert set(kinds) == {(False, False), (True, False), (False, True), (True, True)}

    def test_a_point_past_its_cap_is_not_feasible(self, smoothed_cq_states):
        # x_b moved 1e-6 past its cap, the mass taken from w, so that only
        # the cap row sees it
        moved = 0
        for cq in smoothed_cq_states:
            sub_blocks = ent._ball_blocks(ent._cq_pairs(cq))
            if not is_classical(sub_blocks):
                continue
            value, res = water_fill(sub_blocks, 0.1)
            lam, sig, t = value.eigs[0].ravel(), value.sigma[0].ravel(), res.point.t
            x = res.point.rho[0].ravel().copy()
            x[0] = 2.0 ** math.log2(t) * sig[0] + 1e-6
            w = res.point.w - (x[0] - res.point.rho[0][0, 0, 0])
            if value.free_mass <= 0.0 or w < 0.0:
                continue
            point = sdp.BallPoint(t, w, [np.sqrt(lam * x)[:, None, None]], [x[:, None, None]])
            past = dataclasses.replace(res, point=point)
            assert ends(value, past)["gap"] < 1e-12
            assert certified(past, check_scalar_certificates(value, past, 0.1)) == (False, True)
            moved += 1
        assert moved >= 3

    def test_the_stationarity_residual_is_read_not_assumed(self, smoothed_cq_states):
        # the first cap's weight raised by 1, still a cone element, so
        # nothing is charged: the least-squares trace multiplier takes back
        # only its mean, and its x_b coordinate of r keeps most of the 1, so
        # X |r| >= sqrt 3 |r| takes more than the constant and held gain, and
        # the lower end falls out of the interval
        for cq in smoothed_cq_states:
            sub_blocks = ent._ball_blocks(ent._cq_pairs(cq))
            if not is_classical(sub_blocks):
                continue
            value, res = water_fill(sub_blocks, 0.1)
            caps = res.dual.cap[0].copy()
            caps[0] += 1.0
            moved = ends(value, dataclasses.replace(res, dual=dataclasses.replace(res.dual, cap=[caps])))
            assert moved["lower"] < ends(value, res)["lower"]
            assert certified(res, moved) == (True, False)

    def test_the_multipliers_at_t_star_give_a_tight_lower_end(self, smoothed_cq_states):
        # stationary multipliers at t* put the lower end at log2 t* up to
        # round-off, at or below the upper end log2 t_cap
        pairs = commuting_pairs(False) + commuting_pairs(True)
        cases = [ball(np.diag(p), np.diag(s)) for *_, p, s in pairs]
        balls = [ent._ball_blocks(ent._cq_pairs(cq)) for cq in smoothed_cq_states]
        for sub_blocks in [b for b in balls if is_classical(b)] + cases:
            value, res = water_fill(sub_blocks, 0.1)
            width = math.log2(res.point.t) - check_scalar_certificates(value, res, 0.1)["lower"]
            assert 0.0 <= width <= 1e-10

    def test_both_ends_hold_the_exact_value_at_eps_1e_5(self):
        # at eps 1e-5 the terms of the lower end's constant, of size 1,
        # cancel to t* held = 2e-6 to 1e-5, so its own round-off counts:
        # with that bounded (``sdp.lower_bound``), every interval
        # [lower, log2 t_cap] of the commuting pairs holds log2 t* at 50
        # digits and is at most BISECT_TOL_BITS wide
        for free in (False, True):
            for _, _, p, s in commuting_pairs(free):
                value, res = water_fill(ball(np.diag(p), np.diag(s)), 1e-5)
                lower, upper = ends(value, res)["lower"], math.log2(res.point.t)
                exact = exact_log2_t_star(value, 1e-5)
                assert decimal.Decimal(lower) <= exact <= decimal.Decimal(upper), (p, s)
                assert upper - lower <= ent.BISECT_TOL_BITS

    def test_no_program_is_built_for_a_classical_instance(self, monkeypatch):
        # classical_commuting's thresholds and theta 0.5 region: 8 values,
        # all classical, with no solver batch: each certified solve is the
        # closed form's
        prep = P.prepare(io.load_bundled("classical_commuting"))
        statuses, certified_value = [], ent._certified_value

        def refuse(*args, **kwargs):
            raise AssertionError("a classical value built a program")

        def recording(value, res):
            statuses.append(res.status)
            return certified_value(value, res)

        monkeypatch.setattr(sdp._Batch, "__init__", refuse)
        monkeypatch.setattr(ent, "_certified_value", recording)
        P.thresholds(prep, 0.1, 0.0)
        P.one_shot_region(prep, 0.1, theta_grid=(0.5,))
        assert statuses == ["closedForm"] * 8


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
        # sizes 1 and 2: per component size one eigh of sigma (the cut) and
        # one eigvalsh of rho (its PSD check), then one eigh of the cut rho
        # per component size of the cut, whose components that carry rho
        # are the pair's (rho_c and sigma_c have full rank there).  Each
        # spectrum is that of the cut component's own eigh, and each
        # sigma_b is sigma_c's spectrum in that eigenbasis
        rho, sigma = block_pair(np.random.default_rng(41), [2, 1, 3, 2, 1], [2, 1], zero=1)
        comps = oracles.support_components_oracle([rho, sigma])
        eigh, eigvalsh, calls = np.linalg.eigh, np.linalg.eigvalsh, []

        def counting(name, call):
            return lambda a: (calls.append((name, a.shape[-1])), call(a))[1]

        monkeypatch.setattr(np.linalg, "eigh", counting("eigh", eigh))
        monkeypatch.setattr(np.linalg, "eigvalsh", counting("eigvalsh", eigvalsh))
        blocks, _ = ref.plain(*ball(rho, sigma))
        monkeypatch.undo()
        assert sorted({len(c) for c in comps}) == [1, 2, 3]
        cut = [call for size in (1, 2, 3) for call in (("eigh", size), ("eigvalsh", size))]
        assert calls == cut + [("eigh", 1), ("eigh", 2), ("eigh", 3)]
        want = []
        for c in comps:
            w, v = np.linalg.eigh(sigma[np.ix_(c, c)])
            w, v = np.where(w > 1e-12, w, 0.0)[::-1], v[:, ::-1]
            v = v * (w > 0.0)
            lam, u = np.linalg.eigh(v.conj().T @ rho[np.ix_(c, c)] @ v)
            if lam[-1] > 1e-12:
                u = u[:, ::-1]
                rotated = (u.conj().T * w) @ u
                real = np.abs(rotated.imag).max() <= la.REAL_TOL
                want.append((lam[lam > 1e-12][::-1], rotated.real if real else rotated))
        # the components in order of least index, stacked by (r, d, field)
        want = group_major(want, block_key)
        assert len(blocks) == len(want) == 5
        for (eigs, sb), (want_eigs, want_sb) in zip(blocks, want):
            assert np.array_equal(eigs, want_eigs)
            assert sb.shape == want_sb.shape and sb.dtype == want_sb.dtype
            np.testing.assert_allclose(sb, want_sb, atol=1e-15)

    def test_pairs_split_as_their_direct_sum(self, monkeypatch):
        # a classical-copy pair cut into its classes, as a cq state's pairs:
        # the sub-blocks, their order (pair by pair, then by least original
        # index) and s0 are those of the dense direct sum, to the bit, from
        # one eigh per component size across all the pairs for the cut and
        # one per component size of the cut for the rotation
        eigh, calls = np.linalg.eigh, []

        def counting(a):
            calls.append(a.shape[-1])
            return eigh(a)

        for k, (rho, sigma, _) in enumerate(classical_copy_pairs()):
            n = len(CLASSICAL_COPY_SHAPES[k % 4][0])
            cuts = [slice(x * len(rho) // n, (x + 1) * len(rho) // n) for x in range(n)]
            pairs = [(rho[c, c], sigma[c, c]) for c in cuts]
            assert np.array_equal(direct_sum(pairs)[1], sigma)
            want_blocks, want_free = ref.plain(*ball(rho, sigma))
            with monkeypatch.context() as patch:
                patch.setattr(np.linalg, "eigh", counting)
                blocks, free = ref.plain(*ent._ball_blocks(pairs))
            sizes = {len(c) for r, s in pairs for c in oracles.support_components_oracle([r, s])}
            cut_sizes = {len(c) for _, c in oracles.cut_reference(ent, pairs)[2]}
            assert calls == sorted(sizes) + sorted(cut_sizes)
            calls.clear()
            assert free == want_free
            assert len(blocks) == len(want_blocks)
            for (eigs, sb), (want_eigs, want_sb) in zip(blocks, want_blocks):
                assert sb.dtype == want_sb.dtype
                assert np.array_equal(eigs, want_eigs)
                assert np.array_equal(sb, want_sb)


def reference_group_major(want) -> tuple:
    """``oracles.ball_blocks_reference``'s plain list, in order of least
    index, stably reordered group by group as ``_ball_blocks`` stacks it,
    and s0."""
    blocks, free_mass = want
    return group_major(blocks, block_key), free_mass


def assert_same_sub_blocks(got, want) -> None:
    """A ``_ball_blocks`` result and the reference's plain list agree to
    the bit: one stack per (r, d, field), the reference's sub-blocks in
    its order of least index within each stack and the stacks in order of
    first appearance, the spectra, sigma_b and its field, and s0."""
    keys = [(e.shape[1], s.shape[-1], s.dtype.kind) for e, s in zip(got[0], got[1])]
    assert len(set(keys)) == len(keys)
    (blocks, free), (want_blocks, want_free) = ref.plain(*got), reference_group_major(want)
    assert free.hex() == want_free.hex() and len(blocks) == len(want_blocks)
    for (eigs, sb), (want_eigs, want_sb) in zip(blocks, want_blocks):
        assert sb.dtype == want_sb.dtype
        assert eigs.tobytes() == want_eigs.tobytes() and sb.tobytes() == want_sb.tobytes()


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
                plains = (ref.plain(*got), reference_group_major(want))
                prog, oracle = (ref.Program(ref.capped_ball(b, 0.1)) for b in plains)
                for name in ("g_graph", "c_graph", "g_eq", "c_eq"):
                    assert getattr(prog, name).tobytes() == getattr(oracle, name).tobytes()

    def test_seeded_degenerate_and_complex_pairs(self):
        rng = np.random.default_rng(90)
        fields = collections.Counter()
        for _ in range(24):
            pairs = degenerate_pairs(rng)
            got = ent._ball_blocks(pairs)
            assert_same_sub_blocks(got, oracles.ball_blocks_reference(ent, pairs))
            fields.update(sigma.dtype.kind for _, sigma in ref.plain(*got)[0])
            fields["free"] += got[2] > 0.0
        assert fields["c"] and fields["f"] and fields["free"]


class TestCut:
    """``_ball_blocks`` cuts each support component to supp(sigma_c) before
    it rotates it: every sub-block's sigma_b is positive definite, a value
    with too little of rho's mass on supp(sigma) is +inf, and rho's PSD
    check reads each rho_k's own spectrum, not its cut."""

    def test_every_sigma_b_is_positive_definite(self, smoothed_cq_states):
        # the bundled values (classical_commuting's sigma is singular on
        # its 8-dimensional E), random rank-deficient balls, and pairs whose
        # sigma has rank 2 in dimension 4 to 6
        values = [ent._ball_blocks(ent._cq_pairs(cq)) for cq in smoothed_cq_states]
        values += [(b.eigs, b.sigma, b.free_mass) for b in TestBlockForm.rank_deficient_balls()]
        for seed, n, d, k in ((3, 4, 6, 2), (4, 3, 5, 2), (6, 12, 4, 2)):
            pairs = oracles.shared_support_pairs(np.random.default_rng(seed), n, d, k)
            values.append(ent._ball_blocks(pairs))
        singular = [
            cq for cq in smoothed_cq_states
            if np.linalg.eigvalsh(np.einsum("xij->ij", cq.blocks))[0] <= la.SUPPORT_TOL
        ]
        assert len(values) == 39 + 12 + 3 and singular
        # each sigma_b is a principal block of U^H diag(w) U, w the kept
        # spectrum (above la.SUPPORT_TOL), so its least eigenvalue is at
        # least min w (Cauchy interlacing), up to the rotation's round-off
        for eigs, sigmas, _ in values:
            for sigma in sigmas:
                assert np.linalg.eigvalsh(sigma)[:, 0].min() > la.SUPPORT_TOL / 2

    @pytest.mark.parametrize("eps", [0.1, 0.5])
    def test_too_little_mass_on_the_support_is_infinite(self, eps):
        # F(Pi rho Pi, rho') <= sqrt(Tr Pi rho Pi): the orthogonal pair (no
        # mass on supp(sigma)), the 0.9-off pair (0.1) and |+><+| against
        # |0><0| (0.5) are below 1 - eps^2 at eps 0.1 and 0.5; the 0.001-off
        # pair (0.999) stays a certified value, 0 up to round-off
        # (rho' = |0><0| at t = 1)
        zero = np.diag([1.0, 0.0])
        for rho in (np.diag([0.0, 1.0]), np.diag([0.1, 0.9]), np.full((2, 2), 0.5)):
            assert ent.d_max_smooth(rho, zero, eps) == math.inf
        value = ent.d_max_smooth(np.diag([0.999, 0.001]), zero, eps)
        assert 0.0 <= value <= 1e-12
        p = np.array([0.999, 0.001])
        oracle = oracles.dmax_smooth_classical_oracle(p, zero.diagonal(), eps)
        assert value - ent.BISECT_TOL_BITS < oracle <= value

    def test_the_psd_check_reads_each_rho_k_whole(self):
        # rho_a's -1e-3 lies on ker(sigma_a), which the cut drops: the check
        # must read rho_a's own spectrum
        cq = qo.CQState.derived(("a", "b"), [np.diag([0.5, 0.0, -1e-3]), np.diag([0.0, 0.5, 0.0])])
        with pytest.raises(ValueError, match="negative eigenvalue -1.000e-03"):
            ent.i_max_cq_many([cq], 0.1)


class TestFoldedBall:
    """The rho-free components of the smoothing program fold into one
    scalar w; ``oracles.capped_ball_per_component`` keeps one ball variable
    per component."""

    def check_fold(self, rho, sigma, eps, has_w):
        folded = capped_ball(rho, sigma, eps)
        assert ("w" in folded.variables) == has_w
        t = min_t(folded)
        want = min_t(oracles.capped_ball_per_component(ref, rho, sigma, eps, None))
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
        assert ball(rho, sigma)[2] == 0.0
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
            sub_blocks = ref.plain(*ent._ball_blocks(pairs))
            assert sub_blocks[1] == 0.0
            for lam in (None, 0.7):
                got = at_lam(ref.capped_ball(sub_blocks, 0.1), lam)
                want = oracles.capped_ball_per_component(ref, rho, sigma, 0.1, lam)
                assert list(got.variables.values()) == list(want.variables.values())
                assert [e.dim for e in got.psd_constraints] == [e.dim for e in want.psd_constraints]
                assert (len(got.equalities), len(got.inequalities)) == (
                    len(want.equalities),
                    len(want.inequalities),
                )
            want_t = min_t(oracles.capped_ball_per_component(ref, rho, sigma, 0.1, None))
            assert min_t(ref.capped_ball(sub_blocks, 0.1)) == pytest.approx(want_t, rel=1e-6)

    def test_largest_region_program_size(self, monkeypatch):
        prep = P.prepare(io.load_bundled("instrument_derived"))
        values = smoothing_values(
            monkeypatch, lambda: P.one_shot_region(prep, 0.1, theta_grid=(0.5,), axes=("X", "Y"))
        )
        sizes = []
        for pairs in values:
            prog = ref.Program(ref.capped_ball(ref.plain(*ent._ball_blocks(pairs)), 0.1))
            unsplit = oracles.capped_ball_per_component(ref, *direct_sum(pairs), 0.1, None)
            unsplit = ref.Program(unsplit)
            sizes.append((unsplit.n_vars, prog.n_vars, collections.Counter(prog.block_dims)))
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
        # components: the ball the solve steps (or the closed form fills)
        # and the certificates read holds the sub-blocks of the value's one
        # ``_ball_blocks`` call
        ball_blocks, minimize_balls, certified_value = (
            ent._ball_blocks,
            sdp.minimize_balls,
            ent._certified_value,
        )
        built, solved, certified = [], [], []

        def recording_ball_blocks(pairs):
            built.append(ball_blocks(pairs))
            return built[-1]

        def recording_minimize_balls(balls):
            solved.extend(balls)
            return minimize_balls(balls)

        def recording_certified_value(ball, res):
            certified.append(ball)
            return certified_value(ball, res)

        monkeypatch.setattr(ent, "_ball_blocks", recording_ball_blocks)
        monkeypatch.setattr(sdp, "minimize_balls", recording_minimize_balls)
        monkeypatch.setattr(ent, "_certified_value", recording_certified_value)
        for rho, sigma in region_x_pairs:
            ent.d_max_smooth(rho, sigma, 0.1)
        monkeypatch.undo()
        # the classical value among them goes to no solve, and every value
        # to the one certificate
        kept = [b for b in built if not is_classical(b)]
        assert (len(built), len(kept), len(solved), len(certified)) == (3, 2, 2, 3)
        assert list(map(id, solved)) == [id(v) for v, b in zip(certified, built) if not is_classical(b)]
        for sub_blocks, ball in zip(built, certified):
            assert ball.eigs is sub_blocks[0] and ball.sigma is sub_blocks[1]
            assert ball.free_mass == sub_blocks[2]

    def test_certificates_decide_whatever_the_status(self, monkeypatch, region_x_pairs):
        # a solve reported "maxIterations" whose point and dual pass both
        # checks gives the value of the optimal report, to the bit; with its
        # dual zeroed there is no lower end, and no value
        rho, sigma = region_x_pairs[0]
        want = ent.d_max_smooth(rho, sigma, 0.1)
        stalled_solves(monkeypatch, lambda ball, res: {})
        assert ent.d_max_smooth(rho, sigma, 0.1).hex() == want.hex()
        stalled_solves(monkeypatch, lambda ball, res: {"dual": zeroed(res.dual)})
        ends = rf"in \[-inf, {want!r}\] not certified "
        with pytest.raises(ent.SolverError, match=ends + STALLED) as err:
            ent.d_max_smooth(rho, sigma, 0.1)
        # the error carries the recheck and the lower end: the point still passes
        residuals = err.value.residuals
        assert set(residuals) == {"primal", "gap", "lower"}
        assert residuals["primal"] <= sdp.FEASIBLE_TOL
        assert residuals["lower"] == -math.inf

    def test_the_dual_is_projected_onto_the_cone(self, monkeypatch):
        # t s0 - w >= 0 is slack at this optimum, so its weight is near 0;
        # made -1, ``sdp.lower_bound`` clips it back to 0 (the scalar
        # weights' projection onto their cone, which is exact) and the
        # interval stands, while read as it is, its residual on w would take
        # the lower end 0.9 bits down
        rho = np.diag([1.0, 0.0, 0.0])
        sigma = np.array([[0.4, 0.2, 0.0], [0.2, 0.4, 0.0], [0.0, 0.0, 0.2]])
        want = ent.d_max_smooth(rho, sigma, 0.1)

        def off_cone(ball, res):
            return {"dual": dataclasses.replace(res.dual, free_cap=-1.0)}

        stalled_solves(monkeypatch, off_cone)
        assert ent.d_max_smooth(rho, sigma, 0.1).hex() == want.hex()

    def test_a_point_over_its_cap_is_not_certified_feasible(self, monkeypatch, region_x_pairs):
        # t halved under the solve's rho': the point is over its cap, while
        # the dual keeps the lower end at the value.  A result's residuals
        # are its own point's recheck, as ``sdp.minimize_balls`` makes them
        rho, sigma = region_x_pairs[0]
        want = ent.d_max_smooth(rho, sigma, 0.1)

        def halved(ball, res):
            point = dataclasses.replace(res.point, t=0.5 * res.point.t)
            return {"point": point, "residuals": dict(res.residuals, **sdp.recheck(ball, point))}

        stalled_solves(monkeypatch, halved)
        with pytest.raises(ent.SolverError, match="not certified " + STALLED) as err:
            ent.d_max_smooth(rho, sigma, 0.1)
        residuals = err.value.residuals
        assert set(residuals) == {"primal", "gap", "lower"}
        assert residuals["primal"] > sdp.FEASIBLE_TOL
        assert abs(residuals["lower"] - want) <= 1e-5

    @pytest.mark.parametrize("t", [0.0, math.nan])
    def test_a_solve_without_positive_t_raises(self, monkeypatch, region_x_pairs, t):
        # no value to certify: the error carries the solve's own residuals
        rho, sigma = region_x_pairs[0]
        stalled = []

        def no_t(ball, res):
            stalled.append(res)
            return {"point": dataclasses.replace(res.point, t=t)}

        stalled_solves(monkeypatch, no_t)
        with pytest.raises(ent.SolverError, match=f"solve gave t = {t} " + STALLED) as err:
            ent.d_max_smooth(rho, sigma, 0.1)
        assert err.value.residuals == stalled[0].residuals


STALLED = r"\(solve ended maxIterations after \d+ iterations\)"


def stalled_solves(monkeypatch, change) -> None:
    """Patch ``sdp.minimize_balls`` to report each solve "maxIterations",
    with the fields that ``change(ball, result)`` returns replaced."""
    minimize_balls = sdp.minimize_balls

    def stalled(balls):
        return [
            dataclasses.replace(res, status="maxIterations", **change(ball, res))
            for ball, res in zip(balls, minimize_balls(balls))
        ]

    monkeypatch.setattr(sdp, "minimize_balls", stalled)


def zeroed(dual):
    """A ``sdp.BallDual`` of the same shape with every entry 0."""
    psd = [None if p is None else 0.0 * p for p in dual.psd]
    return sdp.BallDual([0.0 * m for m in dual.g], psd, [0.0 * m for m in dual.cap], 0.0, 0.0, 0.0)


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
    matrices.  A complex unitary conjugation of each support component
    (``phased``) can force the Hermitian path, and must give the same
    value.  It need not: the cut poses each component in the eigenbasis
    of its sigma_c, where the conjugation leaves only phases, which the
    rotation into the cut rho's eigenbasis may take off again."""

    @staticmethod
    def check_parity(rho, sigma, eps) -> bool:
        # each program has d(d+1)/2 reals per block over the real field and
        # d^2 over the Hermitian one, and a Hermitian program pins the
        # imaginary parts of every corner too; returns the phased
        # program's field
        real = ref.Program(capped_ball(rho, sigma, eps))
        herm = ref.Program(capped_ball(*phased(rho, sigma), eps))
        assert real.real
        assert herm.n_vars == sum(sdp.rvec_size(d, herm.real) for d in herm.prob.variables.values())
        assert real.n_vars == sum(d * (d + 1) // 2 for d in real.prob.variables.values())
        assert len(real.prob.equalities) == corner_pins(rho, sigma, True)
        assert len(herm.prob.equalities) == corner_pins(*phased(rho, sigma), herm.real)
        # d_max_smooth raises SolverError unless both certificates pass
        got = ent.d_max_smooth(rho, sigma, eps)
        assert abs(got - ent.d_max_smooth(*phased(rho, sigma), eps)) <= 1e-6
        return herm.real

    def test_real_pairs_match_their_phased_pairs(self):
        # none of the six commutes; the phased rank-2 ones (a (2, 4) and a
        # (2, 6) sub-block) stay Hermitian
        fields = [
            self.check_parity(rho, sigma, (0.05, 0.1, 0.2)[k % 3])
            for k, (rho, sigma) in enumerate(real_pairs())
        ]
        assert fields == [True, False, True] * 2

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
        # imaginary parts within la.REAL_TOL are round-off: the program is
        # the real one, byte for byte, and its rotated sigma_b are real
        rho, sigma = real_pairs()[4]
        noise = 1e-12 * oracles.random_hermitian(np.random.default_rng(52), len(rho))
        noisy = (rho + 1j * np.imag(noise), sigma.astype(complex))
        for lam in (None, 0.4):
            assert compiled(at_lam(capped_ball(*noisy, 0.1), lam)) == compiled(
                at_lam(capped_ball(rho, sigma, 0.1), lam)
            )
        assert all(not np.iscomplexobj(sigma) for sigma in ball(*noisy)[1])

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
                prob = ref.capped_ball(ref.plain(*ent._ball_blocks(pairs)), 0.1)
                assert ref.Program(at_lam(prob, lam)).real


class TestEigenbasisSplit:
    """Each certified value of the split programs against the unsplit
    ``oracles.capped_ball_per_component``: every support component whole
    and in one block, its cap in its eigenbasis, and no fold."""

    @staticmethod
    def check_oracle_parity(pairs, eps):
        """The value of the direct sum of ``pairs`` against the oracle's."""
        prob = oracles.capped_ball_per_component(ref, *direct_sum(pairs), eps, None)
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
        # a complex sub-block of rank 2 (``complex_balls``' 3 x 3 pair)
        # beside the real 1 x 1 ones of a commuting component: the program
        # is Hermitian and every corner's imaginary parts are pinned.  The
        # complex classical-copy pairs, whose complex components are 2 x 2,
        # are real once cut, and pin no imaginary part
        rho, sigma, eps = complex_balls()[1]
        mixed = (
            scipy.linalg.block_diag(rho, np.diag([0.3, 0.2])) / 1.5,
            scipy.linalg.block_diag(sigma, np.diag([0.1, 0.4])) / 1.5,
            eps,
        )
        kinds_seen = []
        for rho, sigma, eps in [mixed, *classical_copy_pairs()]:
            prog = ref.Program(capped_ball(rho, sigma, eps))
            assert len(prog.prob.equalities) == corner_pins(rho, sigma, prog.real)
            blocks, _ = ref.plain(*ball(rho, sigma))
            kinds = {np.iscomplexobj(sigma) for _, sigma in blocks}
            assert prog.real == (True not in kinds)
            kinds_seen.append(kinds)
        assert kinds_seen == [{True, False}] + [{False}] * 8
        assert max(len(eigs) for eigs, _ in ref.plain(*ball(*mixed[:2]))[0]) == 2


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


def complex_balls() -> list:
    """Seeded complex (rho, sigma, eps): a random complex state of rank 1
    to 3 against a random complex density, of dimension 2 to 4,
    alone (no rho-free component, so no w) or beside a block where only
    sigma lives (s0 > 0, so w)."""
    rng = np.random.default_rng(71)
    out = []
    shapes = ((2, 1, False, 0.1), (3, 2, False, 0.05), (3, 1, True, 0.1), (4, 3, True, 0.2))
    for d, rank, free, eps in shapes:
        rho, sigma = oracles.random_density(rng, d, rank), oracles.random_density(rng, d)
        if free:
            rho = scipy.linalg.block_diag(rho, np.zeros((2, 2)))
            sigma = scipy.linalg.block_diag(sigma, oracles.random_density(rng, 2)) / 2
        out.append((rho, sigma, eps))
    return out


def test_every_bundled_value_is_certified_within_1e_5_bits(monkeypatch):
    # the thresholds and the theta 0.25, 0.5 and 0.75 regions of every
    # bundled instance: each certified interval [lower, v], closed-form
    # (widths up to 1e-12 bits) or interior-point (up to 1.4e-6), is at
    # most 1e-5 bits wide, its lower end at or below v; a value that
    # repeats another's bytes in its call is certified once
    widths, certified_value = [], ent._certified_value

    def recording(ball, res):
        value = certified_value(ball, res)
        lower = math.log2(sdp.lower_bound(ball, res.dual))
        widths.append((res.status == "closedForm", value - lower))
        return value

    monkeypatch.setattr(ent, "_certified_value", recording)
    for name in io.BUNDLED:
        prep = P.prepare(io.load_bundled(name))
        P.thresholds(prep, 0.1)
        P.one_shot_region(prep, 0.1, theta_grid=(0.25, 0.5, 0.75))
    assert collections.Counter(closed for closed, _ in widths) == {True: 40, False: 41}
    assert all(0.0 <= width <= 1e-5 for _, width in widths)


def test_every_value_takes_one_certificate_path(monkeypatch):
    # the thresholds and the theta 0.5 region of every bundled instance:
    # each distinct I_max^eps value of a call (its pairs' shapes, dtypes and
    # bytes), closed-form or interior-point, is certified once by
    # ``_certified_value``, which reads its dual as given
    # (``sdp.lower_bound(ball, dual)``, with two arguments); the repeats are
    # trivial's two equal thresholds and instrument_derived's Y cell, whose
    # three values are its X cell's
    asked, distinct, certified, bounded = [], [], [], []
    many, certified_value, lower_bound = ent._d_max_smooth_many, ent._certified_value, sdp.lower_bound

    def counting(values, eps):
        asked.append(len(values))
        keys = {tuple((m.shape, m.dtype.str, m.tobytes()) for p in ps for m in p) for ps in values}
        distinct.append(len(keys))
        return many(values, eps)

    def recording(value, res):
        certified.append((value, res.status))
        return certified_value(value, res)

    def bounding(*args, **kwargs):
        bounded.append((args[0], len(args), kwargs))
        return lower_bound(*args, **kwargs)

    monkeypatch.setattr(ent, "_d_max_smooth_many", counting)
    monkeypatch.setattr(ent, "_certified_value", recording)
    monkeypatch.setattr(sdp, "lower_bound", bounding)
    for name in io.BUNDLED:
        prep = P.prepare(io.load_bundled(name))
        P.thresholds(prep, 0.1)
        P.one_shot_region(prep, 0.1, theta_grid=(0.5,))
    assert len(certified) == sum(distinct) == len({id(value) for value, _ in certified})
    assert (sum(distinct), sum(asked)) == (35, 39)
    assert [(id(value), 2, {}) for value, _ in certified] == [
        (id(value), n, kwargs) for value, n, kwargs in bounded
    ]
    assert collections.Counter(status for _, status in certified) == {"closedForm": 18, "optimal": 17}


def support_posed(value) -> bool:
    """Whether a sub-block of ``value`` has r < d, so that the library's
    pose on supp(rho_b) differs from Watrous's (r + d) block."""
    return any(r < d for r, d, *_ in sdp._groups(value))


def assert_poses_agree(value, res, eps) -> None:
    """The library's solve ``res`` of ``value`` against the reference's
    solve of Watrous's (r + d) pose, the oracle of its values: both
    certified, each interval [lower, v] at most BISECT_TOL_BITS wide, and
    each v at or above the other pose's lower end taken over the points
    within v's own point's recheck residuals
    (``oracles.lower_end_from_expressions`` with ``within``, and
    ``oracles.norm_within``).  A v is the t of a point that passes its
    recheck within sdp.FEASIBLE_TOL, not exactly, so it can sit below the
    other pose's plain lower end: by up to 2.7e-7 bits on
    ``TestBlockForm.rank_deficient_balls``.  The library's point is lifted
    to the (r + d) pose at its t (``oracles.lifted_to_full_pose``), the
    reference's taken to the library's (``truncated_to_support_pose``), and
    each is rechecked there."""
    plain = ref.plain(value.eigs, value.sigma, value.free_mass)
    full, support = ref.capped_ball(plain, eps), ref.capped_ball(plain, eps, on_support=True)
    (want,) = ref.minimize_many([full])
    assert want.status == "optimal"
    top = math.log2(float(want.assignment["t"][0, 0].real))
    v = ent._certified_value(value, res)
    lower = math.log2(sdp.lower_bound(value, res.dual))
    full_lower = oracles.lower_end_from_expressions(full, want.dual, oracles.norm_within(value))
    assert 0.0 <= v - lower <= ent.BISECT_TOL_BITS and 0.0 <= top - full_lower <= ent.BISECT_TOL_BITS
    near = ref._recheck(full, oracles.lifted_to_full_pose(ref, value, res.point))
    norm = oracles.norm_within(value, near)
    assert oracles.lower_end_from_expressions(full, want.dual, norm, near) <= v
    near = ref._recheck(support, oracles.truncated_to_support_pose(ref, value, want.assignment))
    norm = oracles.norm_within(value, near)
    assert oracles.lower_end_from_expressions(support, ref.slack_of(value, res.dual), norm, near) <= top


def assert_agrees_with_the_uncut_pose(pairs, value, res, eps) -> None:
    """The library's solve ``res`` of ``value``, the cut of ``pairs``, each
    one support component whose sigma has a kernel and makes one (r, d')
    sub-block, against the reference's solve of Watrous's (r + d) pose of
    the uncut pairs: one (r, d) sub-block per pair, in its rho's
    eigenbasis U (``oracles.ball_blocks_reference`` before the cut).  As
    in ``assert_poses_agree``, both are certified and each v is at or
    above the other program's lower end over the points within the
    recheck residuals of v's own point.  A point moves between the two by
    its rho' alone: the library's rho'_b goes to B rho'_b B^H in the
    pair's basis, B the cut sub-block's orthonormal basis (sigma's kept
    eigenvectors V times the cut rho's eigenbasis), and to U^H (.) U; the
    reference's the other way, B^H U rho' U^H B, which drops the part off
    supp(sigma) that its cap allows within its residuals.  Z is rebuilt
    from rho' (``oracles.lifted_to_full_pose``), and truncated to the
    library's pose (``oracles.truncated_to_support_pose``)."""
    (group,) = sdp._groups(value)
    bases, uncut = [], []
    for rho, sigma in pairs:
        w, v = np.linalg.eigh(sigma)
        v = v[:, w > 1e-12][:, ::-1]
        bases.append(v @ np.linalg.eigh(v.conj().T @ rho @ v)[1][:, ::-1])
        lam, u = np.linalg.eigh(rho)
        u = u[:, ::-1]
        uncut.append((lam[::-1][: group[0]], u.conj().T @ sigma @ u, u))
    assert all(
        np.allclose(b.conj().T @ s @ b, sb, atol=1e-14)
        for b, (_, s), sb in zip(bases, pairs, value.sigma[0])
    )
    lams, sigmas, us = (np.stack(part) for part in zip(*uncut))
    full_ball = sdp.Ball([lams], [sigmas], 0.0, value.fidelity)
    full = ref.capped_ball(ref.plain(full_ball.eigs, full_ball.sigma, 0.0), eps)
    support = ref.capped_ball(ref.plain(value.eigs, value.sigma, 0.0), eps, on_support=True)
    (want,) = ref.minimize_many([full])
    assert want.status == "optimal"
    t_ref = float(want.assignment["t"][0, 0].real)
    v = ent._certified_value(value, res)
    lower = math.log2(sdp.lower_bound(value, res.dual))
    full_lower = oracles.lower_end_from_expressions(full, want.dual, oracles.norm_within(full_ball))
    top = math.log2(t_ref)
    assert 0.0 <= v - lower <= ent.BISECT_TOL_BITS
    assert 0.0 <= top - full_lower <= ent.BISECT_TOL_BITS
    r = group[0]
    mine = [u.conj().T @ b @ m @ b.conj().T @ u for b, u, m in zip(bases, us, res.point.rho[0])]
    point = sdp.BallPoint(res.point.t, 0.0, [None], [np.stack(mine)])
    near = ref._recheck(full, oracles.lifted_to_full_pose(ref, full_ball, point))
    norm = oracles.norm_within(full_ball, near)
    assert oracles.lower_end_from_expressions(full, want.dual, norm, near) <= v
    theirs = [
        b.conj().T @ u @ want.assignment[f"ball{i}"][r:, r:] @ u.conj().T @ b
        for i, (b, u) in enumerate(zip(bases, us))
    ]
    point = sdp.BallPoint(t_ref, 0.0, [None], [np.stack(theirs)])
    lifted = oracles.lifted_to_full_pose(ref, value, point)
    near = ref._recheck(support, oracles.truncated_to_support_pose(ref, value, lifted))
    norm = oracles.norm_within(value, near)
    slack = ref.slack_of(value, res.dual)
    assert oracles.lower_end_from_expressions(support, slack, norm, near) <= top


class TestBlockForm:
    """``sdp.minimize_balls`` and its block-form certificates against the
    reference's generic solve of the same program (``sdp_reference``)."""

    @staticmethod
    def reference_top(ball, eps, on_support: bool = False) -> tuple:
        """The reference program of ``ball`` (``on_support``: in the
        library's pose) and log2 of its solve's t."""
        prob = ref.capped_ball(ref.plain(ball.eigs, ball.sigma, ball.free_mass), eps, on_support)
        (want,) = ref.minimize_many([prob])
        assert want.status == "optimal"
        return prob, want, math.log2(float(want.assignment["t"][0, 0].real))

    @classmethod
    def check(cls, ball, eps) -> None:
        (res,) = sdp.minimize_balls([ball])
        value = ent._certified_value(ball, res)
        _, want, top = cls.reference_top(ball, eps, on_support=True)
        # the certified interval [lower, v] holds the reference's min t of
        # the same pose; the two solves take the same iteration, so the
        # values differ by round-off (at most 8.4e-14 bits on the bundled
        # values), which may put the block form's just above top
        lower = math.log2(sdp.lower_bound(ball, res.dual))
        assert lower <= top <= value + 1e-12
        assert res.iterations == want.iterations
        # in the support pose, against the (r + d) pose, the oracle of the
        # value
        if support_posed(ball):
            assert_poses_agree(ball, res, eps)
        # the block-form recheck of the point at 2^v and lower end of the
        # dual are the reference's recheck of the same point and
        # lower end of the same dual, from the expressions of its own compile
        got = ends(ball, res)
        oracle, want_lower = oracles.ball_certificates(ref, ball, res, eps)
        for key in ("primal", "gap"):
            assert got[key] == pytest.approx(oracle[key], rel=1e-9, abs=1e-15)
        assert lower == pytest.approx(want_lower, abs=1e-9)
        assert sdp.within_tolerance(got) and value - lower <= 1e-5

    def test_bundled_interior_point_values(self, smoothed_cq_states):
        subs = [ent._ball_blocks(ent._cq_pairs(cq)) for cq in smoothed_cq_states]
        solved = [sdp.Ball(*sub, math.sqrt(1 - 0.1**2)) for sub in subs if not is_classical(sub)]
        assert len(solved) == 19
        for value in solved:
            self.check(value, 0.1)

    def test_seeded_complex_sigma_with_and_without_w(self):
        # the 2 x 2 pair is real once cut (in sigma's eigenbasis the rank-1
        # rho's eigenbasis is real up to phases that the diagonal sigma
        # ignores); the three of dimension 3 and more stay complex
        kinds, fields = set(), []
        for rho, sigma, eps in complex_balls():
            value = sdp.Ball(*ball(rho, sigma), math.sqrt(1 - eps * eps))
            fields.append(any(np.iscomplexobj(sigma) for sigma in value.sigma))
            kinds.add(value.free_mass > 0.0)
            self.check(value, eps)
        assert kinds == {False, True} and fields == [False, True, True, True]

    @staticmethod
    def seeded_random_balls() -> list:
        """12 balls of random complex pairs of dimension 2 to 4 and every
        rank of rho, at eps 0.1."""
        rng = np.random.default_rng(83)
        out = []
        for _ in range(12):
            d = int(rng.integers(2, 5))
            rho = oracles.random_density(rng, d, rank=int(rng.integers(1, d + 1)))
            out.append(sdp.Ball(*ball(rho, oracles.random_density(rng, d)), math.sqrt(1 - 0.1**2)))
        return out

    def test_seeded_random_pairs(self):
        # log2 t_low <= the reference's min t <= v on each
        for value in self.seeded_random_balls():
            self.check(value, 0.1)

    @pytest.mark.parametrize("eps", [0.1, 0.01])
    def test_bundled_support_poses_agree_with_the_full_pose(self, smoothed_cq_states, eps):
        # every bundled value with a sub-block posed on its support
        # (qubit_cq's and qubit_entangled_side_info's Y values), solved in
        # one batch as the library solves them, against the (r + d) pose
        subs = [ent._ball_blocks(ent._cq_pairs(cq)) for cq in smoothed_cq_states]
        balls = [sdp.Ball(*sub, math.sqrt(1 - eps**2)) for sub in subs]
        split = [b for b in balls if support_posed(b)]
        assert len(split) == 10
        for value, res in zip(split, sdp.minimize_balls(split)):
            assert_poses_agree(value, res, eps)

    @staticmethod
    def rank_deficient_balls() -> list:
        """12 balls of random pairs of dimension 2 to 4 whose rho has a rank
        below d, six real and six complex, at eps 0.1."""
        rng = np.random.default_rng(97)
        out = []
        for real in (True, False) * 6:
            d = int(rng.integers(2, 5))
            shape = (d, int(rng.integers(1, d)))
            g = rng.normal(size=shape) + (0.0 if real else 1j * rng.normal(size=shape))
            rho = g @ g.conj().T
            sigma = oracles.random_density(rng, d)
            if real:
                sigma = sigma.real
            out.append(sdp.Ball(*ball(rho / np.trace(rho).real, sigma), math.sqrt(1 - 0.1**2)))
        return out

    def test_seeded_rank_deficient_balls(self):
        # each has a sub-block with r < d, whose G_b is posed on supp(rho_b)
        # beside its own rho'_b block; it meets both reference poses
        # (``check``), real and complex
        fields = set()
        for value in self.rank_deficient_balls():
            assert any(r < d for r, d, *_ in sdp._groups(value))
            fields.update(real for *_, real, _ in sdp._groups(value))
            self.check(value, 0.1)
        assert fields == {False, True}

    def test_sub_blocks_much_wider_than_their_rank(self):
        # pairs of rank-1 rho under a sigma of rank 2 in dimension d
        # (``oracles.shared_support_pairs``), whose uncut (1, d) sub-blocks
        # the support pose did not certify on rng 6 (twelve (1, 4), ended
        # "maxIterations" after 19 steps): the cut makes one (1, 2)
        # sub-block of each pair, whose solve ends optimal and agrees with
        # the reference's (r + d) pose of the uncut pairs
        for seed, n, d, k in ((3, 4, 6, 2), (4, 3, 5, 2), (6, 12, 4, 2)):
            pairs = oracles.shared_support_pairs(np.random.default_rng(seed), n, d, k)
            value = sdp.Ball(*ent._ball_blocks(pairs), math.sqrt(1 - 0.1**2))
            assert sdp._groups(value) == ((1, 2, True, n),) and value.free_mass == 0.0
            (res,) = sdp.minimize_balls([value])
            assert res.status == "optimal"
            assert_agrees_with_the_uncut_pose(pairs, value, res, 0.1)

    def test_a_dual_shifted_off_the_cone_keeps_its_lower_end_below_the_value(self):
        # the first W_b, P_b (in the support pose) and V_b of each solve's dual
        # shifted by -delta I: read as they are, their negative eigenvalues
        # are charged against bounds on the traces of G_b, rho'_b and C_b, so
        # the lower end stays at or below the reference's min t of the same
        # pose and the value; left uncharged, the shift would raise the dual
        # objective and lower held
        shifted = 0
        for value in self.seeded_random_balls():
            (res,) = sdp.minimize_balls([value])
            top = self.reference_top(value, 0.1, on_support=True)[2]
            top = min(top, ent._certified_value(value, res))
            for delta in (1e-9, 1e-3):
                dual = copy.deepcopy(res.dual)
                for m in (dual.g[0], dual.psd[0], dual.cap[0]):
                    if m is not None:
                        m[0] -= delta * np.eye(m.shape[-1])
                shifted += dual.psd[0] is not None
                t_low = sdp.lower_bound(value, dual)
                assert t_low == 0.0 or math.log2(t_low) <= top, delta
        assert shifted > 0

    def test_a_solve_cut_off_early(self, monkeypatch):
        # after 3 steps the dual is far from optimal: its lower end still
        # lies at or below the reference's min t, and the value either
        # certifies or raises naming both ends
        monkeypatch.setattr(sdp, "IPM_MAX_ITER", 3)
        rng = np.random.default_rng(89)
        raised = 0
        for _ in range(6):
            d = int(rng.integers(2, 5))
            rho = oracles.random_density(rng, d, rank=int(rng.integers(1, d + 1)))
            value = sdp.Ball(*ball(rho, oracles.random_density(rng, d)), math.sqrt(1 - 0.1**2))
            (res,) = sdp.minimize_balls([value])
            assert res.iterations == 3
            t_low = sdp.lower_bound(value, res.dual)
            # the reference keeps its own step limit
            top = self.reference_top(value, 0.1)[2]
            assert t_low == 0.0 or math.log2(t_low) <= top
            try:
                ent._certified_value(value, res)
            except ent.SolverError as err:
                assert re.search(r"in \[\S+, \S+\] not certified", str(err))
                raised += 1
        assert raised == 6

    def test_a_dual_off_optimal_keeps_its_lower_end_below_the_value(self):
        # the fidelity row's weight raised by 1% to 50% is still a cone
        # element, but its residual on Re Z_00 grows: for this pure rho,
        # <r, x> at the optimum is sqrt2 c |r| > |r|, so only a norm bound
        # of at least sqrt2 c (X = sqrt 3) keeps the lower end below the
        # reference's min t
        rho, sigma = np.diag([1.0, 0.0]), np.array([[0.5, 0.2], [0.2, 0.5]])
        value = sdp.Ball(*ball(rho, sigma), math.sqrt(1 - 0.1**2))
        assert sdp._groups(value) == ((1, 2, True, 1),)
        (res,) = sdp.minimize_balls([value])
        top = self.reference_top(value, 0.1)[2]
        dual = res.dual
        assert math.log2(sdp.lower_bound(value, dual)) <= top
        for factor in (1.01, 1.1, 1.5):
            t_low = sdp.lower_bound(value, dataclasses.replace(dual, fid=factor * dual.fid))
            assert t_low == 0.0 or math.log2(t_low) <= top


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
        # a weighted block with eigenvalue -5e-8, which a derived state may
        # hold (its blocks get no eigenvalue check), fails the dense
        # matrix's check and the blocks' (smoothed or in the Holevo quantity)
        blocks = 0.5 * np.stack([np.diag([1.0 + 1e-7, -1e-7]), np.eye(2) / 2]).astype(complex)
        cq = qo.CQState.derived(("0", "1"), blocks)
        assert np.linalg.eigvalsh(cq.blocks[0])[0] == pytest.approx(-5e-8)
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
            cq = qo.CQState(symbols, weights[:, None, None] * np.stack(blocks))
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
            fixtures.append(qo.CQState(("0", "1"), np.stack([p * b0, (1 - p) * b1])))
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
