import math

import numpy as np
import pytest

from povmcomp import entropies as ent, linalg as la, qobjects as qo

import oracles


def dist(*probs, names=None):
    names = names or tuple(str(i) for i in range(len(probs)))
    return qo.Distribution(tuple(names), np.array(probs))


class TestHmax:
    def test_uniform_eps0(self):
        sol = ent.h_max_smooth(dist(0.25, 0.25, 0.25, 0.25), 0.0)
        assert np.isclose(sol.value, 2.0)

    def test_spec_example(self):
        sol = ent.h_max_smooth(dist(0.5, 0.3, 0.15, 0.05), 0.05)
        assert np.isclose(sol.value, math.log2(3), atol=1e-12)
        assert np.isclose(sol.lam["3"], 0.0)

    def test_eps0_support_size(self):
        sol = ent.h_max_smooth(dist(0.9, 0.0999, 0.0001), 0.0)
        assert np.isclose(sol.value, math.log2(3))

    def test_matches_lp_oracle(self):
        rng = np.random.default_rng(0)
        for trial in range(200):
            n = int(rng.integers(2, 13))
            p = rng.dirichlet(np.ones(n) * rng.uniform(0.3, 3.0))
            eps = [0.0, 0.05, 0.1][trial % 3]
            sol = ent.h_max_smooth(dist(*p), eps)
            assert abs(sol.value - oracles.hmax_lp_oracle(p, eps)) < 1e-9

    def test_monotone_in_eps(self):
        rng = np.random.default_rng(1)
        p = rng.dirichlet(np.ones(6))
        vals = [ent.h_max_smooth(dist(*p), e).value for e in (0.0, 0.02, 0.1, 0.3)]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_constraint_tight(self):
        p = dist(0.5, 0.3, 0.15, 0.05)
        sol = ent.h_max_smooth(p, 0.07)
        used = sum(p.prob(s) * sol.lam[s] for s in p.alphabet)
        assert np.isclose(used, 1 - 0.07, atol=1e-12)
        inner = [s for s in p.alphabet if 1e-12 < sol.lam[s] < 1 - 1e-12]
        assert len(inner) <= 1

    def test_subdistribution_l1(self):
        p = dist(0.5, 0.3, 0.15, 0.05)
        sol = ent.h_max_smooth(p, 0.07)
        l1 = sum(abs(p.prob(s) - sol.subdistribution.get(s, 0.0)) for s in p.alphabet)
        assert l1 <= 0.07 + 1e-12

    def test_eps_out_of_range(self):
        with pytest.raises(ValueError):
            ent.h_max_smooth(dist(1.0), 1.0)

    def test_atoms_with_multiplicity(self):
        # 8 atoms of 1/8 equals one atom with multiplicity 8
        v1, _ = ent.smooth_max_entropy_atoms([(0.125, 8.0)], 0.1)
        v2 = ent.h_max_smooth(dist(*([0.125] * 8)), 0.1).value
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
        avg = cq.average_block()
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

    def test_weighted_matches_cq(self):
        rng = np.random.default_rng(12)
        for n in (2, 3):
            symbols = tuple(str(i) for i in range(n))
            p = rng.dirichlet(np.ones(n))
            blocks = [oracles.random_density(rng, 2) for _ in symbols]
            cq = qo.CQState(symbols, dict(zip(symbols, p)), dict(zip(symbols, blocks)))
            for eps in (0.05, 0.2):
                v_cq, t_cq = ent.i_hyp_cq(cq, eps)
                v_w, t_w = ent.i_hyp_weighted_cq(list(symbols), list(p), blocks, eps)
                assert abs(v_w - v_cq) <= 1e-12
                assert abs(t_w.achieved_beta - t_cq.achieved_beta) <= 1e-12
                assert set(t_w.per_symbol) == set(symbols)
                for s in symbols:
                    assert np.max(np.abs(t_w.per_symbol[s] - t_cq.per_symbol[s])) <= 1e-12

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


class TestVonNeumann:
    def test_max_mixed(self):
        assert np.isclose(ent.entropy(np.eye(2) / 2), 1.0)

    def test_relative_self(self):
        rng = np.random.default_rng(16)
        rho = oracles.random_density(rng, 3)
        assert abs(ent.relative_entropy(rho, rho)) < 1e-10

    def test_bell_mutual_information(self):
        v = np.zeros(4, dtype=complex)
        v[0] = v[3] = 1 / np.sqrt(2)
        suite = ent.von_neumann_suite(np.outer(v, v.conj()), (2, 2))
        assert np.isclose(suite["I_AB"], 2.0, atol=1e-10)
        assert np.isclose(suite["H_A"], 1.0, atol=1e-10)


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
            suite = ent.von_neumann_suite(cq.dense(), (2, 2))
            i_lim = suite["I_AB"]
            h_gaps, d_gaps = [], []
            for n in (1, 2, 3):
                pn = qo.distribution_power(dist_x, n)
                h_n = ent.h_max_smooth(pn, eps).value / n
                h_gaps.append(abs(h_n - h_lim))
                cqn = qo.cq_tensor_power(cq, n)
                d_n = ent.i_hyp_cq(cqn, eps)[0] / n
                d_gaps.append(abs(d_n - i_lim))
            assert all(b <= a + 1e-9 for a, b in zip(h_gaps, h_gaps[1:])), h_gaps
            assert all(b <= a + 1e-9 for a, b in zip(d_gaps, d_gaps[1:])), d_gaps
