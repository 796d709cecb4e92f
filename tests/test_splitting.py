import itertools

import numpy as np

from povmcomp import io, qobjects as qo, splitting as sp
from povmcomp import protocols as P

import oracles


def dist(*probs):
    return qo.Distribution(tuple(str(i) for i in range(len(probs))), np.array(probs))


class TestSplit:
    def test_theta_zero_endpoint(self):
        p = dist(0.4, 0.35, 0.25)
        pair = sp.split(p, 0.0)
        assert np.allclose(pair.p_u.probs, p.probs)
        assert np.allclose(pair.p_v.probs, [1.0, 0.0, 0.0])

    def test_theta_one_endpoint(self):
        p = dist(0.4, 0.35, 0.25)
        pair = sp.split(p, 1.0)
        assert np.allclose(pair.p_v.probs, p.probs)
        assert np.allclose(pair.p_u.probs, [1.0, 0.0, 0.0])

    def test_uniform_bit_half(self):
        pair = sp.split(dist(0.5, 0.5), 0.5)
        root = np.sqrt(0.5)
        assert np.allclose(pair.p_u.probs, [root, 1 - root], atol=1e-12)
        assert np.allclose(pair.p_v.probs, [root, 1 - root], atol=1e-12)
        # exhaustive enumeration of the four (u, v) pairs
        law = np.zeros(2)
        for i, j in itertools.product(range(2), repeat=2):
            law[max(i, j)] += pair.p_u.probs[i] * pair.p_v.probs[j]
        assert np.allclose(law, [0.5, 0.5], atol=1e-12)

    def test_max_law_identity_over_grid(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            p = dist(*rng.dirichlet(np.ones(n)))
            for theta in np.linspace(0, 1, 11):
                pair = sp.split(p, theta)
                assert np.max(np.abs(sp.max_law(pair).probs - p.probs)) < 1e-12
                assert abs(pair.p_u.probs.sum() - 1) < 1e-12
                assert abs(pair.p_v.probs.sum() - 1) < 1e-12

    def test_entropy_handoff(self):
        # endpoints hand the entropy budget between U and V, and the pair
        # always carries at least H(X) since max(U, V) reconstructs X
        rng = np.random.default_rng(1)
        for _ in range(20):
            p = dist(*rng.dirichlet(np.ones(5)))
            hx = oracles.shannon_entropy(p.probs)
            for theta in np.linspace(0, 1, 11):
                pair = sp.split(p, theta)
                hu = oracles.shannon_entropy(pair.p_u.probs)
                hv = oracles.shannon_entropy(pair.p_v.probs)
                assert hu + hv >= hx - 1e-9
            assert abs(oracles.shannon_entropy(sp.split(p, 0.0).p_u.probs) - hx) < 1e-9
            assert abs(oracles.shannon_entropy(sp.split(p, 1.0).p_v.probs) - hx) < 1e-9
            assert oracles.shannon_entropy(sp.split(p, 0.0).p_v.probs) < 1e-9
            assert oracles.shannon_entropy(sp.split(p, 1.0).p_u.probs) < 1e-9

    def test_theta_out_of_range(self):
        import pytest

        with pytest.raises(ValueError):
            sp.split(dist(1.0), 1.5)


class TestSplitControl:
    """``split_control_state`` on the joint env cq state of a prepared
    instance: A, B qubits in a random state, a random 2 x 2 outcome POVM."""

    @staticmethod
    def make_instance(seed=0):
        rng = np.random.default_rng(seed)
        parts = oracles.random_povm(rng, 2, 4)
        elements = {
            ("0", "0"): parts[0], ("0", "1"): parts[1],
            ("1", "0"): parts[2], ("1", "1"): parts[3],
        }
        povm = qo.povm_from_elements(elements)
        rho = oracles.random_density(rng, 4)
        return P.prepare(io.Instance({"A": 2, "B": 2, "R": 1}, rho, povm))

    def test_theta_zero_isomorphic_to_unsplit(self):
        base = self.make_instance().env_cq()
        ctrl = sp.split_control_state(base, 0.0)
        # at theta = 0: v is pinned to the first symbol and u tracks x
        for sym in ctrl.symbols:
            u, v, y = qo.split_symbol(sym)
            assert v == "0"
            key = qo.join_symbol(u, y)
            assert abs(ctrl.weights[sym] - base.weights[key]) < 1e-12
            assert np.allclose(ctrl.blocks[sym], base.blocks[key])
        assert len(ctrl.symbols) == len(base.symbols)

    def test_single_outcome_povm(self):
        rng = np.random.default_rng(2)
        povm = qo.povm_from_elements({("x", "y"): np.eye(3, dtype=complex)})
        rho = oracles.random_density(rng, 3)
        prep = P.prepare(io.Instance({"A": 3, "B": 1, "R": 1}, rho, povm))
        ctrl = sp.split_control_state(prep.env_cq(), 0.7)
        assert ctrl.symbols == ("x|x|y",)
        # the identity steers the purification to rho_E itself
        psi = prep.global_pure.reshape(3, prep.dim_e)
        assert np.allclose(ctrl.blocks["x|x|y"], psi.T @ psi.conj())

    def test_max_y_marginal_reproduces_induced(self):
        prep = self.make_instance(seed=3)
        for theta in (0.3, 0.8):
            ctrl = sp.split_control_state(prep.env_cq(), theta)
            marg = {}
            for sym in ctrl.symbols:
                u, v, y = qo.split_symbol(sym)
                x = max(u, v)  # string order matches alphabet order here
                marg[qo.join_symbol(x, y)] = marg.get(qo.join_symbol(x, y), 0.0) + ctrl.weights[sym]
            for key, val in marg.items():
                assert abs(val - prep.joint.prob(key)) < 1e-10

    def test_total_mass_one(self):
        ctrl = sp.split_control_state(self.make_instance(seed=4).env_cq(), 0.5)
        mass = sum(
            ctrl.weights[s] * np.trace(ctrl.blocks[s]).real for s in ctrl.symbols
        )
        assert abs(mass - 1.0) < 1e-9
