import types

import numpy as np
import pytest

from povmcomp import covering as cov, linalg as la, qobjects as qo

import oracles


def make_joint(seed=0, nx=2, ny=2, dim=2, product=False):
    """Random correlated cq state over X,Y with dim-dimensional E blocks."""
    rng = np.random.default_rng(seed)
    pxy = rng.dirichlet(np.ones(nx * ny)).reshape(nx, ny)
    if product:
        pxy = np.outer(pxy.sum(axis=1), pxy.sum(axis=0))
    symbols, blocks = [], []
    for i in range(nx):
        for j in range(ny):
            symbols.append(qo.join_symbol(str(i), str(j)))
            blocks.append(pxy[i, j] * oracles.random_density(rng, dim))
    return qo.CQState(tuple(symbols), np.stack(blocks))


def single_level(joint, log_k, log_l, trials, seed):
    """The one (logK, logL) row of ``covering_sweep``."""
    (row,) = cov.covering_sweep(joint, [log_k], [log_l], trials, seed)
    return row


class TestCoveringError:
    def test_product_ratio_one_gives_zero(self):
        # product P_XY with identical blocks: transformed average == sigma always
        rng = np.random.default_rng(5)
        block = oracles.random_density(rng, 2)
        joint = make_joint(seed=5, product=True)
        joint = qo.CQState(joint.symbols, joint.probs[:, None, None] * block)
        out = single_level(joint, 2, 2, 50, seed=1)
        assert out["meanError"] < 1e-12

    def test_single_symbols(self):
        rng = np.random.default_rng(6)
        joint = qo.CQState(("x|y",), oracles.random_density(rng, 2)[None])
        out = single_level(joint, 2, 2, 20, seed=2)
        assert out["meanError"] == 0.0

    def test_matches_exhaustive_enumeration(self):
        joint = make_joint(seed=7)
        pxy = joint.probs.reshape(2, 2)
        blocks = {}
        for sym, p, block in zip(joint.symbols, joint.probs, joint.blocks):
            x, y = qo.split_symbol(sym)
            blocks[(int(x), int(y))] = block / p
        exact = oracles.covering_enumeration_oracle(pxy, blocks, k=2, l=2)
        out = single_level(joint, 1, 1, 4000, seed=3)
        assert abs(out["meanError"] - exact) <= 3 * out["stderr"] + 1e-3

    def test_deterministic_under_seed(self):
        joint = make_joint(seed=8)
        a = single_level(joint, 3, 3, 30, seed=9)
        b = single_level(joint, 3, 3, 30, seed=9)
        assert a == b

    def test_sweep_monotone(self):
        joint = make_joint(seed=10)
        grid = [(i, i) for i in range(0, 13, 3)]
        rows = cov.covering_sweep(
            joint, [g[0] for g in grid], [g[1] for g in grid], trials=200, seed=11
        )
        means = [r["meanError"] for r in rows]
        assert all(b <= a + 1e-9 for a, b in zip(means, means[1:])), means
        assert means[-1] < 0.05

    def test_prefix_counts_marginal_law(self):
        # prefix counts must be distributed like direct multinomial draws
        rng = np.random.default_rng(12)
        p = np.array([0.5, 0.3, 0.2])
        tot_direct = np.zeros(3)
        tot_prefix = np.zeros(3)
        n_trials = 4000
        for _ in range(n_trials):
            full = rng.multinomial(64, p)
            tot_prefix += cov._prefix_counts(full, 16, rng)
            tot_direct += rng.multinomial(16, p)
        assert np.max(np.abs(tot_prefix - tot_direct)) / n_trials < 0.15


def good_set(parts, weights, target, eps):
    """The GOOD set of one row of ``cov.good_sets``, every part offered a
    slice: its indices, primed states, and eps, with prob_good (the GOOD
    weight) and op_slack (the least eigenvalue of
    (1 + eps^(1/4)) target - sum_{GOOD} w rho') computed from them."""
    present = np.ones((1, len(parts)), dtype=bool)
    good, primed = cov.good_sets(parts, [weights], present, la.density_eigh(target), [eps])
    weights = np.asarray(weights, dtype=float)
    bound = (1.0 + eps**0.25) * np.asarray(target) - np.einsum("n,nij->ij", weights, primed[0])
    return types.SimpleNamespace(
        good=np.flatnonzero(good[0]).tolist(),
        primed=primed[0],
        prob_good=float(np.where(good[0], weights, 0.0).sum()),
        op_slack=float(np.linalg.eigvalsh((bound + bound.conj().T) / 2)[0]),
        eps_used=eps,
    )


def transformed_good_set(sigmas, weights, target, eps):
    """``good_set`` of subnormalized pieces, normalized and reweighted by
    one row of ``cov.transformed_rows``."""
    parts, new_weights, eps2 = cov.transformed_rows(sigmas, [weights], [eps])
    return good_set(parts, new_weights[0], target, float(eps2[0]))


class TestGoodSet:
    def test_exact_average_all_good(self):
        rng = np.random.default_rng(13)
        parts = [oracles.random_density(rng, 2) for _ in range(3)]
        weights = [0.5, 0.3, 0.2]
        target = sum(w * p for w, p in zip(weights, parts))
        cert = good_set(parts, weights, target, eps=0.05)
        assert cert.good == [0, 1, 2]
        assert cert.prob_good > 1 - 1e-9
        assert cert.op_slack > -1e-9
        for i in cert.good:
            assert oracles.trace_norm_distance(cert.primed[i], parts[i]) < 1e-6

    def test_single_part(self):
        rng = np.random.default_rng(14)
        rho = oracles.random_density(rng, 3)
        cert = good_set([rho], [1.0], rho, eps=0.04)
        assert cert.good == [0]

    def test_random_mixture_with_slack(self):
        rng = np.random.default_rng(15)
        for trial in range(20):
            parts = [oracles.random_density(rng, 2) for _ in range(3)]
            weights = list(rng.dirichlet(np.ones(3)))
            avg = sum(w * p for w, p in zip(weights, parts))
            noise = oracles.random_density(rng, 2)
            target = 0.985 * avg + 0.015 * noise
            target = (target + target.conj().T) / 2
            target /= np.trace(target).real
            eps = 0.05
            assert oracles.trace_norm_distance(avg, target) <= eps
            cert = good_set(parts, weights, target, eps=eps)
            checks = oracles.verify_certificate(cert, parts, weights, target)
            assert all(checks.values()), (trial, checks)

    def test_hypothesis_violation_raises(self):
        with pytest.raises(ValueError):
            good_set(
                [np.diag([1.0, 0.0])], [1.0], np.diag([0.0, 1.0]).astype(complex), eps=0.1
            )

    def test_transformed_normalized_inputs_match_plain(self):
        rng = np.random.default_rng(16)
        parts = [oracles.random_density(rng, 2) for _ in range(3)]
        weights = [0.4, 0.4, 0.2]
        target = sum(w * p for w, p in zip(weights, parts))
        plain = good_set(parts, weights, target, eps=0.08)
        trans = transformed_good_set(parts, weights, target, eps=0.04)
        assert plain.good == trans.good

    def test_transformed_scaled_copies(self):
        rng = np.random.default_rng(17)
        target = oracles.random_density(rng, 2)
        sigmas = [0.5 * target, 1.5 * target, target]
        weights = [0.4, 0.2, 0.4]
        cert = transformed_good_set(sigmas, weights, target, eps=0.05)
        assert cert.good == [0, 1, 2]
        assert cert.op_slack > -1e-9

    def test_class_collapse_equivalence(self):
        # four atoms falling into two identical classes give the same GOOD
        # sets and primed states as the two-class weighted extraction
        rng = np.random.default_rng(18)
        c0 = oracles.random_density(rng, 2)
        c1 = oracles.random_density(rng, 2)
        atoms = [c0, c0, c1, c0]
        w_atoms = [0.2, 0.2, 0.3, 0.3]
        target = sum(w * p for w, p in zip(w_atoms, atoms))
        eps = 0.06
        atom_cert = good_set(atoms, w_atoms, target, eps)
        class_cert = good_set([c0, c1], [0.7, 0.3], target, eps)
        atom_classes = {0: 0, 1: 0, 2: 1, 3: 0}
        assert sorted({atom_classes[i] for i in atom_cert.good}) == sorted(class_cert.good)
        for i in atom_cert.good:
            ref = class_cert.primed[atom_classes[i]]
            assert oracles.trace_norm_distance(atom_cert.primed[i], ref) < 1e-8
