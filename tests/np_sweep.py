"""A seeded sweep of the Neyman-Pearson threshold search.

Draws block-diagonal pairs (rho, sigma) from ``default_rng(123)``, each
with d in [2, 5] and n in [1, 4] blocks; draw i is of kind i % 3:

- ``cq``: an ``i_hyp_cq`` pair, rho_b of random rank and weight p_b, and
  sigma_b = p_b sum_b rho_b;
- ``diagonal``: a commuting pair of diagonal blocks;
- ``singular``: general blocks with a rank-deficient sigma_b.

Each pair runs through ``entropies._np_test`` at every eps, and the sweep
counts the alpha_strict readings of each search (each ``_np_bisect``
call; the kernel and eps = 0 exits take none) and the values that fail
their certificate, keyed by the residual that failed.

Run from the repository root:

    PYTHONPATH=src python tests/np_sweep.py [draws]
"""

from __future__ import annotations

import sys
from collections import Counter

import numpy as np

import oracles
from povmcomp import entropies as ent

KINDS = ("cq", "diagonal", "singular")
EPS = (0.1, 0.01, 1e-3)


def draw(rng: np.random.Generator, i: int) -> tuple[list, list]:
    """Draw i's pair (rho blocks, sigma blocks), of kind ``KINDS[i % 3]``."""
    d, n = int(rng.integers(2, 6)), int(rng.integers(1, 5))
    p = rng.dirichlet(np.ones(n))
    kind = KINDS[i % 3]
    if kind == "cq":
        rho = [pb * oracles.random_density(rng, d, int(rng.integers(1, d + 1))) for pb in p]
        avg = sum(rho)
        return rho, [pb * avg for pb in p]
    q = rng.dirichlet(np.ones(n))
    if kind == "diagonal":
        rho = [pb * np.diag(rng.dirichlet(np.ones(d))) for pb in p]
        return rho, [qb * np.diag(rng.dirichlet(np.ones(d))) for qb in q]
    rho = [pb * oracles.random_density(rng, d) for pb in p]
    return rho, [qb * oracles.random_density(rng, d, int(rng.integers(1, d))) for qb in q]


def sweep(draws: int = 3000) -> dict:
    """Run the first ``draws`` draws at every eps: the reads of each search
    and the failures, each as (draw, kind, eps, failed residual, its value)."""
    reads, failures = [], []
    alpha_strict, bisect = ent._Blocks.alpha_strict, ent._np_bisect

    def counted_alpha(self, t):
        reads[-1] += 1
        return alpha_strict(self, t)

    def counted_bisect(blocks, target):
        reads.append(0)
        return bisect(blocks, target)

    rng = np.random.default_rng(123)
    ent._Blocks.alpha_strict, ent._np_bisect = counted_alpha, counted_bisect
    try:
        for i in range(draws):
            rho, sigma = draw(rng, i)
            for eps in EPS:
                try:
                    ent._np_test(rho, sigma, eps)
                except ent.SolverError as err:
                    key = max(err.residuals, key=err.residuals.get)
                    failures.append((i, KINDS[i % 3], eps, key, err.residuals[key]))
    finally:
        ent._Blocks.alpha_strict, ent._np_bisect = alpha_strict, bisect
    return {"reads": reads, "failures": failures}


def main(draws: int = 3000) -> None:
    out = sweep(draws)
    reads, failures = out["reads"], out["failures"]
    print(f"{draws} draws x {len(EPS)} eps: {len(reads)} searches")
    print(f"reads per search: mean {np.mean(reads):.3f}, max {max(reads)}")
    print(f"failures: {len(failures)}")
    for (kind, eps), count in sorted(Counter((f[1], f[2]) for f in failures).items()):
        print(f"  {kind} at eps {eps:g}: {count}")
    for i, kind, eps, key, value in failures:
        print(f"  draw {i} ({kind}), eps {eps:g}: {key} {value:.3g}")


if __name__ == "__main__":
    main(*(int(a) for a in sys.argv[1:2]))
