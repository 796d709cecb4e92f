"""Classical data compression with quantum side information.

Alice holds the classical register of a cq state, Bob the quantum part.
Alice sends a 2-universal hash of her symbol; Bob measures his register
sequentially through the bucket with the hypothesis-testing optimizer's
per-symbol tests, then applies the polar correction unitary of the decoded
branch; ``sequential_kraus`` gives each branch's operator, and ``compose``
decodes its hash fibers with it too.  A bucket with one candidate is
decoded without a measurement: the hash has already named the symbol, so
Bob's register is left untouched.
The average decoding error and the output state are computed exactly (no
sampling) and averaged over hash draws.
"""

from __future__ import annotations

import math

import numpy as np

from .. import entropies as ent
from .. import linalg as la
from .. import qobjects as qo
from .compress import block_dict_distance
from .hashing import draw_hash

# a hash draw is redrawn, at most MAX_REDRAWS times, while a bucket holds more
# than 2^(I_H + BUCKET_SLACK_BITS) candidates
BUCKET_SLACK_BITS = 5
MAX_REDRAWS = 50


def sequential_kraus(tests) -> np.ndarray:
    """Kraus operators of successive-cancellation decoding through ``tests``.

    Candidate j, tested in the caller's order, decodes through
    K_j = U_j^dag S_j with S_j = Pi_j (I - Pi_{j-1}) ... (I - Pi_1) and U_j
    the left polar unitary of S_j = U_j sqrt(S_j^dag S_j): the decoded branch
    undoes the measurement's rotation.  The last operator is the failure
    branch sqrt(I - sum_j S_j^dag S_j).  A lone candidate needs no
    measurement, since the hash alone names it: it gets [I, 0], so it
    decodes with probability 1 and leaves the state as it was.

    ``tests`` is one test sequence, shape (L, d, d) or a list of L
    matrices, or a stack of sequences of one length, shape (..., L, d, d);
    the result has shape (..., L + 1, d, d), row by row the operators of
    the row's sequence.  A stack runs one matrix product chain, one stacked
    ``svd`` per candidate position and one stacked square root for the
    failure branch.
    """
    tests = np.asarray(tests, dtype=complex)
    n_cand, d = tests.shape[-3], tests.shape[-1]
    eye = np.eye(d, dtype=complex)
    kraus = np.zeros(tests.shape[:-3] + (n_cand + 1, d, d), dtype=complex)
    if n_cand == 1:
        kraus[..., 0, :, :] = eye
        return kraus
    tail = residual = np.broadcast_to(eye, tests.shape[:-3] + (d, d))
    for j in range(n_cand):
        pi = tests[..., j, :, :]
        s = pi @ tail
        tail = (eye - pi) @ tail
        residual = residual - _adjoint(s) @ s
        kraus[..., j, :, :] = _adjoint(_polar_unitary(s)) @ s
    kraus[..., n_cand, :, :] = la.matrix_sqrt_many(residual)
    return kraus


def _adjoint(ops: np.ndarray) -> np.ndarray:
    return ops.conj().swapaxes(-1, -2)


def _polar_unitary(s: np.ndarray) -> np.ndarray:
    u, _, vh = np.linalg.svd(s)
    return u @ vh


def cdc_qsi(
    cq: qo.CQState,
    eps: float,
    seed: int,
    hash_draws: int = 100,
    rate_override: int | None = None,
) -> dict:
    """Hash-based compression of the classical register against side info B.

    The rate is R = ceil(Hmax^eps - I_H^eps + log2(1/eps)) clamped to >= 0
    (zero when the surviving support is a single symbol).  Bob decodes with
    the per-symbol tests of I_H^eps.
    """
    dist = cq.classical_distribution()
    hmax = ent.h_max_smooth(dist, eps)
    supp = sorted(hmax.subdistribution)
    ihyp_val, test = ent.i_hyp_cq(cq, eps)
    tests = test.per_symbol
    if rate_override is not None:
        rate = max(0, int(rate_override))
    elif len(supp) <= 1:
        rate = 0
    elif math.isinf(ihyp_val):
        rate = 0
    else:
        rate = max(0, math.ceil(hmax.value - ihyp_val + math.log2(1.0 / eps) - 1e-9))
    input_bits = max(1, math.ceil(math.log2(max(len(supp), 2))))
    bucket_cap = None
    if not math.isinf(ihyp_val):
        bucket_cap = 2.0 ** (ihyp_val + BUCKET_SLACK_BITS)

    ideal: dict[tuple[str, str], np.ndarray] = {
        (x, x): dist.prob(x) * cq.blocks[x] for x in cq.symbols if dist.prob(x) > 0
    }
    per_draw_error = []
    mean_output: dict[tuple[str, str], np.ndarray] = {}
    redraws = 0
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(11,)))
    for _ in range(hash_draws):
        for _attempt in range(MAX_REDRAWS):
            scheme = draw_hash(input_bits, rate, rng)
            message = dict(zip(supp, scheme.apply_many(np.arange(len(supp))).tolist()))
            buckets: dict[int, list[str]] = {}
            for sym in supp:
                buckets.setdefault(message[sym], []).append(sym)
            if bucket_cap is None or all(len(b) <= bucket_cap for b in buckets.values()):
                break
            redraws += 1
        # supp is sorted, so each bucket tests its symbols in name order
        kraus = {m: sequential_kraus([tests[s] for s in b]) for m, b in buckets.items()}
        output: dict[tuple[str, str], np.ndarray] = {}
        err = 0.0
        for x in cq.symbols:
            px = dist.prob(x)
            if px <= 0:
                continue
            if x not in supp:
                err += px
                key = (x, qo.ABORT)
                output[key] = output.get(key, 0.0) + px * cq.blocks[x]
                continue
            m = message[x]
            for sym, op in zip(buckets[m] + [qo.ABORT], kraus[m]):
                post = op @ cq.blocks[x] @ op.conj().T
                output[(x, sym)] = output.get((x, sym), 0.0) + px * post
                if sym == x:
                    err += px * (1.0 - float(np.trace(post).real))
        per_draw_error.append(err)
        for key, op in output.items():
            mean_output[key] = mean_output.get(key, 0.0) + op / hash_draws
    distance = block_dict_distance(mean_output, ideal)
    avg_error = float(np.mean(per_draw_error))
    bound = math.sqrt(2 * eps) + eps
    eps_prime = 2.0 * math.sqrt(max(bound, 0.0)) + 2.0 * eps
    return {
        "rate": rate,
        "avg_error": avg_error,
        "per_draw_error": per_draw_error,
        "error_bound": bound,
        "output_blocks": mean_output,
        "distance": distance,
        "distance_bound": 2.0 * eps_prime,
        "support_size": len(supp),
        "hmax": hmax.value,
        "i_hyp": ihyp_val,
        "hash_redraws": redraws,
        "draws": hash_draws,
    }
