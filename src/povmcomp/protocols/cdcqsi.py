"""Classical data compression with quantum side information.

Alice holds the classical register of a cq state, Bob the quantum part.
Alice sends a 2-universal hash of her symbol; Bob measures his register
sequentially through the bucket with the hypothesis-testing optimizer's
per-symbol tests, then applies the polar correction unitary of the decoded
branch.  A bucket with one candidate is decoded without a measurement: the
hash has already named the symbol, so Bob's register is left untouched.
The average decoding error and the output state are computed exactly (no
sampling) and averaged over hash draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .. import entropies as ent
from .. import linalg as la
from .. import qobjects as qo
from .compress import block_dict_distance
from .hashing import HashScheme, draw_hash

# a hash draw is redrawn, at most MAX_REDRAWS times, while a bucket holds more
# than 2^(I_H + BUCKET_SLACK_BITS) candidates
BUCKET_SLACK_BITS = 5
MAX_REDRAWS = 50


@dataclass
class SequentialDecoder:
    """Successive-cancellation decoder for one bucket of candidates.

    A one-candidate bucket needs no measurement: its candidate gets
    ``S_1 = I`` with an identity correction and ``failure_op = 0``, so it
    decodes with probability 1 and leaves the state as it was.
    """

    bucket_order: tuple[str, ...]
    tests: dict[str, np.ndarray]
    # S_j = Pi_j (I - Pi_{j-1}) ... (I - Pi_1); S_1 = I for a lone candidate
    sequential_ops: list[np.ndarray]
    correction_unitaries: list[np.ndarray]
    failure_op: np.ndarray  # sqrt(I - sum S^dag S)

    @staticmethod
    def build(bucket: list[str], tests: dict[str, np.ndarray]) -> "SequentialDecoder":
        dim = next(iter(tests.values())).shape[0]
        order = tuple(sorted(bucket))
        eye = np.eye(dim, dtype=complex)
        if len(order) == 1:
            # the hash alone identifies a lone candidate: no test is applied
            return SequentialDecoder(
                order, {s: tests[s] for s in order}, [eye], [eye], np.zeros_like(eye)
            )
        seq_ops = []
        tail = eye
        for sym in order:
            pi = tests[sym]
            seq_ops.append(pi @ tail)
            tail = (eye - pi) @ tail
        # corrections: left polar S = U sqrt(S^dag S); the decoded branch
        # applies U^dag to undo the measurement rotation
        corrections = [_polar_unitary(s) for s in seq_ops]
        residual = eye
        for s in seq_ops:
            residual = residual - s.conj().T @ s
        failure = la.matrix_sqrt(residual)
        return SequentialDecoder(order, {s: tests[s] for s in order}, seq_ops, corrections, failure)

    def decode_branches(self, rho: np.ndarray) -> list[tuple[str | None, float, np.ndarray]]:
        """(decoded symbol or None, probability, corrected post-state)."""
        out = []
        for sym, s, u in zip(self.bucket_order, self.sequential_ops, self.correction_unitaries):
            post = s @ rho @ s.conj().T
            p = float(np.trace(post).real)
            out.append((sym, p, u.conj().T @ post @ u))
        fail_post = self.failure_op @ rho @ self.failure_op.conj().T
        out.append((None, float(np.trace(fail_post).real), fail_post))
        return out


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
    decoders_last: dict[int, SequentialDecoder] = {}
    redraws = 0
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(11,)))
    for _ in range(hash_draws):
        for _attempt in range(MAX_REDRAWS):
            scheme = draw_hash(input_bits, rate, rng)
            buckets: dict[int, list[str]] = {}
            for i, sym in enumerate(supp):
                buckets.setdefault(scheme.apply(i), []).append(sym)
            if bucket_cap is None or all(len(b) <= bucket_cap for b in buckets.values()):
                break
            redraws += 1
        decoders = {m: SequentialDecoder.build(b, tests) for m, b in buckets.items()}
        decoders_last = decoders
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
            dec = decoders[scheme.apply(supp.index(x))]
            correct = 0.0
            for sym, p, post in dec.decode_branches(cq.blocks[x]):
                key = (x, sym if sym is not None else qo.ABORT)
                output[key] = output.get(key, 0.0) + px * post
                if sym == x:
                    correct += p
            err += px * (1.0 - correct)
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
        "decoders": decoders_last,
        "hash_redraws": redraws,
        "draws": hash_draws,
    }
