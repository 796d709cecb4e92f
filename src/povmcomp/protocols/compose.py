"""Composition with quantum side information and the centralised protocol.

Alice runs the compressed measurement once per seed; each link, one per
outcome register, carries its message index, or a 2-universal hash of it
when Bob's B register lets the link send fewer bits.  An unhashed link has
no tests or fiber table: Bob reads the class off the wire.  The unassisted
simulator is this protocol with no hashed link, so both share one output
accumulator.

A scenario is the set of links an adversary keeps.  Bob decodes them
sequentially on B in ``LINKS`` order, each on the state its predecessors
gently perturbed, sharing the decodes of common prefixes; a dropped link
counts each class by its multiplicity.
On a hashed link Bob, who shares the public coins, decodes through the
message's hash fiber, in ascending index order, with the per-(coin, class)
hypothesis tests of I_H(KL : K'B): classical data compression with quantum
side information, one ``sequential_kraus`` operator per decoded branch.
That I_H is taken on the link's composition state, one ``CQState`` over
(coin, class) with (K', B) blocks built by ``_link_state``, so a decode
depends only on the fiber's class sequence (its signature).  Each link's fibers are tabulated once and its
messages grouped by signature, with one decoder per (coin, signature): the
number of decoders and matrix products does not grow with 2^logL, only a
few array passes over the indices do.  Output states and deviations are
computed exactly by branch enumeration; only codebooks, hashes and
transcripts are sampled.  Nothing here steers: every E-operator is one a
compressed block carries or the prepared E marginal.

Decoder tests are evaluated at the protocol's own eps.  The point-to-point
composition adds the rate bookkeeping of the composition claim: the coin
register copy K' counts toward the decodable information, so the sendable
rate drops by the side-information term at the derived budget
eps0 = eps^(1/10).  The claim constrains rates, not which valid test family
the decoder uses, and tests at eps0 would be uselessly weak at desk-scale
eps.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .. import entropies as ent
from .. import linalg as la
from .. import qobjects as qo
from ..budget import OneShotBudget
from ..io import Instance
from .compress import (
    ABORT,
    SCENARIOS,
    AdversaryScenario,
    CompressedFamily,
    ProtocolError,
    build_compressed_povm,
    block_dict_distance,
    ideal_blocks,
    sample_transcript,
)
from .hashing import HashScheme, draw_hash, identity_hash
from .prep import LINKS, PreparedInstance, prepare, thresholds

# a hashed link tabulates its fibers and every index's class per coin, which
# takes memory linear in 2^logL
MAX_HASHED_LOG_L = 16


def _link_state(family: CompressedFamily, prep: PreparedInstance, i: int) -> qo.CQState:
    """Link i's composition state over (K, class) with (K', B) blocks.

    The weight of ``"k|class"`` is the class's index mass in coin k (its
    outcome probability averaged over the other links' coins, times its
    count), normalised over the non-abort mass; its block is the class's
    E-operator reduced to B, placed in coin slot k of a (K' B) register.
    """
    codebook = family.codebooks[i]
    coins = codebook.coins
    other_coins = math.prod(cb.coins for cb in family.codebooks) // coins
    env_lay, d_b = prep.env_layout(), prep.dim_b
    symbols, weights, blocks = [], {}, {}
    for k in range(coins):
        counts = dict(zip(codebook.alphabet, codebook.counts[k].tolist()))
        acc: dict[str, np.ndarray] = {}
        # blocks are held in coin order; a block's classes count > 0 on every link
        for blk in (b for key, b in family.blocks.items() if key[i] == k):
            for cls, env in blk.env.items():
                own = cls[i]
                other_mult = blk.counts[cls] // counts[own]
                acc.setdefault(own, np.zeros((prep.dim_e, prep.dim_e), dtype=complex))
                acc[own] += (1.0 / other_coins) * other_mult * env
        for sym, op in acc.items():
            tr = float(np.trace(op).real)
            p = tr * counts[sym] / coins
            if p <= 1e-14:
                continue
            side = np.zeros((coins * d_b, coins * d_b), dtype=complex)
            side[k * d_b : (k + 1) * d_b, k * d_b : (k + 1) * d_b] = la.partial_trace(
                op / tr, env_lay, ["B"]
            )
            s = qo.join_symbol(str(k), sym)
            symbols.append(s)
            weights[s] = p
            blocks[s] = side
    total = sum(weights.values())
    return qo.CQState(tuple(symbols), {s: w / total for s, w in weights.items()}, blocks)


@dataclass
class LinkStage:
    """What Bob needs to decode one link: its hash and, when it hashes, its tests.

    An unhashed link (``wire_bits == log_l``) carries the message index
    itself, through ``identity_hash``, and has no tests.
    """

    wire_bits: int
    log_l: int
    hash_scheme: HashScheme
    tests: dict[tuple[int, str], np.ndarray] | None  # on B, per (coin, class)


def _link_tests(state: qo.CQState, d_b: int, eps: float):
    """Per-(coin, class) hypothesis tests on B of I_H^eps(KL : K'B)."""
    _, test_obj = ent.i_hyp_cq(state, eps)
    tests = {}
    for s, op in test_obj.per_symbol.items():
        k_str, sym = qo.split_symbol(s)
        k = int(k_str)
        tests[(k, sym)] = op[k * d_b : (k + 1) * d_b, k * d_b : (k + 1) * d_b]
    return tests


def _link_stage(
    family: CompressedFamily,
    prep: PreparedInstance,
    i: int,
    budget: OneShotBudget,
    seed: int,
    wire_override: int | None,
) -> LinkStage:
    """Link i's stage; ``wire_override``, when not None, replaces its rate R."""
    log_l = family.plan.log_l[i]
    wire_bits, scheme, tests = log_l, identity_hash(log_l), None
    if prep.has_side_information() and log_l > 0:
        rate = budget.link_rates[i][0] if wire_override is None else wire_override
        wire_bits = min(int(round(rate)), log_l)
        if wire_bits < log_l:
            if log_l > MAX_HASHED_LOG_L:
                raise ProtocolError(
                    f"hashed decoding tabulates every index; logL={log_l} exceeds "
                    f"{MAX_HASHED_LOG_L} (pass a log_const override to shrink codebooks)"
                )
            rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(101 + i,)))
            scheme = draw_hash(log_l, wire_bits, rng)
            tests = _link_tests(_link_state(family, prep, i), prep.dim_b, budget.eps)
    return LinkStage(wire_bits, log_l, scheme, tests)


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


class _StageDecoder:
    """Decode branch operators of one link, built once per (coin, fiber signature).

    Bob's decoder for a wire message sees only the classes of the indices in
    its fiber, in the order ``sequential_kraus`` tests them (ascending
    index, as ``HashScheme.fibers`` lists them), because his tests are per
    (coin, class) of the link's state.  That class sequence is the fiber's
    signature; classes take contiguous index ranges, so it is nondecreasing
    and fixed by its class histogram.  The link's fibers come from one
    ``HashScheme.fibers`` table; per coin, ``_signatures`` numbers the
    distinct signatures in lexicographic order.  An affine hash's fibers
    share one size, so a coin's signatures stack into one
    (signatures, fiber size) array of test sequences, and one
    ``sequential_kraus`` call builds every signature's decoder.
    ``branches[k]`` holds them as a (signatures, fiber size + 1, D, D)
    stack on (B, tail), and ``symbols[k][s]`` names signature s's branches:
    its classes, then the abort symbol.
    Sequential decoding's error analysis holds for any fixed candidate
    order (Sen, arXiv:1109.0802).  ``counts[k][c, s]`` is how many indices
    of class c in coin k hash into a fiber of signature s, so a class
    decodes as a count-weighted sum over signatures, with no work per wire
    message.  An unhashed link tabulates nothing: each class is its own
    signature and decodes to itself with no measurement (``branches[k]``
    None, the identity).
    """

    def __init__(self, stage: LinkStage, codebook, d_tail: int):
        alphabet = codebook.alphabet
        if stage.wire_bits == stage.log_l:
            self.counts = [np.diag(row) for row in codebook.counts]
            self.branches = [None] * codebook.coins
            self.symbols = [[[sym] for sym in alphabet]] * codebook.coins
            return
        messages = codebook.messages
        fibers = stage.hash_scheme.fibers(messages)
        zero = np.zeros_like(next(iter(stage.tests.values())))
        self.counts, self.branches, self.symbols = [], [], []
        for k in range(codebook.coins):
            cls = np.searchsorted(codebook.offsets(k), np.arange(messages), side="right") - 1
            first, sig_of_fiber = _signatures(cls[fibers])
            sig_of_index = np.empty(messages, dtype=np.int64)
            sig_of_index[fibers] = sig_of_fiber.reshape(-1, 1)
            n_sig = len(first)
            counts = np.bincount(cls * n_sig + sig_of_index, minlength=len(alphabet) * n_sig)
            self.counts.append(counts.reshape(len(alphabet), n_sig))
            # a hash to fewer bits has a non-trivial kernel, so every fiber
            # holds at least two candidates
            sig_cls = cls[fibers[first]]
            tests = np.stack([stage.tests.get((k, sym), zero) for sym in alphabet])
            self.branches.append(_kron_eye(sequential_kraus(tests[sig_cls]), d_tail))
            self.symbols.append([[alphabet[c] for c in row] + [ABORT] for row in sig_cls])

    def apply(self, k: int, class_idx: int, op: np.ndarray) -> dict[str, np.ndarray]:
        """Decoded post-states of ``op`` summed over the indices of one class in coin k.

        One stacked congruence covers the branches of every signature the
        class reaches; the posts are summed signature by signature, each
        signature's branches in decoder order.
        """
        counts = self.counts[k][class_idx]
        live = np.flatnonzero(counts)
        branches = self.branches[k]
        if branches is None:
            posts = op[None, None]
        else:
            ops = branches[live]
            posts = ops @ op @ ops.conj().swapaxes(-1, -2)
        out: dict[str, np.ndarray] = {}
        for s, sig_posts in zip(live, counts[live, None, None, None] * posts):
            for sym, post in zip(self.symbols[k][s], sig_posts):
                out[sym] = out.get(sym, 0.0) + post
        return out


def _kron_eye(ops: np.ndarray, d_tail: int) -> np.ndarray:
    """``np.kron(op, I_d_tail)`` of every op of a (..., d, d) stack, by broadcasting."""
    d = ops.shape[-1]
    eye = np.eye(d_tail, dtype=complex)
    prod = ops[..., :, None, :, None] * eye[:, None, :]
    return prod.reshape(ops.shape[:-2] + (d * d_tail, d * d_tail))


def _signatures(fiber_cls: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first fiber of each signature, signature of each fiber) of class rows.

    A stable ``lexsort`` of the rows, column 0 the primary key, ranks them
    in lexicographic order with each signature's first fiber first, and
    adjacent rows that differ start a new signature.  Rows are compared
    column by column, never packed into one integer, which would overflow
    int64 for long fibers over many classes, and the keys are the rows
    themselves, so memory stays that of the class table.
    """
    n_fib = len(fiber_cls)
    order = np.lexsort(fiber_cls.T[::-1])
    ranked = fiber_cls[order]
    new = np.ones(n_fib, dtype=bool)
    new[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    sig_of_fiber = np.empty(n_fib, dtype=np.int64)
    sig_of_fiber[order] = np.cumsum(new) - 1
    return order[new], sig_of_fiber


def centralised_protocol(
    source: Instance | PreparedInstance,
    budget: OneShotBudget,
    seed: int,
    log_const: float | None = None,
    family: CompressedFamily | None = None,
    wire_override: dict[str, int] | None = None,
) -> dict:
    """One full protocol run: encode once, decode under every scenario.

    Each class of a coin block is decoded in ``LINKS`` order, each link's
    decoder run once on the posts of every set of earlier links; a scenario
    sums its kept links' posts times the class counts of the links it drops.
    Encoder aborts send the all-zeros message and decode to one abort symbol
    per kept link.  ``wire_override`` maps link names to wire widths.
    """
    prep = source if isinstance(source, PreparedInstance) else prepare(source)
    wire_override = wire_override or {}
    bad = {link: bits for link, bits in wire_override.items() if link not in LINKS or bits < 0}
    if bad:
        raise ValueError(f"wire_override {bad}: keys must be links {LINKS}, values nonnegative")
    if family is None:
        family = build_compressed_povm(prep, budget, seed, log_const)
    stages = [
        _link_stage(family, prep, i, budget, seed, wire_override.get(link))
        for i, link in enumerate(LINKS)
    ]
    d_tail = prep.dim_e // prep.dim_b
    decoders = [_StageDecoder(st, cb, d_tail) for st, cb in zip(stages, family.codebooks)]

    w_blk = 1.0 / math.prod(cb.coins for cb in family.codebooks)
    outputs: dict[AdversaryScenario, dict[str, np.ndarray]] = {sc: {} for sc in SCENARIOS}

    def add(sc: AdversaryScenario, symbols, op) -> None:
        key = qo.join_symbol(*symbols)
        outputs[sc][key] = outputs[sc].get(key, 0.0) + op

    for coins in itertools.product(*(range(cb.coins) for cb in family.codebooks)):
        blk = family.blocks.get(coins)
        abort_op = w_blk * (prep.rho_e if blk is None else blk.env0)
        for sc in SCENARIOS:
            add(sc, [ABORT] * len(sc.links), abort_op)
        if blk is None:
            continue
        for cls, sigma in blk.env.items():
            idx = [cb.alphabet.index(sym) for cb, sym in zip(family.codebooks, cls)]
            tot = [int(cb.counts[k][j]) for cb, k, j in zip(family.codebooks, coins, idx)]
            posts = {(): [((), sigma)]}
            for i, dec in enumerate(decoders):
                for links, branches in list(posts.items()):
                    posts[links + (i,)] = [
                        (symbols + (sym,), post)
                        for symbols, op in branches
                        for sym, post in dec.apply(coins[i], idx[i], op).items()
                    ]
            for sc in SCENARIOS:
                w = w_blk * math.prod(t for i, t in enumerate(tot) if i not in sc.links)
                for symbols, post in posts[sc.links]:
                    add(sc, symbols, w * post)

    results = {
        sc.name: {"deviation": block_dict_distance(out, ideal_blocks(prep, sc)), "output": out}
        for sc, out in outputs.items()
    }

    # link i's wire message is ``m<name>`` (``mx``), its wire width ``wire_<name>``
    transcript = sample_transcript(family, prep, seed)
    for i, (link, stage) in enumerate(zip(LINKS, stages)):
        index, name = transcript[f"l{i + 1}"], link.lower()
        transcript[f"m{name}"] = 0 if transcript["abort"] else stage.hash_scheme.apply(index)
        transcript[f"wire_{name}"] = stage.wire_bits

    return {
        "family": family,
        "scenarios": results,
        "transcript": transcript,
        "stage_x": stages[0],
        "stage_y": stages[1],
        "eps0": budget.eps0,
        "fraction_nice": family.fraction_nice,
    }


def simulate_unassisted(
    prep: PreparedInstance,
    budget: OneShotBudget,
    seed: int,
    scenario: AdversaryScenario | None = None,
    family: CompressedFamily | None = None,
    log_const: float | None = None,
) -> dict:
    """The centralised protocol with no hashed link, under ``scenario`` or all three.

    Every wire carries its whole message index, so the output is the
    compressed measurement's exact coin-averaged output; the seed picks
    codebooks and the sampled transcript trajectory.
    """
    if family is None:
        family = build_compressed_povm(prep, budget, seed, log_const)
    wire = dict(zip(LINKS, family.plan.log_l))
    run = centralised_protocol(prep, budget, seed, family=family, wire_override=wire)
    if scenario is not None:
        run["scenarios"] = {scenario.name: run["scenarios"][scenario.name]}
    return run


def _marginal_instance(inst: Instance) -> Instance:
    """Point-to-point view: collapse the POVM's Y outcome."""
    elements = {}
    for x in inst.povm.alphabet_x:
        elements[(x, "_")] = inst.povm.marginal_x_element(x)
    povm = qo.JointPOVM(inst.povm.alphabet_x, ("_",), elements)
    return Instance(inst.dims, inst.state, povm)


def compose_with_side_information(
    inst: Instance,
    budget: OneShotBudget,
    seed: int,
    log_const: float | None = None,
) -> dict:
    """Point-to-point measurement compression composed with CDC-QSI.

    Reports the composition's net X rate, the realized hash rate of the
    actual decode, the exact protocol deviation on the X link, and the
    composition check I_H^{eps0}(KL:K'B) - log2 K - I_H^{eps0/2}(X:B),
    which the claim lower-bounds by -1.
    """
    marg = _marginal_instance(inst)
    prep = prepare(marg)
    run = centralised_protocol(prep, budget, seed, log_const=log_const)
    stage, family, eps0 = run["stage_x"], run["family"], budget.eps0
    plan, codebook = family.plan, family.codebooks[0]
    th = thresholds(prep, budget.eps, plan.log_const)
    state = _link_state(family, prep, 0)
    atoms = []
    for s in state.symbols:
        k, sym = qo.split_symbol(s)
        m = int(codebook.counts[int(k)][codebook.alphabet.index(sym)])
        atoms.append((state.weights[s] / m, float(m)))
    hmax_kl = ent.smooth_max_entropy_atoms(atoms, eps0)
    ihyp_kl = math.inf
    if prep.has_side_information():
        ihyp_kl, _ = ent.i_hyp_cq(state, eps0)
    realized, check = 0, math.inf
    if not math.isinf(ihyp_kl):
        realized = max(
            0, min(stage.log_l, math.ceil(hmax_kl - ihyp_kl + math.log2(1.0 / eps0) - 1e-9))
        )
        # I_H^(eps0/2)(X : B), which thresholds computed at the same eps0
        check = ihyp_kl - plan.log_k[0] - th["ih_x_b"]
    return {
        "net_rate_x": th["imax_x"] - th["ih_x_b"] + th["log_const"] + 1.0,
        "realized_rate": realized,
        "wire_bits": stage.wire_bits,
        "deviation": run["scenarios"]["x_only"]["deviation"],
        "composition_check": check,
        "eps0": eps0,
        "hmax_kl": hmax_kl,
        "i_hyp_kl_kb": ihyp_kl,
        "family": run["family"],
        "transcript": run["transcript"],
    }
