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
That I_H is taken on the link's composition state (``_link_state``), a
``CQState`` over (coin, class) whose block sits on B in coin slot k of the
(K', B) register, a direct sum, so each test is taken on its d_B x d_B
slot.  A decode depends only on the fiber's class sequence (its
signature): one ``sequential_kraus`` call per link builds the decoders of
every (coin, signature), and neither their number nor the calls grow with
2^logL or the coins.  The accumulator runs on the compressed family's
rows (one per kept class of a nice block): a link decodes all rows with
one stacked congruence onto a fixed decoded-symbol axis, and a scenario's
output is one count-weighted contraction, made ``{key: op}`` at the end.
Output states and deviations are computed exactly by branch enumeration;
only codebooks, hashes and transcripts are sampled.  Nothing here steers:
every E-operator is one the family carries or the prepared E marginal.

Decoder tests are evaluated at the protocol's own eps.  The point-to-point
composition adds the rate bookkeeping of the composition claim: the coin
register copy K' counts toward the decodable information, so the sendable
rate drops by the side-information term at the derived budget
eps0 = eps^(1/10).  The claim constrains rates, not which valid test family
the decoder uses, and tests at eps0 would be uselessly weak at desk-scale
eps.
"""

from __future__ import annotations

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
    RATE_SLACK,
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


def _link_state(family: CompressedFamily, prep: PreparedInstance, i: int):
    """Link i's composition state over (K, class), and its symbols' flat
    (coin k, class c) indices ``live``, k |alphabet| + c, ascending.

    The block of ``"k|class"`` is the count-weighted sum of the E-operators
    of the family's rows with coin k and this symbol on link i, reduced to
    B, on coin slot k of the (K' B) register, scaled by the class's index
    count over the coins and normalised over the non-abort mass: its trace
    is the class's index mass in coin k (its outcome probability averaged
    over the other links' coins, times its count).  Pairs of no mass are no symbols.
    """
    codebook = family.codebooks[i]
    coins, n_cls, d_b = codebook.coins, len(codebook.alphabet), prep.dim_b
    other_coins = math.prod(cb.coins for cb in family.codebooks) // coins
    row_coins, cls, tot = family.row_links()
    d_t = family.env.shape[-1] // d_b
    env_b = np.einsum("rajbj->rab", family.env.reshape(-1, d_b, d_t, d_b, d_t))
    # the class's index count on the other links, averaged over their coins
    weight = np.prod(np.delete(tot, i, axis=1), axis=1) / other_coins
    acc = np.zeros((coins * n_cls, d_b, d_b), dtype=complex)
    np.add.at(acc, row_coins[:, i] * n_cls + cls[:, i], weight[:, None, None] * env_b)
    counts = codebook.counts.reshape(-1)
    p = np.einsum("sii->s", acc).real * counts / coins
    live = np.flatnonzero(p > la.ZERO_MASS)
    symbols = tuple(qo.join_symbol(str(s // n_cls), codebook.alphabet[s % n_cls]) for s in live)
    blocks = acc[live] * (counts[live] / coins / p[live].sum())[:, None, None]
    return qo.CQState.derived(symbols, blocks), live


@dataclass
class LinkStage:
    """What Bob needs to decode one link: its hash and, when it hashes, its tests.

    ``tests`` is one (coins, classes, d_B, d_B) stack on B, indexed by
    (coin, class position in the alphabet): the hypothesis tests of
    I_H^eps(KL : K'B), slot by slot, at the link state's live (coin, class)
    pairs (``_link_state``) and exact zeros at the others.  An unhashed
    link (``wire_bits == log_l``) carries the message index itself, through
    ``identity_hash``, and has no tests (``tests`` None).
    """

    wire_bits: int
    log_l: int
    hash_scheme: HashScheme
    tests: np.ndarray | None


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
            state, live = _link_state(family, prep, i)
            coins, n_cls = family.codebooks[i].coins, len(family.codebooks[i].alphabet)
            tests = np.zeros((coins * n_cls, prep.dim_b, prep.dim_b), dtype=complex)
            tests[live] = ent.i_hyp_cq(state, budget.eps, live // n_cls)[1].tests
            tests = tests.reshape(coins, n_cls, prep.dim_b, prep.dim_b)
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
    the row's sequence.  A stack runs one matrix product chain, then one
    stacked ``svd`` for the polar factors of every candidate position and
    one stacked square root for the failure branch.
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
        kraus[..., j, :, :] = s = pi @ tail
        tail = (eye - pi) @ tail
        residual = residual - _adjoint(s) @ s
    s = kraus[..., :n_cand, :, :]
    u, _, vh = np.linalg.svd(s)
    kraus[..., :n_cand, :, :] = _adjoint(u @ vh) @ s
    kraus[..., n_cand, :, :] = la.matrix_sqrt_many(residual)
    return kraus


def _adjoint(ops: np.ndarray) -> np.ndarray:
    return ops.conj().swapaxes(-1, -2)


class _StageDecoder:
    """Decode branch operators of one link, for all its coins at once.

    Bob's decoder for a wire message sees only the classes of the indices in
    its fiber, in the order ``sequential_kraus`` tests them (ascending
    index, as ``HashScheme.fibers`` lists them), because his tests are per
    (coin, class), ``stage.tests[k, c]``.  The coin and that class sequence,
    nondecreasing since classes take contiguous index ranges, are the
    fiber's signature.
    ``_signatures`` numbers the (coin, sequence) rows of all fibers in
    lexicographic order, so coin k's signatures start at ``start[k]``; an
    affine hash's fibers share one size, and one ``sequential_kraus`` call
    builds ``branches``, (signatures, fiber size + 1, D, D) on (B, tail).
    ``onehot`` maps each branch to its decoded symbol, its class or abort,
    on the axis of the alphabet then ``ABORT`` (``n_out`` entries), and
    ``counts[k, c, j]`` is how many indices of class c in coin k hash into
    a fiber of coin k's signature j.  Sequential decoding's error analysis
    holds for any fixed candidate order (Sen, arXiv:1109.0802).  An
    unhashed link (``stage.tests`` None) tabulates nothing: class c of coin
    k decodes to itself with no measurement (``branches`` None),
    ``counts[k, c]`` times.
    """

    def __init__(self, stage: LinkStage, codebook, d_tail: int):
        coins, n_cls = codebook.coins, len(codebook.alphabet)
        self.n_out = n_cls + 1
        self.branches, self.counts = None, codebook.counts
        if stage.tests is None:
            return
        fibers = stage.hash_scheme.fibers(codebook.messages)
        n_fib, size = fibers.shape
        # the class of every index of every coin, in the narrowest integer type
        ids = np.arange(max(coins, n_cls), dtype=np.min_scalar_type(max(coins, n_cls)))
        cls = np.repeat(np.tile(ids[:n_cls], coins), codebook.counts.reshape(-1))
        fiber_cls = cls.reshape(coins, -1)[:, fibers].reshape(-1, size)
        first, sig = _signatures(np.column_stack([np.repeat(ids[:coins], n_fib), fiber_cls]))
        sig_coin, sig_cls = first // n_fib, fiber_cls[first]
        # every fiber of a signature holds the signature's class histogram
        hist = (sig_cls[:, :, None] == np.arange(n_cls)).sum(axis=1)
        self.start = np.searchsorted(sig_coin, np.arange(coins))
        local = np.arange(len(first)) - self.start[sig_coin]
        self.counts = np.zeros((coins, n_cls, local.max() + 1), dtype=np.int64)
        self.counts[sig_coin, :, local] = np.bincount(sig)[:, None] * hist
        # a hash to fewer bits has a non-trivial kernel, so every fiber
        # holds at least two candidates
        self.branches = _kron_eye(sequential_kraus(stage.tests[sig_coin[:, None], sig_cls]), d_tail)
        out = np.column_stack([sig_cls, np.full(len(first), n_cls)])
        self.onehot = out[..., None] == np.arange(self.n_out)

    def apply(self, coin, cls, ops) -> tuple[np.ndarray, np.ndarray]:
        """Posts of ``ops`` (rows, m, D, D), row r of class ``cls[r]`` in coin
        ``coin[r]``, summed over the class's indices, (rows, m, n_out, D, D),
        and the decoded symbols each row reaches: one stacked congruence over
        the (row, signature) pairs with indices, one count-weighted sum."""
        rows = np.arange(len(coin))
        if self.branches is None:
            out = np.zeros(ops.shape[:2] + (self.n_out,) + ops.shape[2:], dtype=complex)
            out[rows, :, cls] = self.counts[coin, cls][:, None, None, None] * ops
            return out, np.arange(self.n_out) == cls[:, None]
        r, j = np.nonzero(self.counts[coin, cls])
        sig = self.start[coin[r]] + j
        branch = self.branches[sig][:, None]
        posts = branch @ ops[r][:, :, None] @ _adjoint(branch)
        weight = self.counts[coin[r], cls[r], j][:, None, None] * self.onehot[sig]
        # a row's class has indices on every link, so each row has a pair
        heads = np.flatnonzero(np.diff(r, prepend=-1))
        out = np.add.reduceat(np.einsum("pjo,pmjxy->pmoxy", weight, posts), heads)
        return out, np.add.reduceat(weight.sum(axis=1), heads) > 0


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

    Every row of the compressed family is decoded in ``LINKS`` order, each
    link's decoder run once on the posts of every set of earlier links; a
    scenario sums its kept links' posts times the rows' index counts on the
    links it drops.  Encoder aborts (each nice block's abort element and
    every block that is not nice) send the all-zeros message and decode to
    one abort symbol per kept link.  ``wire_override`` maps link names to wire
    widths.
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

    env, (coins, cls, tot) = family.env, family.row_links()
    n_rows, dim = len(env), prep.dim_e
    n_blk = math.prod(cb.coins for cb in family.codebooks)
    abort_op = sum(family.env0)  # block by block: a stacked sum may group the terms
    abort_op = (abort_op + (n_blk - len(family.env0)) * prep.rho_e) / n_blk
    # posts of every set of links, as (rows, decoded symbols, D, D) with the
    # links' symbol axes flattened, and which symbols each row reaches
    posts = {(): (env[:, None], np.ones((n_rows, 1), dtype=bool))}
    for i, dec in enumerate(decoders):
        for links, (ops, reach) in list(posts.items()):
            out, hit = dec.apply(coins[:, i], cls[:, i], ops)
            hit = (reach[:, :, None] & hit[:, None, :]).reshape(n_rows, -1)
            posts[links + (i,)] = (out.reshape(n_rows, -1, dim, dim), hit)
    names = [cb.alphabet + (ABORT,) for cb in family.codebooks]
    results = {}
    for sc in SCENARIOS:
        links = sc.links
        ops, reach = posts[links]
        dropped = [i for i in range(len(LINKS)) if i not in links]
        out = np.tensordot(np.prod(tot[:, dropped], axis=1) / n_blk, ops, axes=1)
        # every link's abort symbol comes last, so the aborts' entry is the last
        out[-1] += abort_op
        reach = reach.any(axis=0)
        reach[-1] = True
        hits = zip(links, np.nonzero(reach.reshape([decoders[i].n_out for i in links])))
        keys = zip(*([names[i][o] for o in hit.tolist()] for i, hit in hits))
        output = {qo.join_symbol(*key): op for key, op in zip(keys, out[reach])}
        deviation = block_dict_distance(output, ideal_blocks(prep, sc))
        results[sc.name] = {"deviation": deviation, "output": output}

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
    state, live = _link_state(family, prep, 0)
    counts = codebook.counts.reshape(-1)[live]
    atoms = [(p / m, float(m)) for p, m in zip(state.probs, counts)]
    hmax_kl = ent.smooth_max_entropy_atoms(atoms, eps0)
    ihyp_kl = math.inf
    if prep.has_side_information():
        ihyp_kl, _ = ent.i_hyp_cq(state, eps0, live // len(codebook.alphabet))
    realized, check = 0, math.inf
    if not math.isinf(ihyp_kl):
        realized = max(
            0, min(stage.log_l, math.ceil(hmax_kl - ihyp_kl + math.log2(1.0 / eps0) - RATE_SLACK))
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
