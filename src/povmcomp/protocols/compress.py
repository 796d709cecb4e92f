"""Compressed POVM construction, adversary scenarios and their targets.

Each link of ``LINKS`` has one codebook, drawn from its outcome marginal;
a coin block picks one coin per link, and its classes hold one outcome
per link.  Codebooks are huge (their sizes carry the additive rate
constant), but all protocol statistics depend on them only through
per-block symbol counts, so blocks are drawn as multinomial count vectors
and every per-index object is constant on a symbol class.  Indices use the
canonical sorted layout: inside a link's coin block, symbol x occupies the
index range [offset(x), offset(x) + m_x); a uniformly random codeword
composed with this sorting is distributed like the raw iid draw, and the
protocol only ever touches counts and offsets.

The family is held as rows, one per kept (nice block, class) pair: the
per-index element on A, the E-operator it steers, the row's block and its
class-table index (``_class_table`` lists the classes of the joint
support, sorted).  Rows run over the nice blocks in coin-key order, the
first link's coin most significant, and within a block over its GOOD
classes in class-table order.  Per nice block the family holds its coins,
its abort element gamma0 and gamma0's E-operator.  A coin block that is
not nice aborts and has no rows.  Event E holds exactly when
``CompressedFamily.fraction_nice`` >= 1 - eps^(1/4); a draw where it fails
is reported, not retried, as the achievability bound averages the error
over every draw.  Every element is steered to E once, here, with
``PreparedInstance.steer``; the centralised protocol's output and its link
states read those E-operators.  The protocol, unassisted or hashed, runs
in ``compose``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .. import covering as cov
from .. import linalg as la
from .. import qobjects as qo
from ..budget import OneShotBudget
from .prep import LINKS, PreparedInstance, thresholds


# budget_from_thresholds sits BUDGET_MARGIN_BITS above the link-rate
# thresholds and adds COIN_MARGIN_BITS of coins, so the coin machinery runs
BUDGET_MARGIN_BITS = 2.0
COIN_MARGIN_BITS = 1.0
MAX_LOG_L = 62  # a link's 2^logL indices and its symbol counts are int64
# the family holds per-block arrays over 2^(sum of logK) coin blocks and
# draws one seed sequence per coin: the memory bound of MAX_HASHED_LOG_L
MAX_LOG_BLOCKS = 16
# a rate within this of an integer is that integer when it is floored (or
# ceiled) into a codebook size: the rates are sums of floats
RATE_SLACK = 1e-9
# the relative margin on a block's normalisation, which keeps its
# completion PSD through the round-off of the sum it completes
NORM_MARGIN = 1e-12


class ProtocolError(RuntimeError):
    pass


class BudgetError(ProtocolError):
    """Requested rates fall below the instantiated thresholds."""


@dataclass
class Codebook:
    """Per-coin-block multinomial symbol counts for one link."""

    coins: int  # K
    alphabet: tuple[str, ...]
    counts: np.ndarray  # (K, |alphabet|) integer counts summing to L

    def offsets(self, k: int) -> np.ndarray:
        return np.concatenate([[0], np.cumsum(self.counts[k])])

    def index_range(self, k: int, class_idx: int) -> tuple[int, int]:
        off = self.offsets(k)
        return int(off[class_idx]), int(off[class_idx + 1])


# Fixed per-link spawn keys, so a seed draws the same codebook in every
# process (``hash`` of a str is salted per process).
_LINK_SPAWN_KEYS = (29892, 45071)


def draw_codebook(
    link: int, coins: int, messages: int, source: qo.Distribution, seed: int
) -> Codebook:
    probs = source.probs / source.probs.sum()
    counts = np.zeros((coins, len(source.alphabet)), dtype=np.int64)
    for k in range(coins):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(_LINK_SPAWN_KEYS[link], k))
        )
        counts[k] = rng.multinomial(messages, probs)
    return Codebook(coins, source.alphabet, counts)


@dataclass(frozen=True)
class CodebookPlan:
    """Codebook sizes per link, in ``LINKS`` order: link i draws 2^log_k[i]
    coin blocks of 2^log_l[i] message indices."""

    log_k: tuple[int, ...]
    log_l: tuple[int, ...]
    log_const: float


def _link_thresholds(th: dict[str, float], i: int) -> tuple[float, float, float]:
    """Link i's (logL, logKL, I_H on B) from ``thresholds``."""
    return th[f"logL{i + 1}"], th[f"logKL{i + 1}"], th[f"ih_{LINKS[i].lower()}_b"]


def plan_codebooks(
    prep: PreparedInstance, budget: OneShotBudget, log_const: float | None = None
) -> CodebookPlan:
    """Codebook sizes carried by the budget's link rates.

    One rule per link: logL = floor(R + max(I_H - 1, 0)), the wire rate
    plus the real-valued side-information saving, floored once; logK =
    floor(C).  Raises BudgetError when the implied sizes fall below the
    instantiated thresholds, ProtocolError when a logL exceeds MAX_LOG_L
    or the logK sum exceeds MAX_LOG_BLOCKS.
    """
    th = thresholds(prep, budget.eps, log_const)
    log_k, log_l = [], []
    for i, (r, c) in enumerate(budget.link_rates):
        min_l, min_kl, ih = _link_thresholds(th, i)
        lk = max(0, math.floor(c + RATE_SLACK))
        ll = max(0, math.floor(r + max(ih - 1.0, 0.0) + RATE_SLACK))
        if len(prep.marginals[i].alphabet) <= 1:
            lk = ll = 0  # a constant register needs no codebook
        elif ll + RATE_SLACK < min_l or lk + ll + RATE_SLACK < min_kl:
            raise BudgetError(
                f"{LINKS[i]} link budget (R={r}, C={c}) below the thresholds "
                f"(logL > {min_l:.3f}, logK+logL > {min_kl:.3f})"
            )
        elif ll > MAX_LOG_L:
            raise ProtocolError(f"{LINKS[i]} link's logL={ll} is past int64 (logL <= {MAX_LOG_L})")
        log_k.append(lk)
        log_l.append(ll)
    if sum(log_k) > MAX_LOG_BLOCKS:
        raise ProtocolError(
            f"logK={'+'.join(map(str, log_k))} makes 2^{sum(log_k)} coin blocks "
            f"(sum of logK <= {MAX_LOG_BLOCKS})"
        )
    return CodebookPlan(tuple(log_k), tuple(log_l), th["log_const"])


def budget_from_thresholds(
    prep: PreparedInstance, eps: float, log_const: float | None = None
) -> OneShotBudget:
    """Budget sitting ``BUDGET_MARGIN_BITS`` above the link-rate thresholds.

    Link rates track the assisted displays R = I_max - I_H + const + margin;
    coin rates cover whatever the coin+message sum threshold still needs,
    plus ``COIN_MARGIN_BITS`` so the coin machinery is exercised.
    ``plan_codebooks`` floors R + max(I_H - 1, 0) once, with the same
    real-valued I_H, so the planned sizes clear both thresholds.
    """
    th = thresholds(prep, eps, log_const)
    rates = []
    for i, marginal in enumerate(prep.marginals):
        min_l, min_kl, ih = _link_thresholds(th, i)
        r = max(0.0, min_l - ih + BUDGET_MARGIN_BITS)
        c = max(0.0, min_kl - ih + BUDGET_MARGIN_BITS - r) + COIN_MARGIN_BITS
        rates.append((r, c) if len(marginal.alphabet) > 1 else (0.0, 0.0))
    (r_x, c_x), (r_y, c_y) = rates
    return OneShotBudget(eps, r_x=r_x, r_y=r_y, c_x=c_x, c_y=c_y)


@dataclass
class CompressedFamily:
    """Codebooks and the compressed POVMs of their nice coin blocks, as rows.

    Row r is one kept class of one nice block, in the module's row order:
    ``gammas[r]`` is the per-index element on A of the class's indices,
    ``env[r]`` the E-operator it steers, ``row_block[r]`` the block and
    ``row_class[r]`` the class-table index, whose per-link symbol indices
    are ``class_symbols[row_class[r]]``.  Nice block b has the coins
    ``block_coins[b]``, the abort element ``gamma0[b]`` and its E-operator
    ``env0[b]``; its elements times their index counts, plus gamma0 and the
    off-support completion, sum to the identity.
    """

    plan: CodebookPlan
    codebooks: tuple[Codebook, ...]  # per link, in LINKS order
    fraction_nice: float
    block_coins: np.ndarray  # (blocks, links)
    class_symbols: np.ndarray  # (classes, links)
    gammas: np.ndarray  # (rows, d_A, d_A)
    env: np.ndarray  # (rows, D, D)
    row_block: np.ndarray  # (rows,)
    row_class: np.ndarray  # (rows,)
    gamma0: np.ndarray  # (blocks, d_A, d_A)
    env0: np.ndarray  # (blocks, D, D)

    def row_links(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per row and link, each (rows, links): the block's coin, the class's
        symbol index and how many indices of that coin carry the symbol."""
        coins = self.block_coins[self.row_block]
        symbols = self.class_symbols[self.row_class]
        counts = [cb.counts[coins[:, i], symbols[:, i]] for i, cb in enumerate(self.codebooks)]
        return coins, symbols, np.stack(counts, axis=1)

    def completeness_residual(self, prep: PreparedInstance) -> float:
        """Largest absolute entry of gamma0 plus the count-weighted elements,
        minus the projector onto supp rho_A, over the nice blocks (0 with
        none); each block's sum starts at gamma0 and adds its rows in order."""
        total = self.gamma0.copy()
        weight = np.prod(self.row_links()[2], axis=1, dtype=float)
        np.add.at(total, self.row_block, weight[:, None, None] * self.gammas)
        return float(np.max(np.abs(total - prep.supp_proj_a), initial=0.0))


def _class_table(prep: PreparedInstance):
    """Every class (one symbol per link) of the joint support with positive
    marginal product, sorted by its symbols: their per-link symbol indices
    (n, links), t-weights p(class) / prod_i p_i(class_i) (n,) and mirror
    blocks over that product, the tilted blocks (n, d, d)."""
    joint = prep.joint.as_dict()
    rows = []
    for idx in itertools.product(*(range(len(m.alphabet)) for m in prep.marginals)):
        cls = tuple(m.alphabet[j] for m, j in zip(prep.marginals, idx))
        p = joint.get(qo.join_symbol(*cls))
        p_prod = math.prod(m.prob(sym) for m, sym in zip(prep.marginals, cls))
        if p is None or p_prod <= 0:
            continue  # a class outside the joint support carries mass 0
        rows.append((cls, idx, p / p_prod, prep.mirror_blocks[cls] / p_prod))
    _, idx, t, tilted = zip(*sorted(rows, key=lambda row: row[0]))
    return np.array(idx), np.array(t), np.stack(tilted)


def build_compressed_povm(
    prep: PreparedInstance,
    budget: OneShotBudget,
    seed: int,
    log_const: float | None = None,
) -> CompressedFamily:
    """Draw the seed's codebooks, flag nice blocks, extract GOOD sets, assemble POVMs.

    A block is nice when its measure-transformed mirror-form sample average
    sits within sqrt(eps) of rho_A in trace norm; the others abort, every
    block when none is nice.  All blocks are tested with one stacked trace
    norm.
    """
    plan = plan_codebooks(prep, budget, log_const)
    n_total = math.prod(1 << log_l for log_l in plan.log_l)
    idx, _, tilted = table = _class_table(prep)
    codebooks = tuple(
        draw_codebook(i, 1 << plan.log_k[i], 1 << plan.log_l[i], marginal, seed + i)
        for i, marginal in enumerate(prep.marginals)
    )
    keys = np.array(list(itertools.product(*(range(cb.coins) for cb in codebooks))))
    counts = [cb.counts[keys[:, i]][:, idx[:, i]] for i, cb in enumerate(codebooks)]
    mult = np.prod(counts, axis=0, dtype=float)  # (blocks, classes); int64 would wrap
    avg = np.einsum("bc,cij->bij", mult / n_total, tilted)
    deviation = la.trace_norm_many(avg - prep.spectrum_a[0])
    nice = np.flatnonzero(deviation <= math.sqrt(budget.eps))
    rows = _assemble_rows(prep, table, mult[nice], n_total, deviation[nice])
    return CompressedFamily(plan, codebooks, len(nice) / len(keys), keys[nice], idx, *rows)


def _assemble_rows(prep, table, mult, n_total, deviation) -> tuple:
    """``CompressedFamily``'s row and block arrays from every nice block's
    class multiplicities: one ``covering.good_sets`` call, stacks over
    (block, class), and one stacked ``PreparedInstance.steer`` of every kept
    and abort element."""
    _, t, tilted = table
    parts, weights, eps = cov.transformed_rows(tilted, mult / n_total, deviation)
    good, primed = cov.good_sets(parts, weights, mult > 0, prep.spectrum_a, eps)
    inv_sq = prep.pinv_sqrt_rho_a
    raw = (t / n_total)[:, None, None] * (inv_sq @ primed @ inv_sq)
    raw = (raw + raw.conj().swapaxes(-1, -2)) / 2
    kept = np.where(good, mult, 0)
    acc = np.einsum("bc,bcij->bij", kept, raw)
    # normalization: smallest factor keeping the completion PSD (measured
    # operator-inequality constant, clamped to at least 1)
    norm = np.maximum(np.linalg.eigvalsh(acc)[:, -1], 1.0) * (1.0 + NORM_MARGIN)
    gammas = raw / norm[:, None, None, None]
    gamma0 = prep.supp_proj_a.copy()
    for c in range(len(t)):  # class by class, the order of a per-block sum
        gamma0 = gamma0 - kept[:, c, None, None] * gammas[:, c]
    gamma0 = (gamma0 + gamma0.conj().swapaxes(-1, -2)) / 2
    env = prep.steer(np.concatenate([gammas, gamma0[:, None]], axis=1))
    row_block, row_class = np.nonzero(good)
    return gammas[good], env[:, :-1][good], row_block, row_class, gamma0, env[:, -1]


# ---------------------------------------------------------------------------
# adversary scenarios: the links an adversary keeps, and each one's target


@dataclass(frozen=True)
class AdversaryScenario:
    x_link_on: bool
    y_link_on: bool

    def __post_init__(self):
        if not self.links:
            raise ValueError("at least one link must be on")

    @property
    def links(self) -> tuple[int, ...]:
        """Positions in ``LINKS`` of the kept links, ascending."""
        return tuple(i for i, on in enumerate((self.x_link_on, self.y_link_on)) if on)

    @property
    def name(self) -> str:
        kept = "_".join(LINKS[i].lower() for i in self.links)
        return "both" if len(self.links) == len(LINKS) else f"{kept}_only"


SCENARIOS = tuple(
    AdversaryScenario(*(i in kept for i in range(len(LINKS))))
    for size in range(len(LINKS), 0, -1)
    for kept in itertools.combinations(range(len(LINKS)), size)
)

ABORT = qo.ABORT


def ideal_blocks(prep: PreparedInstance, scenario: AdversaryScenario) -> dict[str, np.ndarray]:
    """Scenario target: the original POVM's E-blocks, keyed by the outcomes
    of the links the scenario keeps and summed over the rest (``env_cq``
    cut to those links)."""
    cq = prep.env_cq().group_parts(scenario.links)
    return dict(zip(cq.symbols, cq.blocks))


def block_dict_distance(a: dict, b: dict) -> float:
    """Sum over the keys of either dict of the trace norm of a[k] - b[k]
    (a missing block counts as zero)."""
    dim = next(iter(a.values())).shape[0]
    zero = np.zeros((dim, dim), dtype=complex)
    # sorted, not set order: a set of strings iterates in a per-process order
    diffs = [a.get(k, zero) - b.get(k, zero) for k in sorted(set(a) | set(b))]
    return sum(la.trace_norm_many(np.reshape(diffs, (len(diffs), dim, dim))).tolist())


def sample_transcript(
    family: CompressedFamily, prep: PreparedInstance, seed: int
) -> dict[str, int | bool]:
    """One seeded protocol run: coins, measurement outcome, message indices.

    Link i's coin and message index are ``k{i+1}`` and ``l{i+1}``; an abort
    has index -1 on every link.
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(77,)))
    coins = tuple(int(rng.integers(cb.coins)) for cb in family.codebooks)
    indices = [-1] * len(coins)
    rows = np.flatnonzero(np.all(family.block_coins == coins, axis=1)[family.row_block])
    if len(rows):
        _, symbols, counts = family.row_links()
        tr = np.trace(family.gammas[rows] @ prep.spectrum_a[0], axis1=1, axis2=2).real
        probs = np.prod(counts[rows], axis=1, dtype=float) * tr
        p_abort = max(0.0, 1.0 - probs.sum())
        draw = rng.random() * (probs.sum() + p_abort)
        # the first row whose running sum, added in row order, exceeds the draw
        hit = np.searchsorted(np.cumsum(probs), draw, side="right")
        if hit < len(rows):
            indices = [
                int(rng.integers(*cb.index_range(k, s)))
                for cb, k, s in zip(family.codebooks, coins, symbols[rows[hit]])
            ]
    out = {f"k{i + 1}": k for i, k in enumerate(coins)}
    out.update((f"l{i + 1}", index) for i, index in enumerate(indices))
    return dict(out, abort=min(indices) < 0)
