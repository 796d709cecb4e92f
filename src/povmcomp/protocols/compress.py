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

Each kept class element and abort element of a nice coin block is steered
to E once, here, with ``PreparedInstance.steer``; the centralised
protocol's output and its link states read those E-operators.  A coin
block that is not nice aborts and is absent from the family.  The
protocol itself, unassisted or hashed, runs in ``compose``.
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
# codebook draws tried before build_compressed_povm gives up on event E
MAX_CODEBOOK_DRAWS = 20


class ProtocolError(RuntimeError):
    pass


class BudgetError(ProtocolError):
    """Requested rates fall below the instantiated thresholds."""


@dataclass
class Codebook:
    """Per-coin-block multinomial symbol counts for one link."""

    coins: int  # K
    messages: int  # L
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
    return Codebook(coins, messages, source.alphabet, counts)


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
    plus the real-valued side-information saving, floored once;
    logK = floor(C).  Raises BudgetError when the implied sizes fall below
    the instantiated thresholds.
    """
    th = thresholds(prep, budget.eps, log_const)
    log_k, log_l = [], []
    for i, (r, c) in enumerate(budget.link_rates):
        min_l, min_kl, ih = _link_thresholds(th, i)
        lk = max(0, math.floor(c + 1e-9))
        ll = max(0, math.floor(r + max(ih - 1.0, 0.0) + 1e-9))
        if len(prep.marginals[i].alphabet) <= 1:
            lk = ll = 0  # a constant register needs no codebook
        elif ll + 1e-9 < min_l or lk + ll + 1e-9 < min_kl:
            raise BudgetError(
                f"{LINKS[i]} link budget (R={r}, C={c}) below the thresholds "
                f"(logL > {min_l:.3f}, logK+logL > {min_kl:.3f})"
            )
        log_k.append(lk)
        log_l.append(ll)
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
class CompressedBlock:
    """Per-coin-block compressed POVM in class-collapsed form.

    ``gammas[c]`` is the per-index POVM element of any index in class c;
    ``counts[c]`` is how many indices of the block carry it.  The elements
    plus ``gamma0`` and the off-support completion sum to the identity.
    ``env[c]`` and ``env0`` are the E-operators that ``gammas[c]`` and
    ``gamma0`` steer, formed once here for every consumer.
    """

    gammas: dict[tuple[str, str], np.ndarray]
    counts: dict[tuple[str, str], int]
    gamma0: np.ndarray
    env: dict[tuple[str, str], np.ndarray]
    env0: np.ndarray


@dataclass
class CompressedFamily:
    """Codebooks and the compressed POVMs of their nice coin blocks, keyed
    by one coin per link; a block that is not nice aborts and has no entry."""

    plan: CodebookPlan
    attempt: int
    codebooks: tuple[Codebook, ...]  # per link, in LINKS order
    fraction_nice: float
    blocks: dict[tuple[int, ...], CompressedBlock]

    def completeness_residual(self, prep: PreparedInstance) -> float:
        worst = 0.0
        for blk in self.blocks.values():
            total = blk.gamma0.copy()
            for c, g in blk.gammas.items():
                total = total + blk.counts[c] * g
            worst = max(worst, float(np.max(np.abs(total - prep.supp_proj_a))))
        return worst


def _block_class_table(prep: PreparedInstance, counts: list[np.ndarray]):
    """Per class (one symbol per link, first link outermost): multiplicity,
    t-weight, and mirror block over p(class); ``counts[i]`` holds link i's."""
    joint = prep.joint.as_dict()
    table = {}
    for idx in itertools.product(*(range(len(m.alphabet)) for m in prep.marginals)):
        cls = tuple(m.alphabet[j] for m, j in zip(prep.marginals, idx))
        mult = math.prod(int(cnt[j]) for cnt, j in zip(counts, idx))
        key = qo.join_symbol(*cls)
        if mult == 0 or key not in joint:
            continue  # a class outside the joint support carries mass 0
        p = joint[key]
        p_prod = math.prod(m.prob(sym) for m, sym in zip(prep.marginals, cls))
        if p_prod <= 0:
            continue
        mirror = prep.mirror_blocks[cls]
        table[cls] = (mult, p / p_prod, mirror / p if p > 1e-15 else 0.0 * mirror)
    return table


def build_compressed_povm(
    prep: PreparedInstance,
    budget: OneShotBudget,
    seed: int,
    log_const: float | None = None,
) -> CompressedFamily:
    """Draw codebooks, flag nice blocks, extract GOOD sets, assemble POVMs.

    A block is nice when its measure-transformed mirror-form sample average
    sits within sqrt(eps) of rho_A in trace norm; non-nice blocks abort.
    If fewer than a 1 - eps^(1/4) fraction of blocks is nice, the draw is
    retried with the next derived seed, ``MAX_CODEBOOK_DRAWS`` draws in all.
    """
    eps = budget.eps
    plan = plan_codebooks(prep, budget, log_const)
    n_total = math.prod(1 << log_l for log_l in plan.log_l)
    for attempt in range(MAX_CODEBOOK_DRAWS):
        draw_seed = seed + 1_000_003 * attempt
        codebooks = tuple(
            draw_codebook(i, 1 << plan.log_k[i], 1 << plan.log_l[i], marginal, draw_seed + i)
            for i, marginal in enumerate(prep.marginals)
        )
        blocks: dict[tuple[int, ...], CompressedBlock] = {}
        for coins in itertools.product(*(range(cb.coins) for cb in codebooks)):
            table = _block_class_table(prep, [cb.counts[k] for cb, k in zip(codebooks, coins)])
            avg = np.zeros_like(prep.rho_a)
            for m, t, mirror in table.values():
                avg += (m / n_total) * t * mirror
            deviation = la.trace_norm_distance(avg, prep.rho_a)
            if deviation <= math.sqrt(eps):
                blocks[coins] = _assemble_block(prep, table, n_total, deviation)
        fraction = len(blocks) / math.prod(cb.coins for cb in codebooks)
        if fraction >= 1.0 - eps**0.25:
            return CompressedFamily(plan, attempt, codebooks, fraction, blocks)
    raise ProtocolError(
        f"event E failed on {MAX_CODEBOOK_DRAWS} codebook draws "
        "(nice fraction below 1 - eps^0.25)"
    )


def _assemble_block(prep, table, n_total, deviation) -> CompressedBlock:
    classes = sorted(table)
    sigmas = [table[c][1] * table[c][2] for c in classes]
    weights = [table[c][0] / n_total for c in classes]
    cert = cov.extract_good_set_transformed(sigmas, weights, prep.rho_a, max(deviation, 1e-9))
    inv_sq = prep.pinv_sqrt_rho_a
    raw = {}
    acc = np.zeros_like(prep.rho_a)
    for pos in cert.good:
        c = classes[pos]
        m, t, _ = table[c]
        raw_el = (t / n_total) * (inv_sq @ cert.primed[pos] @ inv_sq)
        raw_el = (raw_el + raw_el.conj().T) / 2
        raw[c] = raw_el
        acc += m * raw_el
    # normalization: smallest factor keeping the completion PSD (measured
    # operator-inequality constant, clamped to at least 1)
    top = float(np.linalg.eigvalsh(acc)[-1]) if raw else 0.0
    norm = max(top, 1.0) * (1.0 + 1e-12)
    gammas = {c: g / norm for c, g in raw.items()}
    gamma0 = prep.supp_proj_a.copy()
    for c, g in gammas.items():
        gamma0 -= table[c][0] * g
    gamma0 = (gamma0 + gamma0.conj().T) / 2
    return CompressedBlock(
        gammas=gammas,
        counts={c: table[c][0] for c in gammas},
        gamma0=gamma0,
        env={c: prep.steer(g) for c, g in gammas.items()},
        env0=prep.steer(gamma0),
    )


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
    of the links the scenario keeps and summed over the rest."""
    out: dict[str, np.ndarray] = {}
    for cls, blk in prep.env_blocks.items():
        key = qo.join_symbol(*(cls[i] for i in scenario.links))
        out[key] = out[key] + blk if key in out else blk
    return out


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
    indices, blk = [-1] * len(coins), family.blocks.get(coins)
    if blk is not None:
        classes = list(blk.gammas.keys())
        probs = np.array(
            [blk.counts[c] * np.trace(blk.gammas[c] @ prep.rho_a).real for c in classes]
        )
        p_abort = max(0.0, 1.0 - probs.sum())
        draw = rng.random() * (probs.sum() + p_abort)
        cum = 0.0
        for c, p in zip(classes, probs):
            cum += p
            if draw < cum:
                indices = [
                    int(rng.integers(*cb.index_range(k, cb.alphabet.index(sym))))
                    for cb, k, sym in zip(family.codebooks, coins, c)
                ]
                break
    out = {f"k{i + 1}": k for i, k in enumerate(coins)}
    out.update((f"l{i + 1}", index) for i, index in enumerate(indices))
    return dict(out, abort=min(indices) < 0)
