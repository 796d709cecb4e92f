"""Compressed POVM construction, adversary scenarios and their targets.

Codebooks are huge (their sizes carry the additive rate constant), but all
protocol statistics depend on them only through per-block symbol counts, so
blocks are drawn as multinomial count vectors and every per-index object is
constant on a symbol class.  Indices use the canonical sorted layout: inside
a coin block, class x occupies the index range [offset(x), offset(x) + m_x);
a uniformly random codeword composed with this sorting is distributed like
the raw iid draw, and the protocol only ever touches counts and offsets.

Each kept class element and abort element of a nice coin block is steered
to E once, here, with ``PreparedInstance.steer``; the centralised
protocol's output and its link states read those E-operators.  A coin
block that is not nice aborts and is absent from the family.  The
protocol itself, unassisted or hashed, runs in ``compose``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .. import covering as cov
from .. import linalg as la
from .. import qobjects as qo
from ..budget import OneShotBudget
from .prep import PreparedInstance, thresholds


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
    """Per-coin-block multinomial symbol counts for one axis."""

    coins: int  # K
    messages: int  # L
    alphabet: tuple[str, ...]
    counts: np.ndarray  # (K, |alphabet|) integer counts summing to L

    def offsets(self, k: int) -> np.ndarray:
        return np.concatenate([[0], np.cumsum(self.counts[k])])

    def index_range(self, k: int, class_idx: int) -> tuple[int, int]:
        off = self.offsets(k)
        return int(off[class_idx]), int(off[class_idx + 1])


# Fixed per-axis spawn keys, so a seed draws the same codebook in every
# process (``hash`` of a str is salted per process).
_AXIS_SPAWN_KEY = {"X": 29892, "Y": 45071}


def draw_codebook(
    axis: str, coins: int, messages: int, source: qo.Distribution, seed: int
) -> Codebook:
    probs = source.probs / source.probs.sum()
    counts = np.zeros((coins, len(source.alphabet)), dtype=np.int64)
    for k in range(coins):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(_AXIS_SPAWN_KEY[axis], k))
        )
        counts[k] = rng.multinomial(messages, probs)
    return Codebook(coins, messages, source.alphabet, counts)


@dataclass(frozen=True)
class CodebookPlan:
    log_k1: int
    log_l1: int
    log_k2: int
    log_l2: int
    log_const: float

    @property
    def k1(self) -> int:
        return 1 << self.log_k1

    @property
    def l1(self) -> int:
        return 1 << self.log_l1

    @property
    def k2(self) -> int:
        return 1 << self.log_k2

    @property
    def l2(self) -> int:
        return 1 << self.log_l2


def plan_codebooks(
    prep: PreparedInstance, budget: OneShotBudget, log_const: float | None = None
) -> CodebookPlan:
    """Codebook sizes carried by the budget's link rates.

    One rule: logL = floor(R + max(I_H - 1, 0)), the wire rate plus the
    real-valued side-information saving, floored once; logK = floor(C).
    Raises BudgetError when the implied sizes fall below the instantiated
    thresholds.
    """
    th = thresholds(prep, budget.eps, log_const)
    log_l1 = max(0, math.floor(budget.r_x + max(th["ih_x_b"] - 1.0, 0.0) + 1e-9))
    log_l2 = max(0, math.floor(budget.r_y + max(th["ih_y_b"] - 1.0, 0.0) + 1e-9))
    log_k1 = max(0, math.floor(budget.c_x + 1e-9))
    log_k2 = max(0, math.floor(budget.c_y + 1e-9))
    if len(prep.px.alphabet) <= 1:
        log_l1 = log_k1 = 0  # a constant register needs no codebook
    if len(prep.py.alphabet) <= 1:
        log_l2 = log_k2 = 0
    if len(prep.px.alphabet) > 1 and (
        log_l1 + 1e-9 < th["logL1"] or log_k1 + log_l1 + 1e-9 < th["logKL1"]
    ):
        raise BudgetError(
            f"X link budget (R={budget.r_x}, C={budget.c_x}) below the thresholds "
            f"(logL1 > {th['logL1']:.3f}, logK1+logL1 > {th['logKL1']:.3f})"
        )
    if len(prep.py.alphabet) > 1 and (
        log_l2 + 1e-9 < th["logL2"] or log_k2 + log_l2 + 1e-9 < th["logKL2"]
    ):
        raise BudgetError(
            f"Y link budget (R={budget.r_y}, C={budget.c_y}) below the thresholds "
            f"(logL2 > {th['logL2']:.3f}, logK2+logL2 > {th['logKL2']:.3f})"
        )
    return CodebookPlan(log_k1, log_l1, log_k2, log_l2, th["log_const"])


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
    margin = BUDGET_MARGIN_BITS
    r_x = max(0.0, th["rate_x"] + margin)
    r_y = max(0.0, th["rate_y"] + margin)
    c_x = max(0.0, th["logKL1"] - th["ih_x_b"] + margin - r_x) + COIN_MARGIN_BITS
    c_y = max(0.0, th["logKL2"] - th["ih_y_b"] + margin - r_y) + COIN_MARGIN_BITS
    if len(prep.px.alphabet) <= 1:
        r_x = c_x = 0.0
    if len(prep.py.alphabet) <= 1:
        r_y = c_y = 0.0
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
    """Codebooks and the compressed blocks of their nice coin pairs; a
    non-nice coin pair aborts and has no entry in ``blocks``."""

    plan: CodebookPlan
    attempt: int
    codebook_x: Codebook
    codebook_y: Codebook
    fraction_nice: float
    blocks: dict[tuple[int, int], CompressedBlock]

    def completeness_residual(self, prep: PreparedInstance) -> float:
        worst = 0.0
        for blk in self.blocks.values():
            total = blk.gamma0.copy()
            for c, g in blk.gammas.items():
                total = total + blk.counts[c] * g
            worst = max(worst, float(np.max(np.abs(total - prep.supp_proj_a))))
        return worst


def _block_class_table(prep: PreparedInstance, cx: np.ndarray, cy: np.ndarray):
    """Per (x, y) class: multiplicity, t-weight, and mirror block over p(x, y)."""
    xs, ys = prep.px.alphabet, prep.py.alphabet
    joint = prep.joint.as_dict()
    table = {}
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            m = int(cx[i]) * int(cy[j])
            xy = qo.join_symbol(x, y)
            if m == 0 or xy not in joint:
                continue  # a pair outside the joint support carries mass 0
            p_xy = joint[xy]
            px, py = prep.px.prob(x), prep.py.prob(y)
            if px * py <= 0:
                continue
            mirror = prep.mirror_blocks[(x, y)]
            table[(x, y)] = (m, p_xy / (px * py), mirror / p_xy if p_xy > 1e-15 else 0.0 * mirror)
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
    n_total = plan.l1 * plan.l2
    for attempt in range(MAX_CODEBOOK_DRAWS):
        draw_seed = seed + 1_000_003 * attempt
        cb_x = draw_codebook("X", plan.k1, plan.l1, prep.px, draw_seed)
        cb_y = draw_codebook("Y", plan.k2, plan.l2, prep.py, draw_seed + 1)
        blocks: dict[tuple[int, int], CompressedBlock] = {}
        for k1 in range(plan.k1):
            for k2 in range(plan.k2):
                table = _block_class_table(prep, cb_x.counts[k1], cb_y.counts[k2])
                avg = np.zeros_like(prep.rho_a)
                for m, t, mirror in table.values():
                    avg += (m / n_total) * t * mirror
                deviation = la.trace_norm_distance(avg, prep.rho_a)
                if deviation <= math.sqrt(eps):
                    blocks[(k1, k2)] = _assemble_block(prep, table, n_total, deviation)
        fraction = len(blocks) / (plan.k1 * plan.k2)
        if fraction >= 1.0 - eps**0.25:
            return CompressedFamily(plan, attempt, cb_x, cb_y, fraction, blocks)
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
        if not (self.x_link_on or self.y_link_on):
            raise ValueError("at least one link must be on")

    @property
    def name(self) -> str:
        if self.x_link_on and self.y_link_on:
            return "both"
        return "x_only" if self.x_link_on else "y_only"


SCENARIOS = (
    AdversaryScenario(True, True),
    AdversaryScenario(True, False),
    AdversaryScenario(False, True),
)

ABORT = qo.ABORT


def ideal_blocks(prep: PreparedInstance, scenario: AdversaryScenario) -> dict[str, np.ndarray]:
    """Scenario target: the original POVM's E-blocks, keyed by the outcomes
    of the links the scenario keeps and summed over the rest."""
    out: dict[str, np.ndarray] = {}
    for (x, y), blk in prep.env_blocks.items():
        if scenario.x_link_on and scenario.y_link_on:
            key = qo.join_symbol(x, y)
        else:
            key = x if scenario.x_link_on else y
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
    """One seeded protocol run: coins, measurement outcome, message indices."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(77,)))
    k1 = int(rng.integers(family.plan.k1))
    k2 = int(rng.integers(family.plan.k2))
    blk = family.blocks.get((k1, k2))
    if blk is None:
        return {"k1": k1, "k2": k2, "l1": -1, "l2": -1, "abort": True}
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
            x, y = c
            xi = prep.px.alphabet.index(x)
            yi = prep.py.alphabet.index(y)
            lo1, hi1 = family.codebook_x.index_range(k1, xi)
            lo2, hi2 = family.codebook_y.index_range(k2, yi)
            return {
                "k1": k1,
                "k2": k2,
                "l1": int(rng.integers(lo1, hi1)),
                "l2": int(rng.integers(lo2, hi2)),
                "abort": False,
            }
    return {"k1": k1, "k2": k2, "l1": -1, "l2": -1, "abort": True}
