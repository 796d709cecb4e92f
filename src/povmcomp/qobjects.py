"""Semantic layer: POVMs, instruments, classical-quantum states.

Classical symbols are opaque strings.  Joint symbols are tuples of strings;
their canonical serialized form joins components with ``|`` so map keys stay
stable across runs and file formats.

A cq state is one (n, d, d) stack of weighted blocks w_s rho_s, the
diagonal blocks of its dense matrix, whose traces are the symbols'
probabilities.  A cq state over a joint register is reshaped in one place:
``CQState`` keeps some components of its symbols, summing their blocks
(``group_parts``), or keeps one and scatters the others into a classical
side register beside the quantum part (``embed_parts``).  Steering to a
purifying reference is ``protocols.prep``'s.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg as la

ABORT = "⊥"  # the protocol's abort outcome; no POVM alphabet may hold it
# the outcome of an instrument's deficit element; it sorts after the digits,
# so that an instrument with digit outcomes keeps it last in sorted keys
DEFICIT = "deficit"


def join_symbol(*parts: str) -> str:
    return "|".join(parts)


def split_symbol(sym: str) -> tuple[str, ...]:
    return tuple(sym.split("|"))


@dataclass(frozen=True)
class Distribution:
    """Probabilities over an ordered alphabet, on ``la``'s contract: each at
    least -``la.NEG_PROB_SLACK``, one below 0 held as 0, and the held ones
    summing to 1 within ``la.SUM_SLACK``."""

    alphabet: tuple[str, ...]
    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        if len(self.alphabet) != probs.size:
            raise ValueError("alphabet and probability sizes differ")
        if np.any(probs < -la.NEG_PROB_SLACK):
            raise ValueError("negative probability")
        object.__setattr__(self, "probs", np.where(probs < 0.0, 0.0, probs))
        if abs(self.probs.sum() - 1.0) > la.SUM_SLACK:
            raise ValueError(f"probabilities sum to {self.probs.sum()}, not 1")

    def prob(self, symbol: str) -> float:
        return float(self.probs[self.alphabet.index(symbol)])

    def as_dict(self) -> dict[str, float]:
        return {s: float(p) for s, p in zip(self.alphabet, self.probs)}


def marginal(joint: Distribution, part: int) -> Distribution:
    """Distribution of component ``part`` of the joint symbols, in first-seen order."""
    acc: dict[str, float] = {}
    order: list[str] = []
    for sym, p in zip(joint.alphabet, joint.probs):
        key = split_symbol(sym)[part]
        if key not in acc:
            acc[key] = 0.0
            order.append(key)
        acc[key] += float(p)
    return Distribution(tuple(order), np.array([acc[k] for k in order]))


@dataclass(frozen=True)
class JointPOVM:
    """Family {Lambda_{x,y}} of PSD operators on A summing to the identity."""

    alphabet_x: tuple[str, ...]
    alphabet_y: tuple[str, ...]
    elements: dict[tuple[str, str], np.ndarray]

    def __post_init__(self):
        for sym in self.alphabet_x + self.alphabet_y:
            if sym == ABORT or "|" in sym:
                raise ValueError(f"outcome {sym!r} is the abort symbol or holds the '|' separator")
        for name, alphabet in (("X", self.alphabet_x), ("Y", self.alphabet_y)):
            for i, sym in enumerate(alphabet):
                if sym in alphabet[:i]:
                    raise ValueError(f"outcome {sym!r} repeats in alphabet {name}")
        if not self.elements:
            raise ValueError("POVM has no elements")
        if len({np.shape(m) for m in self.elements.values()}) != 1:
            raise ValueError("POVM elements have inconsistent dimensions")
        for x, y in self.elements:
            if x not in self.alphabet_x or y not in self.alphabet_y:
                raise ValueError(f"element key {(x, y)} outside the alphabets")
        total = la.assert_psd_many(list(self.elements.values())).sum(axis=0)
        if np.sum(np.abs(total - np.eye(self.dim)) ** 2) > la.COMPLETE_SLACK**2:
            raise ValueError("POVM elements do not sum to the identity")

    @property
    def dim(self) -> int:
        return next(iter(self.elements.values())).shape[0]


def povm_from_elements(elements: dict[tuple[str, str], np.ndarray]) -> JointPOVM:
    xs, ys = [], []
    for x, y in elements:
        if x not in xs:
            xs.append(x)
        if y not in ys:
            ys.append(y)
    return JointPOVM(tuple(xs), tuple(ys), dict(elements))


@dataclass(frozen=True)
class Instrument:
    """Kraus family N_{x,y} with sum N^dag N <= I."""

    kraus: dict[tuple[str, str], np.ndarray]

    def __post_init__(self):
        dims = {m.shape[1] for m in self.kraus.values()}
        if len(dims) != 1:
            raise ValueError("Kraus operators have inconsistent input dimension")
        if np.linalg.eigvalsh(self.total_effect())[-1] > 1.0 + la.COMPLETE_SLACK:
            raise ValueError("instrument exceeds the identity")

    @property
    def dim(self) -> int:
        return next(iter(self.kraus.values())).shape[1]

    def total_effect(self) -> np.ndarray:
        total = np.zeros((self.dim, self.dim), dtype=complex)
        for m in self.kraus.values():
            total += m.conj().T @ m
        return total


def instrument_to_povm(inst: Instrument) -> JointPOVM:
    """POVM {N^dag N}; a deficit from I becomes the element (DEFICIT,
    DEFICIT) unless it is within the completeness check's Frobenius norm.
    The deficit is PSD within ``la.COMPLETE_SLACK`` by ``Instrument``'s own
    check, and its Frobenius norm is read off its entries, so nothing here
    is decomposed."""
    elements = {key: m.conj().T @ m for key, m in inst.kraus.items()}
    deficit = np.eye(inst.dim) - sum(elements.values())
    deficit = (deficit + deficit.conj().T) / 2
    if np.sum(np.abs(deficit) ** 2) > la.COMPLETE_SLACK**2:
        if any(DEFICIT in key for key in elements):
            raise ValueError(f"outcome {DEFICIT!r} is reserved for the deficit element")
        elements[(DEFICIT, DEFICIT)] = deficit
    return povm_from_elements(elements)


def induced_distribution(povm: JointPOVM, rho: np.ndarray) -> Distribution:
    """p(x, y) = Tr[Lambda_{x,y} rho] over the joint alphabet, of a density
    matrix ``rho`` on ``la``'s contract, which the caller has checked
    (``la.density_eigh``, or the partial trace of a checked state)."""
    if rho.shape != (povm.dim, povm.dim):
        raise ValueError("state and POVM dimensions differ")
    syms, probs = [], []
    for x in povm.alphabet_x:
        for y in povm.alphabet_y:
            if (x, y) not in povm.elements:
                continue
            syms.append(join_symbol(x, y))
            probs.append(float(np.trace(povm.elements[x, y] @ rho).real))
    return Distribution(tuple(syms), np.array(probs))


@dataclass
class CQState:
    """Classical register(s) tensored with quantum blocks, as one stack.

    ``blocks`` is an (n, d, d) stack whose member i is the weighted block
    w_s rho_s of symbol ``symbols[i]``, the i-th diagonal block of the dense
    cq matrix: its trace is the symbol's probability (``probs``), and the
    traces sum to 1 within ``la.SUM_SLACK``.  A symbol of probability 0 has
    a zero block.  No weight is held apart from its block, so nothing here
    normalises a block or weights it again.
    """

    symbols: tuple[str, ...]
    blocks: np.ndarray = field(repr=False)

    def __post_init__(self, checked: bool = False):
        blocks = la._as_stack(self.blocks)
        if blocks.ndim != 3 or not len(blocks) == len(self.symbols) == len(set(self.symbols)):
            raise ValueError("blocks must be an (n, d, d) stack, one member per distinct symbol")
        if checked:
            return
        # one stacked PSD check of the whole stack
        self.blocks = la.assert_psd_many(blocks)
        if abs(self.probs.sum() - 1.0) > la.SUM_SLACK:
            raise ValueError(f"total mass {self.probs.sum()} is not 1")

    @classmethod
    def derived(cls, symbols, blocks) -> "CQState":
        """A state a PSD- and trace-preserving map made from checked input
        (a steering, a regrouping, a scatter, a partial trace, a
        renormalisation): the shape checks only.  Its values are checked
        already: its blocks are PSD and its mass is 1 as far as the input's
        slacks, the map's round-off and the ``la.ZERO_MASS`` symbols it
        drops allow, which a recheck at the input's own slack would refuse
        at the contract's edge."""
        out = cls.__new__(cls)
        out.symbols, out.blocks = symbols, blocks
        out.__post_init__(checked=True)
        return out

    @property
    def quantum_dim(self) -> int:
        return self.blocks.shape[-1]

    @property
    def probs(self) -> np.ndarray:
        """The symbols' probabilities: the blocks' traces."""
        return np.einsum("sii->s", self.blocks).real

    def classical_distribution(self) -> Distribution:
        return Distribution(self.symbols, self.probs)

    def dense(self) -> np.ndarray:
        """Dense matrix on (classical basis) tensor (quantum part)."""
        n, d = self.blocks.shape[:2]
        out = np.zeros((n, d, n, d), dtype=complex)
        out[np.arange(n), :, np.arange(n)] = self.blocks
        return out.reshape(n * d, n * d)

    def map_blocks(self, fn) -> "CQState":
        """The stack replaced by ``fn`` of it, which must keep each member
        PSD and its trace (``la.partial_trace`` takes the stack whole)."""
        return CQState.derived(self.symbols, fn(self.blocks))

    def group_symbols(self, key_fn) -> "CQState":
        """Coarse-grain the classical part by ``key_fn(symbol)``: each new
        block is the sum of its symbols' blocks, in first-seen order."""
        keys = [key_fn(s) for s in self.symbols]
        index = _first_seen(keys)
        out = np.zeros((len(index),) + self.blocks.shape[1:], dtype=complex)
        np.add.at(out, [index[k] for k in keys], self.blocks)
        return CQState.derived(tuple(index), out)

    def group_parts(self, idx: tuple[int, ...]) -> "CQState":
        """Coarse-grain joint symbols to their components ``idx``, in that order."""
        return self.group_symbols(lambda s: join_symbol(*[split_symbol(s)[i] for i in idx]))

    def embed_parts(self, keep: int, side: tuple[int, ...]) -> "CQState":
        """cq state over component ``keep`` whose blocks carry the components
        ``side`` as a classical side register next to the quantum part.

        The block of t is sum_s |side(s)><side(s)| (x) B_s over the symbols s
        with component t, one scatter of the stack onto the side slots,
        which take the side values in order of first appearance.  Values t
        whose block has trace at most ``la.ZERO_MASS`` are dropped.
        """
        parts = [split_symbol(s) for s in self.symbols]
        kept = [p[keep] for p in parts]
        sides = [join_symbol(*[p[i] for i in side]) for p in parts]
        order, slots = _first_seen(kept), _first_seen(sides)
        t, j = [order[k] for k in kept], [slots[k] for k in sides]
        n, d = len(slots), self.quantum_dim
        out = np.zeros((len(order), n, d, n, d), dtype=complex)
        np.add.at(out, (t, j, slice(None), j), self.blocks)
        out = out.reshape(len(order), n * d, n * d)
        live = np.einsum("sii->s", out).real > la.ZERO_MASS
        return CQState.derived(tuple(k for k, on in zip(order, live) if on), out[live])


def _first_seen(keys: list[str]) -> dict[str, int]:
    """Each distinct key's position in order of first appearance."""
    return {k: i for i, k in enumerate(dict.fromkeys(keys))}


def distribution_power(p: Distribution, n: int) -> Distribution:
    """n-fold iid product distribution over symbol tuples joined by '|'."""
    syms = list(p.alphabet)
    probs = np.asarray(p.probs, dtype=float)
    out_syms, out_probs = [""], np.array([1.0])
    for _ in range(n):
        out_syms = [join_symbol(*filter(None, (s, t))) for s in out_syms for t in syms]
        out_probs = np.outer(out_probs, probs).reshape(-1)
    return Distribution(tuple(out_syms), out_probs)


def cq_tensor_power(cq: CQState, n: int) -> CQState:
    """n-fold iid tensor power with joined classical symbols: each block
    the Kronecker product of its letters' weighted blocks, derived from
    ``cq``'s checked ones (its mass is cq's to the n-th power)."""
    symbols, blocks = [""], np.ones((1, 1, 1), dtype=complex)
    for _ in range(n):
        symbols = [join_symbol(*filter(None, (s, t))) for s in symbols for t in cq.symbols]
        (m, d), (k, e) = blocks.shape[:2], cq.blocks.shape[:2]
        blocks = np.einsum("aij,bkl->abikjl", blocks, cq.blocks).reshape(m * k, d * e, d * e)
    return CQState.derived(tuple(symbols), blocks)
