"""Semantic layer: POVMs, instruments, classical-quantum states.

Classical symbols are opaque strings.  Joint symbols are tuples of strings;
their canonical serialized form joins components with ``|`` so map keys stay
stable across runs and file formats.

A cq state over a joint register is reshaped in one place: ``CQState``
keeps some components of its symbols (``group_parts``) or keeps one and
moves others into a classical side register beside the quantum part
(``embed_parts``).  Steering to a purifying reference is ``protocols.prep``'s.
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
    """Probabilities over an ordered alphabet; sums to 1 within 1e-10."""

    alphabet: tuple[str, ...]
    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "probs", probs)
        if len(self.alphabet) != probs.size:
            raise ValueError("alphabet and probability sizes differ")
        if np.any(probs < -1e-12):
            raise ValueError("negative probability")
        if abs(probs.sum() - 1.0) > 1e-10:
            raise ValueError(f"probabilities sum to {probs.sum()}, not 1")

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
        dims = {m.shape[0] for m in self.elements.values()}
        if len(dims) != 1:
            raise ValueError("POVM elements have inconsistent dimensions")
        total = np.zeros((self.dim, self.dim), dtype=complex)
        for (x, y), m in self.elements.items():
            if x not in self.alphabet_x or y not in self.alphabet_y:
                raise ValueError(f"element key {(x, y)} outside the alphabets")
            la.assert_psd(m, tol=1e-8)
            total += m
        if np.max(np.abs(total - np.eye(self.dim))) > 1e-8:
            raise ValueError("POVM elements do not sum to the identity")

    @property
    def dim(self) -> int:
        return next(iter(self.elements.values())).shape[0]

    def element(self, x: str, y: str) -> np.ndarray:
        return self.elements.get((x, y), np.zeros((self.dim, self.dim), dtype=complex))

    def marginal_x_element(self, x: str) -> np.ndarray:
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for y in self.alphabet_y:
            out += self.element(x, y)
        return out


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
        total = self.total_effect()
        w = np.linalg.eigvalsh(total)
        if w[-1] > 1.0 + 1e-8:
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
    """POVM {N^dag N}; any deficit from I becomes the element (DEFICIT, DEFICIT)."""
    elements = {key: m.conj().T @ m for key, m in inst.kraus.items()}
    total = sum(elements.values())
    deficit = np.eye(inst.dim) - total
    w = np.linalg.eigvalsh((deficit + deficit.conj().T) / 2)
    if w[0] < -1e-8:
        raise ValueError("instrument effects exceed the identity")
    if w[-1] > 1e-8:
        if any(DEFICIT in key for key in elements):
            raise ValueError(f"outcome {DEFICIT!r} is reserved for the deficit element")
        elements[(DEFICIT, DEFICIT)] = (deficit + deficit.conj().T) / 2
    return povm_from_elements(elements)


def induced_distribution(povm: JointPOVM, rho: np.ndarray) -> Distribution:
    """p(x, y) = Tr[Lambda_{x,y} rho] over the joint alphabet."""
    rho = la.assert_density(rho)
    if rho.shape[0] != povm.dim:
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
    """Classical register(s) tensored with quantum blocks.

    ``weights[s]`` is the probability of classical symbol ``s`` and
    ``blocks[s]`` the normalized conditional state; subnormalized blocks are
    tolerated as long as the total mass is 1.
    """

    symbols: tuple[str, ...]
    weights: dict[str, float] = field(repr=False)
    blocks: dict[str, np.ndarray] = field(repr=False)

    def __post_init__(self, psd: bool = True):
        if set(self.symbols) != set(self.weights) or set(self.symbols) != set(self.blocks):
            raise ValueError("symbols, weights and blocks must share keys")
        if any(self.weights[s] < -1e-12 for s in self.symbols):
            raise ValueError("negative weight")
        mats = [la.as_matrix(self.blocks[s]) for s in self.symbols]
        # one stacked PSD check per block shape
        for shape in dict.fromkeys(m.shape for m in mats) if psd else ():
            la.assert_psd_many([m for m in mats if m.shape == shape], tol=1e-7)
        mass = 0.0
        for s, m in zip(self.symbols, mats):
            mass += self.weights[s] * float(np.trace(m).real)
        if abs(mass - 1.0) > 1e-8:
            raise ValueError(f"total mass {mass} is not 1")

    @classmethod
    def derived(cls, symbols, weights, blocks) -> "CQState":
        """A state a PSD-preserving map made from checked blocks: all checks
        but the eigenvalues (a regrouping, a re-weighting, a partial trace)."""
        out = cls.__new__(cls)
        out.symbols, out.weights, out.blocks = symbols, weights, blocks
        out.__post_init__(psd=False)
        return out

    @property
    def quantum_dim(self) -> int:
        return next(iter(self.blocks.values())).shape[0]

    def classical_distribution(self) -> Distribution:
        probs = np.array(
            [self.weights[s] * float(np.trace(self.blocks[s]).real) for s in self.symbols]
        )
        return Distribution(self.symbols, probs)

    def dense(self) -> np.ndarray:
        """Dense matrix on (classical basis) tensor (quantum part)."""
        n, d = len(self.symbols), self.quantum_dim
        out = np.zeros((n * d, n * d), dtype=complex)
        for i, s in enumerate(self.symbols):
            out[i * d : (i + 1) * d, i * d : (i + 1) * d] = self.weights[s] * self.blocks[s]
        return out

    def map_blocks(self, fn) -> "CQState":
        """Every block replaced by ``fn`` of it, which must keep it PSD."""
        return CQState.derived(
            self.symbols,
            dict(self.weights),
            {s: fn(self.blocks[s]) for s in self.symbols},
        )

    def group_symbols(self, key_fn) -> "CQState":
        """Coarse-grain the classical part by ``key_fn(symbol)``."""
        order: list[str] = []
        weights: dict[str, float] = {}
        blocks: dict[str, np.ndarray] = {}
        for s in self.symbols:
            k = key_fn(s)
            w = self.weights[s]
            if k not in weights:
                order.append(k)
                weights[k] = 0.0
                blocks[k] = np.zeros_like(self.blocks[s])
            weights[k] += w
            blocks[k] += w * self.blocks[s]
        for k in order:
            if weights[k] > 1e-15:
                blocks[k] = blocks[k] / weights[k]
        return CQState.derived(tuple(order), weights, blocks)

    def group_parts(self, idx: tuple[int, ...]) -> "CQState":
        """Coarse-grain joint symbols to their components ``idx``, in that order."""
        return self.group_symbols(lambda s: join_symbol(*[split_symbol(s)[i] for i in idx]))

    def embed_parts(self, keep: int, side: tuple[int, ...]) -> "CQState":
        """cq state over component ``keep`` whose blocks carry the components
        ``side`` as a classical side register next to the quantum part.

        The block of t is sum_s w_s / w_t |side(s)><side(s)| (x) block_s over
        the symbols s with component t; side values take slots in order of
        first appearance.  Values of weight at most 1e-15 are dropped.
        """
        parts = [split_symbol(s) for s in self.symbols]
        side_of = [join_symbol(*[p[i] for i in side]) for p in parts]
        slots = list(dict.fromkeys(side_of))
        weights = {t: w for t, w in self.group_parts((keep,)).weights.items() if w > 1e-15}
        d = self.quantum_dim
        blocks = {t: np.zeros((len(slots) * d,) * 2, dtype=complex) for t in weights}
        for s, p, key in zip(self.symbols, parts, side_of):
            t, j = p[keep], slots.index(key) * d
            if t in blocks:
                blocks[t][j : j + d, j : j + d] += self.weights[s] / weights[t] * self.blocks[s]
        return CQState.derived(tuple(weights), weights, blocks)


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
    """n-fold iid tensor power with joined classical symbols."""
    symbols = [""]
    weights = {"": 1.0}
    blocks = {"": np.eye(1, dtype=complex)}
    for _ in range(n):
        new_syms, new_w, new_b = [], {}, {}
        for s in symbols:
            for t in cq.symbols:
                key = join_symbol(*filter(None, (s, t)))
                new_syms.append(key)
                new_w[key] = weights[s] * cq.weights[t]
                new_b[key] = np.kron(blocks[s], cq.blocks[t])
        symbols, weights, blocks = new_syms, new_w, new_b
    return CQState(tuple(symbols), weights, blocks)

