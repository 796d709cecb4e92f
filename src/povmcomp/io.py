"""Instance file schema, its canonical serialization and the bundled instances.

An instance holds register dimensions A, B, R, the state on A (x) B (x) R,
and a joint POVM acting on A:

    {"dims": {"A": 2, "B": 1, "R": 1},
     "state": [[re, im], ...],                  # row-major complex entries
     "povm": {"alphabetX": [...], "alphabetY": [...],
              "elements": {"x|y": [[re, im], ...]}}}

Serialization is canonical (sorted keys, fixed separators) so a parse +
re-dump round trip is byte identical.  An ``Instance`` validates itself
once, when it is built: ``JointPOVM`` checks the elements and
``la.density_eigh`` the state, whose (Hermitian part, eigenvalues,
eigenvectors) it holds as ``spectrum``; ``state`` keeps the parsed entries.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from . import linalg as la
from . import qobjects as qo


def matrix_to_json(mat: np.ndarray) -> list[list[float]]:
    mat = np.asarray(mat, dtype=complex)
    return [[float(z.real), float(z.imag)] for z in mat.reshape(-1)]


def matrix_from_json(entries, dim: int) -> np.ndarray:
    flat = np.array([complex(re, im) for re, im in entries], dtype=complex)
    _check_entries(flat.size, dim)
    return flat.reshape(dim, dim)


def _check_entries(size: int, dim: int) -> None:
    if size != dim * dim:
        raise ValueError(f"matrix has {size} entries, expected {dim * dim}")


@dataclass(frozen=True)
class Instance:
    dims: dict[str, int]
    state: np.ndarray
    povm: qo.JointPOVM
    spectrum: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_entries(np.size(self.state), self.dim_a * self.dim_b * self.dim_r)
        if self.povm.dim != self.dim_a:
            raise ValueError(f"POVM acts on dimension {self.povm.dim}, register A has {self.dim_a}")
        object.__setattr__(self, "spectrum", la.density_eigh(self.state))

    @property
    def dim_a(self) -> int:
        return self.dims["A"]

    @property
    def dim_b(self) -> int:
        return self.dims["B"]

    @property
    def dim_r(self) -> int:
        return self.dims["R"]

    def layout(self) -> la.SystemLayout:
        return la.layout(("A", self.dim_a), ("B", self.dim_b), ("R", self.dim_r))

    def to_payload(self) -> dict:
        elements = {
            qo.join_symbol(x, y): matrix_to_json(m) for (x, y), m in self.povm.elements.items()
        }
        return {
            "dims": {k: int(v) for k, v in self.dims.items()},
            "state": matrix_to_json(self.state),
            "povm": {
                "alphabetX": list(self.povm.alphabet_x),
                "alphabetY": list(self.povm.alphabet_y),
                "elements": elements,
            },
        }


def instance_from_payload(payload: dict) -> Instance:
    dims = payload["dims"]
    if sorted(dims) != ["A", "B", "R"]:
        raise ValueError(f"dims must name exactly the registers A, B and R, not {sorted(dims)}")
    for reg, v in dims.items():
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < 1:
            raise ValueError(f"dimension of register {reg} must be an integer >= 1, not {v!r}")
    dims = {k: int(v) for k, v in dims.items()}
    total = dims["A"] * dims["B"] * dims["R"]
    state = matrix_from_json(payload["state"], total)
    pv = payload["povm"]
    elements = {}
    for key, entries in pv["elements"].items():
        parts = qo.split_symbol(key)
        if len(parts) != 2:
            raise ValueError(f"element key {key!r} is not of the form 'x|y'")
        elements[parts] = matrix_from_json(entries, dims["A"])
    povm = qo.JointPOVM(tuple(pv["alphabetX"]), tuple(pv["alphabetY"]), elements)
    return Instance(dims, state, povm)


def dumps_canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def save_instance(inst: Instance, path: str | Path) -> None:
    Path(path).write_text(dumps_canonical(inst.to_payload()))


def load_instance(path: str | Path) -> Instance:
    return instance_from_payload(json.loads(Path(path).read_text()))


BUNDLED = (
    "trivial",
    "classical_commuting",
    "qubit_cq",
    "qubit_entangled_side_info",
    "instrument_derived",
    "rate_split_showcase",
)


@functools.cache
def bundled_instance_path(name: str) -> Path:
    if name not in BUNDLED:
        raise ValueError(f"unknown bundled instance {name!r}; choose from {BUNDLED}")
    return Path(str(resources.files("povmcomp").joinpath("instances", f"{name}.json")))


def load_bundled(name: str) -> Instance:
    return load_instance(bundled_instance_path(name))
