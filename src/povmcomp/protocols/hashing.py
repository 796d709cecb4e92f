"""2-universal hashing over GF(2): random matrix plus offset.

For fixed distinct inputs the collision probability over the draw is
exactly 2^-R.  A hash value is the offset XOR the matrix columns of the
input's set bits, so a batch of inputs is hashed with one table lookup
and XOR pass per input byte, in memory linear in the batch.  Buckets
(preimage fibers) come as one table over the whole input space: every
input is hashed once and the inputs are sorted by hash value, so a
decoder reads any message's fiber as a row of that table.  A link that
sends its whole message index carries it through ``identity_hash``, whose
fibers nothing tabulates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class HashScheme:
    output_bits: int
    matrix: np.ndarray  # (output_bits, input bits) over GF(2)
    offset: np.ndarray  # (output_bits,)

    def apply(self, index: int) -> int:
        return int(self.apply_many(np.array([index]))[0])

    def apply_many(self, indices: np.ndarray) -> np.ndarray:
        """Hash values of ``indices``, input and output bit 0 least significant.

        A value is the offset's mask XOR the matrix columns, packed into
        integer masks, of the input's set bits.  Per input byte a 256-entry
        table holds the XOR of its bits' masks (``_tables``), so the batch
        takes one lookup and one XOR per byte.
        """
        offset, tables = self._tables
        vals = np.full(len(indices), offset, dtype=np.int64)
        for k, table in enumerate(tables):
            vals ^= table[(indices >> (8 * k)) & 255]
        return vals

    @cached_property
    def _tables(self) -> tuple[int, np.ndarray]:
        """The offset's mask and the byte tables, built once per scheme."""
        weights = np.int64(1) << np.arange(self.output_bits, dtype=np.int64)
        masks = weights @ self.matrix.astype(np.int64)
        # bits past the last input bit hash to nothing
        masks = np.concatenate([masks, np.zeros(-len(masks) % 8, dtype=np.int64)])
        bits = (np.arange(256, dtype=np.int64)[:, None] >> np.arange(8)) & 1
        tables = np.bitwise_xor.reduce(bits * masks.reshape(-1, 1, 8), axis=2)
        return int(weights @ self.offset.astype(np.int64)), tables

    def fibers(self) -> np.ndarray:
        """Preimage fibers of the whole input space, one row per hash value.

        One ``apply_many`` and one stable sort: rows follow ascending hash
        value and each row lists its inputs in ascending order.  The fibers
        of an affine map are cosets of its kernel, so they share one size
        s, and the sorted order is s copies of the least value, then s of
        the next, and so on: each row of the order reshaped to one row per
        realised value holds exactly one value.
        """
        vals = self.apply_many(np.arange(2 ** self.matrix.shape[1], dtype=np.int64))
        # sorted as the narrowest unsigned type that holds every hash value,
        # so that numpy's stable sort can run as a radix sort
        keys = vals.astype(np.min_scalar_type(2**self.output_bits - 1))
        return np.argsort(keys, kind="stable").reshape(np.count_nonzero(np.bincount(vals)), -1)


def draw_hash(input_bits: int, output_bits: int, rng: np.random.Generator) -> HashScheme:
    matrix = rng.integers(0, 2, size=(output_bits, input_bits), dtype=np.uint8)
    offset = rng.integers(0, 2, size=output_bits, dtype=np.uint8)
    return HashScheme(output_bits, matrix, offset)


def identity_hash(input_bits: int) -> HashScheme:
    """Raw index transmission: the wire map of an unhashed link, never tabulated."""
    return HashScheme(
        input_bits, np.eye(input_bits, dtype=np.uint8), np.zeros(input_bits, dtype=np.uint8)
    )
