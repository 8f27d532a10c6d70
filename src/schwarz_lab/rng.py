"""Deterministic random streams.

Every stochastic routine in the package draws from a counter-based Philox
generator keyed by a hash of (seed, label, ...).  Reruns with the same key
reproduce streams bit for bit, independent of job scheduling order.
Complex Gaussian rows come from gaussian_rows or gaussian_pairs, which differ
only in the order they take a stream's standard normals.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np


def philox_key(*parts) -> np.ndarray:
    """Derive a 128-bit Philox key from arbitrary hashable parts."""
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode("utf-8"))
        h.update(b"\x1f")
    digest = h.digest()
    k0 = int.from_bytes(digest[:8], "little")
    k1 = int.from_bytes(digest[8:16], "little")
    return np.array([k0, k1], dtype=np.uint64)


@functools.cache
def _key_seed() -> type:
    """A seed type whose state is a given key, which Philox(seed) takes as its key;
    Philox(key=...) draws OS entropy for a SeedSequence it then discards.  Built on
    first use, so importing the package loads no numpy.random."""

    class Key(np.random.bit_generator.ISeedSequence):
        def __init__(self, key: np.ndarray):
            self.key = key

        def generate_state(self, n_words, dtype=np.uint32):
            return self.key

    return Key


def stream(seed, *labels) -> np.random.Generator:
    """Generator for a named stream, deterministic in (seed, labels)."""
    return np.random.Generator(np.random.Philox(_key_seed()(philox_key(seed, *labels))))


def gaussian_rows(gen: np.random.Generator, count: int, n: int) -> np.ndarray:
    """count rows of C^n: the real parts are gen's next count * n standard normals,
    the imaginary parts the count * n after them."""
    rows = np.empty((count, n), dtype=complex)
    rows.real, rows.imag = gen.standard_normal((2, count, n))
    return rows


def gaussian_pairs(gen: np.random.Generator, count: int, n: int) -> np.ndarray:
    """count rows of C^n drawn row by row: each row's n real parts are gen's
    next n standard normals, its n imaginary parts the n after them."""
    rows = np.empty((count, n), dtype=complex)
    rows.real, rows.imag = np.moveaxis(gen.standard_normal((count, 2, n)), 1, 0)
    return rows
