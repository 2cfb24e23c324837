"""Deterministic seed derivation shared across the package.

Every stochastic component derives its generator from explicit labels via a
keyed hash, so every process draws the same streams. Python's builtin
``hash()`` is salted per process and is never used here. Runs reproduce bit
for bit on one family of OpenBLAS kernels: numpy's OpenBLAS picks its
kernels by CPU at load time, and the dot products behind cosine scores and
the renormalize stage sum in the order the kernel chooses, so another
family can change a score's last bits.
"""

import hashlib

import numpy as np


def stable_seed(*parts: object) -> int:
    """Collapse arbitrary labels into a stable 64-bit seed."""
    text = "\x1f".join(str(p) for p in parts)
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def derive_rng(*parts: object) -> np.random.Generator:
    """Fresh numpy generator keyed by the given labels."""
    return np.random.default_rng(stable_seed(*parts))
