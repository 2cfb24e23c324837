"""Deterministic seed derivation shared across the package.

Every stochastic component derives its generator from explicit labels via a
keyed hash, so every process draws the same streams. Python's builtin
``hash()`` is salted per process and is never used here. Runs reproduce bit
for bit on one family of OpenBLAS kernels: numpy's OpenBLAS picks its
kernels by CPU at load time, and the dot products behind cosine scores and
the renormalize stage sum in the order the kernel chooses, so another
family can change a score's last bits.

A stream is ``np.random.default_rng(stable_seed(*labels))``. ``derive_rng``
makes one. ``default_rngs`` makes many at once, each bit-equal to its
``default_rng``: an attack round's proposal streams and a defended batch's
noise streams are seeded this way. It runs SeedSequence's hashing as a fixed
number of numpy calls over all the seeds, so it costs more than
``default_rng`` for one stream and less per stream from about six on
(33 µs for one, 4.5 µs each for 12 and 1.6 µs each for 128, against 8.9 µs,
on one core of a 2-vCPU Xeon VM). ``propose`` called alone and
``derive_noise_rng`` seed their one stream with ``default_rng``.
"""

import hashlib
from typing import Iterator, Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence


def stable_seed(*parts: object) -> int:
    """Collapse arbitrary labels into a stable 64-bit seed."""
    text = "\x1f".join(str(p) for p in parts)
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def derive_rng(*parts: object) -> np.random.Generator:
    """Fresh numpy generator keyed by the given labels."""
    return np.random.default_rng(stable_seed(*parts))


# numpy's SeedSequence (NEP 19) hashes a seed's 32-bit words into a pool of
# four words, mixes the pool, and hashes it into the words PCG64 seeds from.
# Each hash step takes the next constant of a fixed multiplicative sequence
# that never depends on the seed, so the whole hash is uint32 arithmetic over
# all seeds at once. Array arithmetic wraps without a warning.
def _hash_constants(init: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The sequence's constant before and after each of ``count`` steps, as
    two ``(count, 1)`` uint32 columns."""
    seq = [init]
    for _ in range(count):
        seq.append(seq[-1] * mult & 0xFFFFFFFF)
    col = np.array(seq, dtype=np.uint32)[:, None]
    return col[:-1], col[1:]


def _hashmix(words: np.ndarray, before: np.ndarray, after: np.ndarray) -> np.ndarray:
    words = (words ^ before) * after
    return words ^ (words >> 16)


_ENTROPY = _hash_constants(0x43B0D7E5, 0x931E8875, 16)  # 4 to fill the pool, 12 to mix it
_STATE = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)  # 8 output words, 4 uint64
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _mix_constants() -> list[tuple[np.ndarray, np.ndarray]]:
    """Per pool word s, the ``(4, 1)`` columns of constants that mix s into
    each other word, in numpy's order; row s is a placeholder, as word s
    keeps its value."""
    mixes = []
    for s in range(4):
        others = [d for d in range(4) if d != s]
        cols = (np.zeros((4, 1), dtype=np.uint32), np.zeros((4, 1), dtype=np.uint32))
        for col, consts in zip(cols, _ENTROPY):
            col[others] = consts[4 + 3 * s : 7 + 3 * s]
        mixes.append(cols)
    return mixes


_MIXES = _mix_constants()


class _HashedSeed(ISeedSequence):
    """The four uint64 words ``SeedSequence(seed).generate_state(4,
    np.uint64)`` gives, already computed: all that PCG64 asks of its seed."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return self.words


def default_rngs(seeds: Sequence[int]) -> Iterator[np.random.Generator]:
    """``np.random.default_rng(s)`` for each of the seeds, bit for bit, for
    seeds in [0, 2**64) such as ``stable_seed`` gives. SeedSequence's hashing
    runs once over all the seeds, at the call; each generator is made fresh
    as the iterator reaches it, so a caller that uses one at a time holds
    one at a time."""
    seeds = np.array(seeds, dtype=np.uint64)
    # A seed is at most two 32-bit words, low first; the pool's missing
    # words hash as zeros.
    pool = np.zeros((4, len(seeds)), dtype=np.uint32)
    pool[0] = seeds & 0xFFFFFFFF
    pool[1] = seeds >> 32
    before, after = _ENTROPY
    pool = _hashmix(pool, before[:4], after[:4])
    for s, (mix_before, mix_after) in enumerate(_MIXES):
        kept = pool[s].copy()
        mixed = pool * _MIX_L - _hashmix(kept, mix_before, mix_after) * _MIX_R
        pool = mixed ^ (mixed >> 16)
        pool[s] = kept
    words = _hashmix(np.concatenate([pool, pool]), *_STATE)
    state = np.ascontiguousarray((words[1::2].astype(np.uint64) << 32 | words[0::2]).T)
    return (np.random.Generator(np.random.PCG64(_HashedSeed(row))) for row in state)
