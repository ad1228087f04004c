"""numpy's default_rng seeding, vectorised over many seeds.

``np.random.default_rng(s)`` hashes the seed through ``SeedSequence`` into
a PCG64 state, which costs tens of microseconds per seed.  ``generators``
computes ``SeedSequence(s).generate_state(4, np.uint64)`` for all seeds in
one pass of uint32 array arithmetic and hands each row to PCG64 through a
``SeedState`` adapter: the Generators draw exactly the streams
``default_rng`` would, at a few microseconds each.
"""

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx).
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def pcg64_seed_states(seeds):
    """SeedSequence(s).generate_state(4, np.uint64) for every 64-bit seed s, as (R, 4).

    A seed below 2**64 enters as its low and high uint32 words (a zero high
    word hashes like a missing one, since the pool of 4 words is filled
    with hashed zeros), the pool is mixed, and 8 uint32 output words are
    paired little-endian into 4 uint64.  uint32 arrays wrap like the C code.
    """
    s = np.array(seeds, dtype=np.uint64)
    words = [s.astype(np.uint32), (s >> np.uint64(32)).astype(np.uint32)]
    words += [np.zeros_like(words[0]), np.zeros_like(words[0])]
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = (const * _MULT_A) & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))

    pool = [hashmix(w) for w in words]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = np.uint32(_MIX_L) * pool[dst] - np.uint32(_MIX_R) * hashmix(pool[src])
                pool[dst] = mixed ^ (mixed >> np.uint32(16))
    out = np.empty((s.size, 8), dtype=np.uint32)
    const = _INIT_B
    for k in range(8):
        value = pool[k % 4] ^ np.uint32(const)
        const = (const * _MULT_B) & _MASK32
        value = value * np.uint32(const)
        out[:, k] = value ^ (value >> np.uint32(16))
    return out.astype("<u4").view("<u8").astype(np.uint64)


class SeedState(ISeedSequence):
    """A precomputed PCG64 seed state in SeedSequence's place.

    PCG64 asks its seed sequence for exactly 4 uint64 words; any other
    request means numpy seeds differently from what pcg64_seed_states
    reproduces, and raises instead of silently changing a stream.
    """

    def __init__(self, state):
        self._state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise RuntimeError(
                f"unexpected seed request ({n_words}, {np.dtype(dtype)}); "
                "only (4, uint64) is precomputed"
            )
        return self._state


def generators(seeds):
    """A Generator per seed, each with np.random.default_rng(seed)'s stream.

    The states come from one vectorised pass; each Generator is built only
    when the iterator reaches it, so the sequence can be read once.
    """
    return (np.random.Generator(np.random.PCG64(SeedState(row)))
            for row in pcg64_seed_states(seeds))
