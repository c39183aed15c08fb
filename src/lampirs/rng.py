"""Deterministic pseudo-randomness for every stochastic operation.

The package uses a single named generator, SplitMix64 (Steele, Lea and
Flood's 64-bit mixer), so that seeded runs reproduce byte-for-byte across
platforms and Python versions.  State update:

    state <- (state + 0x9E3779B97F4A7C15) mod 2^64
    output = mix(state)

where ``mix`` is the standard xor-shift/multiply finalizer.  Independent
substreams are derived by folding integer labels through the same mixer,
so e.g. trial i of a Monte Carlo run with master seed s draws from the
stream keyed (s, command-label, i).
"""

MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def mix64(z):
    """SplitMix64 finalizer on a 64-bit word."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def derive_seed(seed, *labels):
    """Fold integer labels into a seed, giving an independent substream key."""
    acc = mix64(seed ^ _GAMMA)
    for label in labels:
        acc = mix64(acc ^ mix64(label & MASK64) ^ _GAMMA)
    return acc


class SplitMix64:
    """Sequential SplitMix64 stream."""

    __slots__ = ("_state",)

    def __init__(self, seed):
        self._state = seed & MASK64

    def u64(self):
        self._state = (self._state + _GAMMA) & MASK64
        return mix64(self._state)

    def below(self, n):
        """Uniform integer in [0, n), unbiased via rejection."""
        if n <= 0:
            raise ValueError("bound must be positive")
        # Largest multiple of n that fits in 64 bits; reject draws above it.
        limit = (MASK64 + 1) - ((MASK64 + 1) % n)
        while True:
            u = self.u64()
            if u < limit:
                return u % n

    def bits(self, k):
        """k fair bits packed into an int (bit i of the result = i-th draw)."""
        out = 0
        filled = 0
        while filled < k:
            take = min(64, k - filled)
            word = self.u64() & ((1 << take) - 1)
            out |= word << filled
            filled += take
        return out

    def fork(self, *labels):
        """Independent substream keyed by integer labels (state unaffected)."""
        return SplitMix64(derive_seed(self._state, *labels))
