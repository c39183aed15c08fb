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

from .errors import DomainError

MASK64 = (1 << 64) - 1
_SPAN = MASK64 + 1
_GAMMA = 0x9E3779B97F4A7C15


def mix64(z):
    """SplitMix64 finalizer on a 64-bit word."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def derive_seed(seed, *labels):
    """Fold integer labels into a seed, giving an independent substream key."""
    return extend_seed(mix64(seed ^ _GAMMA), *labels)


def extend_seed(key, *labels):
    """Fold further labels into a derived key.

    ``extend_seed(derive_seed(s, *a), *b) == derive_seed(s, *a, *b)``, so a
    loop over one label can fold the common prefix once.
    """
    for label in labels:
        key = mix64(key ^ mix64(label & MASK64) ^ _GAMMA)
    return key


class SplitMix64:
    """Sequential SplitMix64 stream."""

    __slots__ = ("_state",)

    def __init__(self, seed):
        self._state = seed & MASK64

    def u64(self):
        self._state = (self._state + _GAMMA) & MASK64
        return mix64(self._state)

    def below(self, n):
        """Uniform integer in [0, n), unbiased via rejection, for 1 <= n <= 2^64."""
        if not 0 < n <= _SPAN:
            # above 2^64 no 64-bit draw is below the rejection limit
            raise DomainError(f"bound must be in [1, 2^64], got {n}")
        # Largest multiple of n that fits in 64 bits; reject draws above it.
        limit = _SPAN - _SPAN % n
        while True:
            u = self.u64()
            if u < limit:
                return u % n

    def bits(self, k):
        """k fair bits packed into an int (bit i of the result = i-th draw)."""
        out = 0
        for filled in range(0, k, 64):
            out |= self.u64() << filled
        return out & ((1 << k) - 1)
