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

Word j of the stream seeded s is mix((s + (j + 1) * gamma) mod 2^64), so
words can be computed many at a time.  The mixer runs on lanes: one Python
int holds k words, word i in the low half of the 128-bit lane at bit 128*i,
and ``mix`` becomes a fixed number of big-int shifts, xors, masks and
multiplies over all k lanes at once.  A lane's 64x64-bit product fits in
its 128 bits; the bits a right shift pulls in from the lane above land at
or above bit 64 of the lane, and the lane mask clears them.  Words travel
in and out of lanes through ``array('Q')`` and ``int.from_bytes`` /
``int.to_bytes`` in little-endian order; a big-endian host byte-swaps the
array, so the lanes are the same on every platform.

A run of count words needs lane constants that depend on count alone: a 1
in every lane, the steps gamma*(j+1) in lane j (as an int and as
little-endian bytes) and the lane mask.  ``_run_lanes`` builds them once
per run length and keeps the last 32 lengths.  A refill from one key has
the states (key*ones + steps) & mask.  A batch of many keys places each
key in its count lanes, one strided slice per word position, and adds the
steps repeated once per key; a fold of trial labels mixes the labels on
their lanes, XORs the key into every lane and mixes again.
``StreamBatches`` builds the ones, repeated steps and mask of its largest
batch once, and every batch of a run of batches, the last and smaller one
too, reads them; it keeps nothing from one run to the next.  The
``_run_lanes`` cache holds only ints and bytes, never host-order arrays.

Drawn words are counted on 64-bit lanes: ``words_to_int`` packs an
``array('Q')`` into one int, word i at bit 64*i, and ``int_to_words``
reads it back, little-endian as above.  ``popcount_lanes`` counts the ones
of every lane at once, with masks ``word_lanes`` builds for a lane count;
the caller keeps them.

``SplitMix64`` computes its next words into a buffer whose size doubles on
each refill, from 1 word up to ``BUFFER_CAP``, so a stream that reads k
words computes fewer than 2k.  ``StreamBatches`` gives the keys and the
first words of many substreams in one batch.  The stream
is unchanged: every word, and every draw made from the words, is the one
that mixing one word at a time gives.
"""

import sys
from array import array
from functools import lru_cache

from .errors import DomainError

MASK64 = (1 << 64) - 1
_SPAN = MASK64 + 1
_GAMMA = 0x9E3779B97F4A7C15
BUFFER_CAP = 1024  # words computed per SplitMix64 refill, at most
_LANE_MASK = b"\xff" * 8 + b"\x00" * 8  # one lane, little-endian: the low 64 bits
_ONE_LANE = b"\x01" + b"\x00" * 15  # one lane, little-endian: 1
# popcount_lanes' masks, per 64-bit lane: every other bit, pair and nibble, then the count
_POPCOUNT_PATTERNS = (0x5555555555555555, 0x3333333333333333, 0x0F0F0F0F0F0F0F0F, 0x7F)
_BIG_ENDIAN = sys.byteorder == "big"


def mix64(z):
    """SplitMix64 finalizer on a 64-bit word: :func:`_mix_lanes` on one lane."""
    return _mix_lanes(z & MASK64, MASK64)


def _little_endian(words):
    """``words`` as little-endian bytes (and back): byteswapped on a big-endian host."""
    if _BIG_ENDIAN:
        words = array("Q", words)
        words.byteswap()
    return words


def _to_lanes(words):
    """An ``array('Q')`` of words as one int, word i at bit 128*i."""
    lanes = array("Q", bytes(16 * len(words)))
    lanes[::2] = words
    return int.from_bytes(_little_endian(lanes), "little")


def _from_lanes(z, count):
    """The low 64 bits of the first count lanes of z, as an ``array('Q')``."""
    return _little_endian(array("Q", z.to_bytes(16 * count, "little")))[::2]


def _lane_mask(count):
    return int.from_bytes(_LANE_MASK * count, "little")


@lru_cache(maxsize=32)
def _run_lanes(count):
    """The lane constants of a run of count words: (ones, steps, step bytes, mask).

    Lane j of steps is gamma*(j+1), below 2^96, so a 64-bit key added to
    every lane stays in its lane; step bytes are steps in little-endian
    order, 16 bytes a lane.
    """
    steps = _GAMMA * _to_lanes(array("Q", range(1, count + 1)))
    ones = int.from_bytes(_ONE_LANE * count, "little")
    return ones, steps, steps.to_bytes(16 * count, "little"), _lane_mask(count)


def _mix_lanes(z, mask):
    """The SplitMix64 finalizer on every lane of z at once; every lane must
    be below 2^64."""
    z = (z ^ (z >> 30)) & mask
    z = (z * 0xBF58476D1CE4E5B9) & mask
    z = (z ^ (z >> 27)) & mask
    z = (z * 0x94D049BB133111EB) & mask
    return (z ^ (z >> 31)) & mask


def words_to_int(words):
    """The int whose 64-bit digit i is ``words[i]`` (an ``array('Q')``)."""
    return int.from_bytes(_little_endian(words), "little")


def int_to_words(x, count):
    """The count 64-bit digits of x, low first, as an ``array('Q')``: the
    inverse of :func:`words_to_int` for x below 2^(64*count)."""
    return _little_endian(array("Q", x.to_bytes(8 * count, "little")))


def word_lanes(count):
    """(ones, masks) for ints of at most count 64-bit lanes: ones holds 1 in
    every lane, and masks are the lane masks :func:`popcount_lanes` takes."""
    ones = int.from_bytes((b"\x01" + bytes(7)) * count, "little")
    return ones, tuple(pattern * ones for pattern in _POPCOUNT_PATTERNS)


def popcount_lanes(x, masks):
    """The number of ones of each 64-bit lane of x, in that lane: the SWAR
    popcount (Warren, *Hacker's Delight*, 5-1) with the masks of
    :func:`word_lanes` for at least x's lanes.  No field's sum overflows it,
    and what a right shift pulls in from the lane above is masked off or
    left in bytes 1-7, which the last mask clears."""
    m1, m2, m4, low = masks
    x -= (x >> 1) & m1
    x = (x & m2) + ((x >> 2) & m2)
    x = (x + (x >> 4)) & m4
    x += x >> 8
    x += x >> 16
    x += x >> 32
    return x & low


def below_limit(n):
    """Rejection limit for a uniform draw below n, for 1 <= n <= 2^64.

    The largest multiple of n that fits in 64 bits: a word u below it
    gives the draw u % n, and a word at or above it is rejected.
    """
    if not 0 < n <= _SPAN:
        # above 2^64 no 64-bit draw is below the rejection limit
        raise DomainError(f"bound must be in [1, 2^64], got {n}")
    return _SPAN - _SPAN % n


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


class StreamBatches:
    """Batches of at most nkeys substreams, read count >= 1 words from each.

    The lane constants of the largest batch are built once: ones in nkeys
    lanes, the steps of count words repeated nkeys times, and the lane mask
    of count*nkeys lanes, which also serves a fold of at most nkeys labels.
    Every key's lanes hold the same constants, so a batch of n keys takes
    the top n lanes of ones and the top n*count lanes of the steps, and the
    whole mask: ``&`` keeps the lanes of the shorter operand.
    """

    __slots__ = ("count", "_nkeys", "_ones", "_steps", "_mask")

    def __init__(self, count, nkeys):
        self.count = count
        self._nkeys = nkeys
        self._ones = int.from_bytes(_ONE_LANE * nkeys, "little")
        self._steps = int.from_bytes(_run_lanes(count)[2] * nkeys, "little")
        self._mask = _lane_mask(count * nkeys)

    def keys(self, key, labels):
        """``extend_seed(key, label)`` for each of at most nkeys labels in
        [0, 2^64), as an ``array('Q')``.

        labels is a ``range`` or an ``array('Q')``.
        """
        mixed = _mix_lanes(_to_lanes(array("Q", labels)), self._mask)
        count = len(labels)
        ones = self._ones >> 128 * (self._nkeys - count)
        return _from_lanes(_mix_lanes(mixed ^ ((key ^ _GAMMA) & MASK64) * ones, self._mask), count)

    def words(self, keys):
        """The first count words of ``SplitMix64(key)`` for each of at most
        nkeys keys (an ``array('Q')``): those of the first key, then those of
        the second, and so on, as an ``array('Q')``."""
        total = len(keys) * self.count
        lanes = array("Q", bytes(16 * total))
        for j in range(self.count):
            lanes[2 * j :: 2 * self.count] = keys
        steps = self._steps >> 128 * (self._nkeys * self.count - total)
        states = (int.from_bytes(_little_endian(lanes), "little") + steps) & self._mask
        return _from_lanes(_mix_lanes(states, self._mask), total)


class SplitMix64:
    """Sequential SplitMix64 stream, computed ahead into a buffer."""

    __slots__ = ("_state", "_buf", "_pos")

    def __init__(self, seed):
        # the state of the last word in the buffer; _buf[_pos] is read next
        self._state = seed & MASK64
        self._buf = array("Q")
        self._pos = 0

    def _refill(self):
        size = min(2 * len(self._buf) or 1, BUFFER_CAP)
        ones, steps, _, mask = _run_lanes(size)
        states = (self._state * ones + steps) & mask
        self._buf = _from_lanes(_mix_lanes(states, mask), size)
        self._state = (self._state + size * _GAMMA) & MASK64
        self._pos = 0

    def u64(self):
        if self._pos == len(self._buf):
            self._refill()
        self._pos += 1
        return self._buf[self._pos - 1]

    def take(self, count):
        """The next count words of the stream, as an ``array('Q')``."""
        out = self._buf[self._pos : self._pos + count]
        self._pos += len(out)
        while len(out) < count:
            self._refill()
            more = self._buf[: count - len(out)]
            self._pos = len(more)
            out += more
        return out

    def below(self, n):
        """Uniform integer in [0, n), unbiased via rejection, for 1 <= n <= 2^64."""
        limit = below_limit(n)
        while True:
            u = self.u64()
            if u < limit:
                return u % n
