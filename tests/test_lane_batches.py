"""Cross-checks of the lane-batched paths against one word or one trial at a time.

``lampirs.rng`` mixes many words at once in 128-bit lanes of one int, and
``SplitMix64`` computes its words ahead into a doubling buffer.  The lane
constants of a run of count words (ones, the gamma*(j+1) steps and the lane
mask) are kept in a bounded cache, and ``StreamBatches`` builds the
constants of a run of batches once; a golden digest, recorded before any
of these existed, pins the words of every batched path, and the streams
are checked again after the cache has evicted and refilled, on runs of
many batches and on one batch of many labels, on smaller batches of one
set of constants, and on byteswapped words against a warm cache.
``splice_measures`` derives a batch of trial keys and their words at once,
counts each trial's majority mask with lane popcounts, one 64-bit lane per
trial, draws no index for a marginal of one atom, and replays a trial on
its own stream when an index draw is rejected;
``majority_invariance_estimate`` counts its hits on the same lanes.  The
references are the test-local ``RefStream`` and per-trial loops of
``test_montecarlo_crosscheck``, which mix one word at a time, and for the
popcount and the mask kernel ``int.bit_count`` per lane and per trial.
The trial counts cross batch and buffer edges, a measure with probability
denominator 2^63 + 1 rejects about half of all index draws, and the
sampler's integer trial keys are checked on phases with different block
counts.  The big-endian branch of the lane conversions and of the lane
read-back runs on byteswapped words.
"""

import hashlib
import struct
from array import array
from fractions import Fraction

import pytest

import lampirs.rng
from lampirs.irs import (
    BATCH_WORDS,
    SubgroupMeasure,
    _block_pieces,
    _majority_lanes,
    _majority_masks,
    majority_invariance_estimate,
    sampler_law_report,
    splice_measures,
)
from lampirs.rng import (
    BUFFER_CAP,
    SplitMix64,
    StreamBatches,
    _from_lanes,
    _lane_mask,
    _mix_lanes,
    _run_lanes,
    _to_lanes,
    derive_seed,
    extend_seed,
    int_to_words,
    popcount_lanes,
    word_lanes,
    words_to_int,
)
from lampirs.submodules import PRINTABLE_BITS, Submodule
from test_montecarlo_crosscheck import (
    GAMMA,
    MASK,
    RefStream,
    assert_same_distribution,
    measures,
    ref_majority,
    ref_mix,
    ref_sampler_report,
    ref_splice,
)

EDGE_WORDS = [0, 1, 2**63, MASK, GAMMA]
GOLDEN_SEEDS = (0, 2**64 - 1, 2**64 + 9, -7)
GOLDEN_LENGTHS = (1, 2, 3, 1023, 1024, 1025)
# (words, keys): both sides of count <= len(keys)
GOLDEN_SHAPES = [(1, 1), (1, 5), (3, 7), (7, 7), (7, 3), (70, 2), (2, 70), (1023, 2), (3, 1025)]
# sha256 of the little-endian words of golden_words(), recorded while every
# batch built its lane tables on each call
GOLDEN_WORDS_SHA256 = "396b7ce8f4d826ba9d0c90dbcc8064f05eee0c4bec88c9aa31615006e974489b"
REFILL_LENGTHS = [min(2**i, BUFFER_CAP) for i in range(13)]  # 1, 2, ..., BUFFER_CAP twice


def golden_words():
    """The word arrays of every batched path on the golden seeds and shapes."""
    for seed in GOLDEN_SEEDS:
        for n in GOLDEN_LENGTHS:
            yield StreamBatches(n, 1).words(array("Q", [seed & MASK]))
            yield StreamBatches(1, n).keys(seed, range(n))
            yield SplitMix64(seed).take(n)
            rng = SplitMix64(seed)
            yield [rng.u64() for _ in range(n)]
            bits = RefStream(seed).bits(64 * n - 1)
            yield struct.unpack("<%dQ" % n, bits.to_bytes(8 * n, "little"))
        for count, nkeys in GOLDEN_SHAPES:
            batches = StreamBatches(count, nkeys)
            yield batches.words(batches.keys(seed, range(nkeys)))


def golden_digest():
    digest = hashlib.sha256()
    for words in golden_words():
        digest.update(struct.pack("<%dQ" % len(words), *words))
    return digest.hexdigest()


def assert_refills_match_reference(seed):
    """A stream read one refill at a time, through every refill length, and
    past it, gives RefStream's words."""
    rng, ref = SplitMix64(seed), RefStream(seed)
    for size in REFILL_LENGTHS:
        assert list(rng.take(size)) == [ref.u64() for _ in range(size)]
    assert rng.u64() == ref.u64()


def lane_mix(words):
    words = array("Q", words)
    return list(_from_lanes(_mix_lanes(_to_lanes(words), _lane_mask(len(words))), len(words)))


class TestLaneMix:
    def test_edge_words_side_by_side(self):
        # each word's right shifts pull in the bits of the lane above it
        for words in (EDGE_WORDS, EDGE_WORDS[::-1], [MASK] * 3 + [0] + [MASK]):
            assert lane_mix(words) == [ref_mix(w) for w in words]

    @pytest.mark.parametrize("word", EDGE_WORDS)
    def test_edge_word_alone(self, word):
        assert lane_mix([word]) == [ref_mix(word)]

    def test_seed_folds_match_scalar_fold(self):
        for seed in (0, 7, MASK, 2**64 + 9, -7):
            prefix = derive_seed(seed, 201)
            keys = StreamBatches(1, 3000).keys(prefix, range(3000))
            ref = RefStream(seed)
            assert list(keys) == [ref.fork(201, t).state for t in range(3000)]

    @pytest.mark.parametrize("count, nkeys", [(1, 1), (3, 7), (7, 3), (70, 2), (1, 300)])
    def test_batch_words_are_each_streams_start(self, count, nkeys):
        keys = array("Q", [(GAMMA * (i + 3) ** 5) & MASK for i in range(nkeys - 1)] + [MASK])
        words = StreamBatches(count, nkeys).words(keys)
        expected = []
        for key in keys:
            ref = RefStream(key)
            expected.extend(ref.u64() for _ in range(count))
        assert list(words) == expected


class TestGoldenWords:
    def test_words_match_golden_digest(self):
        assert golden_digest() == GOLDEN_WORDS_SHA256

    def test_refills_match_reference_after_eviction(self):
        for seed in GOLDEN_SEEDS:
            assert_refills_match_reference(seed)
        # maxsize odd lengths from 3 on, which no refill uses, evict every
        # refill length
        maxsize = _run_lanes.cache_info().maxsize
        for count in range(3, 3 + 2 * maxsize, 2):
            StreamBatches(count, 2).words(array("Q", [7, 9]))
        misses = _run_lanes.cache_info().misses
        for seed in GOLDEN_SEEDS:
            assert_refills_match_reference(seed)
        # built again once each, then reused
        assert _run_lanes.cache_info().misses == misses + len(set(REFILL_LENGTHS))
        assert golden_digest() == GOLDEN_WORDS_SHA256


def ref_words(keys, count):
    words = []
    for key in keys:
        ref = RefStream(key)
        words.extend(ref.u64() for _ in range(count))
    return words


class TestRunLaneCache:
    def test_bounded_and_keyed_by_run_length(self):
        _run_lanes.cache_clear()
        maxsize = _run_lanes.cache_info().maxsize
        # a refill and a batch of many keys of the same length share one
        # entry, and a fold reads none
        SplitMix64(5).u64()
        StreamBatches(1, 3).words(array("Q", [1, 2, 3]))
        batches = StreamBatches(1, 1)
        batches.words(array("Q", [4]))
        batches.keys(5, range(1))
        info = _run_lanes.cache_info()
        assert (info.currsize, info.misses, info.hits) == (1, 1, 2)
        for count in range(2, 2 * maxsize + 2):
            StreamBatches(count, 1).words(array("Q", [count]))
        info = _run_lanes.cache_info()
        assert info.currsize <= info.maxsize
        for count in (1, 5, 40, BUFFER_CAP):
            ones, steps, step_bytes, mask = _run_lanes(count)
            assert all(type(v) is int for v in (ones, steps, mask))
            assert type(step_bytes) is bytes
            assert int.from_bytes(step_bytes, "little") == steps
            for j in range(count):
                lane = slice(16 * j, 16 * (j + 1))
                assert int.from_bytes(step_bytes[lane], "little") == GAMMA * (j + 1)
            assert ones * MASK == mask

    def test_folds_of_ranges_match_scalar_folds(self):
        # ranges from 0 and not, the same range again under other keys, and
        # ranges that overlap: every fold is the scalar one
        ranges = [range(0, 50), range(50, 90), range(0, 50), range(25, 75), range(3, 4), range(49, 51)]
        batches = StreamBatches(1, 50)
        for key in (0, 7, MASK, GAMMA):
            for labels in ranges:
                assert list(batches.keys(key, labels)) == [extend_seed(key, t) for t in labels]

    def test_folds_past_many_batches_and_labels(self):
        # more than 32 batches in one run, the last one smaller, and one
        # batch of more than 2,048 labels
        key = derive_seed(41, 11)
        batches, trials = StreamBatches(3, 40), 40 * 33 + 17
        for first in range(0, trials, 40):
            labels = range(first, min(first + 40, trials))
            assert list(batches.keys(key, labels)) == [extend_seed(key, t) for t in labels]
        labels = range(5, 5 + 2100)
        keys = StreamBatches(1, len(labels)).keys(key, labels)
        assert list(keys) == [extend_seed(key, t) for t in labels]

    @pytest.mark.parametrize("count, nkeys", [(1, 1), (3, 5), (6, 9), (70, 2)])
    def test_smaller_batches_on_one_set_of_constants(self, count, nkeys):
        # the constants of nkeys keys serve every batch of fewer keys
        batches = StreamBatches(count, nkeys)
        for first, n in [(0, nkeys), (nkeys, nkeys), (3, nkeys - 1), (9, 1), (2, 0)]:
            labels = range(first, first + n)
            keys = batches.keys(GAMMA, labels)
            assert list(keys) == [extend_seed(GAMMA, t) for t in labels]
            assert list(batches.words(keys)) == ref_words(keys, count)
            assert batches.keys(GAMMA, array("Q", labels)) == keys

    def test_big_endian_words_on_warm_cache(self, monkeypatch):
        keys = array("Q", [5, MASK, GAMMA])
        lengths = [1, 3, 70, BUFFER_CAP]
        native = [StreamBatches(n, 3).words(keys) for n in lengths]
        folds = [StreamBatches(1, n).keys(9, range(n)) for n in lengths]
        taken = SplitMix64(9).take(3 * BUFFER_CAP)
        misses = _run_lanes.cache_info().misses

        def swapped(words):
            words = array("Q", words)
            words.byteswap()
            return words

        # a big-endian host holds each word's bytes the other way round
        monkeypatch.setattr(lampirs.rng, "_BIG_ENDIAN", True)
        for n, words, folded in zip(lengths, native, folds):
            assert StreamBatches(n, 3).words(swapped(keys)) == swapped(words)
            assert StreamBatches(1, n).keys(9, swapped(range(n))) == swapped(folded)
        assert SplitMix64(9).take(3 * BUFFER_CAP) == swapped(taken)
        # every run length was served from the cache
        assert _run_lanes.cache_info().misses == misses


class TestLaneReadBack:
    @pytest.mark.parametrize("row", [1, 3, 6])
    def test_big_endian_branch(self, monkeypatch, row):
        # coin word j of every trial becomes one int, and the keys come back
        # from an int of one lane per trial
        words = StreamBatches(4 * row, 3).words(array("Q", [5, MASK, GAMMA]))
        columns = [words_to_int(words[j::row]) for j in range(row)]
        native_lanes = _to_lanes(words)
        for j, column in enumerate(columns):
            assert list(int_to_words(column, 12)) == list(words[j::row])
            assert column == sum(w << 64 * t for t, w in enumerate(words[j::row]))
        # a big-endian host holds each word's bytes the other way round
        swapped = array("Q", words)
        swapped.byteswap()
        monkeypatch.setattr(lampirs.rng, "_BIG_ENDIAN", True)
        assert [words_to_int(swapped[j::row]) for j in range(row)] == columns
        for j, column in enumerate(columns):
            assert int_to_words(column, 12) == swapped[j::row]
        assert _to_lanes(swapped) == native_lanes
        assert _from_lanes(native_lanes, len(words)) == swapped

    def test_read_back_keeps_every_lane(self):
        # the top lane is read back even when it is 0, and no lane spills
        assert list(int_to_words(MASK | 7 << 128, 4)) == [MASK, 0, 7, 0]
        with pytest.raises(OverflowError):
            int_to_words(1 << 128, 2)


def lanes_of(x, count):
    return [(x >> 64 * t) & MASK for t in range(count)]


def coin_trials(n_ai, width, seed):
    """Coin words of trials whose windows sit at and around half ones."""
    words = -(-(width - 1 + n_ai) // 64)
    half = n_ai // 2
    ref = RefStream(seed)
    coins = [
        0,
        (1 << 64 * words) - 1,
        int.from_bytes(b"\x55" * 8 * words, "little"),  # odd n_ai: half + 1, half, ... ones
        int.from_bytes(b"\xaa" * 8 * words, "little"),
        (1 << half) - 1,  # cell 0 holds exactly half
        (1 << half + 1) - 1,  # cell 0 holds half + 1, cell 1 half
        ((1 << half) - 1) << width,
        ((1 << half + 1) - 1) << width - 1,
    ]
    coins += [ref.bits(64 * words) for _ in range(5)]
    return [[(c >> 64 * j) & MASK for j in range(words)] for c in coins]


def ref_masks(trials, n_ai, width):
    """Each trial's majority mask, one ``bit_count`` per cell."""
    masks = []
    for trial in trials:
        coins = sum(w << 64 * j for j, w in enumerate(trial))
        window = (1 << n_ai) - 1
        masks.append(
            sum(1 << c for c in range(width) if (coins >> c & window).bit_count() > n_ai // 2)
        )
    return masks


class TestLanePopcount:
    EDGES = [0, MASK, 2**63, 0x5555555555555555, 0xAAAAAAAAAAAAAAAA, 1, GAMMA]

    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_matches_bit_count_per_lane(self, count):
        _, masks = word_lanes(count)
        for t in range(len(self.EDGES) ** count):
            lanes = [self.EDGES[t // len(self.EDGES) ** i % len(self.EDGES)] for i in range(count)]
            x = words_to_int(array("Q", lanes))
            assert lanes_of(popcount_lanes(x, masks), count) == [w.bit_count() for w in lanes]

    def test_masks_for_more_lanes(self):
        # masks built for more lanes than x count x exactly
        _, masks = word_lanes(5)
        x = words_to_int(array("Q", [MASK, 2**63, 0]))
        assert popcount_lanes(x, masks) == 64 | 1 << 64


class TestMajorityMaskKernel:
    @pytest.mark.parametrize("n_ai", [1, 63, 64, 65, 4097, PRINTABLE_BITS])
    def test_matches_per_trial_bit_counts(self, n_ai):
        for width in range(1, 25):
            trials = coin_trials(n_ai, width, n_ai * 100 + width)
            expected = ref_masks(trials, n_ai, width)
            # one lane per trial; ones of more lanes than the batch leave the
            # lanes past it at 0
            columns = [words_to_int(array("Q", column)) for column in zip(*trials)]
            for count in (len(trials), len(trials) + 3):
                got = _majority_masks(columns, n_ai, width, _majority_lanes(n_ai, count))
                assert lanes_of(got, count) == expected + [0] * (count - len(trials))
            # the replay path: one trial on one lane
            for trial, mask in zip(trials, expected):
                assert _majority_masks(trial, n_ai, width, _majority_lanes(n_ai, 1)) == mask


class TestBufferedStream:
    def test_mixed_reads_across_refills(self):
        rng, ref = SplitMix64(2024), RefStream(2024)
        read = 0
        step = 0
        while read < 3 * BUFFER_CAP + 100:
            step += 1
            kind = step % 4
            if kind == 0:
                assert rng.u64() == ref.u64()
                read += 1
            elif kind == 1:
                n = (step * 7919) % 1000 + 1
                assert rng.below(n) == ref.below(n)
                read += 1
            elif kind == 2:
                k = (step * 37) % 300
                assert words_to_int(rng.take(-(-k // 64))) & ((1 << k) - 1) == ref.bits(k)
                read += -(-k // 64)
            else:
                count = step % 90
                assert list(rng.take(count)) == [ref.u64() for _ in range(count)]
                read += count
        assert rng.u64() == ref.u64()

    def test_rejection_heavy_bound(self):
        rng, ref = SplitMix64(11), RefStream(11)
        for _ in range(500):
            assert rng.below(2**63 + 1) == ref.below(2**63 + 1)
        assert rng.u64() == ref.u64()


def rare_full_mixture():
    """Full lamps with probability 1/(2^63 + 1): every draw below 2^63 + 1."""
    den = 2**63 + 1
    return SubgroupMeasure.mixture(
        [(Fraction(1, den), Submodule.full(1, 2)), (Fraction(den - 1, den), Submodule.zero(1, 2))]
    )


def splice_agrees(mu1, mu2, n_ai, lo, hi, trials, seed):
    got = splice_measures(mu1, mu2, n_ai, lo, hi, trials, seed)
    ref = ref_splice(mu1, mu2, n_ai, lo, hi, trials, seed)
    assert_same_distribution(got[0], ref[0])
    assert_same_distribution(got[1], ref[1])
    assert got[2] == ref[2]


def sampler_agrees(mu, m, lo, hi, trials, seed):
    got = sampler_law_report(mu, m, lo, hi, trials, seed)
    ref = ref_sampler_report(mu, m, lo, hi, trials, seed)
    assert_same_distribution(got.pop("empirical"), ref.pop("empirical"))
    assert_same_distribution(got.pop("exact"), ref.pop("exact"))
    assert got == ref


class TestBatchEdges:
    def test_splice_across_batches(self):
        # six words a trial: 682 trials a batch, so 2,500 trials make 4 batches
        assert BATCH_WORDS // 6 < 2500
        splice_agrees(measures()["mix3"], measures()["period2"], 201, 0, 2, 2500, 99)

    def test_splice_long_majority_word(self):
        # 67 words a trial leave 61 trials a batch
        splice_agrees(measures()["line"], measures()["mix3"], 4097, 0, 0, 150, 4097)

    def test_sampler_across_refills(self):
        sampler_agrees(measures()["mix3"], 4, -1, 2, 2500, 8)

    def test_sampler_keys_with_unequal_block_counts(self):
        # phases tile [-1, 3] with 2 and 3 blocks of three atoms each, so the
        # trial keys have every digit
        mu, m, lo, hi = measures()["mix3"], 3, -1, 3
        block_law = mu.marginal(0, m - 1)
        assert len(block_law.ordered_atoms()) >= 3
        blocks = {len(_block_pieces(block_law, m, lo, hi, k)) for k in range(m)}
        assert blocks == {2, 3}
        sampler_agrees(mu, m, lo, hi, 3000, 23)

    @pytest.mark.parametrize("n_ai", [11, 201, 4097])
    def test_majority_across_batches(self, n_ai):
        trials = 2500 if n_ai < 4097 else 150
        assert majority_invariance_estimate(n_ai, trials, n_ai) == ref_majority(n_ai, trials, n_ai)


class TestRejectionHeavy:
    def test_splice_replays_rejected_trials(self):
        mu = rare_full_mixture()
        seed = 31
        limit = 2**64 - 2**64 % (2**63 + 1)
        ref = RefStream(seed)
        first_words = [ref.fork(11, t).u64() for t in range(400)]
        # the replay path runs: about half of the trials reject a first draw
        assert 100 < sum(u >= limit for u in first_words) < 300
        splice_agrees(mu, measures()["mix3"], 11, 0, 1, 400, seed)
        splice_agrees(measures()["line"], mu, 11, -1, 1, 400, seed + 1)

    @pytest.mark.parametrize("trials", [600, 1000])
    def test_sampler_rejection_loop(self, trials):
        # about 5 words a trial: 1,000 trials read past the first BATCH_WORDS
        sampler_agrees(rare_full_mixture(), 2, 0, 2, trials, 17)


class TestOneAtomMarginal:
    # a marginal of one atom draws no index from its word; the word is read
    # past all the same, on the first side, the second or both
    @pytest.mark.parametrize("first, second", [("line", "mix3"), ("mix3", "full"), ("full", "line")])
    @pytest.mark.parametrize("n_ai", [11, 201])
    def test_splice_matches_reference(self, first, second, n_ai):
        mu1, mu2 = measures()[first], measures()[second]
        dens = [mu.marginal(0, 1)._table()[0] for mu in (mu1, mu2)]
        assert 1 in dens
        splice_agrees(mu1, mu2, n_ai, 0, 1, 1500, n_ai + len(first))

    def test_replay_after_rejection_on_the_other_side(self):
        # about half of the trials reject their first draw and are replayed,
        # reading the one-atom marginal's word after the rejected ones
        ref = RefStream(37)
        limit = 2**64 - 2**64 % (2**63 + 1)
        assert 100 < sum(ref.fork(11, t).u64() >= limit for t in range(400)) < 300
        assert measures()["line"].marginal(-1, 1)._table()[0] == 1
        splice_agrees(rare_full_mixture(), measures()["line"], 11, -1, 1, 400, 37)
