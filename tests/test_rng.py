"""SplitMix64 streams: reference outputs and the seed-derivation fold."""

import pytest

from lampirs.errors import DomainError
from lampirs.rng import MASK64, SplitMix64, derive_seed, extend_seed


class TestKnownAnswers:
    def test_seed_zero_matches_reference_generator(self):
        rng = SplitMix64(0)
        assert [rng.u64() for _ in range(3)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]


class TestBelow:
    def test_bound_two_to_the_64_takes_the_word(self):
        assert SplitMix64(0).below(2**64) == 0xE220A8397B1DCDAF

    @pytest.mark.parametrize("n", [0, -1, 2**64 + 1])
    def test_bound_out_of_range_rejected(self, n):
        with pytest.raises(DomainError):
            SplitMix64(0).below(n)


class TestSeedDerivation:
    @pytest.mark.parametrize("seed", [0, 1, 12345, MASK64, 2**64 + 7, -3])
    def test_prefix_then_extend(self, seed):
        # seeds outside [0, 2^64) fold as their residue mod 2^64
        assert derive_seed(seed, 5) == derive_seed(seed & MASK64, 5)
        for a in (0, 1, 11, 201, MASK64):
            prefix = derive_seed(seed, a)
            for b in (0, 1, 2, 999, 10**6):
                assert extend_seed(prefix, b) == derive_seed(seed, a, b)
                assert extend_seed(derive_seed(seed), a, b) == derive_seed(seed, a, b)

    def test_no_labels_is_identity(self):
        assert extend_seed(derive_seed(5, 3), *()) == derive_seed(5, 3)
