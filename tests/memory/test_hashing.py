"""Tests for address hashing (section 3.1.4)."""

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from repro.memory.hashing import (
    BlockedTranslation,
    HashedTranslation,
    InterleavedTranslation,
    make_translation,
    module_load_profile,
)


class TestBijection:
    """A translation that aliases addresses corrupts memory; all three
    schemes must be exact bijections on their covered range."""

    @pytest.mark.parametrize("scheme", ["interleaved", "blocked", "hashed"])
    def test_round_trip_everywhere(self, scheme):
        translation = make_translation(scheme, 8, 32)
        seen = set()
        for address in range(translation.capacity):
            module, offset = translation.translate(address)
            assert 0 <= module < 8
            assert 0 <= offset < 32
            assert (module, offset) not in seen
            seen.add((module, offset))
            assert translation.untranslate(module, offset) == address

    @pytest.mark.parametrize("scheme", ["interleaved", "blocked", "hashed"])
    def test_translate_many_is_translate_everywhere(self, scheme):
        translation = make_translation(scheme, 8, 32)
        addresses = list(range(translation.capacity))
        cells = translation.translate_many(addresses)
        assert cells == [translation.translate(a) for a in addresses]
        assert len(set(cells)) == translation.capacity
        assert translation.translate_many([]) == []

    @pytest.mark.parametrize("scheme", ["interleaved", "blocked", "hashed"])
    @settings(max_examples=50, deadline=None)
    @given(addresses=st.lists(st.integers(0, 8 * 1024 - 1), max_size=40))
    def test_translate_many_property(self, scheme, addresses):
        translation = make_translation(scheme, 8, 1024)
        cells = translation.translate_many(addresses)
        assert cells == [translation.translate(a) for a in addresses]
        assert [translation.untranslate(*cell) for cell in cells] == addresses

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 8 * 1024 - 1))
    def test_hashed_round_trip_property(self, address):
        translation = HashedTranslation(8, 1024)
        module, offset = translation.translate(address)
        assert translation.untranslate(module, offset) == address


class TestHotspotSpreading:
    def test_interleaved_fails_on_module_stride(self):
        """Stride = number of modules: everything lands on one module —
        'these N requests are serviced one at a time'."""
        translation = InterleavedTranslation(8, 64)
        addresses = [i * 8 for i in range(32)]
        profile = module_load_profile(translation, addresses)
        assert max(profile) == 32  # total concentration

    def test_hashing_spreads_module_stride(self):
        translation = HashedTranslation(8, 64)
        addresses = [i * 8 for i in range(32)]
        profile = module_load_profile(translation, addresses)
        assert max(profile) <= 12  # near-uniform (ideal = 4)

    def test_blocked_concentrates_contiguous_array(self):
        translation = BlockedTranslation(8, 64)
        addresses = list(range(40))  # one array in module 0
        profile = module_load_profile(translation, addresses)
        assert profile[0] == 40

    def test_hashing_spreads_contiguous_array(self):
        translation = HashedTranslation(8, 64)
        addresses = list(range(40))
        profile = module_load_profile(translation, addresses)
        assert max(profile) <= 12

    @pytest.mark.parametrize("stride", [1, 2, 4, 8, 16, 3, 5, 7])
    def test_hashing_tolerates_any_small_stride(self, stride):
        translation = HashedTranslation(16, 256)
        addresses = [(i * stride) % translation.capacity for i in range(160)]
        profile = module_load_profile(translation, addresses)
        assert max(profile) <= 40  # ideal = 10; allow generous slack


class TestValidation:
    def test_out_of_range_rejected(self):
        translation = InterleavedTranslation(4, 4)
        with pytest.raises(ValueError):
            translation.translate(16)
        with pytest.raises(ValueError):
            translation.translate(-1)

    @pytest.mark.parametrize("scheme", ["interleaved", "blocked", "hashed"])
    @pytest.mark.parametrize("bad", [-1, 16])
    def test_translate_many_rejects_out_of_range(self, scheme, bad):
        """One address outside the capacity rejects the batch with the
        error :meth:`translate` raises for it."""
        translation = make_translation(scheme, 4, 4)
        with pytest.raises(ValueError, match=f"virtual address {bad} outside"):
            translation.translate_many([0, 5, bad, 15])

    def test_hashed_requires_power_of_two(self):
        with pytest.raises(ValueError, match="power-of-two"):
            HashedTranslation(3, 5)

    def test_factory_unknown_scheme(self):
        with pytest.raises(ValueError, match="unknown translation"):
            make_translation("bogus", 4, 4)

    def test_bad_dimensions(self):
        with pytest.raises(ValueError):
            InterleavedTranslation(0, 4)
