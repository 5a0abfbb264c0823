"""Virtual-to-physical address hashing (section 3.1.4).

"A potential serial bottleneck is the memory module itself. ...
introducing a hashing function when translating the virtual address to a
physical address assures that this unfavorable situation occurs with
probability approaching zero as N increases."

A translation maps a flat virtual address to a (module, offset) pair.
Three schemes are provided:

* :class:`InterleavedTranslation` — low-order interleaving
  (``module = addr mod N``): the natural un-hashed layout, which
  performs perfectly on unit stride and catastrophically on stride N
  (the ablation baseline for the HASH experiment);
* :class:`BlockedTranslation` — high-order banking (``module = addr div
  words_per_module``): the layout that makes a single data structure a
  hot module;
* :class:`HashedTranslation` — a multiplicative (Fibonacci) hash that
  spreads any fixed reference pattern nearly uniformly across modules.

All translations are bijections on the covered address range, which the
property tests verify — a translation that aliased two virtual addresses
would corrupt memory, not just slow it down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


class AddressTranslation:
    """Base class: a bijective map virtual address -> (module, offset)."""

    def __init__(self, n_modules: int, words_per_module: int) -> None:
        if n_modules < 1 or words_per_module < 1:
            raise ValueError("n_modules and words_per_module must be positive")
        self.n_modules = n_modules
        self.words_per_module = words_per_module

    @property
    def capacity(self) -> int:
        return self.n_modules * self.words_per_module

    def _check(self, address: int) -> None:
        if not 0 <= address < self.capacity:
            raise ValueError(
                f"virtual address {address} outside capacity {self.capacity}"
            )

    def _check_many(self, addresses: Sequence[int]) -> None:
        """:meth:`_check` of every address, by one bounds test."""
        if addresses and not (0 <= min(addresses) and max(addresses)
                              < self.n_modules * self.words_per_module):
            for address in addresses:
                self._check(address)

    def translate(self, address: int) -> tuple[int, int]:
        raise NotImplementedError

    def translate_many(self, addresses: Sequence[int]
                       ) -> list[tuple[int, int]]:
        """:meth:`translate` of every address at once, as a list of
        (module, offset) cells (the PNIs translate a batch of requests
        with one call)."""
        raise NotImplementedError

    def untranslate(self, module: int, offset: int) -> int:
        raise NotImplementedError


class InterleavedTranslation(AddressTranslation):
    """Low-order interleaving: consecutive words on consecutive modules."""

    def translate(self, address: int) -> tuple[int, int]:
        self._check(address)
        return address % self.n_modules, address // self.n_modules

    def translate_many(self, addresses: Sequence[int]
                       ) -> list[tuple[int, int]]:
        self._check_many(addresses)
        n = self.n_modules
        return [(a % n, a // n) for a in addresses]

    def untranslate(self, module: int, offset: int) -> int:
        return offset * self.n_modules + module


class BlockedTranslation(AddressTranslation):
    """High-order banking: each module holds one contiguous block."""

    def translate(self, address: int) -> tuple[int, int]:
        self._check(address)
        return address // self.words_per_module, address % self.words_per_module

    def translate_many(self, addresses: Sequence[int]
                       ) -> list[tuple[int, int]]:
        self._check_many(addresses)
        w = self.words_per_module
        return [divmod(a, w) for a in addresses]

    def untranslate(self, module: int, offset: int) -> int:
        return module * self.words_per_module + offset


@dataclass(frozen=True)
class _FibonacciMixer:
    """Invertible multiplicative mixer modulo a power of two.

    Multiplication by an odd constant is a bijection mod 2^b, and the
    golden-ratio constant spreads arithmetic progressions — exactly the
    reference patterns (strides) scientific codes generate — almost
    uniformly over the modules.
    """

    bits: int
    multiplier: int = 0x9E3779B1  # 2^32 / golden ratio, forced odd

    @property
    def mask(self) -> int:
        return (1 << self.bits) - 1

    def mix(self, x: int) -> int:
        return (x * self.multiplier) & self.mask

    def unmix(self, y: int) -> int:
        inverse = pow(self.multiplier, -1, 1 << self.bits)
        return (y * inverse) & self.mask


class HashedTranslation(AddressTranslation):
    """Multiplicative-hash translation spreading fixed strides.

    Requires the total capacity to be a power of two so the mixer is a
    bijection; the Ultracomputer's N = 2^D module count makes that the
    natural configuration.
    """

    def __init__(self, n_modules: int, words_per_module: int) -> None:
        super().__init__(n_modules, words_per_module)
        capacity = n_modules * words_per_module
        if capacity & (capacity - 1):
            raise ValueError(
                "hashed translation requires a power-of-two capacity; got "
                f"{n_modules} x {words_per_module} = {capacity}"
            )
        self._mixer = _FibonacciMixer(bits=capacity.bit_length() - 1)

    def translate(self, address: int) -> tuple[int, int]:
        self._check(address)
        mixed = self._mixer.mix(address)
        # The module index comes from the *high* bits of the mixed
        # value: an odd-multiplier hash mod 2^b keeps power-of-two
        # strides intact in the low bits (stride 8 times an odd M is
        # still 0 mod 8), but diffuses them thoroughly into the high
        # bits — exactly where the module number must come from.
        return divmod(mixed, self.words_per_module)

    def translate_many(self, addresses: Sequence[int]
                       ) -> list[tuple[int, int]]:
        self._check_many(addresses)
        multiplier, mask = self._mixer.multiplier, self._mixer.mask
        w = self.words_per_module
        return [divmod((a * multiplier) & mask, w) for a in addresses]

    def untranslate(self, module: int, offset: int) -> int:
        return self._mixer.unmix(module * self.words_per_module + offset)


def make_translation(
    scheme: str, n_modules: int, words_per_module: int
) -> AddressTranslation:
    """Factory used by machine configuration ("interleaved"/"blocked"/"hashed")."""
    schemes = {
        "interleaved": InterleavedTranslation,
        "blocked": BlockedTranslation,
        "hashed": HashedTranslation,
    }
    try:
        cls = schemes[scheme]
    except KeyError:
        raise ValueError(
            f"unknown translation scheme {scheme!r}; choose from {sorted(schemes)}"
        )
    return cls(n_modules, words_per_module)


def module_load_profile(
    translation: AddressTranslation, addresses: list[int]
) -> list[int]:
    """Per-module reference counts for a trace (hot-spot diagnostics)."""
    counts = [0] * translation.n_modules
    for address in addresses:
        module, _offset = translation.translate(address)
        counts[module] += 1
    return counts
