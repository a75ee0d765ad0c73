"""Deterministic, named random-number streams.

Every stochastic element of an experiment (link bit errors, traffic
inter-arrivals, background load, video frame sizes, ...) draws from its own
named stream derived from a single root seed.  Streams are independent, so
adding instrumentation or a new traffic source never perturbs the draws seen
by existing components — a prerequisite for the controlled A/B comparisons
UNITES performs (paper §4.3: replace one mechanism, measure the difference
*precisely*).

Implementation: stream ``name`` is numpy's
``default_rng(SeedSequence([root_seed, crc32(name)]))``, draw for draw, so
stream identity depends only on ``(root_seed, name)``.  Most worlds only
ever call ``random()`` on a stream (a link judging a frame for bit errors,
the detection miss test), so a :class:`Stream` seeds PCG64 and runs it in
pure Python for that call.  Any other use — ``random(size)``,
``exponential``, ``integers``, ``bit_generator``, ... — hands the exact
PCG64 state to a ``numpy.random.Generator`` and goes through it from then
on: one stream, one state, and numpy is loaded only by a world that needs
more than a uniform float.
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Sequence

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
#: PCG_DEFAULT_MULTIPLIER_128, the LCG multiplier of numpy's PCG64
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
#: numpy's ``next_double``: the top 53 bits of a 64-bit draw, scaled
_TWO_NEG53 = 2.0 ** -53


def _uint32_words(entropy: Sequence[int]) -> List[int]:
    """SeedSequence's coercion of a list of ints: each one split into
    little-endian 32-bit words, zero as a single word."""
    words: List[int] = []
    for n in entropy:
        n = int(n)
        if n < 0:
            raise ValueError("expected non-negative integer")
        if n == 0:
            words.append(0)
        while n:
            words.append(n & _MASK32)
            n >>= 32
    return words


def _pcg64_seed(entropy: Sequence[int]) -> tuple:
    """``(state, inc)`` of ``numpy.random.PCG64(SeedSequence(entropy))``.

    SeedSequence hashes the entropy words into a pool of four 32-bit words
    (hashmix / mix), ``generate_state(4, uint64)`` draws four 64-bit words
    from the pool, and PCG64's ``set_seed`` takes the first two as the
    initial state and the last two as the stream selector.
    """
    words = _uint32_words(entropy)
    hash_const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * 0x931E8875) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return r ^ (r >> 16)

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))

    out = []
    hash_b = 0x8B51F9DD
    for i in range(8):
        value = pool[i % 4] ^ hash_b
        hash_b = (hash_b * 0x58F38DED) & _MASK32
        value = (value * hash_b) & _MASK32
        out.append(value ^ (value >> 16))
    seed = [out[2 * k] | (out[2 * k + 1] << 32) for k in range(4)]
    initstate = (seed[0] << 64) | seed[1]
    inc = (((seed[2] << 64) | seed[3]) << 1 | 1) & _MASK128
    # pcg64_srandom_r: state 0, step, add initstate, step
    return ((inc + initstate) * _PCG_MULT + inc) & _MASK128, inc


class Stream:
    """One random stream, bit-identical to ``numpy.random.default_rng(
    SeedSequence(entropy))`` under every call sequence.

    ``random()`` with no arguments steps PCG64 (XSL-RR output) in Python.
    Every other attribute is the numpy generator's, built on first use from
    this stream's current state; after that, ``random()`` draws from it too.
    """

    __slots__ = ("_state", "_inc", "_gen")

    def __init__(self, entropy: Sequence[int]) -> None:
        self._state, self._inc = _pcg64_seed(entropy)
        self._gen = None

    def random(self, *args, **kwargs):
        """A float in [0, 1), as ``Generator.random``."""
        if args or kwargs or self._gen is not None:
            return self._numpy().random(*args, **kwargs)
        s = self._state = (self._state * _PCG_MULT + self._inc) & _MASK128
        rot = s >> 122
        x = ((s >> 64) ^ s) & _MASK64
        x = ((x >> rot) | (x << (64 - rot))) & _MASK64
        return (x >> 11) * _TWO_NEG53

    def _numpy(self):
        """The ``numpy.random.Generator`` this stream continues in, made at
        first use: the hand-over, and the one place numpy is imported."""
        gen = self._gen
        if gen is None:
            import numpy as np

            bitgen = np.random.PCG64(0)
            bitgen.state = {"bit_generator": "PCG64",
                            "state": {"state": self._state, "inc": self._inc},
                            "has_uint32": 0, "uinteger": 0}
            gen = self._gen = np.random.Generator(bitgen)
        return gen

    def __getattr__(self, name: str):
        if name.startswith("__"):  # copy / pickle protocol probes
            raise AttributeError(name)
        return getattr(self._numpy(), name)


class RngStreams:
    """Factory and cache of independent named random streams."""

    def __init__(self, root_seed: int = 0) -> None:
        self.root_seed = int(root_seed)
        self._streams: Dict[str, Stream] = {}

    def stream(self, name: str) -> Stream:
        """Return the stream for ``name``, creating it deterministically.

        The same ``(root_seed, name)`` pair always yields an identical
        sequence, across processes and platforms.
        """
        stream = self._streams.get(name)
        if stream is None:
            # zlib.crc32 is stable across runs (unlike hash()) and cheap.
            stream = Stream([self.root_seed, zlib.crc32(name.encode())])
            self._streams[name] = stream
        return stream

    def discard(self, name: str) -> None:
        """Forget one stream whose owner is gone (a closed session), so
        the table tracks live owners, not every owner there ever was."""
        self._streams.pop(name, None)

    def reset(self) -> None:
        """Forget all streams; subsequent calls restart their sequences."""
        self._streams.clear()

    def __contains__(self, name: str) -> bool:
        return name in self._streams
