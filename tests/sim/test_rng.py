"""Unit tests for deterministic named RNG streams.

A stream is numpy's ``default_rng(SeedSequence([root_seed, crc32(name)]))``
draw for draw: ``random()`` runs PCG64 in pure Python, and anything else
continues the same state in a numpy generator.  The property below holds
the two against each other under every order of calls; the fixed vectors
pin the numbers themselves.
"""

import os
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.apps.workloads import AppSource
from repro.sim.kernel import Simulator
from repro.sim.rng import RngStreams
from repro.sweep.spec import derive_cell_seed


class TestRngStreams:
    def test_same_seed_same_name_same_sequence(self):
        a = RngStreams(7).stream("x").random(10)
        b = RngStreams(7).stream("x").random(10)
        assert (a == b).all()

    def test_different_names_differ(self):
        r = RngStreams(7)
        assert (r.stream("x").random(10) != r.stream("y").random(10)).any()

    def test_different_seeds_differ(self):
        a = RngStreams(1).stream("x").random(10)
        b = RngStreams(2).stream("x").random(10)
        assert (a != b).any()

    def test_stream_is_cached(self):
        r = RngStreams(0)
        assert r.stream("s") is r.stream("s")

    def test_contains(self):
        r = RngStreams(0)
        assert "s" not in r
        r.stream("s")
        assert "s" in r

    def test_discard_forgets_one_stream_only(self):
        r = RngStreams(3)
        kept = r.stream("kept")
        first = r.stream("gone").random(5)
        r.discard("gone")
        r.discard("never-made")  # idempotent
        assert "gone" not in r and r.stream("kept") is kept
        assert (r.stream("gone").random(5) == first).all()  # same name, same sequence

    def test_reset_restarts_sequences(self):
        r = RngStreams(3)
        first = r.stream("a").random(5)
        r.reset()
        again = r.stream("a").random(5)
        assert (first == again).all()

    def test_stream_independence_under_interleaving(self):
        # drawing from stream B must not perturb stream A's sequence
        r1 = RngStreams(9)
        a_alone = r1.stream("a").random(5)
        r2 = RngStreams(9)
        r2.stream("b").random(100)
        a_interleaved = r2.stream("a").random(5)
        assert (a_alone == a_interleaved).all()


def numpy_stream(seed, name):
    return np.random.default_rng(np.random.SeedSequence([seed, zlib.crc32(name.encode())]))


#: the call that may hand a stream over to numpy, as (method, args)
_FINAL = st.sampled_from([
    ("random", ()), ("random", (7,)), ("exponential", (0.65,)),
    ("exponential", (2.0, 3)), ("lognormal", (0.0, 0.35)), ("normal", (1.0, 2.0)),
    ("integers", (40, 1401)), ("integers", (0, 2**40, 4)),
])

_SEEDS = st.one_of(
    st.just(0),
    st.integers(0, 2**32 - 1),
    st.integers(2**32, 2**64 - 1),  # two entropy words
    st.builds(lambda base, name, v: derive_cell_seed(base, name, {"v": v}),
              st.integers(0, 2**64 - 1), st.text(max_size=8), st.integers()),
)


class TestNumpyEquivalence:
    @given(seed=_SEEDS, name=st.text(max_size=24), k=st.integers(0, 40),
           final=_FINAL)
    def test_stream_matches_numpy_under_any_call_sequence(self, seed, name, k, final):
        ours, ref = RngStreams(seed).stream(name), numpy_stream(seed, name)
        assert [ours.random() for _ in range(k)] == [ref.random() for _ in range(k)]
        method, args = final
        got, want = getattr(ours, method)(*args), getattr(ref, method)(*args)
        assert np.asarray(got).tolist() == np.asarray(want).tolist()
        assert ours.random() == ref.random()  # one state, wherever it lives
        assert ours.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("seed, first3", [
        (0, ("0x1.6106b2d93bc0fp-1", "0x1.8fda64efab28ap-2", "0x1.449a3ef9edea3p-1")),
        (7, ("0x1.c3e58cfa13ea4p-1", "0x1.f3ee2fbb74f42p-2", "0x1.822880202fff0p-3")),
        (11, ("0x1.ab4094006ecd4p-1", "0x1.1af99441b21bap-1", "0x1.e81383939c188p-3")),
        (2**40 + 3, ("0x1.26b0e279b412ep-2", "0x1.c19c83aabf58ep-2",
                     "0x1.53650aa6a2bd4p-2")),
    ])
    def test_fixed_vectors(self, seed, first3):
        ours = RngStreams(seed).stream("link:A->s1")
        assert tuple(ours.random().hex() for _ in range(3)) == first3

    def test_default_app_source_stream_is_default_rng_0(self):
        ours, ref = AppSource(Simulator(), None, "src").rng, np.random.default_rng(0)
        assert [ours.random() for _ in range(5)] == [ref.random() for _ in range(5)]
        assert ours.exponential(0.65) == ref.exponential(0.65)

    def test_negative_seed_is_refused_as_numpy_refuses_it(self):
        with pytest.raises(ValueError):
            np.random.SeedSequence([-1, 0])
        with pytest.raises(ValueError):
            RngStreams(-1).stream("x")


UNIFORM_CHILD = """
import sys
from repro.sim.rng import RngStreams
s = RngStreams(7).stream("link:A->s1")
total = sum(s.random() for _ in range(10_000))
print("numpy" in sys.modules, 0.0 < total < 10_000)
"""


def test_uniform_draws_load_no_numpy():
    src = Path(__file__).resolve().parents[2] / "src"
    out = subprocess.run([sys.executable, "-c", UNIFORM_CHILD], check=True,
                         timeout=60, capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}).stdout
    assert out.split() == ["False", "True"]
