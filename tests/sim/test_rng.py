"""Unit tests for deterministic named RNG streams."""

from repro.sim.rng import RngStreams


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
