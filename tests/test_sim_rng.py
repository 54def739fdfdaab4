"""Unit tests for deterministic named RNG streams."""

from repro.sim.rng import RngStreams


def test_same_seed_same_sequence():
    a = RngStreams(42).stream("net")
    b = RngStreams(42).stream("net")
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]


def test_different_streams_independent():
    rngs = RngStreams(42)
    net = [rngs.stream("net").random() for _ in range(5)]
    rngs2 = RngStreams(42)
    # Interleave a draw from another stream; "net" is unaffected.
    rngs2.stream("disk").random()
    net2 = [rngs2.stream("net").random() for _ in range(5)]
    assert net == net2


def test_different_names_different_sequences():
    rngs = RngStreams(0)
    assert rngs.stream("a").random() != rngs.stream("b").random()


def test_different_seeds_different_sequences():
    assert RngStreams(1).stream("x").random() != RngStreams(2).stream("x").random()


def test_stream_is_cached():
    rngs = RngStreams(0)
    assert rngs.stream("x") is rngs.stream("x")


def test_helpers_draw_from_named_streams():
    rngs = RngStreams(3)
    value = rngs.uniform("u", 5.0, 6.0)
    assert 5.0 <= value <= 6.0
    assert rngs.expovariate("e", 2.0) > 0
    __ = rngs.gauss("g", 0.0, 1.0)
