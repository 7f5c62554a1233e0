"""The vectorised seeding port against numpy's own SeedSequence and
default_rng, bit for bit.

If a numpy release changes its seeding, these tests fail: outputs never
drift silently.
"""

import numpy as np
import pytest

from fracspde import rng
from fracspde.rng import NormalDrawer, derive_seed, pcg64_states, seed_words

EDGE_BASES = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
ROW_LENGTH = 7


def oracle_seed(base: int, key: tuple) -> int:
    ss = np.random.SeedSequence(base, spawn_key=key)
    return int(ss.generate_state(1, np.uint64)[0])


def random_keys(arity: int, count: int) -> list:
    """(base, key) pairs: the edge bases, then random 64-bit bases; key
    entries are small or 32 bits wide at random."""
    gen = np.random.default_rng(arity)
    bases = EDGE_BASES + [int(b) for b in gen.integers(
        0, 2**64, count - len(EDGE_BASES), dtype=np.uint64)]
    small = gen.integers(0, 64, (count, arity))
    wide = gen.integers(0, 2**32, (count, arity))
    entries = np.where(gen.random((count, arity)) < 0.5, small, wide)
    return [(base, tuple(int(k) for k in row))
            for base, row in zip(bases, entries)]


@pytest.mark.parametrize("arity", [1, 2, 3])
def test_derive_seed_matches_seed_sequence(arity):
    pairs = random_keys(arity, 700)
    expected = np.array([oracle_seed(b, k) for b, k in pairs],
                        dtype=np.uint64)
    columns = np.array([k for _, k in pairs]).T
    bases = np.array([b for b, _ in pairs], dtype=np.uint64)
    assert np.array_equal(derive_seed(bases, *columns), expected)
    for (base, key), want in zip(pairs[:50], expected[:50]):
        got = derive_seed(base, *key)
        assert type(got) is int and got == int(want)


def test_cli_key_shapes_and_empty_key():
    for base in EDGE_BASES + [12345]:
        assert derive_seed(base, 9) == oracle_seed(base, (9,))
        for trial in range(3):
            assert derive_seed(base, 10, trial) == oracle_seed(
                base, (10, trial))
        assert derive_seed(base) == oracle_seed(base, ())


def test_broadcasts_like_the_loop():
    bases = np.array([derive_seed(3, 1, s) for s in range(5)],
                     dtype=np.uint64)
    grid = derive_seed(bases, 0, np.arange(4)[:, None])
    assert grid.shape == (4, 5) and grid.dtype == np.uint64
    assert grid.tolist() == [[oracle_seed(int(b), (0, k)) for b in bases]
                             for k in range(4)]
    assert derive_seed(bases[:1], 0, 2).tolist() == [
        oracle_seed(int(bases[0]), (0, 2))]
    assert derive_seed(bases[:0], 0, 2).shape == (0,)


def test_base_reduced_modulo_two_to_the_64():
    assert derive_seed(-1, 3) == oracle_seed(2**64 - 1, (3,))
    assert derive_seed(2**64 + 5, 3) == oracle_seed(5, (3,))


@pytest.mark.parametrize("key", [(-1,), (0, -3), (np.array([4, -2]),),
                                 (2**32,), (1, 2**40),
                                 (np.array([1, 2**32]),)])
def test_keys_outside_32_bits_rejected(key):
    # SeedSequence rejects negative entries and splits entries of 2^32 or
    # more into several words; the port rejects both
    with pytest.raises(ValueError):
        derive_seed(7, *key)


def _oracle_rows(seeds, length: int = ROW_LENGTH) -> np.ndarray:
    return np.array([np.random.default_rng(int(s)).standard_normal(length)
                     for s in seeds])


def _seed_states(seeds) -> np.ndarray:
    return pcg64_states(seed_words(seeds))


def test_normal_rows_match_default_rng():
    derived = [derive_seed(b, *k) for b, k in random_keys(2, 2000)]
    below_32_bits = [int(s) for s in
                     np.random.default_rng(32).integers(0, 2**32, 100)]
    seeds = derived + below_32_bits + EDGE_BASES
    out = NormalDrawer().fill(
        _seed_states(np.array(seeds, dtype=np.uint64)),
        np.empty((len(seeds), ROW_LENGTH)))
    assert np.array_equal(out, _oracle_rows(seeds))


def test_normal_rows_accept_python_ints_and_wrap_negatives():
    seeds = [5, 2**64 - 1, 2**63]
    out = NormalDrawer().fill(_seed_states(seeds + [-1]),
                              np.empty((4, ROW_LENGTH)))
    assert np.array_equal(out, _oracle_rows(seeds + [2**64 - 1]))
    with pytest.raises(ValueError):
        NormalDrawer().fill(_seed_states(seeds), np.empty((2, ROW_LENGTH)))


def _as_128(states) -> list:
    """(state, inc) as Python ints per row of a pcg64_states array."""
    return [(int(s_lo) | int(s_hi) << 64, int(i_lo) | int(i_hi) << 64)
            for s_lo, s_hi, i_lo, i_hi in states.tolist()]


def _numpy_state(bit_generator) -> tuple:
    state = bit_generator.state["state"]
    return state["state"], state["inc"]


def test_states_match_numpy_pcg64():
    seeds = EDGE_BASES + [derive_seed(b, *k)
                          for b, k in random_keys(1, 2000)]
    states = _seed_states(np.array(seeds, dtype=np.uint64))
    assert states.shape == (len(seeds), 4) and states.dtype == np.uint64
    assert _as_128(states) == [_numpy_state(np.random.PCG64(int(s)))
                               for s in seeds]


class _FixedWords(np.random.bit_generator.ISeedSequence):
    """A seed sequence whose state words are given: PCG64 seeds from
    them exactly as from SeedSequence's."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        assert n_words == 4 and dtype == np.uint64
        return np.array(self.words, dtype=np.uint64)


TOP = 2**63
FULL = 2**64 - 1


@pytest.mark.parametrize("words", [
    [0, 0, 0, 0],
    [FULL, FULL, FULL, FULL],
    [0, 0, 0, TOP],  # i_lo's top bit carries into inc_hi
    [0, 0, TOP, TOP | 5],  # ... and i_hi's top bit is shifted out
    [0, FULL, 0, 0],  # s_lo + inc_lo carries into the high half
    [FULL, FULL - 2, 0, 1],  # s + inc wraps modulo 2^128
    [0, 2**32 - 1, 0, 2**31],  # a sum carrying between 32-bit limbs
    [5, FULL, 7, FULL],  # the largest low limbs: every column carries
], ids=lambda words: "-".join(f"{w:x}" for w in words))
def test_states_carry_across_halves_and_limbs(words):
    states = pcg64_states(np.array([words], dtype=np.uint64))
    assert _as_128(states) == [_numpy_state(np.random.PCG64(
        _FixedWords(words)))]


def test_states_of_random_words_match_numpy():
    gen = np.random.default_rng(64)
    words = gen.integers(0, 2**64, (500, 4), dtype=np.uint64)
    # low halves near the top: inc's shift and the sums carry
    words[::2, 3] |= np.uint64(TOP)
    words[::3, 1] |= np.uint64(FULL - 2**20)
    assert _as_128(pcg64_states(words)) == [
        _numpy_state(np.random.PCG64(_FixedWords(row.tolist())))
        for row in words]


@pytest.mark.parametrize("lengths", [[1], [7], [400], [1, 7, 400, 7, 1]])
def test_reused_drawer_leaves_nothing_behind(lengths):
    """One drawer, one call per length: every row equals a fresh
    default_rng's, whatever the drawer drew before."""
    seeds = [derive_seed(17, s) for s in range(6)] + EDGE_BASES
    drawer = NormalDrawer()
    for length in lengths:
        out = drawer.fill(_seed_states(seeds), np.empty((len(seeds), length)))
        assert np.array_equal(out, _oracle_rows(seeds, length)), length


def test_rows_split_over_calls_equal_one_call():
    seeds = [derive_seed(18, s) for s in range(9)]
    states = _seed_states(seeds)
    whole = NormalDrawer().fill(states, np.empty((9, 400)))
    drawer, parts = NormalDrawer(), []
    for lo, hi in [(0, 1), (1, 4), (4, 4), (4, 9)]:
        parts.append(drawer.fill(states[lo:hi], np.empty((hi - lo, 400))))
    assert np.array_equal(np.concatenate(parts), whole)
    assert np.array_equal(whole, _oracle_rows(seeds, 400))


def test_layout_guard_raises_before_any_row_is_drawn(monkeypatch):
    struct = rng._pcg_struct
    # the layout of a platform whose 128-bit words are (high, low) pairs
    monkeypatch.setattr(rng, "_pcg_struct",
                        lambda bit_generator: struct(bit_generator)[:, ::-1])
    out = np.full((3, ROW_LENGTH), np.nan)
    with pytest.raises(RuntimeError, match=f"numpy {np.__version__}"):
        NormalDrawer().fill(_seed_states([1, 2, 3]), out)
    assert np.isnan(out).all()
