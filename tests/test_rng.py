"""The vectorised seeding port against numpy's own SeedSequence and
default_rng, bit for bit.

If a numpy release changes its seeding, these tests fail: outputs never
drift silently.
"""

import numpy as np
import pytest

from fracspde.rng import derive_seed, seed_words, standard_normal_rows

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


def _oracle_rows(seeds) -> np.ndarray:
    return np.array([np.random.default_rng(int(s)).standard_normal(
        ROW_LENGTH) for s in seeds])


def test_normal_rows_match_default_rng():
    derived = [derive_seed(b, *k) for b, k in random_keys(2, 2000)]
    below_32_bits = [int(s) for s in
                     np.random.default_rng(32).integers(0, 2**32, 100)]
    seeds = derived + below_32_bits + EDGE_BASES
    out = standard_normal_rows(seed_words(np.array(seeds, dtype=np.uint64)),
                               np.empty((len(seeds), ROW_LENGTH)))
    assert np.array_equal(out, _oracle_rows(seeds))


def test_normal_rows_accept_python_ints_and_wrap_negatives():
    seeds = [5, 2**64 - 1, 2**63]
    out = standard_normal_rows(seed_words(seeds + [-1]),
                               np.empty((4, ROW_LENGTH)))
    assert np.array_equal(out, _oracle_rows(seeds + [2**64 - 1]))
    with pytest.raises(ValueError):
        standard_normal_rows(seed_words(seeds), np.empty((2, ROW_LENGTH)))
