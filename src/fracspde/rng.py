"""Deterministic seed derivation and seeded normal draws for parallel
Monte Carlo streams.

The seeds and draws are numpy's own: derive_seed(base, *key) equals
SeedSequence(base, spawn_key=key).generate_state(1, np.uint64)[0], and
row i of NormalDrawer().fill(pcg64_states(seed_words(seeds)), out)
equals default_rng(seeds[i]).standard_normal. Both are computed by a
vectorised port of numpy's SeedSequence (the 4-word pool hash and
generate_state) and of PCG64's pcg_setseq_128 seeding (O'Neill 2014):
the keys of a whole sample block are hashed, and their 128-bit PCG64
states computed, in one pass of numpy operations each, not one
SeedSequence object per row, and each row's state is written straight
into the struct of one reused bit generator before its row is drawn.
tests/test_rng.py checks the port against numpy bit for bit, and the
drawer reads its first state back through numpy's public API: a numpy
release that changed its seeding or its state layout would fail there
instead of shifting outputs silently."""

import ctypes
import operator

import numpy as np

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1

# Stream tags keep per-mode and per-sample derivations disjoint.
MODE_STREAM = 0
SAMPLE_STREAM = 1

# numpy.random.SeedSequence constants (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16

# Multiplier of PCG64's 128-bit LCG (PCG_DEFAULT_MULTIPLIER_128), as
# its low and high 64-bit halves.
_PCG_MULT_LO = np.uint64(0x4385DF649FCCF645)
_PCG_MULT_HI = np.uint64(0x2360ED051FC65DA4)

# The hash below runs on Python ints (one key) or uint64 arrays (a batch
# of keys) alike: a word is a value below 2^32, and every product or
# difference is reduced modulo 2^32 before it is shifted or stored.


def _hasher(init: int, mult: int):
    """SeedSequence's hashmix. Its hash constant advances on every call
    whatever the value hashed, so one scalar serves the whole batch."""
    const = init

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK32
        value = value * const & _MASK32
        return value ^ value >> _XSHIFT

    return hashmix


def _mix(x, y):
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ result >> _XSHIFT


def _state_words(entropy: list, n_words: int) -> list:
    """SeedSequence(...).generate_state(n_words, np.uint64), vectorised.

    entropy lists the assembled 32-bit entropy words: the run entropy
    zero-padded to the pool size, then the spawn key. Returns n_words
    64-bit words. Hashing zero for a missing run-entropy word is what
    SeedSequence does without a spawn key too, so the padded layout
    serves both cases.
    """
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    hashmix = _hasher(_INIT_B, _MULT_B)
    halves = [hashmix(pool[i % _POOL_SIZE]) for i in range(2 * n_words)]
    return [lo | hi << 32 for lo, hi in zip(halves[::2], halves[1::2])]


def _run_entropy(seed) -> list:
    """A 64-bit seed as SeedSequence's run entropy, padded to the pool."""
    return [seed & _MASK32, seed >> 32, 0, 0]


def _hash_rows(columns: list, n_words: int) -> np.ndarray:
    """SeedSequence(base, spawn_key=key).generate_state(n_words, uint64)
    for every row (base, *key) of the equal-length uint64 columns, as a
    (rows, n_words) uint64 array."""
    entropy = _run_entropy(columns[0]) + columns[1:]
    return np.stack(_state_words(entropy, n_words), axis=1)


def _as_uint64(values) -> np.ndarray:
    """Integers reduced modulo 2^64, as a uint64 array."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "iu":
        return values.astype(np.uint64)
    arr = np.asarray(values, dtype=object)
    return np.array([operator.index(v) & _MASK64 for v in arr.ravel()],
                    dtype=np.uint64).reshape(arr.shape)


def derive_seed(base_seed, *key):
    """Hash (base_seed, key) into a 64-bit seed, for any number of keys.

    Equals np.random.SeedSequence(base_seed mod 2^64, spawn_key=key)
    .generate_state(1, np.uint64)[0]. The arguments broadcast against
    each other like numpy arrays: all-scalar arguments return an int,
    anything else a uint64 array of the broadcast shape.

    Key entries must lie in [0, 2^32). Negative entries raise ValueError,
    as in SeedSequence; entries of 2^32 or more also raise ValueError,
    because SeedSequence splits them into several entropy words, a
    layout this port does not follow.
    """
    if np.ndim(base_seed) == 0 and all(np.ndim(k) == 0 for k in key):
        words = [operator.index(k) for k in key]
        _check_key(words)
        entropy = _run_entropy(operator.index(base_seed) & _MASK64)
        return _state_words(entropy + words, 1)[0]
    keys = [np.asarray(k) for k in key]
    for k in keys:
        if k.dtype.kind not in "iuO":
            raise ValueError(f"seed key entries must be integers, got {k}")
        if k.size:
            _check_key((k.min(), k.max()))
    base = _as_uint64(base_seed)
    shape = np.broadcast_shapes(base.shape, *(k.shape for k in keys))
    columns = [np.broadcast_to(a, shape).astype(np.uint64).ravel()
               for a in (base, *keys)]
    return _hash_rows(columns, 1)[:, 0].reshape(shape)


def _check_key(entries) -> None:
    if not all(0 <= k <= _MASK32 for k in entries):
        raise ValueError(f"seed key entries must lie in [0, 2^32), got"
                         f" {list(entries)}")


def seed_words(seeds) -> np.ndarray:
    """SeedSequence(seed).generate_state(4, np.uint64) for each seed, a
    (rows, 4) uint64 array: the words np.random.PCG64(seed) seeds itself
    from. Seeds are reduced modulo 2^64."""
    return _hash_rows([_as_uint64(seeds).ravel()], 4)


def _mul_hi64(a, b):
    """High 64-bit words of the 128-bit products a * b (uint64 arrays),
    from 32-bit limbs: every partial product and column sum fits 64 bits,
    and each column's carry is added explicitly."""
    a_lo, a_hi = a & _MASK32, a >> 32
    b_lo, b_hi = b & _MASK32, b >> 32
    lo_lo, lo_hi = a_lo * b_lo, a_lo * b_hi
    hi_lo, hi_hi = a_hi * b_lo, a_hi * b_hi
    middle = (lo_lo >> 32) + (lo_hi & _MASK32) + (hi_lo & _MASK32)
    return hi_hi + (lo_hi >> 32) + (hi_lo >> 32) + (middle >> 32)


def _add128(a_lo, a_hi, b_lo, b_hi):
    """(a + b) mod 2^128 on (low, high) 64-bit word pairs."""
    lo = a_lo + b_lo
    return lo, a_hi + b_hi + (lo < a_lo)


def pcg64_states(words: np.ndarray) -> np.ndarray:
    """The PCG64 state that np.random.PCG64 seeds from each row of seed
    words (see seed_words), as a (rows, 4) uint64 array [state_lo,
    state_hi, inc_lo, inc_hi].

    A port of pcg_setseq_128_srandom_r to uint64 arrays: each row's
    words (s_hi, s_lo, i_hi, i_lo) give inc = i << 1 | 1 and state =
    (inc + s) * multiplier + inc, modulo 2^128, the 128-bit words held
    as two 64-bit halves that wrap modulo 2^64.
    """
    s_hi, s_lo, i_hi, i_lo = np.asarray(words, dtype=np.uint64).T
    inc_lo, inc_hi = i_lo << 1 | 1, i_hi << 1 | i_lo >> 63
    lo, hi = _add128(inc_lo, inc_hi, s_lo, s_hi)
    hi = _mul_hi64(lo, _PCG_MULT_LO) + lo * _PCG_MULT_HI + hi * _PCG_MULT_LO
    lo, hi = _add128(lo * _PCG_MULT_LO, hi, inc_lo, inc_hi)
    return np.stack([lo, hi, inc_lo, inc_hi], axis=1)


def _pcg_struct(bit_generator) -> np.ndarray:
    """numpy's pcg64_random_t of bit_generator as a writable (2, 2)
    uint64 view, [[state_lo, state_hi], [inc_lo, inc_hi]]: the layout of
    two native little-endian 128-bit integers. ctypes.state_address
    points at numpy's pcg64_state, whose first field is a pointer to
    that struct. The view does not keep bit_generator alive."""
    address = ctypes.c_void_p.from_address(
        bit_generator.ctypes.state_address).value
    words = (ctypes.c_uint64 * 4).from_address(address)
    return np.ctypeslib.as_array(words).reshape(2, 2)


class NormalDrawer:
    """Rows of standard normals, each from its own PCG64 state, through
    one reused bit generator.

    fill(states, out) fills row i of out from states[i] (see
    pcg64_states): row i equals np.random.default_rng(seed)
    .standard_normal for the seed behind it. Per row it copies the 32
    bytes of the state into the bit generator's struct and draws; the
    bit generator's buffered 32-bit half stays empty, as PCG64 seeds it,
    because standard_normal draws whole 64-bit words only.

    The first state written is read back through the public
    bit_generator.state before anything is drawn: a numpy whose struct
    is laid out otherwise raises RuntimeError instead of drawing other
    numbers.
    """

    def __init__(self):
        self._bit_generator = np.random.PCG64(0)  # every row writes its own
        self._generator = np.random.Generator(self._bit_generator)
        self._struct = _pcg_struct(self._bit_generator)
        self._checked = False

    def _check(self, state: np.ndarray) -> None:
        want_state, want_inc = (int(lo) | int(hi) << 64
                                for lo, hi in state.tolist())
        got = self._bit_generator.state
        if (got["state"] != {"state": want_state, "inc": want_inc}
                or got["has_uint32"] != 0):
            raise RuntimeError(
                f"numpy {np.__version__} does not lay out PCG64's state as"
                f" fracspde.rng writes it: wrote state {want_state:#x} and"
                f" inc {want_inc:#x}, numpy reads {got}")
        self._checked = True

    def fill(self, states: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Fill row i of the 2-D array out from states[i]; returns out."""
        if len(states) != len(out):
            raise ValueError(f"{len(states)} states for {len(out)} rows")
        struct, draw = self._struct, self._generator.standard_normal
        for row, state in zip(out, states.reshape(-1, 2, 2)):
            struct[...] = state
            if not self._checked:
                self._check(state)
            draw(out=row)
        return out
