"""Deterministic random substreams keyed by integer tuples.

Every consumer of randomness in the training loop (candidate decoding, prefix
rollout, noise levels, forward-path noise, window selection, ...) draws from
its own counter-keyed substream, so changing how much one consumer draws never
shifts what another one sees. Keys are plain int tuples fed to numpy's seed
sequence machinery; a part operator.index refuses (1.7) is a ValueError.

`substreams(keys)` returns `[substream(*key) for key in keys]`, the same
generators in the same states. Keys of one length L >= 4 whose parts are
ints below 2**32 (every training key, for seeds below 2**32) are seeded as
one (n, L) table in one pass of array ops; any other key list takes
substream itself, the reference the table path is checked against.

`normal_blocks(keys, shape)` draws each key's stream once, for its whole
budget, with one in-place `standard_normal` call. numpy's Generator keeps no
normals between calls, so the C-order block holds the values that successive
smaller draws from the stream would give, in the same order. The rollouts
and the forward-path noise draw each of their streams this way, once per
epoch.
"""

from __future__ import annotations

import functools
import operator

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# Stream kind tags, second component of every key after the run seed.
PROMPT_STREAM = 1
CANDIDATE_STREAM = 2
PREFIX_STREAM = 3
NOISE_T_STREAM = 4
EPS_STREAM = 5
WINDOW_STREAM = 6
PRETRAIN_STREAM = 7
EVAL_STREAM = 8

# numpy SeedSequence's hashing constants; its pool holds four 32-bit words.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint64(0xCA01F9DD), np.uint64(0x4973F715)
_POOL_SIZE = 4
_LANE_MASK = np.uint64(_MASK32)
_XSHIFT = np.uint64(16)


def _key_parts(key) -> list[int]:
    """The key's parts as ints; a part operator.index refuses (1.7, "3") is refused."""
    try:
        parts = [operator.index(k) for k in key]
    except TypeError:
        raise ValueError(f"substream key parts must be integers, got {key!r}") from None
    if not parts:
        raise ValueError("substream key must be non-empty")
    return parts


def substream(*key: int) -> np.random.Generator:
    """Independent generator for an integer key tuple. Same key, same stream."""
    return np.random.default_rng(tuple(_key_parts(key)))


@functools.lru_cache(maxsize=64)
def _hash_consts(init: int, mult: int, count: int) -> np.ndarray:
    """The first count+1 values of a SeedSequence hash constant, as a read-only (count+1, 1) column.

    The constant advances by the same multiply at every hashmix call,
    whatever the data, so call k of a pass uses entries k and k+1.
    """
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    column = np.array(consts, dtype=np.uint64)[:, None]
    column.flags.writeable = False
    return column


def _hashmix(values: np.ndarray, consts: np.ndarray, k: int, calls: int) -> np.ndarray:
    """hashmix calls k .. k+calls-1 as (calls, n) rows, in uint64 lanes of 32-bit words.

    values is one (n,) row that every call hashes, or a (calls, n) array
    giving each call its own row.
    """
    values = (values ^ consts[k:k + calls]) * consts[k + 1:k + 1 + calls] & _LANE_MASK
    return values ^ values >> _XSHIFT


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    value = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _LANE_MASK
    return value ^ value >> _XSHIFT


_OTHER_POOL_WORDS = [np.array([d for d in range(_POOL_SIZE) if d != s])
                     for s in range(_POOL_SIZE)]


def _seed_states(words: np.ndarray) -> np.ndarray:
    """SeedSequence(key).generate_state(4, uint64) for each row of an (n, L) uint64 key table.

    Follows numpy's pool mixing call for call, with the pool as a (4, n)
    array: hash the first four words into the pool, mix each pool word into
    the three others, then fold in every word beyond four. L must be at
    least 4. The state's uint64 words take the low 32 bits first.
    """
    # One hashmix call per pool word for each word.
    consts = _hash_consts(_INIT_A, _MULT_A, _POOL_SIZE * words.shape[1])
    pool = _hashmix(words[:, :_POOL_SIZE].T, consts, 0, _POOL_SIZE)
    k = _POOL_SIZE
    for src, dst in enumerate(_OTHER_POOL_WORDS):
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts, k, len(dst)))
        k += len(dst)
    for src in range(_POOL_SIZE, words.shape[1]):
        pool = _mix(pool, _hashmix(words[:, src], consts, k, _POOL_SIZE))
        k += _POOL_SIZE
    half = _hashmix(np.tile(pool, (2, 1)), _hash_consts(_INIT_B, _MULT_B, 2 * _POOL_SIZE),
                    0, 2 * _POOL_SIZE)
    return np.ascontiguousarray((half[0::2] | half[1::2] << np.uint64(32)).T)


class _State(ISeedSequence):
    """A seed sequence whose PCG64 state words are already computed."""

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != len(self.state) or dtype is not np.uint64 and np.dtype(dtype) != np.uint64:
            raise ValueError("precomputed state serves PCG64 seeding only")
        return self.state


def substreams(keys) -> list[np.random.Generator]:
    """substream(*key) for every key, each with its own PCG64 in the state substream gives it.

    Keys of one length L >= 4 with every part an int in [0, 2**32) are their
    own seed words, seeded as one (n, L) table in one vectorized pass. Every
    other key list, ragged, short or with a wider part, takes substream.
    """
    try:
        table = np.array(keys)
    except ValueError:  # keys of different lengths
        table = np.array(())
    if table.ndim == 2 and table.shape[1] >= _POOL_SIZE and table.size \
            and table.dtype.kind in "iu" and table.min() >= 0 and table.max() <= _MASK32:
        return [np.random.Generator(np.random.PCG64(_State(state)))
                for state in _seed_states(table.astype(np.uint64))]
    return [substream(*key) for key in keys]


def normal_blocks(keys, shape) -> np.ndarray:
    """(len(keys), *shape) standard normals, row i drawn in one call from substream(*keys[i]).

    Row i equals substream(*keys[i]).standard_normal(shape), and so also the
    same stream's successive draws of any shapes that fill it in C order.
    """
    out = np.empty((len(keys), *shape))
    for gen, row in zip(substreams(keys), out):
        gen.standard_normal(out=row)
    return out
