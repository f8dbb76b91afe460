"""Deterministic random substreams keyed by integer tuples.

Every consumer of randomness in the training loop (candidate decoding, prefix
rollout, noise levels, forward-path noise, window selection, ...) draws from
its own counter-keyed substream, so changing how much one consumer draws never
shifts what another one sees. Keys are plain int tuples fed to numpy's seed
sequence machinery; a part operator.index refuses (1.7) is a ValueError.

`substreams(keys)` returns `[substream(*key) for key in keys]`, the same
generators in the same states, but hashes all keys' seeds in one pass of
array ops instead of building one SeedSequence per key. Keys of one length
whose parts are ints below 2**32 (the training loop's, for such seeds) are
taken as one array of words, without a per-key loop.

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


def _entropy_words(key) -> list[int]:
    """numpy's little-endian uint32 expansion of a key: 0 -> [0], 2**40+3 -> [3, 256]."""
    key = _key_parts(key)
    if min(key) < 0:
        raise ValueError("expected non-negative integer")
    if max(key) <= _MASK32:
        return key
    words = []
    for k in key:
        words.append(k & _MASK32)
        while k > _MASK32:
            k >>= 32
            words.append(k & _MASK32)
    return words


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
    """SeedSequence(key).generate_state(4, uint64) for each row of an (n, L) uint64 word array.

    Follows numpy's pool mixing call for call, with the pool as a (4, n)
    array: hash the first four words (zeros past the key's end) into the
    pool, mix each pool word into the three others, then fold in every word
    beyond four. The state's uint64 words take the low 32 bits first.
    """
    n, length = words.shape
    if length < _POOL_SIZE:
        words = np.concatenate([words, np.zeros((n, _POOL_SIZE - length), np.uint64)], axis=1)
    # One hashmix call per pool word for each of max(length, 4) words.
    consts = _hash_consts(_INIT_A, _MULT_A, _POOL_SIZE * max(length, _POOL_SIZE))
    pool = _hashmix(words[:, :_POOL_SIZE].T, consts, 0, _POOL_SIZE)
    k = _POOL_SIZE
    for src, dst in enumerate(_OTHER_POOL_WORDS):
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts, k, len(dst)))
        k += len(dst)
    for src in range(_POOL_SIZE, length):
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
    """substream(*key) for every key, seeded in one vectorized pass.

    Keys of one length L with every part an int in [0, 2**32) are their own
    words, one (n, L) array. Other keys may differ in length and in word
    count; the seeds of all keys with the same word count are hashed
    together. Each key gets its own PCG64, in the state substream gives it.
    """
    try:
        table = np.array(keys)
    except ValueError:  # keys of different lengths
        table = np.array(())
    if table.ndim == 2 and table.size and table.dtype.kind in "iu" \
            and table.min() >= 0 and table.max() <= _MASK32:
        groups = [(range(len(keys)), table.astype(np.uint64))]
    else:
        words = [_entropy_words(key) for key in keys]
        rows_by_length: dict[int, list[int]] = {}
        for i, w in enumerate(words):
            rows_by_length.setdefault(len(w), []).append(i)
        groups = [(rows, np.array([words[i] for i in rows], dtype=np.uint64))
                  for rows in rows_by_length.values()]
    gens = [None] * len(keys)
    for rows, group_words in groups:
        for i, state in zip(rows, _seed_states(group_words)):
            gens[i] = np.random.Generator(np.random.PCG64(_State(state)))
    return gens


def normal_blocks(keys, shape) -> np.ndarray:
    """(len(keys), *shape) standard normals, row i drawn in one call from substream(*keys[i]).

    Row i equals substream(*keys[i]).standard_normal(shape), and so also the
    same stream's successive draws of any shapes that fill it in C order.
    """
    out = np.empty((len(keys), *shape))
    for gen, row in zip(substreams(keys), out):
        gen.standard_normal(out=row)
    return out
