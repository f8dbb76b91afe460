"""Keyed substreams: deterministic, distinct, and seeded in bulk bit-for-bit."""

from __future__ import annotations

import numpy as np
import pytest

from astro import rng as arng


def test_substream_deterministic():
    a = arng.substream(0, arng.CANDIDATE_STREAM, 3, 1, 0).standard_normal(8)
    b = arng.substream(0, arng.CANDIDATE_STREAM, 3, 1, 0).standard_normal(8)
    assert np.array_equal(a, b)


def test_substream_keys_separate():
    base = (0, arng.CANDIDATE_STREAM, 3, 1, 0)
    ref = arng.substream(*base).standard_normal(8)
    for pos in range(len(base)):
        key = list(base)
        key[pos] += 1
        other = arng.substream(*key).standard_normal(8)
        assert not np.array_equal(ref, other), f"key position {pos}"


def test_stream_tags_distinct():
    tags = [arng.PROMPT_STREAM, arng.CANDIDATE_STREAM, arng.PREFIX_STREAM,
            arng.NOISE_T_STREAM, arng.EPS_STREAM, arng.WINDOW_STREAM,
            arng.PRETRAIN_STREAM, arng.EVAL_STREAM]
    assert len(set(tags)) == len(tags)


def test_substream_rejects_empty_key():
    with pytest.raises(ValueError):
        arng.substream()


# Seeds 0, 2**32-1 (largest one-word) and 2**40+3 (two words), zero
# components, and keys of different lengths and word counts in one call.
MIXED_KEYS = [
    (seed, arng.CANDIDATE_STREAM, epoch, pid, i)
    for seed in (0, 2**32 - 1, 2**40 + 3)
    for epoch, pid, i in [(0, 0, 0), (3, 1, 0), (0, 5, 23), (2**33, 0, 7)]
] + [(0,), (7, 0), (2**40 + 3,), (0, 0, 0, 0, 0, 0, 0), (1, 2, 3, 4, 5, 6, 7, 8, 9)]


def test_substreams_match_substream():
    gens = arng.substreams(MIXED_KEYS)
    assert len(gens) == len(MIXED_KEYS)
    for key, gen in zip(MIXED_KEYS, gens):
        ref = arng.substream(*key)
        assert gen.bit_generator.state == ref.bit_generator.state, key
        # the same draws, one clip-shaped call at a time and then a longer one
        for shape in [(4, 8)] * 4 + [(7,)]:
            assert np.array_equal(gen.standard_normal(shape), ref.standard_normal(shape)), key


def test_normal_blocks_are_successive_draws():
    # numpy's Generator keeps no normals between calls, so one block per
    # stream holds that stream's successive smaller draws, in C order.
    blocks = arng.normal_blocks(MIXED_KEYS, (2, 4, 32))
    assert blocks.shape == (len(MIXED_KEYS), 2, 4, 32)
    for key, block in zip(MIXED_KEYS, blocks):
        ref = arng.substream(*key)
        assert np.array_equal(block, np.stack([ref.standard_normal((4, 8))
                                               for _ in range(8)]).reshape(2, 4, 32)), key
    assert arng.normal_blocks([], (3,)).shape == (0, 3)


def test_seed_states_match_seed_sequence():
    for length in range(4, 10):
        keys = [tuple((3 + i * 7919 + j * 104729) % 2**32 for j in range(length))
                for i in range(5)] + [(2**32 - 1,) * length, (0,) * length]
        words = np.array(keys, dtype=np.uint64)
        for rows in (words, words[:1]):
            expect = [np.random.SeedSequence(key).generate_state(4, np.uint64)
                      for key in keys[:len(rows)]]
            assert np.array_equal(arng._seed_states(rows), expect), length


def test_substreams_of_no_keys():
    assert arng.substreams([]) == []


def test_one_word_keys_take_the_array_path(monkeypatch):
    # Training-shaped keys (one length >= 4, parts in [0, 2**32), seed 2**32-1
    # included) are seeded as one table, never by substream. Wide, short and
    # ragged keys take substream itself; every key gets substream's state.
    training = [(seed, arng.CANDIDATE_STREAM, epoch, p, i)
                for seed in (0, 2**32 - 1) for epoch in (0, 7) for p in range(3)
                for i in range(4)]
    wide = [(2**32,) + key[1:] for key in training]
    short = [key[:3] for key in training]
    ragged = training[:4] + short[:4]
    expect = {key: arng.substream(*key).bit_generator.state
              for key in training + wide + short}
    for keys in (wide, short, ragged, training[:5] + wide[:5]):
        assert [g.bit_generator.state for g in arng.substreams(keys)] \
            == [expect[key] for key in keys]

    def refused(*key):
        raise AssertionError(f"per-key seeding of {key}")

    monkeypatch.setattr(arng, "substream", refused)
    assert [g.bit_generator.state for g in arng.substreams(training)] \
        == [expect[key] for key in training]
    with pytest.raises(AssertionError):
        arng.substreams(wide)


@pytest.mark.parametrize("key", [(0, -1), (-5,), (), (0, 1.5)])
def test_substreams_reject_what_substream_rejects(key):
    with pytest.raises(ValueError):
        arng.substream(*key)
    with pytest.raises(ValueError):
        arng.substreams([(0, 1), key])
