"""Unit and property tests for twin/diff creation and application.

Diffs are word-granular (8-byte), as in TreadMarks: the unit of
comparison and shipping is the machine word, so concurrent writers must
be word-disjoint (our applications all use >= 8-byte elements).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PagedMemoryError
from repro.memory import Diff, apply_diff, make_diff
from repro.memory.diff import DIFF_HEADER_BYTES, RUN_HEADER_BYTES


# The run-list encoder the word arrays replaced: a list of ``(byte offset,
# bytes)`` runs.  Kept as the reference for run counts, sizes and contents.


def run_list_diff(twin, current):
    changed_words = twin.view(np.uint64) != current.view(np.uint64)
    if not changed_words.any():
        return []
    idx = np.flatnonzero(changed_words)
    breaks = np.flatnonzero(np.diff(idx) > 1)
    starts = np.concatenate(([idx[0]], idx[breaks + 1]))
    ends = np.concatenate((idx[breaks], [idx[-1]]))
    return [(int(s) * 8, current[s * 8 : (e + 1) * 8].copy()) for s, e in zip(starts, ends)]


def run_list_apply(page, runs):
    for offset, data in runs:
        page[offset : offset + len(data)] = data


def test_identical_pages_give_empty_diff():
    page = np.arange(64, dtype=np.uint8)
    diff = make_diff(0, page.copy(), page.copy())
    assert diff.is_empty
    assert diff.modified_bytes == 0


def test_single_byte_change_ships_its_word():
    twin = np.zeros(64, dtype=np.uint8)
    current = twin.copy()
    current[10] = 7
    diff = make_diff(0, twin, current)
    assert diff.runs.tolist() == [[1, 2]]  # the containing word
    assert diff.words.view(np.uint8).tolist() == [0, 0, 7, 0, 0, 0, 0, 0]


def test_adjacent_word_changes_coalesce_into_one_run():
    twin = np.zeros(64, dtype=np.uint8)
    current = twin.copy()
    current[8:24] = 1  # words 1 and 2
    diff = make_diff(0, twin, current)
    assert len(diff.runs) == 1
    assert diff.modified_bytes == 16


def test_separate_words_make_separate_runs():
    twin = np.zeros(64, dtype=np.uint8)
    current = twin.copy()
    current[0] = 1    # word 0
    current[32] = 2   # word 4
    current[63] = 3   # word 7
    diff = make_diff(0, twin, current)
    assert diff.runs.tolist() == [[0, 1], [4, 5], [7, 8]]


def test_size_bytes_counts_headers():
    twin = np.zeros(64, dtype=np.uint8)
    current = twin.copy()
    current[0] = 1
    current[32] = 1
    diff = make_diff(0, twin, current)
    assert diff.size_bytes == DIFF_HEADER_BYTES + 2 * (RUN_HEADER_BYTES + 8)


def test_non_word_sized_page_rejected():
    with pytest.raises(PagedMemoryError):
        make_diff(0, np.zeros(10, dtype=np.uint8), np.zeros(10, dtype=np.uint8))


def test_apply_diff_reconstructs_page():
    twin = np.random.default_rng(0).integers(0, 256, 128).astype(np.uint8)
    current = twin.copy()
    current[3:17] = 255
    current[100] = 0 if current[100] else 1
    diff = make_diff(0, twin, current)
    rebuilt = twin.copy()
    apply_diff(rebuilt, diff)
    assert np.array_equal(rebuilt, current)


def test_apply_out_of_range_run_rejected():
    page = np.zeros(16, dtype=np.uint8)
    bad = Diff(0, words=np.ones(1, dtype=np.uint64), runs=np.array([[2, 3]]))
    with pytest.raises(PagedMemoryError):
        apply_diff(page, bad)


def test_mismatched_shapes_rejected():
    with pytest.raises(PagedMemoryError):
        make_diff(0, np.zeros(8, dtype=np.uint8), np.zeros(16, dtype=np.uint8))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=16),
    st.data(),
)
def test_property_diff_apply_round_trips(num_words, data):
    """apply(twin, make_diff(twin, current)) == current, always."""
    length = num_words * 8
    twin = np.array(
        data.draw(st.lists(st.integers(0, 255), min_size=length, max_size=length)),
        dtype=np.uint8,
    )
    current = twin.copy()
    for _ in range(data.draw(st.integers(min_value=0, max_value=10))):
        pos = data.draw(st.integers(min_value=0, max_value=length - 1))
        current[pos] = data.draw(st.integers(min_value=0, max_value=255))
    diff = make_diff(0, twin, current)
    rebuilt = twin.copy()
    apply_diff(rebuilt, diff)
    assert np.array_equal(rebuilt, current)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_property_word_disjoint_diffs_merge_like_multiple_writers(data):
    """Two writers modifying disjoint WORDS of the same page can be
    merged in either order — the multiple-writer protocol's core
    assumption for data-race-free (word-granular) programs."""
    words = 8
    page_len = words * 8
    clean = np.array(
        data.draw(st.lists(st.integers(0, 255), min_size=page_len, max_size=page_len)),
        dtype=np.uint8,
    )
    split_word = data.draw(st.integers(min_value=1, max_value=words - 1))
    split = split_word * 8

    writer_a = clean.copy()
    writer_b = clean.copy()
    for pos in data.draw(st.lists(st.integers(0, split - 1), max_size=8)):
        writer_a[pos] = (int(writer_a[pos]) + 1) % 256
    for pos in data.draw(st.lists(st.integers(split, page_len - 1), max_size=8)):
        writer_b[pos] = (int(writer_b[pos]) + 1) % 256

    diff_a = make_diff(0, clean.copy(), writer_a)
    diff_b = make_diff(0, clean.copy(), writer_b)

    merged_ab = clean.copy()
    apply_diff(merged_ab, diff_a)
    apply_diff(merged_ab, diff_b)
    merged_ba = clean.copy()
    apply_diff(merged_ba, diff_b)
    apply_diff(merged_ba, diff_a)

    assert np.array_equal(merged_ab, merged_ba)
    expected = clean.copy()
    expected[:split] = writer_a[:split]
    expected[split:] = writer_b[split:]
    assert np.array_equal(merged_ab, expected)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_property_runs_are_word_aligned_sorted_disjoint(data):
    twin = np.zeros(96, dtype=np.uint8)
    current = twin.copy()
    for pos in data.draw(st.lists(st.integers(0, 95), max_size=30)):
        current[pos] = 1
    diff = make_diff(0, twin, current)
    # Runs are word index pairs, so aligned by construction; they are
    # ascending, non-empty and maximal (a gap of at least one word).
    last_end = -1
    for start, end in diff.runs.tolist():
        assert start > last_end
        assert end > start
        last_end = end
    assert sum(end - start for start, end in diff.runs.tolist()) == len(diff.words)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=64), st.data())
def test_property_word_arrays_match_the_run_list_encoder(num_words, data):
    """Run count, ``modified_bytes``, ``size_bytes`` and the applied page
    are the run-list encoder's, on any twin/page pair."""
    gen = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    twin = gen.integers(0, 256, num_words * 8, dtype=np.uint8)
    current = twin.copy()
    for pos in data.draw(st.lists(st.integers(0, num_words * 8 - 1), max_size=40)):
        current[pos] = data.draw(st.integers(0, 255))
    diff = make_diff(5, twin, current)
    runs = run_list_diff(twin, current)
    assert [(start * 8, (end - start) * 8) for start, end in diff.runs.tolist()] == [
        (offset, len(run)) for offset, run in runs
    ]
    assert diff.modified_bytes == sum(len(run) for _, run in runs)
    assert diff.size_bytes == DIFF_HEADER_BYTES + sum(
        RUN_HEADER_BYTES + len(run) for _, run in runs
    )
    assert diff.is_empty == (not runs)
    page = gen.integers(0, 256, num_words * 8, dtype=np.uint8)
    expected = page.copy()
    run_list_apply(expected, runs)
    apply_diff(page, diff)
    assert np.array_equal(page, expected)
