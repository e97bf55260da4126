"""The numpy behaviour that byte-identical outputs rest on.

A fixed seed gives byte-identical CSVs only while numpy keeps a few
behaviours that no other test names: the PCG64 stream and how it fills a
row in place, the order in which ``np.bincount``, ``np.add.at`` and
``np.cumsum`` add, ``np.minimum.at`` applying every repeated index, the
truncation of a float-to-int64 cast, the order of ties in a stable argsort,
and the key order and ties of ``np.lexsort``. Each is pinned here on a tiny
input where another order or rounding gives another result, so a numpy
upgrade that changes one fails here by name, not as a golden-hash mismatch.
"""

from __future__ import annotations

import math
from itertools import accumulate

import numpy as np
import pytest

from curvewalk import make_rng

# added left to right these give 9.001, right to left 12.0, and exactly
# 10.001: a sum shows the order in which it added them
VALUES = [1e16, 1.0, -1e16, 1.0, 0.5, 3.0, -2.5, 1e-3, 7.0]
FORWARD = list(accumulate(VALUES))  # Python adds doubles one at a time
BACKWARD = list(accumulate(VALUES[::-1]))


def test_values_tell_the_orders_apart():
    assert len({FORWARD[-1], BACKWARD[-1], math.fsum(VALUES)}) == 3


class TestPCG64:
    def test_leading_doubles_of_seed_0(self):
        # as int64 bit patterns, so the check is exact
        assert make_rng(0).random(3).view(np.int64).tolist() == [
            4603912460380616784, 4598531665292211828, 4586065728143989712]

    @pytest.mark.parametrize("k", [1, 5, 2048])
    def test_random_into_a_row_prefix_equals_random_of_that_size(self, k):
        # the lockstep engine fills a prefix of a generator's row of its
        # uniforms buffer in place; run_chain draws an array of the same size
        filled, drawn = make_rng(7), make_rng(7)
        uniforms = np.full((2, 4096), -1.0)
        filled.random(out=uniforms[1, :k])
        assert uniforms[1, :k].tobytes() == drawn.random(k).tobytes()
        assert (uniforms[1, k:] == -1.0).all() and (uniforms[0] == -1.0).all()
        assert filled.bit_generator.state == drawn.bit_generator.state

    def test_draws_in_blocks_continue_one_stream(self):
        whole, blocks = make_rng(11).random(10), make_rng(11)
        parts = [blocks.random(3), blocks.random(0), blocks.random(7)]
        assert np.concatenate(parts).tobytes() == whole.tobytes()


def test_bincount_adds_weights_in_input_order():
    bins = np.array([0, 1] * len(VALUES))
    weights = np.column_stack([VALUES, VALUES[::-1]]).ravel()
    assert np.bincount(bins, weights=weights).tolist() == [FORWARD[-1], BACKWARD[-1]]


def test_add_at_adds_in_input_order():
    sums = np.zeros(2)
    np.add.at(sums, np.array([0, 1] * len(VALUES)),
              np.column_stack([VALUES, VALUES[::-1]]).ravel())
    assert sums.tolist() == [FORWARD[-1], BACKWARD[-1]]


def test_cumsum_along_an_axis_adds_sequentially():
    rows = np.array([VALUES, VALUES[::-1]])
    assert np.cumsum(rows, axis=1).tolist() == [FORWARD, BACKWARD]
    assert np.cumsum(rows.T, axis=0).T.tolist() == [FORWARD, BACKWARD]
    assert np.cumsum(np.ascontiguousarray(rows.T), axis=0).T.tolist() == [FORWARD, BACKWARD]
    # in place along the last axis of a 3-d array, as the fold's running sums
    cube = rows[:, None, :].copy()
    np.cumsum(cube, axis=2, out=cube)
    assert cube[:, 0].tolist() == [FORWARD, BACKWARD]


def test_float_to_int64_cast_truncates():
    # the largest uniform PCG64 gives, times a degree, and values either
    # side of zero: truncation, not rounding or flooring
    x = np.array([1 - 2**-53, 2.5, 2.9999999999999996, -0.5, -2.7])
    assert x.astype(np.int64).tolist() == [0, 2, 2, 0, -2]
    assert (x * 3).astype(np.int64).tolist() == [int(v * 3) for v in x.tolist()]
    # the unsafe-cast multiply into an int64 array that the edge family uses
    cells = np.empty(len(x), dtype=np.int64)
    np.multiply(x, 4, out=cells, casting="unsafe")
    assert cells.tolist() == [3, 10, 11, -2, -10]


def test_stable_argsort_keeps_ties_in_input_order():
    # long enough that an unstable sort would not fall back to insertion sort
    keys = -(np.arange(100) * 7 % 5)
    want = sorted(range(len(keys)), key=lambda i: keys[i])  # Python's sort is stable
    assert np.argsort(keys, kind="stable").tolist() == want


def test_minimum_at_applies_every_repeated_index():
    # the fold's first-visit scan and distinct_prefix_counts take each
    # node's first position over repeated indices; a buffered assignment
    # keeps only the last write to a repeated index
    index, values = np.array([0, 0, 1, 1, 0]), np.array([3, 5, 7, 2, 4])
    unbuffered, buffered = np.full(2, 10), np.full(2, 10)
    np.minimum.at(unbuffered, index, values)
    buffered[index] = np.minimum(buffered[index], values)
    assert unbuffered.tolist() == [3, 2]
    assert buffered.tolist() == [4, 2]


def test_lexsort_sorts_by_its_last_key_first_and_keeps_full_ties_in_input_order():
    # extract_backbone and the weighted sweep's pop ranks break ties this way
    first = np.arange(100) * 3 % 2
    last = -(np.arange(100) * 7 % 5)
    want = sorted(range(100), key=lambda i: (last[i], first[i]))  # Python's sort is stable
    assert np.lexsort((first, last)).tolist() == want
    assert want != sorted(range(100), key=lambda i: (first[i], last[i]))
