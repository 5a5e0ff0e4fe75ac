"""Histogram unit behaviour: bucketing, quantiles, the per-node total."""

import math

import pytest

from repro.profile.histogram import SUBBUCKETS, Histogram, _bucket_index, bucket_bounds


def make(values):
    histogram = Histogram()
    for value in values:
        histogram.record(value)
    return histogram


# -- bucketing ----------------------------------------------------------------


def test_every_value_falls_inside_its_bucket_bounds():
    for value in [0.0, 0.5, 1.0, 1.06, 1.9, 2.0, 3.7, 10.0, 4096.0, 123456.789]:
        lower, upper = bucket_bounds(_bucket_index(value))
        assert lower <= value < upper or (value < 1.0 and upper == 1.0), value


def test_bucket_bounds_tile_the_axis_without_gaps():
    for index in range(0, 20 * SUBBUCKETS):
        _, upper = bucket_bounds(index)
        next_lower, _ = bucket_bounds(index + 1)
        assert upper == pytest.approx(next_lower)


def test_relative_error_is_bounded_by_subbucket_width():
    for value in [1.0, 7.3, 100.0, 999.0, 54321.0]:
        histogram = make([value])
        estimate = histogram.quantile(0.5)
        assert abs(estimate - value) / value <= 1.0 / SUBBUCKETS + 1e-9


def test_negative_sample_rejected():
    with pytest.raises(ValueError):
        Histogram().record(-1.0)


# -- quantiles ----------------------------------------------------------------


def test_empty_histogram_quantiles_are_zero():
    histogram = Histogram()
    assert histogram.quantile(0.0) == 0.0
    assert histogram.quantile(0.5) == 0.0
    assert histogram.quantile(0.99) == 0.0
    assert histogram.quantile(1.0) == 0.0
    assert histogram.mean == 0.0


def test_quantile_out_of_range_rejected():
    with pytest.raises(ValueError):
        make([1.0]).quantile(1.5)


def test_quantiles_clamped_to_observed_range():
    histogram = make([10.0, 20.0, 30.0])
    for q in (0.0, 0.5, 0.9, 0.99, 1.0):
        assert 10.0 <= histogram.quantile(q) <= 30.0
    assert histogram.quantile(1.0) == 30.0
    assert histogram.quantile(0.0) >= 10.0


def test_quantiles_are_monotone_in_q():
    histogram = make([1.0, 5.0, 9.0, 120.0, 7000.0, 7000.0, 31.0])
    quantiles = [histogram.quantile(q / 100.0) for q in range(0, 101, 5)]
    assert quantiles == sorted(quantiles)


# -- the per-node total -------------------------------------------------------


def running_sum(values):
    """Left-to-right float addition (``sum`` compensates on Python 3.12+)."""
    total = 0.0
    for value in values:
        total += value
    return total


def test_total_is_independent_of_how_the_nodes_samples_interleave():
    """A run's nodes emit their samples interleaved in whatever order the
    simulation produced them; the histogram's total is the exactly
    rounded sum of each node's stream-order sum, so two interleavings of
    the same per-node samples serialize identically, although one
    running sum over each stream would not."""
    node0, node1 = [0.1, 0.7, 1e6 + 0.3, 2.5], [0.2, 3.3, 1e-3, 17.0]
    by_node = [(v, 0) for v in node0] + [(v, 1) for v in node1]
    round_robin = [pair for pairs in zip([(v, 1) for v in node1], [(v, 0) for v in node0])
                   for pair in pairs]
    first, second = Histogram(), Histogram()
    for histogram, stream in ((first, by_node), (second, round_robin)):
        for value, node in stream:
            histogram.record(value, node)
    assert first.to_dict() == second.to_dict()
    assert first.total == math.fsum([running_sum(node0), running_sum(node1)])
    streams = [[value for value, _ in stream] for stream in (by_node, round_robin)]
    assert running_sum(streams[0]) != running_sum(streams[1])  # order-sensitive samples


# -- serialization ------------------------------------------------------------


def test_to_dict_is_canonical_and_json_safe():
    import json

    histogram = make([512.0, 1.0, 70.0])
    data = histogram.to_dict()
    assert list(data["buckets"]) == sorted(data["buckets"], key=int)
    json.dumps(data)  # no enum/float-key surprises
