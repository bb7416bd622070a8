"""The box-pruned ``order_matrix`` kernel against the per-row reference.

:meth:`NeighborOrderCache.order_matrix` ranks each spatial leaf's rows
against only the leaves whose bounding box can hold a neighbour.  It must
return exactly what the per-row ``np.lexsort`` of
:meth:`NeighborOrderCache.order_of` returns — same neighbours, same index
tie-breaks, bit-identical distances — on data built to stress the pruning:
clusters, exact duplicates, a lattice whose distance ties straddle every
tested prefix length, and a constant column (zero-width boxes).
"""

from functools import lru_cache

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.neighbors import NeighborOrderCache
from repro.neighbors.distance import METRICS, get_metric
from repro.online import ColumnarTupleStore

LENGTHS = (1, 10, 50)
REFERENCE_LENGTH = max(LENGTHS) + 1


def _clustered_rows(seed: int = 3) -> np.ndarray:
    """~3.1k rows: Gaussian clusters, a unit lattice, duplicate groups."""
    rng = np.random.default_rng(seed)
    centres = rng.uniform(-20.0, 20.0, size=(8, 3))
    blobs = np.vstack(
        [c + rng.normal(scale=rng.uniform(0.3, 2.0), size=(320, 3)) for c in centres]
    )
    # Integer lattice: 6, 12, 8 neighbours at distances 1, √2, √3 for an
    # interior point, so distance ties straddle positions 1, 10 and 50.
    axis = np.arange(6.0)
    lattice = np.stack(np.meshgrid(axis, axis, axis), axis=-1).reshape(-1, 3) + 40.0
    # Groups of 12 identical rows: zero-distance ties longer than L = 10.
    duplicates = np.repeat(blobs[rng.choice(len(blobs), 30, replace=False)], 12, axis=0)
    rows = np.vstack([blobs, lattice, duplicates])
    rows = rows[rng.permutation(len(rows))]
    constant = np.full((len(rows), 1), 7.5)
    return np.hstack([rows[:, :2], constant, rows[:, 2:]])


DATA = _clustered_rows()


@lru_cache(maxsize=None)
def _reference(metric: str, include_self: bool):
    """Per-row lexsort orderings (via ``order_of``) and their distances."""
    lazy = NeighborOrderCache(
        DATA, metric=metric, include_self=include_self, max_length=REFERENCE_LENGTH
    )
    metric_fn = get_metric(metric)
    orders = np.array([lazy.order_of(i) for i in range(len(DATA))])
    dists = np.vstack(
        [
            np.take_along_axis(
                metric_fn(DATA[start : start + 256], DATA),
                orders[start : start + 256],
                axis=1,
            )
            for start in range(0, len(DATA), 256)
        ]
    )
    return orders, dists


def test_data_exercises_the_edge_cases():
    assert DATA.shape[0] >= 3000
    assert np.ptp(DATA[:, 2]) == 0.0
    _, counts = np.unique(DATA, axis=0, return_counts=True)
    assert counts.max() > max(LENGTHS[:2])
    # A lattice point's 10th and 11th neighbours tie (both at distance √2).
    orders, dists = _reference("paper_euclidean", True)
    assert np.any(dists[:, 9] == dists[:, 10])


@pytest.mark.parametrize("metric", sorted(METRICS))
@pytest.mark.parametrize("include_self", [True, False])
@pytest.mark.parametrize("keep_distances", [True, False])
@pytest.mark.parametrize("length", LENGTHS)
def test_matches_per_row_reference(metric, include_self, keep_distances, length):
    cache = NeighborOrderCache(
        DATA,
        metric=metric,
        include_self=include_self,
        max_length=length,
        keep_distances=keep_distances,
    )
    ref_orders, ref_dists = _reference(metric, include_self)
    np.testing.assert_array_equal(cache.order_matrix(), ref_orders[:, :length])
    if keep_distances:
        np.testing.assert_array_equal(cache.order_distances, ref_dists[:, :length])
    else:
        assert cache.order_distances is None
        # The backfill goes through the same kernel: bit-identical too.
        np.testing.assert_array_equal(
            cache._ensure_distances(), ref_dists[:, :length]
        )


@pytest.mark.parametrize("chunk_size", [1, 7, 64, 5000])
def test_leaf_size_does_not_change_the_result(chunk_size):
    rows = DATA[::6]
    cache = NeighborOrderCache(rows, include_self=False, max_length=10)
    lazy = NeighborOrderCache(rows, include_self=False, max_length=10)
    matrix = cache.order_matrix(chunk_size=chunk_size)
    for i in range(len(rows)):
        np.testing.assert_array_equal(matrix[i], lazy.order_of(i))


@pytest.mark.parametrize("n", [1, 2, 20, 63])
@pytest.mark.parametrize("include_self", [True, False])
def test_fewer_rows_than_one_leaf(n, include_self):
    rows = DATA[:n]
    cache = NeighborOrderCache(rows, include_self=include_self, keep_distances=True)
    lazy = NeighborOrderCache(rows, include_self=include_self)
    matrix = cache.order_matrix()
    assert matrix.shape == (n, lazy.max_neighbors())
    for i in range(n):
        np.testing.assert_array_equal(matrix[i], lazy.order_of(i))
        np.testing.assert_array_equal(
            cache.order_distances[i], get_metric(cache.metric)(rows[i], rows)[matrix[i]]
        )


@pytest.mark.parametrize("include_self", [True, False])
def test_multi_shard_store_view_matches_matrix_mode(include_self):
    width = DATA.shape[1] + 1
    store = ColumnarTupleStore(width, shard_capacity=256)
    extra = np.arange(len(DATA), dtype=float)[:, None]
    values = np.hstack([DATA[:, :2], extra, DATA[:, 2:]])
    store.append(values[:2000])
    store.append(values[2000:])
    store.delete(np.arange(5, 600, 7))
    view = store.feature_view(exclude=2)
    assert len(view.shard_groups()) > 1
    view_cache = NeighborOrderCache(
        view, include_self=include_self, max_length=10, keep_distances=True
    )
    matrix_cache = NeighborOrderCache(
        np.asarray(view), include_self=include_self, max_length=10, keep_distances=True
    )
    np.testing.assert_array_equal(view_cache.order_matrix(), matrix_cache.order_matrix())
    np.testing.assert_array_equal(
        view_cache.order_distances, matrix_cache.order_distances
    )


def test_pruning_skips_most_pairs_on_clustered_data():
    cache = NeighborOrderCache(DATA, include_self=True, max_length=10)
    metric_fn = cache._metric_fn
    evaluated = []

    def counting(query, data):
        query = np.asarray(query)
        evaluated.append((query.shape[0] if query.ndim == 2 else 1) * len(data))
        return metric_fn(query, data)

    cache._metric_fn = counting
    matrix = cache.order_matrix()
    n = len(DATA)
    assert sum(evaluated) < n * n / 4
    ref_orders, _ = _reference("paper_euclidean", True)
    np.testing.assert_array_equal(matrix, ref_orders[:, :10])


@pytest.mark.parametrize("chunk_size", [-4, 0, 2.5, True])
def test_invalid_chunk_size_is_a_configuration_error(chunk_size):
    cache = NeighborOrderCache(DATA[:50], max_length=5)
    with pytest.raises(ConfigurationError, match="chunk_size"):
        cache.order_matrix(chunk_size=chunk_size)
    assert cache._matrix is None
    with pytest.raises(ConfigurationError, match="chunk_size"):
        cache._ensure_distances(chunk_size=chunk_size)
    assert cache._matrix is None and cache.order_distances is None
    cache.order_matrix()
    with pytest.raises(ConfigurationError, match="chunk_size"):
        cache.order_matrix(chunk_size=chunk_size)
