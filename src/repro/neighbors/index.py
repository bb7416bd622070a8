"""Facade over the neighbour-search backends plus a cached neighbour ordering.

:class:`NeighborIndex` gives the rest of the library a single entry point:
pick a backend (``"brute"`` or ``"kdtree"``), fit it on the complete
relation's ``F`` columns, and query ``NN(t, F, k)``.

:class:`NeighborOrderCache` materialises, for each indexed tuple on demand,
the ordering of the other tuples by distance.  Adaptive learning
(Algorithm 3) and the incremental computation (Section V-B) both rely on the
fact that ``NN(t, F, ℓ)`` is a *prefix* of ``NN(t, F, ℓ + h)`` (Formula 13);
caching the ordering once per tuple makes every prefix available in O(1).
The cache is lazy and can be capped at a maximum ordering length so that the
memory cost stays ``O(n · max_length)`` rather than ``O(n²)``.

:meth:`NeighborOrderCache.order_matrix` additionally materialises *all*
orderings at once as a dense ``(n, max_length)`` matrix — the entry point
the vectorized learning kernels build on.  It is built by an exact
box-pruned kernel rather than an ``n × n`` scan: the indexed matrix is taken
once, split into spatial leaves by the median-split builder of
:class:`~repro.neighbors.kdtree.KDTreeNeighbors`, and each leaf's rows (the
*query block*) are ranked against the data leaves that can matter.  Per
block, a data leaf's lower bound is the cache's own metric applied to the
per-coordinate gaps between the two bounding boxes (every metric here is
monotone in those gaps, and the bound is scaled down by a tiny relative
slack so rounding can only keep a leaf, never drop one).  The threshold is
the largest per-row ``select``-th distance over the nearest leaves holding
at least ``select`` points; every leaf whose bound is at most the threshold
is kept, and one distance block against the kept points, in index order,
goes through the same ``topk_batch``/``stable_order``/``drop_self_rows``
finish as a full row.  The result is bit-identical to the full scan: each
pair's distance is computed independently of the block it sits in (the
property :meth:`~repro.online.store.StoreFeatureView.pairwise` relies on
too), candidates ascend by index so index tie-breaks survive, and every
excluded point is strictly farther than the threshold, hence outside every
row's top ``select``.

:meth:`NeighborOrderCache.append` grows the cache *incrementally*: new
tuples are merged into every cached ordering by one sorted merge per row
(cost ``O(n · (L + b))`` instead of the ``O(n²)`` rebuild), and the result
reports, per pre-existing tuple, the first ordering position that changed —
the signal the online engine uses to invalidate only the affected per-tuple
models.  The merged orderings are exactly those a cold rebuild over the
grown data would produce (same distance values, same index tie-breaks).

:class:`NeighborOrderCache` can be backed either by a private data matrix
(the standalone/batch mode) or — for the online engine — by a *store
feature view* (:class:`repro.online.store.StoreFeatureView`): an object
carrying slot references into the shared columnar tuple store instead of a
``(n, m)`` float copy.  In store-backed mode the lifecycle methods take
slot references (``append(slots=...)`` / ``replace(index, slot=...)``),
row values are gathered from the store on demand, and pairwise distances
are computed per shard — bit-identical to the matrix mode, without the
cache owning any tuple payload.  Only :meth:`~NeighborOrderCache.order_matrix`
gathers the whole view, once per build, into a matrix it drops afterwards.

:meth:`NeighborOrderCache.remove` and :meth:`NeighborOrderCache.replace`
complete the tuple lifecycle.  Removal compacts every cached ordering (an
order-preserving deletion of the removed entries, so index tie-breaks stay
correct under the compacted renumbering) and re-fills the few rows whose
capped ordering went short from fresh distance rows; replacement removes
the stale entry from every ordering and merges the revised tuple back in by
one row-wise ``(distance, index)`` lexsort over the kept distances.  Both
report per-row first-changed positions exactly like :meth:`append`, and
both leave the cache bit-identical to a cold rebuild over the surviving
data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .._validation import as_float_matrix, check_positive_int
from ..exceptions import ConfigurationError, DataError, NotFittedError
from .brute import BruteForceNeighbors, drop_self_rows, stable_order, topk_batch
from .distance import get_metric
from .kdtree import KDTreeNeighbors

__all__ = [
    "NeighborIndex",
    "NeighborOrderCache",
    "OrderAppendResult",
    "OrderRemoveResult",
    "OrderReplaceResult",
]

_BACKENDS = ("brute", "kdtree")

# Leaf lower bounds are scaled down by this factor, so a rounding difference
# between a bound and the distances it bounds can keep a leaf, never drop one.
_BOUND_SCALE = 1.0 - 1e-9


def _leaf_size(chunk_size: Optional[int]) -> int:
    """The validated ``chunk_size`` of :meth:`NeighborOrderCache.order_matrix`."""
    return 48 if chunk_size is None else check_positive_int(chunk_size, "chunk_size")


class NeighborIndex:
    """Unified k-nearest-neighbour index.

    Parameters
    ----------
    metric:
        Distance metric name (see :mod:`repro.neighbors.distance`).
    backend:
        ``"brute"`` (default, supports every metric) or ``"kdtree"``
        (Euclidean family only, faster for large ``n``).
    leaf_size:
        KD-tree leaf size; ignored by the brute-force backend.
    """

    def __init__(self, metric: str = "paper_euclidean", backend: str = "brute", leaf_size: int = 32):
        if backend not in _BACKENDS:
            raise ConfigurationError(f"backend must be one of {_BACKENDS}, got {backend!r}")
        self.metric = metric
        self.backend = backend
        self.leaf_size = leaf_size
        if backend == "kdtree":
            self._impl = KDTreeNeighbors(metric=metric, leaf_size=leaf_size)
        else:
            self._impl = BruteForceNeighbors(metric=metric)
        self._fitted = False

    def fit(self, data) -> "NeighborIndex":
        """Index the rows of ``data``."""
        self._impl.fit(as_float_matrix(data, name="data"))
        self._fitted = True
        return self

    @property
    def n_points(self) -> int:
        """Number of indexed points."""
        self._check_fitted()
        return self._impl.n_points

    def _check_fitted(self) -> None:
        if not self._fitted:
            raise NotFittedError("NeighborIndex must be fitted before querying")

    def kneighbors(self, query, k: int, exclude_self: bool = False) -> Tuple[np.ndarray, np.ndarray]:
        """``NN(query, F, k)`` — distances and indices of the k nearest points."""
        self._check_fitted()
        return self._impl.kneighbors(query, k, exclude_self=exclude_self)

    def kneighbors_indices(self, query, k: int, exclude_self: bool = False) -> np.ndarray:
        """Indices only, for callers that do not need the distances."""
        return self.kneighbors(query, k, exclude_self=exclude_self)[1]


@dataclass
class OrderAppendResult:
    """Outcome of one :meth:`NeighborOrderCache.append` call.

    Attributes
    ----------
    n_before:
        Number of indexed tuples before the append.
    n_appended:
        Number of tuples added by the append.
    first_changed:
        Array of shape ``(n_before,)``: for every pre-existing tuple, the
        first position of its cached ordering that changed.  A tuple whose
        ordering merely grew at the tail reports the old effective length; a
        tuple whose ordering is completely unchanged reports the new
        effective length (so ``first_changed[i] < ell`` is exactly "the
        ``ell``-prefix of tuple ``i`` changed").
    """

    n_before: int
    n_appended: int
    first_changed: np.ndarray

    def changed_rows(self, prefix_length: int) -> np.ndarray:
        """Pre-existing tuples whose first ``prefix_length`` neighbours changed."""
        prefix_length = check_positive_int(prefix_length, "prefix_length")
        return np.flatnonzero(self.first_changed < prefix_length)


@dataclass
class OrderRemoveResult:
    """Outcome of one :meth:`NeighborOrderCache.remove` call.

    Attributes
    ----------
    n_before:
        Number of indexed tuples before the removal.
    n_removed:
        Number of tuples removed.
    first_changed:
        Array of shape ``(n_after,)``, aligned with the *surviving* tuples
        in their new (compacted) index order: the first position of each
        surviving tuple's ordering where the neighbour *identity* changed.
        A fully unchanged ordering reports the new effective length, so
        ``first_changed[i] < ell`` is exactly "the ``ell``-prefix of
        surviving tuple ``i`` changed".
    index_map:
        Array of shape ``(n_before,)`` mapping old tuple indices to their
        compacted new indices; removed tuples map to ``-1``.
    """

    n_before: int
    n_removed: int
    first_changed: np.ndarray
    index_map: np.ndarray

    def changed_rows(self, prefix_length: int) -> np.ndarray:
        """Surviving tuples (new indices) whose ``prefix_length``-prefix changed."""
        prefix_length = check_positive_int(prefix_length, "prefix_length")
        return np.flatnonzero(self.first_changed < prefix_length)

    def kept_rows(self) -> np.ndarray:
        """Old indices of the surviving tuples, in new index order."""
        return np.flatnonzero(self.index_map >= 0)


@dataclass
class OrderReplaceResult:
    """Outcome of one :meth:`NeighborOrderCache.replace` call.

    Attributes
    ----------
    index:
        The replaced tuple's index (unchanged by the operation).
    first_changed:
        Array of shape ``(n,)``: per tuple, the first ordering position
        whose neighbour identity changed (``length`` when unchanged).  Note
        this tracks ordering changes only — a tuple whose prefix still
        *contains* ``index`` at the same position has an unchanged ordering
        even though that neighbour's values changed; callers that learn
        models over the prefix values must treat those rows as dirty too.
    """

    index: int
    first_changed: np.ndarray

    def changed_rows(self, prefix_length: int) -> np.ndarray:
        """Tuples whose first ``prefix_length`` neighbours changed."""
        prefix_length = check_positive_int(prefix_length, "prefix_length")
        return np.flatnonzero(self.first_changed < prefix_length)


class NeighborOrderCache:
    """Per-tuple neighbour orderings, computed lazily and cached.

    Parameters
    ----------
    data:
        Matrix of shape ``(n, m)`` — typically the complete relation
        restricted to the complete attributes ``F``.
    metric:
        Distance metric name.
    include_self:
        Whether a tuple counts as its own nearest neighbour (the paper's
        learning phase includes the tuple itself in ``NN(t_i, F, ℓ)``;
        the validation step of Algorithm 3 excludes it).
    max_length:
        Optional cap on the ordering length kept per tuple; ``None`` keeps
        the full ordering.  Capping bounds memory at ``O(n · max_length)``.
    keep_distances:
        Also materialise the distances aligned with the cached orderings
        (needed by :meth:`append`, which enables it automatically).  Off by
        default so batch-learning callers pay for the index matrix only.
    """

    def __init__(
        self,
        data,
        metric: str = "paper_euclidean",
        include_self: bool = True,
        max_length: Optional[int] = None,
        keep_distances: bool = False,
    ):
        # A store feature view (duck-typed: it computes its own per-shard
        # pairwise distances) is kept as-is; anything else is a matrix.
        self._store_backed = hasattr(data, "pairwise") and hasattr(data, "slots")
        if self._store_backed:
            self._data = data
        else:
            self._data = as_float_matrix(data, name="data")
        self._metric_fn = get_metric(metric)
        self.metric = metric
        self.include_self = bool(include_self)
        if max_length is not None:
            max_length = check_positive_int(max_length, "max_length")
        # The *requested* cap is kept separately so the effective length can
        # grow back towards it when append() adds tuples to a store that was
        # smaller than the cap.
        self._requested_length = max_length
        self.max_length = None if max_length is None else min(max_length, self.max_neighbors())
        self.keep_distances = bool(keep_distances)
        self._cache: Dict[int, np.ndarray] = {}
        self._matrix: Optional[np.ndarray] = None
        self._dists: Optional[np.ndarray] = None

    @property
    def n_points(self) -> int:
        """Number of indexed points."""
        return self._data.shape[0]

    @property
    def data(self):
        """The indexed points: a read-only array, or the store view."""
        if self._store_backed:
            return self._data
        view = self._data.view()
        view.setflags(write=False)
        return view

    @property
    def store_backed(self) -> bool:
        """Whether the cache reads through a shared columnar store."""
        return self._store_backed

    @property
    def slots(self) -> Optional[np.ndarray]:
        """Store slots of the indexed points (store-backed mode only)."""
        return self._data.slots if self._store_backed else None

    def _pairwise(self, query) -> np.ndarray:
        """Distances of ``query`` against every indexed point."""
        if self._store_backed:
            return self._data.pairwise(query, self._metric_fn)
        return self._metric_fn(query, self._data)

    def max_neighbors(self) -> int:
        """The largest ℓ available from this cache."""
        return self.n_points if self.include_self else self.n_points - 1

    def effective_length(self) -> int:
        """The ordering length currently kept per tuple."""
        return self.max_neighbors() if self.max_length is None else self.max_length

    def _compute_order(self, index: int) -> np.ndarray:
        distances = self._pairwise(self._data[index])
        order = np.lexsort((np.arange(distances.shape[0]), distances))
        if not self.include_self:
            keep = order != index
            order = order[keep]
        limit = self.max_length
        if limit is not None:
            order = order[:limit]
        return np.ascontiguousarray(order)

    def order_of(self, index: int) -> np.ndarray:
        """Tuples ordered by increasing distance from tuple ``index``."""
        if not 0 <= index < self.n_points:
            raise ConfigurationError(f"tuple index {index} out of range")
        if self._matrix is not None:
            return self._matrix[index]
        cached = self._cache.get(index)
        if cached is None:
            cached = self._compute_order(index)
            self._cache[index] = cached
        return cached

    def order_matrix(self, chunk_size: Optional[int] = None) -> np.ndarray:
        """All orderings as one ``(n, L)`` matrix (``L`` = effective length).

        Built by the exact box-pruned kernel of the module docstring: each
        spatial leaf's rows are ranked against only the leaves whose
        bounding box can hold one of their ``L`` nearest neighbours, with
        ties broken by index exactly like the per-row ``np.lexsort`` of
        :meth:`order_of`.  The result is cached, after which
        :meth:`order_of` and :meth:`prefix` become O(1) row views.

        Parameters
        ----------
        chunk_size:
            Leaf size of the spatial partition, i.e. the most query rows
            ranked per distance block.  The default 48 gives leaves of
            24–48 rows (leaves of 16–32 rows measured slower on 10k rows of
            4-D data, leaves of 32–64 rows on 4k rows of 12-D data).
        """
        chunk_size = _leaf_size(chunk_size)
        if self._matrix is not None:
            return self._matrix
        self._matrix, dists = self._ranked(chunk_size)
        self._dists = dists if self.keep_distances else None
        self._cache.clear()
        return self._matrix

    def _ranked(self, chunk_size: int) -> Tuple[np.ndarray, np.ndarray]:
        """Every tuple's ordering and its distances, by the pruned kernel."""
        data = self._data.materialize() if self._store_backed else self._data
        n, width = data.shape
        length = self.effective_length()
        orders = np.empty((n, length), dtype=int)
        dists = np.empty((n, length))
        if n == 0:
            return orders, dists
        # Without include_self the self entry must be dropped from the kept
        # prefix, so one extra ordered position is selected per row.
        select = min(n, length + (0 if self.include_self else 1))
        leaves = KDTreeNeighbors(leaf_size=chunk_size).fit(data).leaves()
        sizes = np.array([leaf.size for leaf in leaves])
        leaf_of = np.empty(n, dtype=int)
        for number, leaf in enumerate(leaves):
            leaf_of[leaf] = number
        lows = np.array([data[leaf].min(axis=0) for leaf in leaves])
        highs = np.array([data[leaf].max(axis=0) for leaf in leaves])
        zeros = np.zeros((1, width))
        for leaf in leaves:
            for start in range(0, leaf.size, chunk_size):
                rows = leaf[start : start + chunk_size]
                query = data[rows]
                gaps = np.maximum(
                    np.maximum(lows - query.max(axis=0), query.min(axis=0) - highs),
                    0.0,
                )
                bounds = self._metric_fn(gaps, zeros)[:, 0] * _BOUND_SCALE
                nearest = np.argsort(bounds, kind="stable")
                enough = int(np.searchsorted(np.cumsum(sizes[nearest]), select)) + 1
                chosen = np.zeros(len(leaves), dtype=bool)
                chosen[nearest[:enough]] = True
                candidates = np.flatnonzero(chosen[leaf_of])
                distances = self._metric_fn(query, data[candidates])
                if enough < len(leaves):
                    # The nearest leaves hold >= select points per row, so no
                    # row's select-th neighbour is beyond ``threshold``, and
                    # every point that close sits in a leaf bounded by it.
                    threshold = np.partition(distances, select - 1, axis=1)[
                        :, select - 1
                    ].max()
                    candidates = np.flatnonzero((bounds <= threshold)[leaf_of])
                    distances = self._metric_fn(query, data[candidates])
                cols, kept = self._rank(
                    distances, np.searchsorted(candidates, rows), length
                )
                orders[rows] = candidates[cols]
                dists[rows] = kept
        return orders, dists

    def _rank(
        self, distances: np.ndarray, self_cols: np.ndarray, length: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Columns of each row's ``length`` nearest entries, and their distances.

        Columns must ascend with tuple index (ties break by column) and hold
        every entry of the row's top ``length`` (+1 without include_self);
        without include_self, column ``self_cols[r]`` is dropped from row ``r``.
        """
        select = min(distances.shape[1], length + (0 if self.include_self else 1))
        if select < distances.shape[1]:
            _, order = topk_batch(distances, select)
        else:
            order = stable_order(distances)
        if not self.include_self:
            order = drop_self_rows(order, self_cols)
        order = order[:, :length]
        return order, np.take_along_axis(distances, order, axis=1)

    def prefix(self, index: int, length: int) -> np.ndarray:
        """``NN(t_index, F, length)`` as a prefix of the cached ordering."""
        length = check_positive_int(length, "length")
        order = self.order_of(index)
        if length > order.shape[0]:
            raise ConfigurationError(
                f"requested {length} neighbours but only {order.shape[0]} are available"
            )
        return order[:length]

    # ------------------------------------------------------------------ #
    # Incremental maintenance
    # ------------------------------------------------------------------ #
    def _normalize_rows(self, rows, name: str) -> np.ndarray:
        """Coerce ``rows`` to a validated ``(b, m)`` float block.

        A single 1-D tuple becomes one row; an empty batch still has its
        attribute count checked (a ``(0, m+3)`` block is a shape error, not
        a silent no-op).  Width mismatches violate the index contract and
        raise :class:`ConfigurationError`; malformed contents (conversion
        failures, NaN/inf cells) are data problems and raise
        :class:`DataError`, matching :func:`~repro._validation.as_float_matrix`.
        """
        width = self._data.shape[1]
        try:
            rows = np.asarray(rows, dtype=float)
        except (TypeError, ValueError) as exc:
            raise DataError(
                f"{name} could not be converted to a float array: {exc}"
            ) from exc
        if rows.ndim == 1:
            rows = rows.reshape(1, -1) if rows.size else rows.reshape(0, width)
        if rows.ndim != 2:
            raise DataError(
                f"{name} must be 2-dimensional, got shape {rows.shape}"
            )
        if rows.shape[1] != width:
            raise ConfigurationError(
                f"{name} have {rows.shape[1]} attributes, index has {width}"
            )
        if not np.all(np.isfinite(rows)):
            raise DataError(f"{name} contain NaN or infinite values")
        return np.ascontiguousarray(rows)

    def append(self, rows=None, *, slots=None) -> OrderAppendResult:
        """Add tuples to the indexed data and update every cached ordering.

        Each pre-existing tuple's ordering is merged with the new candidate
        distances by one stable row-wise sort over ``L + b`` entries; the new
        tuples' orderings are computed against the grown store.  Both are
        *exactly* the orderings a cold rebuild would produce: the per-pair
        distance values are identical and ties still break by index (old
        tuples carry smaller indices than appended ones, and the old cached
        ordering/new candidate block are each already in index order, so a
        stable sort on distance preserves the lexicographic order).

        The effective ordering length grows back towards the requested
        ``max_length`` cap as the store grows; a tuple whose cached ordering
        held *all* points keeps a complete ordering after the merge.

        In store-backed mode pass ``slots`` (the columnar-store slots the
        engine appended) instead of ``rows``; the values are gathered from
        the store.

        Returns an :class:`OrderAppendResult` reporting, per pre-existing
        tuple, the first ordering position that changed.
        """
        n_before = self.n_points
        if self._store_backed:
            if slots is None:
                raise ConfigurationError(
                    "a store-backed cache grows by slots; pass append(slots=...)"
                )
            slots = np.asarray(slots, dtype=np.int64)
            rows = self._data.store.rows(slots, attrs=self._data.attrs)
        else:
            if rows is None:
                raise ConfigurationError("append requires rows (or a store view)")
            rows = self._normalize_rows(rows, "appended rows")
        if rows.shape[0] == 0:
            length = self.effective_length()
            return OrderAppendResult(
                n_before, 0, np.full(n_before, length, dtype=int)
            )
        n_appended = rows.shape[0]

        # Materialise the current orderings (and distances) before growing.
        self.keep_distances = True
        old_orders = self.order_matrix()
        old_dists = self._ensure_distances()
        old_length = old_orders.shape[1]

        n_after = n_before + n_appended
        new_indices = np.arange(n_before, n_after)

        # Distances of the appended rows against the full grown store; the
        # transpose of its left block is, by metric symmetry, bit-identical
        # to what a cold rebuild computes for the pre-existing rows.
        if self._store_backed:
            self._data = self._data.extended(slots)
        else:
            self._data = np.vstack([self._data, rows])
        appended_distances = self._pairwise(rows)

        if self._requested_length is not None:
            self.max_length = min(self._requested_length, self.max_neighbors())
        new_length = self.effective_length()

        # --- Orderings of the appended tuples (cold path over the full
        # store, truncated selection exactly like order_matrix()).
        appended_order, appended_order_dists = self._rank(
            appended_distances, new_indices, new_length
        )

        # --- Merge the new candidates into every pre-existing ordering.
        candidate_dists = appended_distances[:, :n_before].T  # (n_before, b)
        concat_dists = np.hstack([old_dists, candidate_dists])
        concat_orders = np.hstack(
            [old_orders, np.broadcast_to(new_indices, (n_before, n_appended))]
        )
        merge = np.argsort(concat_dists, axis=1, kind="stable")[:, :new_length]
        merged_orders = np.take_along_axis(concat_orders, merge, axis=1)
        merged_dists = np.take_along_axis(concat_dists, merge, axis=1)

        # First changed position per pre-existing tuple (old_length when the
        # ordering only grew at the tail, new_length when fully unchanged).
        padded = np.full((n_before, new_length), -1, dtype=int)
        padded[:, :old_length] = old_orders[:, : min(old_length, new_length)]
        differs = merged_orders != padded
        first_changed = np.where(
            differs.any(axis=1), differs.argmax(axis=1), new_length
        )

        self._matrix = np.vstack([merged_orders, appended_order])
        self._dists = np.vstack([merged_dists, appended_order_dists])
        self._cache.clear()
        return OrderAppendResult(n_before, n_appended, first_changed)

    def remove(self, indices) -> OrderRemoveResult:
        """Remove tuples from the indexed data and repair every ordering.

        Each surviving tuple's ordering is *compacted*: the removed entries
        are deleted in place (an order-preserving operation, so the result
        is the cold ordering over the surviving data under the compacted
        renumbering — the old index tie-breaks map monotonically onto the
        new ones).  Rows whose capped ordering loses more entries than the
        new effective length allows are re-filled from a fresh distance row
        (the dropped tail was never cached); uncapped caches never need
        this.

        Returns an :class:`OrderRemoveResult` carrying the per-survivor
        first-changed positions (new index space) and the old→new
        ``index_map``.
        """
        n_before = self.n_points
        indices = np.unique(np.atleast_1d(np.asarray(indices, dtype=int)))
        if indices.size == 0:
            return OrderRemoveResult(
                n_before,
                0,
                np.full(n_before, self.effective_length(), dtype=int),
                np.arange(n_before),
            )
        if indices[0] < 0 or indices[-1] >= n_before:
            raise ConfigurationError(
                f"removal indices must lie in [0, {n_before}), got "
                f"[{indices[0]}, {indices[-1]}]"
            )

        removed_mask = np.zeros(n_before, dtype=bool)
        removed_mask[indices] = True
        kept = np.flatnonzero(~removed_mask)
        index_map = np.full(n_before, -1, dtype=int)
        index_map[kept] = np.arange(kept.size)
        n_after = kept.size

        if n_after == 0:
            if self._store_backed:
                self._data = self._data.selected(np.empty(0, dtype=np.int64))
            else:
                self._data = self._data[:0].copy()
            self.max_length = None if self._requested_length is None else 0
            self._matrix = np.empty((0, 0), dtype=int)
            self._dists = np.empty((0, 0)) if self.keep_distances else None
            self._cache.clear()
            return OrderRemoveResult(
                n_before, n_before, np.empty(0, dtype=int), index_map
            )

        # Materialise the current orderings (and distances) before shrinking.
        self.keep_distances = True
        old_orders = self.order_matrix()
        old_dists = self._ensure_distances()

        if self._store_backed:
            self._data = self._data.selected(kept)
        else:
            self._data = self._data[kept]
        if self._requested_length is not None:
            self.max_length = min(self._requested_length, self.max_neighbors())
        new_length = self.effective_length()

        # --- Compact each survivor's ordering: stable-partition the kept
        # entries to the front (order preserved), then truncate.
        rows = old_orders[kept]
        row_dists = old_dists[kept]
        keep_entry = ~removed_mask[rows]
        counts = keep_entry.sum(axis=1)
        cols = np.argsort(~keep_entry, axis=1, kind="stable")[:, :new_length]
        compact = np.take_along_axis(rows, cols, axis=1)
        compact_d = np.take_along_axis(row_dists, cols, axis=1)
        new_orders = index_map[compact]
        new_dists = compact_d

        # --- Rows whose capped ordering went short lost prefix entries the
        # cache never held beyond the cap; rebuild those rows cold.
        deficit = np.flatnonzero(counts < new_length)
        if deficit.size:
            distances = self._pairwise(self._data[deficit])
            new_orders[deficit], new_dists[deficit] = self._rank(
                distances, deficit, new_length
            )

        # First changed position per survivor: compare neighbour identities
        # against the old prefix (removed entries map to -1, never equal).
        old_remap = index_map[rows[:, :new_length]]
        differs = new_orders != old_remap
        first_changed = np.where(
            differs.any(axis=1), differs.argmax(axis=1), new_length
        )

        self._matrix = np.ascontiguousarray(new_orders)
        self._dists = np.ascontiguousarray(new_dists)
        self._cache.clear()
        return OrderRemoveResult(n_before, indices.size, first_changed, index_map)

    def replace(self, index: int, row=None, *, slot=None) -> OrderReplaceResult:
        """Replace one indexed tuple's values and repair every ordering.

        Removal + merge over the kept distances: the stale entry for
        ``index`` is dropped from every ordering (its cached distance is
        retired) and the revised tuple is merged back in by one row-wise
        ``(distance, index)`` lexsort, so ties still break exactly like a
        cold rebuild.  Rows where the revised tuple fell out of a capped
        prefix are re-filled from a fresh distance row; the replaced
        tuple's own ordering is recomputed outright.

        In store-backed mode pass ``slot`` (the fresh columnar-store slot
        holding the revised tuple) instead of ``row``.
        """
        n = self.n_points
        index = int(index)
        if not 0 <= index < n:
            raise ConfigurationError(f"tuple index {index} out of range")
        if self._store_backed:
            if slot is None:
                raise ConfigurationError(
                    "a store-backed cache revises by slot; pass replace(index, slot=...)"
                )
        else:
            if row is None:
                raise ConfigurationError("replace requires a row (or a store view)")
            row = self._normalize_rows(row, "replacement row")
            if row.shape[0] != 1:
                raise ConfigurationError(
                    f"replace expects exactly one row, got {row.shape[0]}"
                )

        self.keep_distances = True
        old_orders = self.order_matrix()
        old_dists = self._ensure_distances()
        length = old_orders.shape[1]

        if self._store_backed:
            self._data = self._data.replaced(index, slot)
        else:
            data = self._data.copy()
            data[index] = row[0]
            self._data = data
        # Distances of the revised tuple against the updated store (its own
        # entry included); by metric symmetry this column doubles as every
        # other tuple's candidate distance.
        cand_dists = self._pairwise(self._data[index])

        # --- Drop the stale entry for ``index`` from every ordering (it
        # moves to the last column), then merge the revised candidate in.
        stale = old_orders == index
        contained = stale.any(axis=1)
        cols = np.argsort(stale, axis=1, kind="stable")
        compact = np.take_along_axis(old_orders, cols, axis=1)
        compact_d = np.take_along_axis(old_dists, cols, axis=1)
        # Retire the stale entry by pushing it past every finite distance.
        compact_d[contained, -1] = np.inf

        concat_orders = np.hstack(
            [compact, np.full((n, 1), index, dtype=int)]
        )
        concat_dists = np.hstack([compact_d, cand_dists[:, None]])
        merge = np.lexsort((concat_orders, concat_dists), axis=1)[:, :length]
        new_orders = np.take_along_axis(concat_orders, merge, axis=1)
        new_dists = np.take_along_axis(concat_dists, merge, axis=1)

        # --- Re-fill rows that cannot be repaired from cached state: a row
        # whose capped ordering contained ``index`` only knows length - 1
        # other entries, so when the revised candidate lands on the final
        # position the true occupant may be an uncached tuple.
        truncated = length < self.max_neighbors()
        refill = [index]
        if truncated and contained.any():
            cand_last = new_orders[:, length - 1] == index
            refill = np.flatnonzero(contained & cand_last).tolist()
            if index not in refill:
                refill.append(index)
        refill = np.asarray(sorted(refill), dtype=int)
        distances = self._pairwise(self._data[refill])
        new_orders[refill], new_dists[refill] = self._rank(distances, refill, length)

        differs = new_orders != old_orders
        first_changed = np.where(differs.any(axis=1), differs.argmax(axis=1), length)

        self._matrix = np.ascontiguousarray(new_orders)
        self._dists = np.ascontiguousarray(new_dists)
        self._cache.clear()
        return OrderReplaceResult(index, first_changed)

    def _ensure_distances(self, chunk_size: Optional[int] = None) -> np.ndarray:
        """Backfill the distance matrix for already-materialised orderings."""
        chunk_size = _leaf_size(chunk_size)
        if self._dists is None:
            # The kernel is deterministic: its orderings equal the cached
            # ones, so only the aligned distances are installed.
            orders, self._dists = self._ranked(chunk_size)
            if self._matrix is None:
                self._matrix = orders
                self._cache.clear()
        return self._dists

    def restore_matrix(self, orders: np.ndarray, dists: np.ndarray) -> None:
        """Install previously materialised orderings (artifact restore path).

        ``orders``/``dists`` must be the arrays a prior :meth:`order_matrix`
        (possibly followed by :meth:`append` calls) produced for exactly the
        data this cache was constructed over.
        """
        orders = np.asarray(orders, dtype=int)
        dists = np.asarray(dists, dtype=float)
        expected = (self.n_points, self.effective_length())
        if orders.shape != expected or dists.shape != expected:
            raise ConfigurationError(
                f"restored ordering matrices must have shape {expected}, got "
                f"{orders.shape} and {dists.shape}"
            )
        self.keep_distances = True
        self._matrix = orders.copy()
        self._dists = dists.copy()
        self._cache.clear()

    @property
    def order_distances(self) -> Optional[np.ndarray]:
        """The distances aligned with :meth:`order_matrix` (``None`` until built)."""
        return self._dists

    def clear(self) -> None:
        """Drop all cached orderings (frees memory)."""
        self._cache.clear()
        self._matrix = None
        self._dists = None
