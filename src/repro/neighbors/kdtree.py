"""A from-scratch KD-tree for exact k-nearest-neighbour search.

The paper notes that "advanced indexing and searching techniques could be
applied" to the neighbour searches of Algorithms 1–3.  This module provides
such an index: a classic median-split KD-tree with a bounded-priority-queue
search.  It supports the Euclidean family of metrics (including the paper's
normalized Euclidean distance, which orders points identically to plain
Euclidean distance and only rescales the reported distance values).

The tree is validated against :class:`~repro.neighbors.brute.BruteForceNeighbors`
in the test suite — both must return identical neighbour sets.

Batched queries traverse the tree once per *batch* on the default
``"vectorized"`` backend of :mod:`repro.config`: every node is visited with
the subset of queries that reach it, leaf distances are computed as one
block, and per-query candidate lists are merged with a row-wise lexsort.
Pruning stays per-query (each query carries its own current worst
distance), so the result is exactly the per-query traversal's — and
identical to brute force, ties broken by index.  The ``"loop"`` backend
keeps the original one-query-at-a-time bounded-priority-queue search.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .._validation import as_float_matrix, check_positive_int
from ..config import resolve_backend
from ..exceptions import ConfigurationError, NotFittedError

__all__ = ["KDTreeNeighbors"]

_SUPPORTED_METRICS = ("euclidean", "paper_euclidean")


@dataclass
class _Node:
    """One KD-tree node: either an internal split or a leaf bucket."""

    indices: np.ndarray
    split_dim: int = -1
    split_value: float = 0.0
    left: Optional["_Node"] = None
    right: Optional["_Node"] = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None and self.right is None


class KDTreeNeighbors:
    """Exact nearest-neighbour index backed by a median-split KD-tree.

    Parameters
    ----------
    metric:
        ``"euclidean"`` or ``"paper_euclidean"``.  Both produce the same
        neighbour ordering; the latter divides reported distances by
        ``sqrt(m)`` to match Formula 1 of the paper.
    leaf_size:
        Maximum number of points stored in a leaf bucket before splitting.
    backend:
        ``"vectorized"`` (batched traversal for batch queries), ``"loop"``
        (per-query search), or ``None`` to follow the global knob of
        :mod:`repro.config`.
    """

    def __init__(
        self,
        metric: str = "paper_euclidean",
        leaf_size: int = 32,
        backend: Optional[str] = None,
    ):
        if metric not in _SUPPORTED_METRICS:
            raise ConfigurationError(
                f"KDTreeNeighbors supports metrics {_SUPPORTED_METRICS}, got {metric!r}"
            )
        self.metric = metric
        self.leaf_size = check_positive_int(leaf_size, "leaf_size")
        self.backend = None if backend is None else resolve_backend(backend)
        self._data: Optional[np.ndarray] = None
        self._root: Optional[_Node] = None

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def fit(self, data) -> "KDTreeNeighbors":
        """Build the tree over the rows of ``data``."""
        self._data = as_float_matrix(data, name="data")
        self._root = self._build(np.arange(self._data.shape[0]))
        return self

    def _build(self, indices: np.ndarray) -> _Node:
        if indices.shape[0] <= self.leaf_size:
            return _Node(indices=indices)
        points = self._data[indices]
        spreads = points.max(axis=0) - points.min(axis=0)
        split_dim = int(np.argmax(spreads))
        if spreads[split_dim] == 0.0:
            # All remaining points are identical; keep them in one leaf.
            return _Node(indices=indices)
        column = points[:, split_dim]
        split_value = float(np.median(column))
        left_mask = column <= split_value
        # Guard against degenerate splits where the median equals the max.
        if left_mask.all() or not left_mask.any():
            order = np.argsort(column, kind="stable")
            half = indices.shape[0] // 2
            left_mask = np.zeros(indices.shape[0], dtype=bool)
            left_mask[order[:half]] = True
            split_value = float(column[order[half - 1]])
        node = _Node(indices=indices, split_dim=split_dim, split_value=split_value)
        node.left = self._build(indices[left_mask])
        node.right = self._build(indices[~left_mask])
        return node

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def n_points(self) -> int:
        """Number of indexed points."""
        self._check_fitted()
        return self._data.shape[0]

    @property
    def n_features(self) -> int:
        """Dimensionality of the indexed points."""
        self._check_fitted()
        return self._data.shape[1]

    def depth(self) -> int:
        """Height of the tree (1 for a single leaf)."""
        self._check_fitted()

        def walk(node: _Node) -> int:
            if node.is_leaf:
                return 1
            return 1 + max(walk(node.left), walk(node.right))

        return walk(self._root)

    def leaves(self) -> List[np.ndarray]:
        """Point indices of every leaf bucket, in depth-first (spatial) order.

        Each array ascends; together they partition ``range(n_points)``.
        """
        self._check_fitted()
        out: List[np.ndarray] = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                out.append(node.indices)
            else:
                stack += [node.right, node.left]
        return out

    def _check_fitted(self) -> None:
        if self._data is None or self._root is None:
            raise NotFittedError("KDTreeNeighbors must be fitted before querying")

    # ------------------------------------------------------------------ #
    # Search
    # ------------------------------------------------------------------ #
    def kneighbors(
        self,
        query,
        k: int,
        exclude_self: bool = False,
        backend: Optional[str] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Find the ``k`` nearest indexed points for each query.

        Returns ``(distances, indices)`` of shape ``(k,)`` for a single
        query vector or ``(q, k)`` for a batch, ordered by increasing
        distance with ties broken by index so results are deterministic and
        identical to the brute-force backend.

        On the ``"vectorized"`` backend a batch of queries traverses the
        tree together (see the module docstring); the ``"loop"`` backend
        searches one query at a time.
        """
        self._check_fitted()
        k = check_positive_int(k, "k")
        query_array = np.asarray(query, dtype=float)
        single = query_array.ndim == 1
        if single:
            query_array = query_array.reshape(1, -1)
        if query_array.shape[1] != self.n_features:
            raise ConfigurationError(
                f"query has {query_array.shape[1]} attributes, index has {self.n_features}"
            )
        available = self.n_points - (1 if exclude_self else 0)
        if k > available:
            raise ConfigurationError(
                f"requested k={k} neighbours but only {available} are available"
            )

        if backend is not None:
            resolved = resolve_backend(backend)
        elif self.backend is not None:
            resolved = self.backend
        else:
            resolved = resolve_backend(None)

        scale = 1.0 / np.sqrt(self.n_features) if self.metric == "paper_euclidean" else 1.0
        if resolved == "vectorized" and query_array.shape[0] > 1:
            out_dist, out_idx = self._query_batch(query_array, k, exclude_self)
            out_dist = out_dist * scale
        else:
            out_dist = np.empty((query_array.shape[0], k))
            out_idx = np.empty((query_array.shape[0], k), dtype=int)
            for row in range(query_array.shape[0]):
                dist, idx = self._query_single(query_array[row], k, exclude_self)
                out_dist[row] = dist * scale
                out_idx[row] = idx
        if single:
            return out_dist[0], out_idx[0]
        return out_dist, out_idx

    def _query_single(
        self, point: np.ndarray, k: int, exclude_self: bool
    ) -> Tuple[np.ndarray, np.ndarray]:
        # Max-heap of the best k candidates, stored as (-distance, -index) so
        # the worst candidate (largest distance, then largest index) is on top
        # and tie-breaking matches the brute-force lexsort order.
        heap: List[Tuple[float, int]] = []
        budget = k + (1 if exclude_self else 0)

        def consider(index: int, distance: float) -> None:
            entry = (-distance, -index)
            if len(heap) < budget:
                heapq.heappush(heap, entry)
            elif entry > heap[0]:
                heapq.heapreplace(heap, entry)

        def worst_distance() -> float:
            if len(heap) < budget:
                return np.inf
            return -heap[0][0]

        def visit(node: _Node) -> None:
            if node.is_leaf:
                points = self._data[node.indices]
                diffs = points - point
                distances = np.sqrt(np.sum(diffs * diffs, axis=1))
                for index, distance in zip(node.indices, distances):
                    consider(int(index), float(distance))
                return
            delta = point[node.split_dim] - node.split_value
            near, far = (node.right, node.left) if delta > 0 else (node.left, node.right)
            visit(near)
            if abs(delta) <= worst_distance():
                visit(far)

        visit(self._root)
        candidates = sorted(((-d, -i) for d, i in heap))
        if exclude_self and candidates and candidates[0][0] == 0.0:
            candidates = candidates[1:]
        candidates = candidates[:k]
        distances = np.array([c[0] for c in candidates])
        indices = np.array([c[1] for c in candidates], dtype=int)
        return distances, indices

    def _query_batch(
        self, queries: np.ndarray, k: int, exclude_self: bool
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One traversal for a whole query batch (identical results).

        Every node is visited with the subset of queries whose search
        frontier reaches it: leaves merge a block distance matrix into the
        per-query best-``budget`` candidate lists (row-wise lexsort on
        ``(distance, index)``), internal nodes split the subset by query
        side and prune the far child per query against its current worst
        candidate — exactly the scalar search's bound.
        """
        n = self.n_points
        q = queries.shape[0]
        budget = k + (1 if exclude_self else 0)
        # Sentinel entries: +inf distance with index n sorts after every real
        # candidate, so unfilled slots never displace one.
        cand_dist = np.full((q, budget), np.inf)
        cand_idx = np.full((q, budget), n, dtype=int)

        def merge_leaf(node: _Node, rows: np.ndarray) -> None:
            points = self._data[node.indices]
            diffs = queries[rows][:, None, :] - points[None, :, :]
            distances = np.sqrt(np.einsum("qld,qld->ql", diffs, diffs))
            leaf_idx = np.broadcast_to(node.indices, distances.shape)
            merged_dist = np.hstack([cand_dist[rows], distances])
            merged_idx = np.hstack([cand_idx[rows], leaf_idx])
            order = np.lexsort((merged_idx, merged_dist), axis=1)[:, :budget]
            cand_dist[rows] = np.take_along_axis(merged_dist, order, axis=1)
            cand_idx[rows] = np.take_along_axis(merged_idx, order, axis=1)

        def visit(node: _Node, rows: np.ndarray) -> None:
            if node.is_leaf:
                merge_leaf(node, rows)
                return
            delta = queries[rows, node.split_dim] - node.split_value
            near_is_left = delta <= 0
            for near, far, mask in (
                (node.left, node.right, near_is_left),
                (node.right, node.left, ~near_is_left),
            ):
                group = rows[mask]
                if group.size == 0:
                    continue
                visit(near, group)
                # The far child can only contribute when the splitting plane
                # is at most as far as the query's current worst candidate
                # (ties included, so an equal-distance smaller index can
                # still win — matching the scalar bound).
                keep = np.abs(delta[mask]) <= cand_dist[group, -1]
                if keep.any():
                    visit(far, group[keep])

        visit(self._root, np.arange(q))
        if not exclude_self:
            return cand_dist, cand_idx
        # Drop exactly one zero-distance match per row when present.
        offset = (cand_dist[:, 0] == 0.0).astype(int)
        cols = offset[:, None] + np.arange(k)[None, :]
        return (
            np.take_along_axis(cand_dist, cols, axis=1),
            np.take_along_axis(cand_idx, cols, axis=1),
        )
