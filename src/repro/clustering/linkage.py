"""Agglomerative hierarchical clustering with Lance-Williams updates.

The paper's method (Section IV-D): start with every packet in its own
cluster, repeatedly merge the closest pair under the *group average*
criterion

    d_group(C_x, C_y) = (1 / |C_x||C_y|) * sum_{p in C_x} sum_{q in C_y} d_pkt(p, q)

until one cluster remains.  Instead of recomputing the double sum after
every merge (O(n^4) total), we maintain the cluster-to-cluster distance
matrix with the Lance-Williams recurrence — for group average,

    d(C_xy, C_z) = (|C_x| d(C_x,C_z) + |C_y| d(C_y,C_z)) / (|C_x| + |C_y|)

which is exactly equivalent.  The pair to merge is found by the global
greedy rule — the closest active pair, ties going to the lexicographically
smallest slot pair ``(lo, hi)`` — without rescanning the whole matrix:
each row caches its nearest neighbour over the upper triangle (distance
and first column attaining it).  The closest pair is the first row
minimum of that cache.  After a merge only rows whose cached neighbour
was one of the two merged slots are rescanned (plus the merged row);
rows above the merged slot only compare their cached neighbour against
the one distance that changed, keeping the first-column tie rule.  This
is the same merge sequence as a full scan, step for step and tie for tie,
at O(n) per merge plus the rescans, O(n^2) overall in practice.  Single,
complete, and Ward linkages are provided for the linkage ablation bench.

Nearest-neighbour-chain linkage would be asymptotically safe too, but it
merges reciprocal neighbours in a different order under exact ties — and
NCD matrices are full of them — which changes the tree's node numbering
and hence the leaf order downstream consumers see.
"""

from __future__ import annotations

import enum

import numpy as np

from repro.clustering.dendrogram import Dendrogram, Merge
from repro.distance.matrix import CondensedMatrix
from repro.errors import ClusteringError


class Linkage(enum.Enum):
    """Cluster-to-cluster distance criterion."""

    GROUP_AVERAGE = "average"  # the paper's choice
    SINGLE = "single"
    COMPLETE = "complete"
    WARD = "ward"


def agglomerate(matrix: CondensedMatrix, linkage: Linkage = Linkage.GROUP_AVERAGE) -> Dendrogram:
    """Run agglomerative clustering over a precomputed distance matrix.

    Ties in the nearest-pair search are broken toward the pair with the
    smallest slot indices ``(lo, hi)`` in lexicographic order, which makes
    results deterministic across runs and platforms.

    :param matrix: condensed pairwise distances over the items.
    :param linkage: merge criterion; the paper uses group average.
    :returns: the full merge tree (:class:`Dendrogram`).
    :raises ClusteringError: for an empty input, or for a distance that is
        not finite or is negative (reported for the first such pair).
    """
    n = matrix.n
    if n < 1:
        raise ClusteringError("cannot cluster zero items")
    _validate_distances(matrix)
    if n == 1:
        return Dendrogram(1, [])

    # Working square matrix of current cluster distances. Inactive rows and
    # columns hold +inf. node_ids[i] is the dendrogram node in slot i.
    square = matrix.to_square()
    np.fill_diagonal(square, np.inf)
    sizes = np.ones(n, dtype=int)
    node_ids = np.arange(n)
    active = np.ones(n, dtype=bool)
    # Nearest neighbour of each row over the upper triangle (columns > i):
    # the row minimum and the first column attaining it.
    nn_idx = np.full(n, n, dtype=np.intp)
    nn_dist = np.full(n, np.inf)
    for i in range(n - 1):
        _refresh_row(square, i, nn_idx, nn_dist)
    merges: list[Merge] = []

    for step in range(n - 1):
        # First-occurrence argmin over rows, then the row's first minimum:
        # the lexicographically smallest (lo, hi) among the closest pairs.
        slot_x = int(np.argmin(nn_dist))
        slot_y = int(nn_idx[slot_x])
        height = float(nn_dist[slot_x])
        if not np.isfinite(height):
            raise ClusteringError("no active pair remains")
        size_x = int(sizes[slot_x])
        size_y = int(sizes[slot_y])
        new_size = size_x + size_y
        merges.append(
            Merge(
                left=int(node_ids[slot_x]),
                right=int(node_ids[slot_y]),
                height=height,
                size=new_size,
            )
        )
        # Rows whose cached neighbour was x or y need a full rescan; take
        # them before the candidate update below rewrites nn_idx.
        stale = np.flatnonzero(active & ((nn_idx == slot_x) | (nn_idx == slot_y)))
        # Merge y into x's slot; deactivate y.
        _lance_williams_update(square, active, slot_x, slot_y, size_x, size_y, sizes, linkage)
        sizes[slot_x] = new_size
        node_ids[slot_x] = n + step
        active[slot_y] = False
        square[slot_y, :] = np.inf
        square[:, slot_y] = np.inf
        nn_dist[slot_y] = np.inf

        # Every other row above x only saw d(i, x) change: x becomes its
        # neighbour when strictly closer, or equally close at a smaller
        # column.  Rows below x never see x in their upper triangle.
        d_ix = square[:slot_x, slot_x]
        cached = nn_dist[:slot_x]
        better = active[:slot_x] & (
            (d_ix < cached) | ((d_ix == cached) & (slot_x < nn_idx[:slot_x]))
        )
        nn_dist[:slot_x][better] = d_ix[better]
        nn_idx[:slot_x][better] = slot_x
        for i in stale.tolist():
            if i != slot_x and i != slot_y:
                _refresh_row(square, i, nn_idx, nn_dist)
        _refresh_row(square, slot_x, nn_idx, nn_dist)

    return Dendrogram(n, merges)


def _validate_distances(matrix: CondensedMatrix) -> None:
    """Reject non-finite or negative distances, naming the first bad pair."""
    values = matrix.values
    bad = ~np.isfinite(values) | (values < 0)
    if not bad.any():
        return
    index = int(np.argmax(bad))
    rows, cols = np.triu_indices(matrix.n, k=1)
    i, j = int(rows[index]), int(cols[index])
    raise ClusteringError(
        f"distance for pair ({i}, {j}) is {float(values[index])!r}; "
        "distances must be finite and non-negative"
    )


def _refresh_row(square: np.ndarray, i: int, nn_idx: np.ndarray, nn_dist: np.ndarray) -> None:
    """Rescan row ``i``'s upper triangle for its nearest neighbour."""
    row = square[i, i + 1 :]
    if row.size == 0:
        nn_dist[i] = np.inf
        return
    j = int(np.argmin(row))
    nn_idx[i] = i + 1 + j
    nn_dist[i] = row[j]


def _lance_williams_update(
    square: np.ndarray,
    active: np.ndarray,
    slot_x: int,
    slot_y: int,
    size_x: int,
    size_y: int,
    sizes: np.ndarray,
    linkage: Linkage,
) -> None:
    """Rewrite row/column ``slot_x`` with distances from the merged cluster."""
    d_xz = square[slot_x, :]
    d_yz = square[slot_y, :]
    if linkage is Linkage.GROUP_AVERAGE:
        new = (size_x * d_xz + size_y * d_yz) / (size_x + size_y)
    elif linkage is Linkage.SINGLE:
        new = np.minimum(d_xz, d_yz)
    elif linkage is Linkage.COMPLETE:
        new = np.maximum(d_xz, d_yz)
    elif linkage is Linkage.WARD:
        # Lance-Williams for Ward on squared Euclidean-like distances:
        # d(xy,z) = sqrt(((sx+sz) d_xz^2 + (sy+sz) d_yz^2 - sz d_xy^2) / (sx+sy+sz))
        d_xy = square[slot_x, slot_y]
        sz = sizes.astype(float)
        total = size_x + size_y + sz
        with np.errstate(invalid="ignore"):
            new = np.sqrt(
                np.maximum(
                    ((size_x + sz) * d_xz**2 + (size_y + sz) * d_yz**2 - sz * d_xy**2) / total,
                    0.0,
                )
            )
    else:  # pragma: no cover - enum is closed
        raise ClusteringError(f"unsupported linkage {linkage!r}")
    # Only active, non-self slots matter; the rest stay +inf.
    mask = active.copy()
    mask[slot_x] = False
    mask[slot_y] = False
    square[slot_x, mask] = new[mask]
    square[mask, slot_x] = new[mask]
    square[slot_x, slot_x] = np.inf


def cluster_assignments(dendrogram: Dendrogram, cluster_nodes: list[int]) -> list[int]:
    """Map each leaf to the index of the cluster node covering it.

    :param cluster_nodes: disjoint dendrogram nodes covering all leaves
        (the output of a cut strategy).
    :raises ClusteringError: when the nodes do not partition the leaves.
    """
    assignment = [-1] * dendrogram.n_leaves
    for cluster_index, node in enumerate(cluster_nodes):
        for leaf in dendrogram.leaves(node):
            if assignment[leaf] != -1:
                raise ClusteringError(f"leaf {leaf} covered by two cluster nodes")
            assignment[leaf] = cluster_index
    if any(a == -1 for a in assignment):
        raise ClusteringError("cluster nodes do not cover all leaves")
    return assignment
