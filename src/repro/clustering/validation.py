"""Internal clustering quality measures.

Used by tests (sanity: the paper's metric clusters same-module packets
together) and by the ablation benches (comparing linkages and distance
configurations without ground-truth labels).
"""

from __future__ import annotations

import numpy as np

from repro.clustering.dendrogram import Dendrogram
from repro.distance.matrix import CondensedMatrix
from repro.errors import ClusteringError


def silhouette_score(matrix: CondensedMatrix, assignment: list[int]) -> float:
    """Mean silhouette coefficient over all items.

    For item ``i`` with intra-cluster mean distance ``a`` and smallest
    other-cluster mean distance ``b``: ``s = (b - a) / max(a, b)``.
    Items in singleton clusters contribute 0, per the usual convention.

    :raises ClusteringError: when fewer than two clusters are present.
    """
    n = matrix.n
    if len(assignment) != n:
        raise ClusteringError("assignment length does not match matrix size")
    labels = sorted(set(assignment))
    if len(labels) < 2:
        raise ClusteringError("silhouette needs at least two clusters")
    members: dict[int, list[int]] = {label: [] for label in labels}
    for i, label in enumerate(assignment):
        members[label].append(i)
    scores: list[float] = []
    for i in range(n):
        own = members[assignment[i]]
        if len(own) == 1:
            scores.append(0.0)
            continue
        a = sum(matrix.get(i, j) for j in own if j != i) / (len(own) - 1)
        b = min(
            sum(matrix.get(i, j) for j in other) / len(other)
            for label, other in members.items()
            if label != assignment[i]
        )
        denominator = max(a, b)
        scores.append(0.0 if denominator == 0 else (b - a) / denominator)
    return float(np.mean(scores))


def cophenetic_correlation(matrix: CondensedMatrix, dendrogram: Dendrogram) -> float:
    """Pearson correlation between original and cophenetic distances.

    Values near 1 mean the tree faithfully preserves the pairwise
    distances; group-average linkage typically scores highest among the
    classic linkages, which the linkage ablation demonstrates.
    """
    n = matrix.n
    if dendrogram.n_leaves != n:
        raise ClusteringError("dendrogram does not match matrix size")
    if n < 3:
        raise ClusteringError("cophenetic correlation needs at least 3 items")
    x = np.asarray(matrix.values, dtype=float)
    y = dendrogram.cophenetic_condensed()
    if np.allclose(x, x[0]) or np.allclose(y, y[0]):
        return 0.0
    return float(np.corrcoef(x, y)[0, 1])
