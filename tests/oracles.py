"""Slow reference implementations for the differential tests.

Each function here is the straightforward version of a tuned fast path in
``src/``: same inputs, same outputs, no caching.  The differential tests
drive both with generated and adversarial inputs and demand exact
equality, so these references must stay literal and obviously correct.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.clustering.dendrogram import Dendrogram, Merge
from repro.clustering.linkage import Linkage, _lance_williams_update
from repro.distance.destination import destination_distance
from repro.distance.matrix import CondensedMatrix
from repro.distance.ncd import NcdCalculator
from repro.distance.packet import PacketDistance
from repro.errors import ClusteringError
from repro.signatures.lcs import maximal_common_spans


def reference_agglomerate(
    matrix: CondensedMatrix, linkage: Linkage = Linkage.GROUP_AVERAGE
) -> Dendrogram:
    """Agglomeration that rescans the full masked matrix before every merge."""
    n = matrix.n
    if n < 1:
        raise ClusteringError("cannot cluster zero items")
    if n == 1:
        return Dendrogram(1, [])
    square = matrix.to_square()
    np.fill_diagonal(square, np.inf)
    sizes = np.ones(n, dtype=int)
    node_ids = np.arange(n)
    active = np.ones(n, dtype=bool)
    merges: list[Merge] = []
    for step in range(n - 1):
        slot_x, slot_y = _nearest_active_pair(square, active)
        height = float(square[slot_x, slot_y])
        size_x = int(sizes[slot_x])
        size_y = int(sizes[slot_y])
        merges.append(
            Merge(
                left=int(node_ids[slot_x]),
                right=int(node_ids[slot_y]),
                height=height,
                size=size_x + size_y,
            )
        )
        _lance_williams_update(square, active, slot_x, slot_y, size_x, size_y, sizes, linkage)
        sizes[slot_x] = size_x + size_y
        node_ids[slot_x] = n + step
        active[slot_y] = False
        square[slot_y, :] = np.inf
        square[:, slot_y] = np.inf
    return Dendrogram(n, merges)


def _nearest_active_pair(square: np.ndarray, active: np.ndarray) -> tuple[int, int]:
    """Indices of the closest active pair, first row-major occurrence."""
    masked = square.copy()
    inactive = ~active
    masked[inactive, :] = np.inf
    masked[:, inactive] = np.inf
    flat = int(np.argmin(masked))
    i, j = divmod(flat, masked.shape[1])
    if not np.isfinite(masked[i, j]):
        raise ClusteringError("no active pair remains")
    return (i, j) if i < j else (j, i)


def reference_component_walk(
    metric: PacketDistance,
    items: Sequence,
    chunks: Sequence[tuple[np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, int, int, int]:
    """Decomposed ``d_pkt`` walked pair by pair, one dict lookup per component.

    Caches persist across ``chunks``, as in one serial engine run.  Returns
    the concatenated values and the engine's counters for that run:
    ``(values, pair_hits, pair_misses, singles_hits)``.
    """
    content = metric.content
    ncd = NcdCalculator(content.calculator.compressor, clamp=content.calculator.clamp)
    fields = [
        (packet.request_line.encode("latin-1"), packet.cookie.encode("latin-1"), packet.body)
        for packet in items
    ]
    ncd.precompute(blob for triple in fields for blob in triple)
    used = (content.use_rline, content.use_cookie, content.use_body)
    dest_cache: dict = {}
    ncd_cache: dict = {}
    hits = misses = 0
    out: list[float] = []
    for rows, cols in chunks:
        for i, j in zip(rows.tolist(), cols.tolist()):
            total = 0.0
            if metric.destination_weight:
                a, b = items[i].destination, items[j].destination
                key = frozenset((a, b))
                if key in dest_cache:
                    hits += 1
                else:
                    misses += 1
                    dest_cache[key] = destination_distance(a, b, registry=metric.registry)
                total += metric.destination_weight * dest_cache[key]
            if metric.content_weight:
                header = 0.0
                for field_index in range(3):
                    if not used[field_index]:
                        continue
                    key = (fields[i][field_index], fields[j][field_index])
                    if key in ncd_cache:
                        hits += 1
                    else:
                        misses += 1
                        ncd_cache[key] = ncd.distance(*key)
                    header += ncd_cache[key]
                total += metric.content_weight * header
            out.append(total)
    return np.asarray(out, dtype=float), hits, misses, ncd.stats.hits


def reference_common_substrings(texts: Sequence[str], min_length: int = 2) -> list[str]:
    """Common substrings by intersecting every span against every member,
    one fresh suffix automaton per (span, member)."""
    if not texts:
        return []
    reference = texts[0]
    if len(texts) == 1:
        return [reference] if len(reference) >= min_length else []
    spans = [(0, len(reference))] if len(reference) >= min_length else []
    for other in texts[1:]:
        if not spans:
            return []
        refined: list[tuple[int, int]] = []
        for start, end in spans:
            for sub in maximal_common_spans(reference[start:end], other, min_length):
                refined.append((start + sub.start, start + sub.end))
        unique = sorted(set(refined), key=lambda s: (s[0], -s[1]))
        spans = []
        best_end = -1
        for start, end in unique:
            if end > best_end:
                spans.append((start, end))
                best_end = end
    out: list[str] = []
    for start, end in sorted(spans):
        text = reference[start:end]
        if text not in out:
            out.append(text)
    return out
