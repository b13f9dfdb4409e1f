"""Differential tests: every tuned kernel against its slow reference.

* nearest-neighbour-cached linkage vs the full-matrix argmin loop
  (:func:`tests.oracles.reference_agglomerate`): equal ``merges``, not just
  heights, on tie-heavy integer matrices and real NCD matrices;
* the batched unique-key pair kernel vs the serial
  :func:`~repro.distance.matrix.distance_matrix` loop (values) and a
  pair-by-pair component walk (cache counters);
* one-automaton-per-member ``common_substrings`` vs the per-span loop.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering.linkage import Linkage, agglomerate
from repro.dataset.split import sample_packets
from repro.distance.engine import DistanceEngine, PairStream
from repro.distance.matrix import CondensedMatrix, distance_matrix
from repro.distance.packet import PacketDistance
from repro.reliability.workerfaults import WorkerFaultPlan
from repro.signatures.tokens import common_substrings
from tests.oracles import (
    reference_agglomerate,
    reference_common_substrings,
    reference_component_walk,
)


@pytest.fixture(scope="module")
def sample(small_split):
    suspicious, __ = small_split
    return sample_packets(suspicious, 90, seed=3)


@pytest.fixture(scope="module")
def reference(sample):
    return distance_matrix(sample, PacketDistance.paper())


# -- linkage -------------------------------------------------------------------------


@st.composite
def tie_heavy_matrices(draw):
    n = draw(st.integers(2, 14))
    values = draw(
        st.lists(st.integers(0, 3), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2)
    )
    return CondensedMatrix(n, np.asarray(values, dtype=float))


@pytest.mark.parametrize("linkage", list(Linkage))
@settings(max_examples=60, deadline=None)
@given(matrix=tie_heavy_matrices())
def test_linkage_merges_equal_reference_on_ties(linkage, matrix):
    assert agglomerate(matrix, linkage).merges == reference_agglomerate(matrix, linkage).merges


@pytest.mark.parametrize("linkage", list(Linkage))
def test_linkage_merges_equal_reference_on_ncd(reference, linkage):
    ours = agglomerate(reference, linkage)
    assert ours.merges == reference_agglomerate(reference, linkage).merges


@pytest.mark.parametrize("linkage", list(Linkage))
@pytest.mark.parametrize("name", ["constant", "two_valued", "blocked"])
def test_linkage_merges_equal_reference_on_degenerate_fills(linkage, name):
    n = 60
    rows, cols = np.triu_indices(n, k=1)
    if name == "constant":
        values = np.ones(len(rows))
    elif name == "two_valued":
        values = np.random.default_rng(1).integers(0, 2, len(rows)).astype(float)
    else:
        labels = np.arange(n) % 7
        values = np.where(labels[rows] == labels[cols], 0.0, 1.0)
    matrix = CondensedMatrix(n, values)
    assert agglomerate(matrix, linkage).merges == reference_agglomerate(matrix, linkage).merges


# -- batched pair kernel ---------------------------------------------------------------


def _serial_chunks(n: int, chunk_pairs: int):
    rows, cols = np.triu_indices(n, k=1)
    return [
        (rows[start : start + chunk_pairs], cols[start : start + chunk_pairs])
        for start in range(0, len(rows), chunk_pairs)
    ]


@pytest.mark.parametrize("chunk_pairs", [1, 7, 4096])
def test_pair_kernel_matches_reference_serial(sample, reference, chunk_pairs):
    metric = PacketDistance.paper()
    engine = DistanceEngine(metric, chunk_pairs=chunk_pairs)
    built = engine.matrix(sample)
    values, hits, misses, singles_hits = reference_component_walk(
        metric, sample, _serial_chunks(len(sample), chunk_pairs)
    )
    assert built.values.tobytes() == reference.values.tobytes()
    assert built.values.tobytes() == values.tobytes()
    assert (engine.stats.pair_hits, engine.stats.pair_misses) == (hits, misses)
    assert engine.stats.singles.hits == singles_hits
    assert engine.stats.singles.misses == 0


def test_pair_kernel_matches_reference_two_workers(sample, reference):
    engine = DistanceEngine(PacketDistance.paper(), workers=2, chunk_pairs=97)
    built = engine.matrix(sample)
    assert built.values.tobytes() == reference.values.tobytes()
    # Which worker warms which cache depends on scheduling; the lookup
    # total does not.
    assert engine.stats.pair_lookups == 4 * engine.stats.n_pairs


@pytest.mark.parametrize("workers", [1, 2])
def test_pair_kernel_matches_reference_under_faults(sample, reference, workers):
    plan = WorkerFaultPlan(seed=5, crash=0.2, hang=0.1, poison=0.2)
    engine = DistanceEngine(
        PacketDistance.paper(), workers=workers, chunk_pairs=211, fault_plan=plan
    )
    built = engine.matrix(sample)
    assert engine.stats.faults_injected > 0
    assert engine.stats.recovered
    assert built.values.tobytes() == reference.values.tobytes()


@pytest.mark.parametrize(
    "metric",
    [PacketDistance.paper(), PacketDistance.destination_only(), PacketDistance.content_only()],
)
def test_pair_kernel_matches_reference_on_ablations(sample, metric):
    engine = DistanceEngine(metric, chunk_pairs=500)
    built = engine.matrix(sample)
    values, hits, misses, __ = reference_component_walk(
        metric, sample, _serial_chunks(len(sample), 500)
    )
    assert built.values.tobytes() == distance_matrix(sample, metric).values.tobytes()
    assert built.values.tobytes() == values.tobytes()
    assert (engine.stats.pair_hits, engine.stats.pair_misses) == (hits, misses)


def test_pair_stream_grown_by_extends_matches_reference(sample, reference):
    """Cached component keys must keep their meaning as the id tables grow."""
    stream = PairStream(DistanceEngine(PacketDistance.paper()))
    for stop in (17, 40, 41, 66, len(sample)):
        stream.extend(sample[len(stream) : stop])
        # Probe old x new and new x new pairs in a scrambled order, so keys
        # cached before this extend are looked up alongside fresh ones.
        rows, cols = np.triu_indices(stop, k=1)
        order = np.random.default_rng(stop).permutation(len(rows))
        pairs = [(int(cols[t]), int(rows[t])) for t in order]
        got = stream.distances(pairs)
        expected = reference.subset(list(range(stop)))
        want = np.asarray([expected.get(i, j) for i, j in pairs])
        assert got.tobytes() == want.tobytes()


# -- common substrings -----------------------------------------------------------------


texts_strategy = st.lists(
    st.text(alphabet="ab=&", min_size=0, max_size=14), min_size=1, max_size=6
)


@settings(max_examples=200, deadline=None)
@given(texts=texts_strategy, min_length=st.integers(0, 4), data=st.data())
def test_common_substrings_match_reference(texts, min_length, data):
    # Salt in duplicates and copies of the reference member.
    extra = data.draw(st.lists(st.sampled_from(texts), max_size=3))
    cluster = texts + extra
    assert common_substrings(cluster, min_length) == reference_common_substrings(
        cluster, min_length
    )


@pytest.mark.parametrize("min_length", [2, 3, 4, 6])
def test_common_substrings_match_reference_on_cluster_texts(sample, min_length):
    texts = [packet.canonical_text() for packet in sample]
    clusters = [texts[k : k + 6] for k in range(0, len(texts), 6)]
    clusters.append([texts[0], texts[0], texts[1], texts[0], texts[1]])
    clusters.append([texts[2]] * 4)
    for cluster in clusters:
        assert common_substrings(cluster, min_length) == reference_common_substrings(
            cluster, min_length
        )
