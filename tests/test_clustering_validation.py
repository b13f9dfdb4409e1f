"""Silhouette and cophenetic correlation."""

import numpy as np
import pytest

from repro.clustering.cut import cut_by_count
from repro.clustering.linkage import Linkage, agglomerate, cluster_assignments
from repro.clustering.validation import cophenetic_correlation, silhouette_score
from repro.distance.matrix import distance_matrix
from repro.errors import ClusteringError


def matrix_of(points):
    return distance_matrix(points, lambda a, b: abs(a - b))


class TestSilhouette:
    def test_well_separated_scores_high(self):
        points = [0.0, 0.1, 0.2, 50.0, 50.1, 50.2]
        m = matrix_of(points)
        assignment = [0, 0, 0, 1, 1, 1]
        assert silhouette_score(m, assignment) > 0.9

    def test_bad_assignment_scores_low(self):
        points = [0.0, 0.1, 0.2, 50.0, 50.1, 50.2]
        m = matrix_of(points)
        mixed = [0, 1, 0, 1, 0, 1]
        assert silhouette_score(m, mixed) < 0.1

    def test_singleton_contributes_zero(self):
        points = [0.0, 0.1, 99.0]
        m = matrix_of(points)
        score = silhouette_score(m, [0, 0, 1])
        assert 0.0 < score <= 1.0

    def test_single_cluster_rejected(self):
        m = matrix_of([1.0, 2.0])
        with pytest.raises(ClusteringError):
            silhouette_score(m, [0, 0])

    def test_length_mismatch_rejected(self):
        m = matrix_of([1.0, 2.0, 3.0])
        with pytest.raises(ClusteringError):
            silhouette_score(m, [0, 1])


class TestCophenetic:
    def test_matches_scipy(self):
        hierarchy = pytest.importorskip("scipy.cluster.hierarchy")
        rng = np.random.default_rng(11)
        points = list(rng.uniform(0, 30, size=18))
        m = matrix_of(points)
        d = agglomerate(m)
        ours = cophenetic_correlation(m, d)
        Z = hierarchy.linkage(m.values, method="average")
        theirs, __ = hierarchy.cophenet(Z, m.values)
        assert ours == pytest.approx(theirs, abs=1e-9)

    @pytest.mark.parametrize(
        "method,linkage",
        [
            ("average", Linkage.GROUP_AVERAGE),
            ("single", Linkage.SINGLE),
            ("complete", Linkage.COMPLETE),
        ],
    )
    def test_condensed_vector_matches_scipy_cophenet(self, method, linkage):
        hierarchy = pytest.importorskip("scipy.cluster.hierarchy")
        rng = np.random.default_rng(17)
        points = list(rng.uniform(0, 100, size=30))  # tie-free almost surely
        m = matrix_of(points)
        theirs = hierarchy.cophenet(hierarchy.linkage(m.values, method=method))
        ours = agglomerate(m, linkage).cophenetic_condensed()
        assert np.allclose(ours, theirs, atol=1e-9)

    def test_condensed_vector_matches_pairwise_walk(self):
        m = matrix_of([0.0, 0.0, 1.0, 4.0, 4.0, 9.0, 2.5])  # with ties
        d = agglomerate(m)
        walked = [d.cophenetic_distance(i, j) for i in range(m.n) for j in range(i + 1, m.n)]
        assert d.cophenetic_condensed().tolist() == walked

    def test_group_average_beats_single_on_noisy_data(self):
        rng = np.random.default_rng(5)
        points = list(rng.uniform(0, 100, size=24))
        m = matrix_of(points)
        avg = cophenetic_correlation(m, agglomerate(m, Linkage.GROUP_AVERAGE))
        single = cophenetic_correlation(m, agglomerate(m, Linkage.SINGLE))
        assert avg >= single - 0.05  # group average is (weakly) more faithful

    def test_too_few_items_rejected(self):
        m = matrix_of([1.0, 2.0])
        d = agglomerate(m)
        with pytest.raises(ClusteringError):
            cophenetic_correlation(m, d)

    def test_size_mismatch_rejected(self):
        m = matrix_of([1.0, 2.0, 3.0])
        other = agglomerate(matrix_of([1.0, 2.0, 3.0, 4.0]))
        with pytest.raises(ClusteringError):
            cophenetic_correlation(m, other)


def test_end_to_end_cluster_quality():
    """Clustering + cut recovers planted groups with a high silhouette."""
    points = [0.0, 0.5, 1.0, 40.0, 40.5, 41.0, 90.0, 90.5]
    m = matrix_of(points)
    d = agglomerate(m)
    nodes = cut_by_count(d, 3)
    assignment = cluster_assignments(d, nodes)
    assert silhouette_score(m, assignment) > 0.9
