"""Golden byte-identity of the offline generation path.

The distance matrix, the linkage loop and the LCS token extraction are all
performance-tuned; every such change must leave the produced signature
bytes and merge trees exactly as they were.  These digests were taken from
the straightforward implementations (per-pair evaluator loop, full-matrix
argmin linkage, one suffix automaton per candidate span) and pin the output
of SHA-256 over ``SignatureStore.dumps(signatures)`` and over the JSON of
``Dendrogram.to_linkage_array()`` for a fixed corpus, sample seeds and all
four linkages.  A digest change means the output changed — never update one
to make a speed-up pass.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.clustering.linkage import Linkage
from repro.core.server import ServerConfig, SignatureServer
from repro.signatures.store import SignatureStore

N_SAMPLE = 120
SAMPLE_SEEDS = (0, 5)

#: (linkage, sample seed) -> (signature-store digest, linkage-array digest)
GOLDEN: dict[tuple[str, int], tuple[str, str]] = {
    ("average", 0): (
        "f50a1846d60b90ed9806cb8ba9c9364247e43d88425872ac8b92b87b7d94dd6c",
        "ae9980fd16c5842e36795608e1c9920e5d659cbc14f070483a007265b9e21d4f",
    ),
    ("average", 5): (
        "e790b488249842fd131072a0658a7e3dc49e0232d9feb606d83ad1848f7a4a97",
        "f3e2b8f79769dabe72f64813d2280aded1a61f322960a4061dc34807818f07ba",
    ),
    ("single", 0): (
        "f50a1846d60b90ed9806cb8ba9c9364247e43d88425872ac8b92b87b7d94dd6c",
        "943270343ddd20a850a7f0c08b5d9775a761ddf319422974cbe9b08549beb246",
    ),
    ("single", 5): (
        "5919169f7c780d0c3f48beac9484d158447904d964d5d84e1b441f8166a7b38a",
        "211c2c04d0122201e73f0f3e141a0769ddfed6f96f9f6d1dd7641eacdc17218b",
    ),
    ("complete", 0): (
        "2ac320d6d8a31daef1f591119f3a099e74c28141eb05ad416eabf174811ebf62",
        "92bdddf8019aa1ea69417bfdfe5cf35f7a8445a18287752898c0d9184ef6b2cb",
    ),
    ("complete", 5): (
        "db87a3b94b556a03a4ecb269bb07af4c524f168ed29a29bfdf4b19a0d0136bc9",
        "08a8beb1241751e7be421e8c33806d3e95c91d5027974ea9d1e75a45d303ac52",
    ),
    ("ward", 0): (
        "4d7104e7d234e8bbb184fe35aa24172b1b303af184c7fe85b0bc39b84535ccc9",
        "5c6f362a0f9ec093710435f38847a5554a47d7e0eb69afde8066cbef0c63f2a5",
    ),
    ("ward", 5): (
        "3f9f972a374d3329e9a31e9fd5869fe67f36b28c17f5f530bd4bcdfa09efcab8",
        "6b29b1eaf9d7993869cca31fb6bcf9bccbe88438a4723254d238eb1a9215d85d",
    ),
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def generations(small_corpus):
    out = {}
    for linkage in Linkage:
        server = SignatureServer(
            small_corpus.payload_check(), config=ServerConfig(linkage=linkage)
        )
        server.ingest(small_corpus.trace)
        for seed in SAMPLE_SEEDS:
            out[linkage.value, seed] = server.generate(N_SAMPLE, seed=seed)
    return out


@pytest.mark.parametrize("linkage", [linkage.value for linkage in Linkage])
@pytest.mark.parametrize("seed", SAMPLE_SEEDS)
def test_golden_digests(generations, linkage, seed):
    result = generations[linkage, seed]
    signatures = _digest(SignatureStore.dumps(result.signatures))
    tree = _digest(json.dumps(result.dendrogram.to_linkage_array()))
    assert (signatures, tree) == GOLDEN[linkage, seed]
