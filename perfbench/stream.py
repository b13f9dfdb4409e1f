"""stream-cluster: exact-mode streaming clustering of 1,024 packets.

Each stream is a fresh ``StreamingClusterer`` (exact blocking, default
``compact_every=4``) fed 1,024 suspicious packets in a seed-chosen order:
256 packets, then 6 batches of 128, then ``compact(full=True)``.  The
packets are one fixed sample, so runs differ only in arrival order and
the work (pairs, blocks, cache size) stays comparable from seed to seed.
Every stream of a run replays them in a new order; exact blocking plus a
full compaction must end each one in the same partition.
"""

from __future__ import annotations

import random

from measure import (
    NullSpans,
    Outcome,
    clock,
    median,
    peak_rss_mb_self,
    percentile,
    time_ready_child,
)

from repro import BlockingConfig, BlockingMode, StreamingClusterer, StreamingConfig
from repro.clustering.cut import cut_by_height
from repro.clustering.linkage import agglomerate
from repro.distance.engine import DistanceEngine
from repro.eval.metrics import compute_metrics
from repro.signatures.generator import GeneratorConfig, SignatureGenerator
from repro.signatures.matcher import SignatureMatcher
from repro.signatures.store import SignatureStore

N_PACKETS = 1024
FIRST_BATCH = 256
BATCH = 128
MIN_STREAMS = 4
#: The fixed sample of suspicious packets every stream replays.
PACKET_SAMPLE_SEED = 7
COMPACT_EVERY = 4
LAYER_STREAMS = 2

SETUP_CODE = (
    "import repro\n"
    "clusterer = repro.StreamingClusterer(None, repro.StreamingConfig(\n"
    "    blocking=repro.BlockingConfig(mode=repro.BlockingMode.EXACT)))\n"
    "print('ready', len(clusterer), flush=True)\n"
)


def stream_packets(ctx) -> list:
    return random.Random(PACKET_SAMPLE_SEED).sample(ctx.suspicious, N_PACKETS)


def arrival_order(seed: int, k: int) -> list[int]:
    order = list(range(N_PACKETS))
    random.Random(f"{seed}|stream-order|{k}").shuffle(order)
    return order


def tranches(packets: list) -> list[list]:
    return [packets[:FIRST_BATCH]] + [
        packets[start : start + BATCH] for start in range(FIRST_BATCH, len(packets), BATCH)
    ]


def make_clusterer(compact_every: int) -> StreamingClusterer:
    return StreamingClusterer(
        None,
        StreamingConfig(
            blocking=BlockingConfig(mode=BlockingMode.EXACT), compact_every=compact_every
        ),
    )


def signatures_of(clusterer: StreamingClusterer, packets: list, partition) -> list:
    generator = SignatureGenerator(GeneratorConfig(cut_height=clusterer.threshold))
    return generator.from_clusters([[packets[i] for i in cluster] for cluster in partition])


def measure(ctx, seed: int, seconds: float) -> Outcome:
    """The untraced run: end-to-end metrics only."""
    out = Outcome()
    packets = stream_packets(ctx)
    ingest_s: list[float] = []
    stream_s: list[float] = []
    setups: list[float] = []
    reference = None
    started = clock()
    while True:
        order = arrival_order(seed, len(stream_s))
        ordered = [packets[i] for i in order]
        clusterer = make_clusterer(COMPACT_EVERY)
        t_stream = clock()
        for batch in tranches(ordered):
            t0 = clock()
            clusterer.ingest(batch)
            ingest_s.append(clock() - t0)
        clusterer.compact(full=True)
        stream_s.append(clock() - t_stream)
        out.attempted += len(tranches(ordered)) + 1
        # The partition over sample positions, independent of arrival order.
        partition = sorted(
            sorted(order[i] for i in cluster) for cluster in clusterer.partition()
        )
        if reference is None:
            reference = (partition, clusterer, ordered)
        else:
            out.check("partition_order_invariant", partition == reference[0])
        setups.append(time_ready_child(SETUP_CODE))
        elapsed = clock() - started
        if len(stream_s) >= MIN_STREAMS and elapsed + 0.5 * median(stream_s) > seconds:
            break

    __, first, first_packets = reference
    signatures = signatures_of(first, first_packets, first.partition())
    quality = compute_metrics(
        SignatureMatcher(signatures), ctx.suspicious, ctx.normal, N_PACKETS
    )
    # A mean over every stream: arrival order changes a stream's work, and
    # the mean over the run's orders varies less than any one stream.
    out.metric("throughput_per_s", N_PACKETS * len(stream_s) / sum(stream_s), "1/s")
    out.metric("latency_p50_ms", 1000.0 * median(ingest_s), "ms")
    out.metric("latency_p99_ms", 1000.0 * percentile(ingest_s, 99.0), "ms")
    out.metric("setup_s", median(setups), "s")
    out.metric("detect_tp_pct", quality.tp_percent, "%")
    out.metric("detect_fp_pct", quality.fp_percent, "%")
    out.metric("peak_rss_mb", peak_rss_mb_self(), "MiB")
    out.details["samples"] = {"ingest_s": ingest_s, "stream_s": stream_s, "setup_s": setups}
    return out


def driven_stream(ordered: list, spans) -> StreamingClusterer:
    """One stream with the compaction cadence driven from outside, so
    attach and compaction get spans of their own."""
    clusterer = make_clusterer(0)
    with spans.span("stream.stream"):
        for number, batch in enumerate(tranches(ordered), start=1):
            with spans.span("streaming.attach"):
                clusterer.ingest(batch)
            if number % COMPACT_EVERY == 0:
                with spans.span("streaming.compact"):
                    clusterer.compact()
        with spans.span("streaming.compact"):
            clusterer.compact(full=True)
    return clusterer


def _per_stream_totals(spans, name: str) -> list[float]:
    streams = [i for i, r in enumerate(spans.records) if r["name"] == "stream.stream"]
    return [
        sum(
            r["end"] - r["start"]
            for r in spans.records
            if r["name"] == name and r["parent"] == index
        )
        for index in streams
    ]


def layers(ctx, seed: int, seconds: float, spans, out: Outcome, compare: bool) -> None:
    """Per-layer metrics of the streaming path (the traced run).

    With ``compare`` the same streams also run with spans off (tracing
    overhead), and the first stream is checked against a full recluster.
    """
    packets = stream_packets(ctx)
    on_s: list[float] = []
    off_s: list[float] = []
    clusterers = []
    for k in range(LAYER_STREAMS):
        ordered = [packets[i] for i in arrival_order(seed, k)]
        passes = ["on", "off"] if (seed + k) % 2 == 0 else ["off", "on"]
        for name in passes if compare else ["on"]:
            t0 = clock()
            clusterer = driven_stream(ordered, spans if name == "on" else NullSpans())
            (on_s if name == "on" else off_s).append(clock() - t0)
            out.attempted += 1
            if name == "on":
                clusterers.append((clusterer, ordered))

    if compare:
        out.metric("obs.tracing_overhead_pct", 100.0 * (median(on_s) / median(off_s) - 1.0), "%")
        clusterer, ordered = clusterers[0]
        full = agglomerate(DistanceEngine().matrix(ordered), clusterer.config.linkage)
        full_partition = sorted(
            (sorted(full.leaves(node)) for node in cut_by_height(full, clusterer.threshold)),
            key=lambda cluster: cluster[0],
        )
        stream_partition = clusterer.partition()
        out.check("stream_partition_equals_full_recluster", stream_partition == full_partition)
        out.check(
            "stream_signatures_equal_full_recluster",
            SignatureStore.dumps(signatures_of(clusterer, ordered, stream_partition))
            == SignatureStore.dumps(signatures_of(clusterer, ordered, full_partition)),
        )

    out.metric("streaming.attach_s", median(_per_stream_totals(spans, "streaming.attach")), "s")
    out.metric("streaming.compact_s", median(_per_stream_totals(spans, "streaming.compact")), "s")
    last = [c for c, __ in clusterers]
    out.metric("streaming.pairs_evaluated", median(c.stats.pairs_evaluated for c in last), "count")
    out.metric("streaming.blocks_compacted", median(c.stats.blocks_compacted for c in last), "count")
    out.metric(
        "streaming.max_block",
        max(len(block) for c in last for block in c.blocker.components()),
        "count",
    )
    out.metric("distance.pairstream_cached", median(c.stream.cached_pairs for c in last), "count")
