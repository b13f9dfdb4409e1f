"""offline-generate: the paper's pipeline at M=800, one job after another.

A job is ``DetectionPipeline(trace, payload_check).run(M=800)`` with the
default serial engine: payload check, sample, distance matrix,
group-average linkage, cut, LCS signature generation, then screening of
the full trace.  A run is a fixed list of four jobs over two
seed-derived sample seeds, s0, s0, s1, s1, so its length is set by its
jobs rather than by ``--seconds``, and which samples it covers never
depends on the host's speed.  Every run repeats each sample seed and
checks that the repeat produced byte-identical signatures.  Quality comes
from the first job.
"""

from __future__ import annotations

import random

from measure import (
    NullSpans,
    Outcome,
    Spans,
    clock,
    median,
    peak_rss_mb_self,
    percentile,
    time_ready_child,
)

from repro import DetectionPipeline
from repro.clustering.linkage import Linkage, agglomerate
from repro.dataset.split import sample_packets
from repro.distance.engine import DistanceEngine
from repro.distance.packet import PacketDistance
from repro.signatures.generator import SignatureGenerator
from repro.signatures.matcher import SignatureMatcher
from repro.signatures.store import SignatureStore

M = 800
SCALES = (200, 400, 800)
PROBE_PACKETS = 400
OVERHEAD_PAIRS = 6

#: Spawned to measure set-up: a fresh interpreter until the corpus the
#: pipeline runs on is built.
SETUP_CODE = (
    "import repro\n"
    "corpus = repro.build_corpus(n_apps=300, seed=7)\n"
    "print('ready', len(corpus.trace), flush=True)\n"
)


def sample_seeds(seed: int) -> list[int]:
    rng = random.Random(f"{seed}|offline-generate")
    return [rng.randrange(1 << 30) for __ in range(2)]


def job_seeds(seed: int) -> list[int]:
    s0, s1 = sample_seeds(seed)
    return [s0, s0, s1, s1]


def measure(ctx, seed: int, seconds: float) -> Outcome:
    """The untraced run: end-to-end metrics only."""
    out = Outcome()
    seeds = job_seeds(seed)
    jobs: list[float] = []
    setups: list[float] = []
    first: dict[int, tuple[str, object]] = {}
    for sample_seed in seeds:
        t0 = clock()
        result = DetectionPipeline(ctx.trace, ctx.check).run(M, seed=sample_seed)
        jobs.append(clock() - t0)
        out.attempted += 1
        text = SignatureStore.dumps(result.signatures)
        if sample_seed in first:
            out.check("repeat_signatures_identical", text == first[sample_seed][0])
        else:
            first[sample_seed] = (text, result)
        # One spawn after every job spreads set-up through the run.
        setups.append(time_ready_child(SETUP_CODE))

    quality = first[seeds[0]][1]
    check_matcher(ctx, seed, quality.signatures, out)

    out.metric("throughput_per_s", M * len(jobs) / sum(jobs), "1/s")
    out.metric("latency_p50_ms", 1000.0 * median(jobs), "ms")
    out.metric("latency_p99_ms", 1000.0 * percentile(jobs, 99.0), "ms")
    out.metric("setup_s", median(setups), "s")
    out.metric("detect_tp_pct", quality.metrics.tp_percent, "%")
    out.metric("detect_fp_pct", quality.metrics.fp_percent, "%")
    out.metric("peak_rss_mb", peak_rss_mb_self(), "MiB")
    out.details["samples"] = {"job_s": jobs, "setup_s": setups}
    return out


def check_matcher(ctx, seed: int, signatures, out: Outcome) -> None:
    """``match`` (literal prefilter) must agree with ``match_full_scan``."""
    rng = random.Random(f"{seed}|offline-probe")
    matcher = SignatureMatcher(signatures)
    packets = ctx.trace.packets
    for index in rng.sample(range(len(packets)), PROBE_PACKETS):
        packet = packets[index]
        fast, slow = matcher.match(packet), matcher.match_full_scan(packet)
        out.check(
            "match_equals_full_scan",
            fast.matched == slow.matched and fast.signature == slow.signature,
        )


def decomposed_job(ctx, sample_seed: int, spans, scales=(M,)):
    """The job's stages called one by one, each inside a span.

    With ``scales`` the clustering stages run on nested prefixes of one
    M-sample, so each layer is timed at several sizes.
    """
    with spans.span("offline.job"):
        with spans.span("payload_check.split"):
            suspicious, __ = ctx.check.split(ctx.trace)
        sample = sample_packets(suspicious, M, seed=sample_seed)
        for m in scales:
            part = sample[:m]
            engine = DistanceEngine(PacketDistance.paper())
            with spans.span(f"distance.matrix.m{m}"):
                matrix = engine.matrix(part)
            with spans.span(f"clustering.linkage.m{m}"):
                dendrogram = agglomerate(matrix, Linkage.GROUP_AVERAGE)
            generator = SignatureGenerator()
            with spans.span(f"clustering.cut.m{m}"):
                clusters = generator.clusters_from_dendrogram(dendrogram, part)
            with spans.span(f"signatures.gen.m{m}"):
                signatures = generator.from_clusters(clusters)
        matcher = SignatureMatcher(signatures)
        with spans.span(f"matcher.screen.m{scales[-1]}"):
            matcher.screen(ctx.trace)
    return signatures, engine.stats


def layers(ctx, seed: int, seconds: float, spans, out: Outcome, compare: bool) -> None:
    """Per-layer metrics of the offline path (the traced run).

    With ``compare`` the tracing overhead comes from M=200 jobs run with
    spans on and off in alternation, ``OVERHEAD_PAIRS`` pairs, as the
    median of the per-pair ratios: an M=800 pair takes long enough for
    the host's speed to move between its halves.  A job has the same
    spans at every size, so the M=200 share is an upper bound on M=800's.
    """
    sample_seed = sample_seeds(seed)[0]
    decomposed_job(ctx, sample_seed, spans, scales=SCALES[:-1])
    signatures, engine_stats = decomposed_job(ctx, sample_seed, spans)
    out.attempted += 2
    matcher = SignatureMatcher(signatures)
    if compare:
        ratios = []
        texts = set()
        for pair in range(OVERHEAD_PAIRS):
            timed = {}
            for name in (("on", "off") if (seed + pair) % 2 == 0 else ("off", "on")):
                t0 = clock()
                small, __ = decomposed_job(
                    ctx, sample_seed, Spans() if name == "on" else NullSpans(), scales=SCALES[:1]
                )
                timed[name] = clock() - t0
                texts.add(SignatureStore.dumps(small))
                out.attempted += 1
            ratios.append(timed["on"] / timed["off"])
        out.check("repeat_signatures_identical", len(texts) == 1)
        out.metric("obs.tracing_overhead_pct", 100.0 * (median(ratios) - 1.0), "%")

    out.metric("payload_check.split_s", median(spans.durations("payload_check.split")), "s")
    for m in SCALES:
        out.metric(f"distance.matrix_s.m{m}", median(spans.durations(f"distance.matrix.m{m}")), "s")
        out.metric(f"clustering.linkage_s.m{m}", median(spans.durations(f"clustering.linkage.m{m}")), "s")
        out.metric(f"signatures.gen_s.m{m}", median(spans.durations(f"signatures.gen.m{m}")), "s")
    matrix_s = median(spans.durations(f"distance.matrix.m{M}"))
    out.metric("distance.pairs_per_s", M * (M - 1) / 2 / matrix_s, "1/s")
    out.metric("distance.ncd_hit_rate", engine_stats.pair_hit_rate, "ratio")
    out.metric("clustering.cut_s", median(spans.durations(f"clustering.cut.m{M}")), "s")
    screen_s = median(spans.durations(f"matcher.screen.m{M}"))
    out.metric("matcher.screen_pps", len(ctx.trace) / screen_s, "1/s")
    candidates = sum(
        len(matcher.candidates_for(packet, packet.canonical_text()))
        for packet in ctx.trace
    )
    out.metric("matcher.candidates_per_pkt", candidates / len(ctx.trace), "count")
