"""The traced layers and the per-layer metrics computed from their spans.

Layers are named after the ``src/repro`` packages. :data:`WRAPS` lists
the public functions the traced run wraps; :func:`layer_metrics` turns
the recorded spans (see :mod:`perfbench.tracing`) into the per-layer
metrics ``BENCHMARK.json`` declares, each normalised per query, per
write or per operation of the traced phase.

Definitions used below:

* *busy* — summed wall time of a layer's spans, counting only the
  outermost span where a layer re-enters itself. Spans on parallel
  fan-out legs add up, so busy time can exceed the operation's wall
  time.
* *self* — a span's duration minus the union of its child spans'
  intervals (children on any thread, see ``parent`` in the tracer).
* *wait* (protocol.call) — per operation, the time covered by outermost
  protocol calls that no span of work inside a call covers: client
  encode/decode, server dispatch and handling. What remains is framing,
  queueing and socket time.
"""

from __future__ import annotations

from collections import defaultdict

from perfbench.tracing import BACKGROUND, CALL_SPAN, WrapSpec


def _count(_args, result) -> float:
    return result


def _hit(_args, result) -> float:
    return 0 if result is None else 1


def _arg_len(args, _result) -> float:
    return len(args[1])


def _result_len(_args, result) -> float:
    return len(result)


WRAPS: list[WrapSpec] = [
    # secretsharing
    WrapSpec("repro.secretsharing.shamir", "ShamirScheme",
             "reconstruct_batch", "secretsharing.reconstruct_batch",
             _arg_len),
    WrapSpec("repro.secretsharing.shamir", "ShamirScheme", "split",
             "secretsharing.split"),
    # core
    WrapSpec("repro.core.posting", "PostingElementCodec", "unpack",
             "core.unpack"),
    WrapSpec("repro.core.posting", "PostingElementCodec", "pack",
             "core.pack"),
    WrapSpec("repro.core.zerber_index", None, "build_mapping_table",
             "core.build_mapping_table"),
    # ranking
    WrapSpec("repro.ranking.threshold", None, "threshold_top_k",
             "ranking.threshold_top_k"),
    WrapSpec("repro.ranking.scores", "CollectionStatistics",
             "from_postings", "ranking.from_postings"),
    # cachetier (the searcher L1, the coordinator share cache, the L2)
    WrapSpec("repro.cachetier.l1", "L1PostingCache", "get",
             "cachetier.l1.get", _hit),
    WrapSpec("repro.cachetier.l1", "L1PostingCache", "put",
             "cachetier.l1.put"),
    WrapSpec("repro.cachetier.l1", "L1PostingCache", "invalidate",
             "cachetier.l1.invalidate", _count),
    WrapSpec("repro.cluster.cache", "LRUShareCache", "get",
             "cachetier.share_cache.get", _hit),
    WrapSpec("repro.cluster.cache", "LRUShareCache", "put",
             "cachetier.share_cache.put"),
    WrapSpec("repro.cluster.cache", "LRUShareCache", "invalidate",
             "cachetier.share_cache.invalidate", _count),
    WrapSpec("repro.cachetier.store", "CacheTierStore", "get",
             "cachetier.l2.get", _hit),
    WrapSpec("repro.cachetier.store", "CacheTierStore", "put",
             "cachetier.l2.put"),
    WrapSpec("repro.cachetier.store", "CacheTierStore", "invalidate",
             "cachetier.l2.invalidate", _count),
    # cluster
    WrapSpec("repro.cluster.clients", "ClusterSearchClient",
             "fetch_elements", "cluster.fetch_elements"),
    WrapSpec("repro.cluster.coordinator", "ClusterCoordinator", "route",
             "cluster.route"),
    # protocol
    WrapSpec("repro.protocol.transport", "InProcessTransport", "call",
             CALL_SPAN),
    WrapSpec("repro.protocol.transport", "SocketTransport", "call",
             CALL_SPAN),
    WrapSpec("repro.protocol.async_transport", "AsyncSocketTransport",
             "call", CALL_SPAN),
    WrapSpec("repro.protocol.codec", None, "encode_message",
             "protocol.encode", _result_len),
    WrapSpec("repro.protocol.codec", None, "decode_message",
             "protocol.decode"),
    # server
    WrapSpec("repro.protocol.transport", None, "handle_request_payload",
             "server.dispatch"),
    WrapSpec("repro.server.index_server", "IndexServer",
             "get_posting_lists", "server.get_posting_lists"),
    WrapSpec("repro.server.index_server", "IndexServer", "insert_batch",
             "server.insert_batch"),
    WrapSpec("repro.server.index_server", "IndexServer", "delete",
             "server.delete"),
    # storage
    WrapSpec("repro.storage.engine", "SegmentedStore", "append_inserts",
             "storage.append"),
    WrapSpec("repro.storage.engine", "SegmentedStore", "append_deletes",
             "storage.append"),
    WrapSpec("repro.storage.segment", "SegmentWriter", "append",
             "storage.segment_write", _arg_len),
    WrapSpec("repro.storage.engine", "SegmentedStore", "compact",
             "storage.compact"),
    # client
    WrapSpec("repro.client.searcher", "SearchClient", "search",
             "client.search"),
    WrapSpec("repro.client.owner", "DocumentOwner", "share_document",
             "client.share_document"),
    WrapSpec("repro.client.owner", "DocumentOwner", "delete_document",
             "client.delete_document"),
    WrapSpec("repro.client.owner", "DocumentOwner", "flush_updates",
             "client.flush_updates"),
]

#: Per-layer metric name -> unit, in report order.
LAYER_METRICS: dict[str, str] = {
    "secretsharing.reconstruct_batch.busy_ms_per_query": "ms",
    "secretsharing.reconstruct_batch.elements_per_query": "count",
    "secretsharing.split.busy_ms_per_write": "ms",
    "core.unpack.busy_ms_per_query": "ms",
    "core.unpack.calls_per_query": "count",
    "core.pack.busy_ms_per_write": "ms",
    "core.useful_element_ratio": "ratio",
    "core.build_mapping_table.busy_s": "s",
    "ranking.threshold_top_k.busy_ms_per_query": "ms",
    "ranking.from_postings.busy_ms_per_query": "ms",
    "cachetier.l1.hit_ratio": "ratio",
    "cachetier.share_cache.hit_ratio": "ratio",
    "cachetier.l2.hit_ratio": "ratio",
    "cachetier.get.busy_ms_per_query": "ms",
    "cachetier.invalidations_per_write": "count",
    "cluster.fetch_elements.self_ms_per_query": "ms",
    "cluster.lookup_messages_per_query": "count",
    "cluster.pods_contacted_per_query": "count",
    "cluster.route.busy_ms_per_write": "ms",
    "protocol.call.calls_per_op": "count",
    "protocol.call.busy_ms_per_op": "ms",
    "protocol.call.wait_ms_per_op": "ms",
    "protocol.encode.busy_ms_per_op": "ms",
    "protocol.decode.busy_ms_per_op": "ms",
    "protocol.frame_bytes_per_op": "bytes",
    "server.get_posting_lists.busy_ms_per_query": "ms",
    "server.insert_batch.self_ms_per_write": "ms",
    "server.delete.busy_ms_per_write": "ms",
    "storage.append.busy_ms_per_write": "ms",
    "storage.append.calls_per_write": "count",
    "storage.segment_bytes_per_write": "bytes",
    "storage.compact.count": "count",
    "storage.compact.busy_s": "s",
    "client.search.busy_ms_per_query": "ms",
    "client.search.self_ms_per_query": "ms",
    "client.share_document.busy_ms_per_write": "ms",
    "client.delete_document.busy_ms_per_write": "ms",
    "client.flush_updates.busy_ms_per_write": "ms",
    "trace.overhead_ratio": "ratio",
}


def _union(intervals: list[tuple[int, int]]) -> list[tuple[int, int]]:
    merged: list[tuple[int, int]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1] = (merged[-1][0], end)
        else:
            merged.append((start, end))
    return merged


def _length(merged: list[tuple[int, int]]) -> int:
    return sum(end - start for start, end in merged)


def _overlap(a: list[tuple[int, int]], b: list[tuple[int, int]]) -> int:
    """Length of the intersection of two merged interval lists."""
    total = i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if hi > lo:
            total += hi - lo
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return total


class SpanIndex:
    """Spans grouped for the metric queries below."""

    def __init__(self, spans: list[tuple]) -> None:
        self.spans = spans
        self.by_id = {record[0]: record for record in spans}
        self.children: dict[int, list[tuple]] = defaultdict(list)
        for record in spans:
            if record[5] is not None:
                self.children[record[5]].append(record)

    def is_reentry(self, record: tuple) -> bool:
        """Does a span of the same name enclose this one?"""
        name = record[1]
        parent = self.by_id.get(record[5])
        while parent is not None:
            if parent[1] == name:
                return True
            parent = self.by_id.get(parent[5])
        return False

    def self_ns(self, record: tuple) -> int:
        start, end = record[2], record[3]
        covered = _union(
            [
                (max(child[2], start), min(child[3], end))
                for child in self.children.get(record[0], ())
                if child[3] > start and child[2] < end
            ]
        )
        return (end - start) - _length(covered)


def layer_metrics(
    spans: list[tuple],
    op_kinds: list[str],
    setup_op: int,
    query_counters: dict[str, float],
    overhead_ratio: float,
) -> dict[str, float]:
    """Every :data:`LAYER_METRICS` entry from one traced phase.

    Args:
        spans: the tracer's records (traced phase plus the traced setup).
        op_kinds: ``"query"`` or ``"write"`` per traced operation id.
        setup_op: the op id the traced set-up ran under.
        query_counters: per-query diagnostics summed over the traced
            queries (``lookup_messages``, ``pods_contacted``,
            ``elements_matched``, ``false_positives``).
        overhead_ratio: traced over untraced ops/s.
    """
    index = SpanIndex(spans)
    queries = sum(1 for kind in op_kinds if kind == "query")
    writes = len(op_kinds) - queries
    ops = len(op_kinds)

    busy: dict[tuple[str, str], float] = defaultdict(float)
    self_time: dict[tuple[str, str], float] = defaultdict(float)
    calls: dict[tuple[str, str], int] = defaultdict(int)
    values: dict[tuple[str, str], float] = defaultdict(float)
    per_op: dict[int, list[tuple]] = defaultdict(list)
    setup_busy: dict[str, float] = defaultdict(float)
    compact_count = 0
    compact_ns = 0
    for record in spans:
        span_id, name, start, end, _thread, _parent, op, under, value = record
        if name == "storage.compact":
            compact_count += 1
            compact_ns += end - start
        if op == setup_op:
            if not index.is_reentry(record):
                setup_busy[name] += end - start
            continue
        if op is None or op == BACKGROUND or not 0 <= op < ops:
            continue
        kind = op_kinds[op]
        key = (kind, name)
        calls[key] += 1
        if value is not None:
            values[key] += value
        per_op[op].append(record)
        if name == CALL_SPAN and under:
            continue  # a call made while serving a call: counted inside
        if not index.is_reentry(record):
            busy[key] += end - start
        if name in (
            "cluster.fetch_elements",
            "server.insert_batch",
            "client.search",
        ):
            self_time[key] += index.self_ns(record)

    wait_ns = 0
    for records in per_op.values():
        outer_calls = _union(
            [(r[2], r[3]) for r in records if r[1] == CALL_SPAN and not r[7]]
        )
        if not outer_calls:
            continue
        work = _union(
            [(r[2], r[3]) for r in records if r[7] and r[1] != CALL_SPAN]
        )
        wait_ns += _length(outer_calls) - _overlap(outer_calls, work)

    def per(total: float, count: int) -> float:
        return total / count if count else 0.0

    def ms(kind: str, name: str, table=busy) -> float:
        count = queries if kind == "query" else writes
        return per(table[(kind, name)], count) / 1e6

    def both(table, name: str) -> float:
        return table[("query", name)] + table[("write", name)]

    def ratio(name: str) -> float:
        return per(values[("query", name)], calls[("query", name)])

    matched = query_counters.get("elements_matched", 0)
    wasted = query_counters.get("false_positives", 0)
    return {
        "secretsharing.reconstruct_batch.busy_ms_per_query": ms(
            "query", "secretsharing.reconstruct_batch"),
        "secretsharing.reconstruct_batch.elements_per_query": per(
            values[("query", "secretsharing.reconstruct_batch")], queries),
        "secretsharing.split.busy_ms_per_write": ms(
            "write", "secretsharing.split"),
        "core.unpack.busy_ms_per_query": ms("query", "core.unpack"),
        "core.unpack.calls_per_query": per(
            calls[("query", "core.unpack")], queries),
        "core.pack.busy_ms_per_write": ms("write", "core.pack"),
        "core.useful_element_ratio": per(matched, matched + wasted),
        "core.build_mapping_table.busy_s": (
            setup_busy["core.build_mapping_table"] / 1e9),
        "ranking.threshold_top_k.busy_ms_per_query": ms(
            "query", "ranking.threshold_top_k"),
        "ranking.from_postings.busy_ms_per_query": ms(
            "query", "ranking.from_postings"),
        "cachetier.l1.hit_ratio": ratio("cachetier.l1.get"),
        "cachetier.share_cache.hit_ratio": ratio(
            "cachetier.share_cache.get"),
        "cachetier.l2.hit_ratio": ratio("cachetier.l2.get"),
        "cachetier.get.busy_ms_per_query": sum(
            ms("query", name)
            for name in (
                "cachetier.l1.get",
                "cachetier.share_cache.get",
                "cachetier.l2.get",
            )
        ),
        "cachetier.invalidations_per_write": per(
            sum(
                values[("write", name)]
                for name in (
                    "cachetier.l1.invalidate",
                    "cachetier.share_cache.invalidate",
                    "cachetier.l2.invalidate",
                )
            ),
            writes,
        ),
        "cluster.fetch_elements.self_ms_per_query": ms(
            "query", "cluster.fetch_elements", self_time),
        "cluster.lookup_messages_per_query": per(
            query_counters.get("lookup_messages", 0), queries),
        "cluster.pods_contacted_per_query": per(
            query_counters.get("pods_contacted", 0), queries),
        "cluster.route.busy_ms_per_write": ms("write", "cluster.route"),
        "protocol.call.calls_per_op": per(both(calls, CALL_SPAN), ops),
        "protocol.call.busy_ms_per_op": per(both(busy, CALL_SPAN), ops) / 1e6,
        "protocol.call.wait_ms_per_op": per(wait_ns, ops) / 1e6,
        "protocol.encode.busy_ms_per_op": per(
            both(busy, "protocol.encode"), ops) / 1e6,
        "protocol.decode.busy_ms_per_op": per(
            both(busy, "protocol.decode"), ops) / 1e6,
        "protocol.frame_bytes_per_op": per(
            both(values, "protocol.encode"), ops),
        "server.get_posting_lists.busy_ms_per_query": ms(
            "query", "server.get_posting_lists"),
        "server.insert_batch.self_ms_per_write": ms(
            "write", "server.insert_batch", self_time),
        "server.delete.busy_ms_per_write": ms("write", "server.delete"),
        "storage.append.busy_ms_per_write": ms("write", "storage.append"),
        "storage.append.calls_per_write": per(
            calls[("write", "storage.segment_write")], writes),
        "storage.segment_bytes_per_write": per(
            values[("write", "storage.segment_write")], writes),
        "storage.compact.count": float(compact_count),
        "storage.compact.busy_s": compact_ns / 1e9,
        "client.search.busy_ms_per_query": ms("query", "client.search"),
        "client.search.self_ms_per_query": ms(
            "query", "client.search", self_time),
        "client.share_document.busy_ms_per_write": ms(
            "write", "client.share_document"),
        "client.delete_document.busy_ms_per_write": ms(
            "write", "client.delete_document"),
        "client.flush_updates.busy_ms_per_write": ms(
            "write", "client.flush_updates"),
        "trace.overhead_ratio": overhead_ratio,
    }
