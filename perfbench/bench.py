"""One benchmark run: set up, warm up, measure, check, report.

Load comes from this process's single client thread in a closed loop:
each query or write waits for its reply before the next is sent. The
program runs its own fan-out pool (and, on ``mixed-socket``, the async
server loop and reader thread) underneath.

Timing metrics are in reference-host time: each operation is divided
by how much slower than usual the host ran a fixed pure-Python task
around it (:class:`HostSpeed`), so a neighbour slowing the whole machine
does not show as a slower program.

An untraced run (``trace=False``) reports the end-to-end metrics. A
traced run measures an untraced half-phase, then installs the layer
wrappers of :mod:`perfbench.layers` for a traced half-phase, and reports
the per-layer metrics plus the tracing overhead (traced over untraced
ops/s).
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import json
import math
import os
import pathlib
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import threading
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field

from perfbench import layers, oracle
from perfbench.tracing import Tracer, install
from perfbench.workloads import (
    WORKLOADS,
    Inputs,
    OperationStream,
    Query,
    Write,
    build_cluster,
    make_inputs,
    member_of,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent
#: Ignored working directory for seat stores and span dumps.
WORK_DIR = ROOT / ".perfbench"

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Warm-up: chunks of this many operations until the cache hit ratio
#: moves by less than the tolerance between chunks.
WARMUP_CHUNK = 200
WARMUP_MAX_CHUNKS = 8
WARMUP_TOLERANCE = 0.03
#: Read-only workloads time this many writes after the read phase.
WRITE_PROBE = 1_000
#: Read-only workloads check this many more queries after the probe.
CHECK_QUERIES = 50
#: The traced run's op id for spans recorded during set-up.
SETUP_OP = -1
#: Timed stretches are cut into windows of this length, and the metrics
#: leave out the windows in which the hypervisor stole CPU time: on a
#: shared machine a neighbour's load takes whole seconds at a time, and
#: it is that, not the program, which otherwise dominates the run-to-run
#: spread. Windows are judged only by the steal the kernel counted
#: (``/proc/stat``), a signal the program's own threads cannot raise.
WINDOW_S = 1.0
#: A window is kept when the steal counted in it, in clock ticks per
#: second summed over all CPUs, is at most this (2 ticks/s is 1% of a
#: 2-CPU machine)...
STEAL_LIMIT = 2.0
#: ...and when fewer windows pass, the least-stolen share of them is kept.
KEEP_SHARE = 0.5
#: Timing metrics are in reference-host time. A neighbour on the shared
#: host also slows the program without any steal being counted, by up to
#: 1.6x for minutes at a time: a fixed pure-Python task is timed every
#: :data:`HOST_SAMPLE_EVERY_S` between operations, and each operation's
#: time is divided by its host factor, the median of the
#: :data:`HOST_SAMPLE_SPAN` samples nearest to it over
#: :data:`HOST_NOMINAL_S`, the task's typical CPU time on the 2-vCPU
#: 2.1 GHz Xeon guest the benchmark was tuned on.
HOST_SAMPLE_ITERATIONS = 1_500
HOST_SAMPLE_EVERY_S = 0.05
HOST_SAMPLE_SPAN = 11
HOST_NOMINAL_S = 0.7e-3
#: Host samples taken right before and right after each set-up, spaced
#: like those of the timed phase (back to back, the task runs faster).
SETUP_HOST_SAMPLES = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_p95_ms": "ms",
    "write_p50_ms": "ms",
    "write_p95_ms": "ms",
    "bytes_per_query": "bytes",
    "disk_bytes_per_element": "bytes",
    "peak_rss_mb": "MB",
}


@dataclass
class Phase:
    """What one stretch of operations measured."""

    query_s: list[float] = field(default_factory=list)
    write_s: list[float] = field(default_factory=list)
    #: When each query and write started (``time.perf_counter``).
    query_at: list[float] = field(default_factory=list)
    write_at: list[float] = field(default_factory=list)
    counters: Counter = field(default_factory=Counter)
    attempted: int = 0
    failed: int = 0
    #: Reference-host seconds (see :data:`HOST_NOMINAL_S`); ``wall_s``
    #: is the same stretch in measured seconds.
    elapsed_s: float = 0.0
    wall_s: float = 0.0

    @property
    def ops(self) -> int:
        return len(self.query_s) + len(self.write_s)

    def hit_ratio(self) -> float:
        hits = sum(self.counters[k] for k in ("cache_hits", "l1_hits", "l2_hits"))
        return hits / max(1, self.counters["posting_lists_requested"])

    @classmethod
    def merged(cls, phases: list["Phase"]) -> "Phase":
        out = cls()
        for phase in phases:
            out.query_s += phase.query_s
            out.write_s += phase.write_s
            out.query_at += phase.query_at
            out.write_at += phase.write_at
            out.counters.update(phase.counters)
            out.attempted += phase.attempted
            out.failed += phase.failed
            out.elapsed_s += phase.elapsed_s
            out.wall_s += phase.wall_s
        return out

    def rescale(self, host: "HostSpeed") -> float:
        """Turn measured durations into reference-host durations.

        Each operation is divided by the host factor when it started;
        the stretch's elapsed time by their mean, weighted by each
        operation's time. Returns that mean.
        """
        measured = sum(self.query_s) + sum(self.write_s)
        self.query_s = [
            t / host.factor_at(at) for t, at in zip(self.query_s, self.query_at)
        ]
        self.write_s = [
            t / host.factor_at(at) for t, at in zip(self.write_s, self.write_at)
        ]
        scaled = sum(self.query_s) + sum(self.write_s)
        factor = measured / scaled if scaled else host.factor_at(0.0)
        self.elapsed_s = self.wall_s / factor
        return factor


class HostSpeed:
    """The host samples of one timed stretch, in time order."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.values: list[float] = []

    def sample(self) -> None:
        self.times.append(time.perf_counter())
        self.values.append(_host_sample_s())

    def factor_at(self, at: float) -> float:
        """The median of the samples nearest to ``at``, over nominal."""
        index = bisect.bisect_left(self.times, at)
        hi = min(
            len(self.values), max(0, index - HOST_SAMPLE_SPAN // 2)
            + HOST_SAMPLE_SPAN,
        )
        lo = max(0, hi - HOST_SAMPLE_SPAN)
        return statistics.median(self.values[lo:hi]) / HOST_NOMINAL_S


@dataclass
class Windows:
    """One timed stretch: every window, and the unstolen ones merged."""

    every: Phase
    kept: Phase
    #: Steal ticks per second counted in each window, in run order.
    steal: list[float]
    #: Each window's host factor, in run order.
    host: list[float]
    kept_count: int

    @classmethod
    def select(cls, windows: list[tuple[Phase, float]],
               host: HostSpeed) -> "Windows":
        factors = [phase.rescale(host) for phase, _ in windows]
        ranked = sorted(windows, key=lambda window: window[1])
        kept_count = max(
            math.ceil(len(ranked) * KEEP_SHARE),
            sum(1 for _, steal in ranked if steal <= STEAL_LIMIT),
        )
        return cls(
            every=Phase.merged([phase for phase, _ in windows]),
            kept=Phase.merged([phase for phase, _ in ranked[:kept_count]]),
            steal=[steal for _, steal in windows],
            host=factors,
            kept_count=kept_count,
        )


class Client:
    """The closed-loop client: runs operations and logs them for the oracle."""

    def __init__(self, cluster, searchers, stream: OperationStream) -> None:
        self.cluster = cluster
        self.searchers = searchers
        self.stream = stream
        #: ``(Write,)`` / ``(Query, digest)`` in execution order.
        self.log: list[tuple] = []
        self.tracer: Tracer | None = None
        #: Kind of every traced operation, indexed by op id.
        self.op_kinds: list[str] = []
        self.errors: list[str] = []

    def run(self, op, phase: Phase) -> None:
        tracer = self.tracer
        if tracer is not None:
            tracer.op = len(self.op_kinds)
            self.op_kinds.append("query" if isinstance(op, Query) else "write")
        phase.attempted += 1
        try:
            if isinstance(op, Query):
                searcher = self.searchers[op.user]
                start = time.perf_counter()
                results = oracle.search(searcher, op)
                elapsed = time.perf_counter() - start
            else:
                start = time.perf_counter()
                oracle.apply_write(self.cluster, op)
                elapsed = time.perf_counter() - start
        except Exception:  # noqa: BLE001 - a failed op is a result
            phase.failed += 1
            if len(self.errors) < 5:
                self.errors.append(traceback.format_exc())
            if isinstance(op, Query):
                self.log.append((op, None))
            return
        finally:
            if tracer is not None:
                tracer.op = None
        if isinstance(op, Write):
            phase.write_s.append(elapsed)
            phase.write_at.append(start)
            self.log.append((op,))
            return
        phase.query_s.append(elapsed)
        phase.query_at.append(start)
        self.log.append((op, oracle.digest(results)))
        diag = searcher.last_diagnostics
        cluster_diag = searcher.last_cluster_diagnostics
        counters = phase.counters
        counters["posting_lists_requested"] += diag.posting_lists_requested
        counters["elements_matched"] += diag.elements_matched
        counters["false_positives"] += diag.false_positives
        counters["response_bytes"] += diag.response_bytes
        counters["cache_hits"] += cluster_diag.cache_hits
        counters["l1_hits"] += cluster_diag.l1_hits
        counters["l2_hits"] += cluster_diag.l2_hits
        counters["lookup_messages"] += cluster_diag.lookup_messages
        counters["pods_contacted"] += cluster_diag.pods_contacted

    def timed(self, make_op, seconds: float | None = None,
              ops: int | None = None) -> Windows:
        """Run ``make_op`` operations for ``seconds`` or ``ops`` in
        windows of :data:`WINDOW_S`, counting each window's CPU steal and
        sampling the host's speed between operations."""
        done = 0
        deadline = None if seconds is None else time.perf_counter() + seconds
        windows: list[tuple[Phase, float]] = []
        host = HostSpeed()
        host.sample()
        next_sample = time.perf_counter() + HOST_SAMPLE_EVERY_S
        while True:
            phase = Phase()
            sampling_s = 0.0
            steal = _steal_ticks()
            start = time.perf_counter()
            end = start + WINDOW_S if deadline is None else min(
                start + WINDOW_S, deadline)
            while (now := time.perf_counter()) < end and (
                ops is None or done < ops
            ):
                if now >= next_sample:
                    host.sample()
                    next_sample = time.perf_counter()
                    sampling_s += next_sample - now
                    next_sample += HOST_SAMPLE_EVERY_S
                self.run(make_op(), phase)
                done += 1
            wall = time.perf_counter() - start
            phase.wall_s = wall - sampling_s
            windows.append((phase, (_steal_ticks() - steal) / wall))
            if (ops is not None and done >= ops) or (
                deadline is not None and time.perf_counter() >= deadline
            ):
                return Windows.select(windows, host)

    def count(self, ops: int, make_op) -> Phase:
        phase = Phase()
        start = time.perf_counter()
        for _ in range(ops):
            self.run(make_op(), phase)
        phase.wall_s = phase.elapsed_s = time.perf_counter() - start
        return phase

    def warm_up(self) -> tuple[Phase, float]:
        """Run chunks until the cache hit ratio settles.

        Returns every warm-up operation merged, and the last chunk's ratio.
        """
        chunks: list[Phase] = []
        previous = None
        for _ in range(WARMUP_MAX_CHUNKS):
            chunks.append(self.count(WARMUP_CHUNK, self.stream.next_op))
            ratio = chunks[-1].hit_ratio()
            if previous is not None and abs(ratio - previous) < WARMUP_TOLERANCE:
                break
            previous = ratio
        return Phase.merged(chunks), ratio


def percentile(values: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def _host_sample_s() -> float:
    """CPU seconds this thread takes for a fixed pure-Python task.

    The task (arithmetic, dict and list updates, a sort) has nothing to
    do with the program, and it is timed in this thread's CPU time with
    the garbage collector off: the program's threads waiting for or
    holding the GIL, and the size of its heap, cannot lengthen it; a
    host that runs this process slower does.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.thread_time()
        table: dict[int, list[int]] = {}
        total = 0
        for i in range(HOST_SAMPLE_ITERATIONS):
            total += i * i
            table.setdefault(i * 7919 % 509, []).append(total)
        sorted(table.items(), key=lambda item: (len(item[1]), item[0]))
        return time.thread_time() - start
    finally:
        if enabled:
            gc.enable()


def _spaced_host_samples() -> list[float]:
    samples = []
    for _ in range(SETUP_HOST_SAMPLES):
        time.sleep(HOST_SAMPLE_EVERY_S)
        samples.append(_host_sample_s())
    return samples


def _steal_ticks() -> int:
    """Cumulative CPU steal time (clock ticks) from /proc/stat."""
    try:
        with open("/proc/stat", encoding="utf-8") as stat:
            fields = stat.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return 0


#: How long a closed deployment's threads get to finish before they count
#: as leaked.
LEAK_GRACE_S = 2.0


@dataclass(frozen=True)
class Snapshot:
    """The process's threads and open file descriptors at one moment."""

    threads: frozenset[threading.Thread]
    fds: frozenset[str]

    @classmethod
    def take(cls) -> "Snapshot":
        return cls(frozenset(threading.enumerate()), _open_fds())


def _open_fds() -> frozenset[str]:
    try:
        return frozenset(os.listdir("/proc/self/fd"))
    except OSError:
        return frozenset()


def close_and_remove(cluster, wal_dir: pathlib.Path,
                     before: Snapshot) -> tuple[int, int]:
    """Close a deployment and delete its seat stores.

    Returns the ``(threads, file descriptors)`` it leaked: ``zerber-*``
    threads still alive after :data:`LEAK_GRACE_S`, and descriptors
    (files and sockets) open now that were not open in ``before``, the
    snapshot taken before the deployment was built.
    """
    cluster.close()
    shutil.rmtree(wal_dir, ignore_errors=True)
    deadline = time.monotonic() + LEAK_GRACE_S
    threads = [
        t for t in threading.enumerate()
        if t not in before.threads and t.name.startswith("zerber-")
    ]
    for thread in threads:
        thread.join(max(0.0, deadline - time.monotonic()))
    leaked_threads = sum(1 for t in threads if t.is_alive())
    return leaked_threads, len(_open_fds() - before.fds)


def _git_commit() -> str:
    """The checkout's commit, read from ``.git`` without spawning git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _filesystem_of(path: pathlib.Path) -> str:
    best, fs_type = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as mounts:
            for line in mounts:
                parts = line.split()
                if len(parts) < 3:
                    continue
                mount = parts[1]
                if str(path).startswith(mount) and len(mount) > len(best):
                    best, fs_type = mount, parts[2]
    except OSError:
        pass
    return fs_type


def _program_threads() -> dict[str, int]:
    """Live program threads, grouped by name prefix."""
    groups: Counter = Counter()
    for thread in threading.enumerate():
        if thread is threading.main_thread():
            continue
        name = thread.name
        for prefix in (
            "zerber-fanout",
            "zerber-async-server-loop",
            "zerber-async-handler",
            "zerber-async-client",
            "zerber-compactor",
        ):
            if name.startswith(prefix):
                groups[prefix] += 1
                break
        else:
            groups["other"] += 1
    return dict(sorted(groups.items()))


def _numpy_version() -> str:
    try:
        import numpy
    except ImportError:
        return "absent"
    return numpy.__version__


def _disk_bytes_per_element(cluster) -> float:
    """Seat-store bytes per stored posting element, compactions done.

    Read right after set-up: later writes grow the logs by an amount
    that depends on how many writes fit in the timed phase, which would
    make a faster write path look like worse storage.
    """
    disk = 0
    for pod in cluster.pods:
        for slot in pod.slots:
            if slot.log is not None:
                slot.log.wait_for_compaction()
                disk += slot.log.disk_bytes()
    return disk / max(1, cluster.total_elements())


@contextlib.contextmanager
def _traced(tracer: Tracer | None, op: int | None = None):
    """Install the layer wrappers for the block (no-op untraced)."""
    if tracer is None:
        yield
        return
    patches = install(tracer, layers.WRAPS)
    tracer.op = op
    try:
        yield
    finally:
        tracer.op = None
        patches.remove()


def _set_up(workload, inputs: Inputs, seed: int, tracer: Tracer | None):
    """Build the deployment ``repeats`` times, keeping the last.

    Returns ``(cluster, wal_dir, snapshot taken before the kept build,
    ``(wall seconds, host factor)`` per build, leaks of the builds closed
    here)``. A build's host factor is the median of the host samples
    taken right before and right after it. A traced run builds once,
    with the wrappers on, under ``SETUP_OP``.
    """
    builds: list[tuple[float, float]] = []
    leaks = Counter()
    cluster = wal_dir = before = None
    for _ in range(1 if tracer is not None else SETUP_REPEATS):
        if cluster is not None:
            _count_leaks(leaks, close_and_remove(cluster, wal_dir, before))
        gc.collect()
        before = Snapshot.take()
        wal_dir = pathlib.Path(tempfile.mkdtemp(prefix="wal-", dir=WORK_DIR))
        samples = _spaced_host_samples()
        with _traced(tracer, SETUP_OP):
            start = time.perf_counter()
            cluster = build_cluster(workload, inputs, seed, wal_dir)
            wall = time.perf_counter() - start
        samples += _spaced_host_samples()
        builds.append((wall, statistics.median(samples) / HOST_NOMINAL_S))
    return cluster, wal_dir, before, builds, leaks


def _count_leaks(leaks: Counter, found: tuple[int, int]) -> None:
    leaks["threads"] += found[0]
    leaks["fds"] += found[1]


@dataclass
class Measurement:
    """Everything the phases on one deployment measured."""

    client: Client
    warmup: Phase
    warmup_hit_ratio: float
    main: Windows
    writes: Windows
    untraced: Windows | None
    every: list[Phase]  # every operation run after the warm-up
    threads: dict[str, int]
    steal_s: float
    disk_bytes_per_element: float
    peak_rss_mb: float


def _measure(cluster, workload, inputs: Inputs, seed: int, seconds: float,
             tracer: Tracer | None) -> Measurement:
    disk_per_element = _disk_bytes_per_element(cluster)
    searchers = [
        cluster.searcher(member_of(g), use_cache=workload.use_cache)
        for g in inputs.groups
    ]
    client = Client(cluster, searchers, OperationStream(workload, inputs, seed))
    stream = client.stream
    warmup, warm_ratio = client.warm_up()
    gc.collect()
    every: list[Phase] = []
    untraced = None
    steal_before = _steal_ticks()
    if tracer is not None:
        untraced = client.timed(stream.next_op, seconds=seconds / 2)
        every.append(untraced.every)
        client.tracer = tracer
    with _traced(tracer):
        main = client.timed(
            stream.next_op, seconds=seconds if tracer is None else seconds / 2
        )
        threads = _program_threads()
    every.append(main.every)
    steal_s = (_steal_ticks() - steal_before) / os.sysconf("SC_CLK_TCK")
    writes = main
    if workload.read_only:
        gc.collect()
        with _traced(tracer):
            writes = client.timed(stream.next_write, ops=WRITE_PROBE)
        every.append(writes.every)
        client.tracer = None
        every.append(client.count(CHECK_QUERIES, stream.next_query))
    return Measurement(
        client=client,
        warmup=warmup,
        warmup_hit_ratio=warm_ratio,
        main=main,
        writes=writes,
        untraced=untraced,
        every=every,
        threads=threads,
        steal_s=steal_s,
        disk_bytes_per_element=disk_per_element,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> int:
    """Run one workload; prints provenance then the result line."""
    workload = WORKLOADS[workload_name]
    WORK_DIR.mkdir(exist_ok=True)
    run_started = time.perf_counter()
    inputs = make_inputs(seed)
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.bind_client_thread()
    cluster, wal_dir, before, builds, leaks = _set_up(
        workload, inputs, seed, tracer
    )
    try:
        m = _measure(cluster, workload, inputs, seed, seconds, tracer)
    finally:
        _count_leaks(leaks, close_and_remove(cluster, wal_dir, before))
    mismatches = oracle.count_mismatches(
        inputs, cluster.mapping_table, seed, m.client.log
    )
    phases = [m.warmup, *m.every]
    attempted = sum(p.attempted for p in phases)
    failed = (
        sum(p.failed for p in phases) + mismatches
        + leaks["threads"] + leaks["fds"]
    )
    main, writes = m.main.kept, m.writes.kept
    ops_per_s = main.ops / main.elapsed_s

    if tracer is None:
        values = {
            "setup_s": statistics.median(wall / host for wall, host in builds),
            "ops_per_s": ops_per_s,
            "query_p50_ms": percentile(main.query_s, 0.50)[0] * 1e3,
            "query_p95_ms": percentile(main.query_s, 0.95)[0] * 1e3,
            "write_p50_ms": percentile(writes.write_s, 0.50)[0] * 1e3,
            "write_p95_ms": percentile(writes.write_s, 0.95)[0] * 1e3,
            "bytes_per_query": main.counters["response_bytes"]
            / max(1, len(main.query_s)),
            "disk_bytes_per_element": m.disk_bytes_per_element,
            "peak_rss_mb": m.peak_rss_mb,
        }
        units = END_TO_END_UNITS
    else:
        untraced = m.untraced.kept
        values = layers.layer_metrics(
            tracer.spans,
            m.client.op_kinds,
            SETUP_OP,
            m.main.every.counters,
            overhead_ratio=ops_per_s / (untraced.ops / untraced.elapsed_s),
        )
        tracer.dump(WORK_DIR / f"trace-{workload_name}.tsv")
        units = layers.LAYER_METRICS
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit in units.items()
    }

    provenance = {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": _numpy_version(),
        "git_commit": _git_commit(),
        "tmp_filesystem": _filesystem_of(WORK_DIR),
        "program_threads": m.threads,
        "setup_builds_wall_s_host": builds,
        "warmup_ops": m.warmup.attempted,
        "warmup_hit_ratio": m.warmup_hit_ratio,
        "hit_ratio": main.hit_ratio(),
        "timed_queries": len(main.query_s),
        "query_samples_beyond_p95": percentile(main.query_s, 0.95)[1],
        "query_p99_ms": percentile(main.query_s, 0.99)[0] * 1e3,
        "timed_writes": len(writes.write_s),
        "write_samples_beyond_p95": percentile(writes.write_s, 0.95)[1],
        "write_p99_ms": percentile(writes.write_s, 0.99)[0] * 1e3,
        "windows_kept": [m.main.kept_count, len(m.main.steal)],
        "window_steal_ticks_per_s": m.main.steal,
        "window_host_factor": m.main.host,
        "wall_ops_per_s": main.ops / main.wall_s,
        "timed_phase_steal_s": m.steal_s,
        "run_wall_s": time.perf_counter() - run_started,
        "mismatches": mismatches,
        "leaked_threads": leaks["threads"],
        "leaked_fds": leaks["fds"],
        "error_ratio": failed / attempted,
    }
    for error in m.client.errors:
        print(error, file=sys.stderr)
    print(json.dumps({"provenance": provenance}))
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1
