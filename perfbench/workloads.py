"""Workload definitions: corpus, deployment and operation stream per seed.

Every workload runs the same deployment shape — a ``ClusterDeployment``
of 3 pods, n=3, k=2, ``replication_factor=2``, ``storage="segmented"``
under a fresh ``wal_dir`` — over a seeded ``generate_corpus`` corpus that
one owner per group shares and flushes. The workloads differ in
transport, cache configuration and operation mix:

* ``cold-uniform`` — in-process, every cache off; read-only 3-term
  queries drawn uniformly from a wide slice of the vocabulary. Every
  query pays fan-out, seat lookup, reconstruction, unpack and ranking.
* ``zipf-cached`` — in-process with the share cache, a searcher L1 and
  an ``lru`` L2 tier; read-only Zipf-skewed queries over the vocabulary
  head. The per-user working set of lists is larger than the L1 and the
  share cache but fits in the L2.
* ``mixed-socket`` — ``transport="async-socket"`` with the share cache
  and L1; Zipf reads interleaved with one write in ten (a held-back
  document shared and flushed, or a shared document deleted).

The program only ever receives the generated corpus and operations.
"""

from __future__ import annotations

import pathlib
import random
from dataclasses import dataclass, field

from repro.cluster import ClusterDeployment
from repro.corpus.document import Corpus, Document
from repro.corpus.synthetic import SyntheticCorpusConfig, generate_corpus
from repro.corpus.zipf import ZipfSampler

NUM_PODS = 3
K, N = 2, 3
REPLICATION = 2
NUM_LISTS = 128
#: Documents shared during set-up, and documents held back for writes.
SHARED_DOCUMENTS = 300
HELD_BACK_DOCUMENTS = 80
VOCABULARY = 2_000
NUM_GROUPS = 4
DOCUMENT_LENGTH = 60
TOP_K = 10
TERMS_PER_QUERY = 3
#: cold-uniform draws uniformly from the most frequent this-many terms.
UNIFORM_SLICE = 1_500
#: zipf-cached and mixed-socket draw Zipf ranks over this head.
ZIPF_HEAD = 200
ZIPF_EXPONENT = 1.0
#: Cache sizes: the L1 (per searcher) and the share cache are smaller
#: than the per-user working set of lists, the L2 holds all of it.
L1_ENTRIES = 32
SHARE_CACHE_ENTRIES = 128
L2_ENTRIES = 1_024
#: Share of mixed-socket operations that are writes. The paper gives no
#: update rate, so this is chosen by a measured property: it is the
#: largest of 0.02, 0.05, 0.1, 0.2 and 0.5 at which the caches still
#: serve at least a fifth of the posting lists the reads request. Every
#: write invalidates the lists of its document's terms, about a third of
#: all lists, so the served share falls fast: on seed 1, 1 200 operations
#: after 400 of warm-up, it was 0.63 read-only, 0.39 at 0.05, 0.23 at
#: 0.1, 0.10 at 0.2 and 0.01 at 0.5.
WRITE_FRACTION = 0.1
#: Each group member draws its queries from a seeded log of this many.
QUERIES_PER_USER = 500


@dataclass(frozen=True)
class Workload:
    transport: str
    cluster_kwargs: dict = field(default_factory=dict)
    use_cache: bool = True
    zipf_queries: bool = True
    write_fraction: float = 0.0

    @property
    def read_only(self) -> bool:
        return self.write_fraction == 0.0


WORKLOADS: dict[str, Workload] = {
    "cold-uniform": Workload(
        transport="in-process",
        cluster_kwargs={"cache_entries": 0, "l1_entries": 0},
        use_cache=False,
        zipf_queries=False,
    ),
    "zipf-cached": Workload(
        transport="in-process",
        cluster_kwargs={
            "cache_entries": SHARE_CACHE_ENTRIES,
            "l1_entries": L1_ENTRIES,
            "cache_tier": "lru",
            "cache_tier_entries": L2_ENTRIES,
        },
    ),
    "mixed-socket": Workload(
        transport="async-socket",
        cluster_kwargs={
            "cache_entries": SHARE_CACHE_ENTRIES,
            "l1_entries": L1_ENTRIES,
        },
        write_fraction=WRITE_FRACTION,
    ),
}


def owner_of(group_id: int) -> str:
    return f"owner{group_id}"


def member_of(group_id: int) -> str:
    return f"member{group_id}"


@dataclass
class Inputs:
    """Everything one seed generates: documents and their split."""

    corpus: Corpus
    shared: list[Document]
    held: list[Document]
    groups: list[int]
    terms_by_frequency: list[str]


def make_inputs(seed: int) -> Inputs:
    corpus = generate_corpus(
        SyntheticCorpusConfig(
            num_documents=SHARED_DOCUMENTS + HELD_BACK_DOCUMENTS,
            vocabulary_size=VOCABULARY,
            num_groups=NUM_GROUPS,
            mean_document_length=DOCUMENT_LENGTH,
            seed=seed,
        )
    )
    documents = list(corpus)
    frequencies = corpus.document_frequencies()
    return Inputs(
        corpus=corpus,
        shared=documents[:SHARED_DOCUMENTS],
        held=documents[SHARED_DOCUMENTS:],
        groups=corpus.group_ids(),
        terms_by_frequency=sorted(
            frequencies, key=lambda term: (-frequencies[term], term)
        ),
    )


def build_cluster(
    workload: Workload, inputs: Inputs, seed: int, wal_dir: pathlib.Path
) -> ClusterDeployment:
    """Set-up as timed by ``setup_s``: bootstrap (§6 merging), groups,
    socket start-up, and sharing plus flushing the initial corpus."""
    cluster = ClusterDeployment.bootstrap(
        inputs.corpus.term_probabilities(),
        num_lists=NUM_LISTS,
        num_pods=NUM_PODS,
        k=K,
        n=N,
        replication_factor=REPLICATION,
        storage="segmented",
        wal_dir=wal_dir,
        use_network=False,
        transport=workload.transport,
        seed=seed,
        **workload.cluster_kwargs,
    )
    try:
        for group_id in inputs.groups:
            cluster.create_group(group_id, coordinator=owner_of(group_id))
        for document in inputs.shared:
            cluster.share_document(owner_of(document.group_id), document)
        cluster.flush_all()
        for group_id in inputs.groups:
            cluster.add_member(
                group_id, member_of(group_id), actor=owner_of(group_id)
            )
    except BaseException:
        cluster.close()
        raise
    return cluster


@dataclass(frozen=True)
class Query:
    user: int  # index into the group list
    terms: tuple[str, ...]


@dataclass(frozen=True)
class Write:
    kind: str  # "share" or "delete"
    document: Document


class OperationStream:
    """The seeded, endless operation sequence of one workload.

    Each group's member owns a seeded query log of
    :data:`QUERIES_PER_USER` queries; the stream rotates through the
    members and draws each one's next query uniformly from its log, so
    the term distribution is the workload's (uniform over a wide slice,
    or Zipf over the head) and the oracle answers each distinct query
    once per index state. Writes alternate at random between sharing a
    held-back document and deleting a shared one; a deleted document
    returns to the held-back pool, so the pools never run dry and every
    write is valid.
    """

    def __init__(self, workload: Workload, inputs: Inputs, seed: int):
        self._workload = workload
        self._rng = random.Random(seed ^ 0x0F5EED)
        self._next_user = 0
        if workload.zipf_queries:
            vocab = inputs.terms_by_frequency[:ZIPF_HEAD]
            sampler = ZipfSampler(len(vocab), ZIPF_EXPONENT)
        else:
            vocab = inputs.terms_by_frequency[:UNIFORM_SLICE]
            sampler = None
        self._logs = [
            [
                self._draw_terms(vocab, sampler)
                for _ in range(QUERIES_PER_USER)
            ]
            for _ in inputs.groups
        ]
        self._shared = list(inputs.shared)
        self._held = list(inputs.held)

    def _draw_terms(self, vocab, sampler) -> tuple[str, ...]:
        if sampler is None:
            return tuple(self._rng.sample(vocab, TERMS_PER_QUERY))
        terms: list[str] = []
        while len(terms) < TERMS_PER_QUERY:
            term = vocab[sampler.sample(self._rng)]
            if term not in terms:
                terms.append(term)
        return tuple(terms)

    def next_op(self) -> Query | Write:
        if self._rng.random() < self._workload.write_fraction:
            return self.next_write()
        return self.next_query()

    def next_query(self) -> Query:
        user = self._next_user
        self._next_user = (user + 1) % len(self._logs)
        return Query(user=user, terms=self._rng.choice(self._logs[user]))

    def next_write(self) -> Write:
        share = self._held and (
            not self._shared or self._rng.random() < 0.5
        )
        source, sink = (
            (self._held, self._shared) if share else (self._shared, self._held)
        )
        index = self._rng.randrange(len(source))
        source[index], source[-1] = source[-1], source[index]
        document = source.pop()
        sink.append(document)
        return Write(kind="share" if share else "delete", document=document)
