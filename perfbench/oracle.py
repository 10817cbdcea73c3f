"""The byte-identity oracle: the paper's single fleet over the same writes.

The repository's contract is that a cluster answers every query exactly
as a single-fleet ``ZerberDeployment`` with the same k and n over the
same documents would. The oracle rebuilds that fleet after the timed
phase, replays the run's log — the initial corpus, then every write and
query in the order the cluster saw them — and compares each recorded
answer digest with its own.
"""

from __future__ import annotations

import hashlib

from repro.core.zerber_index import ZerberDeployment

from perfbench.workloads import (
    K,
    N,
    TOP_K,
    Inputs,
    Query,
    Write,
    member_of,
    owner_of,
)


def digest(results) -> bytes:
    """A collision-resistant fingerprint of a full answer."""
    return hashlib.blake2b(repr(results).encode(), digest_size=16).digest()


def search(searcher, query: Query):
    return searcher.search(list(query.terms), top_k=TOP_K, fetch_snippets=False)


def apply_write(deployment, write: Write) -> None:
    """One owner write, flushed — identical for the cluster and the fleet."""
    owner_id = owner_of(write.document.group_id)
    if write.kind == "share":
        deployment.share_document(owner_id, write.document)
    else:
        deployment.owner(owner_id).delete_document(write.document.doc_id)
    deployment.owner(owner_id).flush_updates()


def count_mismatches(
    inputs: Inputs, mapping_table, seed: int, log: list[tuple]
) -> int:
    """Replay ``log`` on a fresh single fleet; returns wrong answers.

    ``log`` holds ``(Write,)`` and ``(Query, digest)`` entries in
    execution order; a failed operation is logged with digest None and
    is not compared (it already counts as failed).
    """
    fleet = ZerberDeployment(mapping_table, k=K, n=N, use_network=False, seed=seed)
    try:
        for group_id in inputs.groups:
            fleet.create_group(group_id, coordinator=owner_of(group_id))
        for document in inputs.shared:
            fleet.share_document(owner_of(document.group_id), document)
        fleet.flush_all()
        for group_id in inputs.groups:
            fleet.add_member(
                group_id, member_of(group_id), actor=owner_of(group_id)
            )
        searchers = [fleet.searcher(member_of(g)) for g in inputs.groups]
        answers: dict[Query, bytes] = {}
        mismatches = 0
        for entry in log:
            op = entry[0]
            if isinstance(op, Write):
                apply_write(fleet, op)
                answers.clear()
                continue
            if entry[1] is None:
                continue
            expected = answers.get(op)
            if expected is None:
                expected = answers[op] = digest(search(searchers[op.user], op))
            if expected != entry[1]:
                mismatches += 1
        return mismatches
    finally:
        fleet.close()
