"""Time-shifted quorum arithmetic.

Everything a GA output phase computes reduces to:

1. intersect two snapshots of ``V`` (pairs agree on both sender and log —
   this is what removes senders later exposed as equivocators, the paper's
   ``V^Δ ∩ V^3Δ`` trick from Section 5.1), and
2. find every log ``Λ`` whose support ``|V_Λ|`` exceeds half the perceived
   participation ``|S|/2``.

Because each sender contributes at most one log to a pair set, the
supporters of two conflicting logs are disjoint; the set of logs clearing
the majority threshold is therefore always a chain (pairwise-compatible,
totally ordered by the prefix relation).  :func:`majority_chain` returns
that chain shortest-first.
"""

from __future__ import annotations

from typing import Iterable

from repro.chain.log import Log, common_prefix
from repro.core.state import Pair


def pair_intersection(a: Iterable[Pair], b: Iterable[Pair]) -> frozenset:
    """``V^x ∩ V^y`` as pair sets: sender *and* log must match."""

    return frozenset(a) & frozenset(b)


def support_count(pairs: Iterable[Pair], log: Log) -> int:
    """``|V_Λ|``: number of distinct senders whose pair extends ``log``."""

    return len({sender for sender, candidate in pairs if candidate.is_extension_of(log)})


def meets_quorum(support: int, sender_count: int) -> bool:
    """The strict-majority test ``support > |S| / 2``."""

    return 2 * support > sender_count


def majority_chain(pairs: Iterable[Pair], sender_count: int) -> list[Log]:
    """All logs with strict-majority support, shortest first.

    Args:
        pairs: A (possibly intersected) snapshot of ``V``.
        sender_count: The ``|S|`` measured at the output phase — note that
            ``S`` is read *live* while ``pairs`` may come from an earlier
            snapshot; that asymmetry *is* the time-shifted quorum.

    Returns:
        The (possibly empty) chain of logs ``Λ`` with
        ``|V_Λ| > sender_count / 2``.  Compatible by construction.

    A prefix is determined by its boundary block (parent links), so support
    is counted per boundary block id — no prefix ``Log`` objects are built
    while counting.  Only the logs that actually clear the threshold are
    materialised, as shared interned prefixes of a supporting log.
    """

    pair_list = list(pairs)
    if not pair_list or sender_count <= 0:
        return []
    # Distinct logs first: quorum snapshots are dominated by many senders
    # reporting the same log, which collapses to one chain walk each.
    by_log: dict[Log, set[int]] = {}
    for sender, log in pair_list:
        senders = by_log.get(log)
        if senders is None:
            by_log[log] = {sender}
        else:
            senders.add(sender)
    # boundary block id -> (height, a log containing it, supporting senders)
    support: dict[str, tuple[int, Log, set[int]]] = {}
    for log, senders in by_log.items():
        for height, block in enumerate(log.blocks, start=1):
            entry = support.get(block.block_id)
            if entry is None:
                support[block.block_id] = (height, log, set(senders))
            else:
                entry[2].update(senders)
    chain = [
        (height, rep)
        for height, rep, senders in support.values()
        if meets_quorum(len(senders), sender_count)
    ]
    chain.sort(key=lambda item: item[0])
    return [rep.prefix(height) for height, rep in chain]


def majority_tip(pairs: Iterable[Pair], sender_count: int) -> Log | None:
    """The longest log with strict-majority support, or None — suffix-only.

    Semantically ``majority_chain(pairs, sender_count)[-1]`` (or ``None``
    when the chain is empty), but the cost is O(divergence depth), not
    O(chain length): every block at or below the *common prefix of all
    reported logs* is contained in every reported log, so its support is
    the union of all reporting senders — one membership-count check
    covers the whole shared trunk, and only the short suffixes above the
    trunk are walked block-by-block.  This is what keeps per-view GA
    output cost flat as chains grow (the delta-LOG path, PERFORMANCE.md);
    the equivalence is pinned by randomized property tests against
    :func:`majority_chain`.
    """

    pair_list = list(pairs)
    if not pair_list or sender_count <= 0:
        return None
    by_log: dict[Log, set[int]] = {}
    for sender, log in pair_list:
        senders = by_log.get(log)
        if senders is None:
            by_log[log] = {sender}
        else:
            senders.add(sender)
    if len(by_log) == 1:
        # Uniform support — the dominant stable-run case: the single
        # reported log is the tip iff its senders clear the quorum.
        log, senders = next(iter(by_log.items()))
        return log if meets_quorum(len(senders), sender_count) else None
    distinct = list(by_log)
    floor = distinct[0]
    for log in distinct[1:]:
        floor = common_prefix(floor, log)  # O(log L) binary search each
    all_senders: set[int] = set()
    for senders in by_log.values():
        all_senders.update(senders)
    if not meets_quorum(len(all_senders), sender_count):
        # Trunk blocks carry the maximal support; if they fail the
        # quorum, no suffix block (a subset of supporters) can pass.
        return None
    floor_len = len(floor)
    # Count support only above the trunk, in the same (log, height)
    # iteration order as majority_chain so duplicate-sender tie-breaking
    # agrees with its stable sort + ``[-1]`` convention.
    support: dict[str, tuple[int, Log, set[int]]] = {}
    for log, senders in by_log.items():
        blocks = log.blocks
        for height in range(floor_len + 1, len(blocks) + 1):
            block_id = blocks[height - 1].block_id
            entry = support.get(block_id)
            if entry is None:
                support[block_id] = (height, log, set(senders))
            else:
                entry[2].update(senders)
    best_height, best_rep = floor_len, floor
    for height, rep, senders in support.values():
        if height >= best_height and meets_quorum(len(senders), sender_count):
            best_height, best_rep = height, rep
    return best_rep.prefix(best_height)


def highest_majority(pairs: Iterable[Pair], sender_count: int) -> Log | None:
    """The longest log with strict-majority support, or None."""

    chain = majority_chain(pairs, sender_count)
    return chain[-1] if chain else None
