"""Differential hostile-decode properties: the lineage memo changes cost, not results.

``decode_envelope(wire, memo)`` anchors a received log at the longest
prefix the memo already holds and hashes only the rest;
``decode_envelope(wire)`` rebuilds everything from the wire.  One
runtime's memo is driven through shuffled, duplicated and mutated wire
logs drawn from a forking lineage, and after every frame the two must
agree: same accept/reject, and on accept the same ``log_id`` and the same
blocks field for field, ``Transaction`` payloads and JSON types included.
The memo may only grow from a frame that passed signature verification.
"""

from __future__ import annotations

import copy
import json

from hypothesis import given, settings, strategies as st

from repro.chain.log import Log
from repro.chain.transactions import Transaction
from repro.core.tobsvd import TobSvdConfig
from repro.crypto.signatures import KeyRegistry
from repro.crypto.vrf import VRF
from repro.net.messages import Envelope, LogMessage, ProposalMessage, VoteMessage
from repro.net.transport import MemoryHub
from repro.node.codec import (
    CodecError,
    decode_envelope,
    decode_log,
    encode_envelope,
    encode_log,
)
from repro.node.runtime import NodeRuntime
from tests.conftest import JSON_VALUES

CONFIG = TobSvdConfig(n=4, num_views=2, delta=1, seed=0)
REGISTRY = KeyRegistry(CONFIG.n, seed=CONFIG.seed)

def fresh_node() -> NodeRuntime:
    return NodeRuntime(0, CONFIG, MemoryHub(range(CONFIG.n)).transport(0))


@st.composite
def lineages(draw) -> list[Log]:
    """A forking family of logs: mostly one growing chain, sometimes a branch."""

    logs = [Log.genesis()]
    next_tx = 0
    for _ in range(draw(st.integers(2, 9))):
        base = logs[-1] if draw(st.integers(0, 3)) else draw(st.sampled_from(logs))
        count = draw(st.integers(0, 2))
        txs = tuple(
            Transaction(
                tx_id=next_tx + i,
                payload=draw(st.text(max_size=3)),
                submitted_at=draw(st.integers(0, 9)),
            )
            for i in range(count)
        )
        next_tx += count
        logs.append(
            base.append_block(txs, proposer=draw(st.integers(0, 3)), view=len(base) - 1)
        )
    return logs


def signed_wire(draw, log: Log) -> dict:
    kind = draw(st.sampled_from(["log", "vote", "proposal"]))
    signer = draw(st.integers(0, CONFIG.n - 1))
    if kind == "log":
        payload = LogMessage(ga_key=("tobsvd", len(log)), log=log)
    elif kind == "vote":
        payload = VoteMessage(ga_key=("ga2", 0), log=log)
    else:
        payload = ProposalMessage(
            view=len(log), log=log, vrf=VRF(seed=0).evaluate(signer, len(log))
        )
    envelope = Envelope(
        payload=payload, signature=REGISTRY.key_for(signer).sign(payload.digest())
    )
    return encode_envelope(envelope)


# -- mutations: each takes the wire's entry list and returns what to send --------


def _pick(draw, entries, inner: bool = False):
    """An entry index; ``inner`` prefers one strictly below the tip."""

    last = len(entries) - 1
    return draw(st.integers(0, last - 1 if inner and last > 0 else last))


def tamper_field(draw, entries, lineage):
    entry = entries[_pick(draw, entries, inner=True)]
    field = draw(st.sampled_from(["proposer", "view", "parent"]))
    entry[field] = "ff" * 32 if field == "parent" else entry[field] + 1
    return entries


def other_payload(draw, entries, lineage):
    # Same tx_id, other payload / submission time / an ignored fourth
    # element: ids and the signature survive.
    carrying = [entry for entry in entries if entry["txs"]]
    if carrying:
        tx = draw(st.sampled_from(carrying))["txs"][0]
        slot = draw(st.sampled_from([1, 2, 3]))
        if slot == 3:
            tx.append("ignored")
        else:
            tx[slot] = tx[slot] + "!" if slot == 1 else tx[slot] + 1
    return entries


def swap_blocks(draw, entries, lineage):
    a, b = _pick(draw, entries), _pick(draw, entries)
    entries[a], entries[b] = entries[b], entries[a]
    return entries


def truncate(draw, entries, lineage):
    how = draw(st.sampled_from(["drop_key", "short_tx", "cut_tail", "cut_middle"]))
    index = _pick(draw, entries, inner=True)
    if how == "drop_key":
        del entries[index][draw(st.sampled_from(["parent", "proposer", "view", "txs"]))]
    elif how == "short_tx":
        entries[index]["txs"] = [[0, "x"]]
    elif how == "cut_tail":
        del entries[index + 1 :]  # a shorter, still valid, log
    else:
        del entries[index]
    return entries


def wrong_height(draw, entries, lineage):
    # Every parent id below the cut now names a known block one height off.
    how = draw(st.sampled_from(["drop_first", "repeat", "graft"]))
    if how == "drop_first":
        return entries[1:]
    if how == "repeat":
        index = _pick(draw, entries)
        return entries[: index + 1] + entries[index:]
    donor = encode_log(draw(st.sampled_from(lineage)))
    return entries[:1] + donor[2:] if len(donor) > 2 else entries


def garbage_suffix(draw, entries, lineage):
    extra = draw(st.lists(JSON_VALUES, min_size=1, max_size=2))
    if draw(st.booleans()):  # a well-linked entry first, so the garbage sits deeper
        tip = try_decode_log(entries)
        if tip is not None:
            entries.append(
                {"parent": tip.tip.block_id, "proposer": 1, "view": len(tip), "txs": []}
            )
    return entries + extra


def lax_types(draw, entries, lineage):
    # 1.0 == 1 == True in Python; on the wire they are different blocks.
    entry = entries[_pick(draw, entries)]
    field = draw(st.sampled_from(["proposer", "view", "tx_id", "submitted_at"]))
    cast = draw(st.sampled_from([float, bool]))
    if field in ("proposer", "view"):
        entry[field] = cast(entry[field])
    elif entry["txs"]:
        slot = 0 if field == "tx_id" else 2
        entry["txs"][0][slot] = cast(entry["txs"][0][slot])
    return entries


def odd_containers(draw, entries, lineage):
    entry = entries[_pick(draw, entries)]
    entry["txs"] = draw(
        st.sampled_from([{"abc": 1}, ["abc"], "abc", [[1, "a", 0, "extra"]], 7, None])
    )
    return entries


def replace_anything(draw, entries, lineage):
    entry = entries[_pick(draw, entries)]
    entry[draw(st.sampled_from(["parent", "proposer", "view", "txs"]))] = draw(JSON_VALUES)
    return entries


def untouched(draw, entries, lineage):
    return entries


LOG_MUTATIONS = [
    untouched,
    untouched,
    tamper_field,
    other_payload,
    swap_blocks,
    truncate,
    wrong_height,
    garbage_suffix,
    lax_types,
    odd_containers,
    replace_anything,
]


def try_decode_log(entries) -> Log | None:
    try:
        return decode_log(copy.deepcopy(entries))
    except CodecError:
        return None


def stateless(wire):
    """``(envelope or None, verified)`` from a decode that knows no lineage."""

    try:
        envelope = decode_envelope(wire)
    except CodecError:
        return None, False
    try:
        return envelope, REGISTRY.verify(envelope.signature, envelope.payload.digest())
    except (TypeError, ValueError):  # an ill-typed field met the canonical encoder
        return envelope, False


def resign(wire) -> None:
    """Make a mutated frame authentic again: a Byzantine signer may send anything."""

    envelope, _ = stateless(wire)
    if envelope is None:
        return
    try:
        signature = REGISTRY.key_for(envelope.sender).sign(envelope.payload.digest())
    except (TypeError, ValueError):
        return
    wire["sig"] = {
        "signer": signature.signer,
        "digest": signature.payload_digest,
        "tag": signature.tag,
    }


def draw_frame(draw, lineage) -> dict:
    log = draw(st.sampled_from(lineage[1:]))
    wire = signed_wire(draw, log)
    mutate = draw(st.sampled_from(LOG_MUTATIONS))
    wire["payload"]["log"] = mutate(draw, wire["payload"]["log"], lineage)
    if mutate is not untouched and draw(st.booleans()):
        resign(wire)
    if draw(st.integers(0, 9)) == 0:  # a valid frame with a bad signature
        wire["sig"][draw(st.sampled_from(["tag", "digest"]))] = "00" * 32
    return wire


def strict_form(log: Log):
    """Everything a decoded log is, with JSON's type distinctions kept."""

    return (
        log.log_id,
        [block.block_id for block in log.blocks],
        json.dumps(encode_log(log), sort_keys=True),
    )


def check_frame(node: NodeRuntime, wire: dict, tick: int) -> bool:
    """Feed one frame; assert parity with the stateless decode.  True if accepted."""

    reference, verified = stateless(copy.deepcopy(wire))
    try:
        decoded = decode_envelope(copy.deepcopy(wire), node.lineage)
    except CodecError:
        decoded = None
    assert (decoded is None) == (reference is None)
    if decoded is not None:
        assert type(decoded.payload) is type(reference.payload)
        assert decoded.envelope_id == reference.envelope_id
        assert strict_form(decoded.payload.log) == strict_form(reference.payload.log)

    held, rejects = len(node.lineage), node.codec_rejects
    node._ingest(wire, tick)
    assert (node.codec_rejects == rejects) == verified
    if not verified:
        assert len(node.lineage) == held
    return verified


class TestLineageDecodeParity:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_memo_and_stateless_decode_agree_on_every_frame(self, data):
        draw = data.draw
        lineage = draw(lineages())
        node = fresh_node()
        frames = [draw_frame(draw, lineage) for _ in range(draw(st.integers(4, 16)))]
        for tick, wire in enumerate(frames):
            check_frame(node, wire, tick)
            if draw(st.integers(0, 3)) == 0:  # the wire redelivers
                check_frame(node, draw(st.sampled_from(frames[: tick + 1])), tick)

        # The resync shape: everything retained, in (tick, id) order, into
        # an empty memo — a resumed node's first replay.
        records = sorted((tick, eid) for eid, (tick, _) in node.retention.items())
        resumed = fresh_node()
        for tick, envelope_id in records:
            assert check_frame(resumed, node.retention[envelope_id][1], tick)
        assert resumed.codec_rejects == 0
        assert len(resumed.holdback) == len(records)
        assert set(resumed.lineage._logs) == set(node.lineage._logs)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_clean_traffic_in_any_order_leaves_every_log_held(self, data):
        draw = data.draw
        lineage = draw(lineages())
        node = fresh_node()
        order = draw(st.permutations(lineage[1:] * 2))
        for tick, log in enumerate(order):
            assert check_frame(node, signed_wire(draw, log), tick)
        assert node.codec_rejects == 0
        for log in lineage:
            held = node.lineage._logs[log.tip.block_id]
            assert strict_form(held) == strict_form(log)
