"""Differential hostile-decode properties for delta log frames.

A log crosses the wire as ``{"a": anchor, "h": height, "b": entries}``:
the id of its block at ``height`` and the blocks above it.  One
runtime's memo is driven through shuffled, duplicated and mutated frames
drawn from a forking lineage, each anchored the way a sender with a
right, stale, never-acknowledged, forged or wrong-height view of the
receiver's frontier would anchor it.  After every frame:

* an anchor the memo does not hold is an ``anchor`` reject, and nothing
  else is;
* a held anchor claimed at another height is a ``codec`` reject;
* otherwise the decode equals, field for field, the memo-less decode of
  the full log the frame names (the held anchor's blocks, then the
  wire's), and an untampered frame anchored at one of its own blocks
  decodes to the sender's ``envelope_id``, ``log_id``, block ids and tx
  ids, whichever payload variant of the anchor the memo holds;
* the memo grows only from a frame that passed signature verification.

Finally every retained envelope is served as a resync to a fresh node,
which must accept all of it, carry each block once and end up holding
the same tips.
"""

from __future__ import annotations

import copy
import json

from hypothesis import example, given, settings, strategies as st

from repro.chain.genesis import GENESIS_BLOCK
from repro.chain.log import Log
from repro.chain.transactions import Transaction
from repro.core.tobsvd import TobSvdConfig
from repro.crypto.signatures import KeyRegistry
from repro.crypto.vrf import VRF
from repro.net.messages import Envelope, LogMessage, ProposalMessage, VoteMessage
from repro.net.transport import MemoryHub
from repro.node.codec import (
    AnchorError,
    CodecError,
    decode_envelope,
    decode_log,
    encode_envelope,
    encode_log,
)
from repro.node.deploy import stable_builder
from repro.node.runtime import NodeRuntime
from tests.conftest import JSON_VALUES

CONFIG = TobSvdConfig(n=4, num_views=2, delta=1, seed=0)
REGISTRY = KeyRegistry(CONFIG.n, seed=CONFIG.seed)
GENESIS_ID = GENESIS_BLOCK.block_id
#: Examples per property, scaled from the profile (5x under ``--hypothesis-profile=ci``).
EXAMPLES = settings.default.max_examples


def fresh_node(hub: MemoryHub | None = None, node_id: int = 0) -> NodeRuntime:
    hub = MemoryHub(range(CONFIG.n)) if hub is None else hub
    return NodeRuntime(stable_builder(CONFIG)(hosted={node_id}), hub.transport(node_id))


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


def block_ids(log: Log) -> list[str]:
    return [block.block_id for block in log.blocks]


def signed_envelope(draw, log: Log) -> Envelope:
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
    return Envelope(
        payload=payload, signature=REGISTRY.key_for(signer).sign(payload.digest())
    )


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
    donor = encode_log(draw(st.sampled_from(lineage)))["b"]
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
        return decode_log({"a": GENESIS_ID, "h": 1, "b": copy.deepcopy(entries)})
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


def draw_frame(draw, lineage) -> tuple[dict, list[str], Envelope | None]:
    """A full-form wire, the block ids of the log it was drawn from, and the
    sender's envelope if the wire is that envelope untampered."""

    log = draw(st.sampled_from(lineage[1:]))
    envelope = signed_envelope(draw, log)
    wire = encode_envelope(envelope)
    mutate = draw(st.sampled_from(LOG_MUTATIONS))
    wire["payload"]["log"]["b"] = mutate(draw, wire["payload"]["log"]["b"], lineage)
    if mutate is not untouched and draw(st.booleans()):
        resign(wire)
    if draw(st.integers(0, 9)) == 0:  # a valid frame with a bad signature
        wire["sig"][draw(st.sampled_from(["tag", "digest"]))] = "00" * 32
    return wire, block_ids(log), envelope if mutate is untouched else None


#: How a sender anchors a frame, by what it believes the receiver holds:
#: its deepest acknowledged prefix ("acked"), an older one ("stale"), a
#: block the receiver never acknowledged ("unacked"), an id no block has
#: ("forged"), an acknowledged block at the wrong height, or any tip the
#: receiver holds, related to the log or not ("foreign").
ANCHORS = ["full", "acked", "acked", "stale", "unacked", "forged", "wrong_height", "foreign"]


@st.composite
def traffic(draw):
    """The steps fed to one node: ``(tick, wire, ids, anchor, pick, sender)``."""

    lineage = draw(lineages())
    steps = []
    for tick in range(draw(st.integers(4, 16))):
        steps.append((tick, *draw_frame(draw, lineage)))
        if draw(st.integers(0, 3)) == 0:  # the wire redelivers
            steps.append((tick, *draw(st.sampled_from(steps))[1:]))
    return [
        (tick, wire, ids, draw(st.sampled_from(ANCHORS)), draw(st.integers(0, 99)), sender)
        for tick, wire, ids, sender in steps
    ]


def lax_then_plain():
    """A copy with a float ``submitted_at`` (same ids, same digest), then the plain copy.

    Pinned because a memo that refuses to hold the lax copy's log, while
    retention keeps that first copy, ends up with tips no resync rebuilds.
    """

    log = Log.genesis().append_block(
        (Transaction(tx_id=0, payload="", submitted_at=0),), proposer=0, view=0
    )
    payload = LogMessage(ga_key=("tobsvd", 2), log=log)
    envelope = Envelope(payload=payload, signature=REGISTRY.key_for(0).sign(payload.digest()))
    plain = encode_envelope(envelope)
    lax = copy.deepcopy(plain)
    lax["payload"]["log"]["b"][0]["txs"][0][2] = 0.0
    return [
        (0, lax, block_ids(log), "full", 0, envelope),
        (1, plain, block_ids(log), "full", 0, envelope),
        (2, plain, block_ids(log), "acked", 0, envelope),
    ]


def anchored(wire: dict, node: NodeRuntime, how: str, pick: int, ids: list[str]) -> dict:
    """``wire`` re-anchored by a sender that believes ``how`` about ``node``'s memo."""

    held = node.lineage._logs
    acked = [k for k in range(1, len(ids) + 1) if ids[k - 1] in held]
    unacked = [k for k in range(1, len(ids) + 1) if ids[k - 1] not in held]
    height = max(acked)
    if how == "full":
        height = 1
    elif how == "stale":
        height = acked[pick % len(acked)]
    elif how == "unacked" and unacked:
        height = unacked[pick % len(unacked)]
    anchor, claimed = ids[height - 1], height
    if how == "forged":
        anchor = f"{pick:064x}"
    elif how == "wrong_height":
        claimed += 1 if pick % 2 or height == 1 else -1
    elif how == "foreign":
        anchor = sorted(held)[pick % len(held)]
        claimed = len(held[anchor])
    delta = copy.deepcopy(wire)
    entries = delta["payload"]["log"]["b"]
    delta["payload"]["log"] = {"a": anchor, "h": claimed, "b": entries[height - 1 :]}
    return delta


def named_full_form(delta: dict, node: NodeRuntime):
    """The full-form wire a delta frame names to ``node``, or the reject it must be."""

    log = delta["payload"]["log"]
    anchor = node.lineage._logs.get(log["a"])
    if anchor is None:
        return "anchor"
    if log["h"] != len(anchor):
        return "codec"
    full = copy.deepcopy(delta)
    full["payload"]["log"] = encode_log(anchor)
    full["payload"]["log"]["b"] += copy.deepcopy(log["b"])
    return full


def strict_form(log: Log):
    """Everything a decoded log is, with JSON's type distinctions kept."""

    return (
        log.log_id,
        block_ids(log),
        json.dumps(encode_log(log), sort_keys=True),
    )


def id_form(envelope: Envelope):
    log = envelope.payload.log
    return (
        envelope.envelope_id,
        log.log_id,
        block_ids(log),
        [tx.tx_id for tx in log.transactions()],
    )


def check_frame(node: NodeRuntime, delta: dict, tick: int, sender: Envelope | None = None) -> bool:
    """Feed one frame; assert it means what it names (module docstring).  True if accepted."""

    named = named_full_form(delta, node)
    try:
        decoded = decode_envelope(copy.deepcopy(delta), node.lineage)
    except AnchorError:
        decoded = "anchor"
    except CodecError:
        decoded = "codec"
    verified = False
    if isinstance(named, str):
        assert decoded == named
    else:
        reference, verified = stateless(named)
        assert (decoded == "codec") == (reference is None)
        if reference is not None:
            assert type(decoded.payload) is type(reference.payload)
            assert decoded.envelope_id == reference.envelope_id
            assert strict_form(decoded.payload.log) == strict_form(reference.payload.log)
            if sender is not None:
                assert id_form(decoded) == id_form(sender)

    before, held = dict(node.reject_reasons), len(node.lineage)
    node._ingest(delta, tick)
    grew = {reason: node.reject_reasons[reason] - count for reason, count in before.items()}
    if isinstance(named, str):
        assert grew == {**dict.fromkeys(before, 0), named: 1}
    else:
        assert grew["anchor"] == 0
        assert (sum(grew.values()) == 0) == verified
    if not verified:
        assert len(node.lineage) == held
    return verified


class TestLineageDecodeParity:
    @settings(max_examples=3 * EXAMPLES // 2, deadline=None)
    @given(traffic=traffic())
    @example(traffic=lax_then_plain())
    def test_memo_and_stateless_decode_agree_on_every_frame(self, traffic):
        hub = MemoryHub(range(CONFIG.n))
        node = fresh_node(hub)
        for tick, wire, ids, how, pick, sender in traffic:
            # Anchored at one of its own blocks, an untampered frame is the sender's log.
            sender = sender if how in ("full", "acked", "stale") else None
            check_frame(node, anchored(wire, node, how, pick, ids), tick, sender)

        # A respawned peer asks for everything retained: a fresh memo, one
        # resync stream, each block carried once.
        resumed = fresh_node(hub, 1)
        node._serve_resync(1)
        carried = 0
        for _, frame in hub.inbox(1):
            for tick, wire in frame["records"]:
                log = wire["payload"].get("log")
                carried += len(log["b"]) if log else 0
                assert check_frame(resumed, wire, tick)
        assert resumed.codec_rejects == 0
        assert len(resumed.holdback) == len(node.retention)
        assert set(resumed.lineage._logs) == set(node.lineage._logs)
        assert carried == len(node.lineage) - 1

    @settings(max_examples=3 * EXAMPLES // 5, deadline=None)
    @given(data=st.data())
    def test_clean_traffic_in_any_order_leaves_every_log_held(self, data):
        draw = data.draw
        lineage = draw(lineages())
        node = fresh_node()
        order = draw(st.permutations(lineage[1:] * 2))
        for tick, log in enumerate(order):
            envelope = signed_envelope(draw, log)
            delta = anchored(encode_envelope(envelope), node, "acked", 0, block_ids(log))
            assert check_frame(node, delta, tick, envelope)
        assert node.codec_rejects == 0
        for log in lineage:
            held = node.lineage._logs[log.tip.block_id]
            assert strict_form(held) == strict_form(log)
