"""``NodeRuntime._ingest`` units: a hostile frame is a counted reject, never a crash.

Frames reach ``_ingest`` from the network.  Whatever a well-framed JSON
value can hold — a list where a signer id belongs, a dict inside a GA
key — the runtime must refuse it, count it under a reason, and keep
draining; and only an envelope that passed signature verification may
reach the holdback queue, the retention table or the lineage memo.
"""

from __future__ import annotations

import copy

from hypothesis import given, settings, strategies as st

from repro.chain.log import Log
from repro.core.tobsvd import TobSvdConfig
from repro.crypto.signatures import KeyRegistry
from repro.crypto.vrf import VRF
from repro.net.messages import (
    Envelope,
    LogMessage,
    ProposalMessage,
    RecoveryMessage,
    StructuralVote,
    VoteMessage,
)
from repro.net.transport import MemoryHub
from repro.node.codec import encode_envelope
from repro.node.deploy import stable_builder
from repro.node.runtime import NodeRuntime
from tests.conftest import JSON_VALUES, chain_of

CONFIG = TobSvdConfig(n=4, num_views=2, delta=1, seed=0)
REGISTRY = KeyRegistry(CONFIG.n, seed=CONFIG.seed)


def runtime(hub: MemoryHub | None = None) -> NodeRuntime:
    hub = MemoryHub(range(CONFIG.n)) if hub is None else hub
    return NodeRuntime(stable_builder(CONFIG)(hosted={0}), hub.transport(0))


def sample_log() -> Log:
    return chain_of(2)


def wire_of(payload, signer: int = 1) -> dict:
    envelope = Envelope(
        payload=payload, signature=REGISTRY.key_for(signer).sign(payload.digest())
    )
    return encode_envelope(envelope)


WIRES = [
    wire_of(LogMessage(ga_key=("tobsvd", 1), log=sample_log())),
    wire_of(ProposalMessage(view=1, log=sample_log(), vrf=VRF(seed=0).evaluate(1, 1))),
    wire_of(VoteMessage(ga_key=("ga2", 0), log=sample_log())),
    wire_of(StructuralVote(protocol="mmr2", view=1, phase_index=0, log=sample_log())),
    wire_of(RecoveryMessage(requested_at=3)),
]


def untouched(node: NodeRuntime) -> bool:
    return len(node.holdback) == 0 and not node.retention and len(node.lineage) == 1


class TestIllTypedFrames:
    """The three frames that took a node down before the reasons existed."""

    def test_unhashable_signer_is_a_signature_reject(self):
        wire = copy.deepcopy(WIRES[0])
        wire["sig"]["signer"] = [1]
        node = runtime()
        node._ingest(wire, 1)
        assert node.reject_reasons == {"shape": 0, "codec": 0, "anchor": 0, "signature": 1}
        assert untouched(node)

    def test_dict_inside_ga_key_is_a_codec_reject(self):
        wire = copy.deepcopy(WIRES[0])
        wire["payload"]["ga_key"] = ["tobsvd", {"view": 1}]
        node = runtime()
        node._ingest(wire, 1)
        assert node.reject_reasons == {"shape": 0, "codec": 1, "anchor": 0, "signature": 0}
        assert untouched(node)

    def test_dict_requested_at_is_a_codec_reject(self):
        wire = copy.deepcopy(WIRES[4])
        wire["payload"]["requested_at"] = {"at": 3}
        node = runtime()
        node._ingest(wire, 1)
        assert node.reject_reasons == {"shape": 0, "codec": 1, "anchor": 0, "signature": 0}
        assert untouched(node)

    def test_drain_survives_them_and_still_takes_the_next_frame(self):
        bad = copy.deepcopy(WIRES[0])
        bad["sig"]["signer"] = [1]
        hub = MemoryHub(range(CONFIG.n))
        node = runtime(hub)
        sender = hub.transport(1)
        sender.send(0, {"t": "env", "at": 1, "env": bad})
        sender.send(0, {"t": "env", "at": 1, "env": WIRES[0]})
        node._drain()
        assert node.codec_rejects == 1
        assert len(node.holdback) == 1


class TestRejectReasons:
    def test_each_reason_is_counted_and_the_total_is_their_sum(self):
        node = runtime()
        node._ingest("not a dict", 1)
        node._ingest(WIRES[0], "not a tick")
        node._ingest({"payload": {"kind": "warp"}, "sig": {}}, 1)
        forged = copy.deepcopy(WIRES[0])
        forged["sig"]["tag"] = "00" * 32
        node._ingest(forged, 1)
        assert node.reject_reasons == {"shape": 2, "codec": 1, "anchor": 0, "signature": 1}
        result = node.result()
        assert result["codec_rejects"] == 4
        assert result["reject_reasons"] == {"shape": 2, "codec": 1, "anchor": 0, "signature": 1}
        assert untouched(node)

    def test_a_valid_frame_is_held_retained_and_remembered(self):
        node = runtime()
        node._ingest(WIRES[0], 1)
        assert node.codec_rejects == 0
        assert len(node.holdback) == 1 and len(node.retention) == 1
        assert len(node.lineage) == len(sample_log())

    def test_an_unheld_anchor_is_an_anchor_reject_then_the_held_one_decodes(self):
        payload = LogMessage(ga_key=("tobsvd", 1), log=sample_log())
        envelope = Envelope(
            payload=payload, signature=REGISTRY.key_for(1).sign(payload.digest())
        )
        delta = encode_envelope(envelope, 2)  # anchored at the first block above genesis
        node = runtime()
        node._ingest(delta, 1)
        assert node.reject_reasons == {"shape": 0, "codec": 0, "anchor": 1, "signature": 0}
        assert untouched(node)
        node.lineage.admit(sample_log().prefix(2))
        node._ingest(delta, 1)
        assert node.codec_rejects == 1 and len(node.holdback) == 1

    def test_resync_records_take_the_same_path(self):
        node = runtime()
        forged = copy.deepcopy(WIRES[2])
        forged["sig"]["signer"] = {"id": 1}
        node._handle_message(
            1, {"t": "resync", "records": [[1, WIRES[0]], [1, forged]], "last": True}
        )
        assert node.reject_reasons["signature"] == 1
        assert len(node.holdback) == 1


def paths(value, prefix=()):
    """Every position in a JSON value, the root included."""

    yield prefix
    if isinstance(value, dict):
        for key, child in value.items():
            yield from paths(child, prefix + (key,))
    elif isinstance(value, list):
        for index, child in enumerate(value):
            yield from paths(child, prefix + (index,))


def replaced(value, path, new):
    if not path:
        return new
    value = copy.copy(value)
    value[path[0]] = replaced(value[path[0]], path[1:], new)
    return value


@st.composite
def mutated_frames(draw):
    wire = draw(st.sampled_from(WIRES))
    path = draw(st.sampled_from(sorted(paths(wire), key=repr)))
    return replaced(wire, path, draw(JSON_VALUES))


class TestArbitraryValues:
    @settings(max_examples=400, deadline=None)
    @given(wire=mutated_frames(), tick=st.integers(0, 8) | JSON_VALUES)
    def test_no_json_value_in_any_field_raises_out_of_ingest(self, wire, tick):
        node = runtime()
        node._ingest(wire, tick)
        if node.codec_rejects:
            assert node.codec_rejects == 1
            assert untouched(node)
        else:
            assert len(node.holdback) == 1 and len(node.retention) == 1


class TestDeployEpilogue:
    """``repro deploy local`` names the refusing node and the reasons."""

    @staticmethod
    def run_cli(monkeypatch, capsys, reasons: dict) -> str:
        from repro import cli
        from repro.node import deploy

        nodes = deploy.run_memory_cluster(CONFIG)
        nodes[2]["reject_reasons"] = reasons
        nodes[2]["codec_rejects"] = sum(reasons.values())
        monkeypatch.setattr(
            deploy,
            "run_local_deployment",
            lambda config, **_: deploy.DeploymentResult(config=config, nodes=nodes, elapsed=1.0),
        )
        assert cli.main(["deploy", "local", "--n", "4", "--views", "2", "--delta", "1"]) == 0
        return capsys.readouterr().out

    def test_rejects_are_printed_by_reason(self, monkeypatch, capsys):
        out = self.run_cli(monkeypatch, capsys, {"shape": 0, "codec": 2, "signature": 1})
        assert "node 2: refused 3 wire records (2 codec, 1 signature)" in out

    def test_a_clean_deployment_prints_no_reject_line(self, monkeypatch, capsys):
        out = self.run_cli(monkeypatch, capsys, {"shape": 0, "codec": 0, "signature": 0})
        assert "refused" not in out
        assert "byte-identical" in out
