"""Differential tests: a retired view answers late messages as the live one would.

A validator retires a finished view's ``LogView`` and ``ProposalBook`` to
two-mask tombstones (:meth:`LogView.retire`, :meth:`ProposalBook.retire`).
The tombstone keeps no messages, so it is exact only behind the envelope
dedup set every validator runs first: an envelope whose id (payload digest,
signer) was seen before never reaches ``handle``.  Both arms here sit
behind the same dedup filter, and one of them is retired after a random
prefix of the stream; their outcome sequences must be equal.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.chain.log import Log
from repro.core.proposals import ProposalBook
from repro.core.state import LogView
from repro.crypto.signatures import KeyRegistry
from repro.crypto.vrf import VRF, VrfOutput
from repro.net.messages import Envelope, LogMessage, ProposalMessage
from repro.runctx import RunContext
from tests.conftest import make_tx

SENDERS = 4  # few senders, so third and fourth logs from one sender are common
REGISTRY = KeyRegistry(SENDERS, seed=21)
VRF_ORACLE = VRF(seed=21)
VIEW = 1

_BASE = Log.genesis()
_LOGS = [_BASE] + [
    _BASE.append_block([make_tx(40_000 + i)], proposer=i % SENDERS, view=VIEW)
    for i in range(6)
]


def _signed(sender: int, payload) -> Envelope:
    # A fresh envelope object per message: a repeated (sender, payload) is
    # a Byzantine re-signed duplicate with an equal envelope id.
    return Envelope(payload=payload, signature=REGISTRY.key_for(sender).sign(payload.digest()))


def _deduplicated(envelopes):
    seen = set()
    for envelope in envelopes:
        if envelope.envelope_id not in seen:
            seen.add(envelope.envelope_id)
            yield envelope


def _split_run(make_live, stream, data):
    """Outcomes of one live object, and of one retired after a drawn prefix."""

    cut = data.draw(st.integers(0, len(stream)), label="retired after")
    live, prefix = make_live(), make_live()
    expected = [live.handle(envelope) for envelope in stream]
    got = [prefix.handle(envelope) for envelope in stream[:cut]]
    tombstone = prefix.retire()
    got += [tombstone.handle(envelope) for envelope in stream[cut:]]
    return expected, got, live.retire(), tombstone


log_streams = st.lists(
    st.tuples(st.integers(0, SENDERS - 1), st.integers(0, len(_LOGS) - 1)),
    max_size=40,
)


@given(log_streams, st.data())
def test_retired_log_view_answers_like_the_live_one(sequence, data):
    ctx = RunContext()
    stream = list(
        _deduplicated(
            _signed(sender, LogMessage(ga_key=("tobsvd", VIEW), log=_LOGS[index]))
            for sender, index in sequence
        )
    )
    expected, got, live, tombstone = _split_run(lambda: LogView(ctx), stream, data)
    assert got == expected
    assert (tombstone.accepted, tombstone.equivocators) == (live.accepted, live.equivocators)


# How a proposal's VRF output is made: the sender's own, someone else's
# (stolen), the sender's own for another view, or a forged value.
VRF_KINDS = ("own", "stolen", "wrong-view", "forged")


def _vrf(kind: str, sender: int) -> VrfOutput:
    if kind == "stolen":
        return VRF_ORACLE.evaluate((sender + 1) % SENDERS, VIEW)
    if kind == "wrong-view":
        return VRF_ORACLE.evaluate(sender, VIEW + 1)
    own = VRF_ORACLE.evaluate(sender, VIEW)
    if kind == "forged":
        return VrfOutput(validator_id=sender, view=VIEW, value=0.9999999, proof=own.proof)
    return own


proposal_streams = st.lists(
    st.tuples(
        st.integers(0, SENDERS - 1),
        st.sampled_from((VIEW,) * 7 + (VIEW + 1,)),  # mostly the book's view
        st.integers(1, len(_LOGS) - 1),
        st.sampled_from(("own",) * 9 + VRF_KINDS[1:]),  # mostly well-formed
    ),
    max_size=40,
)


@given(proposal_streams, st.data())
def test_retired_proposal_book_answers_like_the_live_one(sequence, data):
    stream = list(
        _deduplicated(
            _signed(sender, ProposalMessage(view=view, log=_LOGS[index], vrf=_vrf(kind, sender)))
            for sender, view, index, kind in sequence
        )
    )
    expected, got, live, tombstone = _split_run(
        lambda: ProposalBook(VIEW, VRF_ORACLE), stream, data
    )
    assert got == expected
    assert (tombstone.accepted, tombstone.equivocators) == (live.accepted, live.equivocators)
