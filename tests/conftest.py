"""Shared test fixtures and builders."""

from __future__ import annotations

import pytest
from hypothesis import settings, strategies as st

from repro.chain.log import Log
from repro.chain.transactions import Transaction


@pytest.fixture
def genesis() -> Log:
    return Log.genesis()


def make_tx(tx_id: int, payload: str = "", at: int = 0) -> Transaction:
    """A transaction literal for tests that bypass the pool."""

    return Transaction(tx_id=tx_id, payload=payload, submitted_at=at)


def chain_of(length: int, proposer: int = 0, tag: int = 0) -> Log:
    """A log with ``length`` non-genesis blocks; ``tag`` varies content."""

    log = Log.genesis()
    for i in range(length):
        log = log.append_block(
            [make_tx(1000 * tag + i, payload=f"c{tag}-{i}")], proposer=proposer, view=i
        )
    return log


def fork_of(log: Log, tag: int, proposer: int = 9) -> Log:
    """A one-block extension of ``log`` distinct from other tags."""

    return log.append_block(
        [make_tx(500_000 + tag, payload=f"fork-{tag}")], proposer=proposer, view=99
    )


#: Any value a well-framed JSON message can carry in one field — what a
#: hostile peer may put where the wire format expects an int or a string.
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)


#: ``--hypothesis-profile=ci`` runs five times the default examples; the
#: lineage-decode properties scale their counts from the loaded profile.
settings.register_profile("ci", max_examples=5 * settings.get_profile("default").max_examples)
