"""Run-scoped interning and log lineage — the large-n hot-path layer.

Every identifier in the repository is a 64-char hex digest.  That is the
right wire/trace format, but the wrong *comparison* format for the data
structures a single run hammers millions of times: per-validator
envelope-dedup sets, ``LogView`` duplicate checks and forward caps all
only need *equality within one run*.  A :class:`RunContext` therefore
maps digests to dense small-integer tokens, so hot membership tests and
equality checks compare machine ints instead of hashing and comparing
long strings.

Two deliberate scoping rules, both echoing the PR 1 intern-table lesson
(see PERFORMANCE.md, "Why run-scoped interning is safe"):

* **Tokens are run-scoped, never global.**  Block and payload digests
  hash transaction *ids*, so two different runs can produce equal-digest
  objects wrapping distinct :class:`Transaction` instances.  A global
  table would conflate them (and grow without bound across a sweep);
  a per-run table dies with the run.
* **Pinned tokens carry their context.**  Tokens are memoised on the
  interned object (``_token_ctx``/``_token``) for O(1) re-reads, but the
  pin is only trusted when ``_token_ctx`` *is* this context — an object
  that leaks across runs (a fixture log reused by two scenarios, say) is
  transparently re-interned instead of smuggling a stale token.

The :class:`LineageStore` is the run's log-lineage index, keyed by *tip
block id*.  Logs form append-only lineages, so the tip id determines the
entire chain; :meth:`LineageStore.note` maps a received log to the first
instance the run saw for that tip in O(1), so equal logs share one object
and its memoised caches.  (Raw block sequences off the wire are resolved
by the codec's ``LineageMemo``, the one suffix-validating resolver.)
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.chain.log import Log

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.messages import Envelope


class LineageStore:
    """Index of every log observed in one run, keyed by tip block id.

    Because each block embeds its parent's id (and block ids are content
    digests), a tip block id identifies the whole chain below it; one
    dict lookup resolves any previously-seen log.  The store keeps the
    *first* instance observed per tip, so later lookups share that
    instance — and with it all its memoised prefix/tx caches.
    """

    __slots__ = ("_by_tip",)

    def __init__(self) -> None:
        self._by_tip: dict[str, Log] = {}

    def __len__(self) -> int:
        return len(self._by_tip)

    def note(self, log: Log) -> Log:
        """Record ``log`` (and return the canonical instance for its tip)."""

        return self._by_tip.setdefault(log.tip.block_id, log)


class RunContext:
    """Per-run intern tables plus the run's :class:`LineageStore`.

    Owned by the :class:`~repro.net.network.Network` (one per protocol
    run, constructed alongside it) and handed to every validator at
    registration; see docs/ARCHITECTURE.md for the ownership/lifecycle
    contract.  All methods are O(1) amortised.
    """

    __slots__ = ("_envelope_tokens", "_log_tokens", "lineage")

    def __init__(self) -> None:
        self._envelope_tokens: dict[str, int] = {}
        self._log_tokens: dict[str, int] = {}
        self.lineage = LineageStore()

    # -- envelopes ---------------------------------------------------------

    def envelope_token(self, envelope: "Envelope") -> int:
        """Dense int token for an envelope's content identity.

        Two envelopes with equal ``envelope_id`` (same payload digest and
        signer — e.g. an original and a Byzantine re-signed duplicate)
        intern to the same token; the shared-fanout envelope object of a
        broadcast pays the digest lookup once and reads the pin after.
        """

        d = envelope.__dict__  # frozen dataclass: write via its dict
        if d.get("_token_ctx") is self:
            return d["_token"]
        tokens = self._envelope_tokens
        token = tokens.setdefault(envelope.envelope_id, len(tokens))
        d["_token_ctx"] = self
        d["_token"] = token
        return token

    # -- logs --------------------------------------------------------------

    def log_token(self, log: Log) -> int:
        """Dense int token for a log's content identity (``log_id``)."""

        if log._token_ctx is self:
            return log._token
        tokens = self._log_tokens
        token = tokens.setdefault(log.log_id, len(tokens))
        log._token_ctx = self
        log._token = token
        return token

    def note_log(self, log: Log) -> Log:
        """Record a validated log in the lineage store (shared instance)."""

        return self.lineage.note(log)
