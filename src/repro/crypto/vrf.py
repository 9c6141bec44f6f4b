"""Simulated Verifiable Random Function for leader election.

Section 3.3: "Each validator has an associated VRF value for each view.
Whenever a proposal has to be made [...] validators broadcast one together
with their VRF value for the current view, and priority is given to
proposals with a higher VRF value."

The simulation computes, per (seed, view, validator), a deterministic
pseudo-random value in [0, 1) with an accompanying proof object.  Two
properties of real VRFs matter to the protocols and are preserved:

* **Determinism + verifiability** — anyone can check a claimed value.
* **Unpredictability to the adversary** — modelled at the scheduler level:
  the mildly-adaptive adversary must schedule corruptions Delta before they
  take effect (Section 3.1), so it cannot corrupt the view leader after
  observing VRF values in time for the proposal, exactly as argued in
  Section 3.3 and Lemma 2.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.hashing import digest_to_unit_float, stable_digest


@dataclass(frozen=True)
class VrfOutput:
    """A VRF evaluation: the value and a verifiable proof."""

    validator_id: int
    view: int
    value: float
    proof: str

    def sort_key(self) -> tuple[float, int]:
        """Total order on outputs: higher value wins, ties by lower id.

        Ties are measure-zero for real VRFs; the deterministic tie-break
        keeps the simulation reproducible.
        """

        return (self.value, -self.validator_id)


class VRF:
    """A per-system VRF keyed by a global seed.

    Evaluations are memoised per view and validator: the function is
    deterministic in the seed, and every proposal a validator accepts
    triggers a verification, so the n² verifications per view collapse
    to dict lookups.  The memo is instance-scoped (the VRF lives in one
    run's ``ProtocolContext``) and keeps only live views: the protocol
    moves :meth:`retire_below` with its view-retirement floor, and an
    evaluation below the floor recomputes the same pure value without
    memoising it.
    """

    def __init__(self, seed: int = 0) -> None:
        self._seed = seed
        self._memo: dict[int, dict[int, VrfOutput]] = {}
        self._floor = 0

    def evaluate(self, validator_id: int, view: int) -> VrfOutput:
        """Evaluate the VRF of ``validator_id`` for ``view``."""

        outputs = self._memo.get(view)
        if outputs is not None:
            cached = outputs.get(validator_id)
            if cached is not None:
                return cached
        proof = stable_digest(("vrf", self._seed, validator_id, view))
        output = VrfOutput(validator_id, view, digest_to_unit_float(proof), proof)
        if view >= self._floor:
            if outputs is None:
                self._memo[view] = outputs = {}
            outputs[validator_id] = output
        return output

    def retire_below(self, floor: int) -> None:
        """Forget every view below ``floor`` (a cursor: it never moves back)."""

        if floor > self._floor:
            self._floor = floor
            memo = self._memo
            for view in [view for view in memo if view < floor]:
                del memo[view]

    def verify(self, output: VrfOutput) -> bool:
        """Verify a claimed VRF output."""

        expected = self.evaluate(output.validator_id, output.view)
        return expected.proof == output.proof and expected.value == output.value

    def leader_ranking(self, validator_ids: list[int], view: int) -> list[VrfOutput]:
        """All outputs for ``view`` sorted best-first (analysis helper)."""

        outputs = [self.evaluate(vid, view) for vid in validator_ids]
        return sorted(outputs, key=VrfOutput.sort_key, reverse=True)

    def best(self, validator_ids: list[int], view: int) -> VrfOutput:
        """The winning output among ``validator_ids`` for ``view``."""

        if not validator_ids:
            raise ValueError("empty candidate set")
        return max(
            (self.evaluate(vid, view) for vid in validator_ids),
            key=VrfOutput.sort_key,
        )
