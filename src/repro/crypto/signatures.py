"""Simulated unforgeable signatures.

A :class:`KeyRegistry` owns one secret per validator.  Signatures are MACs
over (secret, payload digest); verification recomputes the MAC.  Because
the secret never leaves the registry/:class:`SigningKey`, honest code can
only produce signatures through its own key, which models the paper's
assumption that "as long as a validator remains honest, the adversary
cannot forge its signatures".

When the adversary corrupts a validator it receives the validator object —
and with it the signing key — so *Byzantine* validators can sign anything,
including retroactive equivocations (backward simulation is then limited
only by the (T_b, T_s, rho)-compliance condition, exactly as in the model).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.hashing import stable_digest


class SignatureError(Exception):
    """Raised when signature verification fails."""


@dataclass(frozen=True)
class Signature:
    """A signature over a payload digest.

    Attributes:
        signer: Validator id the signature claims to come from.
        payload_digest: Digest of the signed payload.
        tag: MAC binding (signer secret, payload digest).
    """

    signer: int
    payload_digest: str
    tag: str

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Sig(v{self.signer},{self.tag[:8]})"


class SigningKey:
    """Per-validator signing capability handed out by the registry."""

    def __init__(self, validator_id: int, secret: str) -> None:
        self._validator_id = validator_id
        self._secret = secret

    @property
    def validator_id(self) -> int:
        return self._validator_id

    def sign(self, payload_digest: str) -> Signature:
        """Sign a payload digest."""

        tag = stable_digest(("sig", self._secret, payload_digest))
        return Signature(self._validator_id, payload_digest, tag)


class KeyRegistry:
    """Issues keys and verifies signatures for a fixed validator set.

    Public keys being "common knowledge" (Section 3.1) is modelled by the
    registry itself being shared: any party can call :meth:`verify`.
    """

    def __init__(self, n: int, seed: int = 0) -> None:
        if n <= 0:
            raise ValueError("validator set must be non-empty")
        self._n = n
        self._secrets = {
            vid: stable_digest(("secret", seed, vid)) for vid in range(n)
        }
        # (signer, payload_digest) -> expected tag, a pure function of the
        # secret and the digest.  An honest run verifies each envelope
        # once (at broadcast), so it never hits; the reuse it serves is
        # short-range — a Byzantine ``send_direct`` fan-out verifying one
        # envelope per recipient, or a node runtime decoding forwarded
        # copies of one envelope within a tick.  So it keeps a recent
        # window only: two generations of _TAG_GENERATION entries, the
        # older one dropped whenever the newer one fills.
        self._tag_cache: dict[tuple[int, str], str] = {}
        self._tag_cache_old: dict[tuple[int, str], str] = {}

    _TAG_GENERATION = 512

    @property
    def n(self) -> int:
        return self._n

    def key_for(self, validator_id: int) -> SigningKey:
        """Issue the signing key for ``validator_id``."""

        if validator_id not in self._secrets:
            raise KeyError(f"unknown validator {validator_id}")
        return SigningKey(validator_id, self._secrets[validator_id])

    def verify(self, signature: Signature, payload_digest: str) -> bool:
        """Check that ``signature`` is a valid signature over ``payload_digest``."""

        secret = self._secrets.get(signature.signer)
        if secret is None:
            return False
        if signature.payload_digest != payload_digest:
            return False
        cache_key = (signature.signer, payload_digest)
        cache = self._tag_cache
        expected = cache.get(cache_key)
        if expected is None:
            expected = self._tag_cache_old.get(cache_key)
            if expected is None:
                expected = stable_digest(("sig", secret, payload_digest))
            if len(cache) >= self._TAG_GENERATION:
                self._tag_cache_old = cache
                self._tag_cache = cache = {}
            cache[cache_key] = expected
        return signature.tag == expected

    def require_valid(self, signature: Signature, payload_digest: str) -> None:
        """Verify or raise :class:`SignatureError`."""

        if not self.verify(signature, payload_digest):
            raise SignatureError(
                f"invalid signature from validator {signature.signer}"
            )
