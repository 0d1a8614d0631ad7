"""Signed graph commitments: the administrator's trust anchor.

The signed payload binds endpoint id and a monotone epoch in addition to
(root, registry digest, timestamp); without them a commitment could be
replayed across endpoints or rolled back to an older graph state. It also
binds the number of log events the epoch covers, so the signed
commitments alone say where each epoch of the log ends.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .hashcore import sign_payload, verify_payload
from .wire import Reader, WireError, decode, str_lp, u16, u64

_TAG = b"VCAUSE1"


@dataclass(frozen=True, slots=True)
class Commitment:
    endpoint_id: str
    epoch: int
    event_count: int
    root: bytes
    registry_digest: bytes
    timestamp: int
    signature: bytes

    def canonical_bytes(self) -> bytes:
        """The signed byte layout; fixed-size except for the endpoint id."""
        return (
            _TAG
            + str_lp(self.endpoint_id)
            + u64(self.epoch)
            + u64(self.event_count)
            + self.root
            + self.registry_digest
            + u64(self.timestamp)
        )

    def verify(self, vk) -> bool:
        try:
            return verify_payload(vk, self.canonical_bytes(), self.signature)
        except Exception:
            return False

    def to_bytes(self) -> bytes:
        return self.canonical_bytes() + u16(len(self.signature)) + self.signature

    @classmethod
    def read_from(cls, r: Reader) -> "Commitment":
        if r.take(len(_TAG)) != _TAG:
            raise WireError("bad commitment tag")
        endpoint_id = r.str_lp()
        epoch = r.u64()
        event_count = r.u64()
        root = r.take(32)
        registry_digest = r.take(32)
        timestamp = r.u64()
        signature = r.take(r.u16())
        return cls(endpoint_id, epoch, event_count, root, registry_digest, timestamp, signature)

    @classmethod
    def from_bytes(cls, data: bytes) -> "Commitment":
        return decode(data, cls.read_from)


def make_commitment(
    sk, endpoint_id: str, epoch: int, event_count: int, root: bytes, registry_digest: bytes,
    timestamp: int,
) -> Commitment:
    unsigned = Commitment(endpoint_id, epoch, event_count, root, registry_digest, timestamp, b"")
    return replace(unsigned, signature=sign_payload(sk, unsigned.canonical_bytes()))
