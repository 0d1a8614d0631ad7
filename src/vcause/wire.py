"""Canonical byte encoding shared by every wire format.

All integers are big-endian and fixed width; variable-length fields are
length-prefixed. Encodings here are injective by construction, which the
hash preimages built on top of them rely on.
"""

from __future__ import annotations

import struct

_REF = struct.Struct(">QQI")


class WireError(ValueError):
    """Malformed or truncated wire data."""


def u8(v: int) -> bytes:
    return v.to_bytes(1, "big")


def u16(v: int) -> bytes:
    return v.to_bytes(2, "big")


def u32(v: int) -> bytes:
    return v.to_bytes(4, "big")


def u64(v: int) -> bytes:
    return v.to_bytes(8, "big")


def u128(v: int) -> bytes:
    return v.to_bytes(16, "big")


def flag(v: bool) -> bytes:
    return b"\x01" if v else b"\x00"


def node_ref(r: tuple[int, int]) -> bytes:
    """NodeRef (entity id, encoded key): u64 id || u64 timestamp || u32 seq."""
    entity_id, key = r
    return _REF.pack(entity_id, key >> 32, key & 0xFFFFFFFF)


_ABSENT, _PRESENT = flag(False), flag(True)


def optional(value, encode=lambda v: v.to_bytes()) -> bytes:
    """Presence flag, then encode(value) when present."""
    return _ABSENT if value is None else _PRESENT + encode(value)


def seq(values, encode) -> bytes:
    """u32 count, then encode(value) for each value."""
    return u32(len(values)) + b"".join(map(encode, values))


def bytes_lp(b: bytes) -> bytes:
    """Length-prefixed bytes: u32 length followed by the raw bytes."""
    return len(b).to_bytes(4, "big") + b


def str_lp(s: str) -> bytes:
    return bytes_lp(s.encode("utf-8"))


class Reader:
    """Sequential decoder over one wire buffer.

    Every read raises WireError on truncation; finish() raises if trailing
    bytes remain, so round-trip tests catch both under- and over-reads.
    """

    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0

    def take(self, n: int) -> bytes:
        if n < 0 or self._pos + n > len(self._data):
            raise WireError(f"truncated: need {n} bytes at offset {self._pos}")
        out = self._data[self._pos : self._pos + n]
        self._pos += n
        return out

    def u8(self) -> int:
        return int.from_bytes(self.take(1), "big")

    def u16(self) -> int:
        return int.from_bytes(self.take(2), "big")

    def u32(self) -> int:
        return int.from_bytes(self.take(4), "big")

    def u64(self) -> int:
        return int.from_bytes(self.take(8), "big")

    def u128(self) -> int:
        return int.from_bytes(self.take(16), "big")

    def flag(self) -> bool:
        v = self.u8()
        if v > 1:
            raise WireError(f"flag byte {v} at offset {self._pos - 1}")
        return v == 1

    def node_ref(self) -> tuple[int, int]:
        entity_id, timestamp, seq_no = _REF.unpack(self.take(_REF.size))
        return entity_id, (timestamp << 32) | seq_no

    def optional(self, decode):
        return decode(self) if self.flag() else None

    def seq(self, decode) -> list:
        return [decode(self) for _ in range(self.u32())]

    def bytes_lp(self) -> bytes:
        return self.take(self.u32())

    def str_lp(self) -> str:
        try:
            return self.bytes_lp().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WireError(f"invalid utf-8 at offset {self._pos}") from exc

    def remaining(self) -> int:
        return len(self._data) - self._pos

    def finish(self) -> None:
        if self._pos != len(self._data):
            raise WireError(f"{self.remaining()} trailing bytes")


def decode(data: bytes, read):
    """read(Reader(data)), rejecting trailing bytes."""
    r = Reader(data)
    value = read(r)
    r.finish()
    return value
