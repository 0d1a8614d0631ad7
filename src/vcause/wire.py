"""Canonical byte encoding shared by every wire format.

All integers are big-endian and fixed width; variable-length fields are
length-prefixed. Encodings here are injective by construction, which the
hash preimages built on top of them rely on.
"""

from __future__ import annotations

import struct

# NodeRef (entity id, encoded TimestampKey): u64 id || u64 timestamp || u32 seq
NODE_REF = struct.Struct(">QQI")
SEQ_MASK = 0xFFFFFFFF  # the seq half of an encoded TimestampKey


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
    entity_id, key = r
    return NODE_REF.pack(entity_id, key >> 32, key & SEQ_MASK)


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
        self._end = len(data)

    def _truncated(self, n: int) -> WireError:
        return WireError(f"truncated: need {n} bytes at offset {self._pos}")

    def take(self, n: int) -> bytes:
        pos = self._pos
        end = pos + n
        if n < 0 or end > self._end:
            raise self._truncated(n)
        self._pos = end
        return self._data[pos:end]

    def unpack(self, st: struct.Struct) -> tuple:
        """The fields of one fixed-width struct, read in one step."""
        pos = self._pos
        end = pos + st.size
        if end > self._end:
            raise self._truncated(st.size)
        self._pos = end
        return st.unpack_from(self._data, pos)

    def u8(self) -> int:
        pos = self._pos
        if pos >= self._end:
            raise self._truncated(1)
        self._pos = pos + 1
        return self._data[pos]

    def u16(self) -> int:
        return int.from_bytes(self.take(2), "big")

    def u32(self) -> int:
        return int.from_bytes(self.take(4), "big")

    def u64(self) -> int:
        return int.from_bytes(self.take(8), "big")

    def u128(self) -> int:
        return int.from_bytes(self.take(16), "big")

    def flag(self) -> bool:
        pos = self._pos
        if pos >= self._end:
            raise self._truncated(1)
        v = self._data[pos]
        if v > 1:
            raise WireError(f"flag byte {v} at offset {pos}")
        self._pos = pos + 1
        return v == 1

    def node_ref(self) -> tuple[int, int]:
        entity_id, timestamp, seq_no = self.unpack(NODE_REF)
        return entity_id, (timestamp << 32) | seq_no

    def optional(self, decode):
        return decode(self) if self.flag() else None

    def seq(self, decode) -> list:
        return [decode(self) for _ in range(self.u32())]

    def bytes_lp(self) -> bytes:
        data, pos = self._data, self._pos
        start = pos + 4
        if start > self._end:
            raise self._truncated(4)
        n = int.from_bytes(data[pos:start], "big")
        end = start + n
        if end > self._end:
            self._pos = start
            raise self._truncated(n)
        self._pos = end
        return data[start:end]

    def str_lp(self) -> str:
        try:
            return self.bytes_lp().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WireError(f"invalid utf-8 at offset {self._pos}") from exc

    def remaining(self) -> int:
        return self._end - self._pos

    def finish(self) -> None:
        if self._pos != self._end:
            raise WireError(f"{self.remaining()} trailing bytes")


def decode(data: bytes, read):
    """read(Reader(data)), rejecting trailing bytes."""
    r = Reader(data)
    value = read(r)
    r.finish()
    return value
