"""Codecs: each byte format of the system written once, as a value.

A :class:`Codec` holds the two directions of one format together —
``encode(value) -> bytes`` and ``read(reader) -> value`` — so a layout is
one expression and its encoder and decoder cannot drift apart.
``core/wire.py`` (what is sent) and ``storage/journal.py`` (what is kept)
build every message and record from the primitives and the combinators
below; nothing else in those modules packs or unpacks a field.  Neither
do the crypto layouts (``commit.OPENING``, ``shamir.SHARE``,
``lhe.SHARE_OWNER``, ``ec.POINT``, ``bfe.BFE_BODY``,
``bfe.BFE_CIPHERTEXT``, ``lhe.RECOVERY_CIPHERTEXT``,
``lhe.RECOVERY_HEADER``), which are codec values too.

The strictness contract, stated once for every format built here: input
arrives from untrusted parties, so a decoder either returns a value whose
encoding is the bytes it was given or raises :class:`WireFormatError` —
for truncation, trailing bytes, an unknown tag or flag, an implausible
count, or a field its type's constructor rejects (``ValueError`` becomes
``WireFormatError``) — never a partially parsed object, never a foreign
exception.  Encoders raise it for values the format cannot carry.

Fixed-width integers are big-endian; a :data:`VARINT` is an unsigned
integer below 2**32 in minimal LEB128 (seven bits a byte, low group
first, the top bit set on every byte but the last: one byte up to 127,
at most five).  A blob is a varint length and the bytes, text is a UTF-8
blob (``TEXT16``: behind a ``u16``), a sequence is a varint count and
the items, ``fixed(n)`` is n bytes.  A varint that
is not minimal (a last byte of zero after the first), runs past five
bytes or exceeds the ``u32`` range is refused, so each value has one
spelling.  Journal replay decodes thousands of records per restart, so
the primitives read straight off the :class:`Reader` (``BLOB.read is
Reader.blob``, ``VARINT.read is Reader.varint``, both returning at once
for a one-byte varint; integers are ``int.from_bytes(reader.take(n))``)
and ``seq`` / ``tuple_of`` / ``converted`` bind their parts' ``encode``
/ ``read`` once, when the format is built: a first version with
``struct`` lambdas and a generator inside ``tuple_of`` replayed a 12-HSM
journal 47 % slower.  Codecs are immutable after construction and safe to
share across threads; a ``Reader`` belongs to one ``decode`` call.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, NamedTuple, Tuple


class WireFormatError(Exception):
    """Malformed or truncated wire data."""


class Reader:
    """A cursor over received bytes; every read checks the length left."""

    __slots__ = ("_data", "_offset")

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._offset = 0

    def take(self, count: int) -> bytes:
        """The next ``count`` bytes (raises on truncation)."""
        start = self._offset
        end = start + count
        if end > len(self._data):
            raise WireFormatError("truncated message")
        self._offset = end
        return self._data[start:end]

    def varint(self) -> int:
        """A minimal LEB128 unsigned integer below 2**32 (see :data:`VARINT`)."""
        data, offset = self._data, self._offset
        if offset >= len(data):
            raise WireFormatError("truncated message")
        byte = data[offset]
        if byte < 0x80:
            self._offset = offset + 1
            return byte
        value, shift = byte & 0x7F, 7
        while True:
            offset += 1
            if offset >= len(data):
                raise WireFormatError("truncated message")
            byte = data[offset]
            value |= (byte & 0x7F) << shift
            if byte < 0x80:
                break
            shift += 7
            if shift > 28:
                raise WireFormatError("varint longer than 5 bytes")
        if byte == 0:
            raise WireFormatError("varint not minimal")
        if value >> 32:
            raise WireFormatError("varint: u32 out of range")
        self._offset = offset + 1
        return value

    def blob(self) -> bytes:
        """A varint length and that many bytes."""
        data, start = self._data, self._offset
        if start < len(data) and data[start] < 0x80:
            end = start + 1 + data[start]
            if end > len(data):
                raise WireFormatError("truncated message")
            self._offset = end
            return data[start + 1:end]
        return self.take(self.varint())

    def text(self) -> str:
        """A blob holding valid UTF-8."""
        try:
            return self.blob().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WireFormatError("invalid UTF-8") from exc

    def finish(self) -> None:
        """Reject bytes left unread."""
        if self._offset != len(self._data):
            raise WireFormatError(f"{len(self._data) - self._offset} trailing bytes")


class Codec(NamedTuple):
    """One byte format: ``encode(value)`` and its inverse ``read(reader)``."""

    encode: Callable[[Any], bytes]
    read: Callable[[Reader], Any]

    def decode(self, data: bytes) -> Any:
        """Strictly decode a whole message: read, then reject trailing bytes."""
        reader = Reader(data)
        value = self.read(reader)
        reader.finish()
        return value


def _integer(name: str, size: int, signed: bool = False) -> Codec:
    low, high = (-(1 << 8 * size - 1), 1 << 8 * size - 1) if signed else (0, 1 << 8 * size)

    def encode(value: int) -> bytes:
        if not low <= value < high:
            raise WireFormatError(f"{name} out of range")
        return value.to_bytes(size, "big", signed=signed)

    return Codec(encode, lambda reader: int.from_bytes(reader.take(size), "big", signed=signed))


U8 = _integer("u8", 1)
U16 = _integer("u16", 2)
U32 = _integer("u32", 4)
I32 = _integer("i32", 4, signed=True)
U64 = _integer("u64", 8)
U136 = _integer("u136", 17)
U256 = _integer("u256", 32)
def _varint_bytes(value: int) -> bytes:
    if not 0 <= value < 1 << 32:
        raise WireFormatError("varint: u32 out of range")
    out = bytearray()
    while value >= 0x80:
        out.append(value & 0x7F | 0x80)
        value >>= 7
    out.append(value)
    return bytes(out)


#: An unsigned integer below 2**32 in minimal LEB128: a length, a count,
#: an attempt number or a small header integer, one byte up to 127.
VARINT = Codec(_varint_bytes, Reader.varint)
BLOB = Codec(lambda data: _varint_bytes(len(data)) + data, Reader.blob)
TEXT = Codec(lambda text: BLOB.encode(text.encode("utf-8")), Reader.text)


def fixed(size: int, what: str = "field") -> Codec:
    """Exactly ``size`` bytes with no length (a digest); other lengths are unencodable."""

    def encode(data: bytes) -> bytes:
        if len(data) != size:
            raise WireFormatError(f"{what} must be {size} bytes, got {len(data)}")
        return data

    return Codec(encode, lambda reader: reader.take(size))


def seq(item: Codec, build: type = list, limit: int = (1 << 32) - 1, what: str = "item") -> Codec:
    """A count (a varint) and that many ``item``\\ s, decoded into ``build``
    (``list`` or ``tuple``).  ``limit`` is the plausibility bound: far above
    any honest count, low enough that a hostile prefix is refused outright."""
    (encode_item, read_item), read_count = item, Reader.varint

    def read(reader: Reader):
        found = read_count(reader)
        if found > limit:
            raise WireFormatError(f"implausible {what} count")
        values = [read_item(reader) for _ in range(found)]
        return values if build is list else build(values)

    return Codec(
        lambda values: _varint_bytes(len(values)) + b"".join(map(encode_item, values)), read
    )


def optional(item: Codec, what: str = "optional") -> Codec:
    """A flag byte: 0 for None, 1 and then ``item``; any other flag rejects."""

    def read(reader: Reader):
        flag = reader.take(1)[0]
        if flag > 1:
            raise WireFormatError(f"bad {what} flag {flag}")
        return item.read(reader) if flag else None

    return Codec(
        lambda value: b"\x00" if value is None else b"\x01" + item.encode(value), read
    )


def converted(item: Codec, to_wire: Callable, from_wire: Callable) -> Codec:
    """``item`` carrying another type: ``to_wire`` maps a value to what
    ``item`` encodes and ``from_wire`` maps back.  A ``ValueError`` from
    ``from_wire`` is the sender's fault and becomes a
    :class:`WireFormatError`."""
    encode_item, read_item = item.encode, item.read

    def read(reader: Reader):
        raw = read_item(reader)
        try:
            return from_wire(raw)
        except ValueError as exc:
            raise WireFormatError(str(exc)) from exc

    return Codec(lambda value: encode_item(to_wire(value)), read)


#: UTF-8 text behind a ``u16`` length (the username in the crypto layouts).
TEXT16 = converted(
    Codec(lambda data: U16.encode(len(data)) + data, lambda reader: reader.take(U16.read(reader))),
    str.encode, bytes.decode,
)


def nested(item: Codec) -> Codec:
    """A blob holding exactly one whole ``item`` message."""
    return converted(BLOB, item.encode, item.decode)


def tuple_of(*items: Codec) -> Codec:
    """Fixed fields in order, as a tuple."""
    encoders = [item.encode for item in items]
    readers = [item.read for item in items]

    def encode(values) -> bytes:
        if len(values) != len(encoders):
            raise WireFormatError(f"expected {len(encoders)} fields, got {len(values)}")
        return b"".join([encode(value) for encode, value in zip(encoders, values)])

    return Codec(encode, lambda reader: tuple([read(reader) for read in readers]))


def mapping(key: Codec, value: Codec) -> Codec:
    """A dict as a sequence of ``(key, value)`` pairs in sorted key order,
    so equal dicts encode to equal bytes whatever their insertion order
    (and pairs out of order, or a key twice, are refused)."""

    def from_pairs(pairs) -> dict:
        if any(a[0] >= b[0] for a, b in zip(pairs, pairs[1:])):
            raise WireFormatError("mapping keys not in sorted order")
        return dict(pairs)

    return converted(seq(tuple_of(key, value)), lambda items: sorted(items.items()), from_pairs)


def record(cls: Callable, **fields: Codec) -> Codec:
    """An object as its named attributes in the order given, rebuilt with
    ``cls(**values)`` (a constructor's ``ValueError`` rejects the message)."""
    names = tuple(fields)
    return converted(
        tuple_of(*fields.values()),
        lambda value: [getattr(value, name) for name in names],
        lambda values: cls(**dict(zip(names, values))),
    )


def prefixed(byte: int, body: Codec, what: str) -> Codec:
    """``body`` behind one constant byte (a format version); any other
    value of that byte is refused."""
    prefix, encode_body, read_body = bytes([byte]), body.encode, body.read

    def read(reader: Reader):
        found = reader.take(1)[0]
        if found != byte:
            raise WireFormatError(f"unsupported {what} {found}")
        return read_body(reader)

    return Codec(lambda value: prefix + encode_body(value), read)


#: The version byte every wire message starts with: the messages of
#: ``core/wire.py`` and the recovery ciphertext beside its type in
#: ``core/lhe.py``.
WIRE_VERSION = 1


def versioned(body: Codec) -> Codec:
    """``body`` behind the :data:`WIRE_VERSION` byte."""
    return prefixed(WIRE_VERSION, body, "wire version")


def tagged(what: str, cases: Dict[int, Codec]) -> Codec:
    """A ``(tag, value)`` pair: one tag byte, then the value in that tag's
    codec.  A tag outside ``cases`` is refused in both directions."""

    def case(tag: int) -> Codec:
        if tag not in cases:
            raise WireFormatError(f"unknown {what} {tag}")
        return cases[tag]

    def encode(pair: Tuple[int, Any]) -> bytes:
        tag, value = pair
        codec = case(tag)  # before bytes([tag]): an unknown tag is a wire error
        return bytes([tag]) + codec.encode(value)

    def read(reader: Reader):
        tag = reader.take(1)[0]
        return tag, case(tag).read(reader)

    return Codec(encode, read)

