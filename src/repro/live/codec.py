"""Wire codec: versioned, length-prefixed, CRC-checked frames.

Frame layout (all integers big-endian)::

    magic    4 bytes   b"RPRO"
    version  1 byte    1
    kind     1 byte    1 = protocol message, 2 = control (cluster driver)
    length   4 bytes   payload byte count (<= MAX_PAYLOAD)
    crc32    4 bytes   CRC-32 of the payload bytes
    payload  N bytes   canonical JSON

A protocol-message payload is an envelope ``{"src": <site>, "msg":
{...}}`` where ``msg`` serialises one :mod:`repro.core.messages`
dataclass; the ``type`` key names the class and every other key is a
field.  Control payloads are free-form JSON dicts used by the cluster
driver (begin/status/transcript/stop).

The decoder is incremental (feed it arbitrary chunks) and *strict*: a
bad magic, unknown version, oversized length, CRC mismatch, or a
payload that is not exactly one JSON object (the encoder writes no
whitespace, so none is accepted around it) raises :class:`FrameError`
with a ``cause`` tag, and so does a message field whose value is not of
its declared type (``fields``).  A ``LiveSite`` never lets that reach a
machine — it counts the drop by cause, mirroring ``Lan.drop_counts()``,
and a framing error also drops the connection.

The codec is *compiled*: at import, every class in ``ANY_MESSAGE``
gets an encode plan (the literal JSON text between its field values,
keys already sorted, and one text encoder per field) and a decode plan
(in ``__init__`` order, one checking decoder per field), both chosen by
the field's declared type.  A field type the table below does not know
fails the import, not a send.  No dataclass is reflected on per
message, and nothing per message builds an encoder: a string field is
quoted, and every other value goes through one C encoder built at
import (:func:`compact_encoder`).  A payload is parsed by one call to
the C scanner, and a message is built positionally from its plan.

``message_to_dict`` parses the text the encode plan wrote, and that
form (sorted keys, compact separators) is what the conformance harness
canonicalizes transcripts with, so "what went on the wire" and "what
the transcript says" cannot drift apart.
"""

from __future__ import annotations

import dataclasses
import json
import struct
import zlib
from enum import Enum
from json.encoder import c_make_encoder
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Callable, Dict, Iterable, List, Tuple

from repro.core.messages import ANY_MESSAGE
from repro.core.outcomes import Outcome, TwoPhaseVariant, Vote
from repro.core.quorum import QuorumSpec
from repro.core.tid import TID

MAGIC = b"RPRO"
VERSION = 1
KIND_MESSAGE = 1
KIND_CONTROL = 2
MAX_PAYLOAD = 256 * 1024

_HEADER = struct.Struct(">4sBBII")
HEADER_SIZE = _HEADER.size


class FrameError(Exception):
    """A frame violated the wire contract; ``cause`` tags the reason.
    Raised by :meth:`FrameDecoder.feed`, ``frames`` holds the good
    frames that preceded the bad one in the same call."""

    def __init__(self, cause: str, detail: str = ""):
        super().__init__(f"{cause}: {detail}" if detail else cause)
        self.cause = cause
        self.frames: List[Tuple[int, Dict[str, Any]]] = []


# ------------------------------------------------------ canonical JSON


def _plain(value: Any) -> Any:
    """What the JSON encoder is told about a value it has no rule for."""
    if isinstance(value, TID):
        return str(value)
    if isinstance(value, QuorumSpec):
        return value.to_dict()
    if isinstance(value, Enum):
        return value.value
    raise TypeError(f"{type(value).__name__} does not go on the wire")


def compact_encoder(default: Callable[[Any], Any]) -> Callable[[Any], str]:
    """A value as canonical JSON text (sorted keys, compact separators,
    ASCII), by one C encoder built here once — ``JSONEncoder.encode``
    builds a new one per call.  It keeps the circular-reference check;
    ``default`` is what it is told about a value it has no rule for.
    Every caller shares its ``markers``: a site encodes on its event
    loop's one thread."""
    markers: Dict[int, Any] = {}
    # indent None, separators ":" ",", sort_keys, not skipkeys, allow_nan:
    # the arguments ``JSONEncoder(sort_keys=True, separators=(",", ":"))``
    # passes.
    encode = c_make_encoder(markers, default, _quote, None, ":", ",",
                            True, False, True)

    def text(value: Any) -> str:
        try:
            return "".join(encode(value, 0))
        except BaseException:
            # A raise leaves the ids of the containers it was inside in
            # ``markers``; the next encode of one would read as a cycle.
            markers.clear()
            raise
    return text


# The canonical serialisation shared by codec and conformance: every
# control frame, every non-string message field and every transcript.
canonical_json: Callable[[Any], str] = compact_encoder(_plain)
_scan = json.JSONDecoder().scan_once


def _object(text: str) -> Dict[str, Any]:
    """``text`` as the one JSON object it must be, by one call to the C
    scanner: whitespace around it, or anything after it, is an error
    (the encoder writes neither)."""
    try:
        value, end = _scan(text, 0)
    except StopIteration:
        raise FrameError("json", "no JSON value at offset 0") from None
    except (json.JSONDecodeError, RecursionError) as exc:
        raise FrameError("json", str(exc)) from exc
    if end != len(text):
        raise FrameError("json", f"trailing data at offset {end}")
    if type(value) is not dict:
        raise FrameError("json", "payload is not an object")
    return value


# ------------------------------------------------- per-class wire plans


def _tid_text(value: Any) -> str:
    return _quote(str(value))


# ``JSON value -> field value`` decoders.  Each checks the declared
# type and raises if the value is not of it, which decode reports as
# ``fields``: nothing the peer mistyped reaches a machine.

def _exactly(kind: type) -> Callable[[Any], Any]:
    """The value itself, if its type is exactly ``kind`` (so a ``bool``
    is not an ``int``)."""
    def decode(value: Any) -> Any:
        if type(value) is not kind:
            raise TypeError(f"{value!r} is not a {kind.__name__}")
        return value
    return decode


_str, _int, _bool, _dict, _list = map(_exactly, (str, int, bool, dict, list))


def _optional(decode: Callable[[Any], Any]) -> Callable[[Any], Any]:
    return lambda value: None if value is None else decode(value)


def _member_of(enum: type) -> Callable[[Any], Any]:
    """Wire value -> member, by one dict lookup (``enum(value)`` costs
    ten); an unknown value raises."""
    return {member.value: member for member in enum}.__getitem__


def _tid(value: Any) -> TID:
    tid = TID.parse(_str(value))
    if not tid.family:
        raise ValueError(f"TID {value!r} names no family")
    return tid


def _quorum(value: Any) -> QuorumSpec:
    spec = _dict(value)
    return QuorumSpec(_int(spec["n_sites"]), _int(spec["commit_quorum"]),
                      _int(spec["abort_quorum"]))


def _tuple_of(item: Callable[[Any], Any]) -> Callable[[Any], Tuple[Any, ...]]:
    """A JSON list as a tuple, each element through ``item``."""
    return lambda value: tuple(map(item, _list(value)))


def _row(*columns: Callable[[Any], Any]) -> Callable[[Any], Tuple[Any, ...]]:
    """A JSON list of ``len(columns)`` values as a tuple, each value
    through its column's decoder."""
    def decode(value: Any) -> Tuple[Any, ...]:
        if len(_list(value)) != len(columns):
            raise ValueError(f"{value!r} is not {len(columns)} long")
        return tuple(column(v) for column, v in zip(columns, value))
    return decode


# Declared field type -> (value to JSON text, JSON value to field
# value).  Strings are quoted; every other value goes through the one
# cached encoder.  The three enums are ``str`` subclasses, so a member
# is quoted like the string it is.
_WIRE_TYPES: Dict[str, Tuple[Callable[[Any], str],
                             Callable[[Any], Any]]] = {
    "TID": (_tid_text, _tid),
    "str": (_quote, _str),
    "int": (canonical_json, _int),
    "bool": (canonical_json, _bool),
    "TwoPhaseVariant": (_quote, _member_of(TwoPhaseVariant)),
    "Vote": (_quote, _member_of(Vote)),
    "Outcome": (_quote, _member_of(Outcome)),
    "Optional[QuorumSpec]": (canonical_json, _optional(_quorum)),
    "Tuple[str, ...]": (canonical_json, _tuple_of(_str)),
    "Tuple[Tuple[str, str], ...]": (canonical_json,
                                    _tuple_of(_row(_str, _str))),
    "Tuple[Tuple[str, int, str], ...]": (canonical_json,
                                         _tuple_of(_row(_str, _int, _str))),
    "Dict[str, Any]": (canonical_json, _dict),
    "Optional[Dict[str, Any]]": (canonical_json, _optional(_dict)),
}


def _absent(f: "dataclasses.Field[Any]") -> Callable[[], Any]:
    """What a field the payload leaves out decodes to: its default, or
    (a field without one) an error."""
    if f.default_factory is not dataclasses.MISSING:
        return f.default_factory
    if f.default is not dataclasses.MISSING:
        return lambda default=f.default: default

    def missing() -> Any:
        raise KeyError(f"missing field {f.name!r}")
    return missing


_EncodePlan = Tuple[Tuple[Tuple[str, str, Callable[[Any], str]], ...], str]
_DecodePlan = Tuple[type, Tuple[Tuple[str, Callable[[Any], Any],
                                      Callable[[], Any]], ...]]


def compile_plans(classes: Iterable[type]
                  ) -> Tuple[Dict[type, _EncodePlan], Dict[str, _DecodePlan]]:
    """The encode plan of each class, keyed by class, and its decode
    plan, keyed by the ``type`` name it travels under."""
    encode: Dict[type, _EncodePlan] = {}
    decode: Dict[str, _DecodePlan] = {}
    for cls in classes:
        codecs, fields = {}, dataclasses.fields(cls)
        for f in fields:
            if f.type not in _WIRE_TYPES:
                raise TypeError(f"{cls.__name__}.{f.name}: no wire codec "
                                f"for a field declared {f.type!r}")
            codecs[f.name] = _WIRE_TYPES[f.type]
        # An encode plan is ((literal, field, text encoder), ...) and a
        # closing literal: the text of a message is each literal followed
        # by its field's value, then the closing one.
        pieces, literal = [], "{"
        for key in sorted([*codecs, "type"]):
            literal += f"{_quote(key)}:"
            if key == "type":
                literal += _quote(cls.__name__)
            else:
                pieces.append((literal, key, codecs[key][0]))
                literal = ""
            literal += ","
        encode[cls] = (tuple(pieces), literal[:-1] + "}")
        # A decode plan is the class and, in ``__init__`` order, each
        # field's name, checking decoder and value when absent.
        decode[cls.__name__] = (cls, tuple(
            (f.name, codecs[f.name][1], _absent(f)) for f in fields))
    return encode, decode


_ENCODE_PLANS, _DECODE_PLANS = compile_plans(ANY_MESSAGE)


# ---------------------------------------------------- message <-> dict


def _message_text(msg: Any) -> str:
    """``msg`` as the canonical JSON object its frame carries."""
    try:
        pieces, closing = _ENCODE_PLANS[type(msg)]
    except KeyError:
        raise FrameError("type", f"{type(msg).__name__} is not a wire "
                         "message") from None
    parts = []
    for literal, name, text in pieces:
        parts.append(literal)
        parts.append(text(getattr(msg, name)))
    parts.append(closing)
    return "".join(parts)


def message_to_dict(msg: Any) -> Dict[str, Any]:
    """One protocol message as the dict its wire text parses to."""
    return _object(_message_text(msg))


def message_from_dict(data: Dict[str, Any]) -> Any:
    type_name = data.get("type")
    plan = _DECODE_PLANS.get(type_name)
    if plan is None:
        raise FrameError("type", f"unknown message type {type_name!r}")
    cls, fields = plan
    try:
        return cls(*[decode(data[name]) if name in data else absent()
                     for name, decode, absent in fields])
    except Exception as exc:
        raise FrameError("fields", f"{type_name}: {exc}") from exc


# ------------------------------------------------------------- frames


def _frame(kind: int, body: bytes) -> bytes:
    if len(body) > MAX_PAYLOAD:
        raise FrameError("oversize", f"{len(body)} byte payload")
    return _HEADER.pack(MAGIC, VERSION, kind, len(body),
                        zlib.crc32(body)) + body


def encode_frame(kind: int, payload: Dict[str, Any]) -> bytes:
    return _frame(kind, canonical_json(payload).encode("utf-8"))


def encode_message_frame(src: str, msg: Any) -> bytes:
    return _frame(KIND_MESSAGE, (
        f'{{"msg":{_message_text(msg)},"src":{_quote(src)}}}').encode("ascii"))


def encode_control_frame(payload: Dict[str, Any]) -> bytes:
    return encode_frame(KIND_CONTROL, payload)


def decode_message_payload(payload: Dict[str, Any]) -> Tuple[str, Any]:
    """Envelope dict -> (src site, protocol message)."""
    src = payload.get("src")
    body = payload.get("msg")
    if not isinstance(src, str) or not isinstance(body, dict):
        raise FrameError("envelope", "message frame missing src/msg")
    return src, message_from_dict(body)


class FrameDecoder:
    """Incremental frame parser; raises :class:`FrameError` on garbage.

    What a caller receives does not depend on how the stream was cut
    into chunks: ``feed`` returns every whole frame buffered so far, and
    when it meets a malformed one the error it raises carries the good
    frames before it (``FrameError.frames``).  After an error the stream
    position is unrecoverable (length-prefixed framing cannot
    resynchronise), so callers must drop the connection.
    """

    def __init__(self) -> None:
        self._buf = bytearray()

    def feed(self, data: bytes) -> List[Tuple[int, Dict[str, Any]]]:
        buf = self._buf
        buf += data
        frames: List[Tuple[int, Dict[str, Any]]] = []
        # Parse by offset; the consumed prefix is cut once, on the way out.
        pos, have = 0, len(buf)
        try:
            while have - pos >= HEADER_SIZE:
                magic, version, kind, length, crc = _HEADER.unpack_from(
                    buf, pos)
                if magic != MAGIC:
                    raise FrameError("magic", magic.hex())
                if version != VERSION:
                    raise FrameError("version", str(version))
                if kind != KIND_MESSAGE and kind != KIND_CONTROL:
                    raise FrameError("kind", str(kind))
                if length > MAX_PAYLOAD:
                    raise FrameError("oversize", f"{length} byte payload")
                end = pos + HEADER_SIZE + length
                if end > have:
                    break
                body = buf[pos + HEADER_SIZE:end]
                pos = end
                if zlib.crc32(body) != crc:
                    raise FrameError("crc", "payload checksum mismatch")
                try:
                    text = body.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise FrameError("json", str(exc)) from exc
                frames.append((kind, _object(text)))
        except FrameError as exc:
            exc.frames = frames
            raise
        finally:
            del buf[:pos]
        return frames

    @property
    def buffered(self) -> int:
        """Bytes awaiting a complete frame (a torn tail if the peer dies)."""
        return len(self._buf)
