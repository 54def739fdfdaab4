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
bad magic, unknown version, oversized length, CRC mismatch, or
undecodable payload raises :class:`FrameError` with a ``cause`` tag.  A
``LiveSite`` never lets that propagate — it drops the connection and
counts the drop by cause, mirroring ``Lan.drop_counts()``.

The same ``message_to_dict`` serialisation (sorted keys, compact
separators) is what the conformance harness canonicalizes transcripts
with, so "what went on the wire" and "what the transcript says" cannot
drift apart.
"""

from __future__ import annotations

import dataclasses
import json
import struct
import zlib
from enum import Enum
from typing import Any, Callable, Dict, List, Tuple

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

_REGISTRY = {cls.__name__: cls for cls in ANY_MESSAGE}


class FrameError(Exception):
    """A frame violated the wire contract; ``cause`` tags the reason."""

    def __init__(self, cause: str, detail: str = ""):
        super().__init__(f"{cause}: {detail}" if detail else cause)
        self.cause = cause


# ---------------------------------------------------- message <-> dict


def _encode_value(value: Any) -> Any:
    if isinstance(value, TID):
        return str(value)
    if isinstance(value, QuorumSpec):
        return value.to_dict()
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, (tuple, list)):
        return [_encode_value(v) for v in value]
    if isinstance(value, dict):
        return {k: _encode_value(v) for k, v in value.items()}
    return value


def _tuple_str(value: Any) -> Tuple[str, ...]:
    return tuple(str(v) for v in value)


def _tuple_pairs(value: Any) -> Tuple[Tuple[str, str], ...]:
    return tuple((str(a), str(b)) for a, b in value)


def _tuple_acceptances(value: Any) -> Tuple[Tuple[str, int, str], ...]:
    return tuple((str(i), int(b), str(v)) for i, b, v in value)


# Field names are consistent across every message class, so decode
# dispatches on name; anything unlisted passes through as plain JSON.
_FIELD_DECODERS: Dict[str, Callable[[Any], Any]] = {
    "tid": TID.parse,
    "variant": TwoPhaseVariant,
    "vote": Vote,
    "outcome": Outcome,
    "quorum": lambda v: None if v is None else QuorumSpec.from_dict(v),
    "sites": _tuple_str,
    "acceptors": _tuple_str,
    "known_sites": _tuple_str,
    "votes": _tuple_pairs,
    "values": _tuple_pairs,
    "accepted": _tuple_acceptances,
}


def message_to_dict(msg: Any) -> Dict[str, Any]:
    """One protocol-message dataclass as a JSON-ready dict."""
    out: Dict[str, Any] = {"type": type(msg).__name__}
    for f in dataclasses.fields(msg):
        out[f.name] = _encode_value(getattr(msg, f.name))
    return out


def message_from_dict(data: Dict[str, Any]) -> Any:
    type_name = data.get("type")
    cls = _REGISTRY.get(type_name)
    if cls is None:
        raise FrameError("type", f"unknown message type {type_name!r}")
    kwargs: Dict[str, Any] = {}
    try:
        for f in dataclasses.fields(cls):
            if f.name not in data:
                continue
            decode = _FIELD_DECODERS.get(f.name, lambda v: v)
            kwargs[f.name] = decode(data[f.name])
        return cls(**kwargs)
    except FrameError:
        raise
    except Exception as exc:
        raise FrameError("fields", f"{type_name}: {exc}") from exc


def canonical_json(value: Any) -> str:
    """Canonical serialisation shared by codec and conformance."""
    return json.dumps(_encode_value(value), sort_keys=True,
                      separators=(",", ":"))


# ------------------------------------------------------------- frames


def encode_frame(kind: int, payload: Dict[str, Any]) -> bytes:
    body = canonical_json(payload).encode("utf-8")
    if len(body) > MAX_PAYLOAD:
        raise FrameError("oversize", f"{len(body)} byte payload")
    return _HEADER.pack(MAGIC, VERSION, kind, len(body),
                        zlib.crc32(body)) + body


def encode_message_frame(src: str, msg: Any) -> bytes:
    return encode_frame(KIND_MESSAGE, {"src": src,
                                       "msg": message_to_dict(msg)})


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

    After an error the stream position is unrecoverable (length-prefixed
    framing cannot resynchronise), so callers must drop the connection.
    """

    def __init__(self) -> None:
        self._buf = bytearray()

    def feed(self, data: bytes) -> List[Tuple[int, Dict[str, Any]]]:
        self._buf.extend(data)
        frames: List[Tuple[int, Dict[str, Any]]] = []
        while True:
            if len(self._buf) < HEADER_SIZE:
                return frames
            magic, version, kind, length, crc = _HEADER.unpack_from(self._buf)
            if magic != MAGIC:
                raise FrameError("magic", magic.hex())
            if version != VERSION:
                raise FrameError("version", str(version))
            if kind not in (KIND_MESSAGE, KIND_CONTROL):
                raise FrameError("kind", str(kind))
            if length > MAX_PAYLOAD:
                raise FrameError("oversize", f"{length} byte payload")
            if len(self._buf) < HEADER_SIZE + length:
                return frames
            body = bytes(self._buf[HEADER_SIZE:HEADER_SIZE + length])
            del self._buf[:HEADER_SIZE + length]
            if zlib.crc32(body) != crc:
                raise FrameError("crc", "payload checksum mismatch")
            try:
                payload = json.loads(body.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise FrameError("json", str(exc)) from exc
            if not isinstance(payload, dict):
                raise FrameError("json", "payload is not an object")
            frames.append((kind, payload))

    @property
    def buffered(self) -> int:
        """Bytes awaiting a complete frame (a torn tail if the peer dies)."""
        return len(self._buf)
