"""repro.live.codec: every protocol message survives the wire, and no
wire garbage survives the decoder.

The round-trip half is property-based over the real message registry —
each of the ~28 :mod:`repro.core.messages` dataclasses is generated
with hypothesis-built field values, framed, chunked arbitrarily, and
must decode equal (and re-encode byte-identically, the property the
conformance harness leans on).  The fuzz half feeds malformed,
truncated, bit-flipped, and oversized bytes and requires a
:class:`FrameError` with an accurate cause tag — never a crash, never a
silently wrong message."""

import dataclasses
import hashlib
import json
import struct
import zlib
from enum import Enum

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.messages import (
    ANY_MESSAGE,
    CommitAck,
    NbPrepare,
    NbReplicate,
    PrepareRequest,
    VoteResponse,
)
from repro.core.outcomes import Outcome, TwoPhaseVariant, Vote
from repro.core.quorum import QuorumSpec
from repro.core.tid import TID
from repro.live.codec import (
    KIND_CONTROL,
    KIND_MESSAGE,
    MAGIC,
    MAX_PAYLOAD,
    VERSION,
    FrameDecoder,
    FrameError,
    compile_plans,
    decode_message_payload,
    encode_control_frame,
    encode_frame,
    encode_message_frame,
    message_from_dict,
    message_to_dict,
)

# --------------------------------------------------- message strategies

_sites = st.sampled_from(["alpha", "beta", "gamma", "delta"])
_tids = st.builds(lambda s, n: TID.parse(f"T{n}@{s}"),
                  _sites, st.integers(min_value=1, max_value=99))


def _value_for(field: dataclasses.Field) -> st.SearchStrategy:
    """A strategy for one message field, chosen by name/type like the
    codec's own per-field decoder table."""
    name = field.name
    if name == "tid":
        return _tids
    if name in ("sender", "leader", "coordinator"):
        return _sites
    if name == "variant":
        return st.sampled_from(list(TwoPhaseVariant))
    if name == "vote":
        return st.sampled_from(list(Vote))
    if name == "outcome":
        return st.sampled_from(list(Outcome))
    if name == "quorum":
        return st.builds(QuorumSpec.majority,
                         st.integers(min_value=1, max_value=7))
    if name in ("sites", "acceptors", "known_sites"):
        return st.lists(_sites, min_size=1, max_size=4).map(tuple)
    if name in ("votes", "values"):
        return st.lists(
            st.tuples(_sites, st.sampled_from(["yes", "no", "read_only"])),
            max_size=4).map(tuple)
    if name == "accepted":
        return st.lists(
            st.tuples(_sites, st.integers(min_value=0, max_value=9),
                      st.sampled_from(["yes", "no"])),
            max_size=4).map(tuple)
    if name in ("round", "ballot", "promised"):
        return st.integers(min_value=0, max_value=1000)
    if name == "ok":
        return st.booleans()
    if name == "status":
        return st.sampled_from(["no_state", "prepared", "replicated",
                                "abort_pledged", "committed", "aborted"])
    if name == "decision_data":
        dicts = st.dictionaries(st.sampled_from(["k1", "k2"]), st.integers(),
                                max_size=2)
        # ``None`` only where the field is declared ``Optional``: the
        # decoder refuses a value of another type than the declared one.
        return (dicts if field.type == "Dict[str, Any]"
                else st.one_of(st.none(), dicts))
    if field.type in ("bool", bool):
        return st.booleans()
    if field.type in ("int", int):
        return st.integers(min_value=0, max_value=1000)
    return st.none()


def _message_strategy() -> st.SearchStrategy:
    builders = []
    for cls in ANY_MESSAGE:
        kwargs = {f.name: _value_for(f) for f in dataclasses.fields(cls)}
        builders.append(st.builds(cls, **kwargs))
    return st.one_of(builders)


class TestRoundTrip:
    @settings(max_examples=300, deadline=None)
    @given(msg=_message_strategy(), src=_sites,
           chunk=st.integers(min_value=1, max_value=13))
    def test_any_message_survives_frame_and_chunked_decode(
            self, msg, src, chunk):
        frame = encode_message_frame(src, msg)
        decoder = FrameDecoder()
        frames = []
        for i in range(0, len(frame), chunk):
            frames.extend(decoder.feed(frame[i:i + chunk]))
        assert len(frames) == 1
        kind, payload = frames[0]
        assert kind == KIND_MESSAGE
        got_src, got = decode_message_payload(payload)
        assert got_src == src
        assert got == msg
        # Re-encoding is byte-stable: the conformance harness depends on
        # serialisation being canonical, not merely invertible.
        assert encode_message_frame(got_src, got) == frame

    @settings(max_examples=100, deadline=None)
    @given(msg=_message_strategy())
    def test_dict_form_is_json_safe_and_typed(self, msg):
        data = message_to_dict(msg)
        json.dumps(data)  # must not raise
        assert data["type"] == type(msg).__name__
        assert message_from_dict(json.loads(json.dumps(data))) == msg

    def test_two_frames_in_one_feed(self):
        a = encode_message_frame("alpha", CommitAck(
            tid=TID.parse("T1@alpha"), sender="alpha"))
        b = encode_control_frame({"cmd": "ping"})
        frames = FrameDecoder().feed(a + b)
        assert [k for k, _ in frames] == [KIND_MESSAGE, KIND_CONTROL]


# ------------------------------------------------ the reflective oracle
#
# The codec this one replaced, kept as the reference: it walks
# ``dataclasses.fields`` per message, converts every value through an
# ``isinstance`` ladder and hands the result to ``json.dumps``.


def _reference_value(value):
    if isinstance(value, TID):
        return str(value)
    if isinstance(value, QuorumSpec):
        return value.to_dict()
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, (tuple, list)):
        return [_reference_value(v) for v in value]
    if isinstance(value, dict):
        return {k: _reference_value(v) for k, v in value.items()}
    return value


def _reference_to_dict(msg):
    out = {"type": type(msg).__name__}
    for f in dataclasses.fields(msg):
        out[f.name] = _reference_value(getattr(msg, f.name))
    return out


_REFERENCE_DECODERS = {
    "tid": TID.parse,
    "variant": TwoPhaseVariant,
    "vote": Vote,
    "outcome": Outcome,
    "quorum": lambda v: None if v is None else QuorumSpec.from_dict(v),
    "sites": lambda v: tuple(str(x) for x in v),
    "acceptors": lambda v: tuple(str(x) for x in v),
    "known_sites": lambda v: tuple(str(x) for x in v),
    "votes": lambda v: tuple((str(a), str(b)) for a, b in v),
    "values": lambda v: tuple((str(a), str(b)) for a, b in v),
    "accepted": lambda v: tuple((str(i), int(b), str(x)) for i, b, x in v),
}


_REFERENCE_REGISTRY = {cls.__name__: cls for cls in ANY_MESSAGE}


def _reference_from_dict(data):
    cls = _REFERENCE_REGISTRY[data["type"]]
    return cls(**{f.name: _REFERENCE_DECODERS.get(f.name, lambda v: v)(
        data[f.name]) for f in dataclasses.fields(cls) if f.name in data})


def _reference_frame(src, msg):
    body = json.dumps(
        _reference_value({"src": src, "msg": _reference_to_dict(msg)}),
        sort_keys=True, separators=(",", ":")).encode("utf-8")
    return struct.Struct(">4sBBII").pack(
        MAGIC, VERSION, KIND_MESSAGE, len(body), zlib.crc32(body)) + body


_names = st.one_of(_sites, st.text(max_size=12))  # quotes, escapes, non-ASCII
_json_leaves = st.one_of(st.none(), st.booleans(), st.integers(),
                         st.text(max_size=8))
_nested = st.dictionaries(
    st.text(max_size=6),
    st.recursive(_json_leaves, lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=6), inner, max_size=3)),
        max_leaves=8),
    max_size=4)

# One strategy per declared field type: the compiled plans are chosen by
# it, so this table failing on a new type is the codec's failure too.
_BY_TYPE = {
    "TID": st.builds(TID, st.text(min_size=1, max_size=12).filter(
        lambda family: ":" not in family), st.lists(
        st.integers(min_value=1, max_value=99), max_size=4).map(tuple)),
    "str": _names,
    "int": st.integers(min_value=-2**40, max_value=2**70),
    "bool": st.booleans(),
    "TwoPhaseVariant": st.sampled_from(list(TwoPhaseVariant)),
    "Vote": st.sampled_from(list(Vote)),
    "Outcome": st.sampled_from(list(Outcome)),
    "Optional[QuorumSpec]": st.one_of(st.none(), st.builds(
        QuorumSpec.majority, st.integers(min_value=1, max_value=9))),
    "Tuple[str, ...]": st.lists(_names, max_size=40).map(tuple),
    "Tuple[Tuple[str, str], ...]": st.lists(
        st.tuples(_names, _names), max_size=6).map(tuple),
    "Tuple[Tuple[str, int, str], ...]": st.lists(
        st.tuples(_names, st.integers(min_value=0, max_value=99), _names),
        max_size=6).map(tuple),
    "Dict[str, Any]": _nested,
    "Optional[Dict[str, Any]]": st.one_of(st.none(), _nested),
}


def _instances(cls):
    return st.builds(cls, **{f.name: _BY_TYPE[f.type]
                             for f in dataclasses.fields(cls)})


def _golden(cls):
    """One fixed, fully populated instance of ``cls``."""
    values = {
        "TID": TID("T7@alpha", (2, 1)), "str": "beta", "int": 3,
        "bool": False, "TwoPhaseVariant": TwoPhaseVariant.OPTIMIZED,
        "Vote": Vote.READ_ONLY, "Outcome": Outcome.ABORTED,
        "Optional[QuorumSpec]": QuorumSpec.majority(3),
        "Tuple[str, ...]": ("alpha", "beta", "gamma"),
        "Tuple[Tuple[str, str], ...]": (("alpha", "yes"), ("beta", "no")),
        "Tuple[Tuple[str, int, str], ...]": (("alpha", 2, "yes"),),
        "Dict[str, Any]": {"votes": {"beta": "yes"}, "sites": ["alpha"]},
        "Optional[Dict[str, Any]]": {"quorum": {"n_sites": 3}},
    }
    return cls(**{f.name: values[f.type] for f in dataclasses.fields(cls)})


class TestCompiledPlansAgainstTheOracle:
    @pytest.mark.parametrize("cls", ANY_MESSAGE, ids=lambda c: c.__name__)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), src=_names)
    def test_encodes_byte_identically_and_round_trips(self, cls, data, src):
        msg = data.draw(_instances(cls))
        frame = encode_message_frame(src, msg)
        assert frame == _reference_frame(src, msg)
        assert message_to_dict(msg) == _reference_to_dict(msg)
        (kind, payload), = FrameDecoder().feed(frame)
        got_src, got = decode_message_payload(payload)
        assert (kind, got_src) == (KIND_MESSAGE, src)
        assert got == _reference_from_dict(payload["msg"])
        # ``decision_data`` lists and ``None`` come back as they left;
        # every other field is typed again by its decoder.
        assert got == msg

    def test_every_enum_member_is_quoted_as_its_value(self):
        tid = TID("T1@alpha")
        for msg in ([PrepareRequest(tid, "a", variant=v)
                     for v in TwoPhaseVariant]
                    + [VoteResponse(tid, "a", vote=v) for v in Vote]
                    + [NbPrepare(tid, "a", quorum=None)]):
            assert encode_message_frame("a", msg) == _reference_frame("a", msg)

    def test_golden_frames(self):
        """The bytes on the wire, pinned: one golden frame per class."""
        digest = hashlib.sha256()
        for cls in ANY_MESSAGE:
            frame = encode_message_frame("alpha", _golden(cls))
            assert frame == _reference_frame("alpha", _golden(cls)), cls
            digest.update(frame)
        assert digest.hexdigest() == GOLDEN_SHA256

    def test_a_field_the_plans_cannot_carry_fails_when_they_are_built(self):
        """``compile_plans(ANY_MESSAGE)`` runs at import: a message class
        with a field of an unknown type stops the import, not a send."""
        @dataclasses.dataclass(frozen=True)
        class Timestamped(CommitAck):
            at: "float" = 0.0

        with pytest.raises(TypeError, match="Timestamped.at"):
            compile_plans(ANY_MESSAGE + (Timestamped,))
        with pytest.raises(FrameError) as err:   # and it was never planned
            encode_message_frame("alpha", Timestamped(TID("T1@a"), "a"))
        assert err.value.cause == "type"

    def test_the_cached_encoder_recovers_after_a_raise(self):
        """Field values share one encoder, built once, so it must not
        keep what a failed encode left behind: the dict it was inside
        would read as a cycle the next time."""
        data = {"votes": {"beta": object()}}
        msg = NbReplicate(TID("T1@alpha"), "alpha", data)
        with pytest.raises(TypeError):
            encode_message_frame("alpha", msg)
        del data["votes"]["beta"]
        assert encode_message_frame("alpha", msg) == \
            _reference_frame("alpha", msg)


GOLDEN_SHA256 = (
    "eef9a0b88b60fde6cdfe9da7bf55101567339c9f36258e90e4ed29b7d5f8e5dd")


class TestChunkingInvariance:
    """What ``feed`` yields is a function of the byte stream, not of how
    TCP cut it: the good frames before a malformed one are delivered
    (``FrameError.frames``) however the chunks fall."""

    @staticmethod
    def _bad_tails():
        ok = encode_control_frame({"cmd": "ping"})
        body = b"[1,2,3]"

        def header(magic=MAGIC, version=VERSION, kind=KIND_CONTROL,
                   length=len(body), crc=zlib.crc32(body)):
            return struct.Struct(">4sBBII").pack(
                magic, version, kind, length, crc)

        return {
            "magic": b"GET / HTTP/1.1\r\n\r\n",
            "version": header(version=VERSION + 1) + body,
            "kind": header(kind=99) + body,
            "oversize": header(length=MAX_PAYLOAD + 1),
            "crc": ok[:-1] + bytes([ok[-1] ^ 0x01]),
            "json": header() + body,
        }

    @staticmethod
    def _drain(stream, cuts):
        decoder, frames, cause = FrameDecoder(), [], None
        edges = [0, *sorted(cuts), len(stream)]
        try:
            for a, b in zip(edges, edges[1:]):
                frames += decoder.feed(stream[a:b])
        except FrameError as exc:
            frames += exc.frames
            cause = exc.cause
        return frames, cause

    def test_good_frames_before_garbage_in_one_chunk_are_delivered(self):
        good = [encode_message_frame("alpha", CommitAck(
            tid=TID.parse(f"T{i}@alpha"), sender="alpha")) for i in range(3)]
        stream = b"".join(good) + b"XXXX" + bytes(10)
        whole, cause = self._drain(stream, [])
        assert cause == "magic" and len(whole) == 3   # 0 on the parent
        assert (whole, cause) == self._drain(stream, range(1, len(stream)))

    @settings(max_examples=150, deadline=None)
    @given(messages=st.lists(_message_strategy(), max_size=5),
           cause=st.sampled_from(["magic", "version", "kind", "oversize",
                                  "crc", "json", None]),
           data=st.data())
    def test_any_split_yields_the_same_frames_and_cause(
            self, messages, cause, data):
        stream = b"".join(encode_message_frame(m.sender, m) for m in messages)
        if cause is not None:
            stream += self._bad_tails()[cause]
        cuts = data.draw(st.sets(st.integers(min_value=0,
                                             max_value=len(stream))))
        whole = self._drain(stream, [])
        assert whole == self._drain(stream, cuts)
        assert whole == self._drain(stream, range(1, len(stream)))
        frames, got_cause = whole
        assert got_cause == cause
        assert [decode_message_payload(p)[1] for _, p in frames] == messages


_QUORUM = {"abort_quorum": 2, "commit_quorum": 2, "n_sites": 3}
# Declared field type -> JSON values of another type.
_WRONG_VALUES = {
    "TID": ["", ":1", "T1@a:0", 7, ["T1@a"], None],
    "str": [7, ["x"], None, True, {"x": 1}],
    "int": [True, "3", 3.0, None, [3]],
    "bool": [1, 0, "true", None],
    "TwoPhaseVariant": ["maybe", ["optimized"], True, None],
    "Vote": ["maybe", ["yes"], True, None],
    "Outcome": ["maybe", ["committed"], 1, None],
    "Optional[QuorumSpec]": [{**_QUORUM, "n_sites": 3.0},
                             {"n_sites": 1, "commit_quorum": True,
                              "abort_quorum": 1},
                             {**_QUORUM, "n_sites": "3"},
                             {"n_sites": 3}, [3, 2, 2], "q"],
    "Tuple[str, ...]": [["x", 7], "abc", {"a": 1}, None, [None]],
    "Tuple[Tuple[str, str], ...]": [[["a"]], [["a", 1]], [["a", "b", "c"]],
                                    ["ab"], None],
    "Tuple[Tuple[str, int, str], ...]": [[["a", "1", "yes"]],
                                         [["a", True, "yes"]], [["a", 1]],
                                         [[7, 1, "yes"]], None],
    "Dict[str, Any]": [["x"], None, "x", 1],
    "Optional[Dict[str, Any]]": [["x"], "x", 1, True],
}


class TestFuzzRejection:
    """Garbage in -> FrameError with the right cause, never a crash."""

    def _ok_frame(self) -> bytes:
        return encode_message_frame("beta", VoteResponse(
            tid=TID.parse("T7@alpha"), sender="beta", vote=Vote.YES))

    def test_bad_magic(self):
        frame = bytearray(self._ok_frame())
        frame[:4] = b"XXXX"
        with pytest.raises(FrameError) as err:
            FrameDecoder().feed(bytes(frame))
        assert err.value.cause == "magic"

    def test_bad_version(self):
        frame = bytearray(self._ok_frame())
        frame[4] = VERSION + 1
        with pytest.raises(FrameError) as err:
            FrameDecoder().feed(bytes(frame))
        assert err.value.cause == "version"

    def test_bad_kind(self):
        frame = bytearray(self._ok_frame())
        frame[5] = 99
        with pytest.raises(FrameError) as err:
            FrameDecoder().feed(bytes(frame))
        assert err.value.cause == "kind"

    def test_oversized_length_rejected_before_buffering(self):
        header = struct.Struct(">4sBBII").pack(
            MAGIC, VERSION, KIND_MESSAGE, MAX_PAYLOAD + 1, 0)
        with pytest.raises(FrameError) as err:
            FrameDecoder().feed(header)
        assert err.value.cause == "oversize"

    def test_oversize_refused_at_encode_too(self):
        with pytest.raises(FrameError) as err:
            encode_frame(KIND_CONTROL, {"blob": "x" * (MAX_PAYLOAD + 1)})
        assert err.value.cause == "oversize"

    def test_payload_bit_flip_fails_crc(self):
        frame = bytearray(self._ok_frame())
        frame[-1] ^= 0x40
        with pytest.raises(FrameError) as err:
            FrameDecoder().feed(bytes(frame))
        assert err.value.cause == "crc"

    def test_non_json_payload(self):
        body = b"\xff\xfe not json"
        frame = struct.Struct(">4sBBII").pack(
            MAGIC, VERSION, KIND_CONTROL, len(body), zlib.crc32(body)) + body
        with pytest.raises(FrameError) as err:
            FrameDecoder().feed(frame)
        assert err.value.cause == "json"

    def test_non_object_payload(self):
        body = b"[1,2,3]"
        frame = struct.Struct(">4sBBII").pack(
            MAGIC, VERSION, KIND_CONTROL, len(body), zlib.crc32(body)) + body
        with pytest.raises(FrameError) as err:
            FrameDecoder().feed(frame)
        assert err.value.cause == "json"

    @pytest.mark.parametrize("body", [
        b' {"cmd":"ping"}', b'{"cmd":"ping"}\n', b'{"cmd":"ping"}{}',
        b'{"cmd":"ping"}x', b"", b"[" * 5000 + b"]" * 5000],
        ids=["leading-space", "trailing-newline", "second-object",
             "trailing-byte", "empty", "too-deep"])
    def test_a_payload_that_is_not_exactly_one_object(self, body):
        """The encoder writes no whitespace, so one scan of the payload
        must end exactly at its last byte."""
        frame = struct.Struct(">4sBBII").pack(
            MAGIC, VERSION, KIND_CONTROL, len(body), zlib.crc32(body)) + body
        with pytest.raises(FrameError) as err:
            FrameDecoder().feed(frame)
        assert err.value.cause == "json"

    def test_unknown_message_type(self):
        with pytest.raises(FrameError) as err:
            decode_message_payload(
                {"src": "alpha", "msg": {"type": "NoSuchMessage"}})
        assert err.value.cause == "type"

    def test_bad_field_value(self):
        with pytest.raises(FrameError) as err:
            decode_message_payload(
                {"src": "alpha",
                 "msg": {"type": "VoteResponse", "tid": "T1@alpha",
                         "sender": "beta", "vote": "maybe"}})
        assert err.value.cause == "fields"

    @pytest.mark.parametrize("declared", sorted(_WRONG_VALUES))
    def test_a_value_of_another_type_is_refused(self, declared):
        """Each declared field type, fed values JSON can carry but the
        type is not: a ``bool`` is no ``int``, a TID names a family."""
        cls, name = next((cls, f.name) for cls in ANY_MESSAGE
                         for f in dataclasses.fields(cls)
                         if f.type == declared)
        good = message_to_dict(_golden(cls))
        assert message_from_dict(good) == _golden(cls)
        for wrong in _WRONG_VALUES[declared]:
            with pytest.raises(FrameError) as err:
                decode_message_payload(
                    {"src": "alpha", "msg": {**good, name: wrong}})
            assert err.value.cause == "fields", (name, wrong)

    def test_every_declared_type_has_wrong_values(self):
        assert set(_WRONG_VALUES) == {f.type for cls in ANY_MESSAGE
                                      for f in dataclasses.fields(cls)}

    def test_a_left_out_field_takes_its_default(self):
        msg = decode_message_payload({"src": "alpha", "msg": {
            "type": "PrepareRequest", "tid": "T9@beta", "sender": "beta"}})[1]
        assert msg == PrepareRequest(TID("T9@beta"), "beta")
        with pytest.raises(FrameError) as err:
            decode_message_payload({"src": "alpha", "msg": {
                "type": "PrepareRequest", "tid": "T9@beta"}})
        assert err.value.cause == "fields"

    def test_missing_envelope(self):
        with pytest.raises(FrameError) as err:
            decode_message_payload({"msg": {"type": "CommitAck"}})
        assert err.value.cause == "envelope"

    def test_truncated_frame_just_waits(self):
        frame = self._ok_frame()
        decoder = FrameDecoder()
        assert decoder.feed(frame[:-3]) == []
        assert decoder.buffered == len(frame) - 3
        frames = decoder.feed(frame[-3:])
        assert len(frames) == 1

    @settings(max_examples=200, deadline=None)
    @given(junk=st.binary(min_size=0, max_size=64))
    def test_arbitrary_bytes_never_crash_decoder(self, junk):
        decoder = FrameDecoder()
        try:
            decoder.feed(junk)
        except FrameError:
            pass  # the contract: typed rejection, nothing else

    @settings(max_examples=100, deadline=None)
    @given(junk=st.binary(min_size=1, max_size=32), cut=st.data())
    def test_corrupted_valid_frame_never_decodes_wrong(self, junk, cut):
        """Splice junk into a valid frame: either it still decodes to the
        original message or it raises; a third outcome is a codec bug."""
        frame = self._ok_frame()
        pos = cut.draw(st.integers(min_value=0, max_value=len(frame)))
        mutated = frame[:pos] + junk + frame[pos:]
        decoder = FrameDecoder()
        try:
            frames = decoder.feed(mutated)
        except FrameError:
            return
        for kind, payload in frames:
            if kind == KIND_MESSAGE:
                try:
                    src, msg = decode_message_payload(payload)
                except FrameError:
                    continue
                assert (src, msg) == ("beta", VoteResponse(
                    tid=TID.parse("T7@alpha"), sender="beta", vote=Vote.YES))


class TestLiveSiteDropsGarbage:
    """The end-to-end robustness contract: a LiveSite fed wire garbage
    drops the connection, counts the drop per cause, and keeps serving
    (mirror of ``Lan.drop_counts``)."""

    def test_garbage_then_valid_control(self, tmp_path):
        import asyncio
        from repro.live.cluster import control
        from repro.live.site import LiveSite

        async def scenario():
            site = LiveSite("alpha", str(tmp_path))
            await site.start()
            loop = asyncio.get_running_loop()

            async def blast(data: bytes) -> None:
                _, writer = await asyncio.open_connection(
                    "127.0.0.1", site.port)
                writer.write(data)
                await writer.drain()
                writer.close()

            await blast(b"GET / HTTP/1.1\r\n\r\n")             # magic
            bad_ver = bytearray(encode_control_frame({"cmd": "ping"}))
            bad_ver[4] = VERSION + 1
            await blast(bytes(bad_ver))                          # version
            flipped = bytearray(encode_control_frame({"cmd": "ping"}))
            flipped[-1] ^= 0x01
            await blast(bytes(flipped))                          # crc
            await blast(struct.Struct(">4sBBII").pack(
                MAGIC, VERSION, KIND_CONTROL, MAX_PAYLOAD + 9, 0))  # oversize
            ping = encode_control_frame({"cmd": "ping"})
            await blast(ping[:len(ping) // 2])                   # torn
            await asyncio.sleep(0.2)
            # Still alive and serving after five hostile connections.
            status = await loop.run_in_executor(
                None, lambda: control(str(tmp_path), "alpha",
                                      {"cmd": "status"}))
            await site.stop()
            return status

        status = asyncio.run(scenario())
        assert status["ok"]
        drops = status["drops"]
        assert drops["magic"] == 1
        assert drops["version"] == 1
        assert drops["crc"] == 1
        assert drops["oversize"] == 1
        assert drops["torn"] == 1
        assert drops["total"] == 5

    def test_good_frames_before_garbage_reach_the_host(self, tmp_path):
        """One TCP chunk holding three good frames and then garbage: the
        three are delivered, then the connection is severed and counted
        (the parent delivered none of them)."""
        import asyncio
        from repro.live.site import LiveSite

        async def scenario():
            site = LiveSite("alpha", str(tmp_path))
            await site.start()
            delivered = []
            site.host.deliver = lambda src, message: delivered.append(
                (src, message))
            acks = [CommitAck(tid=TID.parse(f"T{i}@alpha"), sender="beta")
                    for i in range(3)]
            _, writer = await asyncio.open_connection("127.0.0.1", site.port)
            writer.write(b"".join(encode_message_frame("beta", ack)
                                  for ack in acks) + b"GET / HTTP/1.1\r\n")
            await writer.drain()
            for _ in range(200):
                if site.substrate.drop_counts()["total"]:
                    break
                await asyncio.sleep(0.01)
            await asyncio.sleep(0.01)
            drops = site.substrate.drop_counts()
            writer.close()
            await site.stop()
            return acks, delivered, drops

        acks, delivered, drops = asyncio.run(scenario())
        assert delivered == [("beta", ack) for ack in acks]
        assert drops == {"magic": 1, "total": 1}

    def test_a_mistyped_field_is_a_counted_drop(self, tmp_path):
        """``"sender": 7`` is not a site: the frame is dropped and
        counted ``fields`` and no outbox opens for a peer named 7 (an
        unchecked decode delivered it, and the vote went to ``7``)."""
        import asyncio
        from repro.live.site import LiveSite

        async def scenario():
            site = LiveSite("alpha", str(tmp_path))
            await site.start()
            _, writer = await asyncio.open_connection("127.0.0.1", site.port)
            writer.write(encode_frame(KIND_MESSAGE, {"src": "beta", "msg": {
                "type": "PrepareRequest", "tid": "T9@beta", "sender": 7}}))
            await writer.drain()
            for _ in range(200):
                if site.substrate.drop_counts()["total"]:
                    break
                await asyncio.sleep(0.01)
            await asyncio.sleep(0.05)
            seen = (site.substrate.drop_counts(),
                    dict(site.substrate._out_queues), dict(site.host.machines))
            writer.close()
            await site.stop()
            return seen

        drops, outboxes, machines = asyncio.run(scenario())
        assert drops == {"fields": 1, "total": 1}
        assert outboxes == {} and machines == {}
