"""One wire, one tap: what ``Transcript.tap`` sees, what an untapped
live site keeps, and the simulated ``SiteHost`` cluster on the
``Lan``'s own fault knobs and over many retention horizons."""

import asyncio
import socket
from collections import deque

import pytest

from repro.core.messages import FamilyAbort, NbAbortJoin, PrepareRequest
from repro.core.outcomes import Outcome
from repro.core.tid import TID
from repro.live.scenario import conformance_cost
from repro.live.simhost import build_sim_cluster
from repro.live.codec import encode_message_frame, message_room, \
    message_text
from repro.live.ports import write_port_file
from repro.live.site import OUTBOX_MAX_BYTES, LiveSite

SITES = ["alpha", "beta", "gamma"]


def _types_sent(transcript, pair):
    return [m["type"] for m in transcript.pair_sequences().get(pair, [])]


def test_a_tapped_host_records_multicast_fanout_and_family_abort_ack():
    """Both leave through the engine's own ``send`` primitive, the one
    the tap wraps — not through the substrate behind its back."""
    kernel, hosts, transcript = build_sim_cluster(SITES, conformance_cost())
    tid = TID("T9@alpha")
    hosts["alpha"].multicast(
        ("beta", "gamma"), PrepareRequest(tid=tid, sender="alpha"))
    assert _types_sent(transcript, "alpha->beta") == ["PrepareRequest"]
    assert _types_sent(transcript, "alpha->gamma") == ["PrepareRequest"]
    hosts["beta"].deliver("gamma", FamilyAbort(tid=tid, sender="gamma"))
    assert _types_sent(transcript, "beta->gamma") == ["FamilyAbortAck"]


def _sizes(substrate):
    """Length of every container the substrate itself holds (the host's
    protocol tables and the WAL are ROADMAP item 4's, not the wire's)."""
    sizes = {}
    for name, value in vars(substrate).items():
        if name in ("host", "wal"):
            continue
        for key, part in (value.items() if isinstance(value, dict)
                          else [(None, value)]):
            if hasattr(part, "pending"):     # a delay line, an outbox
                sizes[name, key] = part.pending
            elif isinstance(part, (dict, list, set, deque)):
                sizes[name, key] = len(part)
    return sizes


def test_an_untapped_live_site_keeps_no_per_message_state(tmp_path):
    async def commits(n):
        loop = asyncio.get_running_loop()
        sites = {name: LiveSite(name, str(tmp_path), fsync=False)
                 for name in SITES}
        for site in sites.values():
            assert not hasattr(site, "transcript")
            await site.start()
        alpha = sites["alpha"].host
        done = loop.create_future()
        finished = [0]
        sizes = []
        # A peer that accepts and never reads, on a small receive buffer
        # so that the kernel soon stops taking bytes from the sender.
        stall = socket.socket()
        stall.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        stall.bind(("127.0.0.1", 0))
        stall.listen()
        stall.setblocking(False)
        write_port_file(str(tmp_path), "epsilon", stall.getsockname()[1])
        stalled = {}

        async def settle():
            while not all(site.settled for site in sites.values()):
                await asyncio.sleep(0.005)
            # The host's per-family tables: inputs to run, and families
            # parked on a force with the inputs queued behind each.
            sizes.append({name: {**_sizes(site),
                                 "inbox": len(site.host._inbox),
                                 "parked": len(site.host._parked)}
                          for name, site in sites.items()})

        def on_complete(tid, outcome):
            finished[0] += 1
            if finished[0] in (n // 4, n):
                done.set_result(None)
            else:
                alpha.begin_commit("2pc", ["beta", "gamma"])

        alpha.on_complete = on_complete
        conn = None
        try:
            for _ in range(2):      # to n // 4 commits, then on to n
                alpha.begin_commit("2pc", ["beta", "gamma"])
                await asyncio.wait_for(done, timeout=30.0)
                done = loop.create_future()
                await asyncio.wait_for(settle(), timeout=30.0)
            # A peer that never comes up (no port file): its outbox
            # fills to the bound and no further, the rest is counted.
            substrate = sites["alpha"]
            for _ in range(held + 25):
                substrate.send("delta", message)
            sizes.append(_sizes(substrate))
            drops = substrate.drop_counts()
            # The stalled reader: send until the kernel's buffers are
            # full and the bound is reached.  What the site holds for
            # it, outbox plus transport buffer, stops there.
            substrate.send("epsilon", message)
            conn, _ = await asyncio.wait_for(loop.sock_accept(stall), 10.0)
            link = substrate._out_queues["epsilon"]
            sent = 1
            for _ in range(400):
                for _ in range(held // 8):
                    substrate.send("epsilon", message)
                sent += held // 8
                overflow = substrate.frame_drops["overflow"] - 25
                if overflow:
                    break
                await asyncio.sleep(0.01)
            # Held after the flush has framed the outbox into the
            # transport's buffer: headers and envelopes included.
            await asyncio.sleep(0)
            assert link.pending == 0
            stalled["held"] = link.transport.get_write_buffer_size()
            stalled["overflow"] = overflow
            stalled["entered"] = sent - overflow
            for _ in range(25):
                substrate.send("epsilon", message)
            stalled["more"] = substrate.frame_drops["overflow"] - 25 - overflow
            # ... and the sending site keeps serving its other peers.
            alpha.on_complete = lambda tid, outcome: done.set_result(outcome)
            alpha.begin_commit("2pc", ["beta", "gamma"])
            stalled["outcome"] = await asyncio.wait_for(done, timeout=30.0)
        finally:
            if conn is not None:
                conn.close()
            stall.close()
            for site in sites.values():
                await site.stop()
        return finished[0], sizes, drops, stalled

    message = PrepareRequest(tid=TID("T9@alpha"), sender="alpha")
    # The outbox holds message texts, each counted with the separator
    # it takes in a frame; the flush frames them.
    text = len(message_text(message)) + 1
    held = OUTBOX_MAX_BYTES // text
    # What a frame adds to its texts: header and envelope, less the one
    # separator its last text does not take.  The bound leaves these
    # out, so one flush may pass it by that much per frame it makes.
    per_frame = len(encode_message_frame("alpha", message)) - text
    frames = OUTBOX_MAX_BYTES // message_room("alpha") + 1
    finished, (early, late, full), drops, stalled = asyncio.run(commits(200))
    assert finished == 200
    # Four times the messages, the same sizes: the per-peer outboxes,
    # both delay lines and the host's per-family tables drain to empty,
    # the rest is keyed by peer or kind.
    assert early == late
    assert late["alpha"]["_out_queues", "beta"] == 0
    assert all(site["inbox"] == site["parked"] == 0 for site in late.values())
    assert full["_out_queues", "delta"] == held
    assert full["_out_queues", "beta"] == 0
    assert drops == {"overflow": 25, "total": 25}
    # The stalled reader: held bytes stop at the bound, with the kernel
    # holding what it took (more than nothing) beyond it.
    assert OUTBOX_MAX_BYTES - text < stalled["held"] \
        <= OUTBOX_MAX_BYTES + frames * per_frame
    assert stalled["overflow"] > 0 and stalled["more"] == 25
    assert stalled["entered"] * text > stalled["held"]
    assert stalled["outcome"] is Outcome.COMMITTED


def test_a_sim_cluster_keeps_decided_bookkeeping_for_one_window():
    """The edge's retire log under ``SiteHost``: one commit a second,
    in turn per family, and one abort pledge a second asked of gamma,
    for three and a half retention horizons of virtual time.
    Tombstones, pledges and completions stop growing once the first
    horizon has passed, and the early transactions are gone."""
    cost = conformance_cost()
    horizon = cost.orphan_timeout + cost.protocol_timeout
    kernel, hosts, _ = build_sim_cluster(SITES, cost)
    for host in hosts.values():
        host.start_sweeps()
    tids, sizes = [], []

    def one_round(i):
        alpha = hosts["alpha"]
        tids.append(str(alpha.begin_commit(
            ("2pc", "nb", "paxos")[i % 3], ["beta", "gamma"])))
        # A takeover at beta asks gamma to pledge for a transaction
        # gamma never saw: a stateless, forced pledge.
        hosts["gamma"].deliver("beta", NbAbortJoin(
            tid=TID(f"T{i}@beta"), sender="beta"))

    def snapshot():
        sizes.append({site: (len(host.tombstones), len(host.pledges),
                             len(host.completions))
                      for site, host in hosts.items()})

    rounds = int(3.5 * horizon / 1_000.0)
    for i in range(rounds):
        kernel.schedule(i * 1_000.0, lambda i=i: one_round(i))
    for at in range(40_000, rounds * 1_000, 30_000):
        kernel.schedule(at + 900.0, snapshot)
    kernel.run(until=rounds * 1_000.0)
    first, *later = sizes
    assert len(later) >= 2 and all(size == first for size in later)
    assert first["gamma"][1] > 0 and first["alpha"][2] > 0
    assert all(0 < tombs < rounds / 2 for tombs, _, _ in first.values())
    for host in hosts.values():
        assert tids[0] not in host.tombstones
        assert tids[0] not in host.completions
        assert tids[-1] in {**host.tombstones, **host.completions}
    assert "T0@beta" not in hosts["gamma"].pledges


@pytest.mark.parametrize("family", ["2pc", "nb", "paxos"])
def test_sim_cluster_resolves_under_duplicates_then_loss(family):
    """ROADMAP item 3A's first step: the cluster rides ``Lan`` +
    ``DatagramService``, so the LAN's fault knobs reach ``SiteHost``."""
    for knob, value in (("duplicate_probability", 1.0),
                        ("loss_probability", 0.2)):
        kernel, hosts, _ = build_sim_cluster(SITES, conformance_cost())
        lan = hosts["alpha"].substrate.dgram.lan
        setattr(lan, knob, value)
        for host in hosts.values():
            host.start_sweeps()
        tids = [str(hosts["alpha"].begin_commit(family, ["beta", "gamma"]))
                for _ in range(5)]
        kernel.run(until=120_000.0)
        assert lan.duplicated > 0 or lan.dropped_loss > 0
        for tid in tids:
            outcomes = {site: {**host.tombstones, **host.completions}.get(tid)
                        for site, host in hosts.items()}
            assert len(set(outcomes.values())) == 1, (knob, outcomes)
            assert outcomes["alpha"] is not None
        assert all(host.idle for host in hosts.values()), knob
