"""Live-wire deployment mode: the sans-IO machines over real IO.

Every commit protocol in this repo — presumed-abort 2PC, the
non-blocking quorum protocol, and Paxos Commit — is a pure
effect-emitting state machine (:mod:`repro.core`).  The simulator
interprets their effects over a modelled LAN and disk; this package
interprets the *same* effects over asyncio TCP sockets and a real
fsync-backed write-ahead log file, without touching a line of protocol
logic:

- :mod:`repro.live.codec` — versioned, length-prefixed, CRC-checked
  frames carrying :mod:`repro.core.messages` on the wire;
- :mod:`repro.live.walfile` — an on-disk WAL whose ``force`` is a real
  ``fsync``, readable by :func:`repro.servers.recovery.analyze`;
- :mod:`repro.live.host` — the substrate-agnostic engine: one inbox
  under the effect interpreter (:mod:`repro.core.interpreter`) that it
  shares with the simulated TranMan;
- :mod:`repro.live.site` — ``LiveSite``: one process hosting machines
  behind TCP transport, the WAL, and crash recovery;
- :mod:`repro.live.conformance` — runs one scripted scenario under the
  simulated LAN and under live loopback sockets and asserts the two
  canonicalized protocol transcripts are byte-identical, with the
  simulated TranMan as a third leg;
- :mod:`repro.live.cluster` — multi-process demo cluster with
  deterministic ``kill -9`` windows and restart-with-recovery.

``python -m repro.live --help`` for the CLI.

This is the **only** package allowed to import asyncio/socket or call
``os.fsync`` — the ``live-io-fence`` lint rule keeps it that way, so
``repro.core``/``repro.sim`` stay provably sans-IO.
"""
