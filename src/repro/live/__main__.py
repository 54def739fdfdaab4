"""CLI for the live deployment mode.

Subcommands::

    python -m repro.live site --name alpha --dir /tmp/run
        One LiveSite process (used by the cluster driver; runs until a
        control "stop" or SIGTERM — or a failed WAL write, which stops
        it with exit status 1, as does an input that raised).

    python -m repro.live conformance [--dir DIR]
        Run the scripted scenario under the simulated LAN and under live
        loopback TCP; assert byte-identical transcripts.

    python -m repro.live demo {happy,2pc-kill,paxos-leader-kill} [--dir DIR]
        Multi-process demos with real kill -9 crash windows.

    python -m repro.live smoke
        Everything CI's live-smoke job runs: conformance + both kill
        demos.  Exits nonzero on any failure.
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys
import tempfile
import time
from typing import Optional


def _run_site(args: argparse.Namespace) -> int:
    from repro.live.site import LiveSite

    async def main() -> Optional[Exception]:
        site = LiveSite(args.name, args.dir,
                        hold_force_tokens=tuple(args.hold))
        loop = asyncio.get_running_loop()
        loop.add_signal_handler(
            signal.SIGTERM, lambda: asyncio.ensure_future(site.stop()))
        await site.start()
        print(f"[{args.name}] serving on 127.0.0.1:{site.port} "
              f"(wal={site.wal.path}, recovered={site.recovered})",
              flush=True)
        await site.serve_until_stopped()
        return site.failure

    failure = asyncio.run(main())
    if failure is not None:
        print(f"[{args.name}] fail-stop: {failure!r}",
              file=sys.stderr, flush=True)
        return 1
    return 0


def _run_conformance(run_dir: Optional[str]) -> int:
    from repro.live.conformance import run_conformance

    started = time.monotonic()
    if run_dir is None:
        with tempfile.TemporaryDirectory(prefix="repro-live-") as tmp:
            report = run_conformance(tmp)
    else:
        report = run_conformance(run_dir)
    print(report.summary())
    print(f"({time.monotonic() - started:.1f}s)")
    return 0 if report.match else 1


def _run_demo(name: str, run_dir: Optional[str]) -> int:
    from repro.live.cluster import (
        ClusterError,
        demo_happy_path,
        demo_paxos_leader_kill,
        demo_two_phase_subordinate_kill,
    )

    demos = {"happy": demo_happy_path,
             "2pc-kill": demo_two_phase_subordinate_kill,
             "paxos-leader-kill": demo_paxos_leader_kill}
    demo = demos[name]

    def run(directory: str) -> int:
        try:
            demo(directory)
        except ClusterError as exc:
            print(f"demo {name} FAILED: {exc}", file=sys.stderr)
            return 1
        print(f"demo {name} OK")
        return 0

    if run_dir is None:
        with tempfile.TemporaryDirectory(prefix="repro-live-") as tmp:
            return run(tmp)
    return run(run_dir)


def _run_smoke() -> int:
    started = time.monotonic()
    failures = 0
    with tempfile.TemporaryDirectory(prefix="repro-smoke-conf-") as tmp:
        failures += _run_conformance(tmp)
    for demo in ("2pc-kill", "paxos-leader-kill"):
        with tempfile.TemporaryDirectory(prefix=f"repro-smoke-{demo}-") as tmp:
            failures += _run_demo(demo, tmp)
    elapsed = time.monotonic() - started
    print(f"live smoke: {'FAILED' if failures else 'OK'} in {elapsed:.1f}s")
    return 1 if failures else 0


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.live",
                                     description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_site = sub.add_parser("site", help="run one LiveSite process")
    p_site.add_argument("--name", required=True)
    p_site.add_argument("--dir", required=True,
                        help="run directory (WALs + port files)")
    p_site.add_argument("--hold", action="append", default=[],
                        metavar="TOKEN",
                        help="wedge after fsyncing this force token "
                             "(deterministic crash window)")

    p_conf = sub.add_parser("conformance",
                            help="sim vs live transcript equality")
    p_conf.add_argument("--dir", default=None)

    p_demo = sub.add_parser("demo", help="multi-process kill -9 demos")
    p_demo.add_argument("name",
                        choices=["happy", "2pc-kill", "paxos-leader-kill"])
    p_demo.add_argument("--dir", default=None)

    sub.add_parser("smoke", help="conformance + kill demos (CI)")

    args = parser.parse_args(argv)
    if args.command == "site":
        return _run_site(args)
    if args.command == "conformance":
        return _run_conformance(args.dir)
    if args.command == "demo":
        return _run_demo(args.name, args.dir)
    return _run_smoke()


if __name__ == "__main__":
    sys.exit(main())
