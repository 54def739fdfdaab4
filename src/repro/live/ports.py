"""Test-harness port hygiene for the live cluster.

Busy CI runners make fixed ports a flake factory, so:

- servers bind **ephemeral** loopback ports, always: the kernel picks
  one that never collides, and nobody needs to know it in advance;
- discovery runs over a **port-file handshake**: each site atomically
  publishes ``<dir>/<site>.port`` (write temp + ``os.replace``, so a
  reader never sees a half-written file), and peers re-read the file on
  every connection failure — a restarted site with a fresh port is
  found without any coordinator.
"""

from __future__ import annotations

import os
import socket
import time
from typing import Optional


def bind_server_socket() -> socket.socket:
    """A bound, listening-ready TCP socket on an ephemeral loopback
    port; the port file tells peers where it landed."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    try:
        sock.bind(("127.0.0.1", 0))
    except OSError:
        sock.close()
        raise
    return sock


def port_file(directory: str, site: str) -> str:
    return os.path.join(directory, f"{site}.port")


def write_port_file(directory: str, site: str, port: int) -> None:
    """Atomically publish this site's port for peer discovery."""
    os.makedirs(directory, exist_ok=True)
    path = port_file(directory, site)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="ascii") as fh:
        fh.write(f"{port}\n")
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def clear_port_file(directory: str, site: str) -> None:
    try:
        os.unlink(port_file(directory, site))
    except FileNotFoundError:
        pass


def read_port_file(directory: str, site: str) -> Optional[int]:
    """The peer's published port, or None if not (validly) published yet."""
    try:
        with open(port_file(directory, site), "r", encoding="ascii") as fh:
            text = fh.read().strip()
    except FileNotFoundError:
        return None
    try:
        port = int(text)
    except ValueError:
        return None
    return port if 0 < port < 65536 else None


def wait_port_file(directory: str, site: str,
                   timeout_s: float = 10.0) -> int:
    """Block (wall clock) until the peer publishes; driver-side helper."""
    deadline = time.monotonic() + timeout_s
    while True:
        port = read_port_file(directory, site)
        if port is not None:
            return port
        if time.monotonic() >= deadline:
            raise TimeoutError(
                f"no port file for site {site!r} in {directory} "
                f"after {timeout_s}s")
        time.sleep(0.05)
