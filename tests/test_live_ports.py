"""repro.live.ports: the port hygiene that keeps live clusters off the
flaky-CI treadmill — ephemeral binds and the atomic port-file handshake
restarted sites use to find each other."""

import threading

import pytest

from repro.live.ports import (
    bind_server_socket,
    clear_port_file,
    port_file,
    read_port_file,
    wait_port_file,
    write_port_file,
)


class TestBind:
    def test_ephemeral_bind_gets_a_real_port(self):
        sock = bind_server_socket()
        try:
            host, port = sock.getsockname()
            assert host == "127.0.0.1"
            assert 0 < port < 65536
        finally:
            sock.close()

    def test_two_ephemeral_binds_never_collide(self):
        a = bind_server_socket()
        b = bind_server_socket()
        try:
            assert a.getsockname()[1] != b.getsockname()[1]
        finally:
            a.close()
            b.close()


class TestPortFiles:
    def test_write_then_read(self, tmp_path):
        write_port_file(str(tmp_path), "alpha", 12345)
        assert read_port_file(str(tmp_path), "alpha") == 12345

    def test_missing_reads_none(self, tmp_path):
        assert read_port_file(str(tmp_path), "ghost") is None

    def test_garbage_reads_none(self, tmp_path):
        (tmp_path / "alpha.port").write_text("not a port\n")
        assert read_port_file(str(tmp_path), "alpha") is None
        (tmp_path / "beta.port").write_text("99999999\n")
        assert read_port_file(str(tmp_path), "beta") is None

    def test_rewrite_is_atomic_replace(self, tmp_path):
        write_port_file(str(tmp_path), "alpha", 1111)
        write_port_file(str(tmp_path), "alpha", 2222)
        assert read_port_file(str(tmp_path), "alpha") == 2222
        # No temp droppings left behind.
        leftovers = [p.name for p in tmp_path.iterdir()
                     if p.name != "alpha.port"]
        assert leftovers == []

    def test_clear_is_idempotent(self, tmp_path):
        write_port_file(str(tmp_path), "alpha", 1111)
        clear_port_file(str(tmp_path), "alpha")
        assert read_port_file(str(tmp_path), "alpha") is None
        clear_port_file(str(tmp_path), "alpha")  # second time: no error

    def test_wait_blocks_until_published(self, tmp_path):
        def publish_late():
            write_port_file(str(tmp_path), "gamma", 4321)

        timer = threading.Timer(0.15, publish_late)
        timer.start()
        try:
            assert wait_port_file(str(tmp_path), "gamma",
                                  timeout_s=5.0) == 4321
        finally:
            timer.cancel()

    def test_wait_times_out(self, tmp_path):
        with pytest.raises(TimeoutError):
            wait_port_file(str(tmp_path), "never", timeout_s=0.2)

    def test_path_shape(self, tmp_path):
        assert port_file(str(tmp_path), "x").endswith("/x.port")
