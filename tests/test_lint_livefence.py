"""live-io-fence: asyncio/socket/selectors/os.fsync stay inside
repro/live.  Seeded-negative trees prove the rule fires on every leak
form; the real tree must be clean with no baseline entries — the fence,
like flow-sansio-purity, holds at zero."""

import textwrap
from pathlib import Path

from repro.lint import run_lint


def _write(root: Path, rel: str, source: str) -> None:
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))


def _fence(root: Path):
    report = run_lint(root=root, rule_ids=["live-io-fence"])
    return [f for f in report.findings if f.rule == "live-io-fence"]


def test_relative_import_of_a_project_module_is_no_leak(tmp_path):
    """``from .selectors import ...`` names the package's own module,
    not the stdlib one."""
    _write(tmp_path, "sim/selectors.py", """
        def pick(xs):
            return xs[0]
        """)
    _write(tmp_path, "sim/poller.py", """
        from .selectors import pick
        """)
    assert _fence(tmp_path) == []


class TestSeededLeaks:
    def test_plain_import_asyncio_outside_live(self, tmp_path):
        _write(tmp_path, "net/fastpath.py", """
            import asyncio

            def go():
                return asyncio.get_event_loop()
            """)
        findings = _fence(tmp_path)
        assert len(findings) == 1
        assert "asyncio" in findings[0].message

    def test_from_socket_import(self, tmp_path):
        _write(tmp_path, "servers/push.py", """
            from socket import create_connection
            """)
        assert len(_fence(tmp_path)) == 1

    def test_submodule_and_selectors(self, tmp_path):
        _write(tmp_path, "sim/poller.py", """
            import selectors
            import asyncio.streams
            """)
        assert len(_fence(tmp_path)) == 2

    def test_from_os_import_fsync(self, tmp_path):
        _write(tmp_path, "log/disk.py", """
            from os import fsync

            def flush(fh):
                fsync(fh.fileno())
            """)
        findings = _fence(tmp_path)
        assert len(findings) == 1
        assert "force" in findings[0].message  # points at the vocabulary

    def test_os_fsync_attribute(self, tmp_path):
        _write(tmp_path, "log/disk.py", """
            import os

            def flush(fh):
                os.fsync(fh.fileno())
            """)
        assert len(_fence(tmp_path)) == 1

    def test_method_named_fsync_flagged_too(self, tmp_path):
        _write(tmp_path, "log/disk.py", """
            def flush(wal):
                wal.fsync()
            """)
        assert len(_fence(tmp_path)) == 1

    def test_function_call_named_fsync_in_core(self, tmp_path):
        _write(tmp_path, "core/machine.py", """
            import asyncio

            async def run():
                await asyncio.sleep(1)
            """)
        assert len(_fence(tmp_path)) == 1


class TestLicensedUses:
    def test_live_package_is_exempt(self, tmp_path):
        _write(tmp_path, "live/site.py", """
            import asyncio
            import socket
            import selectors
            import os

            def flush(fh):
                os.fsync(fh.fileno())
            """)
        assert _fence(tmp_path) == []

    def test_string_mentions_do_not_trip(self, tmp_path):
        _write(tmp_path, "lint/rules.py", """
            PREFIXES = ("socket.", "asyncio.")
            DOC = "call os.fsync here"
            """)
        assert _fence(tmp_path) == []

    def test_os_without_fsync_is_fine(self, tmp_path):
        _write(tmp_path, "obs/export.py", """
            import os

            def here():
                return os.path.join(os.getcwd(), "x")
            """)
        assert _fence(tmp_path) == []


class TestRealTree:
    def test_repro_tree_is_clean_with_no_baseline(self, tree_lint):
        """The fence holds at zero on the real tree: repro.core,
        repro.sim, repro.net, repro.servers, repro.log never touch the
        live-substrate primitives, with nothing grandfathered."""
        leaks = [f for f in tree_lint.report.findings
                 if f.rule == "live-io-fence"]
        assert leaks == []

    def test_sansio_purity_still_clean_too(self, tree_lint):
        """The pre-existing purity proof is unaffected by the new live
        package (live/ is outside core/, so nothing changed scope)."""
        assert [f for f in tree_lint.report.findings
                if f.rule == "flow-sansio-purity"] == []
