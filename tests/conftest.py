"""Shared fixtures for the test suite."""

from __future__ import annotations

import time
from types import SimpleNamespace

import pytest

from repro.config import CostModel, SystemConfig, rt_pc_profile
from repro.lint import run_lint
from repro.sim.kernel import Kernel
from repro.sim.process import Process
from repro.sim.rng import RngStreams
from repro.sim.tracing import Tracer
from repro.system import CamelotSystem


@pytest.fixture
def kernel() -> Kernel:
    return Kernel()


@pytest.fixture
def tracer() -> Tracer:
    return Tracer()


@pytest.fixture
def cost() -> CostModel:
    return rt_pc_profile()


@pytest.fixture
def rng() -> RngStreams:
    return RngStreams(0)


def run_proc(kernel: Kernel, body, timeout_ms: float = 120_000.0):
    """Run a generator to completion on a kernel; return its value."""
    proc = Process(kernel, body, name="test-proc")
    deadline = kernel.now + timeout_ms
    while proc.alive and kernel.now < deadline:
        if not kernel.step():
            break
    assert not proc.alive, "test process did not finish"
    return proc.done.value


@pytest.fixture
def two_sites() -> CamelotSystem:
    return CamelotSystem(SystemConfig(sites={"a": 1, "b": 1}))


@pytest.fixture
def three_sites() -> CamelotSystem:
    return CamelotSystem(SystemConfig(sites={"a": 1, "b": 1, "c": 1}))


@pytest.fixture(scope="session")
def tree_lint() -> SimpleNamespace:
    """One whole-tree lint run per session, timed from parse to report.

    Each tree-clean test filters its own rule's findings out of
    ``report``.
    """
    start = time.perf_counter()
    report = run_lint()
    return SimpleNamespace(report=report,
                           seconds=time.perf_counter() - start)


@pytest.fixture(scope="session")
def transition_graph() -> dict:
    """The fixed corpus run once per session under the transition
    recorder: ``graph`` and the fixed fuzz schedules run per family."""
    from tests.transition_graph import record_corpus
    return record_corpus()
