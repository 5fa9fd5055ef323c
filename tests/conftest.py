"""Shared fixtures for the test suite.

Set ``M3R_SERVICE=1`` to route every ``make_m3r``/``make_hadoop`` engine
through a single-tenant :class:`repro.service.JobService` client: the
whole suite then exercises service admission, fair scheduling and the
wait/re-raise path, and must observe byte-identical behaviour (the
service's determinism contract).
"""

from __future__ import annotations

import os

import pytest

from repro import hadoop_engine, m3r_engine
from repro.fs import InMemoryFileSystem, SimulatedHDFS
from repro.sim import Cluster


@pytest.fixture
def cluster4() -> Cluster:
    return Cluster(num_nodes=4)


@pytest.fixture
def hdfs(cluster4: Cluster) -> SimulatedHDFS:
    return SimulatedHDFS(cluster4, block_size=64 * 1024, replication=2)


@pytest.fixture
def memfs() -> InMemoryFileSystem:
    return InMemoryFileSystem()


@pytest.fixture
def hadoop4():
    """A 4-node Hadoop engine over its own HDFS."""
    fs = SimulatedHDFS(Cluster(4), block_size=64 * 1024, replication=2)
    engine = hadoop_engine(filesystem=fs)
    yield engine
    engine.shutdown()


@pytest.fixture
def m3r4():
    """A 4-place M3R engine over its own HDFS."""
    fs = SimulatedHDFS(Cluster(4), block_size=64 * 1024, replication=2)
    engine = m3r_engine(filesystem=fs)
    yield engine
    engine.shutdown()


def _maybe_service(engine):
    """Under M3R_SERVICE=1, hand back a service tenant client instead of
    the bare engine (drop-in: unknown attributes delegate to the engine)."""
    if os.environ.get("M3R_SERVICE") != "1":
        return engine
    from repro.service import JobService

    return JobService(engine).register_tenant("suite")


def make_hadoop(num_nodes: int = 4, **kwargs):
    fs = SimulatedHDFS(Cluster(num_nodes), block_size=64 * 1024, replication=2)
    return _maybe_service(hadoop_engine(filesystem=fs, **kwargs))


def make_m3r(num_nodes: int = 4, **kwargs):
    fs = SimulatedHDFS(Cluster(num_nodes), block_size=64 * 1024, replication=2)
    return _maybe_service(m3r_engine(filesystem=fs, **kwargs))
