"""Simulated HDFS: namenode metadata, datanode block maps, replication.

The engines interact with HDFS in exactly three ways, all reproduced here:

* **metadata RPCs** — every namespace operation is a namenode round-trip
  (the engines charge ``namenode_op`` time per RPC; this is why small Hadoop
  jobs pay visible overhead even before any data moves);
* **block placement** — a file is carved into blocks, each replicated onto
  ``replication`` datanodes; HDFS's first replica lands on the writing node
  ("generally co-located with the compute node", paper Section 3.1), which
  is what makes the next job's data-local scheduling possible;
* **locality metadata** — ``get_block_locations`` reports the hostnames
  holding a byte range; both schedulers feed this to their placement logic.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.fs.filesystem import FileSystem, normalize_path
from repro.sim.cluster import Cluster


@dataclass(frozen=True)
class BlockLocation:
    """One block of one file: its byte range and the datanodes holding it."""

    offset: int
    length: int
    hosts: List[str]


class SimulatedHDFS(FileSystem):
    """HDFS over a :class:`~repro.sim.cluster.Cluster`.

    Placement policy (deterministic, so runs reproduce exactly): the first
    replica goes to the writing node when known, otherwise to a node chosen
    by hashing the path and block index; further replicas go to the next
    nodes in id order (standing in for rack-aware placement — the paper's
    cluster is a single rack).
    """

    DEFAULT_BLOCK_SIZE = 64 * 1024 * 1024

    def __init__(
        self,
        cluster: Optional[Cluster] = None,
        block_size: int = DEFAULT_BLOCK_SIZE,
        replication: int = 3,
    ):
        super().__init__()
        if block_size <= 0:
            raise ValueError("block size must be positive")
        if replication <= 0:
            raise ValueError("replication must be positive")
        self.cluster = cluster if cluster is not None else Cluster()
        self.block_size = block_size
        self.replication = min(replication, self.cluster.num_nodes)
        #: path -> list of BlockLocation; the namenode's block map.
        self._blocks: Dict[str, List[BlockLocation]] = {}
        #: Count of namenode metadata RPCs (engines and tests read this).
        self.namenode_ops = 0

    # -- placement ---------------------------------------------------------- #

    def _pick_primary(self, path: str, block_index: int) -> int:
        digest = hashlib.md5(f"{path}#{block_index}".encode("utf-8")).digest()
        return int.from_bytes(digest[:4], "big") % self.cluster.num_nodes

    def _place_file(self, path: str, length: int, at_node: Optional[int]) -> None:
        blocks: List[BlockLocation] = []
        offset = 0
        index = 0
        # Zero-length files still get one (empty) block so locality queries
        # and per-file replica accounting behave uniformly.
        while True:
            chunk = min(self.block_size, length - offset)
            primary = at_node if at_node is not None else self._pick_primary(path, index)
            primary %= self.cluster.num_nodes
            hosts = [
                self.cluster.node((primary + r) % self.cluster.num_nodes).hostname
                for r in range(self.replication)
            ]
            blocks.append(BlockLocation(offset=offset, length=chunk, hosts=hosts))
            offset += chunk
            index += 1
            if offset >= length:
                break
        self._blocks[path] = blocks

    # -- FileSystem hooks --------------------------------------------------- #

    def _on_file_written(self, path: str, length: int, at_node: Optional[int]) -> None:
        self.namenode_ops += 1
        self._place_file(path, length, at_node)

    def _on_file_removed(self, path: str) -> None:
        self.namenode_ops += 1
        self._blocks.pop(path, None)

    # -- locality ------------------------------------------------------------ #

    def get_block_locations(self, path: str, start: int, length: int) -> List[str]:
        """Hostnames of the block containing ``start`` (namenode RPC)."""
        path = normalize_path(path)
        self.namenode_ops += 1
        blocks = self._blocks.get(path)
        if not blocks:
            return []
        for block in blocks:
            if block.offset <= start < block.offset + max(1, block.length):
                return list(block.hosts)
        return list(blocks[-1].hosts)

    def file_blocks(self, path: str) -> List[BlockLocation]:
        """All blocks of ``path`` (empty when unknown)."""
        path = normalize_path(path)
        return list(self._blocks.get(path, []))

    def primary_node_of(self, path: str) -> Optional[int]:
        """The node id of the first replica of the first block, if any."""
        blocks = self.file_blocks(path)
        if not blocks or not blocks[0].hosts:
            return None
        return self.cluster.node_by_hostname(blocks[0].hosts[0]).node_id

    def replicated_bytes(self, path: str) -> int:
        """Bytes written across all replicas (engines charge replication I/O)."""
        path = normalize_path(path)
        status = self.get_file_status(path)
        if status is None or status.is_dir:
            return 0
        return status.length * self.replication
