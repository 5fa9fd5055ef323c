"""Path algebra for the key/value store's hierarchical namespace.

Both functions take normalized paths (``repro.fs.filesystem.normalize_path``);
the store normalizes each path once, at its API.
"""

from __future__ import annotations

from typing import List, Sequence


def path_components(path: str) -> List[str]:
    """The components of a normalized path (root has none)."""
    if path == "/":
        return []
    return path[1:].split("/")


def ancestors(path: str) -> List[str]:
    """The ancestors of a normalized path below the root, top first."""
    parts = path.split("/")
    return ["/".join(parts[:end]) for end in range(2, len(parts))]


def least_common_ancestor(paths: Sequence[str]) -> str:
    """The deepest path that is an ancestor-or-self of every input path."""
    if not paths:
        raise ValueError("need at least one path")
    component_lists = [path_components(p) for p in paths]
    prefix: List[str] = []
    for parts in zip(*component_lists):
        first = parts[0]
        if all(part == first for part in parts):
            prefix.append(first)
        else:
            break
    if not prefix:
        return "/"
    return "/" + "/".join(prefix)
