"""Canonical plan fingerprints.

A fingerprint is the SHA-256 of a canonical text document describing
everything that can change a job's committed bytes:

* the resolved user classes (mapper / reducer / combiner / map runner),
  partitioner and input/output formats, plus the reducer count;
* every ``JobConf`` item except the *irrelevant* keys — engine knobs
  (``m3r.*``: cache, shuffle, sanitize, trace and restore itself never
  change a byte of output), the job name, and the input/output paths
  (input identity is covered by content tokens below; output location is
  deliberately excluded so a rerun directed at a fresh directory still
  matches);
* one content token per input *file*: its lineage token when the file is
  a recorded job output (see :mod:`repro.restore.store`), else the
  literal path plus its content version.  ``MultipleInputs``
  registrations are keyed the same way, by their path's content tokens,
  so a rerun that reads the same data from fresh temporary paths matches.

Values tokenize conservatively.  Classes and module-level functions
become ``module.qualname``; scalars and containers recurse; anything
whose repr betrays object identity (`` at 0x``, lambdas, locals) makes
the whole plan *unfingerprintable* — ``compute_fingerprint`` returns
``None`` and admission bypasses reuse rather than risk a false hit.
"""

from __future__ import annotations

import hashlib
from typing import Any, List, Optional

from repro.api.conf import (
    INPUT_DIR_KEY,
    JOB_NAME_KEY,
    OUTPUT_DIR_KEY,
    JobConf,
)
from repro.api.multiple_io import MULTIPLE_INPUTS_KEY

__all__ = ["compute_fingerprint", "content_version", "input_tokens"]

#: Conf keys that never affect committed output bytes.
_IRRELEVANT_KEYS = frozenset({JOB_NAME_KEY, OUTPUT_DIR_KEY, INPUT_DIR_KEY})
#: Every engine knob namespace (cache / shuffle / sanitize / trace /
#: restore / engine threading) is observability or placement, not output.
_IRRELEVANT_PREFIX = "m3r."

#: Sentinel: the value cannot be tokenized deterministically.
_UNSTABLE = object()


def _token(value: Any) -> Any:
    """A canonical string for ``value``, or :data:`_UNSTABLE`."""
    if value is None or isinstance(value, (bool, int, float, str, bytes)):
        return repr(value)
    if isinstance(value, type):
        # A class defined inside a function is a new class per call, and
        # may close over different state under the same qualname.
        if "<locals>" in value.__qualname__:
            return _UNSTABLE
        return f"class:{value.__module__}.{value.__qualname__}"
    if isinstance(value, (list, tuple)):
        items = [_token(item) for item in value]
        if any(item is _UNSTABLE for item in items):
            return _UNSTABLE
        return "[" + ",".join(items) + "]"
    if isinstance(value, dict):
        items = []
        for key in sorted(value, key=repr):
            item = _token(value[key])
            if item is _UNSTABLE:
                return _UNSTABLE
            items.append(f"{_token(key)}={item}")
        return "{" + ",".join(items) + "}"
    if callable(value) and hasattr(value, "__qualname__"):
        qualname = value.__qualname__
        if "<lambda>" in qualname or "<locals>" in qualname:
            return _UNSTABLE
        module = getattr(value, "__module__", None)
        if module is None:
            return _UNSTABLE
        return f"fn:{module}.{qualname}"
    rendered = repr(value)
    if " at 0x" in rendered:
        return _UNSTABLE
    return f"{type(value).__module__}.{type(value).__qualname__}:{rendered}"


def content_version(engine: Any, path: str) -> Optional[str]:
    """An equality-only token for ``path``'s current content.

    Preference order mirrors :meth:`M3RFileSystem.get_file_status`: the
    inner filesystem's monotonic modification stamp when the file was
    flushed, else the cache entry's admission version for cache-only
    (temporary) outputs.  Record time and validation time therefore
    agree even if the cache entry is later spilled or the flushed file's
    cache overlay is dropped.
    """
    status = engine.raw_filesystem.get_file_status(path)
    if status is not None and status.is_file:
        return f"fs:{status.modification_stamp}:{status.length}"
    cache = getattr(engine, "cache", None)
    if cache is not None:
        entry = cache.get_file(path, materialize=False)
        if entry is not None:
            return f"cache:{entry.version}:{entry.nbytes}"
    return None


def _is_hidden(basename: str) -> bool:
    # The part-file convention: _SUCCESS stamps, .crc files and other
    # underscore/dot names are not data (read_kv_pairs skips them too).
    return basename.startswith((".", "_"))


def input_tokens(engine: Any, paths: List[str], store: Any) -> Optional[List[str]]:
    """One token per input data file across ``paths``, or ``None`` when
    any file's content cannot be versioned."""
    tokens: List[str] = []
    for path in sorted(paths):
        for status in engine.filesystem.list_files_recursive(path):
            basename = status.path.rsplit("/", 1)[-1]
            if _is_hidden(basename):
                continue
            version = content_version(engine, status.path)
            if version is None:
                return None
            lineage = store.lineage_token(status.path, version)
            tokens.append(
                lineage if lineage is not None else f"{status.path}@{version}"
            )
    return tokens


def _registrations_by_content(engine: Any, registrations: Any,
                              store: Any) -> Optional[List[Any]]:
    """``MultipleInputs``' {path: registrations} as (content tokens,
    registrations) pairs in token order, or ``None`` when a path's
    content cannot be versioned."""
    keyed = []
    for path, regs in registrations.items():
        tokens = input_tokens(engine, [path], store)
        if tokens is None:
            return None
        keyed.append((tokens, regs))
    return sorted(keyed, key=lambda pair: pair[0])


def compute_fingerprint(
    engine: Any, spec: Any, conf: JobConf, store: Any
) -> Optional[str]:
    """The canonical plan hash, or ``None`` when the plan is not
    deterministically fingerprintable (admission then bypasses reuse)."""
    lines: List[str] = []

    identity = {
        "mapper": spec.mapper_class,
        "reducer": spec.reducer_class,
        "combiner": spec.combiner_class,
        "map_runner": spec.map_runner_class,
        "partitioner": type(spec.partitioner),
        "input_format": type(spec.input_format),
        "output_format": type(spec.output_format),
        "num_reducers": spec.num_reducers,
    }
    for name in sorted(identity):
        token = _token(identity[name])
        if token is _UNSTABLE:
            return None
        lines.append(f"spec.{name}={token}")

    for key in sorted(conf.keys()):
        if key in _IRRELEVANT_KEYS or key.startswith(_IRRELEVANT_PREFIX):
            continue
        value = conf.get(key)
        if key == MULTIPLE_INPUTS_KEY:
            value = _registrations_by_content(engine, value, store)
            if value is None:
                return None
        token = _token(value)
        if token is _UNSTABLE:
            return None
        lines.append(f"conf.{key}={token}")

    tokens = input_tokens(engine, spec.input_paths, store)
    if tokens is None:
        return None
    for token in tokens:
        lines.append(f"input.{token}")

    digest = hashlib.sha256("\n".join(lines).encode("utf-8"))
    return digest.hexdigest()
