"""Import footprint: a process pays at start-up only for what its jobs use.

scipy (≈ 0.2 s and 15 MB of a process) is imported by the first sparse
block, ``MatrixBlockWritable`` or ``generate_blocked_matrix``, and the
linter, call graph, rules and report by the first use of one of their
names (``repro.analysis.__getattr__``).  Every check runs in a fresh
interpreter, since this one has imported everything already.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

DEFERRED = ("repro.analysis.linter", "repro.analysis.rules",
            "repro.analysis.callgraph", "repro.analysis.report")

REPORT = """
import json, sys
print(json.dumps(sorted(
    name for name in sys.modules
    if name == "scipy" or name.startswith("scipy.") or name in {deferred!r}
)))
"""


def run_python(*args: str) -> str:
    done = subprocess.run(
        [sys.executable, *args], cwd=SRC, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def deferred_modules_loaded_by(code: str) -> list:
    """The scipy and lint modules in ``sys.modules`` after ``code`` ran."""
    out = run_python("-c", code + REPORT.format(deferred=DEFERRED))
    return json.loads(out.splitlines()[-1])


def test_importing_the_package_loads_neither_scipy_nor_the_linter():
    assert deferred_modules_loaded_by("import repro") == []


def test_a_wordcount_on_each_engine_loads_neither_scipy_nor_the_linter():
    code = """
from repro import hadoop_engine, m3r_engine
from repro.apps.wordcount import generate_text, wordcount_job

outputs = []
for engine in (hadoop_engine(), m3r_engine()):
    engine.filesystem.write_text("/in/part-0", generate_text(40, seed=3))
    result = engine.run_job(wordcount_job("/in", "/out", num_reducers=2))
    assert result.succeeded, result.error
    outputs.append(sorted(map(str, engine.filesystem.read_kv_pairs("/out"))))
assert outputs[0] == outputs[1]
"""
    assert deferred_modules_loaded_by(code) == []


def test_the_cli_help_loads_neither_scipy_nor_the_linter():
    code = """
import runpy, sys
sys.argv = ["repro", "--help"]
try:
    runpy.run_module("repro", run_name="__main__")
except SystemExit as done:
    assert done.code == 0
"""
    assert deferred_modules_loaded_by(code) == []


MATVEC = """
import hashlib, sys
{prelude}
from repro import hadoop_engine, m3r_engine
from repro.apps import matvec
from repro.api.writables import writable_to_bytes

digests = []
for engine in (hadoop_engine(), m3r_engine()):
    fs = engine.filesystem
    matvec.write_partitioned(fs, "/G", matvec.generate_blocked_matrix(60, 15, sparsity=0.05), 4, 4)
    matvec.write_partitioned(fs, "/V0", matvec.generate_blocked_vector(60, 15), 4, 4)
    for conf in matvec.iteration_jobs("/G", "/V0", "/V1", "/tmp", 0, 4, 4):
        result = engine.run_job(conf)
        assert result.succeeded, result.error
    digest = hashlib.sha256()
    for key, value in sorted(fs.read_kv_pairs("/V1"), key=lambda pair: (pair[0].row, pair[0].col)):
        digest.update(writable_to_bytes(key) + writable_to_bytes(value))
    digests.append(digest.hexdigest())
assert digests[0] == digests[1]
print(digests[0])
"""


def test_a_matvec_job_gives_what_it_gave_with_scipy_imported_first():
    lazy = run_python("-c", MATVEC.format(prelude=""))
    eager = run_python("-c", MATVEC.format(prelude="import scipy.sparse"))
    assert lazy == eager


def test_a_block_read_off_the_wire_imports_scipy_itself():
    """``read_fields`` on an object no constructor built gets scipy on
    first use too."""
    code = """
import sys
from repro.api.io_util import DataInputBuffer
from repro.api.writables import MatrixBlockWritable, writable_from_bytes, writable_to_bytes
assert "scipy" not in sys.modules
block = MatrixBlockWritable.__new__(MatrixBlockWritable)
# 2 x 2, one non-zero: indptr 0 1 1, row index 1, value 1.0
block.read_fields(DataInputBuffer(bytes.fromhex(
    "00000002" "00000002" "00000001" "00000000" "00000001" "00000001"
    "00000001" "3ff0000000000000"
)))
assert block.matrix.toarray().tolist() == [[0.0, 0.0], [1.0, 0.0]]
assert writable_from_bytes(MatrixBlockWritable, writable_to_bytes(block)) == block
print("ok")
"""
    assert run_python("-c", code).strip() == "ok"


def test_the_lint_names_still_import_from_the_package():
    code = """
from repro.analysis import REGISTRY, Analyzer, default_rules, render_json, rule_by_id
assert Analyzer.__module__ == "repro.analysis.linter" and len(REGISTRY) > 0
assert rule_by_id("M3R002").id == "M3R002" and default_rules()
import repro.analysis as analysis
try:
    analysis.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("an unknown name must raise AttributeError")
"""
    assert "repro.analysis.linter" in deferred_modules_loaded_by(code)
