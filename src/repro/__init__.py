"""M3R reproduction: a main-memory Hadoop MapReduce engine in Python.

This package is a full reproduction of *M3R: Increased Performance for
In-Memory Hadoop Jobs* (Shinnar, Cunningham, Herta, Saraswat — PVLDB 5(12),
2012).  It contains:

* :mod:`repro.api` — a clone of the Hadoop MapReduce ("HMR") APIs: both the
  old-style ``mapred`` and new-style ``mapreduce`` interfaces, Writable
  types, job configuration, input/output formats, counters, partitioners,
  the distributed cache and the MultipleInputs/MultipleOutputs helpers.
* :mod:`repro.sim` — a deterministic cluster cost model (nodes, disk and
  network bandwidth, JVM start-up, scheduler latency).  Engines execute user
  code for real and charge simulated seconds for every I/O event, which is
  how the paper's performance *shapes* are reproduced on a laptop.
* :mod:`repro.x10` — a mini X10-style runtime: places and a de-duplicating
  serializer.
* :mod:`repro.fs` — a FileSystem abstraction with an in-memory local
  filesystem and a simulated HDFS (namenode, datanodes, blocks, replication,
  locality metadata).
* :mod:`repro.kvstore` — the distributed in-memory key/value store of paper
  Section 5.2, with two-phase locking and least-common-ancestor lock
  ordering.
* :mod:`repro.hadoop_engine` — a faithful baseline Hadoop engine simulator
  (jobtracker, tasktrackers, sort/spill, out-of-core shuffle).
* :mod:`repro.core` — the M3R engine itself: the input/output cache,
  partition stability, in-memory de-duplicated shuffle, ``ImmutableOutput``
  handling and the ``CacheFS`` extensions.
* :mod:`repro.apps` — a library of HMR applications (wordcount, blocked
  sparse matrix–vector multiply, the paper's shuffle microbenchmark, ...).
* :mod:`repro.sysml` — a mini SystemML: an R-like matrix DSL compiled to
  HMR job DAGs, with GNMF, linear-regression and PageRank scripts.
* :mod:`repro.pig` — a mini Pig-Latin layer compiled to HMR jobs.

Quickstart::

    from repro import m3r_engine, hadoop_engine
    from repro.apps.wordcount import wordcount_job

    engine = m3r_engine(num_places=4)
    fs = engine.filesystem
    fs.write_text("/data/in.txt", "to be or not to be")
    job = wordcount_job("/data/in.txt", "/data/out", immutable=True)
    result = engine.run_job(job)
    print(result.simulated_seconds)
"""

from repro.version import __version__

# Initialize the engine subpackages BEFORE binding the factory names: the
# import system sets ``repro.hadoop_engine`` (the subpackage) as an attribute
# of this package on first import, which would otherwise shadow the
# ``hadoop_engine()`` factory for anyone importing after an engine was built.
import repro.hadoop_engine  # noqa: E402,F401
import repro.core  # noqa: E402,F401

from repro.runtime import m3r_engine, hadoop_engine, EngineResult  # noqa: E402

__all__ = ["__version__", "m3r_engine", "hadoop_engine", "EngineResult"]
