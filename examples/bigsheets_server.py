#!/usr/bin/env python3
"""The BigSheets deployment story (paper Section 5.3), end to end.

BigSheets is "a large Hadoop based system that generates assorted jobs
(many of them Pig jobs)"; the paper ran it unmodified by stopping the
Hadoop server and starting the M3R server on the same port.  This example
replays that operational story with the pieces this repository provides:

1. a mixed workload (Pig ETL + Jaql analytics + a raw wordcount) is
   submitted through named **job queues** against the Hadoop server;
2. the Hadoop server is stopped and the **M3R server binds the same
   port** — clients notice nothing;
3. the same workload re-runs, **job-end notifications** fire to an ops
   callback, and an **async progress tracker** follows the jobs live;
4. outputs are verified identical across the two deployments;
5. the always-on engine goes **multi-tenant**: the Pig ETL team, the Jaql
   analytics team and an ad-hoc wordcount user each get their own
   namespace on one :class:`~repro.service.JobService`.  The ad-hoc job
   is queued first; the Pig and Jaql teams' blocking runs then drive the
   fair scheduler, which interleaves the queued job with theirs — and
   every tenant's outputs are byte-identical to the solo runs above.

Run:  python examples/bigsheets_server.py
"""

import json

from repro import hadoop_engine, m3r_engine
from repro.api.conf import JOB_END_NOTIFICATION_URL_KEY
from repro.apps.wordcount import generate_text, wordcount_job
from repro.core import JobEndNotifier, JobQueueManager, M3RServer, ProgressTracker
from repro.fs import SimulatedHDFS
from repro.jaql import JaqlRunner
from repro.pig import PigRunner
from repro.service import JobService
from repro.sim import Cluster

PORT = 19900
NODES = 8

PIG_SCRIPT = """
logs = LOAD '/data/events.txt' AS (user, action, amount);
buys = FILTER logs BY action == 'buy';
byuser = GROUP buys BY user;
spend = FOREACH byuser GENERATE group, COUNT(buys) AS n, SUM(buys.amount) AS total;
ranked = ORDER spend BY total DESC;
STORE ranked INTO '/out/spend';
"""

JAQL_PIPELINE = """
read("/data/events.json")
  -> filter $.action == 'view'
  -> group by $.user into { user: key, views: count($) }
  -> sort by $.views desc
  -> write("/out/views")
"""


def stage_data(engine) -> None:
    rows = [
        ("ann", "view", 0), ("ann", "buy", 30), ("bob", "view", 0),
        ("ann", "view", 0), ("bob", "buy", 12), ("cat", "view", 0),
        ("bob", "buy", 5), ("ann", "buy", 8), ("cat", "view", 0),
    ]
    engine.filesystem.write_text(
        "/data/events.txt",
        "\n".join(f"{u}\t{a}\t{x}" for u, a, x in rows) + "\n",
    )
    engine.filesystem.write_text(
        "/data/events.json",
        "\n".join(json.dumps({"user": u, "action": a, "amount": x})
                  for u, a, x in rows) + "\n",
    )
    engine.filesystem.write_text("/data/notes.txt", generate_text(200))


def run_workload(label: str) -> dict:
    engine = M3RServer._registry[PORT]  # what a remote client resolves
    stage_data(engine)

    notifier = JobEndNotifier()
    notified = []
    notifier.register("ops://", lambda url, result: notified.append(url))
    tracker = ProgressTracker().attach(engine)

    queues = JobQueueManager(engine, queues=["default", "etl"], notifier=notifier)
    wc = wordcount_job("/data/notes.txt", "/out/words", NODES)
    wc.set(JOB_END_NOTIFICATION_URL_KEY, "ops://done?id=$jobId&s=$jobStatus")
    queues.submit(wc)
    queues.drain()

    pig = PigRunner(engine, num_reducers=NODES)
    pig.run(PIG_SCRIPT)
    jaql = JaqlRunner(engine, num_reducers=NODES)
    jaql.run(JAQL_PIPELINE)

    total = (queues.stats().simulated_seconds + pig.total_seconds
             + jaql.total_seconds)
    jobs = queues.stats().succeeded + pig.jobs_run + jaql.jobs_run
    print(f"  [{label}] {jobs} jobs, {total:8.2f} simulated s, "
          f"notifications: {notified}")
    wc_phases = tracker.phases_seen(wc.get_job_name())
    print(f"  [{label}] live progress for the wordcount: "
          f"{' -> '.join(wc_phases)}")
    return {
        "spend": sorted(pig.read_output("/out/spend")),
        "views": jaql.read_output("/out/views"),
        "words": sorted(
            (str(k), v.get())
            for k, v in engine.filesystem.read_kv_pairs("/out/words")
        ),
        "seconds": total,
    }


def run_multitenant() -> dict:
    """Phase 3: three tenants share one always-on M3R engine.

    Each tenant registers its own output namespace (the runners' temp
    workdirs included, so intermediate spills are charged to the right
    tenant).  The ad-hoc user submits a wordcount and gets a ticket back;
    the Pig and Jaql runners then run through their tenant clients, and
    each blocking ``run_job`` drives the fair scheduler, which also runs
    the queued ad-hoc job when its turn comes — deferred admission, serial
    deterministic execution, no thread.
    """
    engine = m3r_engine(filesystem=SimulatedHDFS(Cluster(NODES),
                                                 block_size=256 * 1024,
                                                 replication=1))
    stage_data(engine)
    outputs: dict = {}

    with JobService(engine) as service:
        pig_client = service.register_tenant(
            "pig-etl", weight=2, prefixes=("/out/spend", "/pig"))
        jaql_client = service.register_tenant(
            "jaql-bi", prefixes=("/out/views", "/jaql"))
        adhoc_client = service.register_tenant(
            "adhoc", prefixes=("/out/words",))

        adhoc_ticket = adhoc_client.submit(
            wordcount_job("/data/notes.txt", "/out/words", NODES))

        pig = PigRunner(pig_client, num_reducers=NODES)
        pig.run(PIG_SCRIPT)
        outputs["spend"] = sorted(pig.read_output("/out/spend"))

        jaql = JaqlRunner(jaql_client, num_reducers=NODES)
        jaql.run(JAQL_PIPELINE)
        outputs["views"] = jaql.read_output("/out/views")

        service.wait(adhoc_ticket)
        outputs["words"] = sorted(
            (str(k), v.get())
            for k, v in engine.filesystem.read_kv_pairs("/out/words")
        )
        print("  [service] schedule: "
              + " ".join(ticket for _, ticket in service.schedule_log()))

        total = 0.0
        for name in service.tenant_names():
            stats = service.tenant_stats(name)
            total += stats["simulated_seconds"]
            print(f"  [service] {name:>8}: {stats['jobs_run']} jobs,"
                  f" {stats['simulated_seconds']:8.2f} simulated s,"
                  f" cache {stats.get('cache', {}).get('occupancy_bytes', 0):,} B")
    outputs["seconds"] = total
    engine.shutdown()
    return outputs


def main() -> None:
    print("phase 1: stock Hadoop server on the JobTracker port")
    hadoop = hadoop_engine(filesystem=SimulatedHDFS(Cluster(NODES),
                                                    block_size=256 * 1024,
                                                    replication=1))
    with M3RServer(hadoop, port=PORT):
        hadoop_outputs = run_workload("hadoop")

    print("phase 2: swap in the M3R server on the same port (unmodified clients)")
    m3r = m3r_engine(filesystem=SimulatedHDFS(Cluster(NODES),
                                              block_size=256 * 1024,
                                              replication=1))
    with M3RServer(m3r, port=PORT):
        m3r_outputs = run_workload("m3r")

    for key in ("spend", "views", "words"):
        assert hadoop_outputs[key] == m3r_outputs[key], key
    print(f"\noutputs identical across deployments; "
          f"speedup after the swap: "
          f"{hadoop_outputs['seconds'] / m3r_outputs['seconds']:.1f}x")
    print("top spender:", hadoop_outputs["spend"][0] if hadoop_outputs["spend"] else "-")

    print("\nphase 3: three tenants share the always-on M3R engine")
    service_outputs = run_multitenant()
    for key in ("spend", "views", "words"):
        assert service_outputs[key] == m3r_outputs[key], key
    print("every tenant's outputs byte-identical to its solo run")


if __name__ == "__main__":
    main()
