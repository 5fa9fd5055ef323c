"""A mini Jaql: JSON query pipelines compiled to HMR jobs.

Jaql is the third compiler tool-chain the paper names ("jobs produced by
compilers for higher-level languages such as Pig, Jaql, and SystemML ...
run unchanged" on M3R; X10 team members "are responsible for getting Jaql
to run on M3R").  This package reproduces its observable essentials: a
pipeline language over JSON records, compiled operator by operator to
ordinary HMR jobs that run on either engine.

Syntax (a faithful miniature of Jaql's arrow pipelines)::

    read("/logs/events.json")
      -> filter $.status == 200 and $.ms < 5000
      -> transform { user: $.user, sec: $.ms / 1000 }
      -> group by $.user into { user: key, hits: count($), total: sum($.sec) }
      -> sort by $.hits desc
      -> top 3
      -> write("/out/top_users")

Records are JSON objects, one per line (the jsonl convention Jaql's
``lines()`` I/O adapter used); ``$`` denotes the current record.
"""

from repro.jaql.expr import evaluate_expr, parse_expr
from repro.jaql.parser import JaqlParseError, parse_pipeline
from repro.jaql.compiler import JaqlRunner
from repro.relational.expr import ExprError

__all__ = [
    "ExprError",
    "evaluate_expr",
    "parse_expr",
    "JaqlParseError",
    "parse_pipeline",
    "JaqlRunner",
]
