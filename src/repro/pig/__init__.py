"""A mini Pig Latin layer compiled to HMR jobs.

The paper's compatibility claim extends up the tool stack: "programs in
languages higher in the Hadoop tool stack (particularly Pig, Jaql and
System ML jobs) can run unchanged" on M3R, and the BigSheets deployment of
Section 5.3 is mostly Pig jobs.  This package demonstrates the claim with a
working miniature: a Pig Latin parser, a logical plan, and a compiler that
lowers LOAD / FILTER / FOREACH…GENERATE / GROUP…BY / JOIN / DISTINCT /
ORDER…BY / LIMIT / STORE onto ordinary HMR jobs that run on either engine.

Like the real Pig-on-M3R story, intermediate relations use the
temporary-output naming convention, so on M3R a multi-statement script's
intermediates never touch the filesystem.
"""

from repro.pig.expr import parse_expression, evaluate
from repro.pig.plan import (
    LoadNode,
    FilterNode,
    ForeachNode,
    GroupNode,
    JoinNode,
    DistinctNode,
    OrderNode,
    LimitNode,
    PlanNode,
    Schema,
)
from repro.pig.parser import parse_pig_script, PigParseError
from repro.pig.compiler import PigRunner
from repro.relational.expr import ExprError

__all__ = [
    "parse_expression",
    "evaluate",
    "ExprError",
    "LoadNode",
    "FilterNode",
    "ForeachNode",
    "GroupNode",
    "JoinNode",
    "DistinctNode",
    "OrderNode",
    "LimitNode",
    "PlanNode",
    "Schema",
    "parse_pig_script",
    "PigParseError",
    "PigRunner",
]
