"""What the Pig and Jaql front-ends share.

Both languages are compilers that emit unmodified HMR jobs (paper §1,
§5.3), and both carry the same expression language and the same handful
of jobs.  :mod:`repro.relational.expr` holds the tokenizer, precedence
parser, evaluator and script lexing; :mod:`repro.relational.jobs` holds
the copy, group-key, total-order sort and limit jobs and the runner
plumbing.  Each language passes its differences in as a
:class:`~repro.relational.expr.Dialect`.
"""
