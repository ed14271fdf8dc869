"""reprolint: contract-enforcing static analysis for the repro tree.

Seven PRs of pool/shm/cluster/resilience work accumulated a set of
load-bearing invariants — bit-identity per seed for any worker count,
executor ownership, token-cached payload installs, bounded timeouts on
every blocking call, no shared-memory segments — that used to be
enforced only by reviewer vigilance and after-the-fact equivalence
tests.  This package turns each invariant into a machine-checked AST
rule that fails CI at the diff, before a flaky bit-identity test has to
catch the regression at runtime.

Usage::

    python -m tools.reprolint src tests          # lint, text report
    python -m tools.reprolint --format json src  # machine-readable
    python -m tools.reprolint --list-rules       # rule catalog

Suppression (one line, same line or the line directly above)::

    pool.join()  # reprolint: disable=bounded-blocking -- Pool.join has no timeout

Every suppression should carry a ``--`` justification; the linter does
not require one, reviewers do.  The rule catalog lives in
:mod:`tools.reprolint.rules`; the strict-typing companion gate in
:mod:`tools.reprolint.typegate`.
"""

from tools.reprolint.core import Finding, LintContext, Rule, lint_paths
from tools.reprolint.rules import ALL_RULES

__all__ = ["Finding", "LintContext", "Rule", "ALL_RULES", "lint_paths"]
