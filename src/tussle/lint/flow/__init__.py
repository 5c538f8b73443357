"""Whole-program flow analysis: the F rules of ``python -m tussle.lint``.

The D/E/X families check each module in isolation; this package links
the whole tree.  Inside the one lint run
(:func:`tussle.lint.engine.run_lint`):

1. **extract** — each module the engine parsed is digested from its AST
   into a summary (:mod:`~tussle.lint.flow.summaries`);
2. **link** — summaries are joined into a :class:`~tussle.lint.flow.
   project.Program`: project-wide symbol table, call graph, reverse
   call graph, worker reachability;
3. **analyze** — seed provenance (F201-F204), purity inference
   (F205-F206) and worker safety (F207-F208) run over the linked
   program, and the kernel-candidates report lists pure netsim/routing
   functions eligible for vectorization.

Inline suppressions and the stale-suppression audit (X303) are applied
by the engine once, to F findings and D/E/X findings alike.
"""

from .rules import FLOW_RULES  # noqa: F401  (import registers F rules)

__all__ = ["FLOW_RULES"]
