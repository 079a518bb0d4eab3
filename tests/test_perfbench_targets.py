"""perfbench times a layer by wrapping a module attribute by name, and a
name that does not resolve silently reads 0 in its layer. This pins which
of its span targets resolve: renaming or removing an engine name that a
workload wraps fails here, not as a quiet 0 in a traced run."""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# wrapped by perfbench but gone from the engine: aggregate_bottom_up was
# folded into semiring.thresholds, eliminate_min_predicate left
# minjoin.access, and no enumeration pass runs a semijoin. disjointify
# is gone on purpose, not renamed: every task compares the cells as
# stored, each order pair deciding a tie by its side, so no layer tags
# the data and model.disjointify_s reads 0
GONE = {
    "minjoin.access.aggregate_bottom_up",
    "minjoin.access.disjointify",
    "minjoin.access.eliminate_min_predicate",
    "minjoin.elim.disjointify",
    "minjoin.enumeration.semijoin_reduce",
}


def test_perfbench_span_targets_resolve_except_the_gone_names(monkeypatch):
    # workloads.py imports its sibling modules (checks, inputs, spans) as
    # top-level modules; the import leaves no bytecode under perfbench/
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    workloads = importlib.import_module("workloads")
    targets = [
        *workloads.STAR_RDA_TARGETS, *workloads.STAR_COUNT_TARGETS, *workloads.PATH_ENUM_TARGETS
    ]
    missing = [f"{module.__name__}.{attr}" for module, attr, *_ in targets if not hasattr(module, attr)]
    assert sorted(missing) == sorted(GONE)
    assert len(targets) - len(missing) == 19
