"""Tree pattern minimization under summary constraints (thesis §4.5).

Two procedures:

* **S-contraction** (:func:`minimize_by_contraction`): repeatedly erase one
  non-return node and reconnect its children to its parent, keeping only
  S-equivalent results, until no contraction preserves equivalence.
  Several distinct minimal contractions may exist (Figure 4.12's ``t'₁``
  and ``t'₂``).

* **Full summary minimization** (:func:`minimize_under_summary`): the
  summary can supply labels *absent from the original pattern* that yield
  even smaller equivalent patterns (Figure 4.12's ``t''`` reaches ``e``
  through the ``f`` node of the summary, beating every contraction).  For
  single-return-node patterns we search chain-shaped candidates over the
  summary's label alphabet, smallest first, and return the minimum found;
  multi-return patterns fall back to contraction (the thesis evaluates
  minimization on single-output examples).
"""

from __future__ import annotations

import itertools
from typing import Iterator, Optional

from ..summary.path_summary import PathSummary
from .containment import is_equivalent
from .xam import DESCENDANT, Pattern, PatternNode

__all__ = [
    "contractions",
    "minimize_by_contraction",
    "minimize_under_summary",
]


def contractions(pattern: Pattern) -> Iterator[Pattern]:
    """All patterns obtained by erasing one non-return node (never the ⊤
    root) and reconnecting its children to its parent.

    The reconnection uses ``//`` edges: erasing an intermediate node can
    only widen the structural relationship, and the equivalence test
    decides whether the result still denotes the same data.
    """
    names = [node.name for node in pattern.nodes() if not node.is_return_node]
    for name in names:
        clone = pattern.copy()
        victim = clone.node_by_name(name)
        edge = victim.parent_edge
        assert edge is not None
        parent = edge.parent
        parent.remove_edge(edge)
        for child_edge in victim.edges:
            grandchild = child_edge.child
            parent.add_child(grandchild, DESCENDANT, child_edge.semantics)
        yield clone


def minimize_by_contraction(
    pattern: Pattern, summary: PathSummary
) -> list[Pattern]:
    """All patterns minimal under S-contraction reachable from ``pattern``
    (duplicate-free): the closure of equivalence-preserving contractions,
    restricted to patterns admitting no further equivalent contraction."""
    reachable = {pattern.structure_key(): pattern}
    frontier = [pattern]
    while frontier:
        candidate = frontier.pop()
        for contraction in contractions(candidate):
            key = contraction.structure_key()
            if key in reachable:
                continue
            if is_equivalent(pattern, contraction, summary):
                reachable[key] = contraction
                frontier.append(contraction)
    minimal = []
    for candidate in reachable.values():
        if not any(
            is_equivalent(pattern, contraction, summary)
            for contraction in contractions(candidate)
        ):
            minimal.append(candidate)
    return minimal


def minimize_under_summary(
    pattern: Pattern, summary: PathSummary, max_chain: Optional[int] = None
) -> list[Pattern]:
    """Smallest patterns S-equivalent to ``pattern`` (§4.5's full
    minimization).

    Single-return-node patterns additionally search ``//l₁//…//l_k//ret``
    chains over the summary labels, which can beat contraction by using
    labels the pattern never mentions.  All minima of the smallest size
    found are returned.
    """
    by_contraction = minimize_by_contraction(pattern, summary)
    best_size = min(candidate.size() for candidate in by_contraction)
    best = [c for c in by_contraction if c.size() == best_size]

    returns = pattern.return_nodes()
    if len(returns) != 1:
        return best
    return_node = returns[0]

    labels = sorted({node.label for node in summary.nodes()})
    limit = best_size - 1 if max_chain is None else min(max_chain, best_size - 1)
    for size in range(1, limit + 1):
        found = []
        for chain in itertools.product(labels, repeat=size - 1):
            candidate = _chain_pattern(chain, return_node)
            if is_equivalent(pattern, candidate, summary):
                found.append(candidate)
        if found:
            return found
    return best


def _chain_pattern(chain: tuple[str, ...], return_node: PatternNode) -> Pattern:
    candidate = Pattern()
    anchor = candidate.root
    for label in chain:
        anchor = anchor.add_child(PatternNode(tag=label), DESCENDANT)
    leaf = return_node.copy_shallow()
    leaf.name = ""
    anchor.add_child(leaf, DESCENDANT)
    return candidate.finalize()
