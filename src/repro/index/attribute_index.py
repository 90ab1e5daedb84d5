"""Per-attribute indexes over the nodes of a graph (Section 4.2).

*"Node attributes can be indexed directly using traditional index
structures such as B-trees.  This allows for fast retrieval of feasible
mates and avoids a full scan of all nodes."*

:class:`AttributeIndexSet` maintains one B-tree per indexed attribute name
and answers the *indexable* part of a pattern-node predicate:

* declarative tuple constraints ``<label="A">`` become point lookups;
* pushed-down comparisons ``where year > 2000`` become range scans.

Anything not indexable is re-checked by the caller, so index retrieval is
always a superset of the true feasible mates before F_u filtering.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from ..core.graph import Graph
from ..core.predicate import AttrRef, BinOp, Expr, Literal
from .btree import BTree


class AttributeIndexSet:
    """B-tree indexes over selected node attributes of one graph."""

    def __init__(self, graph: Graph, attributes: Optional[List[str]] = None) -> None:
        self.graph = graph
        self._trees: Dict[str, BTree] = {}
        if attributes is None:
            attributes = sorted(self._discover_attributes(graph))
        for attr in attributes:
            self.build(attr)

    @staticmethod
    def _discover_attributes(graph: Graph) -> Set[str]:
        names: Set[str] = set()
        for node in graph.nodes():
            names.update(node.tuple.names())
        return names

    def build(self, attr: str) -> None:
        """(Re)build the index for one attribute name."""
        tree = BTree()
        for node in self.graph.nodes():
            value = node.get(attr)
            if value is not None:
                tree.insert(_typed_key(value), node.id)
        self._trees[attr] = tree

    def has_index(self, attr: str) -> bool:
        """Whether the attribute is indexed."""
        return attr in self._trees

    def attributes(self) -> List[str]:
        """Indexed attribute names."""
        return list(self._trees)

    def lookup_eq(self, attr: str, value: Any) -> List[str]:
        """Node ids whose attribute equals *value*."""
        return self._trees[attr].get(_typed_key(value))

    def lookup_range(
        self,
        attr: str,
        low: Any = None,
        high: Any = None,
        include_low: bool = True,
        include_high: bool = True,
    ) -> List[str]:
        """Node ids whose attribute lies in the given range."""
        tree = self._trees[attr]
        return [
            payload
            for _, payload in tree.range(
                _typed_key(low) if low is not None else None,
                _typed_key(high) if high is not None else None,
                include_low,
                include_high,
            )
        ]

    # -- predicate-driven retrieval ------------------------------------------------

    def candidates_for(
        self,
        required_attrs: Dict[str, Any],
        predicate: Optional[Expr] = None,
    ) -> Optional[List[str]]:
        """Candidate node ids for a pattern node, via the best usable index.

        Chooses the most selective indexable condition (smallest result).
        Returns ``None`` when nothing is indexable, in which case the
        caller falls back to a full scan.
        """
        options: List[List[str]] = []
        for attr, value in required_attrs.items():
            if self.has_index(attr):
                options.append(self.lookup_eq(attr, value))
        for condition in _indexable_conditions(predicate):
            attr, op, value = condition
            if not self.has_index(attr):
                continue
            if op == "==":
                options.append(self.lookup_eq(attr, value))
            elif op == ">":
                options.append(self.lookup_range(attr, low=value, include_low=False))
            elif op == ">=":
                options.append(self.lookup_range(attr, low=value))
            elif op == "<":
                options.append(self.lookup_range(attr, high=value, include_high=False))
            elif op == "<=":
                options.append(self.lookup_range(attr, high=value))
        if not options:
            return None
        return min(options, key=len)


def _typed_key(value: Any) -> Tuple[str, Any]:
    """Make keys totally ordered even across value types.

    Numbers share one key space, booleans included: the matcher compares
    with ``==``, and ``True == 1 == 1.0``.
    """
    if isinstance(value, (int, float)):
        return ("num", value)
    return (type(value).__name__, value)


_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "==": "=="}


def _indexable_conditions(predicate: Optional[Expr]):
    """Extract ``attr OP literal`` conjuncts usable by an index.

    Handles both orientations (``year > 2000`` and ``2000 < year``) and
    only single-step references (a bare attribute name or ``u.attr``; the
    last path element is the attribute).
    """
    if predicate is None:
        return
    for conjunct in predicate.conjuncts():
        if not isinstance(conjunct, BinOp):
            continue
        op = conjunct.op
        if op not in ("==", ">", ">=", "<", "<="):
            continue
        left, right = conjunct.left, conjunct.right
        if isinstance(left, AttrRef) and isinstance(right, Literal):
            yield (left.path[-1], op, right.value)
        elif isinstance(left, Literal) and isinstance(right, AttrRef):
            yield (right.path[-1], _FLIP[op], left.value)
