"""The benchmark's own model of the database, and its query oracle.

The model is the generator's abstract graph (pointer lists per family,
over object indices) plus each object's search-key values.  Every write
the benchmark makes is applied here too, so the model always says what
the database holds.

Queries have the one shape the workloads send::

    S [ (Pointer, "<family>", ?X) ^^X ]<* or ^k> (<key type>, <value>, ?) -> T

and are answered by a breadth-first walk written from
``docs/QUERY_LANGUAGE.md``, independently of the engine:

* an object that enters the iterator body needs a pointer of the
  followed family; one without is dropped (it never reaches the
  selection after the loop);
* ``^k`` bounds the pointer-chain length at ``k`` objects: a start object
  has chain length 1 and always passes through the body once; an object
  reached at chain length ``d`` enters the body only while ``d < k``, and
  at ``d >= k`` leaves the loop without needing a pointer;
* ``*`` sends every reached object through the body;
* an object reachable along chains of several lengths is in the result
  if any of them brings it past the loop (the engine's mark table is
  confluent), so the walk visits (object, chain length) states.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.workload import (
    CHAIN_KEY,
    COMMON_TYPE,
    COMMON_VALUE,
    TREE_KEY,
    UNIQUE_TYPE,
    pointer_key_for,
)


class Model:
    """Pointer lists per family and key values per key type, by index."""

    def __init__(self, pointers: Dict[str, List[Sequence[int]]], keys: Dict[str, List[int]]) -> None:
        self.pointers = pointers
        self.keys = keys

    @classmethod
    def from_generator(cls, graph, key_values: Dict[str, List[int]]) -> "Model":
        """The model of a database built by ``repro.workload.materialize``."""
        n = graph.n
        pointers: Dict[str, List[Sequence[int]]] = {
            CHAIN_KEY: [(graph.chain_next[i],) for i in range(n)],
            TREE_KEY: [tuple(children) for children in graph.tree_children],
        }
        for p, targets in graph.random_targets.items():
            pointers[pointer_key_for(p)] = [tuple(t) for t in targets]
        keys = {key_type: list(values) for key_type, values in key_values.items()}
        keys[UNIQUE_TYPE] = list(range(n))
        keys[COMMON_TYPE] = [COMMON_VALUE] * n
        return cls(pointers, keys)

    def set_key(self, key_type: str, index: int, value: int) -> None:
        self.keys[key_type][index] = value

    def passed_loop(self, family: str, starts: Iterable[int], k: Optional[int]) -> Set[int]:
        """Objects that come out of ``[ (Pointer, family, ?X) ^^X ]``
        (``k=None`` for ``*``, else ``^k``) from ``starts``."""
        targets = self.pointers[family]
        out: Set[int] = set()
        # State: (object, chain length saturated at k, enters the body?).
        # Under ``*`` the chain length never matters, so it stays at 1.
        frontier: deque = deque((i, 1, True) for i in starts)
        seen: Set[Tuple[int, int, bool]] = set()
        while frontier:
            state = frontier.popleft()
            if state in seen:
                continue
            seen.add(state)
            i, depth, through_body = state
            if not through_body:
                out.add(i)
                continue
            if not targets[i]:
                continue  # dropped: no pointer of the followed family
            out.add(i)
            if k is None:
                frontier.extend((t, 1, True) for t in targets[i])
            else:
                child = min(depth + 1, k)
                frontier.extend((t, child, child < k) for t in targets[i])
        return out

    def answer(
        self, family: str, k: Optional[int], starts: Iterable[int], key_type: str, value: int
    ) -> Set[int]:
        """The result set of the workload query shape, as object indices."""
        values = self.keys[key_type]
        return {i for i in self.passed_loop(family, starts, k) if values[i] == value}


def query_text(family: str, k: Optional[int], key_type: str, value: int) -> str:
    """The query the oracle answers, as text for the cluster."""
    loop = "*" if k is None else f"^{k}"
    return f'S [ (Pointer, "{family}", ?X) ^^X ]{loop} ({key_type}, {value}, ?) -> T'
