"""The three benchmark workloads: deployment config and operation rounds.

Every workload runs on the paper's §5 database (``build_graph`` +
``materialize``) over three sites of the in-process ``async``
deployment.  A run repeats *rounds*, each a fixed mix of queries and
writes drawn from the run's seeded generator, until its time is up; the
run always ends on a round boundary.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Set, Tuple, Union

from repro.cache import CacheConfig
from repro.config import ClusterConfig
from repro.net.batching import BatchConfig
from repro.replication import ReplicationConfig
from repro.workload import (
    RAND10_TYPE,
    RAND100_TYPE,
    RAND1000_TYPE,
    SEARCH_KEY_SPACES,
    TREE_KEY,
    UNIQUE_TYPE,
    pointer_key_for,
)

from oracle import query_text

#: The seven random-pointer locality families, Rand05 .. Rand95.
LOCALITY_FAMILIES = [pointer_key_for(p) for p in (0.05, 0.20, 0.35, 0.50, 0.65, 0.80, 0.95)]
#: The families with 50-95% remote pointers (replicated-rw reads).
REMOTE_FAMILIES = LOCALITY_FAMILIES[:4]
#: Objects 1..8 head the local trees of groups 1..8 (object 0, the
#: global root, heads group 0's and reaches everything).
GROUP_ROOTS = range(1, 9)


@dataclass(frozen=True)
class QueryOp:
    """``S [ (Pointer, family, ?X) ^^X ]<*|^k> (key_type, value, ?)`` from one start."""

    family: str
    k: Optional[int]
    start: int
    key_type: str
    value: int

    @property
    def text(self) -> str:
        return query_text(self.family, self.k, self.key_type, self.value)


@dataclass(frozen=True)
class WriteOp:
    """Set object ``index``'s ``key_type`` search key to ``value``."""

    index: int
    key_type: str
    value: int


Op = Union[QueryOp, WriteOp]


def _key(rng: random.Random, key_type: str) -> int:
    return rng.randint(1, SEARCH_KEY_SPACES[key_type])


class Workload:
    name = ""
    n_objects = 270
    #: Query-latency percentile reported as ``tail_ms``: the highest one
    #: that leaves at least ten samples beyond it in a run.
    tail_percentile = 0.0
    replicated = False

    def config(self) -> ClusterConfig:
        return ClusterConfig()

    def start(self, rng: random.Random) -> None:
        """Reset per-run state before the first round."""

    def round(self, rng: random.Random) -> List[Op]:
        raise NotImplementedError


class Soak(Workload):
    """Small traversals on one long-lived cluster: the server's
    per-context costs dominate, so uptime slowdown shows here."""

    name = "soak"
    tail_percentile = 0.99

    def round(self, rng: random.Random) -> List[Op]:
        """7 ``Tree`` closures and 7 ``^k`` walks, one per locality
        family, then one write.  The first closure starts at a group's
        tree root (30 objects), the rest anywhere (most subtrees are a
        few objects), so every round holds the same share of larger
        closures and the tail percentile falls among them."""
        ops: List[Op] = []
        for j, family in enumerate(LOCALITY_FAMILIES):
            start = rng.choice(GROUP_ROOTS) if j == 0 else rng.randrange(self.n_objects)
            key_type = rng.choice((RAND10_TYPE, RAND100_TYPE))
            ops.append(QueryOp(TREE_KEY, None, start, key_type, _key(rng, key_type)))
            key_type = rng.choice((RAND10_TYPE, RAND100_TYPE))
            ops.append(
                QueryOp(family, rng.randint(2, 4), rng.randrange(self.n_objects), key_type, _key(rng, key_type))
            )
        key_type = rng.choice((RAND10_TYPE, RAND100_TYPE))
        ops.append(WriteOp(rng.randrange(self.n_objects), key_type, _key(rng, key_type)))
        return ops


class Scan(Workload):
    """Full closures over a 2,700-object tree: the engine dominates."""

    name = "scan"
    n_objects = 2700
    tail_percentile = 0.80

    def round(self, rng: random.Random) -> List[Op]:
        return [
            QueryOp(TREE_KEY, None, 0, RAND1000_TYPE, _key(rng, RAND1000_TYPE)),
            WriteOp(rng.randrange(self.n_objects), RAND1000_TYPE, _key(rng, RAND1000_TYPE)),
            QueryOp(TREE_KEY, None, 0, UNIQUE_TYPE, rng.randrange(self.n_objects)),
            WriteOp(rng.randrange(self.n_objects), RAND1000_TYPE, _key(rng, RAND1000_TYPE)),
        ]


#: Read order within a replicated-rw round: ``h`` is the round's next hot
#: query (alternating between its two), ``t`` a fresh tail query.  Each
#: hot query's first read after the round's writes misses because a write
#: invalidated its cached answer, and its second read hits: 2 of 16 reads
#: hit, so the median read is well inside the misses.
_RW_READS = "hhtttttthhtttttt"


class ReplicatedReadWrite(Workload):
    """Replicated, cached, batched closures over the remote-heavy
    families, with write fan-out invalidating the caches every round."""

    name = "replicated-rw"
    tail_percentile = 0.90
    replicated = True

    def config(self) -> ClusterConfig:
        return ClusterConfig(
            batching=BatchConfig(),
            caching=CacheConfig(),
            replication=ReplicationConfig(k=2),
        )

    def start(self, rng: random.Random) -> None:
        """Draw the run's four hot queries, one per family, kept for the
        whole run; rounds take them in pairs, two families in turn."""
        self._used: Set[Tuple[str, int, str, int]] = set()
        self._rounds = 0
        self._hot = [
            self._fresh(rng, family, (RAND10_TYPE, RAND100_TYPE)[j % 2])
            for j, family in enumerate(REMOTE_FAMILIES)
        ]

    def _fresh(self, rng: random.Random, family: str, key_type: str) -> QueryOp:
        """A read not yet sent in this run."""
        while True:
            op = QueryOp(family, None, rng.randrange(self.n_objects), key_type, _key(rng, key_type))
            ident = (op.family, op.start, op.key_type, op.value)
            if ident not in self._used:
                self._used.add(ident)
                return op

    def round(self, rng: random.Random) -> List[Op]:
        """Four writes, then 16 reads.  Two writes toggle the search key
        of the round's hot queries' start objects between the queried
        value and another one, so every hot answer differs from the one
        cached two rounds before: a stale hit would fail the oracle
        check.  The other two write random objects.  Every family gets an
        equal share of the misses: the hot pair takes two families in
        turn, the twelve tail reads three of each family."""
        first = 2 * self._rounds % len(REMOTE_FAMILIES)
        hot_pair = self._hot[first : first + 2]
        on = self._rounds // 2 % 2 == 0
        self._rounds += 1
        ops: List[Op] = []
        for op in hot_pair:
            other = op.value % SEARCH_KEY_SPACES[op.key_type] + 1
            ops.append(WriteOp(op.start, op.key_type, op.value if on else other))
        for _ in range(2):
            key_type = rng.choice((RAND10_TYPE, RAND100_TYPE))
            ops.append(WriteOp(rng.randrange(self.n_objects), key_type, _key(rng, key_type)))
        tails = [
            self._fresh(rng, family, (RAND10_TYPE, RAND100_TYPE)[j % 2])
            for family in REMOTE_FAMILIES
            for j in range(3)
        ]
        hot = 0
        for slot in _RW_READS:
            if slot == "h":
                ops.append(hot_pair[hot % 2])
                hot += 1
            else:
                ops.append(tails.pop())
        return ops


WORKLOADS = {w.name: w for w in (Soak, Scan, ReplicatedReadWrite)}
