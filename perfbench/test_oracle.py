"""Tests of the benchmark's oracle.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench -q

The hand-built graph (family ``R``; ``-`` marks no ``R`` pointer)::

    0 -> 1, 2        key K: 0=5  1=5  2=7  3=5  4=5
    1 -> 3
    2 -  (none)
    3 -> 3 (self)
    4 -> 0           (unreachable from 0)

and a diamond (family ``D``) where object 2 is reached along chains of
length 2 and 3::

    0 -> 1, 2
    1 -> 2
    2 -  (none)
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from oracle import Model, query_text  # noqa: E402
from repro.core.parser import parse_query  # noqa: E402
from repro.core.program import compile_query  # noqa: E402
from repro.core.tuples import pointer_tuple, tuple_of  # noqa: E402
from repro.engine.local import run_local  # noqa: E402
from repro.storage.memstore import MemStore  # noqa: E402


def hand_model() -> Model:
    return Model(
        pointers={
            "R": [(1, 2), (3,), (), (3,), (0,)],
            "D": [(1, 2), (2,), (), (), ()],
        },
        keys={"K": [5, 5, 7, 5, 5]},
    )


class TestHandBuilt:
    def test_closure_drops_object_without_pointer(self):
        # 2 is reached but has no R pointer, so the body drops it.
        assert hand_model().passed_loop("R", [0], None) == {0, 1, 3}

    def test_closure_selection(self):
        model = hand_model()
        assert model.answer("R", None, [0], "K", 5) == {0, 1, 3}
        # 2 carries K=7, but never gets past the loop.
        assert model.answer("R", None, [0], "K", 7) == set()

    def test_bound_at_depth_k_needs_no_pointer(self):
        # ^2: 1 and 2 sit at chain length 2 = k and leave the loop
        # without entering the body, so 2 is kept; 3 (length 3) is
        # never reached.
        model = hand_model()
        assert model.passed_loop("R", [0], 2) == {0, 1, 2}
        assert model.answer("R", 2, [0], "K", 7) == {2}

    def test_bound_below_k_drops_object_without_pointer(self):
        # ^3: 2 sits at chain length 2 < k, enters the body and is
        # dropped; 3 is reached through 1 at length 3.
        assert hand_model().passed_loop("R", [0], 3) == {0, 1, 3}

    def test_k1_equals_k2(self):
        # The start object always passes the body once.
        model = hand_model()
        assert model.passed_loop("R", [0], 1) == model.passed_loop("R", [0], 2) == {0, 1, 2}

    def test_start_without_pointer_is_dropped(self):
        assert hand_model().passed_loop("R", [2], 3) == set()

    def test_longer_chain_rescues_object(self):
        # ^3 over the diamond: 2 at length 2 is dropped in the body, but
        # the chain 0 -> 1 -> 2 brings it to length 3, where it leaves.
        assert hand_model().passed_loop("D", [0], 3) == {0, 1, 2}
        assert hand_model().passed_loop("D", [0], None) == {0, 1}

    def test_set_key(self):
        model = hand_model()
        model.set_key("K", 3, 7)
        assert model.answer("R", None, [0], "K", 7) == {3}

    def test_query_text_parses(self):
        for k in (None, 3):
            parse_query(query_text("Rand05", k, "Rand10p", 4))


def _engine_answer(model: Model, family: str, k, start: int, key_type: str, value: int):
    """The single-site engine's answer on the model's graph."""
    store = MemStore("s0")
    n = len(model.keys[key_type])
    oids = [store.create([]).oid for _ in range(n)]
    for i in range(n):
        tuples = [tuple_of(key_type, model.keys[key_type][i], "")]
        tuples += [pointer_tuple(family, oids[t]) for t in model.pointers[family][i]]
        store.replace(store.get(oids[i]).with_tuples(tuples))
    program = compile_query(parse_query(query_text(family, k, key_type, value)))
    result = run_local(program, [oids[start]], store.get)
    index = {oid.key(): i for i, oid in enumerate(oids)}
    return {index[key] for key in result.oid_keys()}


@pytest.mark.parametrize("seed", range(12))
def test_hand_answers_match_engine_on_random_graphs(seed):
    rng = random.Random(seed)
    n = 10
    model = Model(
        pointers={"R": [tuple(rng.randrange(n) for _ in range(rng.choice((0, 1, 1, 2)))) for _ in range(n)]},
        keys={"K": [rng.randint(1, 2) for _ in range(n)]},
    )
    for k in (None, 1, 2, 3, 4):
        for start in range(0, n, 3):
            expected = model.answer("R", k, [start], "K", 1)
            assert _engine_answer(model, "R", k, start, "K", 1) == expected, (k, start)


def test_hand_graph_matches_engine():
    model = hand_model()
    for family in ("R", "D"):
        for k in (None, 1, 2, 3):
            for value in (5, 7):
                assert _engine_answer(model, family, k, 0, "K", value) == model.answer(
                    family, k, [0], "K", value
                )
