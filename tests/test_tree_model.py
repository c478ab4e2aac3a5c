"""Model-based test: both trees against a sorted list.

A Hypothesis state machine drives a FusionTree and a BTree side by side
through inserts, duplicate inserts and every query, compares each answer
with a plain sorted-list model, and runs ``check()`` on both trees after
every step.  Both trees share one skeleton, so they must also agree on
height and split count.
"""

from bisect import bisect_left, bisect_right, insort

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, precondition, rule,
                                 run_state_machine_as_test)

from fusionsort.btree import BTree
from fusionsort.fusion_tree import FusionTree
from fusionsort.sketch import EXACT, MULTIPLICATIVE
from fusionsort.trie import DuplicateKey

# width 8: the whole dense universe.  width 64: spread keys, single-bit
# keys (branch bits far apart, which pushes nodes to the exact-sketch
# fallback) and tight clusters around a few fixed words.
KEYS = {
    8: st.integers(0, 255),
    64: st.one_of(
        st.integers(0, (1 << 64) - 1),
        st.integers(0, 63).map(lambda b: 1 << b),
        st.tuples(st.sampled_from([0, 1 << 40, (1 << 64) - 256]),
                  st.integers(0, 255)).map(sum),
    ),
}


def machine(width: int, cap: int, strategy: str):
    keys = KEYS[width]
    top = (1 << width) - 1

    class TreeModel(RuleBasedStateMachine):
        @initialize()
        def build(self):
            self.model: list[int] = []
            self.trees = (FusionTree(width=width, cap=cap, strategy=strategy),
                          BTree(width=width, cap=cap))

        def probe(self, data) -> int:
            """A fresh key, or a stored key or one of its neighbours."""
            if self.model and data.draw(st.booleans()):
                k = data.draw(st.sampled_from(self.model))
                return min(top, max(0, k + data.draw(st.sampled_from((-1, 0, 1)))))
            return data.draw(keys)

        @rule(ks=st.lists(keys, min_size=1, max_size=8))
        def insert(self, ks):
            for k in ks:
                if k in self.model:
                    self.insert_duplicate_of(k)
                    continue
                for t in self.trees:
                    t.insert(k)
                insort(self.model, k)

        @precondition(lambda self: self.model)
        @rule(data=st.data())
        def insert_duplicate(self, data):
            self.insert_duplicate_of(data.draw(st.sampled_from(self.model)))

        def insert_duplicate_of(self, k):
            for t in self.trees:
                with pytest.raises(DuplicateKey):
                    t.insert(k)

        @rule(data=st.data())
        def search(self, data):
            k = self.probe(data)
            i = bisect_left(self.model, k)
            want = i < len(self.model) and self.model[i] == k
            for t in self.trees:
                assert t.search(k) is want
                assert (k in t) is want

        @rule(data=st.data())
        def rank(self, data):
            k = self.probe(data)
            for t in self.trees:
                assert t.rank(k) == bisect_right(self.model, k)

        @rule(data=st.data())
        def predecessor(self, data):
            k = self.probe(data)
            i = bisect_right(self.model, k)
            for t in self.trees:
                assert t.predecessor(k) == (self.model[i - 1] if i else None)

        @rule(data=st.data())
        def successor(self, data):
            k = self.probe(data)
            i = bisect_left(self.model, k)
            want = self.model[i] if i < len(self.model) else None
            for t in self.trees:
                assert t.successor(k) == want

        @rule()
        def in_order(self):
            for t in self.trees:
                assert t.in_order() == self.model

        @invariant()
        def structure(self):
            ft, bt = self.trees
            for t in self.trees:
                t.check()
                assert len(t) == len(self.model)
            assert (ft.height, ft.splits) == (bt.height, bt.splits)

    TreeModel.__name__ = f"TreeModel_w{width}_cap{cap}_{strategy}"
    return TreeModel


@pytest.mark.parametrize("strategy", [MULTIPLICATIVE, EXACT])
@pytest.mark.parametrize("cap", [3, 7])
@pytest.mark.parametrize("width", [8, 64])
def test_trees_match_sorted_list_model(width, cap, strategy):
    run_state_machine_as_test(
        machine(width, cap, strategy),
        settings=settings(max_examples=40, stateful_step_count=60,
                          deadline=None,
                          suppress_health_check=[HealthCheck.too_slow]))
