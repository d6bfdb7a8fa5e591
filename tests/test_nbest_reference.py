"""The lazy k-best against a reference: the earlier version, whose every
successor went through a push helper and whose every derivation formatted
its own bracketed string. Both must extract the same derivations, in the
same order, with the same logprobs, and leave the same search state."""

import math
import random
from heapq import heappop, heappush, heapreplace

from dop import (RestrictionSet, SentenceParser, build_model,
                 extract_treebank, read_treebank)
from dop.parser import Derivation, _unscaled, nbest_derivations
from dop.tree import Treebank
from conftest import TOY_HEAD_RULES, random_tree


def model_from(corpus, start=None):
    bank = read_treebank(corpus)
    return build_model(extract_treebank(bank), RestrictionSet(),
                       TOY_HEAD_RULES,
                       start_labels=start or {t.label for t in bank.trees})


# ------------------------------------------------------------- reference
# The reference keeps the last popped entry of each item in `pending`,
# keyed by item, where the earlier ChartItem had a slot for it.

def _ref_get_kth(item, k, pending):
    derivs = item.derivs
    if derivs is None:
        derivs = item.derivs = []
        if item.sym[0] == "w":
            derivs.append((-0.0,))
            return derivs[0] if k == 0 else None
        item.cand = []
        item.reals = {}
        for edge_idx, (_, tails, _) in enumerate(item.edges):
            if len(tails) == 1:
                _ref_push_one(item, edge_idx, 0, pending)
            else:
                _ref_push_two(item, edge_idx, 0, 0, pending)
    cand = item.cand
    while len(derivs) <= k:
        last = pending.pop(item, None)
        if last is not None:
            if len(last) == 3:
                _ref_push_one(item, last[1], last[2] + 1, pending)
            else:
                _, edge_idx, a, b = last
                if b == 0:
                    _ref_push_two(item, edge_idx, a + 1, 0, pending)
                _ref_push_two(item, edge_idx, a, b + 1, pending)
        if not cand:
            item.cand = None
            return None
        last = pending[item] = heappop(cand)
        derivs.append(last)
    return derivs[k]


def _ref_push_one(item, edge_idx, j, pending):
    _, tails, weight = item.edges[edge_idx]
    tail = tails[0]
    derivs = tail.derivs
    if derivs is not None and j < len(derivs):
        neg = derivs[j][0]
    elif derivs is not None and tail.cand is None:
        return
    else:
        sub = _ref_get_kth(tail, j, pending)
        if sub is None:
            return
        neg = sub[0]
    heappush(item.cand, (-(weight - neg), edge_idx, j))


def _ref_push_two(item, edge_idx, a, b, pending):
    _, (left, right), weight = item.edges[edge_idx]
    derivs = left.derivs
    if derivs is not None and a < len(derivs):
        left_neg = derivs[a][0]
    elif derivs is not None and left.cand is None:
        return
    else:
        sub = _ref_get_kth(left, a, pending)
        if sub is None:
            return
        left_neg = sub[0]
    derivs = right.derivs
    if derivs is not None and b < len(derivs):
        right_neg = derivs[b][0]
    elif derivs is not None and right.cand is None:
        return
    else:
        sub = _ref_get_kth(right, b, pending)
        if sub is None:
            return
        right_neg = sub[0]
    heappush(item.cand, (-((weight - left_neg) - right_neg), edge_idx, a, b))


def _ref_realize(item, k):
    _, edge_idx, j = item.derivs[k]
    rule, (tail,), _ = item.edges[edge_idx]
    total = rule.scaled
    subs = []
    while tail.sym[0] == "p":
        _, edge_idx, j, site_k = tail.derivs[j]
        tail, right = tail.edges[edge_idx][1]
        if right.sym[0] == "n":
            sub = right.reals.get(site_k)
            if sub is None:
                sub = _ref_realize(right, site_k)
            total += sub[3]
            subs.append(sub)
    if tail.sym[0] == "n":
        sub = tail.reals.get(j)
        if sub is None:
            sub = _ref_realize(tail, j)
        total += sub[3]
        subs.append(sub)
    if subs:
        bracketed = rule.form % tuple([sub[2] for sub in reversed(subs)])
    else:
        bracketed = rule.key
    result = item.reals[k] = (rule.key, subs, bracketed, total)
    return result


def _ref_nbest(chart, n, pending):
    starts = chart.start_items
    heap = []
    for index, item in enumerate(starts):
        first = _ref_get_kth(item, 0, pending)
        if first is not None:
            heappush(heap, (first[0], index, 0))
    result = []
    while heap:
        neg, index, k = heap[0]
        start_item = starts[index]
        realized = start_item.reals.get(k)
        if realized is None:
            realized = _ref_realize(start_item, k)
        logprob = _unscaled(realized[3])
        assert math.isclose(logprob, -neg, rel_tol=1e-9, abs_tol=1e-9)
        result.append(Derivation(logprob, realized[2], realized))
        if len(result) == n:
            break
        following = _ref_get_kth(start_item, k + 1, pending)
        if following is None:
            heappop(heap)
        else:
            heapreplace(heap, (following[0], index, k + 1))
    return result


# ----------------------------------------------------------- comparison

def _listed(derivations):
    return [(d.logprob.hex(), d.bracketed, tuple(f.key for f in d.fragments))
            for d in derivations]


def _search_state(chart):
    """(span, symbol) -> (derivs, cand is None) over every item reachable
    from the start items."""
    state = {}
    stack = list(chart.start_items)
    while stack:
        item = stack.pop()
        key = (item.span, item.sym)
        if key in state:
            continue
        state[key] = (item.derivs and list(item.derivs), item.cand is None)
        for _, tails, _ in item.edges:
            stack.extend(tails)
    return state


def _compare(parser, words):
    """Requests of 1, 7 and 1000 derivations, each on fresh charts and each
    resuming the search on one pair of charts; returns the number of
    derivations compared."""
    extra = parser.oov_rules(words)

    def charts():
        return (parser.chart(words, extra_rules=extra),
                parser.chart(words, extra_rules=extra), {})

    compared = 0
    resumed = charts()
    for n in (1, 7, 1000):
        for chart, chart_ref, pending in (charts(), resumed):
            got = nbest_derivations(chart, n)
            expected = _ref_nbest(chart_ref, n, pending)
            assert _listed(got) == _listed(expected)
            assert _search_state(chart) == _search_state(chart_ref)
            compared += len(got)
    return compared


def test_nbest_matches_the_reference_on_random_banks():
    rng = random.Random(20001)
    banks = compared = 0
    while banks < 25:
        bank = Treebank(tuple(random_tree(rng, max_internal=7, max_depth=3)
                              for _ in range(rng.randint(1, 3))))
        model = build_model(extract_treebank(bank), RestrictionSet(),
                            TOY_HEAD_RULES,
                            start_labels={t.label for t in bank.trees})
        parser = SentenceParser(model, prune_ratio=1e-300)
        if parser.unary_cycle is not None:
            continue
        banks += 1
        for tree in bank.trees:
            words = tree.leaves()
            compared += _compare(parser, words)
            compared += _compare(parser, rng.sample(words, len(words)))
    assert compared > 1000


def test_nbest_matches_the_reference_on_ties_across_start_labels():
    model = model_from("(A w)\n(A (C w))\n(B w)\n(B (C w))\n",
                       start={"A", "B"})
    parser = SentenceParser(model, prune_ratio=1e-300)
    assert _compare(parser, ["w"]) == 2 * (1 + 6 + 6)


def test_derivations_of_one_tree_share_one_string():
    model = model_from("(S (A x) (B (C y)))\n(S (A x) (B (D y)))\n")
    chart = SentenceParser(model, prune_ratio=1e-300).chart(["x", "y"])
    derivations = nbest_derivations(chart, 1000)
    by_tree = {}
    for derivation in derivations:
        by_tree.setdefault(derivation.bracketed, set()).add(
            id(derivation.bracketed))
    assert len(derivations) > len(by_tree) == 2
    assert all(len(ids) == 1 for ids in by_tree.values())
