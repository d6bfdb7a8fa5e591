import random
from collections import Counter
from fractions import Fraction

import pytest

from dop import (Fragment, OracleOverflowError, RestrictionSet, Site, Tree,
                 build_model, enumerate_derivations, exact_mpp,
                 extract_treebank, read_treebank, write_tree)
from dop.oracle import report_lines
from dop.tree import Treebank
from conftest import TOY_HEAD_RULES, random_tree


def frag(text):
    return Fragment.from_string(text)


# hand-derived on the 2-tree corpus via the inside recursion:
# P("john hates susan") = 1/20 over 13 derivations,
# P("john likes mary") = 11/80 over 16 derivations.
def test_toy_sentence_exact_sums(toy_model):
    report = enumerate_derivations(toy_model, "john hates susan".split())
    assert len(report.derivations) == 13
    tree = "(S (NP john) (VP (V hates) (NP susan)))"
    assert report.tree_sums == {tree: Fraction(1, 20)}

    report = enumerate_derivations(toy_model, "john likes mary".split())
    assert len(report.derivations) == 16
    tree = "(S (NP john) (VP (V likes) (NP mary)))"
    assert report.tree_sums == {tree: Fraction(11, 80)}


def test_derivation_probabilities_multiply(toy_model):
    report = enumerate_derivations(toy_model, "john hates susan".split())
    for derivation in report.derivations:
        product = Fraction(1)
        for fragment in derivation.fragments:
            product *= toy_model.entries[fragment.key].probability
        assert derivation.probability == product
    assert sum(d.probability for d in report.derivations) == Fraction(1, 20)


def test_uncovered_word_yields_no_derivations(toy_model):
    report = enumerate_derivations(toy_model, "john likes zebras".split())
    assert report.derivations == ()
    assert report.tree_sums == {}


def test_depth1_model_single_derivation_per_tree(toy_treebank):
    model = build_model(extract_treebank(toy_treebank),
                        RestrictionSet(max_depth=1), TOY_HEAD_RULES,
                        start_labels={"S"})
    report = enumerate_derivations(model, "john hates mary".split())
    assert len(report.derivations) == len(report.tree_sums) == 1


def test_total_mass_bounded(toy_model):
    total = Fraction(0)
    for sentence in ("john likes mary", "john hates susan",
                     "peter likes susan", "peter hates mary"):
        report = enumerate_derivations(toy_model, sentence.split())
        total += sum(report.tree_sums.values(), Fraction(0))
    assert total <= 1


def test_order_independence(toy_model):
    # shuffling the entry dict must not change the report
    report_a = enumerate_derivations(toy_model, "john hates susan".split())
    items = list(toy_model.entries.items())
    random.Random(5).shuffle(items)
    toy_model.entries = dict(items)
    report_b = enumerate_derivations(toy_model, "john hates susan".split())
    assert {d.fragments for d in report_a.derivations} == \
        {d.fragments for d in report_b.derivations}
    assert report_a.tree_sums == report_b.tree_sums


def test_cap_overflow():
    fragments = Counter({frag("(A (B))"): 1, frag("(B (A))"): 1,
                         frag("(A w)"): 1, frag("(B v)"): 1})
    model = build_model(fragments, RestrictionSet(), TOY_HEAD_RULES,
                        start_labels={"A"})
    with pytest.raises(OracleOverflowError):
        enumerate_derivations(model, ["w"], cap=500)


def test_exact_mpp_rational_comparison(toy_model):
    report = enumerate_derivations(toy_model, "john hates susan".split())
    assert write_tree(exact_mpp(report)) == \
        "(S (NP john) (VP (V hates) (NP susan)))"


def test_exact_mpp_prefers_larger_sum():
    # build a report by hand through the public API: ambiguous corpus
    corpus = (
        "(S (V saw) (NP (N man)) (PP (P with) (N scope)))\n"
        "(S (V saw) (NP (NP (N man)) (PP (P with) (N scope))))\n"
    )
    bank = read_treebank(corpus)
    model = build_model(extract_treebank(bank), RestrictionSet(),
                        TOY_HEAD_RULES, start_labels={"S"})
    report = enumerate_derivations(model, "saw man with scope".split())
    assert len(report.tree_sums) == 2
    best = exact_mpp(report)
    best_sum = report.tree_sums[write_tree(best)]
    assert all(best_sum >= other for other in report.tree_sums.values())


def test_exact_mpp_empty_report(toy_model):
    report = enumerate_derivations(toy_model, ["zebras"])
    with pytest.raises(ValueError):
        exact_mpp(report)


def test_report_lines_format(toy_model):
    report = enumerate_derivations(toy_model, "john hates susan".split())
    lines = report_lines(report)
    assert lines == ["(S (NP john) (VP (V hates) (NP susan)))\t1/20\t13"]


def _recursive_derivations(model, sentence, cap):
    """[(fragments, probability, bracketed tree)] by recursive expansion
    and composition, as a reference for the iterative enumeration."""
    by_root = {}
    for key in sorted(model.entries):
        fragment = Fragment(key)
        by_root.setdefault(fragment.root, []).append(
            (fragment, model.entries[key].probability))
    found = []
    steps = 0

    def expand(seq, pos, chosen, probability):
        nonlocal steps
        steps += 1
        if steps > cap or len(found) > cap:
            raise OracleOverflowError("cap")
        while seq and isinstance(seq[0], str):
            if pos >= len(sentence) or sentence[pos] != seq[0]:
                return
            seq = seq[1:]
            pos += 1
        if not seq:
            if pos == len(sentence):
                found.append((tuple(chosen), probability))
            return
        if pos + len(seq) > len(sentence):
            return
        for fragment, p in by_root.get(seq[0].label, ()):
            chosen.append(fragment)
            expand(fragment.frontier + seq[1:], pos, chosen, probability * p)
            chosen.pop()

    def substitute(node, right):
        children = list(node.children)
        for i, child in enumerate(children):
            if isinstance(child, Site):
                assert child.label == right.label
                children[i] = right
                return Tree(node.label, children), True
            if isinstance(child, Tree):
                new_child, done = substitute(child, right)
                if done:
                    children[i] = new_child
                    return Tree(node.label, children), True
        return node, False

    for label in sorted(model.start_labels):
        expand((Site(label),), 0, [], Fraction(1))
    derivations = []
    for fragments, probability in found:
        tree = fragments[0].structure
        for fragment in fragments[1:]:
            tree, done = substitute(tree, fragment.structure)
            assert done
        derivations.append((fragments, probability, write_tree(tree)))
    return derivations


def test_enumeration_matches_recursive_reference_on_random_banks():
    rng = random.Random(4242)
    compared = overflowed = 0
    for _ in range(40):
        bank = Treebank(tuple(random_tree(rng, max_internal=7, max_depth=3)
                              for _ in range(rng.randint(1, 3))))
        model = build_model(extract_treebank(bank), RestrictionSet(),
                            TOY_HEAD_RULES,
                            start_labels={t.label for t in bank.trees})
        for tree in bank.trees:
            words = tree.leaves()
            for sentence in (words, rng.sample(words, len(words))):
                # a unary fragment cycle, or a large set, overflows both
                try:
                    expected = _recursive_derivations(model, sentence, 500)
                except OracleOverflowError:
                    with pytest.raises(OracleOverflowError):
                        enumerate_derivations(model, sentence, cap=500)
                    overflowed += 1
                    continue
                report = enumerate_derivations(model, sentence, cap=500)
                assert [(d.fragments, d.probability, write_tree(d.tree))
                        for d in report.derivations] == expected
                compared += len(expected)
    assert compared > 500 and overflowed > 0
