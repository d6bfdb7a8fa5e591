import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from dop import (ChartParser, CompositionError, CyclicGrammarError, Fragment,
                 RestrictionSet, SentenceParser, Site, Tree, build_model,
                 compose, derivation_probability, enumerate_derivations,
                 extract_treebank, most_probable_parse, nbest_derivations,
                 read_treebank, read_trees, to_rules, train_unknown_model,
                 write_tree)
from dop.modelio import model_from_text
from dop.parser import Derivation, _scaled, _unscaled
from dop.tree import Treebank
from conftest import TOY_HEAD_RULES, random_tree, unary_chain_model


def frag(text):
    return Fragment.from_string(text)


def model_from(corpus, restriction=RestrictionSet(), start=None):
    bank = read_treebank(corpus)
    return build_model(extract_treebank(bank), restriction, TOY_HEAD_RULES,
                       start_labels=start or {t.label for t in bank.trees})


# ---------------------------------------------------------------- compose

def test_compose_substitutes_leftmost():
    result = compose(frag("(S (NP) (VP))"), frag("(NP john)"))
    assert isinstance(result, Fragment)
    assert result.key == "(S (NP john) (VP))"


def test_compose_mismatched_site():
    with pytest.raises(CompositionError):
        compose(frag("(S (NP john) (VP))"), frag("(NP mary)"))


def test_compose_closed_left():
    closed = read_trees("(NP john)")[0]
    with pytest.raises(CompositionError):
        compose(closed, frag("(NP mary)"))


def test_compose_chain_closes_to_tree():
    result = compose(frag("(S (NP) (VP))"), frag("(NP john)"))
    result = compose(result, frag("(VP (V) (NP))"))
    result = compose(result, frag("(V hates)"))
    result = compose(result, frag("(NP susan)"))
    assert isinstance(result, Tree)
    assert write_tree(result) == "(S (NP john) (VP (V hates) (NP susan)))"


# ---------------------------------------------------------------- to_rules

def test_to_rules_frontier_reading(toy_model):
    rules = {r.fragment.key: r for r in to_rules(toy_model)}
    lexical = rules["(S (NP john) (VP))"]
    assert lexical.lhs == "S"
    assert lexical.rhs == ("john", Site("VP"))
    assert rules["(S (NP) (VP))"].rhs == (Site("NP"), Site("VP"))
    assert rules["(VP (V likes) (NP))"].rhs == ("likes", Site("NP"))


def test_to_rules_bijection(toy_model):
    rules = to_rules(toy_model)
    assert len(rules) == len(toy_model.entries)
    assert len({r.index for r in rules}) == len(rules)
    for rule in rules:
        entry = toy_model.entries[rule.fragment.key]
        assert math.isclose(rule.logprob, math.log(float(entry.probability)))


# ---------------------------------------------------------------- chart

def test_chart_full_span_start_item(toy_model):
    chart = ChartParser(to_rules(toy_model), start_labels=["S"],
                        priors=toy_model.priors,
                        prune_ratio=1e-300).chart("john likes mary".split())
    assert chart.item("S", 0, 3) is not None
    assert chart.start_items


def test_chart_uncovered_word_is_no_parse(toy_model):
    chart = ChartParser(to_rules(toy_model), start_labels=["S"],
                        priors=toy_model.priors,
                        prune_ratio=1e-300).chart("john likes zebras".split())
    assert not chart.start_items
    assert nbest_derivations(chart, 10) == []


def test_chart_rejects_bad_ratio(toy_model):
    with pytest.raises(ValueError):
        ChartParser(to_rules(toy_model), start_labels=["S"], prune_ratio=0.0)
    with pytest.raises(ValueError):
        ChartParser(to_rules(toy_model), start_labels=["S"], prune_ratio=1.5)


# ---------------------------------------------------------------- n-best

def nbest(model, sentence, n=100000, ratio=1e-300):
    chart = ChartParser(to_rules(model), start_labels=model.start_labels,
                        priors=model.priors,
                        prune_ratio=ratio).chart(sentence)
    return nbest_derivations(chart, n)


def test_nbest_counts_match_oracle(toy_model):
    # counts hand-derived by the inside recursion over matching fragments
    for sentence, expected in (("john likes mary", 16),
                               ("john hates susan", 13),
                               ("peter hates mary", 11)):
        derivations = nbest(toy_model, sentence.split())
        report = enumerate_derivations(toy_model, sentence.split())
        assert len(derivations) == len(report.derivations) == expected


def test_nbest_first_is_viterbi_best(toy_model):
    derivations = nbest(toy_model, "john hates susan".split())
    assert derivations[0].logprob == max(d.logprob for d in derivations)
    only_best = nbest(toy_model, "john hates susan".split(), n=1)
    assert len(only_best) == 1
    assert only_best[0].fragments == derivations[0].fragments


def test_nbest_sorted_and_distinct(toy_model):
    derivations = nbest(toy_model, "john likes mary".split())
    probs = [d.logprob for d in derivations]
    assert probs == sorted(probs, reverse=True)
    assert len({d.fragments for d in derivations}) == len(derivations)


def test_nbest_probabilities_recompute_exactly(toy_model):
    for derivation in nbest(toy_model, "john hates susan".split()):
        exact = derivation_probability(toy_model, derivation.fragments)
        assert math.isclose(derivation.logprob, math.log(float(exact)),
                            rel_tol=1e-9)


def test_nbest_trees_yield_sentence(toy_model):
    sentence = "john likes susan".split()
    for derivation in nbest(toy_model, sentence):
        assert derivation.tree.leaves() == sentence


def test_nbest_tree_matches_leftmost_composition(toy_model):
    for derivation in nbest(toy_model, "john hates susan".split()):
        rebuilt = derivation.fragments[0]
        for fragment in derivation.fragments[1:]:
            rebuilt = compose(rebuilt, fragment)
        assert rebuilt == derivation.tree


def test_monotone_pruning_degradation(toy_model):
    sentence = "john likes mary".split()
    seen = {}
    for ratio in (1.0, 1e-2, 1e-300):
        seen[ratio] = {d.fragments for d in nbest(toy_model, sentence,
                                                  ratio=ratio)}
    assert seen[1.0] <= seen[1e-2] <= seen[1e-300]


def test_binarization_transparency_long_rhs():
    # ternary and 4-ary frontiers go through the binarizer; derivation
    # sets and probabilities must match the exact oracle
    corpus = ("(S (A a) (B b) (C c))\n"
              "(S (A a) (B b) (C c) (D d))\n"
              "(S (A a) (C c) (B b))\n")
    model = model_from(corpus)
    for sentence in ("a b c", "a b c d", "a c b"):
        words = sentence.split()
        derivations = nbest(model, words)
        report = enumerate_derivations(model, words)
        got = {d.fragments: d.logprob for d in derivations}
        expected = {d.fragments: d.probability for d in report.derivations}
        assert set(got) == set(expected)
        for fragments, logprob in got.items():
            assert math.isclose(logprob, math.log(float(expected[fragments])),
                                rel_tol=1e-12)


def test_depth1_model_single_derivation_per_tree(toy_treebank):
    model = build_model(extract_treebank(toy_treebank),
                        RestrictionSet(max_depth=1), TOY_HEAD_RULES,
                        start_labels={"S"})
    derivations = nbest(model, "john hates mary".split())
    by_tree = Counter(write_tree(d.tree) for d in derivations)
    assert by_tree and all(v == 1 for v in by_tree.values())


def test_unary_chains_parse():
    corpus = "(S (VP (V run)))\n(S (NP (N dogs)) (VP (V run)))\n"
    model = model_from(corpus)
    derivations = nbest(model, ["run"])
    report = enumerate_derivations(model, ["run"])
    assert len(derivations) == len(report.derivations) > 0


def test_deep_unary_chain_parses():
    # one fragment, a 3000-level unary chain: building its tree must not
    # recurse once per level
    depth = 3000
    key, text = unary_chain_model(depth)
    result = SentenceParser(model_from_text(text)).parse(["w"])
    assert result.probability == 1.0
    assert result.tree_tallies == ((key, 1, 1.0),)
    assert result.bracketed == key
    node, labels = result.tree, []
    while isinstance(node, Tree):
        labels.append(node.label)
        (node,) = node.children
    assert labels == ["X%d" % i for i in range(depth)] and node == "w"


def test_unary_cycle_raises():
    fragments = Counter({frag("(A (B))"): 1, frag("(B (A))"): 1,
                         frag("(A w)"): 1, frag("(B v)"): 1})
    model = build_model(fragments, RestrictionSet(), TOY_HEAD_RULES,
                        start_labels={"A"})
    chart = ChartParser(to_rules(model), start_labels=["A"],
                        prune_ratio=1e-300).chart(["w"])
    with pytest.raises(CyclicGrammarError):
        nbest_derivations(chart, 10)


# ------------------------------------------------------ exact sums

def test_exact_sum_matches_fsum_on_extreme_floats():
    rng = random.Random(5)
    tiny = 5e-324                       # the smallest subnormal
    smallest_normal = 2.2250738585072014e-308
    cases = [
        [tiny], [tiny, tiny, tiny], [smallest_normal, -tiny],
        [smallest_normal / 3, smallest_normal / 7, -tiny],
        [1e-320, -1e-321, 3e-322], [tiny, -tiny], [1e-300, -1e-300, 1e-310],
        [1e308, 1.0, -1e308], [1.7e308, -1.7e308, tiny],
        [1.0, 2.0 ** -53], [1.0, 2.0 ** -53, 2.0 ** -106],   # tie, and above
        [3.0, 2.0 ** -52, -(2.0 ** -105)],
        [0.1] * 10, [-0.1] * 1000, [-1e-5] * 100000,
        [-rng.uniform(0, 50) for _ in range(5000)],
        [math.ldexp(rng.choice((-1, 1)) * rng.random(),
                    rng.randint(-1074, 1000)) for _ in range(5000)],
        [math.ldexp(-rng.random(), rng.randint(-1074, -1000))
         for _ in range(5000)],
    ]
    for values in cases:
        exact = _unscaled(sum(map(_scaled, values)))
        assert exact.hex() == math.fsum(values).hex(), values[:3]


# ------------------------------------------------------ most probable parse

def _dummy_derivation(logprob, bracketed):
    tree = read_trees(bracketed)[0]
    return Derivation(logprob, bracketed, (Fragment(tree), ()))


def test_mpp_sums_per_tree():
    tree_a = "(S (A x) (B y))"
    tree_b = "(S (C x) (D y))"
    result = most_probable_parse([
        _dummy_derivation(math.log(0.3), tree_a),
        _dummy_derivation(math.log(0.25), tree_a),
        _dummy_derivation(math.log(0.5), tree_b)])
    assert write_tree(result.tree) == tree_a
    assert math.isclose(result.probability, 0.55, rel_tol=1e-12)
    assert result.derivations_examined == 3
    assert result.tree_tallies[0] == (tree_a, 2, pytest.approx(0.55))


def test_mpp_singleton():
    result = most_probable_parse([_dummy_derivation(math.log(0.125),
                                                    "(S (A x) (B y))")])
    assert math.isclose(result.probability, 0.125)
    assert result.derivations_examined == 1


def test_mpp_tie_breaks_on_best_single_then_bracketing():
    tree_a = "(S (A x) (B y))"
    tree_b = "(S (C x) (D y))"
    result = most_probable_parse([
        _dummy_derivation(math.log(0.5), tree_b),
        _dummy_derivation(math.log(0.3), tree_a),
        _dummy_derivation(math.log(0.2), tree_a)])
    assert write_tree(result.tree) == tree_b          # better single derivation
    tied = most_probable_parse([
        _dummy_derivation(math.log(0.5), tree_b),
        _dummy_derivation(math.log(0.5), tree_a)])
    assert write_tree(tied.tree) == min(tree_a, tree_b)


def test_mpp_empty_rejected():
    with pytest.raises(ValueError):
        most_probable_parse([])


def test_mpp_oracle_agreement(toy_model):
    words = "john hates susan".split()
    result = most_probable_parse(nbest(toy_model, words))
    report = enumerate_derivations(toy_model, words)
    from dop import exact_mpp
    assert result.tree == exact_mpp(report)
    exact = report.tree_sums[write_tree(result.tree)]
    assert exact == Fraction(1, 20)
    assert math.isclose(result.probability, float(exact), rel_tol=1e-12)


# ---------------------------------------------------------- sentence parser

def test_sentence_parser_end_to_end(toy_model):
    parser = SentenceParser(toy_model, n_best=1000, prune_ratio=1e-300)
    result = parser.parse("john likes mary".split())
    assert write_tree(result.tree) == "(S (NP john) (VP (V likes) (NP mary)))"
    assert math.isclose(result.probability, 11 / 80, rel_tol=1e-12)
    assert parser.parse("john likes zebras".split()) is None


def test_sentence_parser_oov_with_unknown_model(toy_treebank, toy_model):
    toy_model.unknown_words = train_unknown_model(toy_treebank, threshold=5)
    parser = SentenceParser(toy_model, n_best=1000, prune_ratio=1e-300)
    result = parser.parse("sam likes mary".split())
    assert result is not None
    assert result.tree.leaves() == ["sam", "likes", "mary"]


def test_sentence_parser_ambiguous_mpp_vs_mpd():
    # two analyses for the same words; the tree with two medium derivations
    # must beat the tree with one strong derivation when the sums say so
    corpus = (
        "(S (V saw) (NP (N man)) (PP (P with) (N scope)))\n"
        "(S (V saw) (NP (NP (N man)) (PP (P with) (N scope))))\n"
    )
    model = model_from(corpus, start={"S"})
    words = "saw man with scope".split()
    derivations = nbest(model, words)
    report = enumerate_derivations(model, words)
    assert len(derivations) == len(report.derivations)
    result = most_probable_parse(derivations)
    from dop import exact_mpp
    assert result.tree == exact_mpp(report)
    assert len(report.tree_sums) == 2


# ------------------------------------------------- differential vs the oracle

def _exact_log(probability):
    return math.log(probability.numerator) - math.log(probability.denominator)


def _oracle_differential(model, words):
    report = enumerate_derivations(model, words)
    parser = SentenceParser(model, n_best=len(report.derivations) + 1,
                            prune_ratio=1e-300)
    derivations = parser.derivations(words)
    # each logprob is the correctly rounded sum of its rules' logprobs
    rule_logprob = {rule.fragment.key: rule.logprob for rule in parser.rules}
    for derivation in derivations:
        exact = math.fsum(rule_logprob[f.key] for f in derivation.fragments)
        assert derivation.logprob.hex() == exact.hex()
    # fragments -> logprob, against the oracle's exact probabilities
    got = {d.fragments: d.logprob for d in derivations}
    expected = {d.fragments: d.probability for d in report.derivations}
    assert len(got) == len(derivations)
    assert set(got) == set(expected)
    for fragments, logprob in got.items():
        assert math.isclose(logprob, _exact_log(expected[fragments]),
                            rel_tol=1e-12, abs_tol=1e-12)
    # per-tree sums, grouped on the parser's bracketed strings
    by_tree = {}
    for derivation in derivations:
        by_tree.setdefault(derivation.bracketed, []).append(derivation.logprob)
    assert set(by_tree) == set(report.tree_sums)
    for bracketed, logs in by_tree.items():
        top = max(logs)
        total = top + math.log(sum(math.exp(lp - top) for lp in logs))
        assert math.isclose(total, _exact_log(report.tree_sums[bracketed]),
                            rel_tol=1e-12, abs_tol=1e-12)
    # the string, the on-demand tree and the fragments agree
    for derivation in derivations:
        tree = derivation.tree
        assert derivation.bracketed == write_tree(tree)
        rebuilt = derivation.fragments[0]
        for fragment in derivation.fragments[1:]:
            rebuilt = compose(rebuilt, fragment)
        if isinstance(rebuilt, Fragment):
            rebuilt = rebuilt.structure
        assert rebuilt == tree
    return len(derivations)


def test_differential_against_oracle_on_random_banks():
    rng = random.Random(20001)
    banks = derivations = cyclic = 0
    while banks < 25:
        bank = Treebank(tuple(random_tree(rng, max_internal=7, max_depth=3)
                              for _ in range(rng.randint(1, 3))))
        model = build_model(extract_treebank(bank), RestrictionSet(),
                            TOY_HEAD_RULES,
                            start_labels={t.label for t in bank.trees})
        if SentenceParser(model).parser.grammar.unary_cycle is not None:
            cyclic += 1       # infinite derivation sets; covered elsewhere
            continue
        banks += 1
        for tree in bank.trees:
            words = tree.leaves()
            derivations += _oracle_differential(model, words)
            # a reordering may have no parse; both sides must agree on it
            derivations += _oracle_differential(
                model, rng.sample(words, len(words)))
    assert derivations > 500
    assert cyclic < banks
