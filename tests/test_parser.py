import gc
import io
import math
import pickle
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

import dop.parser
from dop import (ChartParser, CompositionError, CyclicGrammarError, Fragment,
                 RestrictionSet, SentenceParser, Site, Tree, UnknownWordModel,
                 build_model, compose, derivation_probability,
                 enumerate_derivations, extract_treebank, good_turing_adjust,
                 most_probable_parse, nbest_derivations, read_treebank,
                 read_trees, train_unknown_model, write_model, write_tree)
from dop.cli import _sentence_parser
from dop.modelio import model_from_text, model_to_text, read_model
from dop.parser import Derivation, _log, _scaled, _unscaled
from dop.tree import Treebank
from conftest import (TOY_HEAD_RULES, assert_parser_for_words_agrees,
                      assert_stops_early_with_the_same_parses, random_tree,
                      unary_chain_model)


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


# ------------------------------------------------------------------- rules

def test_rules_frontier_reading(toy_model):
    rules = {r.key: r for r in SentenceParser(toy_model).rules}
    lexical = rules["(S (NP john) (VP))"]
    assert lexical.lhs == "S"
    assert lexical.rhs == ("john", Site("VP"))
    assert rules["(S (NP) (VP))"].rhs == (Site("NP"), Site("VP"))
    assert rules["(VP (V likes) (NP))"].rhs == ("likes", Site("NP"))


def test_rules_pickle_and_keep_lazy_fields(toy_model):
    # a pool that spawns its workers pickles the parser to them
    for rule in SentenceParser(toy_model).rules:
        copy = pickle.loads(pickle.dumps(rule))
        assert (copy.lhs, copy.rhs, copy.key, copy.logprob,
                copy.index) == (rule.lhs, rule.rhs, rule.key,
                                rule.logprob, rule.index)
        assert copy.scaled == rule.scaled == _scaled(rule.logprob)
        assert copy.form == rule.form
        assert copy.form % tuple(["(%s)" % site.label for site in rule.rhs
                                  if isinstance(site, Site)]) == \
            rule.key
    parser = SentenceParser(toy_model)
    copy = pickle.loads(pickle.dumps(parser))
    words = "john likes mary".split()
    assert copy.parse(words).tree_tallies == parser.parse(words).tree_tallies


def test_rules_of_one_root_share_one_lhs():
    bank = read_treebank("\n".join(write_tree(random_tree(
        random.Random(seed), max_internal=12)) for seed in range(30)))
    model = build_model(extract_treebank(bank), RestrictionSet(),
                        TOY_HEAD_RULES)
    rules = SentenceParser(model).rules
    shared = {}
    for rule in rules:
        assert shared.setdefault(rule.lhs, rule.lhs) is rule.lhs
        assert rule.lhs == Fragment(rule.key).root
    assert len(shared) > 1 and len(rules) > 10 * len(shared)


def test_sentence_parser_pickles_without_the_model(toy_treebank, toy_model):
    # a worker pool is sent the parser: it carries the rules and what
    # oov_rules reads, not the model's entries, and its rules hold key
    # text, not Fragments
    toy_model.unknown_words = train_unknown_model(toy_treebank, threshold=5)
    parser = SentenceParser(toy_model, n_best=1000, prune_ratio=1e-300)
    assert not hasattr(parser, "model")
    data = pickle.dumps(parser)
    assert b"ModelEntry" not in data and b"FragmentModel" not in data
    assert b"Fragment" not in data
    copy = pickle.loads(data)
    for words in ("john likes mary", "sam likes mary", "peter hates susan"):
        words = words.split()
        assert copy.parse(words).tree_tallies == \
            parser.parse(words).tree_tallies
    words = "sam likes mary".split()
    guesses = [(r.lhs, r.key, r.logprob, r.index)
               for r in parser.oov_rules(words)]
    assert guesses and guesses == [(r.lhs, r.key, r.logprob, r.index)
                                   for r in copy.oov_rules(words)]


def test_model_text_to_parse_builds_no_fragment(tmp_path, toy_treebank,
                                                 toy_model, monkeypatch):
    # rules, derivations and parses carry key text; a derivation builds its
    # Fragments only when they are read
    from dop.cli import main
    toy_model.unknown_words = train_unknown_model(toy_treebank, threshold=5)
    text = model_to_text(toy_model)
    sentences = [words.split() for words in
                 ("john likes mary", "sam likes mary", "peter hates susan")]
    path = tmp_path / "toy.dopmodel"
    path.write_text(text)
    sents = tmp_path / "sents.txt"
    sents.write_text("".join(" ".join(words) + "\n" for words in sentences))
    made = []
    build = Fragment.__init__

    def counted(self, key):
        made.append(key)
        build(self, key)

    monkeypatch.setattr(Fragment, "__init__", counted)
    derivations = []
    for allowed in (None, {word for words in sentences for word in words}):
        parser = SentenceParser(io.StringIO(text), words=allowed)
        for words in sentences:
            derivations += parser.derivations(words)
            assert parser.parse(words) is not None
    assert main(["parse", "--model", str(path), "--input", str(sents),
                 "--output", str(tmp_path / "out.txt")]) == 0
    assert parser.oov_rules(["sam"]) and made == []
    keys = [fragment.key for fragment in derivations[0].fragments]
    assert made == keys


def test_rules_bijection(toy_model):
    rules = SentenceParser(toy_model).rules
    assert len(rules) == len(toy_model.entries)
    assert len({r.index for r in rules}) == len(rules)
    for rule in rules:
        entry = toy_model.entries[rule.key]
        assert math.isclose(rule.logprob, math.log(float(entry.probability)))


def _assert_rules_from_model_and_file_agree(model):
    # a model's rules are its file's rules: in (root, key) order, indexed
    # by row, each log probability that of the entry's exact probability
    from_model = SentenceParser(model).rules
    from_file = SentenceParser(io.StringIO(model_to_text(model))).rules
    assert [(r.key, r.lhs, r.rhs, r.logprob.hex(), r.index)
            for r in from_model] == \
        [(r.key, r.lhs, r.rhs, r.logprob.hex(), r.index)
         for r in from_file]
    entries = model.entries
    assert [r.key for r in from_model] == sorted(
        entries, key=lambda key: (Fragment(entries[key].key).root, key))
    assert [r.index for r in from_model] == list(range(len(entries)))
    for rules in (from_model, from_file):
        lhs = {}
        for rule in rules:
            assert rule.logprob == _log(entries[rule.key].probability)
            assert lhs.setdefault(rule.lhs, rule.lhs) is rule.lhs
        assert len(lhs) == len({Fragment(e.key).root
                                for e in entries.values()})


def test_rules_from_a_model_equal_rules_from_its_file(toy_model):
    _assert_rules_from_model_and_file_agree(toy_model)
    _assert_rules_from_model_and_file_agree(good_turing_adjust(toy_model))


# ---------------------------------------------------------------- chart

def test_chart_full_span_start_item(toy_model):
    chart = ChartParser(SentenceParser(toy_model).rules, start_labels=["S"],
                        priors=toy_model.priors,
                        prune_ratio=1e-300).chart("john likes mary".split())
    assert chart.item("S", 0, 3) is not None
    assert chart.start_items


def test_chart_uncovered_word_is_no_parse(toy_model):
    chart = ChartParser(SentenceParser(toy_model).rules, start_labels=["S"],
                        priors=toy_model.priors,
                        prune_ratio=1e-300).chart("john likes zebras".split())
    assert not chart.start_items
    assert nbest_derivations(chart, 10) == []


def test_chart_rejects_bad_ratio(toy_model):
    rules = SentenceParser(toy_model).rules
    with pytest.raises(ValueError):
        ChartParser(rules, start_labels=["S"], prune_ratio=0.0)
    with pytest.raises(ValueError):
        ChartParser(rules, start_labels=["S"], prune_ratio=1.5)


# ---------------------------------------------------------------- n-best

def nbest(model, sentence, n=100000, ratio=1e-300):
    chart = ChartParser(SentenceParser(model).rules,
                        start_labels=model.start_labels, priors=model.priors,
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


def test_nbest_resumes_on_the_same_chart(toy_model):
    # the search state stays on the chart items: a second, longer request
    # continues it and repeats the first one's derivations
    words = "john likes mary".split()
    chart = ChartParser(SentenceParser(toy_model).rules, start_labels=["S"],
                        prune_ratio=1e-300).chart(words)
    first = nbest_derivations(chart, 5)
    every = nbest_derivations(chart, 10 ** 5)
    report = enumerate_derivations(toy_model, words)
    assert len(every) == len(report.derivations) == 16
    assert ([(d.bracketed, d.logprob, d.fragments) for d in every[:5]]
            == [(d.bracketed, d.logprob, d.fragments) for d in first])
    fresh = nbest(toy_model, words)
    assert ([(d.bracketed, d.logprob, d.fragments) for d in every]
            == [(d.bracketed, d.logprob, d.fragments) for d in fresh])
    # asked past their last derivation, the start items are marked done
    assert all(item.cand is None for item in chart.start_items)


def test_nbest_ties_across_start_labels_keep_label_order():
    # all six derivations of "w" score log 1/3, three under each start
    # label; order recorded before the goal item was removed
    model = model_from("(A w)\n(A (C w))\n(B w)\n(B (C w))\n",
                       start={"A", "B"})
    chart = ChartParser(SentenceParser(model).rules,
                        start_labels=model.start_labels,
                        prune_ratio=1e-300).chart(["w"])
    assert [item.label for item in chart.start_items] == ["A", "B"]
    derivations = nbest_derivations(chart, 100)
    assert {d.logprob for d in derivations} == {math.log(1 / 3)}
    assert [[f.key for f in d.fragments] for d in derivations] == [
        ["(A (C w))"], ["(A w)"], ["(A (C))", "(C w)"],
        ["(B (C w))"], ["(B w)"], ["(B (C))", "(C w)"]]


def test_nbest_realizes_percent_signs_verbatim():
    # bracketed strings fill per-rule format strings, which must leave the
    # words' % signs as they are; expected lists recorded when realizing
    # joined the key's pieces instead
    model = model_from("(S (A %) (B %s))\n(S (A %%d) (B (C %s%%)))\n")
    expected = {
        ("%", "%s"): ("(S (A %) (B %s))", [
            (-2.302585092994046, ["(S (A %) (B %s))"]),
            (-2.9957322735539913, ["(S (A) (B %s))", "(A %)"]),
            (-3.4011973816621555, ["(S (A) (B))", "(A %)", "(B %s)"]),
            (-3.401197381662156, ["(S (A %) (B))", "(B %s)"])]),
        ("%%d", "%s%%"): ("(S (A %%d) (B (C %s%%)))", [
            (-2.302585092994046, ["(S (A %%d) (B (C %s%%)))"]),
            (-2.302585092994046, ["(S (A %%d) (B (C)))", "(C %s%%)"]),
            (-2.9957322735539913, ["(S (A) (B (C %s%%)))", "(A %%d)"]),
            (-2.9957322735539913,
             ["(S (A) (B (C)))", "(A %%d)", "(C %s%%)"]),
            (-3.4011973816621555, ["(S (A) (B))", "(A %%d)",
                                   "(B (C %s%%))"]),
            (-3.4011973816621555, ["(S (A) (B))", "(A %%d)", "(B (C))",
                                   "(C %s%%)"]),
            (-3.401197381662156, ["(S (A %%d) (B))", "(B (C %s%%))"]),
            (-3.401197381662156, ["(S (A %%d) (B))", "(B (C))",
                                  "(C %s%%)"])]),
    }
    for words, (bracketed, derivations) in expected.items():
        got = nbest(model, list(words))
        assert ([(d.logprob, [f.key for f in d.fragments]) for d in got]
                == derivations)
        assert {d.bracketed for d in got} == {bracketed}


def test_parse_leaves_no_reference_cycles(toy_treebank, toy_model):
    # the premise of parsing each sentence with the collector paused:
    # reference counting alone frees a parse's chart and derivations
    toy_model.unknown_words = train_unknown_model(toy_treebank, threshold=5)
    parser = SentenceParser(toy_model, n_best=1000, prune_ratio=1e-300)
    # "sam" is out of vocabulary
    sentences = [s.split() for s in ("john likes mary", "sam likes mary",
                                     "peter hates susan")]
    gc.collect()
    gc.disable()
    try:
        results = [parser.parse(words) for words in sentences]
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert all(result is not None for result in results)


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


def test_nbest_parses_a_450_level_chain_of_depth1_fragments():
    # 450 rules deep: the n-best search and the realization of its one
    # derivation each take one frame per level, which fits the default
    # recursion limit with room to spare
    assert sys.getrecursionlimit() == 1000
    depth = 450
    fragments = Counter({frag("(X%d (X%d))" % (i, i + 1)): 1
                         for i in range(depth - 1)})
    fragments[frag("(X%d w)" % (depth - 1))] = 1
    model = build_model(fragments, RestrictionSet(), TOY_HEAD_RULES,
                        start_labels={"X0"})
    chain = "".join("(X%d " % i for i in range(depth)) + "w" + ")" * depth
    result = SentenceParser(model, prune_ratio=1e-300).parse(["w"])
    assert result.tree_tallies == ((chain, 1, 1.0),)


def test_parsing_leaves_no_state_in_the_parser_module(toy_model):
    # the search state lives on the chart and its items: no dict or list
    # of the module grows as sentences are parsed
    def sizes():
        return {name: len(value) for name, value in vars(dop.parser).items()
                if isinstance(value, (dict, list))}

    before = sizes()
    parser = SentenceParser(toy_model, prune_ratio=1e-300)
    for sentence in ("john likes mary", "john hates susan",
                     "peter hates mary", "mary likes john", "zebras"):
        parser.parse(sentence.split())
    assert sizes() == before


def test_unary_cycle_raises():
    fragments = Counter({frag("(A (B))"): 1, frag("(B (A))"): 1,
                         frag("(A w)"): 1, frag("(B v)"): 1})
    model = build_model(fragments, RestrictionSet(), TOY_HEAD_RULES,
                        start_labels={"A"})
    chart = ChartParser(SentenceParser(model).rules, start_labels=["A"],
                        prune_ratio=1e-300).chart(["w"])
    with pytest.raises(CyclicGrammarError):
        nbest_derivations(chart, 10)


def _unary_model(*keys):
    return build_model(Counter({frag(key): 1 for key in keys}),
                       RestrictionSet(), TOY_HEAD_RULES, start_labels={"A"})


def test_a_unary_self_loop_is_refused(tmp_path, capsys):
    from dop.cli import main
    model = _unary_model("(A (A))", "(A w)")
    parser = SentenceParser(model, prune_ratio=1e-300)
    assert parser.unary_cycle == "A"
    with pytest.raises(CyclicGrammarError, match="cycle through 'A'"):
        nbest_derivations(parser.chart(["w"]), 10)
    path = tmp_path / "loop.dopmodel"
    write_model(model, path)
    sents = tmp_path / "sents.txt"
    sents.write_text("w\n")
    assert main(["parse", "--model", str(path), "--input", str(sents)]) == 2
    err = capsys.readouterr().err
    assert "unary fragment cycle through 'A'" in err
    assert "Traceback" not in err


def test_unary_cycle_names_a_label_on_the_cycle():
    model = _unary_model("(A (B))", "(B (C))", "(C (A))", "(A w)", "(C (D))",
                         "(D w)")
    assert SentenceParser(model).unary_cycle in {"A", "B", "C"}


def test_a_unary_diamond_has_no_cycle():
    model = _unary_model("(A (B))", "(A (C))", "(B (D))", "(C (D))", "(D w)")
    assert SentenceParser(model).unary_cycle is None


def test_chart_keeps_a_stale_inside_score():
    # characterization: the width-1 cell completes w -> A, B; A -> C;
    # B -> A, in that order, so A's inside rises from log 0.1 to log 0.9
    # after C was completed from it, and C keeps log 0.1. The golden bank
    # has no such stale item, so this is the pin for the fix of stale
    # inside scores (ROADMAP item 8), which must change it on purpose.
    fragments = Counter({frag("(A w)"): 1, frag("(A (B))"): 9,
                         frag("(B w)"): 1, frag("(C (A))"): 1})
    model = build_model(fragments, RestrictionSet(), TOY_HEAD_RULES,
                        start_labels={"C"})
    rules = {rule.key: rule for rule in SentenceParser(model).rules}
    chart = ChartParser(rules.values(), start_labels=["C"],
                        prune_ratio=1e-300).chart(["w"])
    cell = chart.cells[(0, 1)]
    assert list(cell) == [("w", "w"), ("n", "A"), ("n", "B"), ("n", "C")]
    word, a, b, c = cell.values()
    assert word.edges == []
    assert [(rule.key, tails) for rule, tails, _ in a.edges] == [
        ("(A w)", (word,)), ("(A (B))", (b,))]
    assert [(rule.key, tails) for rule, tails, _ in b.edges] == [
        ("(B w)", (word,))]
    assert [(rule.key, tails) for rule, tails, _ in c.edges] == [
        ("(C (A))", (a,))]
    for item in (a, b, c):
        assert all(weight == rule.logprob for rule, _, weight in item.edges)
    log_a_w = rules["(A w)"].logprob
    log_a_b = rules["(A (B))"].logprob
    assert math.isclose(log_a_w, math.log(0.1))
    assert math.isclose(log_a_b, math.log(0.9))
    assert word.inside == 0.0
    assert b.inside == rules["(B w)"].logprob == 0.0
    assert a.inside == log_a_b
    assert c.inside == rules["(C (A))"].logprob + log_a_w
    # C's only edge scores log 0.9, above the inside it holds
    assert c.edges[0][2] + a.inside == log_a_b > c.inside
    assert chart.start_items == [c]


class _CountingList(list):
    lookups = 0

    def __getitem__(self, index):
        self.lookups += 1
        return super().__getitem__(index)


def test_unary_chain_completion_is_linear():
    # each item of a cell is taken once: a 1000-level chain of depth-1
    # unary rules costs one completion lookup per item, not one per item
    # per round (about n**2 / 2)
    depth = 1000
    fragments = Counter({frag("(X%d (X%d))" % (i, i + 1)): 1
                         for i in range(depth - 1)})
    fragments[frag("(X%d w)" % (depth - 1))] = 1
    model = build_model(fragments, RestrictionSet(), TOY_HEAD_RULES,
                        start_labels={"X0"})
    parser = ChartParser(SentenceParser(model).rules, start_labels=["X0"],
                         prune_ratio=1e-300)
    parser.completions = _CountingList(parser.completions)
    chart = parser.chart(["w"])
    lookups = parser.completions.lookups
    items = sum(len(cell) for cell in chart.cells.values())
    assert items == depth + 1
    assert [item.label for item in chart.start_items] == ["X0"]
    assert lookups <= 2 * items


def _reference_completions(parser):
    # trie node -> the rules whose rhs ends there, in rule order, found by
    # walking each rule's rhs through the trie
    reference = {}
    for rule in parser.rules:
        node = None
        for element in rule.rhs:
            sym = ("w", element) if isinstance(element, str) else \
                ("n", element.label)
            node = (parser.first_step[sym] if node is None
                    else parser.steps_on[sym][node])
        reference.setdefault(node, []).append(rule)
    return reference


def test_completions_index_matches_rules_on_random_banks():
    rng = random.Random(3701)
    shared_ends = 0
    for _ in range(30):
        bank = Treebank(tuple(random_tree(rng, max_internal=12)
                              for _ in range(rng.randint(1, 6))))
        model = build_model(extract_treebank(bank), RestrictionSet(),
                            TOY_HEAD_RULES,
                            start_labels={t.label for t in bank.trees})
        parser = ChartParser(SentenceParser(model).rules, start_labels={"S"})
        completions = parser.completions
        # nodes are numbered 0..N-1 in the order they were made
        nodes = list(parser.first_step.values()) + [
            node for steps in parser.steps_on.values()
            for node in steps.values()]
        assert sorted(nodes) == list(range(len(completions)))
        assert isinstance(completions, list)
        reference = _reference_completions(parser)
        for node, rules in enumerate(completions):
            assert type(rules) is tuple
            assert rules == tuple(reference.get(node, ())), node
            shared_ends += len(rules) > 1
        assert sum(map(len, completions)) == len(parser.rules)
    assert shared_ends > 30


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
    return Derivation(logprob, bracketed, (Fragment(write_tree(tree)), ()))


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


def test_sentence_parser_is_the_chart_parser(toy_treebank, toy_model,
                                             monkeypatch):
    toy_model.unknown_words = train_unknown_model(toy_treebank, threshold=5)
    parser = SentenceParser(toy_model, n_best=1000, prune_ratio=1e-300)
    assert isinstance(parser, ChartParser)
    with pytest.raises(ValueError, match="n_best"):
        SentenceParser(toy_model, n_best=0)
    # patches on these names reach a parse, as the traced benchmark's do
    calls = []

    def recording(owner, name):
        function = getattr(owner, name)

        def record(*args, **kwargs):
            calls.append(name)
            return function(*args, **kwargs)
        monkeypatch.setattr(owner, name, record)

    recording(ChartParser, "chart")
    recording(SentenceParser, "oov_rules")
    recording(dop.parser, "nbest_derivations")
    recording(dop.parser, "most_probable_parse")
    result = parser.parse("sam likes mary".split())
    assert result.tree.leaves() == ["sam", "likes", "mary"]
    assert calls == ["oov_rules", "chart", "nbest_derivations",
                     "most_probable_parse"]


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
    rule_logprob = {rule.key: rule.logprob for rule in parser.rules}
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
        _assert_rules_from_model_and_file_agree(model)
        if SentenceParser(model).unary_cycle is not None:
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


def test_parser_for_words_agrees_on_random_banks():
    # the banks of the oracle differential: a parser built for a sentence's
    # words keeps fewer rules and parses it as one built for every row
    rng = random.Random(20001)
    banks = kept = total = 0
    while banks < 25:
        bank = Treebank(tuple(random_tree(rng, max_internal=7, max_depth=3)
                              for _ in range(rng.randint(1, 3))))
        model = build_model(extract_treebank(bank), RestrictionSet(),
                            TOY_HEAD_RULES,
                            start_labels={t.label for t in bank.trees})
        full = SentenceParser(model, prune_ratio=1e-300)
        if full.unary_cycle is not None:
            continue
        banks += 1
        for tree in bank.trees:
            words = tree.leaves()
            for sentence in (words, rng.sample(words, len(words)),
                             words[:1]):
                kept += assert_parser_for_words_agrees(
                    full, model, sentence, prune_ratio=1e-300)
                total += len(full.rules)
    assert kept < total


# ------------------------------------------------------------- early stop

def test_early_stop_keeps_the_parses_on_random_banks(tmp_path):
    # the banks of the oracle differential, parsed by the commands' parser
    # and by SentenceParser.parse
    rng = random.Random(20001)
    banks = 0
    examined = {n: [0, 0] for n in (1, 7, 1000)}    # (commands', parse's)
    path = tmp_path / "bank.dopmodel"
    while banks < 25:
        bank = Treebank(tuple(random_tree(rng, max_internal=7, max_depth=3)
                              for _ in range(rng.randint(1, 3))))
        model = build_model(extract_treebank(bank), RestrictionSet(),
                            TOY_HEAD_RULES,
                            start_labels={t.label for t in bank.trees})
        if SentenceParser(model).unary_cycle is not None:
            continue
        banks += 1
        path.write_text(model_to_text(model))
        sentences = []
        for tree in bank.trees:
            words = tree.leaves()
            sentences += [words, rng.sample(words, len(words))]
        for n, total in examined.items():
            for prune_ratio in (1e-5, 1e-300):
                early, every = assert_stops_early_with_the_same_parses(
                    str(path), sentences, n, prune_ratio)
                total[0] += early
                total[1] += every
    assert examined[1][0] == examined[1][1] > 0
    for n in (7, 1000):
        assert examined[n][0] < examined[n][1]


def _stopping_parser(tmp_path, rows, n_best):
    """The commands' parser for "x y" of a model whose S rows are rows,
    (key, probability) pairs, and whose one D row is (D y) at 1."""
    path = tmp_path / "hand.dopmodel"
    path.write_text(
        "dopmodel\t1\n"
        "restriction\tmax_depth=-\tmax_frontier_words=-\t"
        "max_unlex_depth=-\tmax_nonheadwords=-\tsample_per_depth=-\n"
        "smoothing\toff\nstart\tS\n"
        "root\tD\t1\t1\t0\nroot\tS\t%d\t%d\t0\nentries\n1\t1\t(D y)\n"
        % (len(rows), len(rows))
        + "".join("1\t%s\t%s\n" % (probability, key)
                  for key, probability in sorted(rows)))
    return _sentence_parser(str(path), [["x", "y"]], n_best, 1e-300)


_TREE_A = "(S (A x) (B y))"
_TREE_C = "(S (C x) (D y))"
# the row of a third tree, far below the others: the search must decide
# before it
_FAR_BELOW = ("(S (E x) (F y))", "1/1" + "0" * 30)


def _parse_both(parser):
    # the commands' parse and the exhaustive one, over every derivation
    words = ["x", "y"]
    every = nbest_derivations(parser.chart(words), parser.n_best)
    return parser.parse(words), most_probable_parse(every)


def test_early_stop_waits_for_the_derivation_that_decides(tmp_path):
    # A has one derivation at .4, C two at .3 each: C wins only once its
    # second derivation is in
    rows = [(_TREE_A, "4/10"), (_TREE_C, "3/10"), ("(S (C x) (D))", "3/10"),
            _FAR_BELOW]
    for n_best, examined, tree in ((2, 1, _TREE_A), (3, 3, _TREE_C),
                                   (1000, 3, _TREE_C)):
        stopped, full = _parse_both(_stopping_parser(tmp_path, rows, n_best))
        assert stopped.bracketed == full.bracketed == tree
        # after one derivation, .4 leads by more than the one .3 to come
        # when n is 2, and by less than the two to come when n is 3; with
        # n at 1000, C's .6 against A's .4 is decided before E
        assert stopped.derivations_examined == examined
        assert full.derivations_examined == min(n_best, 4)


@pytest.mark.parametrize("n_best", [2, 3, 1000])
def test_early_stop_runs_on_through_an_exact_tie(tmp_path, n_best):
    # A and C have one derivation each, at the same probability: no lead,
    # so the search runs to n (or to its last derivation) and the
    # exhaustive tie break picks A
    rows = [(_TREE_A, "3/10"), (_TREE_C, "3/10"), _FAR_BELOW]
    stopped, full = _parse_both(_stopping_parser(tmp_path, rows, n_best))
    assert stopped == full
    assert stopped.bracketed == _TREE_A
    assert stopped.derivations_examined == min(n_best, 3)


def test_early_stop_bound_is_widened_by_the_drift_tolerance(tmp_path):
    # near log -700, the tolerance of the drift check is 7e-7 of a
    # probability: A at p leads C's first derivation, at x p with
    # x = .5 - 5e-8, by 1e-7 p more than the bound on the one to come, but
    # by less than the bound widened, so the search runs on to n
    p = 10 ** 304
    c = "49999995/%d" % (p * 10 ** 8)
    rows = [(_TREE_A, "1/%d" % p), (_TREE_C, c), ("(S (C x) (D))", c)]
    stopped, full = _parse_both(_stopping_parser(tmp_path, rows, 3))
    assert stopped == full
    assert stopped.bracketed == _TREE_A
    assert stopped.derivations_examined == 3


def test_early_stop_needs_a_lead_beyond_rounding(tmp_path):
    # A's one derivation at p against C's two at p / 2: equal sums, which
    # rounding may part by an ulp or so. No such lead stops the search
    # short of E, however far below E falls.
    parted = 0
    for denominator in range(3, 40):
        rows = [(_TREE_A, "1/%d" % denominator),
                (_TREE_C, "1/%d" % (2 * denominator)),
                ("(S (C x) (D))", "1/%d" % (2 * denominator)), _FAR_BELOW]
        stopped, full = _parse_both(_stopping_parser(tmp_path, rows, 1000))
        assert stopped == full
        assert stopped.derivations_examined == 4
        first, second = (tally[2] for tally in full.tree_tallies[:2])
        parted += first != second
    assert parted > 0


# a third tree over "x y"
_TREE_G = "(S (G x) (H y))"


def test_early_stop_on_the_mass_still_to_come(tmp_path):
    # A at .5 against C at .25 and G at .0625: after A, the forest holds
    # .3125 of mass still to come, less than A's lead of .5, so the search
    # stops at 1. The top-n bound alone would not stop there, (n - 1) .25
    # being at least .5 for every n > 2.
    rows = [(_TREE_A, "1/2"), (_TREE_C, "1/4"), (_TREE_G, "1/16")]
    for n_best in (3, 1000):
        stopped, full = _parse_both(_stopping_parser(tmp_path, rows, n_best))
        assert stopped.bracketed == full.bracketed == _TREE_A
        assert stopped.derivations_examined == 1
        assert full.derivations_examined == 3


@pytest.mark.parametrize("mass", [math.inf, math.nan])
def test_early_stop_keeps_the_top_n_bound_without_a_finite_forest_mass(
        tmp_path, mass):
    # the rows of test_early_stop_on_the_mass_still_to_come, with the start
    # item's inside sum forced to mass after a first search: the top-n
    # bound alone decides, at the last derivation
    rows = [(_TREE_A, "1/2"), (_TREE_C, "1/4"), (_TREE_G, "1/16")]
    parser = _stopping_parser(tmp_path, rows, 1000)
    chart = parser.chart(["x", "y"])
    assert len(nbest_derivations(chart, 1)) == 1
    [start] = chart.start_items
    assert start.mass == 1 + 1 / 2 + 1 / 8
    start.mass = mass
    derivations = nbest_derivations(chart, 1000, stop_early=True)
    assert [d.bracketed for d in derivations] == [_TREE_A, _TREE_C, _TREE_G]


def _lead_at_the_margin(share):
    """C's two derivations, at .6 and c of A's mass, against A and G at .1,
    with c chosen so that C's lead over A, once both are in, clears the
    bound on the mass still to come with its margin relative to the
    forest at share of that margin: (lead - leader margin - bound) /
    (forest margin) = share. Returns the rows."""
    from dop.parser import _DRIFT, _FAR, _MARGIN
    best = _log(Fraction(1, 2))
    spread = math.exp(2.0 * _DRIFT * (_FAR - best))
    g = 0.1
    # u, C's mass, solves u - 1 - _MARGIN u
    #   = (1 + u + g) spread - (1 + u) + share _MARGIN (1 + u + g)
    u = ((1 + g) * (spread + share * _MARGIN)
         / (2 - spread - _MARGIN - share * _MARGIN))
    c = Fraction(u - 0.6).limit_denominator(10 ** 15)
    return [(_TREE_A, "1/2"), (_TREE_C, "3/10"),
            ("(S (C x) (D))", str(c / 2)), (_TREE_G, "1/20")]


@pytest.mark.parametrize("share, examined", [(0.5, 4), (1.5, 3)])
def test_early_stop_mass_bound_has_a_margin_relative_to_the_forest(
        tmp_path, share, examined):
    # after A (1), C (.6) and C (about .5), C leads A by more than the mass
    # still to come (G's .1), widened: by half of the margin of 1e-9 of the
    # forest's mass (2.2), the search runs on to G; by one and a half, it
    # stops. The top-n bound, 997 times G's .1, decides neither.
    rows = _lead_at_the_margin(share)
    stopped, full = _parse_both(_stopping_parser(tmp_path, rows, 1000))
    assert stopped.bracketed == full.bracketed == _TREE_C
    assert stopped.derivations_examined == examined
    assert full.derivations_examined == 4


# ------------------------------------------------------------ forest sums

def _forest_log_total(chart):
    """The log of the chart's total over every derivation, from the start
    items' inside sums, which the first derivation request fills."""
    nbest_derivations(chart, 1)
    firsts = [(-item.derivs[0][0], item.mass) for item in chart.start_items
              if item.derivs]
    top = max(best for best, _ in firsts)
    return top + math.log(sum(math.exp(best - top) * mass
                              for best, mass in firsts))


def test_forest_mass_equals_the_oracle_sum_on_random_banks():
    # the banks of the oracle differential, unpruned and with no OOV
    # rules, and depth-bounded and smoothed models of them
    rng = random.Random(20001)
    banks = compared = 0
    while banks < 25:
        bank = Treebank(tuple(random_tree(rng, max_internal=7, max_depth=3)
                              for _ in range(rng.randint(1, 3))))
        start = {t.label for t in bank.trees}
        fragments = extract_treebank(bank)
        model = build_model(fragments, RestrictionSet(), TOY_HEAD_RULES,
                            start_labels=start)
        if SentenceParser(model).unary_cycle is not None:
            continue
        banks += 1
        models = (model, good_turing_adjust(model),
                  build_model(fragments, RestrictionSet(max_depth=2),
                              TOY_HEAD_RULES, start_labels=start))
        for tree in bank.trees:
            words = tree.leaves()
            for sentence in (words, rng.sample(words, len(words))):
                for variant in models:
                    parser = SentenceParser(variant, prune_ratio=1e-300)
                    chart = parser.chart(sentence)
                    report = enumerate_derivations(variant, sentence)
                    if not chart.start_items:
                        assert not report.derivations
                        continue
                    exact = _exact_log(sum(d.probability
                                           for d in report.derivations))
                    assert math.isclose(_forest_log_total(chart), exact,
                                        rel_tol=0, abs_tol=1e-12)
                    compared += 1
    assert compared > 100


def test_forest_mass_is_relative_to_the_best_score_of_stale_items():
    # the stale width-1 cell of test_chart_keeps_a_stale_inside_score,
    # under S -> C V: C holds log 0.1, and so, through it, do the prefix
    # item of S's rule and S; their derivations score .9 and .1, and each
    # inside sum is taken relative to .9
    fragments = Counter({frag("(A w)"): 1, frag("(A (B))"): 9,
                         frag("(B w)"): 1, frag("(C (A))"): 1,
                         frag("(S (C) (V v))"): 1, frag("(V v)"): 1})
    model = build_model(fragments, RestrictionSet(), TOY_HEAD_RULES,
                        start_labels={"S"})
    chart = ChartParser(SentenceParser(model).rules, start_labels=["S"],
                        prune_ratio=1e-300).chart(["w", "v"])
    [start] = chart.start_items
    [prefix] = [item for sym, item in chart.cells[(0, 2)].items()
                if sym[0] == "p"]
    c = chart.item("C", 0, 1)
    for item in (c, prefix, start):
        assert math.isclose(item.inside, math.log(0.1))
    assert math.isclose(_forest_log_total(chart), 0.0, abs_tol=1e-15)
    for item in (c, prefix, start):
        assert math.isclose(-item.derivs[0][0], math.log(0.9))
        assert math.isclose(item.mass, 1 / 0.9)


def _toy_parsers(toy_treebank, toy_model, words):
    toy_model.unknown_words = train_unknown_model(toy_treebank, threshold=5)
    return (SentenceParser(toy_model, prune_ratio=1e-300),
            SentenceParser(toy_model, prune_ratio=1e-300, words=words))


def test_parser_for_words_refuses_other_model_words(toy_treebank, toy_model):
    full, kept = _toy_parsers(toy_treebank, toy_model,
                              "john likes mary sam".split())
    assert len(kept.rules) < len(full.rules)
    # the rows that read "hates" and "susan" were skipped
    for sentence, word in (("john hates mary", "hates"),
                           ("susan likes mary", "susan")):
        for attempt in (kept.chart, kept.parse):
            with pytest.raises(ValueError,
                               match="'%s' is a model word" % word):
                attempt(sentence.split())
    # a word the model never saw gets its unknown-word rules, in words or not
    for sentence in ("sam likes mary", "john likes zoe"):
        words = sentence.split()
        assert kept.parse(words) == full.parse(words) is not None


@pytest.mark.parametrize("smoothed", [False, True])
def test_oov_rule_probabilities(toy_model, smoothed):
    # an unsmoothed root gives an unknown word share / (total + 1), a
    # smoothed one its reserved mass times share; S and VP reserve mass,
    # NP none, and X has no root row
    toy_model.unknown_words = UnknownWordModel(threshold=1, full_stats={
        ("m", False, False, False): Counter(NP=1, VP=2, S=1, X=1)})
    model = good_turing_adjust(toy_model) if smoothed else toy_model
    text = model_to_text(model)
    header, _ = read_model(text)
    expected = {}
    for tag, share in header.unknown_words.tag_distribution("sam").items():
        if tag not in header.root_totals:
            continue
        if smoothed:
            probability = header.reserved_mass.get(tag, 0) * share
        else:
            probability = share / (header.root_totals[tag] + 1)
        if probability:
            expected[tag] = _log(probability).hex()
    assert set(expected) == ({"S", "VP"} if smoothed else {"NP", "S", "VP"})
    rules = SentenceParser(text.splitlines()).oov_rules(["sam"])
    assert {rule.lhs: rule.logprob.hex() for rule in rules} == expected
    assert [(rule.rhs, rule.key) for rule in rules] == [
        (("sam",), "(%s sam)" % tag) for tag in sorted(expected)]


def test_oov_rules_are_numbered_after_the_entry_rows(toy_treebank,
                                                     toy_model):
    words = "sam likes zoe".split()
    full, kept = _toy_parsers(toy_treebank, toy_model, words)
    guesses = [(r.lhs, r.key, r.logprob.hex(), r.index)
               for r in full.oov_rules(words)]
    assert len(guesses) > 2
    assert guesses == [(r.lhs, r.key, r.logprob.hex(), r.index)
                       for r in kept.oov_rules(words)]
    assert [index for *_, index in guesses] == list(range(
        len(toy_model.entries), len(toy_model.entries) + len(guesses)))
