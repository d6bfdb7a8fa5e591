"""The chart against a reference: the earlier span loop, which kept the
heads and tails of every span in two dicts and visited every mid point of
a span. Both must build the same cells, in the same order, with the same
items in the same order, the same edges in the same order and the same
inside scores, bit for bit."""

import random
from collections import defaultdict

from dop import RestrictionSet, SentenceParser, build_model, extract_treebank
from dop.modelio import load_model
from dop.parser import Chart, ChartItem
from dop.tree import Site, Treebank
from conftest import TOY_HEAD_RULES, random_tree


# ------------------------------------------------------------- reference
# The cell phases _complete, _prune and _partners are the parser's own.

def reference_chart(parser, sentence, extra_rules=()):
    sentence = tuple(sentence)
    extra = defaultdict(list)
    for rule in extra_rules:
        assert len(rule.rhs) == 1 and not isinstance(rule.rhs[0], Site)
        extra[rule.rhs[0]].append(rule)
    n = len(sentence)
    cells = {}
    heads = {}
    tails = {}
    for width in range(1, n + 1):
        for start in range(0, n - width + 1):
            span = (start, start + width)
            cell = {}
            cells[span] = cell
            if width == 1:
                word = sentence[start]
                word_item = ChartItem(("w", word), span)
                word_item.inside = 0.0
                cell[word_item.sym] = word_item
                for rule in extra.get(word, ()):
                    sym = ("n", rule.lhs)
                    item = cell.get(sym)
                    if item is None:
                        item = cell[sym] = ChartItem(sym, span)
                    item.edges.append((rule, (word_item,), rule.logprob))
                    item.inside = max(item.inside, rule.logprob)
            else:
                _reference_binary_phase(heads, tails, span, cell)
            parser._complete(cell, span)
            parser._prune(cell)
            heads[span], tails[span] = parser._partners(cell)
    start_items = []
    if n:
        full = cells.get((0, n), {})
        for label in parser.start_labels:
            item = full.get(("n", label))
            if item is not None:
                start_items.append(item)
        start_items.sort(key=lambda it: (-it.inside, it.label))
    return Chart(sentence, cells, start_items,
                 unary_cycle=parser.unary_cycle)


def _reference_binary_phase(heads, tails, span, cell):
    start, end = span
    for mid in range(start + 1, end):
        right = tails[(mid, end)]
        if not right:
            continue
        for litem, node in heads[(start, mid)]:
            for steps, ritem in right:
                nxt = steps.get(node)
                if nxt is None:
                    continue
                psym = ("p", nxt)
                item = cell.get(psym)
                if item is None:
                    item = cell[psym] = ChartItem(psym, span)
                item.edges.append((None, (litem, ritem), 0.0))
                score = litem.inside + ritem.inside
                if score > item.inside:
                    item.inside = score


# ----------------------------------------------------------- comparison

def _listed(chart):
    """Every cell in order, with its items in order, each with its inside
    score's hex and its edges in order."""
    return [(span, [(sym, item.inside.hex(),
                     [(rule.index if rule else None,
                       [(tail.sym, tail.span) for tail in tails], weight.hex())
                      for rule, tails, weight in item.edges])
                    for sym, item in cell.items()])
            for span, cell in chart.cells.items()]


def assert_same_chart(parser, words):
    """The parser's chart of words against the reference's; returns the
    number of items compared."""
    extra = parser.oov_rules(words)
    chart = parser.chart(words, extra_rules=extra)
    expected = reference_chart(parser, words, extra_rules=extra)
    listed = _listed(chart)
    assert listed == _listed(expected)
    assert [(item.sym, item.span) for item in chart.start_items] == \
        [(item.sym, item.span) for item in expected.start_items]
    return sum(len(items) for _, items in listed)


def test_chart_matches_the_reference_on_random_banks():
    # the banks of the oracle differential, each sentence and one
    # reordering, at the default prune ratio and with none
    rng = random.Random(20001)
    banks = items = 0
    while banks < 25:
        bank = Treebank(tuple(random_tree(rng, max_internal=7, max_depth=3)
                              for _ in range(rng.randint(1, 3))))
        model = build_model(extract_treebank(bank), RestrictionSet(),
                            TOY_HEAD_RULES,
                            start_labels={t.label for t in bank.trees})
        if SentenceParser(model).unary_cycle is not None:
            continue
        banks += 1
        parsers = [SentenceParser(model, prune_ratio=ratio)
                   for ratio in (1e-5, 1e-300)]
        for tree in bank.trees:
            words = tree.leaves()
            for sentence in (words, rng.sample(words, len(words))):
                for parser in parsers:
                    items += assert_same_chart(parser, sentence)
    assert items > 1000


def test_chart_matches_the_reference_on_the_golden_sentences(golden_model):
    model, sents = golden_model
    parser = SentenceParser(load_model(model))
    sentences = [line.split() for line in sents.read_text().splitlines()]
    # and one with a word the model has not seen
    sentences.append(sentences[0][:2] + ["zzz"] + sentences[0][2:])
    items = sum(assert_same_chart(parser, words) for words in sentences)
    assert items > 1000
