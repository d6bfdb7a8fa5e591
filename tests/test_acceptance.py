"""Acceptance suite: one test per criterion, reporting a pass/fail line each.

The lines collect in RESULTS; the terminal-summary hook in conftest prints
them after the run, outside pytest's capture.
"""

import functools
import math
import random
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction

import pytest

from dop import (ChartParser, Fragment, RestrictionSet, SentenceParser, Site,
                 Tree, build_model, enumerate_derivations, exact_mpp,
                 extract_all, extract_treebank, good_turing_adjust,
                 most_probable_parse, nbest_derivations, read_treebank,
                 sample_fragments, score_corpus, score_pair, to_rules,
                 train_unknown_model, write_tree)
from dop.fragments import count_fragments, passes
from dop.tree import write_treebank

from conftest import TOY_CORPUS, TOY_HEAD_RULES, random_tree, synthetic_treebank
from test_fragments import subset_enumeration_fragments
from test_model import _rule_frequencies
from test_parseval import HAND_SCORED_PAIRS


RESULTS = []


def criterion(number, title):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                RESULTS.append("criterion %2d FAIL  %s" % (number, title))
                raise
            RESULTS.append("criterion %2d PASS  %s" % (number, title))
            return result
        return run
    return wrap


def build_from(corpus_text, restriction=RestrictionSet()):
    bank = read_treebank(corpus_text)
    return build_model(extract_treebank(bank), restriction, TOY_HEAD_RULES,
                       start_labels={t.label for t in bank.trees})


TOY_BANKS = (
    (TOY_CORPUS,
     ["john likes mary", "john hates susan", "peter hates mary",
      "peter likes susan"]),
    ("(S (VP (V run)))\n(S (NP (N dogs)) (VP (V run)))\n",
     ["run", "dogs run"]),
    ("(S (A a) (B b) (C c))\n(S (A a) (B b) (C c) (D d))\n"
     "(S (A a) (C c) (B b))\n",
     ["a b c", "a b c d", "a c b"]),
    ("(S (V saw) (NP (N man)) (PP (P with) (N scope)))\n"
     "(S (V saw) (NP (NP (N man)) (PP (P with) (N scope))))\n",
     ["saw man with scope", "saw man"]),
    ("(S (NP (N a)) (VP (V b) (S (NP (N c)) (VP (V d)))))\n"
     "(S (NP (N c)) (VP (V b)))\n",
     ["a b c d", "c b", "a b c b"]),
)


@criterion(1, "oracle equivalence on toy treebanks")
def test_criterion_1_oracle_equivalence():
    started = time.perf_counter()
    compared = 0
    for corpus, sentences in TOY_BANKS:
        model = build_from(corpus)
        rules = to_rules(model)
        for sentence in sentences:
            words = sentence.split()
            report = enumerate_derivations(model, words)
            chart = ChartParser(rules, start_labels=model.start_labels,
                                priors=model.priors,
                                prune_ratio=1e-300).chart(words)
            derivations = nbest_derivations(
                chart, max(len(report.derivations) + 10, 16))
            # identical derivation multisets, as fragment-key sequences
            got = {tuple(f.key for f in d.fragments) for d in derivations}
            expected = {tuple(f.key for f in d.fragments)
                        for d in report.derivations}
            assert got == expected
            assert len(derivations) == len(report.derivations)
            # per-tree sums within 1e-12 of the exact rationals
            by_tree = {}
            for derivation in derivations:
                by_tree.setdefault(write_tree(derivation.tree),
                                   []).append(derivation.logprob)
            assert set(by_tree) == set(report.tree_sums)
            for bracketed, logs in by_tree.items():
                top = max(logs)
                total = top + math.log(sum(math.exp(l - top) for l in logs))
                exact = float(report.tree_sums[bracketed])
                assert math.isclose(math.exp(total), exact, rel_tol=1e-12)
            # identical most probable parse
            if derivations:
                assert most_probable_parse(derivations).tree == \
                    exact_mpp(report)
            compared += 1
    elapsed = time.perf_counter() - started
    assert compared >= 12
    assert elapsed < 10.0, "oracle equivalence took %.1fs" % elapsed


@criterion(2, "worked example: toy probabilities and derivation product")
def test_criterion_2_worked_example(toy_model, toy_treebank):
    # independent recount via subset enumeration, before trusting the build
    recount = Counter()
    for tree in toy_treebank.trees:
        recount.update(subset_enumeration_fragments(tree))
    totals = Counter()
    for fragment, count in recount.items():
        totals[fragment.root] += count
    assert totals == {"S": 20, "VP": 8, "NP": 4, "V": 2}
    assert recount[Fragment.from_string("(S (NP) (VP))")] == 2

    assert toy_model.probability("(S (NP) (VP))") == Fraction(2, 20)
    assert toy_model.probability("(NP john)") == Fraction(1, 4)
    assert toy_model.probability("(V hates)") == Fraction(1, 2)
    product = Fraction(1)
    for key in ("(S (NP) (VP))", "(NP john)", "(VP (V) (NP))",
                "(V hates)", "(NP susan)"):
        product *= toy_model.probability(key)
    assert product == Fraction("0.00078125")


@criterion(3, "fragment counting: formula vs enumeration oracle")
def test_criterion_3_fragment_counting():
    started = time.perf_counter()
    rng = random.Random(2024)
    for _ in range(100):
        tree = random_tree(rng, max_internal=12)
        extracted = extract_all(tree)
        oracle = subset_enumeration_fragments(tree)
        formula = count_fragments(tree)
        assert sum(extracted.values()) == formula == sum(oracle.values())
        assert extracted == oracle
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, "fragment counting took %.1fs" % elapsed


@criterion(4, "depth-1 model is the relative-frequency rule grammar")
def test_criterion_4_depth1_equivalence():
    bank = synthetic_treebank(40, seed=5)
    model = build_model(extract_treebank(bank), RestrictionSet(max_depth=1),
                        TOY_HEAD_RULES, start_labels={"S"})
    frequencies = _rule_frequencies(bank)
    assert len(model.entries) == len(frequencies)
    for entry in model.entries.values():
        fragment = entry.fragment
        rhs = tuple(item if isinstance(item, str) else item.label
                    for item in fragment.frontier)
        key = (fragment.root, rhs, fragment.frontier_word_count > 0)
        assert entry.probability == frequencies[key]
    # every parse tree has exactly one derivation
    rules = to_rules(model)
    checked = 0
    for tree in bank.trees[:8]:
        words = tree.leaves()
        chart = ChartParser(rules, start_labels=["S"], priors=model.priors,
                            prune_ratio=1e-300).chart(words)
        derivations = nbest_derivations(chart, 100000)
        per_tree = Counter(write_tree(d.tree) for d in derivations)
        assert per_tree and all(n == 1 for n in per_tree.values())
        checked += 1
    assert checked == 8


@criterion(5, "per-root normalization, before and after smoothing")
def test_criterion_5_normalization():
    models = [build_from(corpus) for corpus, _ in TOY_BANKS]
    models.append(build_model(extract_treebank(synthetic_treebank(25, seed=3)),
                              RestrictionSet(max_depth=3), TOY_HEAD_RULES))
    for model in models:
        for root, group in model.by_root().items():
            total = sum(e.probability for e in group)
            assert total == 1
            assert abs(float(total) - 1.0) <= 1e-12
        smoothed = good_turing_adjust(model)
        for root, group in smoothed.by_root().items():
            total = sum(e.probability for e in group) \
                + smoothed.reserved_mass.get(root, Fraction(0))
            assert total == 1
            assert abs(float(total) - 1.0) <= 1e-9


@criterion(6, "restriction monotonicity and boundary filters")
def test_criterion_6_restrictions():
    rng = random.Random(606)
    fragments = Counter()
    for _ in range(8):
        fragments.update(extract_all(random_tree(rng, max_internal=9)))
    for _ in range(40):
        tight = RestrictionSet(
            max_depth=rng.randint(1, 4),
            max_frontier_words=rng.randint(0, 4),
            max_unlex_depth=rng.randint(1, 3),
            max_nonheadwords=rng.randint(0, 3))
        loose = RestrictionSet(
            max_depth=tight.max_depth + rng.randint(0, 3),
            max_frontier_words=tight.max_frontier_words + rng.randint(0, 3),
            max_unlex_depth=tight.max_unlex_depth + rng.randint(0, 3),
            max_nonheadwords=(None if rng.random() < 0.25
                              else tight.max_nonheadwords + rng.randint(0, 2)))
        kept_tight = {f for f in fragments if passes(f, tight, TOY_HEAD_RULES)}
        kept_loose = {f for f in fragments if passes(f, loose, TOY_HEAD_RULES)}
        assert kept_tight <= kept_loose

    best = RestrictionSet(max_frontier_words=12, max_unlex_depth=6)

    def wide(n):
        return Fragment(Tree("S", tuple(Tree("P", ("w%d" % i,))
                                        for i in range(n))))

    def chain(depth):
        node = Tree("A", (Site("B"),))
        for _ in range(depth - 1):
            node = Tree("A", (node,))
        return Fragment(node)

    assert passes(wide(12), best, TOY_HEAD_RULES)
    assert not passes(wide(13), best, TOY_HEAD_RULES)
    assert passes(chain(6), best, TOY_HEAD_RULES)
    assert not passes(chain(7), best, TOY_HEAD_RULES)


@criterion(7, "PARSEVAL on hand-computed pairs")
def test_criterion_7_parseval():
    from dop import read_trees
    assert len(HAND_SCORED_PAIRS) >= 10
    for proposed, gold, expected in HAND_SCORED_PAIRS:
        assert score_pair(read_trees(proposed)[0],
                          read_trees(gold)[0]) == expected
    # no-parse convention inside a corpus
    gold_rich = read_trees("(S (A (B (C (P a) (P b)))))")[0]
    perfect = read_trees("(S (NP (P a)) (VP (P b)))")[0]
    report = score_corpus([(None, gold_rich), (perfect, perfect)])
    assert report.precision() == 1.0 and report.recall() == 3 / 7
    # identity corpora score 100.0
    trees = [read_trees(gold)[0] for _, gold, _ in HAND_SCORED_PAIRS]
    identity = score_corpus([(t, t) for t in trees])
    assert 100.0 * identity.precision() == 100.0
    assert 100.0 * identity.recall() == 100.0


def _run_experiment(out_dir, train_path, test_path, via_subprocess):
    argv = ["experiment", "--train", str(train_path), "--test", str(test_path),
            "--sweep", "depth", "--values", "1,2,3",
            "--sample-per-depth", "300", "--max-depth", "3",
            "--n-best", "100", "--prune-ratio", "1e-4", "--seed", "13",
            "--out", str(out_dir)]
    if via_subprocess:
        proc = subprocess.run([sys.executable, "-m", "dop"] + argv,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
    else:
        from dop.cli import main
        assert main(argv) == 0


def _mask_seconds(table_text):
    rows = []
    for line in table_text.splitlines():
        fields = line.split("\t")
        rows.append("\t".join(fields[:3]))
    return "\n".join(rows)


@criterion(8, "byte determinism of experiment runs and sampling")
def test_criterion_8_determinism(tmp_path, capsys):
    train = tmp_path / "train.mrg"
    test = tmp_path / "test.mrg"
    bank = synthetic_treebank(60, seed=17)
    train.write_text(write_treebank(bank))
    test.write_text(write_treebank(synthetic_treebank(10, seed=401)))
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    _run_experiment(dir_a, train, test, via_subprocess=False)
    _run_experiment(dir_b, train, test, via_subprocess=True)
    table_a = (dir_a / "table.tsv").read_text()
    table_b = (dir_b / "table.tsv").read_text()
    assert _mask_seconds(table_a) == _mask_seconds(table_b)
    for bound in ("1", "2", "3"):
        model_a = (dir_a / ("model_%s.dopmodel" % bound)).read_bytes()
        model_b = (dir_b / ("model_%s.dopmodel" % bound)).read_bytes()
        assert model_a == model_b
        parse_a = (dir_a / ("parse_%s.txt" % bound)).read_bytes()
        parse_b = (dir_b / ("parse_%s.txt" % bound)).read_bytes()
        assert parse_a == parse_b
    # the sampler itself is reproducible under a fixed seed
    one = sample_fragments(bank, depth=3, count=400, seed=99)
    two = sample_fragments(bank, depth=3, count=400, seed=99)
    assert one == two


@criterion(9, "experiment pipeline shape on a 200-sentence treebank")
def test_criterion_9_pipeline(tmp_path, capsys):
    train = tmp_path / "train.mrg"
    test = tmp_path / "test.mrg"
    train.write_text(write_treebank(synthetic_treebank(200, seed=71)))
    test.write_text(write_treebank(synthetic_treebank(25, seed=502)))
    out_dir = tmp_path / "exp"
    started = time.perf_counter()
    from dop.cli import main
    assert main(["experiment", "--train", str(train), "--test", str(test),
                 "--sweep", "depth", "--values", "1,2,3",
                 "--sample-per-depth", "400", "--max-depth", "3",
                 "--n-best", "100", "--prune-ratio", "1e-4",
                 "--seed", "7", "--out", str(out_dir)]) == 0
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0, "experiment took %.0fs" % elapsed
    lines = (out_dir / "table.tsv").read_text().splitlines()
    assert lines[0] == "bound\tLP\tLR\tseconds"
    assert [row.split("\t")[0] for row in lines[1:]] == ["1", "2", "3"]
    for row in lines[1:]:
        _, lp, lr, seconds = row.split("\t")
        assert 0.0 <= float(lp) <= 100.0
        assert 0.0 <= float(lr) <= 100.0
        assert float(seconds) > 0.0


@criterion(10, "unknown words: normalized guesses, no crashes")
def test_criterion_10_unknown_words():
    train_bank = synthetic_treebank(120, seed=31)
    held_out = synthetic_treebank(15, seed=808)
    model = build_model(extract_treebank(train_bank),
                        RestrictionSet(max_depth=3, max_frontier_words=12,
                                       max_unlex_depth=6),
                        TOY_HEAD_RULES, start_labels={"S"})
    model.unknown_words = train_unknown_model(train_bank, threshold=5)
    parser = SentenceParser(model, n_best=50, prune_ratio=1e-4)

    vocabulary = parser.vocabulary
    oov_words = ["Grommets", "quz-12", "blarp", "Xx9", "zzzed", "re-heard"]
    assert not set(oov_words) & vocabulary
    for word in oov_words:
        distribution = model.unknown_words.tag_distribution(word)
        total = sum(distribution.values(), Fraction(0))
        assert total == 1
        assert abs(float(total) - 1.0) <= 1e-12

    rng = random.Random(99)
    parsed = 0
    for index, tree in enumerate(held_out.trees):
        words = tree.leaves()
        words[rng.randrange(len(words))] = oov_words[index % len(oov_words)]
        result = parser.parse(words)        # must never raise
        if result is not None:
            assert result.tree.leaves() == words
            parsed += 1
    assert parsed > 0
