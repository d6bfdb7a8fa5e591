"""Golden bytes: models, parses, sampled fragments and experiment tables.

The hashes were recorded before refactors that must not change output:
the parse hashes before the derivation layer stopped building a tree per
derivation, the model and experiment hashes before the duplicate
fragment-collection, bracket-writing and parse-entry paths were removed,
the chart hash before the binary step stopped visiting dotted right items,
the sampled-fragment hash before the sampler moved to per-tree height lists,
the n-best hash before derivations became their heap entries and the goal
item went. The stats hash was recorded when `dop parse` began to stop each
n-best search also on the forest's mass still to come: its probability and
derivation columns are those of the derivations examined. Any change to
model bytes, parse choices, probabilities, chart contents or derivation
order shows up here.
"""

import hashlib

import pytest

from dop.cli import main
from dop.fragments import dump_fragments, sample_fragments
from dop.modelio import load_model
from dop.parser import SentenceParser
from conftest import (assert_parser_for_words_agrees,
                      assert_stops_early_with_the_same_parses,
                      synthetic_treebank, write_bank)

PARSE_SHA256 = (
    "5fcfbad8067b62356ddef2d9c2ccfb2e7fe91510252e83216b70d52c2c5aae84")
STATS_SHA256 = (
    "254b57ab95f170767e57c9587293ca997373eccd2109047133ddcd3c3b687ae3")
CHART_SHA256 = (
    "2c50f05e2a9d07dcfc5d5c1716cf2cc0d60d77a164871ba83f6020401ffdba64")
NBEST_SHA256 = (
    "c57331e48cc7820ebff7fd23982ba8e5bac8536e71a47c2579c375803d840afb")
SAMPLED_MODEL_SHA256 = (
    "5d45c83db43bc9f4bfbc95d10169d0c18fdf712728754b3429c7d57226d8ef34")
EXHAUSTIVE_MODEL_SHA256 = (
    "6d57bb680d7d9637c5e64f0394bba9d43adb2d6911d3e5f7e55d43e799d7056e")
SAMPLED_FRAGMENTS_SHA256 = (
    "98d55482ab7717ff18caab79fcfa9b261b0a04732d180a91090a1359e689d204")
EXPERIMENT_TABLE_SHA256 = (
    "16c5e3e824f22277705307ead3c8030b65ff8365b3fa0b041e3ce3b79e622e4b")
EXPERIMENT_MODEL_SHA256 = {
    "model_1.dopmodel":
        "5f6b3361f6e380d3a6f068bce1e1592bc3c8c42ff51190dc407223b3ead50253",
    "model_2.dopmodel":
        "965e780f2ec9a07e6bfc2824a895309225820752466318e984b3fa997876ece3",
    "model_3.dopmodel":
        "1d3751476a72491cbdb9c847e35fa832d7c1158e774ac5fa2126fceb3b4a92f8",
}


def _sha256(text):
    return hashlib.sha256(text.encode("utf8")).hexdigest()


def test_golden_parse_output(golden_model, tmp_path, capsys):
    model, sents = golden_model
    out = tmp_path / "out.txt"
    stats = tmp_path / "stats.tsv"
    assert main(["parse", "--model", str(model), "--input", str(sents),
                 "--output", str(out), "--stats", str(stats),
                 "--n-best", "500"]) == 0
    # probability and derivation-count columns; the seconds column varies
    columns = "".join("\t".join(line.split("\t")[1:3]) + "\n"
                      for line in stats.read_text().splitlines())
    assert _sha256(model.read_text()) == SAMPLED_MODEL_SHA256
    assert _sha256(out.read_text()) == PARSE_SHA256
    assert _sha256(columns) == STATS_SHA256


def test_golden_chart(golden_model):
    # every cell's items in order, with their edges and Viterbi inside scores
    model, sents = golden_model
    parser = SentenceParser(load_model(model))
    lines = []
    for words in (line.split() for line in sents.read_text().splitlines()):
        chart = parser.chart(words, extra_rules=parser.oov_rules(words))
        for span, cell in chart.cells.items():
            lines.append("%r" % (span,))
            for sym, item in cell.items():
                edges = [(rule.index if rule else -1,
                          [(tail.sym, tail.span) for tail in tails])
                         for rule, tails, _ in item.edges]
                lines.append("%r %r %r" % (sym, item.inside, edges))
    assert _sha256("\n".join(lines)) == CHART_SHA256


def test_golden_nbest_derivations(golden_model):
    # every derivation at n = 1000, in order, with its exact logprob and
    # fragments: PARSE_SHA256 sees only each winner and %.6g probabilities
    model, sents = golden_model
    parser = SentenceParser(load_model(model), n_best=1000)
    lines = []
    for words in (line.split() for line in sents.read_text().splitlines()):
        lines.append(" ".join(words))
        lines.extend("%r %s %s" % (d.logprob, d.bracketed,
                                   " ".join(f.key for f in d.fragments))
                     for d in parser.derivations(words))
    assert len(lines) == 30 + 12033
    assert _sha256("\n".join(lines)) == NBEST_SHA256


def test_golden_sampled_fragments():
    # nodes of this bank reach depth 10; the model goldens sample to depth 4
    bank = synthetic_treebank(300, seed=23, max_words=15)
    lines = []
    for depth in range(2, 9):
        lines.extend(dump_fragments(
            sample_fragments(bank, depth, 500, seed=depth)))
    assert _sha256("\n".join(lines)) == SAMPLED_FRAGMENTS_SHA256


def test_golden_exhaustive_smoothed_model(tmp_path, capsys):
    train = write_bank(tmp_path / "train.mrg", 30, seed=11, max_words=7)
    model = tmp_path / "m.dopmodel"
    assert main(["train", "--train", str(train), "--model", str(model),
                 "--sample-per-depth", "none", "--smoothing", "on"]) == 0
    assert _sha256(model.read_text()) == EXHAUSTIVE_MODEL_SHA256


def test_golden_experiment(tmp_path, capsys):
    train = write_bank(tmp_path / "train.mrg", 60, seed=21, max_words=12)
    test = write_bank(tmp_path / "test.mrg", 15, seed=23, max_words=12)
    out = tmp_path / "exp"
    assert main(["experiment", "--train", str(train), "--test", str(test),
                 "--sweep", "depth", "--values", "1,2,3",
                 "--sample-per-depth", "300", "--seed", "4",
                 "--n-best", "200", "--out", str(out)]) == 0
    # bound, LP and LR; the seconds column varies
    table = "".join("\t".join(line.split("\t")[:3]) + "\n"
                    for line in (out / "table.tsv").read_text().splitlines())
    assert _sha256(table) == EXPERIMENT_TABLE_SHA256
    models = {path.name: _sha256(path.read_text())
              for path in sorted(out.glob("model_*.dopmodel"))}
    assert models == EXPERIMENT_MODEL_SHA256


def test_golden_parser_for_words_agrees(golden_model):
    # each sentence parsed by a parser built for its words alone, against
    # one built for every row: same rules (those it keeps), n-best lists and
    # parses; at the default settings
    model, sents = golden_model
    loaded = load_model(model)
    full = SentenceParser(loaded)
    kept = [assert_parser_for_words_agrees(full, loaded, line.split())
            for line in sents.read_text().splitlines()]
    assert max(kept) < len(full.rules)


@pytest.mark.parametrize("prune_ratio", [1e-5, 1e-300])
def test_golden_early_stop_keeps_the_parses(golden_model, prune_ratio):
    # the commands stop each n-best search once the parse is decided: the
    # trees parse prints, from fewer derivations wherever n leaves room
    model, sents = golden_model
    sentences = [line.split() for line in sents.read_text().splitlines()]
    examined = {n: assert_stops_early_with_the_same_parses(
                    str(model), sentences, n, prune_ratio)
                for n in (1, 7, 1000)}
    assert examined[1] == (30, 30)
    assert examined[7][0] < examined[7][1]
    assert examined[1000][0] < examined[1000][1] == 12033
