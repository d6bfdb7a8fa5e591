"""Golden bytes: model files, parse output and experiment tables.

The hashes were recorded before refactors that must not change output:
the parse hashes before the derivation layer stopped building a tree per
derivation, the model and experiment hashes before the duplicate
fragment-collection, bracket-writing and parse-entry paths were removed,
the chart hash before the binary step stopped visiting dotted right items.
Any change to model bytes, parse choices, probabilities or chart contents
shows up here.
"""

import hashlib

from dop.cli import main
from dop.modelio import load_model
from dop.parser import SentenceParser
from dop.tree import write_treebank
from conftest import synthetic_treebank

PARSE_SHA256 = (
    "5fcfbad8067b62356ddef2d9c2ccfb2e7fe91510252e83216b70d52c2c5aae84")
STATS_SHA256 = (
    "c1a922962df745cceb210298423dad18a96b3a63fe961dc7bca83963c33e0c0c")
CHART_SHA256 = (
    "2c50f05e2a9d07dcfc5d5c1716cf2cc0d60d77a164871ba83f6020401ffdba64")
SAMPLED_MODEL_SHA256 = (
    "5d45c83db43bc9f4bfbc95d10169d0c18fdf712728754b3429c7d57226d8ef34")
EXHAUSTIVE_MODEL_SHA256 = (
    "6d57bb680d7d9637c5e64f0394bba9d43adb2d6911d3e5f7e55d43e799d7056e")
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


def _write_bank(path, n_trees, seed, max_words=9):
    path.write_text(write_treebank(
        synthetic_treebank(n_trees, seed=seed, max_words=max_words)))
    return path


def _golden_model_and_sentences(tmp_path):
    train = _write_bank(tmp_path / "train.mrg", 80, seed=5)
    model = tmp_path / "m.dopmodel"
    assert main(["train", "--train", str(train), "--model", str(model),
                 "--max-depth", "4", "--sample-per-depth", "400",
                 "--seed", "3"]) == 0
    sents = tmp_path / "sents.txt"
    sents.write_text("".join(" ".join(tree.leaves()) + "\n" for tree in
                             synthetic_treebank(30, seed=17).trees))
    return model, sents


def test_golden_parse_output(tmp_path, capsys):
    model, sents = _golden_model_and_sentences(tmp_path)
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


def test_golden_chart(tmp_path, capsys):
    # every cell's items in order, with their edges and Viterbi inside scores
    model, sents = _golden_model_and_sentences(tmp_path)
    parser = SentenceParser(load_model(model))
    lines = []
    for words in (line.split() for line in sents.read_text().splitlines()):
        chart = parser.parser.chart(words, extra_rules=parser.oov_rules(words))
        for span, cell in chart.cells.items():
            lines.append("%r" % (span,))
            for sym, item in cell.items():
                edges = [(rule.index if rule else -1,
                          [(tail.sym, tail.span) for tail in tails])
                         for rule, tails, _ in item.edges]
                lines.append("%r %r %r" % (sym, item.inside, edges))
    assert _sha256("\n".join(lines)) == CHART_SHA256


def test_golden_exhaustive_smoothed_model(tmp_path, capsys):
    train = _write_bank(tmp_path / "train.mrg", 30, seed=11, max_words=7)
    model = tmp_path / "m.dopmodel"
    assert main(["train", "--train", str(train), "--model", str(model),
                 "--sample-per-depth", "none", "--smoothing", "on"]) == 0
    assert _sha256(model.read_text()) == EXHAUSTIVE_MODEL_SHA256


def test_golden_experiment(tmp_path, capsys):
    train = _write_bank(tmp_path / "train.mrg", 60, seed=21, max_words=12)
    test = _write_bank(tmp_path / "test.mrg", 15, seed=23, max_words=12)
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
