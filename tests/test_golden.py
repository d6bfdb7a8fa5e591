"""Golden parse output: fixed bytes for a small sampled model.

The hashes were recorded before the derivation layer stopped building a
tree per derivation; any change to parse choices or probabilities shows
up here.
"""

import hashlib

from dop.cli import main
from dop.tree import write_treebank
from conftest import synthetic_treebank

PARSE_SHA256 = (
    "5fcfbad8067b62356ddef2d9c2ccfb2e7fe91510252e83216b70d52c2c5aae84")
STATS_SHA256 = (
    "c1a922962df745cceb210298423dad18a96b3a63fe961dc7bca83963c33e0c0c")


def _sha256(text):
    return hashlib.sha256(text.encode("utf8")).hexdigest()


def test_golden_parse_output(tmp_path, capsys):
    train = tmp_path / "train.mrg"
    train.write_text(write_treebank(synthetic_treebank(80, seed=5)))
    model = tmp_path / "m.dopmodel"
    assert main(["train", "--train", str(train), "--model", str(model),
                 "--max-depth", "4", "--sample-per-depth", "400",
                 "--seed", "3"]) == 0
    sents = tmp_path / "sents.txt"
    sents.write_text("".join(" ".join(tree.leaves()) + "\n" for tree in
                             synthetic_treebank(30, seed=17).trees))
    out = tmp_path / "out.txt"
    stats = tmp_path / "stats.tsv"
    assert main(["parse", "--model", str(model), "--input", str(sents),
                 "--output", str(out), "--stats", str(stats),
                 "--n-best", "500"]) == 0
    # probability and derivation-count columns; the seconds column varies
    columns = "".join("\t".join(line.split("\t")[1:3]) + "\n"
                      for line in stats.read_text().splitlines())
    assert _sha256(out.read_text()) == PARSE_SHA256
    assert _sha256(columns) == STATS_SHA256
