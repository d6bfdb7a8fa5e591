import gc
import os
import subprocess
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

import dop.parser
from dop.cli import _parse_corpus, main
from dop import GrammarError, load_model, read_trees, write_tree
from dop.modelio import ModelFormatError, model_to_text
from dop.tree import write_treebank
from conftest import TOY_CORPUS, synthetic_treebank, unary_chain_model


@pytest.fixture
def toy_paths(tmp_path):
    train = tmp_path / "toy.mrg"
    train.write_text(TOY_CORPUS)
    model = tmp_path / "toy.dopmodel"
    code = main(["train", "--train", str(train), "--model", str(model),
                 "--sample-per-depth", "none"])
    assert code == 0
    return train, model


def test_train_writes_model(toy_paths, capsys):
    _, model_path = toy_paths
    model = load_model(model_path)
    assert model.root_totals == {"S": 20, "VP": 8, "NP": 4, "V": 2}
    assert model.start_labels == {"S"}
    assert model.unknown_words is not None


def test_train_reports_depth_counts(tmp_path, capsys):
    train = tmp_path / "toy.mrg"
    train.write_text(TOY_CORPUS)
    model = tmp_path / "m"
    main(["train", "--train", str(train), "--model", str(model),
          "--sample-per-depth", "none"])
    out = capsys.readouterr().out
    assert "depth 1: 10 fragment tokens" in out
    assert "depth 3: " in out


def test_train_sampled_depths(tmp_path, capsys):
    train = tmp_path / "toy.mrg"
    train.write_text(TOY_CORPUS)
    model_path = tmp_path / "m"
    code = main(["train", "--train", str(train), "--model", str(model_path),
                 "--sample-per-depth", "40", "--max-depth", "3",
                 "--seed", "7"])
    assert code == 0
    out = capsys.readouterr().out
    assert "depth 1: 10 fragment tokens" in out
    assert "depth 2: 40 fragment tokens" in out
    assert "depth 3: 40 fragment tokens" in out
    model = load_model(model_path)
    assert max(e.fragment.depth for e in model.entries.values()) <= 3


def test_train_rewrite_is_byte_stable(toy_paths, tmp_path):
    _, model_path = toy_paths
    text = model_path.read_text()
    assert model_to_text(load_model(model_path)) == text


def test_parse_command(toy_paths, tmp_path):
    _, model_path = toy_paths
    sents = tmp_path / "sents.txt"
    sents.write_text("john likes mary\nlikes likes\njohn zzz mary\n")
    out = tmp_path / "out.txt"
    stats = tmp_path / "stats.tsv"
    code = main(["parse", "--model", str(model_path), "--input", str(sents),
                 "--output", str(out), "--stats", str(stats),
                 "--prune-ratio", "1e-30"])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "(S (NP john) (VP (V likes) (NP mary)))"
    assert lines[1] == "NOPARSE"
    # zzz is OOV: the unknown-word model must still find a parse
    assert read_trees(lines[2])[0].leaves() == ["john", "zzz", "mary"]
    stat_rows = [line.split("\t") for line in stats.read_text().splitlines()]
    assert len(stat_rows) == 3
    assert stat_rows[0][0] == "0" and int(stat_rows[0][2]) > 0
    assert stat_rows[1][2] == "0"


def test_parse_bracket_words_are_noparse_and_score(toy_paths, tmp_path):
    # no fragment key holds a bracket, so such a word gets no OOV rule; the
    # parser's output must stay readable by `dop score`
    _, model_path = toy_paths
    sents = tmp_path / "sents.txt"
    sents.write_text("john ( mary\njohn ) mary\njohn x(y mary\n"
                     "john likes mary\n")
    out = tmp_path / "out.txt"
    code = main(["parse", "--model", str(model_path), "--input", str(sents),
                 "--output", str(out)])
    assert code == 0
    assert out.read_text().splitlines() == [
        "NOPARSE", "NOPARSE", "NOPARSE",
        "(S (NP john) (VP (V likes) (NP mary)))"]
    gold = tmp_path / "gold.mrg"
    gold.write_text("(S (NP john) (VP (V -LRB-) (NP mary)))\n" * 3
                    + "(S (NP john) (VP (V likes) (NP mary)))\n")
    assert main(["score", "--proposed", str(out), "--gold", str(gold)]) == 0


def test_parse_deep_unary_chain(tmp_path):
    # the parse is written as the string the parser built: no recursion
    # per tree level on the way out
    key, text = unary_chain_model(3000)
    model = tmp_path / "chain.dopmodel"
    model.write_text(text)
    sents = tmp_path / "sents.txt"
    sents.write_text("w\n")
    out = tmp_path / "out.txt"
    code = main(["parse", "--model", str(model), "--input", str(sents),
                 "--output", str(out)])
    assert code == 0
    assert out.read_text() == key + "\n"


def test_train_deep_unary_chain(tmp_path, capsys):
    # normalize and Tree.depth walk the 3000 levels without recursing
    key, _ = unary_chain_model(3000)
    train = tmp_path / "chain.mrg"
    train.write_text(key + "\n")
    model = tmp_path / "chain.dopmodel"
    code = main(["train", "--train", str(train), "--model", str(model),
                 "--max-depth", "3", "--sample-per-depth", "10"])
    assert code == 0
    assert len(load_model(model).entries) == 3020
    out = capsys.readouterr().out
    assert "depth 3: 10 fragment tokens" in out


def test_train_exhaustive_deep_unary_chain(tmp_path, capsys):
    # exhaustive extraction walks the 3000 levels without recursing, and
    # only to --max-depth: each node below the top two adds a fragment of
    # each depth 1-3
    key, _ = unary_chain_model(3000)
    train = tmp_path / "chain.mrg"
    train.write_text(key + "\n")
    model = tmp_path / "chain.dopmodel"
    code = main(["train", "--train", str(train), "--model", str(model),
                 "--max-depth", "3", "--sample-per-depth", "none"])
    assert code == 0
    assert len(load_model(model).entries) == 3000 + 2999 + 2998
    out = capsys.readouterr().out
    assert "depth 3: 2998 fragment tokens" in out
    assert "depth 4" not in out


def test_train_exhaustive_caps_each_depth(tmp_path, capsys):
    # the tree holds 5**12 fragments at its root, far above the cap, but
    # only 4131 of depth 2 and 37 of depth 1
    train = tmp_path / "wide.mrg"
    train.write_text("(S%s)\n" % (" (A (B w) (C w))" * 12))
    model = tmp_path / "wide.dopmodel"
    code = main(["train", "--train", str(train), "--model", str(model),
                 "--max-depth", "2", "--sample-per-depth", "none"])
    assert code == 0
    out = capsys.readouterr().out
    assert "depth 1: 37 fragment tokens" in out
    assert "depth 2: 4131 fragment tokens" in out
    assert "depth 3" not in out


def test_score_deep_unary_chain(tmp_path, capsys):
    # constituents walks the 3000 levels without recursing
    key, _ = unary_chain_model(3000)
    chain = tmp_path / "chain.mrg"
    chain.write_text(key + "\n")
    code = main(["score", "--proposed", str(chain), "--gold", str(chain)])
    assert code == 0
    out = capsys.readouterr().out
    assert "LP 100.00" in out and "LR 100.00" in out


def test_parse_empty_input(toy_paths, tmp_path):
    _, model_path = toy_paths
    sents = tmp_path / "empty.txt"
    sents.write_text("")
    out = tmp_path / "out.txt"
    stats = tmp_path / "stats.tsv"
    code = main(["parse", "--model", str(model_path), "--input", str(sents),
                 "--output", str(out), "--stats", str(stats)])
    assert code == 0
    assert out.read_text() == ""
    assert stats.read_text() == ""


def test_parse_zero_n_best_is_data_error_without_sentences(toy_paths,
                                                          tmp_path, capsys):
    # a blank line reaches no n-best search; the parser's own check fails it
    _, model_path = toy_paths
    sents = tmp_path / "blank.txt"
    sents.write_text("\n")
    out = tmp_path / "out.txt"
    assert main(["parse", "--model", str(model_path), "--input", str(sents),
                 "--output", str(out), "--n-best", "0"]) == 2
    assert "n_best must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def _run_dop(argv):
    """dop as a child process, with a deadline: a bad setting checked only
    in pool workers respawns them without end."""
    src = str(Path(dop.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    return subprocess.run([sys.executable, "-m", "dop"] + argv, env=env,
                          capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("flag, value, message", [
    ("--prune-ratio", "0", "prune_ratio must be in (0, 1]"),
    ("--n-best", "0", "n_best must be >= 1"),
])
def test_bad_parse_setting_fails_before_workers_start(toy_paths, tmp_path,
                                                      flag, value, message):
    _, model_path = toy_paths
    sents = tmp_path / "sents.txt"
    sents.write_text("john likes mary\npeter hates susan\n")
    parse = _run_dop(["parse", "--model", str(model_path), "--input",
                      str(sents), "--output", str(tmp_path / "out.txt"),
                      "--workers", "2", flag, value])
    experiment = _run_dop(_experiment_argv(tmp_path)
                          + ["--workers", "2", flag, value])
    for done in (parse, experiment):
        assert done.returncode == 2
        assert message in done.stderr
        assert "Traceback" not in done.stderr


def test_parse_workers(toy_paths, tmp_path):
    _, model_path = toy_paths
    sents = tmp_path / "sents.txt"
    sents.write_text("john likes mary\npeter hates susan\n")
    out = tmp_path / "out.txt"
    code = main(["parse", "--model", str(model_path), "--input", str(sents),
                 "--output", str(out), "--workers", "2"])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "(S (NP john) (VP (V likes) (NP mary)))"
    assert lines[1] == "(S (NP peter) (VP (V hates) (NP susan)))"


def test_parse_freezes_model_only_while_parsing(toy_paths, tmp_path,
                                                monkeypatch):
    _, model_path = toy_paths
    sents = tmp_path / "sents.txt"
    sents.write_text("john likes mary\npeter hates susan\n")
    out = tmp_path / "out.txt"
    frozen = []
    parse = dop.parser.SentenceParser.parse

    def recording_parse(self, words):
        frozen.append(gc.get_freeze_count())
        return parse(self, words)

    monkeypatch.setattr(dop.parser.SentenceParser, "parse", recording_parse)
    assert gc.get_freeze_count() == 0
    assert main(["parse", "--model", str(model_path), "--input", str(sents),
                 "--output", str(out)]) == 0
    assert len(frozen) == 2 and all(count > 0 for count in frozen)
    assert gc.get_freeze_count() == 0

    def failing_parse(self, words):
        raise AssertionError("derivation probability drift")

    monkeypatch.setattr(dop.parser.SentenceParser, "parse", failing_parse)
    with pytest.raises(AssertionError, match="drift"):
        main(["parse", "--model", str(model_path), "--input", str(sents),
              "--output", str(out)])
    assert gc.get_freeze_count() == 0


def test_serial_parse_releases_model(toy_paths, monkeypatch):
    _, model_path = toy_paths
    sentences = [["john", "likes", "mary"]]
    model = load_model(model_path)
    alive = weakref.ref(model)
    rows = _parse_corpus(model, sentences, 100, 1e-5, 1)
    assert rows[0][0] == "(S (NP john) (VP (V likes) (NP mary)))"
    del model
    assert alive() is None

    def failing_parse(self, words):
        raise AssertionError("derivation probability drift")

    monkeypatch.setattr(dop.parser.SentenceParser, "parse", failing_parse)
    model = load_model(model_path)
    alive = weakref.ref(model)
    with pytest.raises(AssertionError, match="drift"):
        _parse_corpus(model, sentences, 100, 1e-5, 1)
    del model
    assert alive() is None


def test_score_identity(toy_paths, tmp_path, capsys):
    gold = tmp_path / "gold.txt"
    gold.write_text(TOY_CORPUS)
    code = main(["score", "--proposed", str(gold), "--gold", str(gold)])
    assert code == 0
    out = capsys.readouterr().out
    assert "LP 100.00" in out and "LR 100.00" in out


def test_score_constructed_pair(tmp_path, capsys):
    proposed = tmp_path / "p.txt"
    gold = tmp_path / "g.txt"
    proposed.write_text(
        "(S (A (P a) (P b)) (B (P c) (C (P d) (P e))))\n"
        "(S (A (P x) (P y)))\n")
    gold.write_text(
        "(S (A (P a) (P b)) (D (P c) (C (C (P d) (P e)))))\n"
        "(S (A (P x) (P y)))\n")
    tsv = tmp_path / "rows.tsv"
    code = main(["score", "--proposed", str(proposed), "--gold", str(gold),
                 "--tsv", str(tsv)])
    assert code == 0
    out = capsys.readouterr().out
    assert "LP  83.33" in out and "LR  71.43" in out
    assert tsv.read_text().splitlines()[1] == "0\t5\t3\t4\t5\t0"


def test_score_no_parse_lines(tmp_path, capsys):
    proposed = tmp_path / "p.txt"
    gold = tmp_path / "g.txt"
    proposed.write_text("NOPARSE\n(S (NP (P a)) (VP (P b)))\n")
    gold.write_text("(S (A (B (C (P a) (P b)))))\n(S (NP (P a)) (VP (P b)))\n")
    code = main(["score", "--proposed", str(proposed), "--gold", str(gold)])
    assert code == 0
    out = capsys.readouterr().out
    assert "no-parse 1" in out
    assert "LP 100.00" in out
    assert "LR  42.86" in out                     # 3/7


def test_score_misaligned_files(tmp_path, capsys):
    proposed = tmp_path / "p.txt"
    gold = tmp_path / "g.txt"
    proposed.write_text("(NP a)\n")
    gold.write_text("(NP a)\n(NP b)\n")
    code = main(["score", "--proposed", str(proposed), "--gold", str(gold)])
    assert code == 2
    assert "line is 2" in capsys.readouterr().err


def test_oracle_command(toy_paths, capsys):
    _, model_path = toy_paths
    code = main(["oracle", "--model", str(model_path),
                 "--sentence", "john hates susan"])
    assert code == 0
    out = capsys.readouterr().out
    assert "(S (NP john) (VP (V hates) (NP susan)))\t1/20\t13" in out


def test_experiment_command(tmp_path, capsys):
    train = tmp_path / "train.mrg"
    test = tmp_path / "test.mrg"
    train.write_text(write_treebank(synthetic_treebank(40, seed=11)))
    test.write_text(write_treebank(synthetic_treebank(8, seed=99)))
    out_dir = tmp_path / "exp"
    code = main(["experiment", "--train", str(train), "--test", str(test),
                 "--sweep", "depth", "--values", "1,2,3",
                 "--sample-per-depth", "none", "--n-best", "50",
                 "--prune-ratio", "1e-4", "--out", str(out_dir)])
    assert code == 0
    table = (out_dir / "table.tsv").read_text().splitlines()
    assert table[0] == "bound\tLP\tLR\tseconds"
    assert len(table) == 4
    for row in table[1:]:
        bound, lp, lr, seconds = row.split("\t")
        assert 0.0 <= float(lp) <= 100.0 and 0.0 <= float(lr) <= 100.0
        assert float(seconds) >= 0.0
    for bound in ("1", "2", "3"):
        assert (out_dir / ("model_%s.dopmodel" % bound)).exists()
        assert (out_dir / ("parse_%s.txt" % bound)).exists()
    assert len((out_dir / "parse_1.txt").read_text().splitlines()) == 8


def test_config_file_with_cli_override(tmp_path, capsys):
    train = tmp_path / "toy.mrg"
    train.write_text(TOY_CORPUS)
    config = tmp_path / "run.conf"
    config.write_text("max-depth=2\nsample-per-depth=none\n")
    model_a = tmp_path / "a"
    model_b = tmp_path / "b"
    main(["train", "--train", str(train), "--model", str(model_a),
          "--config", str(config)])
    main(["train", "--train", str(train), "--model", str(model_b),
          "--config", str(config), "--max-depth", "1"])
    depth_a = max(e.fragment.depth
                  for e in load_model(model_a).entries.values())
    depth_b = max(e.fragment.depth
                  for e in load_model(model_b).entries.values())
    assert depth_a == 2 and depth_b == 1


def test_train_with_smoothing(tmp_path):
    train = tmp_path / "toy.mrg"
    # third tree repeats fragments so count-of-counts has N1 < N and
    # Good-Turing reserves real mass for unseen events
    train.write_text(TOY_CORPUS +
                     "(S (NP john) (VP (V likes) (NP susan)))\n")
    model_path = tmp_path / "smoothed.dopmodel"
    code = main(["train", "--train", str(train), "--model", str(model_path),
                 "--sample-per-depth", "none", "--smoothing", "on"])
    assert code == 0
    model = load_model(model_path)
    assert model.smoothed
    total = sum(e.probability for e in model.entries.values()
                if e.fragment.root == "S")
    total += model.reserved_mass.get("S", Fraction(0))
    assert total == 1
    out = tmp_path / "out.txt"
    sents = tmp_path / "s.txt"
    sents.write_text("john likes mary\nwombat likes mary\n")
    assert main(["parse", "--model", str(model_path), "--input", str(sents),
                 "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert read_trees(lines[0])[0].leaves() == ["john", "likes", "mary"]
    # OOV word rides on the reserved Good-Turing mass
    assert read_trees(lines[1])[0].leaves() == ["wombat", "likes", "mary"]


def test_default_flag_values():
    from dop.cli import _DEFAULTS, _bound
    assert _bound(_DEFAULTS["max_depth"]) == 14
    assert _bound(_DEFAULTS["max_frontier_words"]) == 12
    assert _bound(_DEFAULTS["max_unlex_depth"]) == 6
    assert _bound(_DEFAULTS["max_nonheadwords"]) is None
    assert _bound(_DEFAULTS["sample_per_depth"]) == 400000
    assert int(_DEFAULTS["n_best"]) == 1000
    assert float(_DEFAULTS["prune_ratio"]) == 1e-5
    assert _DEFAULTS["smoothing"] == "off"
    assert int(_DEFAULTS["unknown_threshold"]) == 5
    assert int(_DEFAULTS["workers"]) == 1


def test_experiment_looser_bounds_grow_fragment_sets(tmp_path, capsys):
    train = tmp_path / "train.mrg"
    test = tmp_path / "test.mrg"
    train.write_text(write_treebank(synthetic_treebank(30, seed=2)))
    test.write_text(write_treebank(synthetic_treebank(5, seed=77)))
    out_dir = tmp_path / "exp"
    code = main(["experiment", "--train", str(train), "--test", str(test),
                 "--sweep", "depth", "--values", "1,2,3",
                 "--sample-per-depth", "none", "--n-best", "20",
                 "--out", str(out_dir)])
    assert code == 0
    sizes = [len(load_model(out_dir / ("model_%s.dopmodel" % b)).entries)
             for b in ("1", "2", "3")]
    assert sizes[0] < sizes[1] < sizes[2]
    err = capsys.readouterr().err
    assert "fragment types kept" in err


def test_experiment_frontier_word_sweep(tmp_path, capsys):
    train = tmp_path / "train.mrg"
    test = tmp_path / "test.mrg"
    train.write_text(write_treebank(synthetic_treebank(25, seed=6)))
    test.write_text(write_treebank(synthetic_treebank(4, seed=88)))
    out_dir = tmp_path / "exp"
    code = main(["experiment", "--train", str(train), "--test", str(test),
                 "--sweep", "frontier-words", "--values", "1,none",
                 "--max-depth", "3", "--sample-per-depth", "none",
                 "--n-best", "20", "--out", str(out_dir)])
    assert code == 0
    rows = (out_dir / "table.tsv").read_text().splitlines()
    assert [r.split("\t")[0] for r in rows[1:]] == ["1", "none"]


def _experiment_argv(tmp_path):
    train = tmp_path / "train.mrg"
    test = tmp_path / "test.mrg"
    train.write_text(write_treebank(synthetic_treebank(10, seed=6)))
    test.write_text(write_treebank(synthetic_treebank(2, seed=88)))
    return ["experiment", "--train", str(train), "--test", str(test),
            "--sweep", "depth", "--values", "1,2", "--sample-per-depth",
            "none", "--n-best", "20", "--out", str(tmp_path / "exp")]


def test_experiment_reports_data_error_as_failed_point(tmp_path, capsys,
                                                       monkeypatch):
    def no_grammar(chart, n):
        raise GrammarError("no usable grammar")

    monkeypatch.setattr(dop.parser, "nbest_derivations", no_grammar)
    assert main(_experiment_argv(tmp_path)) == 0
    rows = (tmp_path / "exp" / "table.tsv").read_text().splitlines()
    assert rows[1:] == ["1\tFAILED\tFAILED\t-", "2\tFAILED\tFAILED\t-"]


def test_config_rejects_unknown_keys(tmp_path, capsys):
    train = tmp_path / "toy.mrg"
    train.write_text(TOY_CORPUS)
    model = tmp_path / "m"
    config = tmp_path / "run.conf"
    for text, key in (("# a typo\nmax-dpeth=1\n", "'max-dpeth'"),
                      ("sample-per-depth=none\n\nmax-depth\n", "'max-depth'")):
        config.write_text(text)
        assert main(["train", "--train", str(train), "--model", str(model),
                     "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert key in err
        assert "line %d" % len(text.splitlines()) in err
        assert not model.exists()


def test_experiment_bad_training_option_is_data_error(tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_text("seed=abc\n")
    argv = _experiment_argv(tmp_path) + ["--config", str(config)]
    assert main(argv) == 2
    assert not (tmp_path / "exp").exists()


def test_experiment_zero_n_best_is_data_error(tmp_path, capsys):
    argv = _experiment_argv(tmp_path) + ["--n-best", "0"]
    assert main(argv) == 2
    assert "n_best must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "exp").exists()


def test_experiment_propagates_internal_errors(tmp_path, capsys, monkeypatch):
    def drift(chart, n):
        raise AssertionError("derivation probability drift")

    monkeypatch.setattr(dop.parser, "nbest_derivations", drift)
    with pytest.raises(AssertionError, match="drift"):
        main(_experiment_argv(tmp_path))


def test_score_length_bins(tmp_path, capsys):
    words = " ".join("(P w%d)" % i for i in range(45))
    long_tree = "(S %s)" % words
    short_tree = "(S (NP (P a)) (VP (P b)))"
    gold = tmp_path / "gold.txt"
    gold.write_text(short_tree + "\n" + long_tree + "\n")
    code = main(["score", "--proposed", str(gold), "--gold", str(gold)])
    assert code == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert "sentences 1" in lines[0]          # <= 40 words
    assert "sentences 2" in lines[1]          # <= 100 words
    assert "sentences 2" in lines[2]          # all


def test_usage_error_exit_code(capsys):
    assert main(["train"]) == 1
    assert main(["bogus"]) == 1


def test_data_error_exit_code(tmp_path, capsys):
    code = main(["train", "--train", str(tmp_path / "missing.mrg"),
                 "--model", str(tmp_path / "m")])
    assert code == 2


def test_every_package_error_is_a_value_error():
    # main turns (OSError, ValueError) into exit 2: every error class the
    # package defines must be among them
    import importlib
    import inspect
    import pkgutil
    found = []
    for info in pkgutil.iter_modules(dop.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module("dop." + info.name)
        found += [cls for _, cls in inspect.getmembers(module, inspect.isclass)
                  if cls.__module__ == module.__name__
                  and issubclass(cls, BaseException)]
    assert ModelFormatError in found and len(found) >= 10
    assert [cls for cls in found if not issubclass(cls, ValueError)] == []


def test_malformed_treebank_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.mrg"
    bad.write_text("(S (NP john\n")
    code = main(["train", "--train", str(bad), "--model", str(tmp_path / "m")])
    assert code == 2
    assert "never closed" in capsys.readouterr().err


def test_collector_paused_only_while_model_and_parser_build(
        toy_paths, tmp_path, monkeypatch):
    import dop.modelio
    _, model_path = toy_paths
    sents = tmp_path / "sents.txt"
    sents.write_text("john likes mary\n")
    out = tmp_path / "out.txt"
    enabled = []
    read = dop.modelio.model_from_text
    build = dop.parser.SentenceParser.__init__

    def recording_read(text):
        enabled.append(("read", gc.isenabled()))
        return read(text)

    def recording_build(self, *args, **kwargs):
        enabled.append(("build", gc.isenabled()))
        build(self, *args, **kwargs)

    monkeypatch.setattr(dop.modelio, "model_from_text", recording_read)
    monkeypatch.setattr(dop.parser.SentenceParser, "__init__", recording_build)
    assert gc.isenabled()
    assert main(["parse", "--model", str(model_path), "--input", str(sents),
                 "--output", str(out)]) == 0
    assert enabled == [("read", False), ("build", False)]
    assert gc.isenabled()

    gc.disable()
    try:
        load_model(model_path)
        assert not gc.isenabled()
    finally:
        gc.enable()

    def failing_read(text):
        raise ValueError("bad model")

    monkeypatch.setattr(dop.modelio, "model_from_text", failing_read)
    with pytest.raises(ValueError, match="bad model"):
        load_model(model_path)
    assert gc.isenabled()

    def failing_build(self, *args, **kwargs):
        raise ValueError("bad grammar")

    monkeypatch.setattr(dop.parser.SentenceParser, "__init__", failing_build)
    with pytest.raises(ValueError, match="bad grammar"):
        _parse_corpus(read(model_path.read_text()), [["john"]], 10, 1e-5, 1)
    assert gc.isenabled()


def test_train_and_parse_run_with_collector_paused(toy_paths, tmp_path,
                                                  monkeypatch):
    import dop.cli
    train, model_path = toy_paths
    enabled = []

    def recording(name, function):
        def record(*args, **kwargs):
            enabled.append((name, gc.isenabled()))
            return function(*args, **kwargs)
        monkeypatch.setattr(dop.cli, name, record)

    for name in ("read_treebank", "collect_fragments", "build_model",
                 "write_model"):
        recording(name, getattr(dop.cli, name))
    assert gc.isenabled()
    assert main(["train", "--train", str(train), "--model",
                 str(tmp_path / "m"), "--max-depth", "2",
                 "--sample-per-depth", "20"]) == 0
    assert enabled == [("read_treebank", False), ("collect_fragments", False),
                       ("build_model", False), ("write_model", False)]
    assert gc.isenabled()

    enabled.clear()
    parse = dop.parser.SentenceParser.parse

    def recording_parse(self, words):
        enabled.append(("parse", gc.isenabled()))
        return parse(self, words)

    monkeypatch.setattr(dop.parser.SentenceParser, "parse", recording_parse)
    sents = tmp_path / "sents.txt"
    sents.write_text("john likes mary\npeter hates susan\n")
    assert main(["parse", "--model", str(model_path), "--input", str(sents),
                 "--output", str(tmp_path / "out.txt")]) == 0
    assert enabled == [("parse", False)] * 2
    assert gc.isenabled()


def test_experiment_reads_treebanks_with_collector_paused(tmp_path, capsys,
                                                         monkeypatch):
    import dop.cli
    train = tmp_path / "train.mrg"
    test = tmp_path / "test.mrg"
    train.write_text(write_treebank(synthetic_treebank(20, seed=11)))
    test.write_text(write_treebank(synthetic_treebank(3, seed=99)))
    enabled = []

    def recording(name, function):
        def record(*args, **kwargs):
            enabled.append((name, gc.isenabled()))
            return function(*args, **kwargs)
        monkeypatch.setattr(dop.cli, name, record)

    for name in ("read_treebank", "normalize_treebank"):
        recording(name, getattr(dop.cli, name))
    assert gc.isenabled()
    assert main(["experiment", "--train", str(train), "--test", str(test),
                 "--sweep", "depth", "--values", "1", "--sample-per-depth",
                 "20", "--out", str(tmp_path / "exp")]) == 0
    assert enabled == [("read_treebank", False), ("normalize_treebank", False)] * 2
    assert gc.isenabled()


def test_train_model_leaves_no_reference_cycles():
    # the premise of training with the collector paused: reference
    # counting alone frees what training drops
    from dop.cli import _Options, _train_model, build_parser
    bank = synthetic_treebank(200, seed=17)
    options = _Options(build_parser().parse_args(
        ["train", "--train", "-", "--model", "-", "--max-depth", "4",
         "--sample-per-depth", "200"]))
    restriction = options.restriction()
    gc.collect()
    gc.disable()
    try:
        model, _ = _train_model(bank, restriction, options)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert model.unknown_words is not None


def test_no_collection_between_model_load_and_freeze(tmp_path, monkeypatch):
    import dop.cli
    train = tmp_path / "train.mrg"
    train.write_text(write_treebank(synthetic_treebank(40, seed=5)))
    model_path = tmp_path / "m.dopmodel"
    assert main(["train", "--train", str(train), "--model", str(model_path),
                 "--max-depth", "3", "--sample-per-depth", "100",
                 "--seed", "1"]) == 0
    sents = tmp_path / "sents.txt"
    sents.write_text("".join(" ".join(tree.leaves()) + "\n" for tree in
                             synthetic_treebank(3, seed=6).trees))
    events = []
    load, freeze = dop.cli.load_model, gc.freeze

    def recording_load(path):
        model = load(path)
        events.append("loaded")
        return model

    def recording_freeze():
        events.append("frozen")
        freeze()

    def on_collection(phase, info):
        if phase == "start":
            events.append("collection")

    monkeypatch.setattr(dop.cli, "load_model", recording_load)
    monkeypatch.setattr(gc, "freeze", recording_freeze)
    gc.callbacks.append(on_collection)
    try:
        assert main(["parse", "--model", str(model_path), "--input",
                     str(sents), "--output", str(tmp_path / "out.txt")]) == 0
    finally:
        gc.callbacks.remove(on_collection)
    # the model is big enough that a collection after the load would scan
    # it; none may start before it is frozen
    assert len(load(model_path).entries) > 100
    loaded = events.index("loaded")
    assert events[loaded + 1] == "frozen"
    assert gc.get_freeze_count() == 0
