import argparse
import gc
import os
import subprocess
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

import dop.cli
import dop.parser
from dop.cli import _parse_corpus, main
from dop import (Fragment, GrammarError, SentenceParser, load_model,
                 read_trees, write_tree)
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
    assert max(Fragment(key).depth for key in model.entries) <= 3


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
    # a blank line reaches no n-best search; the settings check fails it
    _, model_path = toy_paths
    sents = tmp_path / "blank.txt"
    sents.write_text("\n")
    out = tmp_path / "out.txt"
    assert main(["parse", "--model", str(model_path), "--input", str(sents),
                 "--output", str(out), "--n-best", "0"]) == 2
    assert "n_best must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--prune-ratio", "0", "prune_ratio must be in (0, 1]"),
    ("--n-best", "0", "n_best must be >= 1"),
    ("--workers", "0", "workers must be >= 1"),
    ("--workers", "-1", "workers must be >= 1"),
    ("--prune-ratio", "x", "prune_ratio must be a number, not 'x'"),
])
def test_bad_parse_setting_is_reported_before_the_input_is_read(
        toy_paths, tmp_path, capsys, flag, value, message):
    # `dop parse` reads its input before the model, but checks its settings
    # before either
    _, model_path = toy_paths
    missing = tmp_path / "missing.txt"
    assert main(["parse", "--model", str(model_path), "--input",
                 str(missing), flag, value]) == 2
    assert capsys.readouterr().err == "dop parse: %s\n" % message
    assert main(["parse", "--model", str(model_path), "--input",
                 str(missing)]) == 2
    assert "missing.txt" in capsys.readouterr().err


_BAD_TRAINING_SETTINGS = [
    ("--seed", "x", "seed must be an integer, not 'x'"),
    ("--config", "smoothing=maybe", "--smoothing must be on or off"),
    ("--unknown-threshold", "0", "unknown_threshold must be >= 1"),
    ("--unknown-threshold", "-1", "unknown_threshold must be >= 1"),
    ("--unknown-threshold", "x",
     "unknown_threshold must be an integer, not 'x'"),
    ("--head-rules", "nosuch-head-rules.txt",
     "[Errno 2] No such file or directory: 'nosuch-head-rules.txt'"),
    ("--max-depth", "x", "max_depth must be an integer or none, not 'x'"),
]


# each case for both commands, and a sweep value for `dop experiment`
@pytest.mark.parametrize("command, flag, value, message", [
    pytest.param(command, *case, id="-".join(case + (command,)))
    for case in _BAD_TRAINING_SETTINGS
    for command in ("train", "experiment")] + [
    pytest.param("experiment", "--values", "1,x",
                 "max_depth must be an integer or none, not 'x'",
                 id="--values-1,x-experiment")])
def test_bad_training_setting_is_reported_before_the_input_is_read(
        tmp_path, capsys, command, flag, value, message):
    # `dop train` and `dop experiment` check their training settings before
    # they read a treebank, and a sweep writes no table of failed points
    if flag == "--config":
        # a config file can hold a value that --smoothing's choices refuse
        config = tmp_path / "bad.conf"
        config.write_text(value + "\n")
        value = str(config)
    missing = tmp_path / "missing.mrg"
    out = tmp_path / "exp"
    argv = {"train": ["train", "--train", str(missing),
                      "--model", str(tmp_path / "m")],
            "experiment": ["experiment", "--train", str(missing),
                           "--test", str(missing), "--sweep", "depth",
                           "--values", "1,2", "--out", str(out)]}[command]
    for bank in (None, TOY_CORPUS):
        if bank:
            missing.write_text(bank)
        assert main(argv + [flag, value]) == 2
        assert capsys.readouterr().err == "dop %s: %s\n" % (command, message)
        assert not (tmp_path / "m").exists() and not out.exists()
    missing.unlink()
    assert main(argv) == 2
    assert "missing.mrg" in capsys.readouterr().err


def test_parse_builds_rules_for_the_input_words_only(toy_paths, tmp_path,
                                                     monkeypatch):
    # the parser `dop parse` builds is given the words of its input; one
    # run per sentence writes the bytes one run over all of them writes
    _, model_path = toy_paths
    built = []
    real = dop.cli.SentenceParser

    def recording(*args, **kwargs):
        parser = real(*args, **kwargs)
        built.append((kwargs["words"], len(parser.rules)))
        return parser

    monkeypatch.setattr(dop.cli, "SentenceParser", recording)
    lines = ["john likes mary", "peter hates susan", "susan likes john"]
    sents = tmp_path / "sents.txt"
    sents.write_text("".join(line + "\n" for line in lines))
    out = tmp_path / "out.txt"
    assert main(["parse", "--model", str(model_path), "--input", str(sents),
                 "--output", str(out)]) == 0
    each = []
    one, parse = tmp_path / "one.txt", tmp_path / "parse.txt"
    for line in lines:
        one.write_text(line + "\n")
        assert main(["parse", "--model", str(model_path), "--input", str(one),
                     "--output", str(parse)]) == 0
        each.append(parse.read_text())
    assert "".join(each) == out.read_text()
    assert out.read_text().count("(S ") == 3
    everything = len(load_model(model_path).entries)
    assert built[0] == ({w for line in lines for w in line.split()},
                        everything)
    assert [words for words, _ in built[1:]] == [set(line.split())
                                                 for line in lines]
    assert all(rules < everything for _, rules in built[1:])


def _run_python(argv):
    """Python as a child process that imports this dop, with a deadline: a
    bad setting checked only in pool workers respawns them without end."""
    src = str(Path(dop.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    return subprocess.run([sys.executable] + argv, env=env,
                          capture_output=True, text=True, timeout=60)


def _run_dop(argv):
    return _run_python(["-m", "dop"] + argv)


def test_cli_import_leaves_multiprocessing_out():
    # only a parse with --workers above 1 imports it
    proc = _run_python(
        ["-c", "import sys, dop.cli; print('multiprocessing' in sys.modules)"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_cli_import_leaves_oracle_out():
    # only `dop oracle` imports it; the package resolves its names on use
    proc = _run_python(
        ["-c", "import sys, dop.cli; print('dop.oracle' in sys.modules); "
               "from dop import exact_mpp; import dop; "
               "print(exact_mpp is dop.oracle.exact_mpp, dop.compose)"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("False\nTrue <function compose ")


@pytest.mark.parametrize("flag, value, message", [
    ("--prune-ratio", "0", "prune_ratio must be in (0, 1]"),
    ("--n-best", "0", "n_best must be >= 1"),
    ("--workers", "0", "workers must be >= 1"),
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


def test_pool_holds_no_more_workers_than_sentences(toy_paths, tmp_path,
                                                   monkeypatch):
    # a pool that records its size and maps in this process: no worker
    # process is started
    import multiprocessing
    sizes = []

    class RecordingPool:
        def __init__(self, processes, initializer, initargs):
            sizes.append(processes)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, func, items):
            return list(map(func, items))

    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    monkeypatch.setattr(dop.cli, "_WORKER_STATE", {})
    _, model_path = toy_paths
    lines = ["john likes mary", "peter hates susan", "mary likes john"]
    sents = tmp_path / "sents.txt"
    out = tmp_path / "out.txt"
    for count, workers, pooled in ((2, "8", [2]), (3, "2", [2]),
                                   (1, "8", []), (3, "1", [])):
        sents.write_text("".join(line + "\n" for line in lines[:count]))
        outputs = []
        for flags in ([], ["--workers", workers]):
            assert main(["parse", "--model", str(model_path), "--input",
                         str(sents), "--output", str(out)] + flags) == 0
            outputs.append(out.read_bytes())
        assert sizes == pooled
        assert outputs[0] == outputs[1]
        assert outputs[0].count(b"(S ") == count
        sizes.clear()


def test_serial_parse_releases_model(toy_paths, monkeypatch):
    # the parser holds no reference to its model, and a serial parse holds
    # none to the parser once it returns or fails; the parsers stop early,
    # as the commands' do
    _, model_path = toy_paths
    sentences = [["john", "likes", "mary"]]
    model = load_model(model_path)
    model_alive = weakref.ref(model)
    parser = SentenceParser(model, n_best=100, stop_early=True)
    del model
    assert model_alive() is None
    alive = weakref.ref(parser)
    rows = _parse_corpus(parser, sentences, 1)
    assert rows[0][0] == "(S (NP john) (VP (V likes) (NP mary)))"
    del parser
    assert alive() is None

    def failing_parse(self, words):
        raise AssertionError("derivation probability drift")

    monkeypatch.setattr(dop.parser.SentenceParser, "parse", failing_parse)
    parser = SentenceParser(load_model(model_path), n_best=100,
                            stop_early=True)
    alive = weakref.ref(parser)
    with pytest.raises(AssertionError, match="drift"):
        _parse_corpus(parser, sentences, 1)
    del parser
    assert alive() is None


def test_parse_and_experiment_drop_the_model_before_parsing(
        toy_paths, tmp_path, monkeypatch):
    # sentences are parsed from the rules alone: `dop parse` builds no
    # model, and `dop experiment` drops each grid point's model first
    import dop.cli
    import dop.modelio
    train, model_path = toy_paths
    entries = []
    entry = dop.modelio.ModelEntry

    def counted(*args):
        entries.append(args)
        return entry(*args)

    monkeypatch.setattr(dop.modelio, "ModelEntry", counted)
    sents = tmp_path / "sents.txt"
    sents.write_text("john likes mary\npeter hates susan\n")
    assert main(["parse", "--model", str(model_path), "--input", str(sents),
                 "--output", str(tmp_path / "out.txt")]) == 0
    assert entries == []
    # the count does see a model load
    assert main(["oracle", "--model", str(model_path),
                 "--sentence", "john likes mary"]) == 0
    assert len(entries) == 31

    models = []
    train_model = dop.cli._train_model

    def recording(*args, **kwargs):
        result = train_model(*args, **kwargs)
        models.append(weakref.ref(result[0]))
        return result

    alive = []
    parse = dop.parser.SentenceParser.parse

    def recording_parse(self, words):
        alive.append(any(model() is not None for model in models))
        return parse(self, words)

    monkeypatch.setattr(dop.cli, "_train_model", recording)
    monkeypatch.setattr(dop.parser.SentenceParser, "parse", recording_parse)
    gold = tmp_path / "gold.mrg"
    gold.write_text(TOY_CORPUS)
    assert main(["experiment", "--train", str(train), "--test", str(gold),
                 "--sweep", "depth", "--values", "1,2",
                 "--sample-per-depth", "none",
                 "--out", str(tmp_path / "exp")]) == 0
    assert len(models) == 2 and alive == [False] * 4


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


def test_oracle_deep_unary_chain(tmp_path, capsys):
    # deeper than the recursion limit: expansion and composition walk the
    # 1500 levels without recursing
    key, _ = unary_chain_model(1500)
    train = tmp_path / "chain.mrg"
    train.write_text(key + "\n")
    model = tmp_path / "chain.dopmodel"
    assert main(["train", "--train", str(train), "--model", str(model),
                 "--max-depth", "1"]) == 0
    capsys.readouterr()
    assert main(["oracle", "--model", str(model), "--sentence", "w"]) == 0
    assert capsys.readouterr().out == (
        "# sentence 0: w (1 derivations)\n%s\t1\t1\n" % key)


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
    depth_a = max(Fragment(key).depth for key in load_model(model_a).entries)
    depth_b = max(Fragment(key).depth for key in load_model(model_b).entries)
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
                if Fragment(e.key).root == "S")
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
    from dop.cli import _DEFAULTS, _Options
    defaults = _Options(argparse.Namespace())
    assert defaults.setting("max_depth", "bound") == 14
    assert defaults.setting("max_frontier_words", "bound") == 12
    assert defaults.setting("max_unlex_depth", "bound") == 6
    assert defaults.setting("max_nonheadwords", "bound") is None
    assert defaults.setting("sample_per_depth", "bound") == 400000
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
    def no_grammar(chart, n, stop_early=False):
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
    def drift(chart, n, stop_early=False):
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


def test_train_frees_the_treebank_before_building_the_model(tmp_path,
                                                           monkeypatch):
    # the fragment counts, start labels and unknown-word model are read
    # first: no Treebank, nor its cached node and height lists, is alive
    # while the model is built
    read = dop.cli._read_normalized_treebank
    build = dop.cli.build_model
    banks = []
    alive = []

    def reading(path):
        bank = read(path)
        banks.append(weakref.ref(bank))
        return bank

    def building(*args, **kwargs):
        alive.append([bank() is not None for bank in banks])
        return build(*args, **kwargs)

    monkeypatch.setattr(dop.cli, "_read_normalized_treebank", reading)
    monkeypatch.setattr(dop.cli, "build_model", building)
    train = tmp_path / "toy.mrg"
    train.write_text(TOY_CORPUS)
    for smoothing in ("off", "on"):
        model = tmp_path / ("toy-%s.dopmodel" % smoothing)
        assert main(["train", "--train", str(train), "--model", str(model),
                     "--max-depth", "3", "--sample-per-depth", "none",
                     "--smoothing", smoothing]) == 0
        assert load_model(model).unknown_words is not None
    assert alive == [[False], [False, False]]


def test_skipped_unknown_model_is_reported_after_the_model_is_built(
        tmp_path, capsys):
    # no word is rare at --unknown-threshold 1: the model is written without
    # an unknown-word model, and the line saying so is printed only when
    # the model was built
    train = tmp_path / "twice.mrg"
    train.write_text(TOY_CORPUS * 2)
    model = tmp_path / "m"
    argv = ["train", "--train", str(train), "--model", str(model),
            "--unknown-threshold", "1", "--sample-per-depth", "none"]
    assert main(argv) == 0
    assert capsys.readouterr().err == (
        "unknown-word model skipped: no words occur <= 1 times; raise the "
        "rarity threshold\n")
    assert load_model(model).unknown_words is None
    # and none when no fragment passes: a tree of one preterminal has only
    # fragments with a frontier word
    train.write_text("(X a)\n(X a)\n")
    assert main(argv + ["--max-frontier-words", "0"]) == 2
    assert capsys.readouterr().err == (
        "dop train: no fragments pass the restriction; empty grammar\n")


def _command_argv(command, tmp_path, train, model):
    sents = tmp_path / "sents.txt"
    sents.write_text("john likes mary\npeter hates susan\n")
    gold = tmp_path / "gold.mrg"
    gold.write_text("(S (NP john) (VP (V likes) (NP mary)))\n"
                    "(S (NP peter) (VP (V hates) (NP susan)))\n")
    return [str(arg) for arg in {
        "train": ["train", "--train", train, "--model", tmp_path / "m",
                  "--max-depth", "2", "--sample-per-depth", "20"],
        "parse": ["parse", "--model", model, "--input", sents,
                  "--output", tmp_path / "out.txt"],
        "experiment": ["experiment", "--train", train, "--test", gold,
                       "--sweep", "depth", "--values", "1",
                       "--sample-per-depth", "20", "--out", tmp_path / "exp"],
        "score": ["score", "--proposed", gold, "--gold", gold],
        "oracle": ["oracle", "--model", model, "--sentence",
                   "john likes mary"],
    }[command]]


@pytest.mark.parametrize("command",
                         ["train", "parse", "experiment", "score", "oracle"])
def test_command_runs_with_collector_off(command, toy_paths, tmp_path,
                                         monkeypatch, capsys):
    # main turns the collector off around the command, and gives it back
    # as the caller had it however the command ends
    import dop.cli
    argv = _command_argv(command, tmp_path, *toy_paths)
    run = dop.cli._COMMANDS[command]
    enabled = []

    def recording(args):
        enabled.append(gc.isenabled())
        return run(args)

    def failing(args):
        enabled.append(gc.isenabled())
        raise GrammarError("bad data")

    def crashing(args):
        enabled.append(gc.isenabled())
        raise AssertionError("derivation probability drift")

    try:
        for caller_had_it in (True, False):
            (gc.enable if caller_had_it else gc.disable)()
            monkeypatch.setitem(dop.cli._COMMANDS, command, recording)
            assert main(argv) == 0
            assert gc.isenabled() is caller_had_it
            monkeypatch.setitem(dop.cli._COMMANDS, command, failing)
            assert main(argv) == 2
            assert gc.isenabled() is caller_had_it
            monkeypatch.setitem(dop.cli._COMMANDS, command, crashing)
            with pytest.raises(AssertionError, match="drift"):
                main(argv)
            assert gc.isenabled() is caller_had_it
    finally:
        gc.enable()
    assert enabled == [False] * 6
    assert "bad data" in capsys.readouterr().err


def test_load_model_pauses_collector(toy_paths, monkeypatch):
    # load_model is the library's entry point: it pauses the collector
    # itself, and gives it back as the caller had it
    import dop.modelio
    _, model_path = toy_paths
    enabled = []
    read = dop.modelio.model_from_text

    def recording_read(text):
        enabled.append(gc.isenabled())
        return read(text)

    monkeypatch.setattr(dop.modelio, "model_from_text", recording_read)
    assert gc.isenabled()
    load_model(model_path)
    assert enabled == [False]
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


def test_no_collection_during_parse(tmp_path, monkeypatch):
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
    parse = dop.cli._COMMANDS["parse"]

    def recording_parse(args):
        events.append("command")
        code = parse(args)
        events.append("returned")
        return code

    def on_collection(phase, info):
        if phase == "start":
            events.append("collection")

    monkeypatch.setitem(dop.cli._COMMANDS, "parse", recording_parse)
    gc.callbacks.append(on_collection)
    try:
        assert main(["parse", "--model", str(model_path), "--input",
                     str(sents), "--output", str(tmp_path / "out.txt")]) == 0
    finally:
        gc.callbacks.remove(on_collection)
    # the model is big enough that a collection would scan it at length;
    # one may start once main gives the collector back, after the command
    assert len(load_model(model_path).entries) > 100
    start = events.index("command")
    assert events[start:start + 2] == ["command", "returned"]


def test_spawned_worker_runs_with_collector_off(toy_paths):
    # a spawned worker starts with the collector on, whatever the parent
    # set: _worker_init turns it off
    import multiprocessing
    from dop.cli import _worker_init, _worker_parse
    parser = SentenceParser(load_model(toy_paths[1]))
    context = multiprocessing.get_context("spawn")
    with context.Pool(1, initializer=_worker_init,
                      initargs=(parser,)) as pool:
        assert pool.apply_async(gc.isenabled).get(timeout=60) is False
        row = pool.apply_async(_worker_parse,
                               (["john", "likes", "mary"],)).get(timeout=60)
    assert row[0] == "(S (NP john) (VP (V likes) (NP mary)))"


@pytest.mark.parametrize("command", ["score", "oracle"])
def test_command_leaves_no_reference_cycles(command, toy_paths, tmp_path,
                                            capsys):
    # the premise of running every command with the collector off:
    # reference counting alone frees what the command drops
    import dop.cli
    import dop.oracle  # noqa: F401  (its import makes garbage of its own)
    args = dop.cli.build_parser().parse_args(
        _command_argv(command, tmp_path, *toy_paths))
    gc.collect()
    gc.disable()
    try:
        assert dop.cli._COMMANDS[command](args) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()
