"""Command-line driver: train models, parse, score, run restriction sweeps.

Commands: train, parse, experiment, score, oracle. Exit codes: 0 success,
1 usage error, 2 data error. All options can also come from a --config
file of key=value lines; explicit command-line values win. `dop train` and
`dop experiment` check their training settings before they read a
treebank, and `dop train` frees the treebank before it builds the model
(see `_read_training`). `dop parse` and `dop experiment` check their
parse settings first, then read the sentences they will parse, then
build their parser from the model file's rows through one function,
`_sentence_parser`: only the rows whose frontier words all occur in
those sentences become rules (see `parser.SentenceParser`), neither
command holds a model while parsing, and each sentence's n-best search
stops once its parse is decided (`--n-best` is a cap).

Every command runs with Python's cycle collector off, set once in `main`
and back as the caller had it when `main` returns. Trees, fragments,
models, charts and derivations hold no reference cycles, so reference
counting frees whatever a command drops, and a collection would only
scan live data again.
"""

import argparse
import dataclasses
import gc
import os
import sys
import time
from collections import Counter

# depth1_fragment is not called here: extract_treebank counts depth 1 by
# key. perfbench/run.py wraps cli.depth1_fragment, so the name stays.
from .fragments import (RestrictionSet, depth1_fragment,  # noqa: F401
                        extract_treebank, sample_fragments)
from .heads import HeadRuleTable, default_head_rules
from .model import (GrammarError, build_model, good_turing_adjust,
                    train_unknown_model)
from .modelio import collector_paused, load_model, write_model
from .parser import SentenceParser
from .parseval import format_report, report_rows, score_corpus
# write_tree is not called here: a parse is written as the string the
# parser built. perfbench/run.py wraps cli.write_tree, so the name stays.
from .tree import (read_treebank, read_trees, normalize_treebank,
                   write_tree)  # noqa: F401

NO_PARSE_LINE = "NOPARSE"

_DEFAULTS = {
    "max_depth": "14",
    "max_frontier_words": "12",
    "max_unlex_depth": "6",
    "max_nonheadwords": "none",
    "sample_per_depth": "400000",
    "n_best": "1000",
    "prune_ratio": "1e-5",
    "seed": "1",
    "smoothing": "off",
    "unknown_threshold": "5",
    "workers": "1",
    "cap": "1000000",
}

# what _Options reads: the defaults, and the head-rule file
_CONFIG_KEYS = frozenset(_DEFAULTS) | {"head_rules"}

_SWEEP_FIELDS = {
    "depth": "max_depth",
    "frontier-words": "max_frontier_words",
    "unlex-depth": "max_unlex_depth",
    "nonheadwords": "max_nonheadwords",
}


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("%s: error: %s\n" % (self.prog, message))
        raise SystemExit(1)


def _read_config(path):
    values = {}
    with open(path, encoding="utf8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            text, equals, value = line.partition("=")
            key = text.strip().replace("-", "_")
            if not equals or key not in _CONFIG_KEYS:
                raise ValueError("%s line %d: %r is not key=value with a "
                                 "known key" % (path, lineno, text.strip()))
            values[key] = value.strip()
    return values


class _Options:
    """Effective option values: command line, then config file, then defaults."""

    def __init__(self, args):
        self.args = args
        self.config = _read_config(args.config) if getattr(args, "config", None) else {}

    def _raw(self, name):
        value = getattr(self.args, name, None)
        if value is not None:
            return value
        if name in self.config:
            return self.config[name]
        return _DEFAULTS.get(name)

    def setting(self, name, kind, text=None):
        """The named setting, or text when given, read as kind: int, float,
        or "bound", an int or None for none, unbounded or -. A value that
        does not read so is a ValueError that names the setting."""
        text = self._raw(name) if text is None else text
        if kind == "bound" and text in ("none", "unbounded", "-"):
            return None
        try:
            return (int if kind == "bound" else kind)(text)
        except ValueError:
            expected = {int: "an integer", float: "a number"}.get(
                kind, "an integer or none")
            raise ValueError("%s must be %s, not %r"
                             % (name, expected, text)) from None

    def smoothing(self):
        value = self._raw("smoothing")
        if value not in ("on", "off"):
            raise ValueError("--smoothing must be on or off")
        return value == "on"

    def restriction(self):
        return RestrictionSet(**{
            field.name: self.setting(field.name, "bound")
            for field in dataclasses.fields(RestrictionSet)})


def _add_restriction_flags(parser):
    parser.add_argument("--max-depth", dest="max_depth")
    parser.add_argument("--max-frontier-words", dest="max_frontier_words")
    parser.add_argument("--max-unlex-depth", dest="max_unlex_depth")
    parser.add_argument("--max-nonheadwords", dest="max_nonheadwords")
    parser.add_argument("--sample-per-depth", dest="sample_per_depth")
    parser.add_argument("--seed", dest="seed")
    parser.add_argument("--smoothing", dest="smoothing", choices=["on", "off"])
    parser.add_argument("--unknown-threshold", dest="unknown_threshold")
    parser.add_argument("--head-rules", dest="head_rules")


def _add_parse_flags(parser):
    parser.add_argument("--n-best", dest="n_best")
    parser.add_argument("--prune-ratio", dest="prune_ratio")
    parser.add_argument("--workers", dest="workers")


def build_parser():
    parser = _ArgumentParser(
        prog="dop",
        description="Tree-fragment grammars: train, parse, score, sweep.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="extract fragments and write a model")
    p_train.add_argument("--train", required=True, help="bracketed treebank")
    p_train.add_argument("--model", required=True, help="model file to write")
    p_train.add_argument("--config")
    _add_restriction_flags(p_train)

    p_parse = sub.add_parser("parse", help="parse tokenized sentences")
    p_parse.add_argument("--model", required=True)
    p_parse.add_argument("--input", default="-", help="one sentence per line")
    p_parse.add_argument("--output", default="-")
    p_parse.add_argument(
        "--stats", help="TSV: index, the tree's probability over the "
        "derivations examined, the derivations examined before the tree "
        "was decided (at most --n-best), seconds")
    p_parse.add_argument("--config")
    _add_parse_flags(p_parse)

    p_exp = sub.add_parser("experiment",
                           help="sweep one restriction dimension, emit a table")
    p_exp.add_argument("--train", required=True)
    p_exp.add_argument("--test", required=True, help="gold bracketed trees")
    p_exp.add_argument("--sweep", required=True, choices=sorted(_SWEEP_FIELDS))
    p_exp.add_argument("--values", required=True,
                       help="comma-separated bounds, e.g. 1,2,3,none")
    p_exp.add_argument("--out", required=True, help="output directory")
    p_exp.add_argument("--config")
    _add_restriction_flags(p_exp)
    _add_parse_flags(p_exp)

    p_score = sub.add_parser("score", help="PARSEVAL LP/LR of parses vs gold")
    p_score.add_argument("--proposed", required=True)
    p_score.add_argument("--gold", required=True)
    p_score.add_argument("--tsv", help="write per-sentence rows here")
    p_score.add_argument("--exclude-root", action="store_true")

    p_oracle = sub.add_parser("oracle",
                              help="exact derivation enumeration for a sentence")
    p_oracle.add_argument("--model", required=True)
    group = p_oracle.add_mutually_exclusive_group(required=True)
    group.add_argument("--sentence")
    group.add_argument("--input")
    p_oracle.add_argument("--cap")
    p_oracle.add_argument("--config")

    return parser


def _load_head_rules(options):
    path = options._raw("head_rules")
    if path:
        return HeadRuleTable.from_file(path)
    return default_head_rules()


def _read_normalized_treebank(path):
    with open(path, encoding="utf8") as handle:
        treebank = read_treebank(handle.read())
    normalized, skipped = normalize_treebank(treebank)
    if skipped:
        print("skipped %d tree(s) emptied by normalization" % skipped,
              file=sys.stderr)
    if not normalized.trees:
        raise GrammarError("treebank %s has no usable trees" % path)
    return normalized


def collect_fragments(treebank, restriction, seed, cache=None):
    """Fragment multiset per the training recipe, plus per-depth tallies.

    Each depth from 1 to max_depth (clipped to the deepest tree) is one
    count of fragments of exactly that depth: extracted exhaustively at
    depth 1 and wherever sample_per_depth is None, otherwise drawn by
    `sample_fragments` from seed + depth. The cache, when given, is keyed
    by depth so sweeps reuse each depth across grid points; it must only
    ever see this treebank, seed and sample size.
    """
    if cache is None:
        cache = {}
    per_depth = restriction.sample_per_depth
    corpus_max = max(heights[0] for heights in treebank.heights)
    top = min(restriction.max_depth or corpus_max, corpus_max)
    fragments = Counter()
    depth_counts = {}
    for depth in range(1, top + 1):
        if depth not in cache:
            if depth == 1 or per_depth is None:
                cache[depth] = extract_treebank(treebank, depth)
            else:
                cache[depth] = sample_fragments(treebank, depth, per_depth,
                                                seed + depth)
        fragments.update(cache[depth])
        depth_counts[depth] = sum(cache[depth].values())
    return fragments, depth_counts


def _training_settings(options):
    """(seed, smoothing, unknown-word threshold, head rules), checked before
    any file is read, so that a bad setting fails the command whatever the
    input, and a sweep once rather than at each grid point."""
    seed = options.setting("seed", int)
    smoothing = options.smoothing()
    threshold = options.setting("unknown_threshold", int)
    if threshold < 1:
        raise ValueError("unknown_threshold must be >= 1")
    return seed, smoothing, threshold, _load_head_rules(options)


def _read_training(treebank, restriction, seed, threshold, cache=None):
    """What training reads from the treebank: (fragment counts, tokens per
    depth, start labels, unknown-word model). The last is the GrammarError
    that skipped the model when no word is rare, without its traceback,
    whose frames would hold the treebank."""
    fragments, depth_counts = collect_fragments(treebank, restriction,
                                                seed, cache=cache)
    start_labels = frozenset(tree.label for tree in treebank.trees)
    try:
        unknown = train_unknown_model(treebank, threshold)
    except GrammarError as err:
        unknown = err.with_traceback(None)
    return fragments, depth_counts, start_labels, unknown


def _finish_model(model, unknown, smoothing):
    """The built model, smoothed if asked, with its unknown-word model. A
    skipped unknown-word model is reported here, once the model is built,
    as when it was trained last."""
    if smoothing:
        model = good_turing_adjust(model)
    if isinstance(unknown, GrammarError):
        print("unknown-word model skipped: %s" % unknown, file=sys.stderr)
    else:
        model.unknown_words = unknown
    return model


def _train_model(treebank, restriction, options, cache=None):
    seed, smoothing, threshold, rules = _training_settings(options)
    fragments, depth_counts, start_labels, unknown = _read_training(
        treebank, restriction, seed, threshold, cache=cache)
    model = build_model(fragments, restriction, rules,
                        start_labels=start_labels)
    return _finish_model(model, unknown, smoothing), depth_counts


def cmd_train(args) -> int:
    options = _Options(args)
    restriction = options.restriction()
    seed, smoothing, threshold, rules = _training_settings(options)
    treebank = _read_normalized_treebank(args.train)
    fragments, depth_counts, start_labels, unknown = _read_training(
        treebank, restriction, seed, threshold)
    # the trees and their cached node lists go before the model is built,
    # and the fragment counts, whose entries hold only their keys, before
    # it is smoothed
    del treebank
    model = build_model(fragments, restriction, rules,
                        start_labels=start_labels)
    del fragments
    model = _finish_model(model, unknown, smoothing)
    write_model(model, args.model)
    for depth in sorted(depth_counts):
        print("depth %d: %d fragment tokens" % (depth, depth_counts[depth]))
    print("model: %d fragments over %d roots -> %s"
          % (len(model.entries), len(model.root_totals), args.model))
    return 0


def _open_out(path):
    if path == "-":
        return sys.stdout
    return open(path, "w", encoding="utf8")


def _read_sentences(path):
    if path == "-":
        data = sys.stdin.read()
    else:
        with open(path, encoding="utf8") as handle:
            data = handle.read()
    return [line.split() for line in data.splitlines()]


_WORKER_STATE = {}


def _worker_init(parser):
    # a spawned or forkserver worker does not inherit the collector state
    # that `main` set
    _WORKER_STATE["parser"] = parser
    gc.disable()


def _parse_one(parser, words):
    started = time.perf_counter()
    result = parser.parse(words) if words else None
    seconds = time.perf_counter() - started
    if result is None:
        return None, 0.0, 0, seconds
    return (result.bracketed, result.probability,
            result.derivations_examined, seconds)


def _worker_parse(words):
    return _parse_one(_WORKER_STATE["parser"], words)


def _parse_corpus(parser, sentences, workers):
    """[(bracketed-or-None, probability, derivations, seconds)] in order.

    The parser is built before any worker starts, so that a bad setting
    fails the command once; a pool is sent the parser, not the model, and
    holds no more workers than there are sentences.
    """
    workers = min(workers, len(sentences))
    if workers > 1:
        # imported here: no other command, nor a one-worker parse, pays
        # for the import
        import multiprocessing
        with multiprocessing.Pool(workers, initializer=_worker_init,
                                  initargs=(parser,)) as pool:
            return pool.map(_worker_parse, sentences)
    return [_parse_one(parser, words) for words in sentences]


def _parse_settings(options):
    """(n_best, prune_ratio, workers), checked before any file is read, so
    that a bad setting fails the command whatever the input."""
    n_best = options.setting("n_best", int)
    if n_best < 1:
        raise ValueError("n_best must be >= 1")
    prune_ratio = options.setting("prune_ratio", float)
    if not 0.0 < prune_ratio <= 1.0:
        raise ValueError("prune_ratio must be in (0, 1]")
    workers = options.setting("workers", int)
    if workers < 1:
        raise ValueError("workers must be >= 1")
    return n_best, prune_ratio, workers


def _sentence_parser(path, sentences, n_best, prune_ratio):
    """The parser of the model file at path for these sentences: only the
    entry rows whose frontier words all occur in them become rules, and
    each sentence's n-best search stops once its parse is decided."""
    with open(path, encoding="utf8") as handle:
        return SentenceParser(handle, n_best=n_best, prune_ratio=prune_ratio,
                              words={word for words in sentences
                                     for word in words},
                              stop_early=True)


def cmd_parse(args) -> int:
    options = _Options(args)
    n_best, prune_ratio, workers = _parse_settings(options)
    sentences = _read_sentences(args.input)
    parser = _sentence_parser(args.model, sentences, n_best, prune_ratio)
    rows = _parse_corpus(parser, sentences, workers)
    out = _open_out(args.output)
    try:
        for bracketed, _, _, _ in rows:
            out.write((bracketed or NO_PARSE_LINE) + "\n")
    finally:
        if out is not sys.stdout:
            out.close()
    if args.stats:
        with open(args.stats, "w", encoding="utf8") as handle:
            for index, (bracketed, prob, nderiv, seconds) in enumerate(rows):
                handle.write("%d\t%.6g\t%d\t%.3f\n"
                             % (index, prob, nderiv, seconds))
    return 0


def cmd_experiment(args) -> int:
    options = _Options(args)
    field = _SWEEP_FIELDS[args.sweep]
    base = options.restriction()
    grid = []
    for raw in map(str.strip, args.values.split(",")):
        bound = options.setting(field, "bound", raw)
        grid.append((raw, dataclasses.replace(base, **{field: bound})))
    # a bad option fails the command here, not every grid point
    _training_settings(options)
    n_best, prune_ratio, workers = _parse_settings(options)

    os.makedirs(args.out, exist_ok=True)
    treebank = _read_normalized_treebank(args.train)
    gold = _read_normalized_treebank(args.test)
    sentences = [tree.leaves() for tree in gold.trees]

    cache = {}
    table = ["bound\tLP\tLR\tseconds"]
    for bound, restriction in grid:
        started = time.perf_counter()
        try:
            model, _ = _train_model(treebank, restriction, options,
                                    cache=cache)
            print("grid %s: %d fragment types kept" % (bound, len(model.entries)),
                  file=sys.stderr)
            path = os.path.join(args.out, "model_%s.dopmodel" % bound)
            write_model(model, path)
            del model              # parsed from the file, as `dop parse` does
            parser = _sentence_parser(path, sentences, n_best, prune_ratio)
            rows = _parse_corpus(parser, sentences, workers)
            del parser
            parse_path = os.path.join(args.out, "parse_%s.txt" % bound)
            with open(parse_path, "w", encoding="utf8") as handle:
                for bracketed, _, _, _ in rows:
                    handle.write((bracketed or NO_PARSE_LINE) + "\n")
            pairs = []
            for (bracketed, _, _, _), tree in zip(rows, gold.trees):
                proposed = read_trees(bracketed)[0] if bracketed else None
                pairs.append((proposed, tree))
            report = score_corpus(pairs)
            seconds = time.perf_counter() - started
            table.append("%s\t%.2f\t%.2f\t%.3f"
                         % (bound, 100.0 * report.precision(40),
                            100.0 * report.recall(40), seconds))
        except _DATA_ERRORS as err:                   # keep sweeping
            print("grid point %s failed: %s" % (bound, err), file=sys.stderr)
            table.append("%s\tFAILED\tFAILED\t-" % bound)
    text = "\n".join(table) + "\n"
    with open(os.path.join(args.out, "table.tsv"), "w",
              encoding="utf8") as handle:
        handle.write(text)
    sys.stdout.write(text)
    return 0


def cmd_score(args) -> int:
    with open(args.proposed, encoding="utf8") as handle:
        proposed_lines = handle.read().splitlines()
    with open(args.gold, encoding="utf8") as handle:
        gold_lines = handle.read().splitlines()
    if len(proposed_lines) != len(gold_lines):
        shorter = min(len(proposed_lines), len(gold_lines))
        raise GrammarError(
            "proposed and gold files differ in length; first unmatched "
            "line is %d" % (shorter + 1))
    pairs = []
    for lineno, (prop, gold) in enumerate(zip(proposed_lines, gold_lines),
                                          start=1):
        gold_tree = read_trees(gold)
        if len(gold_tree) != 1:
            raise GrammarError("gold line %d does not hold exactly one tree"
                               % lineno)
        if prop.strip() in ("", NO_PARSE_LINE):
            pairs.append((None, gold_tree[0]))
        else:
            prop_tree = read_trees(prop)
            if len(prop_tree) != 1:
                raise GrammarError(
                    "proposed line %d does not hold exactly one tree" % lineno)
            pairs.append((prop_tree[0], gold_tree[0]))
    report = score_corpus(pairs, exclude_root=args.exclude_root)
    for index, message in report.errors:
        print("line %d skipped: %s" % (index + 1, message), file=sys.stderr)
    print(format_report(report))
    if args.tsv:
        with open(args.tsv, "w", encoding="utf8") as handle:
            handle.write("\n".join(report_rows(report)) + "\n")
    return 0


def cmd_oracle(args) -> int:
    from .oracle import enumerate_derivations, report_lines
    options = _Options(args)
    model = load_model(args.model)
    if args.sentence is not None:
        sentences = [args.sentence.split()]
    else:
        sentences = _read_sentences(args.input)
    cap = options.setting("cap", int)
    for index, words in enumerate(sentences):
        report = enumerate_derivations(model, words, cap=cap)
        print("# sentence %d: %s (%d derivations)"
              % (index, " ".join(words), len(report.derivations)))
        for line in report_lines(report):
            print(line)
    return 0


_COMMANDS = {
    "train": cmd_train,
    "parse": cmd_parse,
    "experiment": cmd_experiment,
    "score": cmd_score,
    "oracle": cmd_oracle,
}

# every error class of the package is a ValueError
_DATA_ERRORS = (OSError, ValueError)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:
        return exit_.code or 0
    try:
        with collector_paused():
            return _COMMANDS[args.command](args)
    except _DATA_ERRORS as err:
        print("dop %s: %s" % (args.command, err), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
