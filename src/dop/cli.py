"""Command-line driver: train models, parse, score, run restriction sweeps.

Commands: train, parse, experiment, score, oracle. Exit codes: 0 success,
1 usage error, 2 data error. All options can also come from a --config
file of key=value lines; explicit command-line values win.
"""

import argparse
import gc
import hashlib
import multiprocessing
import os
import sys
import time
from collections import Counter
from dataclasses import dataclass

from .fragments import (FragmentOverflowError, RestrictionSet, SamplingError,
                        depth1_fragment, extract_treebank, sample_fragments)
from .heads import HeadRuleTable, default_head_rules
from .model import (GrammarError, build_model, good_turing_adjust,
                    train_unknown_model)
from .modelio import (ModelFormatError, collector_paused, load_model,
                      write_model)
from .oracle import OracleOverflowError, enumerate_derivations, report_lines
from .parser import CyclicGrammarError, SentenceParser
from .parseval import format_report, report_rows, score_corpus
from .tree import (TreeReadError, read_treebank, read_trees,
                   normalize_treebank, write_tree)

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

_SWEEP_FIELDS = {
    "depth": "max_depth",
    "frontier-words": "max_frontier_words",
    "unlex-depth": "max_unlex_depth",
    "nonheadwords": "max_nonheadwords",
}


@dataclass
class ExperimentConfig:
    train_path: str
    test_path: str
    grid: list                # (bound string, RestrictionSet) per grid point
    n_best: int
    prune_ratio: float
    workers: int
    out_dir: str

    def __post_init__(self):
        if not self.grid:
            raise ValueError("experiment grid is empty")
        if self.n_best < 1:
            raise ValueError("n_best must be >= 1")


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("%s: error: %s\n" % (self.prog, message))
        raise SystemExit(1)


def _bound(text):
    if text in ("none", "unbounded", "-"):
        return None
    return int(text)


def _read_config(path):
    values = {}
    with open(path, encoding="utf8") as handle:
        for line in handle:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            values[key.strip().replace("-", "_")] = value.strip()
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

    def bound(self, name):
        return _bound(self._raw(name))

    def integer(self, name):
        return int(self._raw(name))

    def floating(self, name):
        return float(self._raw(name))

    def smoothing(self):
        value = self._raw("smoothing")
        if value not in ("on", "off"):
            raise ValueError("--smoothing must be on or off")
        return value == "on"

    def restriction(self):
        return RestrictionSet(
            max_depth=self.bound("max_depth"),
            max_frontier_words=self.bound("max_frontier_words"),
            max_unlex_depth=self.bound("max_unlex_depth"),
            max_nonheadwords=self.bound("max_nonheadwords"),
            sample_per_depth=self.bound("sample_per_depth"))


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
    p_parse.add_argument("--stats", help="TSV: index, probability, derivations, seconds")
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


def collect_fragments(treebank, restriction, seed, cache=None, digest=""):
    """Fragment multiset per the training recipe, plus per-depth tallies.

    Depth-1 rewrites are always exhaustive. With a sample_per_depth bound,
    each deeper level up to max_depth (clipped to the deepest tree) gets
    its own random sample; without one, extraction is exhaustive at every
    depth. The cache, when given, is keyed by treebank digest, depth, seed
    and sample size so sweeps reuse extractions across grid points.
    """
    if cache is None:
        cache = {}
    per_depth = restriction.sample_per_depth
    fragments = Counter()
    depth_counts = Counter()
    if per_depth is None:
        key = (digest, "exhaustive")
        if key not in cache:
            cache[key] = extract_treebank(treebank)
        fragments.update(cache[key])
        for fragment, count in fragments.items():
            depth_counts[fragment.depth] += count
        return fragments, dict(depth_counts)

    key = (digest, 1)
    if key not in cache:
        depth1 = Counter()
        for tree in treebank.trees:
            for node in tree.subtrees():
                depth1[depth1_fragment(node)] += 1
        cache[key] = depth1
    fragments.update(cache[key])
    depth_counts[1] = sum(cache[key].values())

    corpus_max = max(tree.depth() for tree in treebank.trees)
    top = corpus_max if restriction.max_depth is None else min(
        restriction.max_depth, corpus_max)
    for depth in range(2, top + 1):
        key = (digest, depth, seed, per_depth)
        if key not in cache:
            cache[key] = sample_fragments(treebank, depth, per_depth,
                                          seed + depth)
        fragments.update(cache[key])
        depth_counts[depth] = sum(cache[key].values())
    return fragments, dict(depth_counts)


def _train_model(treebank, restriction, options, cache=None, digest=""):
    rules = _load_head_rules(options)
    seed = options.integer("seed")
    fragments, depth_counts = collect_fragments(
        treebank, restriction, seed, cache=cache, digest=digest)
    start_labels = frozenset(tree.label for tree in treebank.trees)
    model = build_model(fragments, restriction, rules, start_labels=start_labels)
    if options.smoothing():
        model = good_turing_adjust(model)
    try:
        model.unknown_words = train_unknown_model(
            treebank, options.integer("unknown_threshold"))
    except GrammarError as err:
        print("unknown-word model skipped: %s" % err, file=sys.stderr)
    return model, depth_counts


def cmd_train(args) -> int:
    options = _Options(args)
    treebank = _read_normalized_treebank(args.train)
    model, depth_counts = _train_model(treebank, options.restriction(), options)
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


def _worker_init(model, n_best, prune_ratio):
    # The parser's indexes form no cycles: the collector stays off while
    # they are built, as in load_model. The model and the indexes outlive
    # every sentence. Frozen, they are left out of the cycle collector's
    # collections, which would otherwise re-scan them every few sentences
    # (a pause that grows with the model and lands on whichever sentence
    # is parsing).
    with collector_paused():
        _WORKER_STATE["parser"] = SentenceParser(model, n_best=n_best,
                                                 prune_ratio=prune_ratio)
        gc.freeze()


def _worker_parse(job):
    index, words = job
    parser = _WORKER_STATE["parser"]
    started = time.perf_counter()
    if words:
        result = parser.parse(words)
    else:
        result = None
    seconds = time.perf_counter() - started
    if result is None:
        return index, None, 0.0, 0, seconds
    return (index, write_tree(result.tree), result.probability,
            result.derivations_examined, seconds)


def _parse_corpus(model, sentences, n_best, prune_ratio, workers):
    """[(bracketed-or-None, probability, derivations, seconds)] in order."""
    jobs = list(enumerate(sentences))
    if workers > 1 and len(jobs) > 1:
        with multiprocessing.Pool(workers, initializer=_worker_init,
                                  initargs=(model, n_best, prune_ratio)) as pool:
            rows = pool.map(_worker_parse, jobs)
    else:
        _worker_init(model, n_best, prune_ratio)
        try:
            rows = [_worker_parse(job) for job in jobs]
        finally:
            # in-process callers get the collector back, and the model can
            # go as soon as they drop it
            gc.unfreeze()
            del _WORKER_STATE["parser"]
    rows.sort(key=lambda r: r[0])
    return [row[1:] for row in rows]


def cmd_parse(args) -> int:
    options = _Options(args)
    # Frozen before the collector comes back, the model is never scanned:
    # the first young collection after the load would scan all of it once.
    with collector_paused():
        model = load_model(args.model)
        gc.freeze()
    try:
        sentences = _read_sentences(args.input)
        rows = _parse_corpus(model, sentences, options.integer("n_best"),
                             options.floating("prune_ratio"),
                             options.integer("workers"))
    finally:
        gc.unfreeze()
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
    for raw in args.values.split(","):
        raw = raw.strip()
        bound = _bound(raw)
        restriction = RestrictionSet(**{
            name: bound if name == field else getattr(base, name)
            for name in ("max_depth", "max_frontier_words", "max_unlex_depth",
                         "max_nonheadwords", "sample_per_depth")})
        grid.append((raw, restriction))
    # a bad training option fails the command here, not every grid point
    options.smoothing()
    options.integer("seed")
    options.integer("unknown_threshold")
    config = ExperimentConfig(
        train_path=args.train, test_path=args.test, grid=grid,
        n_best=options.integer("n_best"),
        prune_ratio=options.floating("prune_ratio"),
        workers=options.integer("workers"), out_dir=args.out)
    return run_experiment(config, options)


def run_experiment(config: ExperimentConfig, options) -> int:
    os.makedirs(config.out_dir, exist_ok=True)
    treebank = _read_normalized_treebank(config.train_path)
    gold = _read_normalized_treebank(config.test_path)
    sentences = [tree.leaves() for tree in gold.trees]
    with open(config.train_path, "rb") as handle:
        digest = hashlib.sha256(handle.read()).hexdigest()

    cache = {}
    table = ["bound\tLP\tLR\tseconds"]
    for bound, restriction in config.grid:
        started = time.perf_counter()
        try:
            model, _ = _train_model(treebank, restriction, options,
                                    cache=cache, digest=digest)
            print("grid %s: %d fragment types kept" % (bound, len(model.entries)),
                  file=sys.stderr)
            write_model(model, os.path.join(config.out_dir,
                                            "model_%s.dopmodel" % bound))
            rows = _parse_corpus(model, sentences, config.n_best,
                                 config.prune_ratio, config.workers)
            parse_path = os.path.join(config.out_dir, "parse_%s.txt" % bound)
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
    with open(os.path.join(config.out_dir, "table.tsv"), "w",
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
    options = _Options(args)
    model = load_model(args.model)
    if args.sentence is not None:
        sentences = [args.sentence.split()]
    else:
        sentences = _read_sentences(args.input)
    cap = options.integer("cap")
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

_DATA_ERRORS = (TreeReadError, GrammarError, SamplingError,
                FragmentOverflowError, ModelFormatError, OracleOverflowError,
                CyclicGrammarError, OSError, ValueError)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:
        return exit_.code or 0
    try:
        return _COMMANDS[args.command](args)
    except _DATA_ERRORS as err:
        print("dop %s: %s" % (args.command, err), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
