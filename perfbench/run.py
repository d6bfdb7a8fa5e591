#!/usr/bin/env python3
"""Benchmark for dop: training, short-sentence parsing, long-sentence parsing.

Run from the repository root:

    python3 perfbench/run.py --workload parse_short --seed 1 --seconds 55 \
        --trace 0

Workloads (closed loop: one caller, each command waits for the last):

- ``parse_short``: 200 held-out sentences of 5 to 15 words;
- ``parse_long``: 80 held-out sentences of 20 to 40 words.

Set-up generates the corpus: 2000 training trees and the held-out set.
The timed loop repeats one round of ``dop train``, ``dop parse`` and ``dop
score`` while the next round is expected to end within ``--seconds``. Set-up is repeated between rounds (at least three times in
all), each repeat must write the same bytes, and ``setup_s`` is the median.
Every other timing is a mean over all rounds of the run.

Times are nominal: CPU time times the speed factor that ``meter.py``
measured on the same CPU during the command, so that the drift of a shared
host's CPU speed between runs cancels. The plain wall-time figures are
printed as ``#`` lines.

With ``--trace 1`` the run instead makes one untraced pass of ``dop
train``, ``dop parse`` and ``dop score`` as child processes, then one pass
of the same commands through ``dop.cli.main`` in this process with a span
around every call into a layer's public function, and prints per-layer
metrics. The spans go to ``.perfbench_work/spans-<workload>-seed<N>.jsonl``.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``. A failed output check prints
``"correct": false`` and exits 1; a checkout without ``src/dop`` exits 2
without a result.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
sys.path.insert(0, HERE)

import corpus                                   # noqa: E402
import meter                                    # noqa: E402
from tracer import END, START, Tracer           # noqa: E402

TRAIN_TREES = 2000
MAX_DEPTH = 6
# sample_fragments gives up after 100000 restarts per depth; at depth 6
# about 8% of nodes qualify, so 2500 draws expect about 29000 restarts
SAMPLE_PER_DEPTH = 2500
RESTART_BUDGET = 100000
SETUP_REPEATS = 3

# held-out sentences per workload: (count, min words, max words)
HELD_OUT = {
    "parse_short": (200, 5, 15),
    "parse_long": (80, 20, 40),
}

END_TO_END = [
    ("setup_s", "s"), ("train_s", "s"), ("train_rss_mb", "MB"),
    ("peak_rss_mb", "MB"),
    ("sents_per_s", "1/s"), ("load_s", "s"), ("sent_ms_p50", "ms"),
    ("sent_ms_tail", "ms"), ("lp_le40", "%"), ("lr_le40", "%"),
    ("coverage", "%"),
]

_SAMPLED_DEPTHS = range(2, MAX_DEPTH + 1)
PER_LAYER = [
    ("tree.read_s", "s"), ("tree.normalize_s", "s"), ("tree.write_s", "s"),
    ("fragments.depth1_s", "s"), ("fragments.tokens", "count"),
    ("fragments.types", "count"), ("fragments.sample_s", "s"),
] + [("fragments.sample_us_per_draw.d%d" % d, "us")
     for d in _SAMPLED_DEPTHS] + [
    ("model.build_s", "s"), ("model.entries", "count"),
    ("model.dropped_types", "count"), ("model.unknown_s", "s"),
    ("modelio.write_s", "s"), ("modelio.model_bytes", "bytes"),
    ("modelio.load_s", "s"), ("parser.init_s", "s"), ("parser.oov_s", "s"),
    ("parser.oov_words", "count"), ("parser.chart_s", "s"),
    ("parser.chart_items", "count"), ("parser.chart_edges", "count"),
    ("parser.start_lost", "count"), ("parser.nbest_s", "s"),
    ("parser.derivations", "count"), ("parser.mpp_s", "s"),
    ("parser.trees", "count"), ("parser.derivations_per_tree", "ratio"),
    ("parser.mpp_mass_share", "ratio"), ("parseval.score_s", "s"),
    ("cli.self_s", "s"), ("tree.self_s", "s"), ("fragments.self_s", "s"),
    ("model.self_s", "s"), ("modelio.self_s", "s"), ("parser.self_s", "s"),
    ("parseval.self_s", "s"), ("trace.self_s", "s"),
    ("trace.overhead_frac", "ratio"), ("trace.spans", "count"),
]

NO_PARSE = "NOPARSE"
_TOKEN = re.compile(r"\(|\)|[^\s()]+")


class CommandFailed(Exception):
    """A dop command exited nonzero or printed a traceback."""


def sha256(path):
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def read_text(path):
    with open(path, encoding="utf8") as handle:
        return handle.read()


def tree_yield(line):
    """Words of one bracketed tree, or None when the line is not one tree.

    A word is a token that follows a label or a word; labels follow '('.
    """
    tokens = _TOKEN.findall(line)
    if len(tokens) < 4 or tokens[0] != "(" or tokens[-1] != ")":
        return None
    depth = 0
    words = []
    for i, token in enumerate(tokens):
        if token == "(":
            depth += 1
        elif token == ")":
            depth -= 1
            if depth == 0 and i != len(tokens) - 1:
                return None
        elif tokens[i - 1] != "(":
            words.append(token)
    return words if depth == 0 else None


def nearest_rank(values, percent):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(percent / 100.0 * len(ordered)) - 1)]


def tail_percentile(values):
    """(percentile, value): the highest percentile with at least ten
    samples beyond it; the median when there are fewer than twenty."""
    for percent in (99.9, 99, 95, 90, 75):
        if len(values) * (100 - percent) / 100.0 >= 10:
            return percent, nearest_rank(values, percent)
    return 50, statistics.median(values)


def git_revision():
    """HEAD of the checkout read from .git, or 'none' outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        head = read_text(os.path.join(git, "HEAD")).strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.exists(os.path.join(git, ref)):
            return read_text(os.path.join(git, ref)).strip()
        for line in read_text(os.path.join(git, "packed-refs")).splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def source_digest():
    digest = hashlib.sha256()
    package = os.path.join(SRC, "dop")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    return digest.hexdigest()[:16]


class Bench:
    def __init__(self, workload, seed, seconds, scale, work):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.train_trees = max(50, round(TRAIN_TREES * scale))
        self.sample = max(50, round(SAMPLE_PER_DEPTH * scale))
        count, self.min_words, self.max_words = HELD_OUT[workload]
        self.held_out = max(4, round(count * scale))
        self.attempted = 0
        self.failed = 0
        self.setup_times = []
        self.meter = None
        self.problems = []

    def check(self, ok, message):
        if not ok:
            self.problems.append(message)

    # -- child processes ---------------------------------------------------

    def dop(self, args, cwd, name, sentences=0):
        """Run `dop args` as a child process in `cwd`.

        Returns (wall seconds, CPU seconds, peak RSS in MB, speed factor of
        the meter over the command, 1.0 without a meter). `sentences` is
        the number of sentences the command parses, counted as failed with
        it.
        """
        # a fixed hash seed makes set and dict order, and with it the work
        # done, the same in every command of a run
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=str(self.seed))
        err_path = os.path.join(cwd, name + ".stderr")
        self.attempted += 1 + sentences
        with open(os.path.join(cwd, name + ".stdout"), "wb") as out, \
                open(err_path, "wb") as err:
            before = self.meter.read() if self.meter else None
            started = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "dop", *args],
                                    cwd=cwd, env=env, stdout=out, stderr=err)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - started
        factor = self.meter.factor(before, self.meter.read()) if before else 1.0
        proc.returncode = os.waitstatus_to_exitcode(status)
        stderr = read_text(err_path)
        if proc.returncode != 0 or "Traceback" in stderr:
            self.failed += 1 + sentences
            raise CommandFailed("dop %s exited %d: %s"
                                % (args[0], proc.returncode, stderr[-2000:]))
        return (wall, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0, factor)

    def train_args(self, model, train="train.mrg"):
        return ["train", "--train", train, "--model", model,
                "--max-depth", str(MAX_DEPTH),
                "--sample-per-depth", str(self.sample),
                "--seed", str(self.seed)]

    @staticmethod
    def parse_args(model, out, stats, sents="sents.txt"):
        return ["parse", "--model", model, "--input", sents,
                "--output", out, "--stats", stats, "--workers", "1"]

    @staticmethod
    def score_args(out, tsv, gold="gold.mrg"):
        return ["score", "--proposed", out, "--gold", gold, "--tsv", tsv]

    # -- set-up ------------------------------------------------------------

    def make_corpus(self, directory):
        os.makedirs(directory)
        return corpus.write_corpus(directory, self.seed, self.train_trees,
                                   self.held_out, self.min_words,
                                   self.max_words)

    def setup(self, index):
        """Generate the corpus into setup<index>; returns (nominal seconds,
        corpus stats, directory, sha256 of every file)."""
        directory = os.path.join(self.work, "setup%d" % index)
        before = self.meter.read()
        started = time.process_time()
        stats = self.make_corpus(directory)
        seconds = ((time.process_time() - started)
                   * self.meter.factor(before, self.meter.read()))
        digests = {n: sha256(os.path.join(directory, n))
                   for n in sorted(os.listdir(directory))}
        return seconds, stats, directory, digests

    def repeat_setup(self, first):
        """Set up again, check that the bytes repeat, record the time."""
        index = len(self.setup_times)
        seconds, _, directory, digests = self.setup(index)
        shutil.rmtree(directory)
        self.check(digests == first, "set-up repeat %d wrote different bytes"
                   % index)
        self.setup_times.append(seconds)

    def check_recipe(self, stats):
        """Expected sampler restarts draws*(1-q)/q stay under half the
        budget at every sampled depth."""
        shares = stats["depth_shares"]
        row = []
        for depth in _SAMPLED_DEPTHS:
            q = shares.get(depth, 0.0)
            restarts = self.sample * (1 - q) / q if q else math.inf
            row.append("d%d q=%.4f restarts=%.0f" % (depth, q, restarts))
            self.check(restarts < RESTART_BUDGET / 2,
                       "depth %d: %d draws expect %.0f sampler restarts"
                       % (depth, self.sample, restarts))
        print("# sampler: %d draws per depth; %s"
              % (self.sample, "; ".join(row)))

    # -- parse passes and their checks -------------------------------------

    def parse_pass(self, directory, model, tag):
        """One `dop parse` and one `dop score`; returns the pass figures."""
        out, stats, tsv = ("parse%s.txt" % tag, "stats%s.tsv" % tag,
                           "score%s.tsv" % tag)
        sentences = read_text(os.path.join(directory,
                                           "sents.txt")).splitlines()
        wall, cpu, rss, factor = self.dop(self.parse_args(model, out, stats),
                                          directory, "parse" + tag,
                                          sentences=len(sentences))
        score_wall = self.dop(self.score_args(out, tsv), directory,
                              "score" + tag)[0]
        figures = self.check_parse(directory, out, stats, tsv, sentences)
        # `scale` takes a wall time inside the command to nominal CPU time
        figures.update(wall=wall, rss=rss, score_wall=score_wall,
                       scale=factor * cpu / wall)
        return figures

    def check_parse(self, directory, out, stats, tsv, sentences):
        lines = read_text(os.path.join(directory, out)).splitlines()
        self.check(len(lines) == len(sentences),
                   "%s: %d lines for %d sentences"
                   % (out, len(lines), len(sentences)))
        no_parse = 0
        for index, (line, sentence) in enumerate(zip(lines, sentences)):
            if line == NO_PARSE:
                no_parse += 1
            elif tree_yield(line) != sentence.split():
                self.check(False, "%s line %d: yield differs from the input"
                           % (out, index + 1))
        seconds = [float(row.split("\t")[3]) for row in
                   read_text(os.path.join(directory, stats)).splitlines()]
        self.check(len(seconds) == len(sentences),
                   "%s: %d rows for %d sentences"
                   % (stats, len(seconds), len(sentences)))

        rows = read_text(os.path.join(directory, tsv)).splitlines()
        per_sentence = rows[1:rows.index(next(r for r in rows
                                              if r.startswith("bin\t")))]
        scored_no_parse = sum(int(r.split("\t")[5]) for r in per_sentence)
        le40 = next(r for r in rows if r.startswith("le40\t")).split("\t")
        self.check(len(per_sentence) == len(sentences)
                   and scored_no_parse == no_parse,
                   "%s: %d scored rows, %d no-parses; parse output has %d"
                   % (tsv, len(per_sentence), scored_no_parse, no_parse))
        return {
            "seconds": seconds,
            "no_parse": no_parse,
            "lp": float(le40[5]),
            "lr": float(le40[6]),
            "digest": (sha256(os.path.join(directory, out)),
                       sha256(os.path.join(directory, tsv))),
        }

    def parse_metrics(self, passes):
        for figures in passes[1:]:
            self.check(figures["digest"] == passes[0]["digest"],
                       "repeated dop parse runs wrote different bytes")
        print("# sha256 parse output   %s" % passes[0]["digest"][0])
        print("# sha256 score tsv      %s" % passes[0]["digest"][1])
        count = len(passes[0]["seconds"])
        # a sentence parsed in several rounds counts its mean latency
        per_sentence = [1000.0 * statistics.fmean(p["seconds"][i] * p["scale"]
                                                  for p in passes)
                        for i in range(count)]
        percent, tail = tail_percentile(per_sentence)
        no_parse = passes[0]["no_parse"]
        print("# parse: %d round(s) of %d sentences; sent_ms_tail is p%g of "
              "%d sentences; no_parse_rate %.4f"
              % (len(passes), count, percent, count, no_parse / count))
        print("# parse wall time: %.4g sentences/s, load %.4g s; sentence "
              "median %.4g ms"
              % (count * len(passes) / sum(p["wall"] for p in passes),
                 statistics.fmean(p["wall"] - sum(p["seconds"])
                                  for p in passes),
                 1000.0 * statistics.median(
                     statistics.fmean(p["seconds"][i] for p in passes)
                     for i in range(count))))
        return {
            "peak_rss_mb": max(p["rss"] for p in passes),
            "sents_per_s": (count * len(passes)
                            / sum(p["wall"] * p["scale"] for p in passes)),
            "load_s": statistics.fmean((p["wall"] - sum(p["seconds"]))
                                       * p["scale"] for p in passes),
            "sent_ms_p50": statistics.median(per_sentence),
            "sent_ms_tail": tail,
            "lp_le40": passes[0]["lp"],
            "lr_le40": passes[0]["lr"],
            "coverage": 100.0 * (count - no_parse) / count,
        }

    # -- the two kinds of run ----------------------------------------------

    def run_untraced(self):
        # dop, this process and the meter share one CPU (see meter.py)
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        self.meter = meter.Meter()
        try:
            return self.measure()
        finally:
            self.meter.stop()

    def measure(self):
        seconds, stats, directory, digests = self.setup(0)
        self.setup_times.append(seconds)
        for name, digest in digests.items():
            print("# sha256 %-16s %s" % (name, digest))
        self.print_corpus(stats)
        self.check_recipe(stats)
        oracle_check(self)

        # one round is dop train, dop parse and dop score; rounds go on
        # while the next one is expected to end within --seconds
        trains, passes = [], []
        started = time.perf_counter()
        while True:
            tag = str(len(passes))
            wall, cpu, rss, factor = self.dop(
                self.train_args("model%s.dopmodel" % tag), directory,
                "train" + tag)
            trains.append((wall, cpu * factor, rss, sha256(
                os.path.join(directory, "model%s.dopmodel" % tag))))
            passes.append(self.parse_pass(directory, "model%s.dopmodel" % tag,
                                          tag))
            elapsed = time.perf_counter() - started
            if elapsed + elapsed / len(passes) > self.seconds:
                break
            # set-up is repeated between rounds, so that its median, too,
            # is taken over the whole run (untimed by the loop)
            paused = time.perf_counter()
            self.repeat_setup(digests)
            started += time.perf_counter() - paused
        while len(self.setup_times) < SETUP_REPEATS:
            self.repeat_setup(digests)
        self.check(all(t[3] == trains[0][3] for t in trains),
                   "repeated dop train runs wrote different models")
        print("# sha256 trained model  %s (%d round(s) in %.1f s)"
              % (trains[0][3], len(trains), elapsed))
        print("# train wall time %.4g s; meter speed factor %.4f over set-up "
              "and commands" % (statistics.fmean(t[0] for t in trains),
                            self.meter.units / self.meter.cpu
                            / meter.NOMINAL_RATE))
        metrics = {
            "setup_s": statistics.median(self.setup_times),
            "train_s": statistics.fmean(t[1] for t in trains),
            "train_rss_mb": max(t[2] for t in trains),
        }
        metrics.update(self.parse_metrics(passes))
        return {name: metrics[name] for name, _ in END_TO_END}, END_TO_END

    def run_traced(self):
        directory = os.path.join(self.work, "traced")
        stats = self.make_corpus(directory)
        self.print_corpus(stats)
        self.check_recipe(stats)
        oracle_check(self)

        untraced = [self.dop(self.train_args("model.dopmodel"), directory,
                             "train")[0]]
        reference = self.parse_pass(directory, "model.dopmodel", "")
        untraced += [reference["wall"], reference["score_wall"]]
        # the in-process commands skip interpreter start-up and imports
        startup = self.dop(["--help"], directory, "startup")[0]

        def path(name):
            return os.path.join(directory, name)

        # this process's working directory is not `directory`
        commands = [
            self.train_args(path("traced.dopmodel"), path("train.mrg")),
            self.parse_args(path("traced.dopmodel"), path("traced.txt"),
                            path("traced.tsv"), path("sents.txt")),
            self.score_args(path("traced.txt"), path("traced_score.tsv"),
                            path("gold.mrg")),
        ]
        tracer, counts = trace_commands(self, commands)

        for traced, untraced_name in (("traced.dopmodel", "model.dopmodel"),
                                      ("traced.txt", "parse.txt"),
                                      ("traced_score.tsv", "score.tsv")):
            digest = sha256(path(traced))
            print("# sha256 %-16s %s (traced and untraced)"
                  % (untraced_name, digest))
            self.check(digest == sha256(path(untraced_name)),
                       "traced %s differs from the dop command's"
                       % untraced_name)

        os.makedirs(WORK, exist_ok=True)
        spans_path = os.path.join(WORK, "spans-%s-seed%d.jsonl"
                                  % (self.workload, self.seed))
        tracer.write(spans_path)
        metrics = layer_metrics(tracer, counts,
                                sum(untraced) - len(untraced) * startup)
        print("# %d spans written to %s" % (len(tracer.spans), spans_path))
        return {name: metrics[name] for name, _ in PER_LAYER}, PER_LAYER

    def print_corpus(self, stats):
        print("# corpus: %d training trees, %.2f words mean, %d word types "
              "seen <= 5 times; %d held-out sentences, %.2f words mean, "
              "OOV token rate %.4f"
              % (stats["train_sentences"], stats["train_mean_words"],
                 stats["train_rare_types"], stats["test_sentences"],
                 stats["test_mean_words"], stats["test_oov_rate"]))


def oracle_check(bench):
    """Parser against the exact oracle on a small exhaustive model.

    With a tiny prune ratio and n_best above the derivation count the
    parser must return exact_mpp's tree (or one with the same exact sum)
    after examining every derivation.
    """
    from dop import (RestrictionSet, SentenceParser, build_model,
                     default_head_rules, enumerate_derivations, exact_mpp,
                     extract_treebank, read_treebank, write_tree)

    rng = random.Random(bench.seed)
    trees = corpus.generate(rng, corpus.Lexicon(), 6, 3, 5)
    bank = read_treebank("\n".join(corpus.bracketed(corpus.clean(t))
                                   for t in trees))
    model = build_model(extract_treebank(bank), RestrictionSet(),
                        default_head_rules(),
                        start_labels={t.label for t in bank.trees})
    derivations = 0
    for tree in bank.trees[:3]:
        words = tree.leaves()
        report = enumerate_derivations(model, words)
        parser = SentenceParser(model, n_best=len(report.derivations) + 1,
                                prune_ratio=1e-300)
        result = parser.parse(words)
        expected = exact_mpp(report)
        sums = report.tree_sums
        bench.check(result is not None
                    and result.derivations_examined == len(report.derivations)
                    and (result.tree == expected
                         or sums.get(write_tree(result.tree))
                         == sums[write_tree(expected)]),
                    "parser disagrees with the oracle on %r" % " ".join(words))
        derivations += len(report.derivations)
    print("# oracle: 3 sentences, %d derivations enumerated" % derivations)


def trace_commands(bench, commands):
    """Run dop.cli.main on each argv in this process under a Tracer."""
    import dop.cli as cli
    import dop.parser as parser

    tracer = Tracer()
    counts = {"shares": [], "draws": {}}

    def add(name, value):
        counts[name] = counts.get(name, 0) + value

    def sampled(record, result, args):
        counts["draws"][args[1]] = (args[2], record[END] - record[START])

    def built(record, model, args):
        add("fragments.tokens", sum(args[0].values()))
        add("fragments.types", len(args[0]))
        add("model.entries", len(model.entries))
        add("model.dropped_types", len(args[0]) - len(model.entries))

    def written(record, result, args):
        add("modelio.model_bytes", os.path.getsize(args[1]))

    def oov(record, rules, args):
        add("parser.oov_words", len(set(args[1]) - args[0].vocabulary))

    def charted(record, chart, args):
        add("parser.chart_items", sum(len(c) for c in chart.cells.values()))
        add("parser.chart_edges", sum(len(item.edges)
                                      for c in chart.cells.values()
                                      for item in c.values()))
        add("parser.start_lost", int(not chart.start_items))

    def extracted(record, derivations, args):
        add("parser.derivations", len(derivations))

    def selected(record, result, args):
        add("parser.trees", len(result.tree_tallies))
        counts["shares"].append(result.probability
                                / sum(t[2] for t in result.tree_tallies))

    wrap = tracer.wrap
    wrap(cli, "read_treebank", "tree")
    wrap(cli, "read_trees", "tree")
    wrap(cli, "normalize_treebank", "tree")
    wrap(cli, "write_tree", "tree")
    wrap(cli, "depth1_fragment", "fragments", hot=True)
    wrap(cli, "sample_fragments", "fragments", after=sampled)
    wrap(cli, "build_model", "model", after=built)
    wrap(cli, "train_unknown_model", "model")
    wrap(cli, "write_model", "modelio", after=written)
    wrap(cli, "load_model", "modelio")
    wrap(cli, "SentenceParser", "parser")
    wrap(parser.SentenceParser, "parse", "parser",
         name="SentenceParser.parse", new_sentence=True)
    wrap(parser.SentenceParser, "oov_rules", "parser", after=oov)
    wrap(parser.ChartParser, "chart", "parser", name="ChartParser.chart",
         after=charted)
    wrap(parser, "nbest_derivations", "parser", after=extracted)
    wrap(parser, "most_probable_parse", "parser", after=selected)
    wrap(cli, "score_corpus", "parseval")
    try:
        for argv in commands:
            bench.attempted += 1
            stderr = io.StringIO()
            record = tracer.open("dop " + argv[0], "cli")
            try:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(stderr):
                    code = cli.main(argv)
            except Exception:          # what a child would die of: report it
                code = None
                stderr.write(traceback.format_exc())
            finally:
                tracer.close(record)
            if code != 0:
                bench.failed += 1
                raise CommandFailed("traced dop %s returned %s: %s"
                                    % (argv[0], code, stderr.getvalue()))
    finally:
        tracer.restore()
    return tracer, counts


def layer_metrics(tracer, counts, untraced_seconds):
    def total(*names):
        return sum(sum(tracer.durations(name)) for name in names)

    metrics = {
        "tree.read_s": total("read_treebank", "read_trees"),
        "tree.normalize_s": total("normalize_treebank"),
        "tree.write_s": total("write_tree"),
        "fragments.depth1_s": tracer.hot_seconds("depth1_fragment"),
        "fragments.sample_s": total("sample_fragments"),
        "model.build_s": total("build_model"),
        "model.unknown_s": total("train_unknown_model"),
        "modelio.write_s": total("write_model"),
        "modelio.load_s": total("load_model"),
        "parser.init_s": total("SentenceParser"),
        "parser.oov_s": total("oov_rules"),
        "parser.chart_s": total("ChartParser.chart"),
        "parser.nbest_s": total("nbest_derivations"),
        "parser.mpp_s": total("most_probable_parse"),
        "parseval.score_s": total("score_corpus"),
        "trace.spans": len(tracer.spans),
    }
    for depth in _SAMPLED_DEPTHS:
        # a depth the corpus does not reach is never sampled; the recipe
        # check has then failed the run
        draws, seconds = counts["draws"].get(depth, (1, 0.0))
        metrics["fragments.sample_us_per_draw.d%d" % depth] = (
            1e6 * seconds / draws)
    for name, unit in PER_LAYER:
        if unit in ("count", "bytes") and name not in metrics:
            metrics[name] = counts.get(name, 0)
    metrics["parser.derivations_per_tree"] = (
        metrics["parser.derivations"] / max(1, metrics["parser.trees"]))
    shares = counts["shares"]
    metrics["parser.mpp_mass_share"] = (statistics.fmean(shares) if shares
                                        else 0.0)
    for layer, seconds in tracer.self_times().items():
        metrics[layer + ".self_s"] = seconds
    traced_seconds = total("dop train", "dop parse", "dop score")
    metrics["trace.overhead_frac"] = traced_seconds / untraced_seconds - 1
    return metrics


def print_metrics(metrics, units):
    for name, unit in units:
        print("  %-36s %14.6g %s" % (name, metrics[name], unit))


def main(argv=None):
    options = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    options.add_argument("--workload", required=True, choices=sorted(HELD_OUT))
    options.add_argument("--seed", type=int, required=True)
    options.add_argument("--seconds", type=float, required=True)
    options.add_argument("--trace", type=int, choices=(0, 1), default=0)
    options.add_argument("--scale", type=float, default=1.0,
                         help="multiply corpus and sample sizes (smoke tests)")
    args = options.parse_args(argv)
    # on SIGTERM, unwind so that a running dop child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))

    if not os.path.isfile(os.path.join(SRC, "dop", "cli.py")):
        print("perfbench: no dop sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import dop
    package = os.path.dirname(os.path.abspath(dop.__file__))
    if package != os.path.join(SRC, "dop"):
        print("perfbench: imported dop from %s, not %s" % (dop.__file__, SRC),
              file=sys.stderr)
        return 2

    print("# workload %s  seed %d  seconds %g  trace %d  scale %g"
          % (args.workload, args.seed, args.seconds, args.trace, args.scale))
    print("# python %s  git %s  src %s  nproc %d"
          % (platform.python_version(), git_revision(), source_digest(),
             os.cpu_count() or 0))

    work = os.path.join(WORK, "run-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    bench = Bench(args.workload, args.seed, args.seconds, args.scale, work)
    try:
        if args.trace:
            metrics, units = bench.run_traced()
        else:
            metrics, units = bench.run_untraced()
    except CommandFailed as err:
        bench.problems.append(str(err))
        metrics, units = {}, []
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in bench.problems:
        print("# CHECK FAILED: %s" % problem)
    print_metrics(metrics, units)
    print("# failed_frac %.4f (%d of %d commands and sentences)"
          % (bench.failed / max(1, bench.attempted), bench.failed,
             bench.attempted))
    correct = not bench.problems
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, bench.attempted),
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
