"""Chart parsing with fragment-indexed rules.

Each entry row of a model file becomes a rule: lhs = the key's root, rhs
= its frontier (words and substitution sites) left to right, key = the
row's canonical key text, index = the row's position. No Fragment is built
from the file to a parse: a derivation makes one per key only when its
fragments are read. A parser is built from the rows alone, and keeps no
model. A parser built for a set of words makes no rule of a row whose
frontier holds a word outside it: such a rule could complete in no
sentence of those words, so the parses are the same, from fewer rules.
Rule right-hand sides are matched through a shared prefix trie,
which left-factors long rules into binary steps; the dotted prefix items
this creates are internal to the parser. The trie's nodes are numbered in
the order they are made, and a list indexed by node holds the rules that
end at each. The inside pass is a bottom-up CKY with per-span pruning on
prior-weighted scores; derivations come out of the pruned forest through
lazy n-best extraction as bracketed strings, and the most probable parse
sums derivation probabilities per string. A parse is that string; a Tree
is read from it only when asked for.

The n-best search keeps its state on the chart items: each item lists its
first candidates and heapifies them once, and a popped candidate's
successors are pushed inline, from the tails' derivation lists, with a
call only where a tail must find a new derivation. Bracketed strings are
formatted through a memo held by the chart, once per (rule form, site
strings) combination, so derivations of one tree share one string.

An item's first visit also sums the probabilities of all its
derivations, relative to its best (its inside sum), from its tails' sums,
on the edges it walks anyway; the start items' sums give the forest's
total. The search can stop as soon as no tree can overtake the leader
among the n best derivations, judged both by what the derivations still to
come among the n can add and by the forest's mass not yet examined (see
nbest_derivations): `dop parse` and `dop experiment` stop there, and
SentenceParser.parse by default does not.
"""

import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from graphlib import CycleError, TopologicalSorter
from heapq import heapify, heappop, heappush, heapreplace
from itertools import chain
from math import exp

from .fragments import _SITE, Fragment
from .model import FragmentModel
from .modelio import _model_lines, _probability, read_model
from .tree import Site, Tree, read_trees


class CyclicGrammarError(ValueError):
    """Unary fragment cycles make the derivation set infinite."""


class IndexedRule:
    """A model fragment as a rule, held as its canonical key text: lhs is
    its root, rhs its frontier (Site markers and words), logprob its log
    probability and index its position in the rule list.

    form and scaled are computed on first access and then kept in their
    slots, so later reads cost what a plain attribute read does.
    """

    __slots__ = ("lhs", "rhs", "key", "logprob", "index", "form", "scaled")

    def __init__(self, lhs, rhs, key, logprob, index):
        self.lhs = lhs
        self.rhs = rhs
        self.key = key
        self.logprob = logprob
        self.index = index

    def __getattr__(self, name):
        # reached only while the slot is empty
        if name == "form":
            # the key as a format string, "%s" at each substitution site
            # and each "%" doubled: formatted with the bracketed subtrees
            # of the sites, left to right, it gives the bracketed form of
            # the substituted tree
            value = "%s".join(piece.replace("%", "%%")
                              for piece in _SITE.split(self.key))
        elif name == "scaled":
            value = _scaled(self.logprob)    # logprob as an exact int
        else:
            raise AttributeError(name)
        setattr(self, name, value)
        return value

    def __reduce__(self):
        return (IndexedRule, (self.lhs, self.rhs, self.key, self.logprob,
                              self.index))

    def __repr__(self):
        return "IndexedRule(%s, %r, %d)" % (self.key, self.logprob, self.index)


# every finite float is an integer multiple of 2**-1074
_SCALE = 1 << 1074


def _scaled(x: float) -> int:
    """x times 2**1074 as an int, with no rounding.

    Summing scaled values is exact, and _unscaled rounds the sum once, so
    the result equals math.fsum of the floats (for a zero sum, +0.0).
    """
    numerator, denominator = x.as_integer_ratio()    # a power of two
    return numerator << (1075 - denominator.bit_length())


def _unscaled(total: int) -> float:
    # int true division is correctly rounded
    return total / _SCALE


def _log(probability: Fraction) -> float:
    return math.log(probability.numerator) - math.log(probability.denominator)


class ChartItem:
    """A (symbol, span) vertex of the parse forest.

    inside is the best (Viterbi) log inside probability; edges are
    (rule-or-None, tails, log weight) triples. Every edge is appended
    once: each binary step pairs two items once, and each item is taken
    once by its cell's completion queue, which makes the edges it is the
    tail of.

    The rest is n-best state, filled lazily during extraction: derivs
    lists the derivations found so far, best first, each as the heap
    entry it was popped as: (-logprob, edge index, j) on a complete item,
    (-logprob, edge index, a, b) on a prefix item (see _get_kth), and the
    one entry (-0.0,) on a word item. cand is the heap of candidate
    entries, and None once the item has no more derivations (and before
    the first request, while derivs is None); the successors of the last
    entry of derivs enter cand on the next request; reals maps k to the
    realization of derivs[k] (see _realize). mass, set on the first
    request, is the item's inside sum: the summed probability of all its
    derivations over that of its best, as the search scores them. The
    first request visits the tails first, so their sums are there to
    combine. The best score is inside, unless inside is stale (ROADMAP
    item 4) and an edge scores higher.
    """

    __slots__ = ("sym", "span", "inside", "edges", "derivs", "cand", "reals",
                 "mass")

    def __init__(self, sym, span):
        self.sym = sym
        self.span = span
        self.inside = -math.inf
        self.edges = []
        self.derivs = None
        self.cand = None
        self.reals = None

    @property
    def label(self):
        return self.sym[1]

    def __repr__(self):
        return "ChartItem(%r, %r, %.4f)" % (self.sym, self.span, self.inside)


class Chart:
    """Pruned parse forest for one sentence.

    strings is the memo of _realize: it maps each (rule form, site strings
    right to left) to the bracketed string they format to, and each such
    string to itself, so the derivations of one tree share one string.
    """

    def __init__(self, sentence, cells, start_items, unary_cycle=None):
        self.sentence = sentence
        self.cells = cells
        self.start_items = start_items
        self.unary_cycle = unary_cycle
        self.strings = {}

    def item(self, label, start, end):
        return self.cells.get((start, end), {}).get(("n", label))


class ChartParser:
    """Reusable parser over a fixed rule set.

    A parse is an item over the whole sentence labeled with one of
    start_labels. prune_ratio follows the per-span threshold convention: after a span's
    items are complete, any real (non-dotted) item whose prior-weighted
    score is below prune_ratio times the span's best is dropped.
    Rules are matched through a prefix trie over their right-hand sides,
    built here: first_step maps a symbol to the node that reads it first,
    steps_on maps a symbol to the {node: next node} steps that read it
    later, and completions[node] is the tuple of rules that end at node,
    in rule order; unary_cycle is a label on a cycle of unary rules, or
    None.
    rules may be an iterator: it is listed only once the settings pass.
    A cell is filled in three phases: binary steps make its prefix items,
    one completion queue makes its complete items, and pruning drops the
    weak ones; a cell the binary steps leave empty stays empty, and skips
    the other two. Every edge is appended once, so none is deduplicated.
    The binary steps of a span (start, end) read the finished spans
    through two indexes: per start, the spans from it that hold heads, by
    end, and per end, the spans to it that hold tails, by start. So only
    the mid points after which some item can start a step are visited.
    """

    def __init__(self, rules, start_labels, priors=None, prune_ratio=1e-5):
        if not 0.0 < prune_ratio <= 1.0:
            raise ValueError("prune_ratio must be in (0, 1]")
        self.rules = list(rules)
        self.prune_ratio = prune_ratio
        priors = priors or {}
        self._log_priors = {label: _log(p) for label, p in priors.items()
                            if p > 0}
        self._default_log_prior = (min(self._log_priors.values())
                                   if self._log_priors else 0.0)
        self.start_labels = tuple(sorted(start_labels))

        # the prefix trie over rule right-hand sides, in one pass over the
        # rules; a symbol is ("n", label) for a site, ("w", word) for a word
        first_step = self.first_step = {}     # symbol -> trie node
        # symbol -> {trie node: next trie node}: the steps that read the
        # symbol after the first rhs position
        steps_on = self.steps_on = {}
        # trie node -> the rules whose rhs ends there, in rule order, as a
        # tuple of exactly that size (most hold one rule), or (); nodes are
        # numbered in the order they are made, so they index a list
        completions = self.completions = []
        unary_edges = defaultdict(set)
        for rule in self.rules:
            rhs = rule.rhs
            node = None
            for element in rhs:
                if element.__class__ is str:
                    sym = ("w", element)
                else:
                    sym = ("n", element.label)
                if node is None:
                    steps = first_step
                    key = sym
                else:
                    steps = steps_on.get(sym)
                    if steps is None:
                        steps = steps_on[sym] = {}
                    key = node
                node = steps.get(key)
                if node is None:
                    node = steps[key] = len(completions)
                    completions.append(())
            completions[node] += (rule,)
            if len(rhs) == 1 and sym[0] == "n":
                unary_edges[rule.lhs].add(sym[1])
        self.unary_cycle = None
        try:
            TopologicalSorter(unary_edges).prepare()
        except CycleError as err:
            # err.args[1] lists the labels around one cycle
            self.unary_cycle = err.args[1][0]

    def _log_prior(self, label):
        return self._log_priors.get(label, self._default_log_prior)

    def chart(self, sentence, extra_rules=()) -> Chart:
        sentence = tuple(sentence)
        extra = defaultdict(list)      # word -> the extra rules that read it
        for rule in extra_rules:
            if len(rule.rhs) != 1 or isinstance(rule.rhs[0], Site):
                raise ValueError("extra rules must be lexical depth-1 rules")
            extra[rule.rhs[0]].append(rule)

        n = len(sentence)
        cells = {}
        # the partners of the finished spans (see _partners): per start,
        # (end, heads) for each span from it that holds heads, in the order
        # the spans finish, so by end; per end, {start: tails} for each
        # span to it that holds tails
        heads_from = [[] for _ in range(n)]
        tails_to = [{} for _ in range(n + 1)]
        for width in range(1, n + 1):
            for start in range(0, n - width + 1):
                end = start + width
                span = (start, end)
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
                    self._binary_phase(heads_from[start], tails_to[end],
                                       span, cell)
                    if not cell:
                        continue
                self._complete(cell, span)
                self._prune(cell)
                heads, tails = self._partners(cell)
                if heads:
                    heads_from[start].append((end, heads))
                if tails:
                    tails_to[end][start] = tails

        start_items = []
        if n:
            full = cells.get((0, n), {})
            for label in self.start_labels:
                item = full.get(("n", label))
                if item is not None:
                    start_items.append(item)
            start_items.sort(key=lambda it: (-it.inside, it.label))
        return Chart(sentence, cells, start_items,
                     unary_cycle=self.unary_cycle)

    def _partners(self, cell):
        """(heads, tails) of a finished cell, both in cell order.

        heads are (item, trie node) for items with a trie node; tails are
        (steps, item) for complete items whose symbol some step reads,
        steps being that symbol's {trie node: next trie node}.
        """
        first = self.first_step
        steps_on = self.steps_on
        heads = []
        tails = []
        for sym, item in cell.items():
            if sym[0] == "p":
                heads.append((item, sym[1]))
                continue
            node = first.get(sym)
            if node is not None:
                heads.append((item, node))
            steps = steps_on.get(sym)
            if steps is not None:
                tails.append((steps, item))
        return heads, tails

    def _binary_phase(self, heads_from, tails_to, span, cell):
        # heads_from: (mid, heads) of the finished spans (start, mid), by
        # mid; tails_to: {mid: tails} of the finished spans (mid, end)
        for mid, heads in heads_from:
            right = tails_to.get(mid)
            if right is None:
                continue
            for litem, node in heads:
                for steps, ritem in right:
                    nxt = steps.get(node)
                    if nxt is None:
                        continue
                    psym = ("p", nxt)
                    item = cell.get(psym)
                    if item is None:
                        item = cell[psym] = ChartItem(psym, span)
                    # each (left, right) pair reaches a prefix item once
                    item.edges.append((None, (litem, ritem), 0.0))
                    score = litem.inside + ritem.inside
                    if score > item.inside:
                        item.inside = score

    def _complete(self, cell, span):
        # a queue over the cell, prefix items first, that takes each item
        # once: a prefix item completes the rules its trie node ends, a
        # complete item the one-symbol rules (lexical, unary) of its
        # symbol, and the items this makes join the queue. An inside that
        # rises after its item was taken is not passed on.
        first = self.first_step
        completions = self.completions
        queue = list(cell.values())
        for tail in queue:
            sym = tail.sym
            node = sym[1] if sym[0] == "p" else first.get(sym)
            if node is None:
                continue
            for rule in completions[node]:
                nsym = ("n", rule.lhs)
                item = cell.get(nsym)
                if item is None:
                    item = cell[nsym] = ChartItem(nsym, span)
                    queue.append(item)
                item.edges.append((rule, (tail,), rule.logprob))
                score = rule.logprob + tail.inside
                if score > item.inside:
                    item.inside = score

    def _prune(self, cell):
        scored = {sym: item.inside + self._log_prior(sym[1])
                  for sym, item in cell.items() if sym[0] == "n"}
        if not scored:
            return
        threshold = max(scored.values()) + math.log(self.prune_ratio)
        for sym, score in scored.items():
            if score < threshold:
                del cell[sym]


class Derivation:
    """One derivation of a sentence.

    logprob is the correctly rounded sum of the fragments' log
    probabilities; bracketed is the write_tree form of the derived tree,
    which tree reads back on each access.
    realized is a nested (key, subs, ...) tuple, subs holding the
    realizations of the key's sites right to left; fragments, in
    leftmost-substitution order, is flattened from it on first access,
    one Fragment per key.
    """

    __slots__ = ("logprob", "bracketed", "_realized", "_fragments")

    def __init__(self, logprob, bracketed, realized):
        self.logprob = logprob
        self.bracketed = bracketed
        self._realized = realized
        self._fragments = None

    @property
    def fragments(self) -> tuple:
        if self._fragments is None:
            fragments = []
            stack = [self._realized]
            while stack:
                realized = stack.pop()
                fragments.append(Fragment(realized[0]))
                stack.extend(realized[1])
            self._fragments = tuple(fragments)
        return self._fragments

    @property
    def tree(self) -> Tree:
        """The derived tree, read from bracketed on each access."""
        return read_trees(self.bracketed)[0]


@dataclass(frozen=True)
class ParseResult:
    probability: float        # summed probability of the tree's derivations
    derivations_examined: int
    tree_tallies: tuple       # (bracketed tree, derivation count, probability)

    @property
    def bracketed(self) -> str:
        """The most probable parse: the first tally's bracketed tree."""
        return self.tree_tallies[0][0]

    @property
    def tree(self) -> Tree:
        """The most probable parse, read from bracketed on each access."""
        return read_trees(self.bracketed)[0]


def _get_kth(item, k):
    """k-th best derivation of an item as its heap entry, or None.

    Lazy k-best in the manner of Huang & Chiang (2005), Algorithm 3: the
    successors of a popped candidate enter the heap only when the next
    derivation is asked for. An entry is (-logprob, edge index, j) on an
    item whose edges have one tail (a complete item), and (-logprob, edge
    index, a, b) on a prefix item, whose edges are binary steps; j, a and
    b index the tails' derivations. Each candidate has one designated
    predecessor, so none is pushed twice: (j) is followed by (j + 1), and
    (a, b) by (a, b + 1), and also by (a + 1, 0) while b is 0.

    The first candidates, one per edge, are listed and heapified once;
    successors are pushed here, reading each tail's derivs directly, and
    a tail is asked through a call only for a derivation it has not yet
    found. So the search takes one frame per forest level. Every entry is
    a distinct tuple and successors never score above their predecessor,
    so entries come out in tuple order however the heap was built. Once
    the heap runs dry, cand is set to None: the item has no more
    derivations, and callers that see that ask no further.

    A successor's score sums as (weight + left) + right on a prefix step,
    the order its first candidate was scored in; on negated scores that
    is (weight - left_neg) - right_neg, which rounds the same.
    """
    derivs = item.derivs
    if derivs is None:
        derivs = item.derivs = []
        if item.sym[0] == "w":
            # log 1, negated: a rule's w - -0.0 is w + 0.0, bit for bit
            derivs.append((-0.0,))
            item.mass = 1.0
            return derivs[0] if k == 0 else None
        item.reals = {}
        cand = []
        # the inside sum, relative to the best score: inside, or a higher
        # edge score where inside is stale (see ChartItem)
        inside = item.inside
        mass = 0.0
        if item.sym[0] == "p":
            for edge_idx, (_, (left, right), weight) in enumerate(item.edges):
                first = left.derivs
                first = first[0] if first else _get_kth(left, 0)
                if first is None:
                    continue
                second = right.derivs
                second = second[0] if second else _get_kth(right, 0)
                if second is not None:
                    score = (weight - first[0]) - second[0]
                    cand.append((-score, edge_idx, 0, 0))
                    if score > inside:
                        mass *= exp(inside - score)
                        inside = score
                    mass += exp(score - inside) * left.mass * right.mass
        else:
            for edge_idx, (_, (tail,), weight) in enumerate(item.edges):
                first = tail.derivs
                first = first[0] if first else _get_kth(tail, 0)
                if first is not None:
                    score = weight - first[0]
                    cand.append((-score, edge_idx, 0))
                    if score > inside:
                        mass *= exp(inside - score)
                        inside = score
                    mass += exp(score - inside) * tail.mass
        heapify(cand)
        item.mass = mass
        item.cand = cand
    elif k < len(derivs):
        return derivs[k]
    else:
        cand = item.cand
        if cand is None:
            return None
    edges = item.edges
    while True:
        if derivs:
            # the successors of the last entry popped
            last = derivs[-1]
            if len(last) == 3:
                _, edge_idx, j = last
                _, (tail,), weight = edges[edge_idx]
                j += 1
                sub = tail.derivs
                sub = (sub[j] if j < len(sub)
                       else None if tail.cand is None else _get_kth(tail, j))
                if sub is not None:
                    heappush(cand, (-(weight - sub[0]), edge_idx, j))
            else:
                _, edge_idx, a, b = last
                _, (left, right), weight = edges[edge_idx]
                left_derivs = left.derivs
                right_derivs = right.derivs
                if b == 0:
                    sub = (left_derivs[a + 1] if a + 1 < len(left_derivs)
                           else None if left.cand is None
                           else _get_kth(left, a + 1))
                    if sub is not None:
                        heappush(cand, (-((weight - sub[0])
                                          - right_derivs[0][0]),
                                        edge_idx, a + 1, 0))
                b += 1
                sub = (right_derivs[b] if b < len(right_derivs)
                       else None if right.cand is None
                       else _get_kth(right, b))
                if sub is not None:
                    heappush(cand, (-((weight - left_derivs[a][0]) - sub[0]),
                                    edge_idx, a, b))
        if not cand:
            item.cand = None
            return None
        derivs.append(heappop(cand))
        if len(derivs) > k:
            return derivs[k]


def _realize(item, k, strings):
    """The k-th derivation of an 'n' item as (rule key, subs, string, sum).

    subs are the realizations of the substitution sites, right to left,
    collected while walking the rule's prefix chain; the string fills the
    rule's format string with theirs; sum is the derivation's log
    probability scaled by 2**1074, an exact int (see _scaled). strings is
    the chart's memo of formatted strings (see Chart): each (rule form,
    site strings) is formatted once, so derivations of one tree share one
    string. Kept in item.reals[k], so a subderivation shared by many
    derivations is realized once; callers look there first.
    """
    _, edge_idx, j = item.derivs[k]
    rule, (tail,), _ = item.edges[edge_idx]
    total = rule.scaled
    # walk the binarized prefix chain of the rule back into its rhs item
    # sequence, right to left; the 'n' items are the sites (words carry
    # no subderivation)
    subs = []
    key = [rule.form]
    while tail.sym[0] == "p":
        _, edge_idx, j, site_k = tail.derivs[j]
        tail, right = tail.edges[edge_idx][1]
        if right.sym[0] == "n":
            sub = right.reals.get(site_k)
            if sub is None:
                sub = _realize(right, site_k, strings)
            total += sub[3]
            subs.append(sub)
            key.append(sub[2])
    if tail.sym[0] == "n":
        sub = tail.reals.get(j)
        if sub is None:
            sub = _realize(tail, j, strings)
        total += sub[3]
        subs.append(sub)
        key.append(sub[2])
    if subs:
        key = tuple(key)
        bracketed = strings.get(key)
        if bracketed is None:
            # key[:0:-1] is the site strings, left to right
            bracketed = rule.form % key[:0:-1]
            bracketed = strings[key] = strings.setdefault(bracketed,
                                                          bracketed)
    else:
        bracketed = strings.setdefault(rule.key, rule.key)
    result = item.reals[k] = (rule.key, subs, bracketed, total)
    return result


# the drift check's tolerance, relative and absolute, between a realized
# log probability and its search score
_DRIFT = 1e-9
# how far the leader's lead must clear the bound of an early stop,
# relative to the leader's mass, and how far the bound on the mass still
# to come is raised, relative to the forest's: far above the rounding of
# any of these sums
_MARGIN = 1e-9
# a derivation more than this below the best, in log probability, adds
# less than 1e-323 of the best's mass, even raised by the drift check's
# tolerance
_FAR = 745.0


def nbest_derivations(chart: Chart, n: int = 1000,
                      stop_early: bool = False) -> list:
    """Up to n distinct derivations, best first; [] when there is no parse.

    The first derivation is the exact Viterbi best over the unpruned part
    of the forest. The start items' derivations are merged through one
    heap of (-logprob, start index, k), so equal scores keep start-item
    order. Each derivation carries its tree as a bracketed string; no Tree
    is built here. Probabilities are recomputed from the fragments as
    exact sums, rounded once, then checked against the extraction scores.
    The search state (derivs, cand, reals) lives on the chart items, and
    the memo of formatted strings on the chart (see Chart), so a second
    call on the same chart resumes the search, and every derivation of
    one tree carries the same bracketed string object.

    With stop_early, the search ends at the first r derivations after
    which no tree can overtake the leader among the n. Two bounds hold on
    what the derivations still to come among the n add to any one tree,
    and the smaller is taken:
    - the n - r still to come score at most p, the top of the heap, so
      between them they add at most (n - r) p, widened by the drift the
      check allows;
    - all the derivations not yet examined hold T - S, where T is the
      forest's total over all its derivations (from the start items'
      inside sums, see ChartItem) and S the summed probability of the r
      examined. T is widened by the drift the check allows, once for the
      derivations to come and once for those in S (with all scores within
      _FAR of the best; the rest add less than a float holds), and raised
      by a margin of 1e-9 of itself, far above the rounding of T and S.
      Where T is infinite or NaN, the first bound is used alone.
    Once the leader's summed probability exceeds the runner-up's by more
    than the bound, and by a margin relative to the leader's, the most
    probable parse of these r derivations is that of the n. An exact tie
    runs on to n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not chart.start_items:
        return []
    if chart.unary_cycle is not None:
        raise CyclicGrammarError(
            "unary fragment cycle through %r; the derivation set is infinite"
            % chart.unary_cycle)
    starts = chart.start_items
    heap = []
    for index, item in enumerate(starts):
        first = _get_kth(item, 0)
        if first is not None:
            heappush(heap, (first[0], index, 0))
    result = []
    # with stop_early: each tree's summed probability over the derivations
    # so far, relative to the first one's, the two largest sums, and the
    # sum over all trees
    masses = {}
    leader = runner_up = seen = 0.0
    leading = None
    total = None
    if stop_early and heap:
        # T, the forest's total over all its derivations, relative to the
        # best search score (each derivs[0][0] is a negated best score)
        first_neg = heap[0][0]
        total = 0.0
        for item in starts:
            if item.derivs:
                total += exp(first_neg - item.derivs[0][0]) * item.mass
        if not math.isfinite(total):
            total = None
    while heap:
        neg, index, k = heap[0]
        start_item = starts[index]
        realized = start_item.reals.get(k)
        if realized is None:
            realized = _realize(start_item, k, chart.strings)
        logprob = _unscaled(realized[3])
        if not math.isclose(logprob, -neg, rel_tol=_DRIFT, abs_tol=_DRIFT):
            raise AssertionError(
                "derivation probability drift: %r vs %r" % (logprob, -neg))
        bracketed = realized[2]
        result.append(Derivation(logprob, bracketed, realized))
        if len(result) == n:
            break
        following = _get_kth(start_item, k + 1)
        if following is None:
            heappop(heap)
        else:
            heapreplace(heap, (following[0], index, k + 1))
        if stop_early and heap:
            if leading is None:
                best = logprob
                if total is not None:
                    # T relative to best, widened by the drift twice, plus
                    # the margin
                    total = (total * exp(2.0 * _DRIFT * (_FAR - best))
                             + _MARGIN * total)
            share = exp(logprob - best)
            seen += share
            mass = masses[bracketed] = masses.get(bracketed, 0.0) + share
            if bracketed == leading:
                leader = mass
            elif mass > leader:
                leading, leader, runner_up = bracketed, mass, leader
            elif mass > runner_up:
                runner_up = mass
            # top <= 0, so 1 - top covers the drift check's max(-top, 1)
            top = -heap[0][0]
            bound = (n - len(result)) * exp(
                top + _DRIFT * (1.0 - top) - best)
            if total is not None:
                bound = min(bound, total - seen)
            if leader - runner_up > bound + _MARGIN * leader:
                break
    return result


def most_probable_parse(derivations) -> ParseResult:
    """Group derivations by bracketed tree and pick the best summed tree.

    Ties break on the best single derivation, then on the lexicographically
    smaller bracketed form. No Tree is built: the result's tree is read
    from its bracketed form on access.
    """
    if not derivations:
        raise ValueError("most_probable_parse needs at least one derivation")
    groups = {}
    for deriv in derivations:
        groups.setdefault(deriv.bracketed, []).append(deriv.logprob)
    tallies = sorted(((_logsumexp(logs), max(logs), bracketed, len(logs))
                      for bracketed, logs in groups.items()),
                     key=lambda t: (-t[0], -t[1], t[2]))
    return ParseResult(
        probability=math.exp(tallies[0][0]),
        derivations_examined=len(derivations),
        tree_tallies=tuple((brk, count, math.exp(tlog))
                           for tlog, _, brk, count in tallies))


def _logsumexp(logs):
    # compensated summation in linear space, scaled by the max term
    m = max(logs)
    if m == -math.inf:
        return m
    total = 0.0
    comp = 0.0
    for lp in logs:
        y = math.exp(lp - m) - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return m + math.log(total)


class SentenceParser(ChartParser):
    """A ChartParser over a model's rules and priors, with rules for its
    out-of-vocabulary words and most-probable-parse selection.

    model is the lines of a model file, such as the open file, or a
    FragmentModel, read through the lines it writes. words, when given, is
    every word the parser will be asked to parse: an entry row with a
    frontier word outside it becomes no rule, since no chart item of such a
    sentence could complete it. Every row is still read and checked, the
    vocabulary holds the words of every row, and a rule's index is its
    entry row's number, so the charts, derivations and parses are those of
    a parser built with words=None. A rule holds its row's root, frontier
    and key text, and no Fragment. Besides the rules the parser keeps what
    oov_rules reads: the unknown-word model, oov_mass (per root label, the
    probability of an unknown word's rule per unit of its tag share, built
    once from the root rows) and the number of entry rows.

    stop_early, when set, ends each sentence's n-best search once its most
    probable parse is decided (see nbest_derivations): the same tree, from
    up to n_best derivations. `dop parse` and `dop experiment` set it; by
    default parse examines all n_best derivations, or every one there is.
    """

    def __init__(self, model, n_best: int = 1000, prune_ratio: float = 1e-5,
                 words=None, stop_early: bool = False):
        if n_best < 1:
            raise ValueError("n_best must be >= 1")
        if isinstance(model, FragmentModel):
            model = _model_lines(model)
        header, rows = read_model(model, lambda p: _log(_probability(p)))
        words = self.words = None if words is None else frozenset(words)
        skipped = set()         # the words of the rows skipped

        def usable_rules():
            index = -1
            for index, (root, key, frontier, _, logprob) in enumerate(rows):
                if words is not None:
                    # a Site hashes through Python code: leave them out
                    read = [element for element in frontier
                            if element.__class__ is str]
                    if not words.issuperset(read):
                        skipped.update(read)
                        continue
                yield IndexedRule(root, frontier, key, logprob, index)
            self.entry_rows = index + 1

        # the entry rows are read once ChartParser has checked prune_ratio
        super().__init__(usable_rules(), header.start_labels,
                         priors=header.priors, prune_ratio=prune_ratio)
        self.n_best = n_best
        self.stop_early = stop_early
        self.unknown_words = header.unknown_words
        # per root, an unknown word's rule probability per unit of tag share
        reserved = header.reserved_mass
        self.oov_mass = {
            tag: reserved.get(tag, 0) if header.smoothed
            else 1 / (Fraction(total) + 1)
            for tag, total in header.root_totals.items()}
        # the model's words: those of the kept rules, each a word symbol of
        # the trie, and those of the rows skipped
        self.vocabulary = {sym[1] for sym in chain(self.first_step,
                                                   self.steps_on)
                           if sym[0] == "w"}
        self.vocabulary |= skipped

    def chart(self, sentence, extra_rules=()) -> Chart:
        """ChartParser.chart, refusing with a ValueError a sentence that
        holds a model word outside the words the parser was built for: the
        rows that read it are not rules here."""
        sentence = tuple(sentence)
        if self.words is not None:
            for word in sorted(set(sentence) - self.words):
                if word in self.vocabulary:
                    raise ValueError(
                        "%r is a model word outside the words this parser "
                        "was built for" % word)
        return super().chart(sentence, extra_rules)

    def oov_rules(self, words) -> list:
        """Depth-1 rules for out-of-vocabulary words via the unknown-word
        model, numbered after the entry rows."""
        rules = []
        unknown = self.unknown_words
        if unknown is None:
            return rules
        for word in sorted(set(words) - self.vocabulary):
            if "(" in word or ")" in word:
                continue          # no fragment key can hold a bracket
            distribution = unknown.tag_distribution(word)
            for tag, share in sorted(distribution.items()):
                probability = self.oov_mass.get(tag, 0) * share
                if probability <= 0:
                    continue
                rules.append(IndexedRule(tag, (word,), "(%s %s)" % (tag, word),
                                         _log(probability),
                                         self.entry_rows + len(rules)))
        return rules

    def derivations(self, words) -> list:
        chart = self.chart(words, extra_rules=self.oov_rules(words))
        return nbest_derivations(chart, self.n_best, self.stop_early)

    def parse(self, words) -> ParseResult | None:
        derivations = self.derivations(words)
        if not derivations:
            return None
        return most_probable_parse(derivations)
