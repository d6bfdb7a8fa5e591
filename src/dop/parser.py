"""Chart parsing with fragment-indexed rules.

Each model fragment becomes a rule: lhs = the fragment's root, rhs = its
frontier (words and substitution sites) left to right. Rule right-hand
sides are matched through a shared prefix trie, which left-factors long
rules into binary steps; the dotted prefix items this creates are internal
to the parser. The inside pass is a bottom-up CKY with per-span pruning on
prior-weighted scores; derivations come out of the pruned forest through
lazy n-best extraction as bracketed strings, and the most probable parse
sums derivation probabilities per string. A parse is that string; a Tree
is read from it only when asked for.
"""

import heapq
import math
import re
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .fragments import Fragment
from .model import FragmentModel
from .tree import Site, Tree, read_trees


class CyclicGrammarError(ValueError):
    """Unary fragment cycles make the derivation set infinite."""


# a site is the only "(label)" without a space: words and labels hold none
_SITE_TEXT = re.compile(r"\([^\s()]+\)")


@dataclass(frozen=True)
class IndexedRule:
    lhs: str
    rhs: tuple                # fragment frontier: Site markers and words
    fragment: Fragment
    logprob: float
    index: int

    @cached_property
    def template(self) -> tuple:
        """The fragment key split at its substitution sites.

        Joining the pieces with one bracketed subtree per site, left to
        right, gives the bracketed form of the substituted tree. Computed
        the first time the rule is realized.
        """
        return tuple(_SITE_TEXT.split(self.fragment.key))


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


def _log(probability) -> float:
    p = Fraction(probability)
    return math.log(p.numerator) - math.log(p.denominator)


def to_rules(model: FragmentModel) -> list:
    """One rule per model entry, in deterministic (root, key) order."""
    rules = []
    for key in sorted(model.entries, key=lambda k: (model.entries[k].fragment.root, k)):
        entry = model.entries[key]
        fragment = entry.fragment
        rules.append(IndexedRule(
            lhs=fragment.root, rhs=fragment.frontier, fragment=fragment,
            logprob=_log(entry.probability), index=len(rules)))
    return rules


def _symbol(rhs_element):
    if isinstance(rhs_element, Site):
        return ("n", rhs_element.label)
    return ("w", rhs_element)


class _Grammar:
    """Prefix trie over rule right-hand sides, with completions per node."""

    def __init__(self, rules):
        self.first_step = {}          # symbol -> trie node
        # symbol -> {trie node: next trie node}: the steps that read the
        # symbol after the first rhs position
        self.steps_on = {}
        self.completions = defaultdict(list)   # trie node -> [(lhs, rule)]
        unary_edges = defaultdict(set)
        counter = 0
        for rule in rules:
            node = None
            for i, element in enumerate(rule.rhs):
                sym = _symbol(element)
                if i == 0:
                    node = self.first_step.get(sym)
                    if node is None:
                        node = self.first_step[sym] = counter
                        counter += 1
                else:
                    steps = self.steps_on.setdefault(sym, {})
                    node = steps.get(prev)
                    if node is None:
                        node = steps[prev] = counter
                        counter += 1
                prev = node
            self.completions[node].append((rule.lhs, rule))
            if len(rule.rhs) == 1 and isinstance(rule.rhs[0], Site):
                unary_edges[rule.lhs].add(rule.rhs[0].label)
        self.unary_cycle = _find_cycle(unary_edges)

    def unary_completions(self, sym):
        node = self.first_step.get(sym)
        if node is None:
            return ()
        return self.completions.get(node, ())


def _find_cycle(edges):
    """A label on a cycle of the unary-rule graph, or None."""
    done = set()
    for origin in edges:
        if origin in done:
            continue
        path = set()
        stack = [(origin, iter(edges.get(origin, ())))]
        path.add(origin)
        while stack:
            label, it = stack[-1]
            for succ in it:
                if succ in path:
                    return succ
                if succ not in done:
                    path.add(succ)
                    stack.append((succ, iter(edges.get(succ, ()))))
                    break
            else:
                stack.pop()
                path.discard(label)
                done.add(label)
    return None


class ChartItem:
    """A (symbol, span) vertex of the parse forest.

    inside is the best (Viterbi) log inside probability; edges are
    (rule-or-None, tails, log weight) triples. Binary steps and prefix
    completions, which never repeat an edge, append theirs directly;
    add_edge, which drops an edge the item already has, is for the unary
    closure. The derivation list and candidate heap are filled
    lazily during n-best extraction.
    """

    __slots__ = ("sym", "span", "inside", "edges", "_edge_ids",
                 "derivs", "cand", "pending")

    def __init__(self, sym, span):
        self.sym = sym
        self.span = span
        self.inside = -math.inf
        self.edges = []
        self._edge_ids = None
        self.derivs = None
        self.cand = None
        self.pending = None

    def add_edge(self, rule, tails, weight):
        edge_id = (rule.index if rule else -1, tuple(id(t) for t in tails))
        if self._edge_ids is None:
            self._edge_ids = set()
        elif edge_id in self._edge_ids:
            return False
        self._edge_ids.add(edge_id)
        self.edges.append((rule, tuple(tails), weight))
        score = weight + sum(t.inside for t in tails)
        if score > self.inside:
            self.inside = score
        return True

    @property
    def label(self):
        return self.sym[1]

    def __repr__(self):
        return "ChartItem(%r, %r, %.4f)" % (self.sym, self.span, self.inside)


class Chart:
    """Pruned parse forest for one sentence."""

    def __init__(self, sentence, cells, start_items, unary_cycle=None):
        self.sentence = sentence
        self.cells = cells
        self.start_items = start_items
        self.unary_cycle = unary_cycle

    def item(self, label, start, end):
        return self.cells.get((start, end), {}).get(("n", label))


class ChartParser:
    """Reusable parser over a fixed rule set.

    A parse is an item over the whole sentence labeled with one of
    start_labels. prune_ratio follows the per-span threshold convention: after a span's
    items are complete, any real (non-dotted) item whose prior-weighted
    score is below prune_ratio times the span's best is dropped.
    """

    def __init__(self, rules, start_labels, priors=None, prune_ratio=1e-5):
        if not 0.0 < prune_ratio <= 1.0:
            raise ValueError("prune_ratio must be in (0, 1]")
        self.rules = list(rules)
        self.grammar = _Grammar(self.rules)
        self.prune_ratio = prune_ratio
        priors = priors or {}
        self._log_priors = {label: _log(p) for label, p in priors.items()
                            if p > 0}
        self._default_log_prior = (min(self._log_priors.values())
                                   if self._log_priors else 0.0)
        self.start_labels = tuple(sorted(start_labels))

    def _log_prior(self, label):
        return self._log_priors.get(label, self._default_log_prior)

    def chart(self, sentence, extra_rules=()) -> Chart:
        sentence = tuple(sentence)
        extra_lexical = defaultdict(list)
        for rule in extra_rules:
            if len(rule.rhs) != 1 or isinstance(rule.rhs[0], Site):
                raise ValueError("extra rules must be lexical depth-1 rules")
            extra_lexical[("w", rule.rhs[0])].append((rule.lhs, rule))

        n = len(sentence)
        cells = {}
        # per span, once its cell is pruned: the items that can start a
        # binary step, with their trie nodes, and the complete items that
        # can end one (see _partners)
        heads = {}
        tails = {}
        for width in range(1, n + 1):
            for start in range(0, n - width + 1):
                span = (start, start + width)
                cell = {}
                cells[span] = cell
                if width == 1:
                    word_item = ChartItem(("w", sentence[start]), span)
                    word_item.inside = 0.0
                    cell[word_item.sym] = word_item
                else:
                    self._binary_phase(heads, tails, span, cell)
                self._complete_prefixes(cell, span)
                self._unary_closure(cell, span, extra_lexical)
                self._prune(cell)
                heads[span], tails[span] = self._partners(cell)

        start_items = []
        if n:
            full = cells.get((0, n), {})
            for label in self.start_labels:
                item = full.get(("n", label))
                if item is not None:
                    start_items.append(item)
            start_items.sort(key=lambda it: (-it.inside, it.label))
        return Chart(sentence, cells, start_items,
                     unary_cycle=self.grammar.unary_cycle)

    def _partners(self, cell):
        """(heads, tails) of a finished cell, both in cell order.

        heads are (item, trie node) for items with a trie node; tails are
        (steps, item) for complete items whose symbol some step reads,
        steps being that symbol's {trie node: next trie node}.
        """
        first = self.grammar.first_step
        steps_on = self.grammar.steps_on
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

    def _binary_phase(self, heads, tails, span, cell):
        start, end = span
        for mid in range(start + 1, end):
            right = tails[(mid, end)]
            if not right:
                continue
            for litem, node in heads[(start, mid)]:
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

    def _complete_prefixes(self, cell, span):
        # rules whose full rhs was matched as a length >= 2 prefix chain;
        # a rule ends at one trie node, so each (rule, prefix item) edge
        # comes up once
        completions = self.grammar.completions
        for psym, pitem in list(cell.items()):
            if psym[0] != "p":
                continue
            for lhs, rule in completions.get(psym[1], ()):
                sym = ("n", lhs)
                item = cell.get(sym)
                if item is None:
                    item = cell[sym] = ChartItem(sym, span)
                item.edges.append((rule, (pitem,), rule.logprob))
                score = rule.logprob + pitem.inside
                if score > item.inside:
                    item.inside = score

    def _unary_closure(self, cell, span, extra_lexical):
        # fixpoint over single-symbol completions (lexical rules, unary
        # rules, chains through both); probability-1 cycles cannot improve
        # scores, so this terminates once every edge exists
        changed = True
        while changed:
            changed = False
            for sym, item in list(cell.items()):
                if sym[0] == "p":
                    continue
                for lhs, rule in self.grammar.unary_completions(sym):
                    changed |= self._add_completion(cell, span, lhs, rule, item)
                for lhs, rule in extra_lexical.get(sym, ()):
                    changed |= self._add_completion(cell, span, lhs, rule, item)

    def _add_completion(self, cell, span, lhs, rule, tail):
        sym = ("n", lhs)
        item = cell.get(sym)
        if item is None:
            item = cell[sym] = ChartItem(sym, span)
        old_inside = item.inside
        added = item.add_edge(rule, (tail,), rule.logprob)
        return added or item.inside > old_inside

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
    realized is a nested (fragment, subs, ...) tuple, subs holding the
    realizations of the fragment's sites left to right; fragments, in
    leftmost-substitution order, is flattened from it on first access.
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
                fragments.append(realized[0])
                stack.extend(reversed(realized[1]))
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
    """k-th best derivation of an item as (logprob, edge index, jvec), or None.

    Lazy k-best in the manner of Huang & Chiang (2005), Algorithm 3: the
    successors of a popped candidate enter the heap only when the next
    derivation is asked for. Each jvec has one designated predecessor, so
    no candidate is pushed twice. Successors never score above their
    predecessor, so derivations come out in (-logprob, edge index, jvec)
    order whichever way the heap is fed.
    """
    derivs = item.derivs
    if derivs is None:
        derivs = item.derivs = []
        item.cand = []
        if item.sym[0] == "w":
            derivs.append((0.0, -1, ()))
        else:
            for edge_idx, (_, tails, _) in enumerate(item.edges):
                _push_candidate(item, edge_idx, (0,) * len(tails))
    cand = item.cand
    while len(derivs) <= k:
        if item.pending is not None:
            edge_idx, jvec = item.pending
            item.pending = None
            # edges have one tail (completions, the goal) or two (prefix
            # steps); (a, b) bumps a only while b is 0
            if len(jvec) == 1:
                _push_candidate(item, edge_idx, (jvec[0] + 1,))
            else:
                a, b = jvec
                if b == 0:
                    _push_candidate(item, edge_idx, (a + 1, 0))
                _push_candidate(item, edge_idx, (a, b + 1))
        if not cand:
            return None
        neg, edge_idx, jvec = heapq.heappop(cand)
        derivs.append((-neg, edge_idx, jvec))
        item.pending = (edge_idx, jvec)
    return derivs[k]


def _push_candidate(item, edge_idx, jvec):
    _, tails, score = item.edges[edge_idx]
    for tail, j in zip(tails, jvec):
        derivs = tail.derivs
        if derivs is not None and j < len(derivs):
            sub = derivs[j]
        else:
            sub = _get_kth(tail, j)
            if sub is None:
                return
        score += sub[0]
    heapq.heappush(item.cand, (-score, edge_idx, jvec))


def _sites(item, k):
    """(item, k) per substitution site of an 'n' item's k-th derivation.

    Walks the binarized prefix chain of the derivation's rule back into
    the rhs item sequence, keeping the 'n' items (words carry no
    subderivation).
    """
    _, edge_idx, jvec = item.derivs[k]
    item, k = item.edges[edge_idx][1][0], jvec[0]
    sites = []
    while item.sym[0] == "p":
        _, edge_idx, jvec = item.derivs[k]
        left, right = item.edges[edge_idx][1]
        if right.sym[0] == "n":
            sites.append((right, jvec[1]))
        item, k = left, jvec[0]
    if item.sym[0] == "n":
        sites.append((item, k))
    sites.reverse()
    return sites


def _realize(item, k, memo):
    """The k-th derivation of an 'n' item as (fragment, subs, string, sum).

    subs are the realizations of the substitution sites, left to right;
    the string joins the rule's fragment template with theirs; sum is the
    derivation's log probability scaled by 2**1074, an exact int (see
    _scaled). Memoized per (item, k), so a subderivation shared by many
    derivations is realized once; callers look in memo first.
    """
    rule = item.edges[item.derivs[k][1]][0]
    template = rule.template
    total = _scaled(rule.logprob)
    subs = []
    for site_item, site_k in _sites(item, k):
        sub = memo.get((id(site_item), site_k))
        if sub is None:
            sub = _realize(site_item, site_k, memo)
        total += sub[3]
        subs.append(sub)
    if subs:
        pieces = [None] * (2 * len(template) - 1)
        pieces[::2] = template
        pieces[1::2] = [sub[2] for sub in subs]
        bracketed = "".join(pieces)
    else:
        bracketed = template[0]
    result = (rule.fragment, subs, bracketed, total)
    memo[(id(item), k)] = result
    return result


def nbest_derivations(chart: Chart, n: int = 1000) -> list:
    """Up to n distinct derivations, best first; [] when there is no parse.

    The first derivation is the exact Viterbi best over the unpruned part
    of the forest. Each derivation carries its tree as a bracketed string;
    no Tree is built here. Probabilities are recomputed from the fragments
    as exact sums, rounded once, then checked against the extraction
    scores.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not chart.start_items:
        return []
    if chart.unary_cycle is not None:
        raise CyclicGrammarError(
            "unary fragment cycle through %r; the derivation set is infinite"
            % chart.unary_cycle)
    goal = ChartItem(("g", None), (0, len(chart.sentence)))
    for item in chart.start_items:
        goal.add_edge(None, (item,), 0.0)
    memo = {}
    result = []
    for k in range(n):
        deriv = _get_kth(goal, k)
        if deriv is None:
            break
        score, edge_idx, jvec = deriv
        _, tails, _ = goal.edges[edge_idx]
        # a new (start item, k) each time, so not in memo yet
        realized = _realize(tails[0], jvec[0], memo)
        logprob = _unscaled(realized[3])
        if not math.isclose(logprob, score, rel_tol=1e-9, abs_tol=1e-9):
            raise AssertionError(
                "derivation probability drift: %r vs %r" % (logprob, score))
        result.append(Derivation(logprob, realized[2], realized))
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


class SentenceParser:
    """Model-level convenience: rules, priors, OOV handling, MPP selection."""

    def __init__(self, model: FragmentModel, n_best: int = 1000,
                 prune_ratio: float = 1e-5):
        self.model = model
        self.n_best = n_best
        self.rules = to_rules(model)
        self.parser = ChartParser(self.rules, model.start_labels,
                                  priors=model.priors, prune_ratio=prune_ratio)
        self.vocabulary = model.lexical_words()
        self._next_rule_index = len(self.rules)

    def oov_rules(self, words) -> list:
        """Depth-1 rules for out-of-vocabulary words via the unknown-word model."""
        rules = []
        unknown = self.model.unknown_words
        if unknown is None:
            return rules
        for word in sorted(set(words) - self.vocabulary):
            distribution = unknown.tag_distribution(word)
            for tag, share in sorted(distribution.items()):
                total = self.model.root_totals.get(tag)
                if total is None:
                    continue
                if self.model.smoothed:
                    mass = self.model.reserved_mass.get(tag, Fraction(0))
                    probability = mass * share
                else:
                    probability = share / (Fraction(total) + 1)
                if probability <= 0:
                    continue
                fragment = Fragment(Tree(tag, (word,)))
                rules.append(IndexedRule(
                    lhs=tag, rhs=fragment.frontier, fragment=fragment,
                    logprob=_log(probability),
                    index=self._next_rule_index + len(rules)))
        return rules

    def derivations(self, words) -> list:
        chart = self.parser.chart(words, extra_rules=self.oov_rules(words))
        return nbest_derivations(chart, self.n_best)

    def parse(self, words) -> ParseResult | None:
        derivations = self.derivations(words)
        if not derivations:
            return None
        return most_probable_parse(derivations)
