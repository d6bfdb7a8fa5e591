"""Fragment probability models.

Estimation is relative frequency: a fragment's probability is its count
divided by the total count of fragments sharing its root label. Counts are
integers (rationals after smoothing) and probabilities exact fractions, so
per-root normalization is exact; the parser converts to log floats.
"""

import logging
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress

from .fragments import RestrictionSet, key_root, passes
from .heads import HeadRuleTable
from .tree import Treebank

log = logging.getLogger(__name__)


class GrammarError(ValueError):
    pass


@dataclass(slots=True)
class ModelEntry:
    key: str                 # the fragment's canonical key
    count: object            # int, or Fraction after smoothing
    probability: Fraction


@dataclass
class UnknownWordModel:
    """Word-shape statistics from rare words, for guessing OOV categories.

    Keys are (lowercase suffix, starts-capitalized, has-hyphen, has-digit);
    each rare-word occurrence is indexed under every suffix of length 1..3
    so lookups can back off to shorter suffixes. The back-off tables are
    summed from full_stats: suffix_stats over the flags, and open_class,
    the tags of the rare words, since every word has a suffix.
    """

    threshold: int
    full_stats: dict
    suffix_stats: dict = field(init=False)
    open_class: tuple = field(init=False)

    def __post_init__(self):
        suffix_stats = defaultdict(Counter)
        for (suffix, _, _, _), counts in self.full_stats.items():
            suffix_stats[suffix].update(counts)
        self.suffix_stats = dict(suffix_stats)
        self.open_class = tuple(sorted(
            {tag for counts in suffix_stats.values() for tag in counts}))

    def tag_distribution(self, word: str) -> dict:
        """Preterminal distribution for an out-of-vocabulary word.

        Backs off from (suffix, flags) to suffix alone, longest suffix
        first, and finally to uniform over the open classes. Sums to
        exactly 1.
        """
        suffixes, caps, hyphen, digit = word_features(word)
        for suffix in suffixes:
            stats = self.full_stats.get((suffix, caps, hyphen, digit))
            if stats:
                return _normalize(stats)
        for suffix in suffixes:
            stats = self.suffix_stats.get(suffix)
            if stats:
                return _normalize(stats)
        share = Fraction(1, len(self.open_class))
        return {tag: share for tag in self.open_class}


@dataclass
class FragmentModel:
    entries: dict                     # canonical key -> ModelEntry
    root_totals: dict                 # root label -> total count
    restriction: RestrictionSet
    start_labels: frozenset
    priors: dict                      # label -> Fraction, for pruning scores
    smoothed: bool = False
    reserved_mass: dict = field(default_factory=dict)
    unknown_words: UnknownWordModel | None = None

    def probability(self, key: str) -> Fraction:
        entry = self.entries.get(key)
        return entry.probability if entry else Fraction(0)

    def by_root(self) -> dict:
        grouped = defaultdict(list)
        for key, entry in self.entries.items():
            grouped[key_root(key)].append(entry)
        return grouped


def build_model(fragments: Counter, restriction: RestrictionSet,
                rules: HeadRuleTable, start_labels=None) -> FragmentModel:
    """Relative-frequency model over the restricted fragment multiset.

    Fragments failing the restriction are dropped here regardless of what
    the caller filtered. start_labels defaults to every observed root
    label; the trainer passes the actual treebank roots.

    The fragments that pass are read through a mask over the caller's
    counts, not copied into a second table, and the entries of one root
    with one count share one probability: a model has few distinct ones.
    An entry holds its fragment's key, not the Fragment.
    """
    mask = bytearray(passes(fragment, restriction, rules)
                     for fragment in fragments)
    if not any(mask):
        raise GrammarError("no fragments pass the restriction; empty grammar")

    root_totals = Counter()
    for fragment, count in compress(fragments.items(), mask):
        root_totals[fragment.root] += count

    entries = {}
    shares = {}                # (root, count) -> its probability
    for fragment, count in compress(fragments.items(), mask):
        root = fragment.root
        share = shares.get((root, count))
        if share is None:
            share = shares[root, count] = Fraction(count, root_totals[root])
        entries[fragment.key] = ModelEntry(fragment.key, count, share)

    if start_labels is None:
        start_labels = frozenset(root_totals)
    return FragmentModel(entries=entries, root_totals=dict(root_totals),
                         restriction=restriction,
                         start_labels=frozenset(start_labels),
                         priors=_priors(compress(fragments.items(), mask),
                                        root_totals))


def _priors(pairs, root_totals) -> dict:
    # relative node-label frequency, read off the depth-1 fragment counts
    counts = Counter()
    for fragment, count in pairs:
        if fragment.depth == 1:
            counts[fragment.root] += count
    if not counts:
        return {label: Fraction(1, len(root_totals)) for label in root_totals}
    total = sum(counts.values())
    return {label: Fraction(c, total) for label, c in counts.items()}


def derivation_probability(model: FragmentModel, fragments) -> Fraction:
    """Product of the fragments' probabilities; a diagnosed 0 when any
    fragment is not in the model."""
    missing = [f.key for f in fragments if f.key not in model.entries]
    if missing:
        log.warning("derivation contains %d fragment(s) missing from the "
                    "model: %s", len(missing), ", ".join(missing))
        return Fraction(0)
    product = Fraction(1)
    for fragment in fragments:
        product *= model.entries[fragment.key].probability
    return product


def good_turing_adjust(model: FragmentModel) -> FragmentModel:
    """Good-Turing count adjustment per root label.

    Raw count r becomes (r+1) * N[r+1] / N[r], walking observed counts
    upward while N[r+1] is populated; at the first gap that count and all
    larger ones keep their raw value. Mass N1/N is reserved per root for
    unseen events and seen probabilities renormalize to 1 - N1/N.

    Degenerate roots (a single distinct fragment, or nothing but
    singletons) are left unadjusted with no reserved mass.
    """
    if model.smoothed:
        raise GrammarError("model is already smoothed")
    new_entries = {}
    new_totals = {}
    reserved = {}
    for root, group in sorted(model.by_root().items()):
        total = model.root_totals[root]
        count_of_counts = Counter(e.count for e in group)
        n1 = count_of_counts.get(1, 0)
        if len(group) == 1 or n1 == total:
            shares = {r: Fraction(r, total) for r in count_of_counts}
            for entry in group:
                new_entries[entry.key] = ModelEntry(
                    entry.key, entry.count, shares[entry.count])
            new_totals[root] = total
            reserved[root] = Fraction(0)
            continue
        adjusted = {}
        adjusting = True
        for r in sorted(count_of_counts):
            if adjusting and count_of_counts.get(r + 1, 0) > 0:
                adjusted[r] = Fraction((r + 1) * count_of_counts[r + 1],
                                       count_of_counts[r])
            else:
                adjusting = False
                adjusted[r] = Fraction(r)
        p0 = Fraction(n1, total)
        new_total = sum(adjusted[r] * n for r, n in count_of_counts.items())
        # one probability per adjusted count, shared by its entries
        shares = {star: (1 - p0) * star / new_total
                  for star in set(adjusted.values())}
        for entry in group:
            star = adjusted[entry.count]
            new_entries[entry.key] = ModelEntry(entry.key, star, shares[star])
        new_totals[root] = new_total
        reserved[root] = p0
    return FragmentModel(entries=new_entries, root_totals=new_totals,
                         restriction=model.restriction,
                         start_labels=model.start_labels,
                         priors=model.priors, smoothed=True,
                         reserved_mass=reserved,
                         unknown_words=model.unknown_words)


def word_features(word: str):
    """(candidate suffixes longest first, capitalized, has-hyphen, has-digit)."""
    lowered = word.lower()
    suffixes = tuple(lowered[-length:] for length in range(min(3, len(word)), 0, -1))
    return (suffixes, word[:1].isupper(), "-" in word,
            any(ch.isdigit() for ch in word))


def train_unknown_model(treebank: Treebank, threshold: int) -> UnknownWordModel:
    """Gather tag statistics from words occurring at most `threshold` times."""
    if threshold < 1:
        raise ValueError("rarity threshold must be >= 1")
    vocabulary = treebank.vocabulary
    full_stats = defaultdict(Counter)
    for nodes in treebank.nodes:
        for node in nodes:
            word = node.children[0]
            if not isinstance(word, str) or vocabulary[word] > threshold:
                continue
            suffixes, caps, hyphen, digit = word_features(word)
            for suffix in suffixes:
                full_stats[(suffix, caps, hyphen, digit)][node.label] += 1
    if not full_stats:
        raise GrammarError(
            "no words occur <= %d times; raise the rarity threshold" % threshold)
    return UnknownWordModel(threshold=threshold, full_stats=dict(full_stats))


def _normalize(counts: Counter) -> dict:
    total = sum(counts.values())
    return {tag: Fraction(c, total) for tag, c in sorted(counts.items())}
