"""Tree fragments: exhaustive extraction, random sampling, and restrictions.

A fragment is a connected piece of a corpus tree: its root is a labeled
node, every internal node keeps all children of its source node, and each
child subtree is either expanded in full depth-1 steps or cut off as a
frontier substitution site. Frontier positions therefore hold words or
`Site` markers.

A `Fragment` is held as its canonical key, the form `tree.write_tree`
gives its structure: internal nodes as ``(label child ...)``, substitution
sites as ``(label)``, words bare, one space before each child —
``(S (NP john) (VP))`` is the fragment with an expanded subject and an
open VP site.
"""

import random
import re
import sys
from collections import Counter, deque
from dataclasses import dataclass
from itertools import accumulate, product

from .tree import _TOKEN, Site, Tree, Treebank, _tokenize
from .heads import HeadRuleTable


class FragmentOverflowError(ValueError):
    """Exhaustive extraction would exceed the fragment cap; sample instead."""


class SamplingError(ValueError):
    """No node in the treebank supports the requested fragment depth."""


def _node_label(child):
    return child.label if isinstance(child, (Tree, Site)) else None


# In a canonical key a site is the only "(label)" without a space, and a
# word is the only token after a space that is not a bracket.
_SITE_OR_WORD = re.compile(r"\(([^\s()]+)\)| ([^\s()]+)")
_SITE = re.compile(r"\([^\s()]+\)")
_BRACKET = re.compile(r"[()]")
_NESTING = {"(": 1, ")": -1}

# frontiers share one Site per label, and their words are interned, so a
# model's frontiers hold no copy of a site or a word per occurrence; a Site
# is immutable and labels are few, so every model in a process shares them
_SITES = {}


def _site(label):
    site = _SITES.get(label)
    if site is None:
        site = _SITES[label] = Site(label)
    return site


class Fragment:
    """An immutable fragment, held as its canonical key.

    Equality and hashing go through the key; root, depth and frontier are
    read from it, and `structure` builds the `Tree` on each access.
    """

    __slots__ = ("key", "_depth", "_frontier")

    def __init__(self, key: str):
        # `key` must be canonical: use from_string for keys in any spacing
        object.__setattr__(self, "key", key)
        object.__setattr__(self, "_depth", None)
        object.__setattr__(self, "_frontier", None)

    def __setattr__(self, name, value):
        raise AttributeError("Fragment is immutable")

    @classmethod
    def from_string(cls, key: str) -> "Fragment":
        """Read a key in any spacing; the fragment's key is the canonical form."""
        _, frontier, canonical = _read_key(key)
        fragment = cls(canonical)
        object.__setattr__(fragment, "_frontier", frontier)
        return fragment

    @property
    def root(self) -> str:
        return self.key[1:self.key.index(" ")]

    @property
    def depth(self) -> int:
        """Edges on the longest root-to-frontier path: the deepest bracket
        nesting once the sites are removed."""
        if self._depth is None:
            brackets = _BRACKET.findall(_SITE.sub("", self.key))
            object.__setattr__(self, "_depth", max(
                accumulate(map(_NESTING.__getitem__, brackets))))
        return self._depth

    @property
    def frontier(self) -> tuple:
        """Frontier items left to right: word strings and Site markers."""
        if self._frontier is None:
            object.__setattr__(self, "_frontier", tuple(
                _site(site) if site else sys.intern(word)
                for site, word in _SITE_OR_WORD.findall(self.key)))
        return self._frontier

    @property
    def frontier_word_count(self) -> int:
        # each space in a key starts a child: a word or a bracketed node
        return self.key.count(" ") - self.key.count(" (")

    @property
    def structure(self) -> Tree:
        """The fragment as a `Tree` with `Site` leaves, read from the key."""
        return _read_key(self.key, build=True)[0]

    def __eq__(self, other):
        return isinstance(other, Fragment) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __reduce__(self):
        return (Fragment, (self.key,))

    def __repr__(self):
        return "Fragment(%s)" % self.key

    def __str__(self):
        return self.key


def _read_key(text, build=False):
    """(structure, frontier, canonical key) of a bracketed key, in one pass.

    The structure is built only when asked for, and is None otherwise. The
    canonical key is the tokens rejoined with single spaces, none just
    inside a bracket: what `write_tree` makes of the structure.
    """
    def fail(msg):
        raise ValueError("bad fragment key %r: %s" % (text, msg))

    if "\n" in text:  # a key is one line; others may hold '#' comment lines
        tokens = [tok for tok, _, _ in _tokenize(text)]
    else:
        tokens = _TOKEN.findall(text)
    if not tokens or tokens[0] != "(":
        fail("expected '('")
    last = len(tokens) - 1
    frontier = []
    stack = []               # (label, children) of each open node
    want_label = False
    for pos, tok in enumerate(tokens):
        if want_label:
            if tok == "(" or tok == ")":
                fail("expected label")
            stack.append((tok, []))
            want_label = False
        elif tok == "(":
            want_label = True
        elif tok == ")":
            label, children = stack.pop()
            if not children:
                node = _site(label)
                frontier.append(node)
            elif build:
                node = Tree(label, children)
            else:
                node = label      # the parent only reads that it has children
            if stack:
                stack[-1][1].append(node)
            elif pos != last:
                fail("trailing tokens")
            elif not children:
                fail("fragment must have at least one level")
        else:
            # tokens[pos - 1] is then the label of the word's node
            if tokens[pos - 2] != "(" or tokens[pos + 1:pos + 2] != [")"]:
                fail("a word must be the only child of its node")
            word = sys.intern(tok)
            stack[-1][1].append(word)
            frontier.append(word)
    if want_label:
        fail("expected label")
    if stack:
        fail("unbalanced")
    key = " ".join(tokens).replace("( ", "(").replace(" )", ")")
    return node if build else None, tuple(frontier), key


def count_fragments(tree: Tree) -> int:
    """Number of fragments of a corpus tree, by the per-node product formula.

    Fragments rooted at node n: the product over children c of
    (1 + fragments rooted at c), words contributing the bare factor 1.
    """
    per_node = {}

    def f(node):
        result = 1
        for child in node.children:
            if isinstance(child, Tree):
                result *= 1 + f(child)
        per_node[id(node)] = result
        return result

    f(tree)
    return sum(per_node[id(n)] for n in tree.subtrees())


def depth1_fragment(node: Tree) -> Fragment:
    """The single-level rewrite at a node: all children as frontier."""
    return Fragment(depth1_key(node))


def depth1_key(node: Tree) -> str:
    """The key of `depth1_fragment(node)`, written straight from the node."""
    children = node.children
    if isinstance(children[0], str):
        return "(%s %s)" % (node.label, children[0])
    return "(%s %s)" % (node.label,
                        " ".join(["(%s)" % child.label for child in children]))


def extract_all(tree: Tree, cap: int = 10**6) -> Counter:
    """Every fragment of the tree, with one count per (root node, cut).

    Raises FragmentOverflowError when the tree holds more than `cap`
    fragments; use sample_fragments on such corpora.
    """
    total = count_fragments(tree)
    if total > cap:
        raise FragmentOverflowError(
            "tree has %d fragments, above the cap of %d; "
            "use sample_fragments instead" % (total, cap))
    memo = {}

    def expansions(node):
        """The keys of the fragments rooted at a node."""
        got = memo.get(id(node))
        if got is None:
            # each child is its word, or its site or one of its keys
            options = [(child,) if isinstance(child, str)
                       else ("(%s)" % child.label, *expansions(child))
                       for child in node.children]
            got = memo[id(node)] = ["(%s %s)" % (node.label, " ".join(choice))
                                    for choice in product(*options)]
        return got

    result = Counter()
    for node in tree.subtrees():
        for key in expansions(node):
            result[Fragment(key)] += 1
    return result


def extract_treebank(treebank: Treebank, cap: int = 10**6) -> Counter:
    """extract_all summed over every tree."""
    result = Counter()
    for tree in treebank.trees:
        result.update(extract_all(tree, cap=cap))
    return result


def sample_fragments(treebank: Treebank, depth: int, count: int,
                     seed: int) -> Counter:
    """Draw `count` fragments of exactly `depth` by random growth.

    Each draw picks a tree, then a node, uniformly; the fragment grows by
    expanding uniformly chosen frontier sites until it reaches the target
    depth, after which each remaining site shallower than the target is
    expanded on an independent fair coin flip. Draws from nodes that cannot
    reach the target depth restart; when no node reaches it, SamplingError
    is raised before any draw. Deterministic given the seed.
    """
    if depth < 2:
        raise ValueError("sampling is for depth >= 2; depth-1 fragments "
                         "are extracted exhaustively")
    if count < 1:
        raise ValueError("count must be >= 1")
    if not treebank.trees:
        raise SamplingError("empty treebank")
    node_lists = treebank.nodes
    height_lists = treebank.heights
    if max(heights[0] for heights in height_lists) < depth:
        raise SamplingError("no node in the treebank reaches depth %d" % depth)

    # Each uniform index below is rng.randrange(n) written out as the
    # getrandbits loop of Random._randbelow_with_getrandbits, which
    # randrange runs for n >= 1 on Python 3.10-3.13: the same stream,
    # without two calls per draw.
    rng = random.Random(seed)
    getrandbits = rng.getrandbits
    n_trees = len(node_lists)
    tree_bits = n_trees.bit_length()
    draw_lists = [(heights, len(heights), len(heights).bit_length())
                  for heights in height_lists]
    counts = {}              # canonical key -> draws
    types = []               # one Fragment per key, in first-drawn order
    produced = 0
    while produced < count:
        ti = getrandbits(tree_bits)
        while ti >= n_trees:
            ti = getrandbits(tree_bits)
        heights, n_nodes, node_bits = draw_lists[ti]
        ni = getrandbits(node_bits)
        while ni >= n_nodes:
            ni = getrandbits(node_bits)
        if heights[ni] < depth:
            continue
        top = _grow(node_lists[ti][ni], depth, rng)
        key = _site_key(top)
        drawn = counts.get(key)
        if drawn is None:
            fragment = Fragment(key)
            # equal keys are equal fragments: one check covers every draw
            assert fragment.depth == depth
            types.append(fragment)
            counts[key] = 1
        else:
            counts[key] = drawn + 1
        produced += 1
    return Counter(dict(zip(types, counts.values())))


def _grow(root: Tree, target: int, rng: random.Random) -> list:
    """Grow a fragment of `target` levels at `root`; its top site record.

    A site record is [corpus node, depth, children once expanded].
    """
    getrandbits = rng.getrandbits
    top = [root, 0, None]
    open_sites = list(_expand(top))
    cur_depth = 1

    # grow until the target depth is reached; the site index is
    # rng.randrange(len(open_sites)) inlined, as in sample_fragments
    while cur_depth < target:
        n = len(open_sites)
        bits = n.bit_length()
        i = getrandbits(bits)
        while i >= n:
            i = getrandbits(bits)
        site = open_sites.pop(i)
        open_sites.extend(_expand(site))
        cur_depth = max(cur_depth, site[1] + 1)

    # decide the remaining expandable sites by coin flip; sites at the
    # target depth stay frontier so the depth is exact
    queue = deque(open_sites)
    while queue:
        site = queue.popleft()
        if site[1] < target and rng.random() < 0.5:
            queue.extend(_expand(site))
    return top


def _expand(site):
    """Give the site its children; return its new site records.

    A corpus node's children are one word or all nodes, so an expanded
    site's children are the node's word tuple or a list of site records.
    The list returned is that list itself, so callers must not change it.
    """
    node, site_depth, _ = site
    children = node.children
    if isinstance(children[0], str):
        site[2] = children
        return ()
    depth = site_depth + 1
    site[2] = sites = [[child, depth, None] for child in children]
    return sites


def _site_key(site):
    """The canonical key of the fragment a site record has grown."""
    node, _, children = site
    if children is None:
        return "(%s)" % node.label
    if isinstance(children[0], str):
        return "(%s %s)" % (node.label, children[0])
    return "(%s %s)" % (node.label,
                        " ".join([_site_key(child) for child in children]))


def headword(fragment: Fragment, rules: HeadRuleTable) -> str | None:
    """Word reached by following head children from the root; None when the
    head path exits the fragment at a substitution site."""
    node = fragment.structure
    while True:
        if node.is_preterminal:
            return node.word
        labels = [_node_label(c) for c in node.children]
        head = node.children[rules.head_index(node.label, labels)]
        if isinstance(head, Site):
            return None
        node = head


def nonheadword_count(fragment: Fragment, rules: HeadRuleTable) -> int:
    """Frontier words that are not the fragment's headword."""
    total = fragment.frontier_word_count
    if total == 0:
        return 0
    return total - (1 if headword(fragment, rules) is not None else 0)


@dataclass(frozen=True)
class RestrictionSet:
    """Bounds deciding which fragments enter the model; None = unbounded."""

    max_depth: int | None = None
    max_frontier_words: int | None = None
    max_unlex_depth: int | None = None
    max_nonheadwords: int | None = None
    sample_per_depth: int | None = None

    def __post_init__(self):
        for name in ("max_depth", "max_unlex_depth", "sample_per_depth"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError("%s must be >= 1 or None" % name)
        for name in ("max_frontier_words", "max_nonheadwords"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError("%s must be >= 0 or None" % name)


def passes(fragment: Fragment, restriction: RestrictionSet,
           rules: HeadRuleTable) -> bool:
    """True iff the fragment satisfies every bound of the restriction."""
    r = restriction
    if r.max_depth is not None and fragment.depth > r.max_depth:
        return False
    words = fragment.frontier_word_count
    if r.max_frontier_words is not None and words > r.max_frontier_words:
        return False
    if (r.max_unlex_depth is not None and words == 0
            and fragment.depth > r.max_unlex_depth):
        return False
    if (r.max_nonheadwords is not None
            and nonheadword_count(fragment, rules) > r.max_nonheadwords):
        return False
    return True


def dump_fragments(fragments: Counter) -> list:
    """TSV rows `count<TAB>rootlabel<TAB>canonical_key`, sorted for stable diffs."""
    return ["%d\t%s\t%s" % (count, fragment.root, fragment.key)
            for fragment, count in sorted(fragments.items(),
                                          key=lambda kv: (kv[0].root, kv[0].key))]
