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
open VP site. Every key is read by one walk over its space-separated
pieces, which yields its frontier and, for `Fragment.structure`, its
`Tree`; a key in other spacing is rejoined from its tokens first (see
_read_key).
"""

import random
import re
import sys
from collections import Counter, deque
from dataclasses import dataclass
from itertools import accumulate, chain, compress, product
from math import prod

from .tree import _TOKEN, Site, Tree, Treebank, _bottom_up
from .heads import HeadRuleTable


class FragmentOverflowError(ValueError):
    """Exhaustive extraction would exceed the fragment cap; sample instead."""


class SamplingError(ValueError):
    """No node in the treebank supports the requested fragment depth."""


# in a canonical key a site is the only "(label)" without a space
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
        """A key read in any spacing, held in its canonical form."""
        frontier, canonical = _read_key(key)
        fragment = cls(canonical)
        object.__setattr__(fragment, "_frontier", frontier)
        return fragment

    @property
    def root(self) -> str:
        return key_root(self.key)

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
            object.__setattr__(self, "_frontier", _read_key(self.key)[0])
        return self._frontier

    @property
    def frontier_word_count(self) -> int:
        # each space in a key starts a child: a word or a bracketed node
        return self.key.count(" ") - self.key.count(" (")

    @property
    def structure(self) -> Tree:
        """The fragment as a `Tree` with `Site` leaves, built by a walk over
        the pieces of its canonical key (see _piece)."""
        pieces = KeyPieces()
        labels = []            # the label of each open node
        children = [[]]        # its children, after a list for the root
        for piece in _read_key(self.key, pieces)[1].split(" "):
            kind = pieces[piece]
            if kind is _OPENING:
                labels.append(piece[1:])
                children.append([])
                continue
            change, item, _ = kind
            children[-1].append(item)
            for _ in range(-change):
                node = Tree(labels.pop(), children.pop())
                children[-1].append(node)
        return children[0][0]

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


def key_root(key: str) -> str:
    """The root label of a canonical key."""
    return key[1:key.index(" ")]


def _read_key(text, pieces=None):
    """(frontier, canonical key) of a bracketed key.

    The canonical key is the key's tokens rejoined with single spaces, none
    just inside a bracket: what `write_tree` makes of its structure. A key
    that is already canonical, as every key `dop train` writes is, is read
    piece by piece (see _canonical_frontier); any other text is rejoined
    first, and the rejoined text read the same way.
    """
    frontier = _canonical_frontier(text, pieces)
    if frontier is not None:
        return frontier, text
    key = " ".join(_TOKEN.findall(text)).replace("( ", "(").replace(" )", ")")
    frontier = _canonical_frontier(key, pieces)
    if frontier is None:
        raise ValueError("bad fragment key %r" % text)
    return frontier, key


class KeyPieces(dict):
    """What each piece of a canonical key reads as (see _piece), read on
    first lookup. Keys share most of their pieces, so a reader of many
    keys that shares one reads each distinct piece once."""

    def __missing__(self, piece):
        kind = self[piece] = _piece(piece)
        return kind


def _canonical_frontier(text, pieces=None):
    """The frontier of a well-formed canonical key, or None for any other
    text, which _read_key then rejoins from its tokens.

    A canonical key splits at its spaces into pieces of three kinds (see
    _piece). A word piece must follow an opening one, which makes the word
    its node's only child, and the root's closing bracket must be the
    key's last. pieces is a `KeyPieces` to read them through, or None.
    """
    if pieces is None:
        pieces = KeyPieces()
    split = text.split(" ")
    last = len(split) - 1
    frontier = []
    depth = 0
    opened = False
    for i, piece in enumerate(split):
        kind = pieces[piece]
        if kind is _OPENING:
            depth += 1
            opened = True
            continue
        if kind is None:
            return None
        change, item, word = kind
        if word and not opened:
            return None
        frontier.append(item)
        depth += change
        opened = False
        if depth <= 0 and (depth < 0 or i != last):
            return None
    if depth != 0 or last == 0:
        return None
    return tuple(frontier)


_OPENING = (1, None, False)


def _piece(piece):
    """What a space-separated piece of a canonical key holds: _OPENING for
    "(label", which opens a node with children; (depth change, site, False)
    for "(label)" and (depth change, word, True) for "word)", each followed
    by the closes of its ancestors; None for a piece no canonical key
    holds, such as one that is empty or holds a blank."""
    if piece.split() != [piece]:
        return None
    end = piece.find(")")
    if end < 0:
        if piece.rfind("(") != 0 or len(piece) == 1:
            return None
        return _OPENING
    closes = len(piece) - end
    if piece.count(")") != closes:
        return None
    if piece[0] == "(":
        if piece.rfind("(") != 0 or end == 1:
            return None
        return 1 - closes, _site(piece[1:end]), False
    if end == 0 or "(" in piece:
        return None
    return -closes, sys.intern(piece[:end]), True


def count_fragments(tree: Tree, depth: int | None = None) -> int:
    """Number of fragments of a corpus tree with exactly `depth` levels (of
    any depth when None), by the per-node product formula.

    g_k(n), the fragments of at most k levels rooted at node n, is the
    product over children c of (1 + g_{k-1}(c)), with g_0 = 0 and a word
    contributing the bare factor 1; g_k - g_{k-1} have exactly k levels.
    """
    return _count(list(tree.subtrees()), depth)


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


def _count(nodes, depth):
    """count_fragments over a tree's preorder node list."""
    if depth is not None and depth < 1:
        raise ValueError("depth must be >= 1 or None")
    levels = _bottom_up(nodes, _level_counts, depth)
    if depth is None:
        return sum(g[-1] for g in levels)
    return sum(g[depth] - g[depth - 1] for g in levels if len(g) > depth)


def _level_counts(node, below, depth):
    """[g_0, g_1, ...] at a node, up to its height and `depth`: g_k is the
    same for every k from the height on."""
    g = [0, 1]
    size = 1 + max(map(len, below), default=1)
    for k in range(2, size if depth is None else min(size, depth + 1)):
        g.append(prod(1 + c[min(k - 1, len(c) - 1)] for c in below))
    return g


def _level_keys(node, below, depth):
    """(keys, levels) of the fragments of at most `depth` levels at a node
    (all, when None), in the order of the product of each child's choices:
    its site, or one of its fragments of fewer levels."""
    if not below:
        return [depth1_key(node)], [1]
    keys, levels = [], []
    for child, (child_keys, child_levels) in zip(node.children, below):
        keep = [depth is None or level < depth for level in child_levels]
        keys.append(("(%s)" % child.label, *compress(child_keys, keep)))
        levels.append((0, *compress(child_levels, keep)))
    return (["(%s %s)" % (node.label, " ".join(choice))
             for choice in product(*keys)],
            [1 + max(choice) for choice in product(*levels)])


def _fragment_keys(nodes, depth, cap):
    """Keys of a tree's fragments of exactly `depth` levels (all, when
    None), by root node in preorder; the cap is checked on their count
    before any key is built."""
    total = len(nodes) if depth == 1 else _count(nodes, depth)
    if total > cap:
        raise FragmentOverflowError(
            "tree has %d fragments%s, above the cap of %d; use "
            "sample_fragments instead"
            % (total, "" if depth is None else " of depth %d" % depth, cap))
    if depth == 1:
        return map(depth1_key, nodes)
    tagged = _bottom_up(nodes, _level_keys, depth) if total else ()
    return [key for keys, levels in tagged for key, level in zip(keys, levels)
            if depth is None or level == depth]


def _tally(keys, depth=None) -> Counter:
    """Fragment counts from canonical keys: the keys are counted first, and
    a Fragment is built once per type, in first-seen order. A depth, when
    given, is every key's, and each Fragment keeps it."""
    fragments = Counter()
    for key, count in Counter(keys).items():
        fragment = Fragment(key)
        if depth is not None:
            object.__setattr__(fragment, "_depth", depth)
        fragments[fragment] = count
    return fragments


def extract_all(tree: Tree, depth: int | None = None,
                cap: int = 10**6) -> Counter:
    """Every fragment of the tree with exactly `depth` levels (of any depth
    when None), with one count per (root node, cut).

    Raises FragmentOverflowError when the tree holds more than `cap` such
    fragments; use sample_fragments on such corpora.
    """
    return _tally(_fragment_keys(list(tree.subtrees()), depth, cap), depth)


def extract_treebank(treebank: Treebank, depth: int | None = None,
                     cap: int = 10**6) -> Counter:
    """extract_all summed over every tree; the cap holds per tree."""
    return _tally(chain.from_iterable(
        _fragment_keys(nodes, depth, cap) for nodes in treebank.nodes), depth)


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

    def draws():
        for _ in range(count):
            while True:
                ti = getrandbits(tree_bits)
                while ti >= n_trees:
                    ti = getrandbits(tree_bits)
                heights, n_nodes, node_bits = draw_lists[ti]
                ni = getrandbits(node_bits)
                while ni >= n_nodes:
                    ni = getrandbits(node_bits)
                if heights[ni] >= depth:
                    break
            yield _site_key(_grow(node_lists[ti][ni], depth, rng))

    fragments = _tally(draws())
    # equal keys are equal fragments: one check per type covers every draw
    assert all(fragment.depth == depth for fragment in fragments)
    return fragments


def _grow(root: Tree, target: int, rng: random.Random) -> list:
    """Grow a fragment of `target` levels at `root`; its top site record.

    A site record is [corpus node, depth, children once expanded]. A
    corpus node's children are one word or all nodes, so an expanded
    site's children are the node's word tuple or a list of site records.
    """
    getrandbits = rng.getrandbits
    top = [root, 0, None]
    open_sites = []
    site = top
    cur_depth = 0

    # grow until the target depth is reached, expanding the top site and
    # then one open site at a time; the site index is
    # rng.randrange(len(open_sites)) inlined, as in sample_fragments
    while True:
        node, depth, _ = site
        depth += 1
        children = node.children
        if isinstance(children[0], str):
            site[2] = children
        else:
            site[2] = sites = [[child, depth, None] for child in children]
            open_sites += sites
        if depth > cur_depth:
            cur_depth = depth
        if cur_depth >= target:
            break
        n = len(open_sites)
        bits = n.bit_length()
        i = getrandbits(bits)
        while i >= n:
            i = getrandbits(bits)
        site = open_sites.pop(i)

    # decide the remaining expandable sites by coin flip; sites at the
    # target depth stay frontier so the depth is exact
    queue = deque(open_sites)
    while queue:
        node, depth, _ = site = queue.popleft()
        if depth < target and rng.random() < 0.5:
            children = node.children
            if isinstance(children[0], str):
                site[2] = children
            else:
                depth += 1
                site[2] = sites = [[child, depth, None] for child in children]
                queue += sites
    return top


def _site_key(top):
    """The canonical key of the fragment a site record has grown; its top
    site is expanded over child nodes, as every sampled fragment's is."""
    # one iterator over each open site's child records, as in write_tree
    node, _, children = top
    parts = ["(" + node.label]
    stack = [iter(children)]
    while stack:
        for node, _, children in stack[-1]:
            if children is None:
                parts.append(" (%s)" % node.label)
            elif isinstance(children[0], str):
                parts.append(" (%s %s)" % (node.label, children[0]))
            else:
                parts.append(" (" + node.label)
                stack.append(iter(children))
                break
        else:
            stack.pop()
            parts.append(")")
    return "".join(parts)


def headword(fragment: Fragment, rules: HeadRuleTable) -> str | None:
    """Word reached by following head children from the root; None when the
    head path exits the fragment at a substitution site.

    The path is walked over the key's tokens: a node is the index of its
    "(", its label follows, and then its word or its children's brackets.
    """
    tokens = _TOKEN.findall(fragment.key)
    node = 0
    while True:
        first = tokens[node + 2]
        if first != "(":
            return first               # a preterminal's word
        starts = []                    # each child's "(", left to right
        nesting = 0
        for pos in range(node + 2, len(tokens)):
            tok = tokens[pos]
            if tok == "(":
                if nesting == 0:
                    starts.append(pos)
                nesting += 1
            elif tok == ")":
                if nesting == 0:
                    break
                nesting -= 1
        head = starts[rules.head_index(
            tokens[node + 1], [tokens[start + 1] for start in starts])]
        if tokens[head + 2] == ")":
            return None                # a site
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
