"""Tree fragments: exhaustive extraction, random sampling, and restrictions.

A fragment is a connected piece of a corpus tree: its root is a labeled
node, every internal node keeps all children of its source node, and each
child subtree is either expanded in full depth-1 steps or cut off as a
frontier substitution site. Frontier positions therefore hold words or
`Site` markers.

Canonical text form, written by `tree.write_tree`: internal nodes as
``(label child ...)``, substitution sites as ``(label)``, words bare —
``(S (NP john) (VP))`` is the fragment with an expanded subject and an
open VP site.
"""

import random
from collections import Counter
from dataclasses import dataclass

from .tree import _TOKEN, Site, Tree, Treebank, _tokenize, write_tree
from .heads import HeadRuleTable


class FragmentOverflowError(ValueError):
    """Exhaustive extraction would exceed the fragment cap; sample instead."""


class SamplingError(ValueError):
    """No node in the treebank supports the requested fragment depth."""


def _node_label(child):
    return child.label if isinstance(child, (Tree, Site)) else None


class Fragment:
    """An immutable fragment; equality and hashing go through the canonical key."""

    __slots__ = ("structure", "key", "_depth", "_frontier")

    def __init__(self, structure: Tree):
        object.__setattr__(self, "structure", structure)
        object.__setattr__(self, "key", write_tree(structure))
        object.__setattr__(self, "_depth", None)
        object.__setattr__(self, "_frontier", None)

    def __setattr__(self, name, value):
        raise AttributeError("Fragment is immutable")

    @classmethod
    def from_string(cls, key: str) -> "Fragment":
        """Read a key in any spacing; the fragment's key is the canonical form."""
        structure, frontier, canonical = _read_key(key)
        fragment = object.__new__(cls)
        object.__setattr__(fragment, "structure", structure)
        object.__setattr__(fragment, "key", canonical)
        object.__setattr__(fragment, "_depth", None)
        object.__setattr__(fragment, "_frontier", frontier)
        return fragment

    @property
    def root(self) -> str:
        return self.structure.label

    @property
    def depth(self) -> int:
        if self._depth is None:
            object.__setattr__(self, "_depth", _depth_of(self.structure))
        return self._depth

    @property
    def frontier(self) -> tuple:
        """Frontier items left to right: word strings and Site markers."""
        if self._frontier is None:
            items = []

            def walk(node):
                for child in node.children:
                    if isinstance(child, Tree):
                        walk(child)
                    else:
                        items.append(child)

            walk(self.structure)
            object.__setattr__(self, "_frontier", tuple(items))
        return self._frontier

    @property
    def frontier_word_count(self) -> int:
        return sum(1 for item in self.frontier if isinstance(item, str))

    def __eq__(self, other):
        return isinstance(other, Fragment) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __reduce__(self):
        return (Fragment.from_string, (self.key,))

    def __repr__(self):
        return "Fragment(%s)" % self.key

    def __str__(self):
        return self.key


def _depth_of(node):
    best = 0
    for child in node.children:
        if isinstance(child, Tree):
            best = max(best, _depth_of(child))
        else:
            best = max(best, 0)
    return 1 + best


def _read_key(text):
    """(structure, frontier, canonical key) of a bracketed key, in one pass.

    The canonical key is the tokens rejoined with single spaces, none just
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
            if children:
                node = Tree(label, children)
            else:
                node = Site(label)
                frontier.append(node)
            if stack:
                stack[-1][1].append(node)
            elif pos != last:
                fail("trailing tokens")
        else:
            stack[-1][1].append(tok)
            frontier.append(tok)
    if want_label:
        fail("expected label")
    if stack:
        fail("unbalanced")
    if not isinstance(node, Tree):
        fail("fragment must have at least one level")
    key = " ".join(tokens).replace("( ", "(").replace(" )", ")")
    return node, tuple(frontier), key


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
    children = [c if isinstance(c, str) else Site(c.label) for c in node.children]
    return Fragment(Tree(node.label, children))


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
        got = memo.get(id(node))
        if got is not None:
            return got
        options = []
        for child in node.children:
            if isinstance(child, str):
                options.append((child,))
            else:
                options.append((Site(child.label), *expansions(child)))
        out = []
        _product(options, 0, [], out, node.label)
        memo[id(node)] = out
        return out

    def _product(options, i, chosen, out, label):
        if i == len(options):
            out.append(Tree(label, tuple(chosen)))
            return
        for choice in options[i]:
            chosen.append(choice)
            _product(options, i + 1, chosen, out, label)
            chosen.pop()

    result = Counter()
    for node in tree.subtrees():
        for structure in expansions(node):
            result[Fragment(structure)] += 1
    return result


def extract_treebank(treebank: Treebank, cap: int = 10**6) -> Counter:
    """extract_all summed over every tree."""
    result = Counter()
    for tree in treebank.trees:
        result.update(extract_all(tree, cap=cap))
    return result


def sample_fragments(treebank: Treebank, depth: int, count: int, seed: int,
                     max_restarts: int = 10**5) -> Counter:
    """Draw `count` fragments of exactly `depth` by random growth.

    Each draw picks a tree, then a node, uniformly; the fragment grows by
    expanding uniformly chosen frontier sites until it reaches the target
    depth, after which each remaining site shallower than the target is
    expanded on an independent fair coin flip. Draws from nodes that cannot
    reach the target depth restart. Deterministic given the seed.
    """
    if depth < 2:
        raise ValueError("sampling is for depth >= 2; depth-1 fragments "
                         "are extracted exhaustively")
    if count < 1:
        raise ValueError("count must be >= 1")
    if not treebank.trees:
        raise SamplingError("empty treebank")
    rng = random.Random(seed)
    node_lists = [list(t.subtrees()) for t in treebank.trees]
    depths = [{id(n): n.depth() for n in nodes} for nodes in node_lists]

    result = Counter()
    produced = 0
    restarts = 0
    while produced < count:
        ti = rng.randrange(len(node_lists))
        nodes = node_lists[ti]
        node = nodes[rng.randrange(len(nodes))]
        if depths[ti][id(node)] < depth:
            restarts += 1
            if restarts > max_restarts:
                raise SamplingError(
                    "no sampled node reached depth %d after %d restarts"
                    % (depth, max_restarts))
            continue
        result[_grow(node, depth, rng)] += 1
        produced += 1
    return result


def _grow(root: Tree, target: int, rng: random.Random) -> Fragment:
    # working nodes are [label, children-list]; sites appear as
    # (corpus_node, depth) placeholders until expanded or frozen
    def expand_placeholder(corpus_node, site_depth):
        children = []
        new_sites = []
        for child in corpus_node.children:
            if isinstance(child, str):
                children.append(child)
            else:
                placeholder = [child, site_depth + 1, None]
                children.append(placeholder)
                new_sites.append(placeholder)
        return [corpus_node.label, children], new_sites

    work, open_sites = expand_placeholder(root, 0)
    cur_depth = 1

    # grow until the target depth is reached
    while cur_depth < target:
        idx = rng.randrange(len(open_sites))
        placeholder = open_sites.pop(idx)
        corpus_node, site_depth, _ = placeholder
        node, new_sites = expand_placeholder(corpus_node, site_depth)
        placeholder[2] = node
        open_sites.extend(new_sites)
        cur_depth = max(cur_depth, site_depth + 1)

    # decide the remaining expandable sites by coin flip; sites at the
    # target depth stay frontier so the depth is exact
    queue = list(open_sites)
    while queue:
        placeholder = queue.pop(0)
        corpus_node, site_depth, _ = placeholder
        if site_depth >= target:
            continue
        if rng.random() < 0.5:
            node, new_sites = expand_placeholder(corpus_node, site_depth)
            placeholder[2] = node
            queue.extend(new_sites)

    def freeze(item):
        if isinstance(item, str):
            return item
        if len(item) == 3:  # placeholder
            corpus_node, _, expansion = item
            if expansion is None:
                return Site(corpus_node.label)
            return freeze(expansion)
        label, children = item
        return Tree(label, tuple(freeze(c) for c in children))

    fragment = Fragment(freeze(work))
    assert fragment.depth == target
    return fragment


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
