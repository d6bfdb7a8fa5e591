"""Bracketed parse trees: reading, writing, normalization, constituents.

Trees are immutable. A node is ``Tree(label, children)`` where children is
a tuple of subtrees, except at preterminals: a terminal word is stored as a
plain string and must be the only child of its parent. Fragment structures
are trees whose frontier may also hold `Site` substitution markers.
"""

import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property


class TreeReadError(ValueError):
    """Malformed bracketed input; carries 1-based line/column of the error."""

    def __init__(self, message, line, col):
        super().__init__("%s (line %d, column %d)" % (message, line, col))
        self.line = line
        self.col = col


class Site:
    """A frontier substitution site: a nonterminal awaiting expansion."""

    __slots__ = ("label",)

    def __init__(self, label):
        object.__setattr__(self, "label", label)

    def __setattr__(self, name, value):
        raise AttributeError("Site is immutable")

    def __eq__(self, other):
        return isinstance(other, Site) and self.label == other.label

    def __hash__(self):
        return hash((Site, self.label))

    def __reduce__(self):
        return (Site, (self.label,))

    def __repr__(self):
        return "Site(%r)" % self.label


class Tree:
    """A labeled node. ``children`` holds Tree instances, or one word string."""

    __slots__ = ("label", "children", "_hash")

    def __init__(self, label, children):
        children = tuple(children)
        if not children:
            raise ValueError("tree node %r must have at least one child" % label)
        if len(children) != 1:
            for child in children:
                if isinstance(child, str):
                    raise ValueError(
                        "terminal word with siblings under %r" % label)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "children", children)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("Tree is immutable")

    @property
    def is_preterminal(self):
        return isinstance(self.children[0], str)

    @property
    def word(self):
        """The terminal word, for preterminal nodes only."""
        if not self.is_preterminal:
            raise ValueError("%s is not a preterminal" % self.label)
        return self.children[0]

    def leaves(self):
        """Terminal words, left to right."""
        out = []
        stack = [self]
        while stack:
            node = stack.pop()
            if node.is_preterminal:
                out.append(node.children[0])
            else:
                stack.extend(reversed(node.children))
        return out

    def subtrees(self):
        """All labeled nodes in preorder, preterminals included; `Site`s
        are skipped."""
        stack = [self]
        while stack:
            node = stack.pop()
            if isinstance(node, Tree):
                yield node
                children = node.children
                # a preterminal's word and a lone site push nothing
                if len(children) > 1 or isinstance(children[0], Tree):
                    stack.extend(reversed(children))

    def depth(self):
        """Edges on the longest path from this node down to a word or site."""
        depth = 0
        level = [self]
        while level:
            depth += 1
            level = [child for node in level for child in node.children
                     if isinstance(child, Tree)]
        return depth

    def __eq__(self, other):
        if not isinstance(other, Tree):
            return NotImplemented
        return self.label == other.label and self.children == other.children

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.label, self.children)))
        return self._hash

    def __reduce__(self):
        return (Tree, (self.label, self.children))

    def __repr__(self):
        return "Tree(%s)" % write_tree(self)


@dataclass(frozen=True)
class Treebank:
    """An ordered tree collection.

    Its vocabulary, preorder node lists and node heights are computed on
    first use and kept, so training walks the trees once.
    """

    trees: tuple

    @cached_property
    def nodes(self) -> tuple:
        """Each tree's `subtrees()` as a list."""
        return tuple(list(tree.subtrees()) for tree in self.trees)

    @cached_property
    def heights(self) -> tuple:
        """`Tree.depth` of each node in `nodes`, one list per tree."""
        return tuple(_heights(nodes) for nodes in self.nodes)

    @cached_property
    def vocabulary(self) -> Counter:
        vocab = Counter()
        for nodes in self.nodes:
            for node in nodes:
                if node.is_preterminal:
                    vocab[node.word] += 1
        return vocab

    def __len__(self):
        return len(self.trees)


def _heights(nodes):
    """`Tree.depth` of each node of a preorder list, in one bottom-up pass.

    Walked backwards, a preorder list meets each node right after the
    subtrees of all its children, so their heights are on top of the stack.
    """
    heights = [0] * len(nodes)
    stack = []
    for i in range(len(nodes) - 1, -1, -1):
        best = 0
        for child in nodes[i].children:
            if isinstance(child, Tree):
                best = max(best, stack.pop())
        heights[i] = best + 1
        stack.append(best + 1)
    return heights


# a bracket, or a run of anything else that is not whitespace; `\s` is
# exactly the set of characters `str.isspace` accepts
_TOKEN = re.compile(r"[()]|[^\s()]+")


def _tokenize(text):
    """Yield (token, line, col) with 1-based positions; '#' comment lines skipped."""
    for lineno, line in enumerate(text.split("\n"), start=1):
        if line.lstrip().startswith("#"):
            continue
        for match in _TOKEN.finditer(line):
            yield match.group(), lineno, match.start() + 1


def read_trees(text: str) -> list[Tree]:
    """Parse one or more bracketed trees.

    An outer label-less wrapper around a single tree, as in
    ``( (S ...) )``, is stripped.

    >>> [write_tree(t) for t in read_trees("(NP mary) ( (S (NP john) (VP (V sleeps))) )")]
    ['(NP mary)', '(S (NP john) (VP (V sleeps)))']
    """
    trees = []
    # stack frames: [line, col, label-or-None, children]
    stack = []
    for tok, line, col in _tokenize(text):
        if tok == "(":
            stack.append([line, col, None, []])
        elif tok == ")":
            if not stack:
                raise TreeReadError("unbalanced brackets: unexpected ')'", line, col)
            oline, ocol, label, children = stack.pop()
            if label is None and len(children) == 1 and isinstance(children[0], Tree):
                node = children[0]  # wrapper convention
            elif label is None or not children:
                raise TreeReadError("empty node", oline, ocol)
            else:
                try:
                    node = Tree(label, children)
                except ValueError as err:     # a word with siblings
                    raise TreeReadError(str(err), oline, ocol) from None
            if stack:
                stack[-1][3].append(node)
            else:
                trees.append(node)
        else:
            if not stack:
                raise TreeReadError("token %r outside brackets" % tok, line, col)
            frame = stack[-1]
            if frame[2] is None and not frame[3]:
                frame[2] = tok
            else:
                frame[3].append(tok)
    if stack:
        line, col = stack[-1][0], stack[-1][1]
        raise TreeReadError("unbalanced brackets: '(' never closed", line, col)
    return trees


def read_treebank(text: str) -> Treebank:
    return Treebank(tuple(read_trees(text)))


def write_tree(tree: Tree) -> str:
    """Bracketed form; inverse of read_trees for a single tree.

    Substitution sites inside a fragment structure are written ``(label)``.

    >>> write_tree(read_trees("(S  (NP john)\\n (VP (V sleeps)))")[0])
    '(S (NP john) (VP (V sleeps)))'
    """
    parts = ["(", tree.label]
    for child in tree.children:
        parts.append(" ")
        if isinstance(child, Tree):
            parts.append(write_tree(child))
        elif isinstance(child, Site):
            parts.append("(%s)" % child.label)
        else:
            parts.append(child)
    parts.append(")")
    return "".join(parts)


def write_treebank(treebank: Treebank) -> str:
    return "\n".join(write_tree(t) for t in treebank.trees) + "\n"


_DELETED_PRETERMINALS = frozenset({"-NONE-", "''", "``"})


def strip_label(label: str) -> str:
    """Drop function tags and co-indexing: cut at the first '-' or '='.

    Labels starting with '-' (-NONE-, -LRB-, -RRB-) are left alone, as are
    pure punctuation labels, which contain no tag separators anyway.
    """
    if label.startswith("-"):
        return label
    for sep in "-=":
        i = label.find(sep)
        if i > 0:
            label = label[:i]
    return label


def normalize(tree: Tree) -> Tree | None:
    """Strip tag/co-index suffixes, delete traces and quotation marks.

    Deletion of a node removes ancestors left childless. Returns None when
    the whole tree is deleted; callers count such trees as skipped.
    """
    # Nodes in mirrored preorder (children pushed left to right, so popped
    # right to left), then rebuilt in reverse: each node finds its
    # children's results, left to right, on top of the value stack.
    order = []
    stack = [tree]
    while stack:
        node = stack.pop()
        order.append(node)
        children = node.children
        if not isinstance(children[0], str):
            stack.extend(children)
    labels = {}
    values = []
    for node in reversed(order):
        label = labels.get(node.label)
        if label is None:
            label = labels[node.label] = strip_label(node.label)
        children = node.children
        if isinstance(children[0], str):
            values.append(None if node.label in _DELETED_PRETERMINALS
                          else Tree(label, children))
        else:
            width = len(children)
            kept = [child for child in values[-width:] if child is not None]
            del values[-width:]
            values.append(Tree(label, kept) if kept else None)
    return values[0]


def normalize_treebank(treebank: Treebank) -> tuple[Treebank, int]:
    """Normalize every tree; returns (treebank, number of skipped trees)."""
    kept = []
    skipped = 0
    for tree in treebank.trees:
        out = normalize(tree)
        if out is None:
            skipped += 1
        else:
            kept.append(out)
    return Treebank(tuple(kept)), skipped


def constituents(tree: Tree, exclude_root: bool = False) -> Counter:
    """Multiset of (label, start, end) spans over non-preterminal nodes.

    Spans index words, start inclusive, end exclusive. Preterminals and
    words are excluded; duplicate spans (unary chains with one label) keep
    their multiplicity.
    """
    spans = Counter()
    # a stack of (label, start, child iterator) frames: each node's span is
    # counted when its last child is done, in the order a recursion would
    end = 0
    stack = [] if tree.is_preterminal else [(tree.label, 0,
                                             iter(tree.children))]
    while stack:
        label, start, children = stack[-1]
        for child in children:
            if child.is_preterminal:
                end += 1
            else:
                stack.append((child.label, end, iter(child.children)))
                break
        else:
            stack.pop()
            spans[(label, start, end)] += 1
    if exclude_root and not tree.is_preterminal:
        spans[(tree.label, 0, end)] -= 1
        spans = +spans
    return spans
