"""Bracketed parse trees: reading, writing, normalization, constituents.

Trees are immutable. A node is ``Tree(label, children)`` where children is
a tuple of subtrees, except at preterminals: a terminal word is stored as a
plain string and must be the only child of its parent. Fragment structures
are trees whose frontier may also hold `Site` substitution markers.
"""

import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import is_


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
        return _heights(list(self.subtrees()))[0]

    def __eq__(self, other):
        if not isinstance(other, Tree):
            return NotImplemented
        # node pairs still to compare, so a deep chain needs no recursion
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if a.label != b.label or len(a.children) != len(b.children):
                return False
            for x, y in zip(a.children, b.children):
                if isinstance(x, Tree) and isinstance(y, Tree):
                    stack.append((x, y))
                elif x != y:
                    return False
        return True

    def __hash__(self):
        """hash((label, children)), filled in bottom-up over the nodes not
        yet hashed, so hashing a child never recurses further."""
        if self._hash is None:
            pending = []
            stack = [self]
            while stack:
                node = stack.pop()
                if node._hash is None:
                    pending.append(node)
                    stack.extend(child for child in node.children
                                 if isinstance(child, Tree))
            for node in reversed(pending):
                _set_hash(node, hash((node.label, node.children)))
        return self._hash

    def __reduce__(self):
        # flat, so that pickling a deep tree nests no call per level: each
        # node in preorder as its label and child count, each word or site
        # below it as itself and 0
        flat = []
        stack = [self]
        while stack:
            node = stack.pop()
            if isinstance(node, Tree):
                flat += (node.label, len(node.children))
                stack.extend(reversed(node.children))
            else:
                flat += (node, 0)
        return (_unflatten, (tuple(flat),))

    def __repr__(self):
        return "Tree(%s)" % write_tree(self)


# the slots of a Tree, for `_node`, which makes a node without
# `Tree.__init__`'s checks (and for `Tree.__hash__`, which fills `_hash`)
_set_label = Tree.label.__set__
_set_children = Tree.children.__set__
_set_hash = Tree._hash.__set__


def _node(label, children):
    """A Tree of `children` already known to be a non-empty tuple of
    subtrees, or of one word."""
    node = object.__new__(Tree)
    _set_label(node, label)
    _set_children(node, children)
    _set_hash(node, None)
    return node


def _unflatten(flat):
    """The Tree that `Tree.__reduce__` flattened: read backwards, each
    node's children are the values on top of the stack, first child
    uppermost."""
    stack = []
    pop = stack.pop
    for i in range(len(flat) - 2, -1, -2):
        count = flat[i + 1]
        if count:
            stack.append(_node(flat[i], tuple([pop() for _ in range(count)])))
        else:
            stack.append(flat[i])
    return stack[0]


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
        return tuple(map(_heights, self.nodes))

    @cached_property
    def vocabulary(self) -> Counter:
        # a node's first child is its word exactly when it is a preterminal
        return Counter([word for nodes in self.nodes for node in nodes
                        if isinstance(word := node.children[0], str)])

    def __len__(self):
        return len(self.trees)


def _bottom_up(nodes, value, *args):
    """`value(node, its child nodes' values, *args)` for each node of a
    preorder list, without recursion: walked backwards, the list meets each
    node right after its children's subtrees, so their values are on top
    of the stack."""
    values = [None] * len(nodes)
    stack = []
    for i in range(len(nodes) - 1, -1, -1):
        node = nodes[i]
        children = node.children
        below = () if isinstance(children[0], str) else [
            stack.pop() for child in children if isinstance(child, Tree)]
        values[i] = got = value(node, below, *args)
        stack.append(got)
    return values


_is_tree = Tree.__instancecheck__


def _heights(nodes):
    """`Tree.depth` of each node of a preorder list, walked as `_bottom_up`
    walks it: a word or a site below a node counts as nothing."""
    heights = []
    stack = []
    for node in reversed(nodes):
        children = node.children
        if isinstance(children[0], str):
            height = 1
        else:
            below = sum(map(_is_tree, children))
            if below == 1:
                height = stack.pop() + 1
            elif below:
                height = max(stack[-below:]) + 1
                del stack[-below:]
            else:
                height = 1
        stack.append(height)
        heights.append(height)
    heights.reverse()
    return heights


# a bracket, or a run of anything else that is not whitespace; `\s` is
# exactly the set of characters `str.isspace` accepts
_TOKEN = re.compile(r"[()]|[^\s()]+")


def _read_error(message, text, line, index):
    """The TreeReadError for the `index`-th token of a line, its column
    found only now, when the error is raised."""
    match = list(_TOKEN.finditer(text.split("\n")[line - 1]))[index]
    return TreeReadError(message, line, match.start() + 1)


def read_trees(text: str) -> list[Tree]:
    """Parse one or more bracketed trees.

    An outer label-less wrapper around a single tree, as in
    ``( (S ...) )``, is stripped. Lines whose first non-blank character
    is ``#`` are comments.

    Each line is split into tokens by one regex scan. A token's column is
    worked out only for an error, which carries the line and column of
    the offending token (of the opening bracket, for a malformed node).
    Nodes are made without `Tree`'s checks, which the reader has made.

    >>> [write_tree(t) for t in read_trees("(NP mary) ( (S (NP john) (VP (V sleeps))) )")]
    ['(NP mary)', '(S (NP john) (VP (V sleeps)))']
    """
    trees = []
    # the open node is (label, children, line, index of its "(" in the
    # line's tokens), with children None when no node is open; the nodes
    # enclosing it wait on the stack
    label = children = line = index = None
    stack = []
    for lineno, text_line in enumerate(text.split("\n"), start=1):
        if text_line.lstrip().startswith("#"):
            continue
        for i, tok in enumerate(_TOKEN.findall(text_line)):
            if tok == "(":
                if children is not None:
                    stack.append((label, children, line, index))
                label, children, line, index = None, [], lineno, i
            elif tok == ")":
                if children is None:
                    raise _read_error("unbalanced brackets: unexpected ')'",
                                      text, lineno, i)
                if label is None:
                    # a label-less node's first child is a node: one child
                    # is a wrapper, and anything else an empty node
                    if len(children) != 1:
                        raise _read_error("empty node", text, line, index)
                    node = children[0]
                elif not children:
                    raise _read_error("empty node", text, line, index)
                elif len(children) > 1 and str in map(type, children):
                    raise _read_error("terminal word with siblings under %r"
                                      % label, text, line, index)
                else:
                    node = _node(label, tuple(children))
                if stack:
                    label, children, line, index = stack.pop()
                    children.append(node)
                else:
                    trees.append(node)
                    children = None
            elif children is None:
                raise _read_error("token %r outside brackets" % tok,
                                  text, lineno, i)
            elif label is None and not children:
                label = tok
            else:
                children.append(tok)
    if children is not None:
        raise _read_error("unbalanced brackets: '(' never closed",
                          text, line, index)
    return trees


def read_treebank(text: str) -> Treebank:
    return Treebank(tuple(read_trees(text)))


def write_tree(tree: Tree) -> str:
    """Bracketed form; inverse of read_trees for a single tree.

    Substitution sites inside a fragment structure are written ``(label)``.

    >>> write_tree(read_trees("(S  (NP john)\\n (VP (V sleeps)))")[0])
    '(S (NP john) (VP (V sleeps)))'
    """
    # one child iterator per open node, as in `constituents`
    parts = ["(" + tree.label]
    stack = [iter(tree.children)]
    while stack:
        for child in stack[-1]:
            if isinstance(child, Tree):
                parts.append(" (" + child.label)
                stack.append(iter(child.children))
                break
            parts.append(" (%s)" % child.label if isinstance(child, Site)
                         else " " + child)
        else:
            stack.pop()
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


# a treebank has few distinct labels: each is stripped once
_stripped = lru_cache(maxsize=1 << 16)(strip_label)


def normalize(tree: Tree) -> Tree | None:
    """Strip tag/co-index suffixes, delete traces and quotation marks.

    Deletion of a node removes ancestors left childless. Returns None when
    the whole tree is deleted; callers count such trees as skipped. A
    subtree that normalization leaves unchanged is returned as it is, not
    rebuilt: trees are immutable, so input and output may share it.
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
    values = []
    for node in reversed(order):
        old = node.label
        label = _stripped(old)
        children = node.children
        if isinstance(children[0], str):
            if old in _DELETED_PRETERMINALS:
                node = None
            elif label != old:
                node = _node(label, children)
        else:
            width = len(children)
            below = values[-width:]
            del values[-width:]
            if label != old or not all(map(is_, below, children)):
                kept = [child for child in below if child is not None]
                node = _node(label, tuple(kept)) if kept else None
        values.append(node)
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
