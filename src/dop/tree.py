"""Bracketed parse trees: reading, writing, normalization, constituents.

Trees are immutable. A node is ``Tree(label, children)`` where children is
a tuple of subtrees, except at preterminals: a terminal word is stored as a
plain string and must be the only child of its parent. Fragment structures
are trees whose frontier may also hold `Site` substitution markers.
"""

import re
from collections import Counter
from dataclasses import dataclass, field


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
        if len(children) != 1 and any(isinstance(c, str) for c in children):
            raise ValueError("terminal word with siblings under %r" % label)
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
        """All labeled nodes in preorder, preterminals included."""
        yield self
        for child in self.children:
            if isinstance(child, Tree):
                yield from child.subtrees()

    def depth(self):
        """Edges on the longest path from this node down to a word."""
        if self.is_preterminal:
            return 1
        return 1 + max(c.depth() for c in self.children)

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
    """An ordered tree collection with its symbol inventory and vocabulary."""

    trees: tuple
    inventory: frozenset = field(init=False)
    vocabulary: Counter = field(init=False)

    def __post_init__(self):
        labels = set()
        vocab = Counter()
        for tree in self.trees:
            for node in tree.subtrees():
                labels.add(node.label)
                if node.is_preterminal:
                    vocab[node.word] += 1
        object.__setattr__(self, "inventory", frozenset(labels))
        object.__setattr__(self, "vocabulary", vocab)

    def __len__(self):
        return len(self.trees)


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
                if any(isinstance(c, str) for c in children) and len(children) > 1:
                    raise TreeReadError(
                        "terminal with siblings under %r" % label, oline, ocol)
                node = Tree(label, children)
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
    if tree.is_preterminal:
        if tree.label in _DELETED_PRETERMINALS:
            return None
        return Tree(strip_label(tree.label), tree.children)
    children = [c for c in (normalize(child) for child in tree.children) if c]
    if not children:
        return None
    return Tree(strip_label(tree.label), children)


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

    def walk(node, start):
        if node.is_preterminal:
            return start + 1
        end = start
        for child in node.children:
            end = walk(child, end)
        spans[(node.label, start, end)] += 1
        return end

    walk(tree, 0)
    if exclude_root and not tree.is_preterminal:
        spans[(tree.label, 0, len(tree.leaves()))] -= 1
        spans = +spans
    return spans
