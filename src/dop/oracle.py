"""Exact brute-force reference for small models.

Enumerates every derivation of a sentence by expanding the leftmost open
substitution site with each matching model fragment, in exact rational
arithmetic throughout. This is deliberately independent of the chart
parser and imports nothing from it: trees are built by left-associative
composition (`compose`, defined here) and probabilities multiply model
fractions, so agreement between the two paths checks both.
"""

from dataclasses import dataclass
from fractions import Fraction

from .fragments import Fragment
from .model import FragmentModel
from .tree import Site, Tree, write_tree


class OracleOverflowError(ValueError):
    """The enumeration cap was exceeded (huge or cyclic derivation sets)."""


class CompositionError(ValueError):
    pass


def compose(left, right):
    """Substitute `right` on the leftmost open site of `left`.

    Left may be a Fragment or a Tree (a Tree has no open site and always
    fails); right is a Fragment or a closed Tree. Returns a Tree when the
    result has no remaining site, else a Fragment.
    """
    lstruct = left.structure if isinstance(left, Fragment) else left
    rstruct = right.structure if isinstance(right, Fragment) else right

    def substitute(node):
        # returns (new node, replaced?) rebuilding only the leftmost path
        children = list(node.children)
        for i, child in enumerate(children):
            if isinstance(child, Site):
                if child.label != rstruct.label:
                    raise CompositionError(
                        "leftmost open site is %s, cannot substitute %s"
                        % (child.label, rstruct.label))
                children[i] = rstruct
                return Tree(node.label, children), True
            if isinstance(child, Tree):
                new_child, done = substitute(child)
                if done:
                    children[i] = new_child
                    return Tree(node.label, children), True
        return node, False

    result, done = substitute(lstruct)
    if not done:
        raise CompositionError("no open substitution site on the left operand")
    fragment = Fragment(result)
    if any(isinstance(item, Site) for item in fragment.frontier):
        return fragment
    return result


@dataclass(frozen=True)
class OracleDerivation:
    fragments: tuple
    probability: Fraction
    tree: Tree


@dataclass(frozen=True)
class OracleReport:
    sentence: tuple
    derivations: tuple        # every derivation, exact probabilities
    tree_sums: dict           # bracketed tree -> Fraction sum
    trees: dict               # bracketed tree -> Tree

    def derivation_count(self, bracketed=None) -> int:
        if bracketed is None:
            return len(self.derivations)
        return sum(1 for d in self.derivations
                   if write_tree(d.tree) == bracketed)


def enumerate_derivations(model: FragmentModel, sentence, cap: int = 10**6,
                          start_labels=None) -> OracleReport:
    """Every derivation of the sentence under the model.

    `cap` bounds expansion steps as well as finished derivations, so
    models with unary fragment cycles overflow instead of hanging.
    """
    sentence = tuple(sentence)
    if start_labels is None:
        start_labels = model.start_labels
    by_root = {}
    for key in sorted(model.entries):
        entry = model.entries[key]
        by_root.setdefault(entry.fragment.root, []).append(
            (entry.fragment, entry.probability))

    derivations = []
    steps = 0

    def expand(seq, pos, chosen, probability):
        nonlocal steps
        steps += 1
        if steps > cap or len(derivations) > cap:
            raise OracleOverflowError(
                "more than %d enumeration steps; instance too large" % cap)
        while seq and isinstance(seq[0], str):
            if pos >= len(sentence) or sentence[pos] != seq[0]:
                return
            seq = seq[1:]
            pos += 1
        if not seq:
            if pos == len(sentence):
                derivations.append((tuple(chosen), probability))
            return
        # every open site must still yield at least one word
        sites = sum(1 for item in seq if isinstance(item, Site))
        if pos + sites + (len(seq) - sites) > len(sentence):
            return
        root = seq[0].label
        for fragment, p in by_root.get(root, ()):
            chosen.append(fragment)
            expand(fragment.frontier + seq[1:], pos, chosen, probability * p)
            chosen.pop()

    for label in sorted(start_labels):
        expand((Site(label),), 0, [], Fraction(1))

    tree_sums = {}
    trees = {}
    realized = []
    for fragments, probability in derivations:
        tree = fragments[0]
        for fragment in fragments[1:]:
            tree = compose(tree, fragment)
        if isinstance(tree, Fragment):
            # a single already-closed fragment composes with nothing
            tree = tree.structure
        assert isinstance(tree, Tree) and tuple(tree.leaves()) == sentence
        bracketed = write_tree(tree)
        tree_sums[bracketed] = tree_sums.get(bracketed, Fraction(0)) + probability
        trees[bracketed] = tree
        realized.append(OracleDerivation(fragments, probability, tree))
    return OracleReport(sentence=sentence, derivations=tuple(realized),
                        tree_sums=tree_sums, trees=trees)


def exact_mpp(report: OracleReport) -> Tree:
    """Tree with the largest exact derivation-probability sum.

    Ties break like the parser's selection: larger best single derivation
    first, then the lexicographically smaller bracketed form.
    """
    if not report.derivations:
        raise ValueError("no derivations in report")
    best_single = {}
    for deriv in report.derivations:
        bracketed = write_tree(deriv.tree)
        if (bracketed not in best_single
                or deriv.probability > best_single[bracketed]):
            best_single[bracketed] = deriv.probability
    ranked = sorted(
        report.tree_sums,
        key=lambda b: (-report.tree_sums[b], -best_single[b], b))
    return report.trees[ranked[0]]


def report_lines(report: OracleReport) -> list:
    """TSV rows: bracketed tree, exact probability fraction, derivations."""
    ranked = sorted(report.tree_sums,
                    key=lambda b: (-report.tree_sums[b], b))
    return ["%s\t%s\t%d" % (b, report.tree_sums[b], report.derivation_count(b))
            for b in ranked]
