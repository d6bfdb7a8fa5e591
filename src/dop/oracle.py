"""Exact brute-force reference for small models.

Enumerates every derivation of a sentence by expanding the leftmost open
substitution site with each matching model fragment, in exact rational
arithmetic throughout. This is deliberately independent of the chart
parser and imports nothing from it: each derivation's tree is built from
its fragments' structures in one left-to-right pass, filling each open
site with the next fragment (`_derived_tree`), and probabilities multiply
model fractions, so agreement between the two paths checks both.
`compose`, leftmost substitution of one fragment into another, is the
same step taken once.
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
    # walk preorder to the leftmost site, keeping the (node, child index)
    # pairs that lead to it: only the nodes on that path are rebuilt
    path = []
    node, i = lstruct, 0
    while i < len(node.children) or path:
        if i == len(node.children):
            node, i = path.pop()
            i += 1
        elif isinstance(node.children[i], Site):
            break
        elif isinstance(node.children[i], Tree):
            path.append((node, i))
            node, i = node.children[i], 0
        else:
            i += 1
    else:
        raise CompositionError("no open substitution site on the left operand")
    site = node.children[i]
    if site.label != rstruct.label:
        raise CompositionError("leftmost open site is %s, cannot substitute %s"
                               % (site.label, rstruct.label))
    result = rstruct
    path.append((node, i))
    for node, i in reversed(path):
        children = list(node.children)
        children[i] = result
        result = Tree(node.label, children)
    fragment = Fragment(write_tree(result))
    if any(isinstance(item, Site) for item in fragment.frontier):
        return fragment
    return result


def _derived_tree(fragments) -> Tree:
    """The tree of a derivation, its fragments in leftmost-substitution
    order: one preorder walk over their structures, each open site taking
    the next fragment's, so the work is linear in the tree's size."""
    pending = iter(fragments)
    root = next(pending).structure
    # (label, children built, children left) of each node being built
    stack = [(root.label, [], iter(root.children))]
    while True:
        label, built, rest = stack[-1]
        for child in rest:
            if isinstance(child, Site):
                child = next(pending).structure
            if isinstance(child, Tree):
                stack.append((child.label, [], iter(child.children)))
                break
            built.append(child)
        else:
            stack.pop()
            tree = Tree(label, built)
            if not stack:
                return tree
            stack[-1][1].append(tree)


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


def enumerate_derivations(model: FragmentModel, sentence,
                          cap: int = 10**6) -> OracleReport:
    """Every derivation of the sentence under the model.

    `cap` bounds expansion steps as well as finished derivations, so
    models with unary fragment cycles overflow instead of hanging.
    """
    sentence = tuple(sentence)
    by_root = {}             # root -> [(Fragment, probability)], in key order
    for key in sorted(model.entries):
        fragment = Fragment(key)
        by_root.setdefault(fragment.root, []).append(
            (fragment, model.entries[key].probability))

    derivations = []
    steps = 0
    # Depth first: each state is (open frontier, words matched, fragments
    # chosen, probability), the fragments a linked list of (last, rest)
    # pairs. Successors are pushed in reverse, so they pop in model order.
    stack = [((Site(label),), 0, None, Fraction(1))
             for label in sorted(model.start_labels, reverse=True)]
    while stack:
        seq, pos, chosen, probability = stack.pop()
        steps += 1
        if steps > cap or len(derivations) > cap:
            raise OracleOverflowError(
                "more than %d enumeration steps; instance too large" % cap)
        while (seq and isinstance(seq[0], str) and pos < len(sentence)
               and sentence[pos] == seq[0]):
            seq = seq[1:]
            pos += 1
        if not seq:
            if pos == len(sentence):
                derivations.append((chosen, probability))
        # a word left in front did not match; else every item of the
        # frontier must still yield at least one word
        elif isinstance(seq[0], Site) and pos + len(seq) <= len(sentence):
            for fragment, p in reversed(by_root.get(seq[0].label, ())):
                stack.append((fragment.frontier + seq[1:], pos,
                              (fragment, chosen), probability * p))

    tree_sums = {}
    trees = {}
    realized = []
    for chosen, probability in derivations:
        fragments = []
        while chosen is not None:
            fragment, chosen = chosen
            fragments.append(fragment)
        fragments = tuple(reversed(fragments))
        tree = _derived_tree(fragments)
        assert tuple(tree.leaves()) == sentence
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
