import random
import sys

import pytest

from dop import (HeadRuleTable, RestrictionSet, Tree, build_model,
                 extract_treebank, read_treebank)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    module = sys.modules.get("test_acceptance")
    results = getattr(module, "RESULTS", None)
    if results:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in results:
            terminalreporter.write_line(line)

TOY_CORPUS = (
    "(S (NP john) (VP (V likes) (NP mary)))\n"
    "(S (NP peter) (VP (V hates) (NP susan)))\n"
)

# pinned toy table so head-dependent results do not depend on the shipped one
TOY_HEAD_RULES = HeadRuleTable.from_text(
    "default left\nS left VP\nVP left V\n")


@pytest.fixture
def toy_treebank():
    return read_treebank(TOY_CORPUS)


@pytest.fixture
def toy_model(toy_treebank):
    fragments = extract_treebank(toy_treebank)
    return build_model(fragments, RestrictionSet(), TOY_HEAD_RULES,
                       start_labels={"S"})


LABELS = ("S", "NP", "VP", "PP", "X", "Y")
WORDS = ("a", "b", "c", "d", "e")


def random_tree(rng, max_internal=12, max_depth=4, max_children=3):
    """A random well-formed tree with at most max_internal labeled nodes."""
    while True:
        budget = [max_internal]

        def node(depth):
            budget[0] -= 1
            if depth >= max_depth or budget[0] <= 1 or rng.random() < 0.35:
                return Tree(rng.choice(LABELS), (rng.choice(WORDS),))
            width = rng.randint(1, max_children)
            return Tree(rng.choice(LABELS),
                        tuple(node(depth + 1) for _ in range(width)))

        tree = node(0)
        if sum(1 for _ in tree.subtrees()) <= max_internal:
            return tree


_SCFG_RULES = {
    "S": ((("NP", "VP"), 1.0),),
    "NP": ((("DT", "N"), 0.5), (("N",), 0.3), (("NP", "PP"), 0.2)),
    "VP": ((("V", "NP"), 0.5), (("V",), 0.3), (("VP", "PP"), 0.2)),
    "PP": ((("P", "NP"), 1.0),),
}
_SCFG_LEXICON = {
    "DT": ("the", "a", "every"),
    "N": ("dog", "cat", "man", "park", "telescope", "bird", "fish", "boy"),
    "V": ("saw", "liked", "bit", "heard", "chased"),
    "P": ("in", "with", "near"),
}
# long tails drawn rarely, so rarity-threshold statistics have material
_SCFG_TAILS = {
    "N": (0.2, ("heron", "otter", "ferret", "walrus", "badger", "magpie",
                "stork", "weasel", "marmot", "gopher", "lemur", "osprey",
                "puffin", "shrew", "stoat", "vole", "wombat", "yak",
                "ibis", "newt")),
    "V": (0.15, ("nudged", "poked", "trailed", "grazed", "spooked",
                 "startled", "tickled", "shadowed", "circled", "dodged")),
}


def synthetic_tree(rng, max_words=9, max_depth=7):
    """One tree from a fixed stochastic grammar, capped in size."""
    while True:
        def expand(symbol, depth):
            if symbol in _SCFG_LEXICON:
                tail = _SCFG_TAILS.get(symbol)
                if tail and rng.random() < tail[0]:
                    return Tree(symbol, (rng.choice(tail[1]),))
                return Tree(symbol, (rng.choice(_SCFG_LEXICON[symbol]),))
            options = _SCFG_RULES[symbol]
            if depth >= max_depth:
                options = tuple(
                    (rhs, p) for rhs, p in options
                    if all(child in _SCFG_LEXICON or child != symbol
                           for child in rhs))
                options = options or _SCFG_RULES[symbol][:1]
            pick = rng.random()
            acc = 0.0
            rhs = options[-1][0]
            for candidate, p in options:
                acc += p
                if pick <= acc:
                    rhs = candidate
                    break
            return Tree(symbol, tuple(expand(child, depth + 1) for child in rhs))

        tree = expand("S", 0)
        if len(tree.leaves()) <= max_words:
            return tree


def synthetic_treebank(n_trees, seed, max_words=9):
    rng = random.Random(seed)
    from dop.tree import Treebank
    return Treebank(tuple(synthetic_tree(rng, max_words=max_words)
                          for _ in range(n_trees)))


def unary_chain_model(depth):
    """(key, model text) of a one-entry model: a depth-level chain over w."""
    key = "".join("(X%d " % i for i in range(depth)) + "w" + ")" * depth
    return key, (
        "dopmodel\t1\n"
        "restriction\tmax_depth=-\tmax_frontier_words=-\tmax_unlex_depth=-"
        "\tmax_nonheadwords=-\tsample_per_depth=-\n"
        "smoothing\toff\nstart\tX0\nprior\tX0\t1\nroot\tX0\t1\t1\t0\n"
        "entries\n1\t1\t%s\n" % key)
