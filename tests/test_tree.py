import random
from collections import Counter

import pytest

from dop import (Site, Tree, TreeReadError, constituents, normalize,
                 normalize_treebank, read_treebank, read_trees, write_tree)
from dop.tree import strip_label
from conftest import random_tree, unary_chain_model


def test_read_single_tree():
    trees = read_trees("(S (NP john) (VP (V likes) (NP mary)))")
    assert len(trees) == 1
    assert trees[0].label == "S"
    assert trees[0].leaves() == ["john", "likes", "mary"]


def test_read_strips_wrapper():
    trees = read_trees("( (S (NP john) (VP (V sleeps))) )")
    assert len(trees) == 1
    assert trees[0].label == "S"


def test_read_multiple_trees_and_comments():
    text = "# a comment\n(NP mary)\n\n(S (NP a) (VP b))\n"
    trees = read_trees(text)
    assert [t.label for t in trees] == ["NP", "S"]


def test_read_unclosed_bracket():
    with pytest.raises(TreeReadError) as err:
        read_trees("(S (NP john) (VP (V likes) (NP mary")
    assert err.value.line == 1


def test_read_stray_close():
    with pytest.raises(TreeReadError) as err:
        read_trees("(NP mary)) ")
    assert (err.value.line, err.value.col) == (1, 10)


def test_read_empty_node():
    with pytest.raises(TreeReadError):
        read_trees("(S (NP) (VP x))")
    with pytest.raises(TreeReadError):
        read_trees("()")


def test_read_terminal_with_siblings():
    with pytest.raises(TreeReadError):
        read_trees("(NP john mary)")
    with pytest.raises(TreeReadError):
        read_trees("(NP john (X y))")
    with pytest.raises(TreeReadError) as caught:
        read_trees("(S\n  (NP john mary))")
    assert (caught.value.line, caught.value.col) == (2, 3)


def test_write_examples():
    text = "(S (NP john) (VP (V sleeps)))"
    assert write_tree(read_trees(text)[0]) == text
    assert write_tree(read_trees("(NP mary)")[0]) == "(NP mary)"


def test_round_trip_random_trees():
    rng = random.Random(7)
    for _ in range(60):
        tree = random_tree(rng)
        assert read_trees(write_tree(tree))[0] == tree


def test_round_trip_toy_corpus(toy_treebank):
    for tree in toy_treebank.trees:
        assert read_trees(write_tree(tree))[0] == tree


def test_treebank_vocabulary(toy_treebank):
    assert toy_treebank.vocabulary["john"] == 1
    assert sum(toy_treebank.vocabulary.values()) == 6


def test_deep_unary_chain_treebank():
    key, _ = unary_chain_model(3000)
    bank = read_treebank(key)
    nodes = list(bank.trees[0].subtrees())
    assert [node.label for node in nodes] == ["X%d" % i for i in range(3000)]
    assert bank.vocabulary == {"w": 1}


def test_deep_unary_chain_round_trips():
    # write_tree keeps its own stack: no recursion per tree level
    key, _ = unary_chain_model(3000)
    tree = read_trees(key)[0]
    assert write_tree(tree) == key
    assert repr(tree) == "Tree(%s)" % key


def test_deep_unary_chain_depth_and_normalize():
    key, _ = unary_chain_model(3000)
    tree = read_trees(key.replace("(X1 ", "(X1-SBJ "))[0]
    assert tree.depth() == 3000
    normalized = normalize(tree)
    assert ([node.label for node in normalized.subtrees()]
            == ["X%d" % i for i in range(3000)])
    assert normalized.leaves() == ["w"] and normalized.depth() == 3000


def _normalize_spec(tree):
    # the definition, as a recursion: children first, empty nodes dropped
    if tree.is_preterminal:
        if tree.label in ("-NONE-", "''", "``"):
            return None
        return Tree(strip_label(tree.label), tree.children)
    children = [c for c in map(_normalize_spec, tree.children) if c]
    return Tree(strip_label(tree.label), children) if children else None


def test_normalize_matches_recursive_definition_on_random_trees():
    rng = random.Random(11)
    labels = ("S", "NP-SBJ", "VP=2", "-NONE-", "''", "PP-LOC-1", "X")

    # relabeled at random, so that deletions and suffixes occur
    def relabel(node):
        children = node.children
        if not node.is_preterminal:
            children = [relabel(child) for child in children]
        return Tree(rng.choice(labels), children)

    for _ in range(300):
        tree = relabel(random_tree(rng, max_internal=20, max_depth=6))
        assert normalize(tree) == _normalize_spec(tree)


def test_subtrees_and_depth_of_fragment_structure():
    # (S (NP) (VP (V x) (NP))): sites are no nodes and count 0 in depth
    vp = Tree("VP", (Tree("V", ("x",)), Site("NP")))
    tree = Tree("S", (Site("NP"), vp))
    assert [node.label for node in tree.subtrees()] == ["S", "VP", "V"]
    assert tree.depth() == 3
    assert Tree("S", (Site("NP"), Site("VP"))).depth() == 1


def test_normalize_strips_function_tags():
    tree = read_trees("(S (NP-SBJ john) (VP-2 (V walks)))")[0]
    assert write_tree(normalize(tree)) == "(S (NP john) (VP (V walks)))"


def test_normalize_equals_sign():
    tree = read_trees("(S (NP=1 john) (VP sleeps))")[0]
    assert write_tree(normalize(tree)) == "(S (NP john) (VP sleeps))"


def test_normalize_removes_trace_and_empty_ancestor():
    tree = read_trees("(S (NP-SBJ (-NONE- *T*-1)) (VP (V walks)))")[0]
    assert write_tree(normalize(tree)) == "(S (VP (V walks)))"


def test_normalize_removes_quotes():
    tree = read_trees("(S (`` ``) (NP john) ('' ''))")[0]
    assert write_tree(normalize(tree)) == "(S (NP john))"


def test_normalize_keeps_punctuation_labels():
    tree = read_trees("(S (NP john) (-LRB- -LRB-) (. .))")[0]
    assert write_tree(normalize(tree)) == "(S (NP john) (-LRB- -LRB-) (. .))"


def test_normalize_identity_on_clean_tree(toy_treebank):
    for tree in toy_treebank.trees:
        assert normalize(tree) == tree


def test_normalize_idempotent_random():
    rng = random.Random(11)
    for _ in range(40):
        tree = random_tree(rng)
        once = normalize(tree)
        assert normalize(once) == once


def test_normalize_whole_tree_deleted():
    tree = read_trees("(S (NP (-NONE- *)))")[0]
    assert normalize(tree) is None
    bank = read_treebank("(S (NP (-NONE- *)))\n(NP ok)")
    normalized, skipped = normalize_treebank(bank)
    assert skipped == 1 and len(normalized.trees) == 1


def test_normalize_preserves_words_except_deleted():
    tree = read_trees("(S (`` ``) (NP-SBJ john) (VP (V runs) (-NONE- *)))")[0]
    assert normalize(tree).leaves() == ["john", "runs"]


def test_constituents_examples():
    tree = read_trees("(S (NP john) (VP (V likes) (NP mary)))")[0]
    assert constituents(tree) == {("S", 0, 3): 1, ("VP", 1, 3): 1}
    assert constituents(read_trees("(NP mary)")[0]) == {}
    tree = read_trees("(S (NP (DT the) (N dog)) (VP (V barks)))")[0]
    assert constituents(tree) == {("S", 0, 3): 1, ("NP", 0, 2): 1,
                                  ("VP", 2, 3): 1}


def test_constituents_multiset_duplicates():
    tree = read_trees("(NP (NP (NP (D a) (N b))))")[0]
    assert constituents(tree) == {("NP", 0, 2): 3}


def test_constituents_count_matches_internal_nodes():
    rng = random.Random(3)
    for _ in range(40):
        tree = random_tree(rng)
        expected = sum(1 for node in tree.subtrees() if not node.is_preterminal)
        assert sum(constituents(tree).values()) == expected


def _constituents_spec(tree, exclude_root=False):
    # the definition, as a recursion: each internal node's span after its
    # children's
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


def test_constituents_match_recursive_definition_on_random_trees():
    rng = random.Random(19)
    for _ in range(300):
        tree = random_tree(rng, max_internal=25, max_depth=7)
        for exclude_root in (False, True):
            got = constituents(tree, exclude_root=exclude_root)
            want = _constituents_spec(tree, exclude_root=exclude_root)
            assert list(got.items()) == list(want.items())


def test_constituents_exclude_root():
    tree = read_trees("(S (NP john) (VP (V likes) (NP mary)))")[0]
    assert constituents(tree, exclude_root=True) == {("VP", 1, 3): 1}


def test_tree_immutable():
    tree = read_trees("(NP mary)")[0]
    with pytest.raises(AttributeError):
        tree.label = "X"


def test_read_error_positions_with_comments_tabs_and_lines():
    body = "# header\n(S\n\t(NP john)\n  # note\n\t(VP (V x)%s\n"
    with pytest.raises(TreeReadError) as err:
        read_trees(body % ")")
    assert (err.value.line, err.value.col) == (2, 1)
    with pytest.raises(TreeReadError) as err:
        read_trees(body % "))  )")
    assert (err.value.line, err.value.col) == (5, 15)
    with pytest.raises(TreeReadError) as err:
        read_trees(body % " (\t) ))")
    assert (err.value.line, err.value.col) == (5, 12)
    assert write_tree(read_trees(body % "))")[0]) == "(S (NP john) (VP (V x)))"


def test_token_whitespace_is_str_isspace():
    from dop.tree import _TOKEN
    chars = "".join(map(chr, range(0x110000)))
    assert set(_TOKEN.sub("", chars)) == set(filter(str.isspace, chars))
