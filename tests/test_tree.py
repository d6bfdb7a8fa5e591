import random

import pytest

from dop import (Tree, TreeReadError, constituents, normalize,
                 normalize_treebank, read_treebank, read_trees, write_tree)
from conftest import random_tree


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


def test_treebank_inventory_and_vocabulary(toy_treebank):
    assert toy_treebank.inventory == {"S", "NP", "VP", "V"}
    assert toy_treebank.vocabulary["john"] == 1
    assert sum(toy_treebank.vocabulary.values()) == 6


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
