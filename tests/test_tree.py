import pickle
import random
import re
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


def test_deep_unary_chain_pickles():
    # a pickled tree is one flat tuple: no call nests per tree level
    key, _ = unary_chain_model(3000)
    tree = read_trees(key)[0]
    copy = pickle.loads(pickle.dumps(tree))
    assert copy == tree and write_tree(copy) == key


def test_pickle_round_trips_trees_with_sites():
    rng = random.Random(23)
    trees = [random_tree(rng, max_internal=12) for _ in range(100)]
    trees.append(Tree("S", (Tree("NP", (Site("NP"),)), Site("VP"))))
    for tree in trees:
        copy = pickle.loads(pickle.dumps(tree))
        assert copy == tree and write_tree(copy) == write_tree(tree)
        assert [node.children for node in copy.subtrees()] == \
            [node.children for node in tree.subtrees()]


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
    for _ in range(300):
        tree = _relabel(rng, random_tree(rng, max_internal=20, max_depth=6),
                        labels)
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


# References for the reader and for normalize: the token-by-token reader,
# with each token's column, and the normalize that rebuilds every node.
# read_trees and normalize must agree with them on any input.

def _reference_read_trees(text):
    def tokenize():
        for lineno, line in enumerate(text.split("\n"), start=1):
            if line.lstrip().startswith("#"):
                continue
            for match in re.finditer(r"[()]|[^\s()]+", line):
                yield match.group(), lineno, match.start() + 1

    trees = []
    stack = []          # [line, col, label-or-None, children] per open node
    for tok, line, col in tokenize():
        if tok == "(":
            stack.append([line, col, None, []])
        elif tok == ")":
            if not stack:
                raise TreeReadError("unbalanced brackets: unexpected ')'",
                                    line, col)
            oline, ocol, label, children = stack.pop()
            if (label is None and len(children) == 1
                    and isinstance(children[0], Tree)):
                node = children[0]
            elif label is None or not children:
                raise TreeReadError("empty node", oline, ocol)
            else:
                try:
                    node = Tree(label, children)
                except ValueError as err:
                    raise TreeReadError(str(err), oline, ocol) from None
            if stack:
                stack[-1][3].append(node)
            else:
                trees.append(node)
        else:
            if not stack:
                raise TreeReadError("token %r outside brackets" % tok,
                                    line, col)
            frame = stack[-1]
            if frame[2] is None and not frame[3]:
                frame[2] = tok
            else:
                frame[3].append(tok)
    if stack:
        raise TreeReadError("unbalanced brackets: '(' never closed",
                            stack[-1][0], stack[-1][1])
    return trees


def _reference_normalize(tree):
    order = []
    stack = [tree]
    while stack:
        node = stack.pop()
        order.append(node)
        if not node.is_preterminal:
            stack.extend(node.children)
    values = []
    for node in reversed(order):
        label = strip_label(node.label)
        if node.is_preterminal:
            values.append(None if node.label in ("-NONE-", "''", "``")
                          else Tree(label, node.children))
        else:
            width = len(node.children)
            kept = [child for child in values[-width:] if child is not None]
            del values[-width:]
            values.append(Tree(label, kept) if kept else None)
    return values[0]


_RAW_LABELS = ("S", "NP-SBJ", "VP=2", "-NONE-", "''", "``", "PP-LOC-1", "X",
               "-LRB-", ",")
_BLANKS = (" ", "  ", "\t", "\n", " \n\t", "\r\n", "\n  ")


def _relabel(rng, tree, labels=_RAW_LABELS):
    """The tree with labels drawn at random, so that normalization
    deletes nodes and strips suffixes."""
    children = tree.children
    if not tree.is_preterminal:
        children = [_relabel(rng, child, labels) for child in children]
    return Tree(rng.choice(labels), children)


def _random_bank_text(rng):
    """Bracketed trees as a treebank file may hold them: blanks of any
    kind between tokens and just inside brackets, trees split across
    lines, label-less wrappers, '#' comment lines, and CRLF line ends."""
    texts = []
    for _ in range(rng.randint(1, 4)):
        text = write_tree(_relabel(rng, random_tree(rng, max_internal=10)))
        if rng.random() < 0.3:
            text = "( %s )" % text
        text = "".join(rng.choice(_BLANKS) if ch == " " else ch
                       for ch in text)
        if rng.random() < 0.3:
            text = text.replace("(", "( ", 1)
        texts.append(text)
    lines = "\n".join(texts).split("\n")
    for _ in range(rng.randint(0, 3)):
        lines.insert(rng.randint(0, len(lines)),
                     rng.choice(("# comment", "  # (S x", "\t#)")))
    ending = "\r\n" if rng.random() < 0.4 else "\n"
    return ending.join(lines) + rng.choice(("", ending))


def _corrupt(rng, text):
    """The text with one character deleted, inserted or replaced."""
    pos = rng.randrange(len(text) + 1)
    char = rng.choice("()# \t\nxy")
    edit = rng.randrange(3)
    if edit == 0:
        return text[:pos] + text[pos + 1:]
    if edit == 1:
        return text[:pos] + char + text[pos:]
    return text[:pos] + char + text[pos + 1:]


def _read_outcome(reader, text):
    try:
        return reader(text)
    except TreeReadError as err:
        return (str(err), err.line, err.col)


def test_reader_agrees_with_token_by_token_reader_on_random_banks():
    rng = random.Random(18)
    errors = 0
    for _ in range(400):
        text = _random_bank_text(rng)
        expected = _reference_read_trees(text)
        assert read_trees(text) == expected
        assert [write_tree(t) for t in read_trees(text)] == [
            write_tree(t) for t in expected]
        for _ in range(5):
            bad = _corrupt(rng, text)
            got = _read_outcome(read_trees, bad)
            assert got == _read_outcome(_reference_read_trees, bad), bad
            errors += isinstance(got, tuple)
    assert errors > 500     # most corruptions are errors, of every kind


def test_reader_error_kinds_match_reference():
    for text in ("(S x))", "x (S y)", "(S (NP) (VP x))", "()", "( (A x) y)",
                 "(NP john mary)", "(NP john (X y))", "(S (A x)\n\t(B",
                 "(S\r\n (A x)\r\n (B y z))", "# c\n  )", "(A (B x)) (",
                 "( (A x) (B y) )", "(A x)\n#)\n)"):
        got = _read_outcome(read_trees, text)
        assert isinstance(got, tuple), text
        assert got == _read_outcome(_reference_read_trees, text), text


def test_read_nodes_pass_tree_checks():
    # nodes made without Tree.__init__ hold what it would have made
    rng = random.Random(5)
    for _ in range(100):
        for tree in read_trees(_random_bank_text(rng)):
            for node in tree.subtrees():
                assert type(node.children) is tuple
                assert Tree(node.label, node.children) == node
                assert node._hash is None


def test_normalize_agrees_with_rebuilding_normalize():
    rng = random.Random(3)
    for _ in range(300):
        for tree in read_trees(_random_bank_text(rng)):
            got = normalize(tree)
            assert got == _reference_normalize(tree)
            if got is not None:
                assert normalize(got) is got


def test_normalize_returns_unchanged_subtrees_as_they_are(toy_treebank):
    tree = read_trees("(S (NP-SBJ (DT the) (NN dog)) (VP (V barks)) "
                      "(-NONE- *))")[0]
    got = normalize(tree)
    assert write_tree(got) == "(S (NP (DT the) (NN dog)) (VP (V barks)))"
    assert got.children[0].children == tree.children[0].children
    assert all(new is old for new, old in zip(got.children[0].children,
                                              tree.children[0].children))
    assert got.children[1] is tree.children[1]
    normalized, skipped = normalize_treebank(toy_treebank)
    assert skipped == 0
    assert all(new is old
               for new, old in zip(normalized.trees, toy_treebank.trees))


def test_deep_chain_hashes_and_compares_without_recursion():
    key, _ = unary_chain_model(5000)
    tree, copy = read_trees(key)[0], read_trees(key)[0]
    assert tree is not copy
    assert hash(tree) == hash(copy)
    assert tree == copy and not tree != copy
    changed = read_trees(key.replace("(X4000 ", "(Y4000 "))[0]
    assert tree != changed and hash(tree) != hash(changed)
    word = read_trees(key.replace(" w)", " v)"))[0]
    assert tree != word
    assert {tree: 1}[copy] == 1


def test_hash_is_hash_of_label_and_children():
    rng = random.Random(7)
    for _ in range(200):
        tree = random_tree(rng, max_internal=15, max_depth=5)
        again = read_trees(write_tree(tree))[0]
        assert hash(again) == hash((again.label, again.children))
        assert hash(tree) == hash(again) and tree == again
    structure = Tree("S", (Site("NP"), Tree("VP", (Site("V"),))))
    assert hash(structure) == hash(("S", structure.children))
    assert structure == Tree("S", (Site("NP"), Tree("VP", (Site("V"),))))
    assert structure != Tree("S", (Site("NP"), Tree("VP", ("V",))))
    assert structure != Tree("S", (Site("NP"), Tree("VP", (Site("X"),))))
