import itertools
import random
import time
from collections import Counter

import pytest

from dop import (Fragment, FragmentOverflowError, RestrictionSet,
                 SamplingError, Site, Tree, depth1_fragment, extract_all,
                 extract_treebank, headword, nonheadword_count, passes,
                 Treebank, read_trees, sample_fragments, write_tree)
from conftest import TOY_HEAD_RULES, random_tree


def subset_enumeration_fragments(tree):
    """Independent oracle: fragments by brute-force expansion subsets.

    A fragment rooted at r is a set of expanded nodes containing r and
    closed under parenthood; everything else reachable stays frontier.
    Enumerates all subsets of r's internal descendants and filters.
    """
    paths = []

    def index(node, path):
        paths.append((path, node))
        for i, child in enumerate(node.children):
            if isinstance(child, Tree):
                index(child, path + (i,))

    index(tree, ())

    def build(node, path, expanded):
        children = []
        for i, child in enumerate(node.children):
            if isinstance(child, str):
                children.append(child)
            elif path + (i,) in expanded:
                children.append(build(child, path + (i,), expanded))
            else:
                children.append(Site(child.label))
        return Tree(node.label, children)

    result = Counter()
    for root_path, root_node in paths:
        descendants = [p for p, _ in paths
                       if len(p) > len(root_path) and p[:len(root_path)] == root_path]
        for size in range(len(descendants) + 1):
            for combo in itertools.combinations(descendants, size):
                expanded = set(combo) | {root_path}
                if all(p == root_path or p[:-1] in expanded for p in expanded):
                    result[Fragment(build(root_node, root_path, expanded))] += 1
    return result


def frag(text):
    return Fragment.from_string(text)


def test_extract_toy_tree_17():
    tree = read_trees("(S (NP john) (VP (V likes) (NP mary)))")[0]
    fragments = extract_all(tree)
    assert sum(fragments.values()) == 17


def test_extract_single_preterminal():
    fragments = extract_all(read_trees("(NP mary)")[0])
    assert fragments == Counter({frag("(NP mary)"): 1})


def test_extract_two_child_tree_listing():
    fragments = extract_all(read_trees("(X (A a) (B b))")[0])
    assert sum(fragments.values()) == 6
    assert set(fragments) == {
        frag("(X (A) (B))"), frag("(X (A a) (B))"), frag("(X (A) (B b))"),
        frag("(X (A a) (B b))"), frag("(A a)"), frag("(B b)")}


def test_extract_matches_product_formula_and_subset_oracle():
    rng = random.Random(101)
    for _ in range(30):
        tree = random_tree(rng, max_internal=9)
        got = extract_all(tree)
        oracle = subset_enumeration_fragments(tree)
        assert got == oracle


def test_extract_overflow_cap():
    tree = read_trees("(S (NP john) (VP (V likes) (NP mary)))")[0]
    with pytest.raises(FragmentOverflowError):
        extract_all(tree, cap=16)


def test_duplicate_fragments_accumulate(toy_treebank):
    fragments = extract_treebank(toy_treebank)
    assert fragments[frag("(S (NP) (VP))")] == 2
    assert fragments[frag("(NP john)")] == 1


def test_every_extracted_fragment_occurs_in_tree():
    # spot-check containment: the fragment's key must rebuild from some cut
    rng = random.Random(55)
    for _ in range(10):
        tree = random_tree(rng, max_internal=8)
        oracle_keys = set(subset_enumeration_fragments(tree))
        for fragment in extract_all(tree):
            assert fragment in oracle_keys


def test_sample_depth_exact(toy_treebank):
    fragments = sample_fragments(toy_treebank, depth=2, count=1000, seed=9)
    assert sum(fragments.values()) == 1000
    assert all(f.depth == 2 for f in fragments)


def test_sample_deterministic(toy_treebank):
    one = sample_fragments(toy_treebank, depth=3, count=500, seed=42)
    two = sample_fragments(toy_treebank, depth=3, count=500, seed=42)
    other = sample_fragments(toy_treebank, depth=3, count=500, seed=43)
    assert one == two
    assert one != other


def test_sample_impossible_depth(toy_treebank):
    with pytest.raises(SamplingError):
        sample_fragments(toy_treebank, depth=15, count=1, seed=1)


def test_sample_rare_depth_takes_as_many_restarts_as_needed():
    # one node in 2000 reaches depth 2, so 100 draws expect about 200000
    # restarts; the sampler keeps drawing however many that takes
    bank = Treebank((read_trees("(S (X w))")[0],)
                    + (read_trees("(X w)")[0],) * 999)
    fragments = sample_fragments(bank, depth=2, count=100, seed=3)
    assert fragments == Counter({Fragment.from_string("(S (X w))"): 100})


def test_sample_rejects_depth_one(toy_treebank):
    with pytest.raises(ValueError):
        sample_fragments(toy_treebank, depth=1, count=1, seed=1)


def test_sampled_fragments_are_real(toy_treebank):
    real = set(extract_treebank(toy_treebank))
    sampled = sample_fragments(toy_treebank, depth=2, count=300, seed=5)
    assert set(sampled) <= real


def test_fragment_depth_examples():
    assert frag("(S (NP) (VP))").depth == 1
    assert frag("(S (NP john) (VP (V likes) (NP mary)))").depth == 3
    assert frag("(S (NP john) (VP))").depth == 2


def test_headword_examples():
    full = frag("(S (NP john) (VP (V likes) (NP mary)))")
    assert headword(full, TOY_HEAD_RULES) == "likes"
    assert headword(frag("(S (NP john) (VP))"), TOY_HEAD_RULES) is None
    assert headword(frag("(V likes)"), TOY_HEAD_RULES) == "likes"


def test_nonheadword_examples():
    full = frag("(S (NP john) (VP (V likes) (NP mary)))")
    assert nonheadword_count(full, TOY_HEAD_RULES) == 2
    assert nonheadword_count(frag("(S (NP john) (VP))"), TOY_HEAD_RULES) == 1
    assert nonheadword_count(frag("(S (NP) (VP))"), TOY_HEAD_RULES) == 0


def test_nonheadword_plus_head_equals_words():
    rng = random.Random(77)
    for _ in range(25):
        tree = random_tree(rng, max_internal=8)
        for fragment in extract_all(tree):
            head = headword(fragment, TOY_HEAD_RULES)
            assert (nonheadword_count(fragment, TOY_HEAD_RULES)
                    + (1 if head is not None else 0)
                    == fragment.frontier_word_count)


def _chain_fragment(depth, lexical_tail=None):
    """A linear fragment of the given depth, optionally ending in a word."""
    if lexical_tail is not None:
        node = Tree("P", (lexical_tail,))
        levels = depth - 1
    else:
        node = Tree("A", (Site("B"),))
        levels = depth - 1
    for _ in range(levels):
        node = Tree("A", (node,))
    return Fragment(node)


def _wide_fragment(n_words):
    children = tuple(Tree("P", ("w%d" % i,)) for i in range(n_words))
    return Fragment(Tree("S", children))


def test_passes_unlexicalized_depth_boundary():
    restriction = RestrictionSet(max_frontier_words=12, max_unlex_depth=6)
    assert _chain_fragment(7).frontier_word_count == 0
    assert passes(_chain_fragment(6), restriction, TOY_HEAD_RULES)
    assert not passes(_chain_fragment(7), restriction, TOY_HEAD_RULES)
    # one frontier word lifts the unlexicalized-depth bound entirely
    assert passes(_chain_fragment(7, lexical_tail="w"), restriction,
                  TOY_HEAD_RULES)


def test_passes_frontier_word_boundary():
    restriction = RestrictionSet(max_frontier_words=12, max_unlex_depth=6)
    assert passes(_wide_fragment(12), restriction, TOY_HEAD_RULES)
    assert not passes(_wide_fragment(13), restriction, TOY_HEAD_RULES)


def test_passes_depth_one_lexicalized_under_defaults():
    restriction = RestrictionSet(max_depth=14, max_frontier_words=12,
                                 max_unlex_depth=6)
    assert passes(frag("(V likes)"), restriction, TOY_HEAD_RULES)


def test_passes_unbounded_never_rejects():
    unbounded = RestrictionSet()
    assert passes(_wide_fragment(50), unbounded, TOY_HEAD_RULES)
    assert passes(_chain_fragment(20), unbounded, TOY_HEAD_RULES)


def test_restriction_monotonicity_random():
    rng = random.Random(4242)
    trees = [random_tree(rng, max_internal=9) for _ in range(6)]
    fragments = Counter()
    for tree in trees:
        fragments.update(extract_all(tree))
    for _ in range(30):
        tight = RestrictionSet(
            max_depth=rng.randint(1, 4),
            max_frontier_words=rng.randint(0, 4),
            max_unlex_depth=rng.randint(1, 3),
            max_nonheadwords=rng.randint(0, 3))
        loose = RestrictionSet(
            max_depth=tight.max_depth + rng.randint(0, 3),
            max_frontier_words=tight.max_frontier_words + rng.randint(0, 3),
            max_unlex_depth=tight.max_unlex_depth + rng.randint(0, 3),
            max_nonheadwords=(None if rng.random() < 0.3
                              else tight.max_nonheadwords + rng.randint(0, 3)))
        kept_tight = {f for f in fragments
                      if passes(f, tight, TOY_HEAD_RULES)}
        kept_loose = {f for f in fragments
                      if passes(f, loose, TOY_HEAD_RULES)}
        assert kept_tight <= kept_loose


def test_canonical_key_distinguishes_sites():
    open_np = frag("(S (NP) (VP))")
    closed_np = frag("(S (NP (DT) (N)) (VP))")
    assert open_np.key != closed_np.key
    assert "(NP)" in open_np.key


def test_canonical_key_source_independent():
    t1 = read_trees("(S (NP john) (VP (V likes) (NP mary)))")[0]
    t2 = read_trees("(S (NP peter) (VP (V hates) (NP susan)))")[0]
    keys1 = {f.key for f in extract_all(t1)}
    keys2 = {f.key for f in extract_all(t2)}
    assert "(S (NP) (VP))" in keys1 & keys2


def test_canonical_key_round_trip():
    for text in ("(V likes)", "(S (NP) (VP (V likes) (NP)))",
                 "(X (A a) (B))"):
        fragment = frag(text)
        assert fragment.key == text
        assert Fragment.from_string(fragment.key) == fragment


def test_key_is_written_structure_and_repr_shows_sites():
    for text in ("(S (NP john) (VP))", "(S (NP) (VP (V likes) (NP)))",
                 "(V likes)"):
        fragment = frag(text)
        assert write_tree(fragment.structure) == fragment.key
        assert repr(fragment.structure) == "Tree(%s)" % text
    tree = read_trees("(S (NP john) (VP (V likes) (NP mary)))")[0]
    for fragment in extract_all(tree):
        assert write_tree(fragment.structure) == fragment.key


def test_depth1_fragment_is_single_level():
    tree = read_trees("(S (NP john) (VP (V likes) (NP mary)))")[0]
    tops = [depth1_fragment(node) for node in tree.subtrees()]
    assert [f.key for f in tops] == [
        "(S (NP) (VP))", "(NP john)", "(VP (V) (NP))", "(V likes)",
        "(NP mary)"]
    assert all(f.depth == 1 for f in tops)


def test_restriction_validation():
    with pytest.raises(ValueError):
        RestrictionSet(max_depth=0)
    with pytest.raises(ValueError):
        RestrictionSet(max_frontier_words=-1)
    RestrictionSet(max_frontier_words=0, max_nonheadwords=0)


def test_counting_speed():
    rng = random.Random(8)
    trees = [random_tree(rng) for _ in range(100)]
    started = time.perf_counter()
    for tree in trees:
        extract_all(tree)
    assert time.perf_counter() - started < 5.0


def test_dump_fragments_format():
    from dop import dump_fragments
    fragments = Counter({frag("(S (NP) (VP))"): 2, frag("(NP john)"): 1})
    assert dump_fragments(fragments) == [
        "1\tNP\t(NP john)",
        "2\tS\t(S (NP) (VP))",
    ]


@pytest.mark.parametrize("key", [
    "(S", "(S (NP john) (VP)))", "(S (NP) (VP)) x", "(NP)", "((NP x))",
    "(S (NP john mary))", ""])
def test_malformed_keys_rejected(key):
    with pytest.raises(ValueError):
        Fragment.from_string(key)


def test_key_spacing_read_to_canonical_form():
    fragment = Fragment.from_string("(S  (NP john)\t(VP))")
    assert fragment.key == "(S (NP john) (VP))"
    assert fragment.frontier == ("john", Site("VP"))


def test_read_key_matches_structure_path_on_sampled_model():
    from conftest import synthetic_treebank
    from dop import build_model, default_head_rules
    from dop.cli import collect_fragments
    bank = synthetic_treebank(40, seed=9)
    restriction = RestrictionSet(max_depth=4, sample_per_depth=150)
    fragments, _ = collect_fragments(bank, restriction, seed=2)
    model = build_model(fragments, restriction, default_head_rules())
    assert len(model.entries) > 100
    for key in model.entries:
        read = Fragment.from_string(key)
        built = Fragment(read.structure)
        assert (read.key, read.frontier, read.depth) == (
            built.key, built.frontier, built.depth) == (
            key, model.entries[key].fragment.frontier,
            model.entries[key].fragment.depth)
        spaced = key.replace("(", "( ").replace(")", " )").replace(" ", " \t ")
        assert Fragment.from_string(spaced).key == key


def test_deep_unary_key_loads():
    depth = 3000
    key = "".join("(X%d " % i for i in range(depth)) + "w" + ")" * depth
    fragment = Fragment.from_string(key)
    assert fragment.key == key
    assert fragment.frontier == ("w",)
    assert fragment.root == "X0"
    assert Fragment.from_string(key.replace(" ", "\n ")).key == key
