import itertools
import pickle
import random
import time
from collections import Counter

import pytest

from dop import (Fragment, FragmentOverflowError, RestrictionSet,
                 SamplingError, Site, Tree, depth1_fragment, extract_all,
                 extract_treebank, headword, nonheadword_count, passes,
                 Treebank, read_trees, sample_fragments, write_tree)
from dop.fragments import count_fragments, depth1_key
from conftest import TOY_HEAD_RULES, random_tree, unary_chain_model


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
                    result[Fragment(write_tree(
                        build(root_node, root_path, expanded)))] += 1
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


def cut_set_fragments(tree):
    """Independent oracle: (key, depth) of every fragment, with counts.

    A fragment is a root node and a cut set: the root's proper descendants
    that are expanded, each with its parent expanded too. Every subset of
    the descendants is tried. Keys and depths are written here, with no
    Fragment and no write_tree.
    """
    labels, words, kids, parents, levels = [], [], [], [], []

    def walk(node, parent, level):
        index = len(labels)
        labels.append(node.label)
        parents.append(parent)
        levels.append(level)
        words.append(node.children[0] if node.is_preterminal else None)
        kids.append([])
        if parent is not None:
            kids[parent].append(index)
        if not node.is_preterminal:
            for child in node.children:
                walk(child, index, level + 1)

    walk(tree, None, 0)

    def write(index, expanded):
        if index not in expanded:
            return "(%s)" % labels[index]
        if words[index] is not None:
            return "(%s %s)" % (labels[index], words[index])
        return "(%s %s)" % (labels[index], " ".join(
            write(kid, expanded) for kid in kids[index]))

    def below(index):
        return [i for kid in kids[index] for i in [kid, *below(kid)]]

    result = Counter()
    for root in range(len(labels)):
        candidates = below(root)
        for mask in range(2 ** len(candidates)):
            expanded = {root} | {i for bit, i in enumerate(candidates)
                                 if mask >> bit & 1}
            if all(i == root or parents[i] in expanded for i in expanded):
                depth = 1 + max(levels[i] - levels[root] for i in expanded)
                result[(write(root, expanded), depth)] += 1
    return result


def test_exact_depth_extraction_matches_cut_set_enumeration():
    rng = random.Random(202)
    for _ in range(40):
        tree = random_tree(rng, max_internal=10, max_depth=5)
        oracle = cut_set_fragments(tree)
        for depth in range(1, 6):
            want = Counter({key: count for (key, level), count
                            in oracle.items() if level == depth})
            got = extract_all(tree, depth)
            assert {f.key: count for f, count in got.items()} == want
            assert all(f.depth == depth for f in got)
            assert count_fragments(tree, depth) == sum(want.values())
        assert count_fragments(tree) == sum(oracle.values())


def test_exact_depth_cap_counts_only_that_depth():
    # 12 children (A (B w) (C w)): 5**12 fragments at the root, but only
    # 2**12 - 1 of depth 2 there and 3 under each A
    wide = read_trees("(S%s)" % (" (A (B w) (C w))" * 12))[0]
    assert count_fragments(wide, 2) == 4095 + 12 * 3
    with pytest.raises(FragmentOverflowError):
        extract_all(wide)
    assert sum(extract_all(wide, 2).values()) == 4131
    with pytest.raises(FragmentOverflowError, match="of depth 2"):
        extract_all(wide, 2, cap=4130)
    assert extract_treebank(Treebank((wide,)), 2) == extract_all(wide, 2)
    for bad in (0, -1):
        with pytest.raises(ValueError, match="depth must be"):
            extract_all(wide, bad)


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


def test_height_lists_match_tree_depth():
    # the lists the sampler, the depth-1 pass and the unknown-word model read
    rng = random.Random(5)
    trees = tuple(random_tree(rng, max_internal=30, max_depth=7)
                  for _ in range(40))
    bank = Treebank(trees)
    assert bank.nodes == tuple(list(tree.subtrees()) for tree in trees)
    assert bank.heights == tuple([node.depth() for node in tree.subtrees()]
                                 for tree in trees)
    assert bank.nodes is bank.nodes and bank.heights is bank.heights

    # node.depth() is quadratic down a chain: check every 250th node
    chain = read_trees(unary_chain_model(3000)[0])[0]
    bank = Treebank((chain,))
    assert bank.nodes == (list(chain.subtrees()),)
    assert bank.heights == (list(range(3000, 0, -1)),)
    assert all(bank.heights[0][i] == bank.nodes[0][i].depth()
               for i in range(0, 3000, 250))


def _inlined_randrange(rng, n):
    # the uniform draw that sample_fragments and _grow write out inline
    getrandbits = rng.getrandbits
    bits = n.bit_length()
    r = getrandbits(bits)
    while r >= n:
        r = getrandbits(bits)
    return r


def test_inlined_draw_is_randrange():
    sizes = list(range(1, 301)) + [2 ** k + d for k in range(2, 41)
                                   for d in (-1, 0, 1)]
    for seed in (1, 2, 97):
        inlined, reference = random.Random(seed), random.Random(seed)
        for n in sizes:
            for _ in range(3):
                assert _inlined_randrange(inlined, n) == reference.randrange(n)
            assert inlined.getstate() == reference.getstate()


def _sample_reference(treebank, depth, count, seed):
    # the reference: randrange for every draw, a Fragment per draw
    rng = random.Random(seed)
    node_lists = [list(tree.subtrees()) for tree in treebank.trees]
    result = Counter()
    while sum(result.values()) < count:
        nodes = node_lists[rng.randrange(len(node_lists))]
        node = nodes[rng.randrange(len(nodes))]
        if node.depth() < depth:
            continue
        top = [node, 0, None]
        open_sites = _expand_reference(top)
        reached = 1
        while reached < depth:
            site = open_sites.pop(rng.randrange(len(open_sites)))
            open_sites.extend(_expand_reference(site))
            reached = max(reached, site[1] + 1)
        queue = list(open_sites)
        while queue:
            site = queue.pop(0)
            if site[1] < depth and rng.random() < 0.5:
                queue.extend(_expand_reference(site))
        result[Fragment(write_tree(_freeze_reference(top)))] += 1
    return result


def _expand_reference(site):
    # a site record is [corpus node, depth, children once expanded]
    node, site_depth, _ = site
    children = [child if isinstance(child, str)
                else [child, site_depth + 1, None]
                for child in node.children]
    site[2] = children
    return [child for child in children if not isinstance(child, str)]


def _freeze_reference(site):
    node, _, children = site
    if children is None:
        return Site(node.label)
    return Tree(node.label, [child if isinstance(child, str)
                             else _freeze_reference(child)
                             for child in children])


def test_sample_matches_randrange_reference_on_random_banks():
    rng = random.Random(31)
    # bank sizes around powers of two make the tree draw reject often
    for n_trees in (1, 3, 7, 8, 9, 33):
        bank = Treebank(tuple(random_tree(rng, max_internal=20, max_depth=6)
                              for _ in range(n_trees)))
        top = max(tree.depth() for tree in bank.trees)
        for depth in range(2, top + 1):
            got = sample_fragments(bank, depth, 60, seed=depth)
            want = _sample_reference(bank, depth, 60, seed=depth)
            assert list(got.items()) == list(want.items())
            assert all(fragment.depth == depth for fragment in got)


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
    return Fragment(write_tree(node))


def _wide_fragment(n_words):
    children = tuple(Tree("P", ("w%d" % i,)) for i in range(n_words))
    return Fragment(write_tree(Tree("S", children)))


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
    # the depth-1 pass counts keys written straight from the node
    rng = random.Random(8)
    for _ in range(30):
        for node in random_tree(rng).subtrees():
            assert depth1_key(node) == depth1_fragment(node).key


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
        built = Fragment(write_tree(read.structure))
        assert (read.key, read.frontier, read.depth) == (
            built.key, built.frontier, built.depth) == (
            key, model.entries[key].fragment.frontier,
            model.entries[key].fragment.depth)
        spaced = key.replace("(", "( ").replace(")", " )").replace(" ", " \t ")
        assert Fragment.from_string(spaced).key == key


def _walk_frontier(structure):
    """Words and sites of a structure, left to right."""
    items = []
    stack = [structure]
    while stack:
        node = stack.pop()
        if isinstance(node, Tree):
            stack.extend(reversed(node.children))
        else:
            items.append(node)
    return tuple(items)


def _check_key_derived(fragment):
    # root, depth and frontier are read from the key; the structure is
    # read from it by a separate path
    structure = fragment.structure
    frontier = _walk_frontier(structure)
    words = sum(1 for item in frontier if isinstance(item, str))
    assert write_tree(structure) == fragment.key
    copy = pickle.loads(pickle.dumps(fragment))
    for other in (fragment, copy, Fragment.from_string(fragment.key)):
        assert other == fragment and other.key == fragment.key
        assert other.frontier_word_count == words
        assert other.root == structure.label
        assert other.depth == structure.depth()
        assert other.frontier == frontier


def test_key_derived_properties_match_structure():
    rng = random.Random(211)
    for _ in range(40):
        tree = random_tree(rng, max_internal=9)
        for fragment in extract_all(tree):
            _check_key_derived(fragment)
    for _ in range(5):
        bank = Treebank(tuple(random_tree(rng, max_internal=20, max_depth=6)
                              for _ in range(8)))
        top = max(tree.depth() for tree in bank.trees)
        for depth in range(2, top + 1):
            for fragment in sample_fragments(bank, depth, 40, seed=depth):
                _check_key_derived(fragment)
                assert fragment.depth == depth
    for node in random_tree(rng, max_internal=30, max_depth=7).subtrees():
        _check_key_derived(depth1_fragment(node))


def test_deep_unary_key_loads():
    depth = 3000
    key = "".join("(X%d " % i for i in range(depth)) + "w" + ")" * depth
    fragment = Fragment.from_string(key)
    assert fragment.key == key
    assert fragment.frontier == ("w",)
    assert fragment.root == "X0"
    assert Fragment.from_string(key.replace(" ", "\n ")).key == key
