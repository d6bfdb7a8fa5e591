import logging
import random
from collections import Counter
from fractions import Fraction

import pytest

from dop import (Fragment, GrammarError, RestrictionSet, build_model,
                 default_head_rules, derivation_probability, extract_all,
                 extract_treebank, good_turing_adjust, read_treebank,
                 train_unknown_model)
from dop.fragments import passes
from dop.model import FragmentModel, ModelEntry, word_features
from dop.modelio import load_model, model_to_text
from dop.tree import Treebank
from conftest import TOY_HEAD_RULES, random_tree, synthetic_treebank


def frag(text):
    return Fragment.from_string(text)


def test_toy_root_totals(toy_model):
    assert toy_model.root_totals == {"S": 20, "VP": 8, "NP": 4, "V": 2}


def test_toy_probabilities(toy_model):
    assert toy_model.probability("(S (NP) (VP))") == Fraction(2, 20)
    assert toy_model.probability("(NP john)") == Fraction(1, 4)
    assert toy_model.probability("(V hates)") == Fraction(1, 2)


def test_derivation_probability_worked_example(toy_model):
    derivation = [frag("(S (NP) (VP))"), frag("(NP john)"),
                  frag("(VP (V) (NP))"), frag("(V hates)"),
                  frag("(NP susan)")]
    probability = derivation_probability(toy_model, derivation)
    assert probability == Fraction(1, 1280)
    assert probability == Fraction("0.00078125")
    assert float(probability) == 0.00078125


def test_derivation_probability_empty(toy_model):
    assert derivation_probability(toy_model, []) == 1


def test_derivation_probability_missing_fragment(toy_model, caplog):
    with caplog.at_level(logging.WARNING, logger="dop.model"):
        probability = derivation_probability(
            toy_model, [frag("(S (NP) (VP))"), frag("(ZZ nope)")])
    assert probability == 0
    assert "missing from the model" in caplog.text
    assert "(ZZ nope)" in caplog.text


def test_per_root_normalization_exact(toy_model):
    sums = {}
    for entry in toy_model.entries.values():
        root = Fragment(entry.key).root
        sums[root] = sums.get(root, Fraction(0)) + entry.probability
    assert all(total == 1 for total in sums.values())


def test_per_root_normalization_random_corpora():
    rng = random.Random(12)
    for _ in range(5):
        bank = Treebank(tuple(random_tree(rng, max_internal=8)
                              for _ in range(4)))
        model = build_model(extract_treebank(bank), RestrictionSet(),
                            TOY_HEAD_RULES)
        for root, group in model.by_root().items():
            assert sum(e.probability for e in group) == 1
            assert sum(e.count for e in group) == model.root_totals[root]


def test_build_filters_for_safety(toy_treebank):
    fragments = extract_treebank(toy_treebank)
    model = build_model(fragments, RestrictionSet(max_depth=1),
                        TOY_HEAD_RULES)
    assert all(Fragment(e.key).depth == 1 for e in model.entries.values())


def test_build_empty_grammar():
    with pytest.raises(GrammarError):
        build_model(Counter(), RestrictionSet(), TOY_HEAD_RULES)


def test_build_multiset_homomorphic(toy_treebank):
    t1, t2 = toy_treebank.trees
    part_a, part_b = extract_all(t1), extract_all(t2)
    merged = build_model(part_a + part_b, RestrictionSet(), TOY_HEAD_RULES)
    rebuilt = build_model(extract_treebank(toy_treebank), RestrictionSet(),
                          TOY_HEAD_RULES)
    assert {k: e.count for k, e in merged.entries.items()} == \
        {k: e.count for k, e in rebuilt.entries.items()}


def test_default_priors(toy_model):
    assert toy_model.priors == {"S": Fraction(1, 5), "NP": Fraction(2, 5),
                                "VP": Fraction(1, 5), "V": Fraction(1, 5)}


def test_start_labels(toy_model, toy_treebank):
    assert toy_model.start_labels == {"S"}
    model = build_model(extract_treebank(toy_treebank), RestrictionSet(),
                        TOY_HEAD_RULES)
    assert model.start_labels == {"S", "NP", "VP", "V"}


def _rule_frequencies(treebank):
    """Independent oracle: relative frequency of single-level rewrites."""
    counts = Counter()
    lhs_totals = Counter()
    for tree in treebank.trees:
        for node in tree.subtrees():
            rhs = tuple(c if isinstance(c, str) else c.label
                        for c in node.children)
            counts[(node.label, rhs, node.is_preterminal)] += 1
            lhs_totals[node.label] += 1
    return {key: Fraction(c, lhs_totals[key[0]])
            for key, c in counts.items()}


def test_depth1_model_equals_rule_frequencies():
    rng = random.Random(21)
    bank = Treebank(tuple(random_tree(rng, max_internal=10)
                          for _ in range(8)))
    model = build_model(extract_treebank(bank), RestrictionSet(max_depth=1),
                        TOY_HEAD_RULES)
    frequencies = _rule_frequencies(bank)
    assert len(model.entries) == len(frequencies)
    for entry in model.entries.values():
        fragment = Fragment(entry.key)
        rhs = tuple(item if isinstance(item, str) else item.label
                    for item in fragment.frontier)
        key = (fragment.root, rhs, fragment.frontier_word_count > 0)
        assert entry.probability == frequencies[key]


def _model_with_counts(counts_per_word):
    """A single-root model with prescribed per-fragment counts."""
    fragments = Counter()
    for i, count in enumerate(counts_per_word):
        fragments[frag("(R w%d)" % i)] = count
    return build_model(fragments, RestrictionSet(), TOY_HEAD_RULES)


def test_good_turing_worked_example():
    # N1 = 10, N2 = 5: count-1 fragments get 2 * 5 / 10 = 1.0
    model = _model_with_counts([1] * 10 + [2] * 5)
    smoothed = good_turing_adjust(model)
    single = smoothed.entries["(R w0)"]
    double = smoothed.entries["(R w10)"]
    assert single.count == Fraction(1)
    assert double.count == 2                    # N3 = 0: raw above the gap
    assert smoothed.reserved_mass["R"] == Fraction(1, 2)
    assert single.probability == Fraction(1, 40)
    assert double.probability == Fraction(1, 20)


def test_good_turing_gap_then_adjusted_again_is_raw():
    # counts 2,2,3: r=2 adjusts via N3; r=3 hits the N4 gap and stays raw
    model = _model_with_counts([2, 2, 3])
    smoothed = good_turing_adjust(model)
    assert smoothed.entries["(R w0)"].count == Fraction(3, 2)
    assert smoothed.entries["(R w2)"].count == 3


def test_good_turing_all_counts_two_or_more_unadjusted():
    model = _model_with_counts([2, 2, 2])
    smoothed = good_turing_adjust(model)
    assert all(e.count == 2 for e in smoothed.entries.values())
    assert smoothed.reserved_mass["R"] == 0


def test_good_turing_single_fragment_root_untouched():
    model = _model_with_counts([3])
    smoothed = good_turing_adjust(model)
    assert smoothed.entries["(R w0)"].probability == 1
    assert smoothed.reserved_mass["R"] == 0


def test_good_turing_all_singletons_guard():
    model = _model_with_counts([1, 1, 1])
    smoothed = good_turing_adjust(model)
    assert all(e.probability == Fraction(1, 3)
               for e in smoothed.entries.values())
    assert smoothed.reserved_mass["R"] == 0


def test_good_turing_preserves_normalization_with_reserved_mass():
    model = _model_with_counts([1] * 7 + [2] * 4 + [3, 3, 5])
    smoothed = good_turing_adjust(model)
    total = sum(e.probability for e in smoothed.entries.values())
    assert total + smoothed.reserved_mass["R"] == 1


def test_good_turing_refuses_double_smoothing():
    smoothed = good_turing_adjust(_model_with_counts([1, 1, 2]))
    with pytest.raises(GrammarError):
        good_turing_adjust(smoothed)


UNK_CORPUS = (
    "(S (DT the) (VBN hopped))\n"
    "(S (DT the) (VBN jogged))\n"
    "(S (DT the) (VBN waved))\n"
    "(S (DT the) (VBD halted))\n"
    "(S (DT the) (DT the))\n"
)


def test_unknown_model_suffix_statistics():
    bank = read_treebank(UNK_CORPUS)
    model = train_unknown_model(bank, threshold=5)
    stats = model.full_stats[("ed", False, False, False)]
    assert stats == {"VBN": 3, "VBD": 1}
    # 'the' occurs six times, above the threshold: DT never enters
    assert model.open_class == ("VBD", "VBN")


def test_tag_unknown_backs_off_to_shared_suffix():
    bank = read_treebank(UNK_CORPUS)
    model = train_unknown_model(bank, threshold=5)
    distribution = model.tag_distribution("walked")
    assert distribution == {"VBN": Fraction(3, 4), "VBD": Fraction(1, 4)}


def test_tag_unknown_uniform_fallback():
    bank = read_treebank(UNK_CORPUS)
    model = train_unknown_model(bank, threshold=5)
    assert model.tag_distribution("zzz") == {"VBD": Fraction(1, 2),
                                             "VBN": Fraction(1, 2)}


def test_tag_unknown_always_normalized():
    bank = read_treebank(UNK_CORPUS)
    model = train_unknown_model(bank, threshold=5)
    rng = random.Random(3)
    alphabet = "abcdefgh-XY123"
    for _ in range(50):
        word = "".join(rng.choice(alphabet)
                       for _ in range(rng.randint(1, 10)))
        assert sum(model.tag_distribution(word).values()) == 1


def test_word_features():
    suffixes, caps, hyphen, digit = word_features("Xylo-12")
    assert suffixes == ("-12", "12", "2")
    assert caps and hyphen and digit
    assert word_features("ab") == (("ab", "b"), False, False, False)


def test_unknown_threshold_zero():
    bank = read_treebank(UNK_CORPUS)
    with pytest.raises(ValueError):
        train_unknown_model(bank, threshold=0)


def test_unknown_no_rare_words():
    bank = read_treebank("(S (X a) (X a))\n(S (X a) (X a))\n")
    with pytest.raises(GrammarError):
        train_unknown_model(bank, threshold=1)


def _reference_build_model(fragments, restriction, rules, start_labels=None):
    # the filtered copy and one Fraction per entry, as build_model was
    # before it read the counts through a pass mask
    kept = {fragment: count for fragment, count in fragments.items()
            if passes(fragment, restriction, rules)}
    if not kept:
        raise GrammarError("no fragments pass the restriction; empty grammar")
    root_totals = Counter()
    for fragment, count in kept.items():
        root_totals[fragment.root] += count
    entries = {}
    for fragment, count in kept.items():
        entries[fragment.key] = ModelEntry(
            fragment.key, count, Fraction(count, root_totals[fragment.root]))
    if start_labels is None:
        start_labels = frozenset(root_totals)
    counts = Counter()
    for fragment, count in kept.items():
        if fragment.depth == 1:
            counts[fragment.root] += count
    total = sum(counts.values())
    priors = ({label: Fraction(c, total) for label, c in counts.items()}
              if counts else
              {label: Fraction(1, len(root_totals)) for label in root_totals})
    return FragmentModel(entries=entries, root_totals=dict(root_totals),
                         restriction=restriction,
                         start_labels=frozenset(start_labels), priors=priors)


def _reference_good_turing_adjust(model):
    # three Fraction operations per entry, as good_turing_adjust was before
    # it shared one probability per adjusted count
    new_entries, new_totals, reserved = {}, {}, {}
    for root, group in sorted(model.by_root().items()):
        total = model.root_totals[root]
        count_of_counts = Counter(e.count for e in group)
        n1 = count_of_counts.get(1, 0)
        if len(group) == 1 or n1 == total:
            for entry in group:
                new_entries[entry.key] = ModelEntry(
                    entry.key, entry.count, Fraction(entry.count, total))
            new_totals[root] = total
            reserved[root] = Fraction(0)
            continue
        adjusted = {}
        adjusting = True
        for r in sorted(count_of_counts):
            if adjusting and count_of_counts.get(r + 1, 0) > 0:
                adjusted[r] = Fraction((r + 1) * count_of_counts[r + 1],
                                       count_of_counts[r])
            else:
                adjusting = False
                adjusted[r] = Fraction(r)
        p0 = Fraction(n1, total)
        new_total = sum(adjusted[e.count] for e in group)
        for entry in group:
            star = adjusted[entry.count]
            new_entries[entry.key] = ModelEntry(
                entry.key, star, (1 - p0) * star / new_total)
        new_totals[root] = new_total
        reserved[root] = p0
    return FragmentModel(entries=new_entries, root_totals=new_totals,
                         restriction=model.restriction,
                         start_labels=model.start_labels,
                         priors=model.priors, smoothed=True,
                         reserved_mass=reserved,
                         unknown_words=model.unknown_words)


def _assert_same_model(model, reference):
    assert list(model.entries) == list(reference.entries)
    for key, entry in model.entries.items():
        expected = reference.entries[key]
        assert entry.key == expected.key == key
        assert (entry.count, type(entry.count)) == \
            (expected.count, type(expected.count))
        assert entry.probability == expected.probability
        assert type(entry.probability) is Fraction
    for name in ("root_totals", "priors", "reserved_mass"):
        assert list(getattr(model, name).items()) == \
            list(getattr(reference, name).items())
    assert model.start_labels == reference.start_labels
    assert model.smoothed == reference.smoothed
    assert model_to_text(model) == model_to_text(reference)


def _distinct_probabilities(model):
    return len({id(e.probability) for e in model.entries.values()})


def _distinct_root_counts(model):
    return len({(Fragment(e.key).root, e.count)
                for e in model.entries.values()})


# each bound low enough that the synthetic banks lose fragments to it
_LOW_BOUNDS = [RestrictionSet(max_depth=2),
               RestrictionSet(max_frontier_words=1),
               RestrictionSet(max_unlex_depth=1),
               RestrictionSet(max_nonheadwords=0)]


@pytest.mark.parametrize("seed", [3, 11, 29])
def test_models_share_one_probability_per_root_and_count(seed):
    from dop.cli import collect_fragments
    bank = synthetic_treebank(40, seed=seed)
    fragments, _ = collect_fragments(
        bank, RestrictionSet(max_depth=4, sample_per_depth=300), seed)
    before = Counter(fragments)
    start_labels = frozenset(tree.label for tree in bank.trees)
    for restriction in [RestrictionSet()] + _LOW_BOUNDS:
        model = build_model(fragments, restriction, default_head_rules(),
                            start_labels=start_labels)
        reference = _reference_build_model(
            fragments, restriction, default_head_rules(),
            start_labels=start_labels)
        if restriction != RestrictionSet():
            assert len(model.entries) < len(fragments)
        _assert_same_model(model, reference)
        assert _distinct_probabilities(model) == _distinct_root_counts(model)
        assert _distinct_root_counts(model) < len(model.entries)

        smoothed = good_turing_adjust(model)
        _assert_same_model(smoothed,
                           _reference_good_turing_adjust(reference))
        assert _distinct_probabilities(smoothed) == \
            _distinct_root_counts(smoothed)
    # the counts are read, not filtered in place
    assert fragments == before and list(fragments) == list(before)


def test_good_turing_shares_across_equal_adjusted_counts():
    # N1=2, N2=3, N3=1: 1 and 3 both adjust to 3, and 2 to 1; the entries
    # of one adjusted count share one probability
    counts = {"a": 1, "b": 1, "c": 2, "d": 2, "e": 2, "f": 3}
    fragments = Counter({frag("(X %s)" % word): count
                         for word, count in counts.items()})
    model = build_model(fragments, RestrictionSet(), TOY_HEAD_RULES)
    smoothed = good_turing_adjust(model)
    _assert_same_model(smoothed, _reference_good_turing_adjust(model))
    stars = {key[3]: e.count for key, e in smoothed.entries.items()}
    assert stars == {"a": 3, "b": 3, "c": 1, "d": 1, "e": 1, "f": 3}
    assert _distinct_probabilities(smoothed) == 2


def test_model_layers_build_no_fragment(toy_treebank, tmp_path, monkeypatch):
    # a model entry is its key: building, smoothing, writing and loading a
    # model construct no Fragment beyond the counts the model is built from
    fragments = extract_treebank(toy_treebank)
    built = []
    init = Fragment.__init__

    def counted(self, key):
        built.append(key)
        init(self, key)

    monkeypatch.setattr(Fragment, "__init__", counted)
    model = build_model(fragments, RestrictionSet(max_nonheadwords=1),
                        TOY_HEAD_RULES)
    assert len(model.entries) < len(fragments)
    smoothed = good_turing_adjust(model)
    text = model_to_text(smoothed)
    path = tmp_path / "smoothed.dopmodel"
    path.write_text(text)
    loaded = load_model(path)
    assert built == []
    assert model_to_text(loaded) == text
    # the count does see a Fragment built
    Fragment.from_string("(S  (NP) (VP))")
    assert built == ["(S (NP) (VP))"]
