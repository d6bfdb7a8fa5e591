import pytest

from dop import (Fragment, RestrictionSet, Site, build_model,
                 extract_treebank, good_turing_adjust, model_from_text,
                 model_to_text, read_treebank, train_unknown_model)
from dop.modelio import ModelFormatError, load_model, write_model
from conftest import TOY_HEAD_RULES


def test_round_trip_preserves_everything(toy_model, toy_treebank):
    toy_model.unknown_words = train_unknown_model(toy_treebank, threshold=5)
    text = model_to_text(toy_model)
    loaded = model_from_text(text)
    assert set(loaded.entries) == set(toy_model.entries)
    for key, entry in toy_model.entries.items():
        assert loaded.entries[key].count == entry.count
        assert loaded.entries[key].probability == entry.probability
    assert loaded.root_totals == toy_model.root_totals
    assert loaded.start_labels == toy_model.start_labels
    assert loaded.priors == toy_model.priors
    assert loaded.smoothed == toy_model.smoothed
    assert loaded.unknown_words.full_stats == toy_model.unknown_words.full_stats
    assert loaded.unknown_words.open_class == toy_model.unknown_words.open_class
    assert (loaded.unknown_words.suffix_stats
            == toy_model.unknown_words.suffix_stats)


def test_loaded_frontiers_share_sites_and_words(toy_model):
    # one Site object per label and one string per word, in every frontier
    loaded = model_from_text(model_to_text(toy_model))
    np_sites = [item for key in ("(S (NP) (VP))", "(VP (V likes) (NP))")
                for item in loaded.entries[key].fragment.frontier
                if item == Site("NP")]
    assert len(np_sites) == 2 and np_sites[0] is np_sites[1]
    first = {}
    for entry in loaded.entries.values():
        for item in entry.fragment.frontier:
            assert first.setdefault(item, item) is item
    # a frontier read lazily from a key shares them too
    lazy = Fragment("(S (NP mary) (VP))").frontier
    assert lazy[0] is first["mary"] and lazy[1] is first[Site("VP")]


def test_serialization_deterministic_and_stable(toy_model):
    text = model_to_text(toy_model)
    assert text == model_to_text(model_from_text(text))


def test_restriction_round_trip():
    bank = read_treebank("(S (A a) (B b))\n")
    restriction = RestrictionSet(max_depth=3, max_frontier_words=12,
                                 max_unlex_depth=6, max_nonheadwords=None,
                                 sample_per_depth=1000)
    model = build_model(extract_treebank(bank), restriction, TOY_HEAD_RULES)
    loaded = model_from_text(model_to_text(model))
    assert loaded.restriction == restriction


def test_smoothed_round_trip(toy_model):
    smoothed = good_turing_adjust(toy_model)
    loaded = model_from_text(model_to_text(smoothed))
    assert loaded.smoothed
    assert loaded.reserved_mass == {
        root: mass for root, mass in smoothed.reserved_mass.items() if mass}
    for key, entry in smoothed.entries.items():
        assert loaded.entries[key].count == entry.count
        assert loaded.entries[key].probability == entry.probability


def test_file_round_trip(tmp_path, toy_model):
    path = tmp_path / "toy.dopmodel"
    write_model(toy_model, path)
    assert model_to_text(load_model(path)) == model_to_text(toy_model)


def test_rejects_garbage():
    with pytest.raises(ModelFormatError):
        model_from_text("not a model\n")


def test_rejects_inconsistent_totals(toy_model):
    text = model_to_text(toy_model)
    assert "root\tNP\t4\t4\t0" in text
    broken = text.replace("root\tNP\t4\t4\t0", "root\tNP\t4\t5\t0")
    with pytest.raises(ModelFormatError):
        model_from_text(broken)


def _corrupt_first_entry(text):
    lines = text.split("\n")
    row = lines.index("entries") + 1
    count, probability, key = lines[row].split("\t")
    lines[row] = "%s\t%s\t(%s" % (count, probability, key)
    return "\n".join(lines), row + 1


def test_bad_entry_key_names_its_line(toy_model):
    text, lineno = _corrupt_first_entry(model_to_text(toy_model))
    with pytest.raises(ModelFormatError) as err:
        model_from_text(text)
    assert str(err.value).startswith("line %d: " % lineno)
    assert "bad fragment key" in str(err.value)


def test_parse_reports_bad_entry_line(tmp_path, toy_model, capsys):
    from dop.cli import main
    text, lineno = _corrupt_first_entry(model_to_text(toy_model))
    path = tmp_path / "bad.dopmodel"
    path.write_text(text)
    sents = tmp_path / "sents.txt"
    sents.write_text("john sleeps\n")
    assert main(["parse", "--model", str(path), "--input", str(sents)]) == 2
    assert "line %d: " % lineno in capsys.readouterr().err
