import re

import pytest

from dop import (Fragment, RestrictionSet, SentenceParser, Site,
                 build_model, extract_treebank, good_turing_adjust,
                 model_from_text, model_to_text, read_treebank,
                 train_unknown_model)
from dop.modelio import ModelFormatError, load_model, read_model, write_model
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
    _, rows = read_model(model_to_text(toy_model))
    frontiers = {key: frontier for _, key, frontier, _, _ in rows}
    np_sites = [item for key in ("(S (NP) (VP))", "(VP (V likes) (NP))")
                for item in frontiers[key]
                if item == Site("NP")]
    assert len(np_sites) == 2 and np_sites[0] is np_sites[1]
    first = {}
    for frontier in frontiers.values():
        for item in frontier:
            assert first.setdefault(item, item) is item
    # a frontier read lazily from a key shares them too
    lazy = Fragment("(S (NP mary) (VP))").frontier
    assert lazy[0] is first["mary"] and lazy[1] is first[Site("VP")]


def test_loaded_entries_share_equal_numbers(toy_model):
    # one count and one probability object per distinct text in the file
    for model in (toy_model, good_turing_adjust(toy_model)):
        loaded = model_from_text(model_to_text(model))
        for field in ("count", "probability"):
            first = {}
            for entry in loaded.entries.values():
                value = getattr(entry, field)
                assert first.setdefault((type(value), value), value) is value
            assert len(first) < len(loaded.entries)


def _parser_keys(path):
    with open(path, encoding="utf8") as handle:
        return {rule.key for rule in SentenceParser(handle).rules}


@pytest.mark.parametrize("read_keys", [
    lambda path: set(load_model(path).entries), _parser_keys,
], ids=["load_model", "parser"])
def test_key_pieces_are_dropped_with_the_load(tmp_path, toy_model,
                                              monkeypatch, read_keys):
    import weakref
    import dop.modelio
    made = []

    class RecordedPieces(dop.modelio.KeyPieces):
        def __init__(self):
            super().__init__()
            made.append(weakref.ref(self))

    monkeypatch.setattr(dop.modelio, "KeyPieces", RecordedPieces)
    path = tmp_path / "toy.dopmodel"
    write_model(toy_model, path)
    keys = read_keys(path)
    assert len(made) == 1 and made[0]() is None
    assert keys == set(toy_model.entries)


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
    lineno = broken.split("\n").index("root\tNP\t4\t5\t0") + 1
    with pytest.raises(ModelFormatError, match="^line %d: root NP: entry "
                       "counts sum to 4, its row says 5$" % lineno):
        model_from_text(broken)


def _replace(old, new):
    def change(lines):
        lines[lines.index(old)] = new
        return new
    return change


def _add_root_row(lines):
    lines.insert(lines.index("entries"), "root\tW\t1\t1\t0")
    return "root\tW\t1\t1\t0"


def _drop_root_row(lines):
    lines.remove("root\tV\t2\t2\t0")
    return "1\t1/2\t(V hates)"


@pytest.mark.parametrize("change, message", [
    (_replace("root\tNP\t4\t4\t0", "root\tNP\t5\t4\t0"),
     "root NP has 4 entry rows, its row says 5"),
    (_replace("root\tVP\t7\t8\t0", "root\tVP\t6\t8\t0"),
     "root VP has 7 entry rows, its row says 6"),
    (_replace("root\tS\t18\t20\t0", "root\tS\t18\t19\t0"),
     "root S: entry counts sum to 20, its row says 19"),
    (_add_root_row, "root W has no entry rows, its row says 1"),
    (_drop_root_row, "entry rows of root V have no root row"),
], ids=["more-rows", "fewer-rows", "sum", "root-row-without-rows",
        "rows-without-root-row"])
def test_root_rows_must_agree_with_their_entry_rows(tmp_path, toy_model,
                                                    capsys, change, message):
    # each problem is reported on the root's root row, or on its first
    # entry row when it has no root row
    from dop.cli import main
    lines = model_to_text(toy_model).split("\n")
    lineno = lines.index(change(lines)) + 1
    text = "\n".join(lines)
    with pytest.raises(ModelFormatError,
                       match="^line %d: %s$" % (lineno, message)):
        model_from_text(text)
    path = tmp_path / "bad.dopmodel"
    path.write_text(text)
    sents = tmp_path / "sents.txt"
    sents.write_text("john likes mary\n")
    assert main(["parse", "--model", str(path), "--input", str(sents)]) == 2
    err = capsys.readouterr().err
    assert err == "dop parse: line %d: %s\n" % (lineno, message)


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


def _corrupt_row(text, prefix, change):
    """The text with change applied to its first line starting with prefix,
    and that line's number."""
    lines = text.split("\n")
    row = next(i for i, line in enumerate(lines) if line.startswith(prefix))
    lines[row] = change(lines[row])
    return "\n".join(lines), row + 1


def _entry_probability(probability):
    def change(line):
        count, _, key = line.split("\t")
        return "%s\t%s\t%s" % (count, probability, key)
    return change


@pytest.mark.parametrize("prefix, change", [
    ("1\t", _entry_probability("1/0")),
    ("1\t", _entry_probability("0/5")),
    ("1\t", _entry_probability("5/4")),
    ("prior\t", lambda line: line.rsplit("\t", 1)[0]),
    ("root\t", lambda line: line.rsplit("\t", 2)[0]),
    ("restriction\t", lambda line: line + "\tbogus=1"),
    ("restriction\t", lambda line: line.replace("=-", "=x", 1)),
    ("smoothing\t", lambda line: "smoothing"),
    ("smoothing\t", lambda line: "smoothing\tyes"),
    ("unk\t", lambda line: "unk\tmany"),
    ("unkstat\t", lambda line: line + "\t1"),
    ("root\t", lambda line: line[:-1] + "1/0"),
    ("root\t", lambda line: line.replace("\t4\t", "\tbanana\t", 1)),
    ("root\t", lambda line: line.replace("\t4\t", "\t0\t", 1)),
], ids=["zero-denominator", "zero-probability", "probability-above-1",
        "prior-missing-field", "root-missing-fields",
        "unknown-restriction", "restriction-not-a-number",
        "smoothing-missing-field", "smoothing-not-on-or-off",
        "unk-not-a-number", "unkstat-extra-field",
        "reserved-zero-denominator", "root-entries-not-a-number",
        "root-entries-zero"])
def test_parse_reports_malformed_row_line(tmp_path, toy_model, toy_treebank,
                                          capsys, prefix, change):
    from dop.cli import main
    toy_model.unknown_words = train_unknown_model(toy_treebank, threshold=5)
    text, lineno = _corrupt_row(model_to_text(toy_model), prefix, change)
    path = tmp_path / "bad.dopmodel"
    path.write_text(text)
    sents = tmp_path / "sents.txt"
    sents.write_text("john likes mary\n")
    assert main(["parse", "--model", str(path), "--input", str(sents)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("dop parse: line %d: " % lineno)
    assert "Traceback" not in err


def _repeat_row(row, new=None):
    # the row again, or new in its place, after it; returns the second line
    def change(lines):
        lines.insert(lines.index(row) + 1, new or row)
        return lines.index(row) + 2
    return change


def _set_prior(row, new):
    def change(lines):
        lines[lines.index(row)] = new
        return lines.index("prior\tVP\t1/5") + 1     # the last prior row
    return change


@pytest.mark.parametrize("change, message", [
    (_repeat_row("root\tNP\t4\t4\t0"), "a second root row for NP"),
    (_repeat_row("root\tNP\t4\t4\t0", "root\tNP\t4\t4\t1/2"),
     "a second root row for NP"),
    (_repeat_row("prior\tNP\t2/5", "prior\tNP\t3/5"),
     "a second prior row for NP"),
    (_set_prior("prior\tNP\t2/5", "prior\tNP\t3/5"),
     "the priors sum to 6/5, not 1"),
    (_set_prior("prior\tS\t1/5", "prior\tS\t1/10"),
     "the priors sum to 9/10, not 1"),
], ids=["repeated-root", "repeated-root-reserving", "repeated-prior",
        "priors-above-1", "priors-below-1"])
def test_parse_refuses_repeated_or_unnormalized_header_rows(
        tmp_path, toy_model, capsys, change, message):
    _assert_refused(tmp_path, capsys, toy_model, change, message,
                    "john likes mary")


def _assert_refused(tmp_path, capsys, model, change, message, sentence):
    """model's text, with change made to its lines, is refused with
    message on the line change returns, by model_from_text and by dop
    parse on sentence."""
    from dop.cli import main
    lines = model_to_text(model).split("\n")
    lineno = change(lines)
    text = "\n".join(lines)
    with pytest.raises(ModelFormatError, match="^%s$" % re.escape(
            "line %d: %s" % (lineno, message))):
        model_from_text(text)
    path = tmp_path / "bad.dopmodel"
    path.write_text(text)
    sents = tmp_path / "sents.txt"
    sents.write_text(sentence + "\n")
    assert main(["parse", "--model", str(path), "--input", str(sents)]) == 2
    err = capsys.readouterr().err
    assert err == "dop parse: line %d: %s\n" % (lineno, message)


def _replace_row(row, new):
    def change(lines):
        lines[lines.index(row)] = new
        return lines.index(new) + 1
    return change


@pytest.mark.parametrize("change, message", [
    (_replace_row("1\t1/4\t(NP john)", "-1\t1/4\t(NP john)"),
     "count -1 is not above 0"),
    (_replace_row("1\t1/4\t(NP john)", "0\t1/4\t(NP john)"),
     "count 0 is not above 0"),
    (_replace_row("1\t1/4\t(NP john)", "-1/2\t1/4\t(NP john)"),
     "count -1/2 is not above 0"),
    (_replace_row("root\tNP\t4\t4\t0", "root\tNP\t4\t-1\t0"),
     "root NP has total -1, not above 0"),
    (_replace_row("root\tNP\t4\t4\t0", "root\tNP\t4\t0\t0"),
     "root NP has total 0, not above 0"),
    (_replace_row("root\tNP\t4\t4\t0", "root\tNP\t4\t-1/2\t0"),
     "root NP has total -1/2, not above 0"),
    (_replace_row("root\tNP\t4\t4\t0", "root\tNP\t4\t4\t2"),
     "root NP reserves 2, not in [0, 1)"),
    (_replace_row("root\tNP\t4\t4\t0", "root\tNP\t4\t4\t1"),
     "root NP reserves 1, not in [0, 1)"),
    (_replace_row("root\tNP\t4\t4\t0", "root\tNP\t4\t4\t-1/2"),
     "root NP reserves -1/2, not in [0, 1)"),
    (_replace_row("prior\tNP\t2/5", "prior\tNP\t-1/5"),
     "probability -1/5 is not in (0, 1]"),
    (_replace_row("prior\tNP\t2/5", "prior\tNP\t6/5"),
     "probability 6/5 is not in (0, 1]"),
    (_replace_row("unkstat\tan\t0\t0\t0\tNP\t1",
                  "unkstat\tan\t0\t0\t0\tNP\t0"),
     "unkstat count 0 is not above 0"),
    (_replace_row("unkstat\tan\t0\t0\t0\tNP\t1",
                  "unkstat\tan\t7\t0\t0\tNP\t1"),
     "unkstat flags 7 0 0 are not each 0 or 1"),
    (_replace_row("unkstat\tan\t0\t0\t0\tNP\t1",
                  "unkstat\tan\t0\t-1\t0\tNP\t1"),
     "unkstat flags 0 -1 0 are not each 0 or 1"),
    (_replace_row("unkstat\tan\t0\t0\t0\tNP\t1",
                  "unkstat\tan\t0\t0\t7\tNP\t1"),
     "unkstat flags 0 0 7 are not each 0 or 1"),
    (_replace_row("unk\t5", "unk\t0"), "unk threshold 0 is not at least 1"),
    (_replace_row("unk\t5", "unk\t-1"),
     "unk threshold -1 is not at least 1"),
], ids=["count-negative", "count-zero", "count-negative-fraction",
        "total-negative", "total-zero", "total-negative-fraction",
        "reserved-above-1", "reserved-1", "reserved-negative",
        "prior-negative", "prior-above-1", "unkstat-count-zero",
        "unkstat-caps-7", "unkstat-hyphen-negative", "unkstat-digit-7",
        "unk-threshold-zero", "unk-threshold-negative"])
def test_parse_refuses_out_of_range_numbers(tmp_path, toy_model, toy_treebank,
                                            capsys, change, message):
    # "sam" is out of vocabulary: its rules read the root totals and the
    # reserved mass, so unchecked, a case can give it a probability above
    # 1 or end in a ZeroDivisionError
    toy_model.unknown_words = train_unknown_model(toy_treebank, threshold=5)
    _assert_refused(tmp_path, capsys, toy_model, change, message,
                    "sam likes mary")


def test_a_model_without_prior_rows_loads(toy_model):
    text = "".join(line for line in model_to_text(toy_model).splitlines(True)
                   if not line.startswith("prior\t"))
    assert model_from_text(text).priors == {}
    assert SentenceParser(text.splitlines()).parse(
        "john likes mary".split()) is not None


def test_model_read_from_lines_equals_model_read_from_text(toy_model):
    # load_model hands model_from_text the open file, which yields lines
    text = model_to_text(toy_model)
    from_lines = model_from_text(iter(text.splitlines(keepends=True)))
    assert model_to_text(from_lines) == text


def _entry_lines(text):
    """The lines of text, and the index of its first entry row."""
    lines = text.split("\n")
    return lines, lines.index("entries") + 1


def _repeat_np_john(lines, first):
    row = lines.index("1\t1/4\t(NP john)", first)
    lines.insert(row + 1, lines[row])
    return row + 2


def _swap_two_rows(lines, first):
    lines[first + 2], lines[first + 3] = lines[first + 3], lines[first + 2]
    return first + 4


def _swap_first_and_last_rows(lines, first):
    # (VP (V) (NP)) first: the row after it, (NP mary), is out of order
    lines[first], lines[-2] = lines[-2], lines[first]    # "" after the last
    return first + 2


@pytest.mark.parametrize("change", [_repeat_np_john, _swap_two_rows,
                                    _swap_first_and_last_rows],
                         ids=["repeated-row", "swapped-rows",
                              "swapped-roots"])
def test_parse_refuses_entry_rows_out_of_order(tmp_path, toy_model, capsys,
                                               change):
    # the per-root sums match either way: only the order tells
    from dop.cli import main
    lines, first = _entry_lines(model_to_text(toy_model))
    lineno = change(lines, first)
    path = tmp_path / "bad.dopmodel"
    path.write_text("\n".join(lines))
    sents = tmp_path / "sents.txt"
    sents.write_text("john likes mary\n")
    assert main(["parse", "--model", str(path), "--input", str(sents)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("dop parse: line %d: entry " % lineno)
    assert "Traceback" not in err
    with pytest.raises(ModelFormatError, match="^line %d: " % lineno):
        model_from_text("\n".join(lines))


@pytest.mark.parametrize("change, refused", [
    (lambda line: line.replace("1/4", "1/0"), 0),
    (lambda line: line.replace("(NP susan)", "(NP (susan)"), 0),
    (lambda line: line + "\n" + line, 1),
], ids=["zero-denominator", "bad-key", "repeated-row"])
def test_parse_refuses_a_row_its_input_cannot_use(tmp_path, toy_model,
                                                  capsys, change, refused):
    # the row of (NP susan) becomes no rule for this input, but it is read
    # and checked all the same; refused is the refused line's offset from it
    from dop.cli import main
    text = model_to_text(toy_model)
    lines, first = _entry_lines(text)
    row = lines.index("1\t1/4\t(NP susan)", first)
    lines[row] = change(lines[row])
    path = tmp_path / "bad.dopmodel"
    path.write_text("\n".join(lines))
    sents = tmp_path / "sents.txt"
    sents.write_text("john likes mary\n")
    assert main(["parse", "--model", str(path), "--input", str(sents)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("dop parse: line %d: " % (row + 1 + refused))
    assert "Traceback" not in err


def test_respaced_keys_load_and_parse_the_same(tmp_path, toy_model):
    # order is checked on the canonical key, whatever the spacing
    from dop.cli import main
    text = model_to_text(toy_model)
    lines, first = _entry_lines(text)
    lines[first:] = [line.replace(" (", "  (") for line in lines[first:]]
    row = lines.index("1\t1/20\t(S  (NP john)  (VP))")
    lines[row] = "1\t1/20\t(S  (NP john)\t(VP))"
    respaced = "\n".join(lines)
    assert model_to_text(model_from_text(respaced)) == text
    sents = tmp_path / "sents.txt"
    sents.write_text("john likes mary\npeter hates mary\nsam likes john\n")
    outputs = []
    for name, content in (("toy", text), ("respaced", respaced)):
        path = tmp_path / ("%s.dopmodel" % name)
        path.write_text(content)
        out = tmp_path / ("%s.txt" % name)
        assert main(["parse", "--model", str(path), "--input", str(sents),
                     "--output", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] and outputs[0].count(b"(S ") == 2


def test_bad_prune_ratio_fails_before_the_entry_rows(tmp_path, toy_model,
                                                     capsys):
    from dop.cli import main
    text, lineno = _corrupt_first_entry(model_to_text(toy_model))
    path = tmp_path / "bad.dopmodel"
    path.write_text(text)
    sents = tmp_path / "sents.txt"
    sents.write_text("john likes mary\n")
    assert main(["parse", "--model", str(path), "--input", str(sents),
                 "--prune-ratio", "0"]) == 2
    assert capsys.readouterr().err == \
        "dop parse: prune_ratio must be in (0, 1]\n"
