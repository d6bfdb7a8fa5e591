"""Model files: a tab-separated header plus one line per fragment.

Layout (all fields tab-separated, fractions as "a/b")::

    dopmodel<TAB>1
    restriction<TAB>max_depth=14<TAB>...<TAB>sample_per_depth=400000
    smoothing<TAB>on|off
    start<TAB>S<TAB>...
    prior<TAB>LABEL<TAB>fraction
    root<TAB>LABEL<TAB>entries<TAB>total<TAB>reserved
    unk<TAB>threshold
    unkstat<TAB>suffix<TAB>caps<TAB>hyphen<TAB>digit<TAB>tag<TAB>count
    entries
    count<TAB>probability<TAB>canonical_key

Everything is sorted (roots and priors by label, entries by root then key)
so equal models serialize to identical bytes. The file is written and read
line by line: neither side holds its whole text or a list of its lines.
Entries with the same count or probability text share one number object.
Keys are read back in canonical form: a key written with other spacing
(``(S  (NP john)\t(VP))``) loads as the fragment whose key is
``(S (NP john) (VP))``. A malformed row of any kind (a bad key, a field
missing, a number that does not parse, a zero denominator, a probability
or prior outside (0, 1], a root total or an entry or unkstat count not
above 0, an unkstat flag other than 0 or 1, an unk threshold below 1, a
reserved mass outside [0, 1), a second root or prior row for one label,
an entry not strictly after the one before it in (root, canonical key)
order, such as a repeated one) is reported with its line number, and
prior rows that do not sum to exactly 1 on the last one's.
Once the entry rows are read, each root's rows are checked against its
root row, their number and their count sum: a mismatch is reported on the
root row's line, and a root with entry rows but no root row on its first
entry row's line. Head rules are not stored: they decide which fragments
pass the restriction at training time, and a loaded model has no use for
them.
`read_model` is the file's one reader, and yields each entry row as key
text: `model_from_text` makes a `ModelEntry` of each key, count and
probability, and `parser.SentenceParser` a rule. Neither builds a
`Fragment`, and the writer reads each root from its key.
"""

import gc
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from fractions import Fraction
from itertools import islice

from .fragments import KeyPieces, RestrictionSet, _read_key, key_root
from .model import FragmentModel, ModelEntry, UnknownWordModel

_FORMAT_VERSION = "1"
_RESTRICTION_FIELDS = ("max_depth", "max_frontier_words", "max_unlex_depth",
                       "max_nonheadwords", "sample_per_depth")


class ModelFormatError(ValueError):
    pass


def _parse_num(text):
    """An int from "n", or a Fraction from "a/b" built from its two
    integers."""
    numerator, slash, denominator = text.partition("/")
    if not slash:
        return int(numerator)
    denominator = int(denominator)
    if denominator == 0:
        raise ValueError("%r has a zero denominator" % text)
    return Fraction(int(numerator), denominator)


def _probability(text) -> Fraction:
    """A probability in (0, 1], as "a/b" with a positive b, or "1"."""
    numerator, slash, denominator = text.partition("/")
    numerator = int(numerator)
    denominator = int(denominator) if slash else 1
    if not 0 < numerator <= denominator:
        raise ValueError("probability %s is not in (0, 1]" % text)
    return Fraction(numerator, denominator)


def _model_lines(model: FragmentModel):
    """The lines of the model's file, each with its newline."""
    yield "dopmodel\t%s\n" % _FORMAT_VERSION
    fields = []
    for name in _RESTRICTION_FIELDS:
        value = getattr(model.restriction, name)
        fields.append("%s=%s" % (name, "-" if value is None else value))
    yield "restriction\t%s\n" % "\t".join(fields)
    yield "smoothing\t%s\n" % ("on" if model.smoothed else "off")
    yield "start\t%s\n" % "\t".join(sorted(model.start_labels))
    for label in sorted(model.priors):
        yield "prior\t%s\t%s\n" % (label, model.priors[label])
    grouped = defaultdict(list)
    for key in model.entries:
        grouped[key_root(key)].append(key)
    for root in sorted(grouped):
        yield "root\t%s\t%d\t%s\t%s\n" % (
            root, len(grouped[root]), model.root_totals[root],
            model.reserved_mass.get(root, 0))
    unknown = model.unknown_words
    if unknown is not None:
        yield "unk\t%d\n" % unknown.threshold
        for (suffix, caps, hyphen, digit) in sorted(unknown.full_stats):
            tags = unknown.full_stats[(suffix, caps, hyphen, digit)]
            for tag in sorted(tags):
                yield "unkstat\t%s\t%d\t%d\t%d\t%s\t%d\n" % (
                    suffix, caps, hyphen, digit, tag, tags[tag])
    yield "entries\n"
    for root in sorted(grouped):
        for key in sorted(grouped[root]):
            entry = model.entries[key]
            yield "%s\t%s\t%s\n" % (entry.count, entry.probability, key)


def model_to_text(model: FragmentModel) -> str:
    return "".join(_model_lines(model))


# the header records with a fixed number of fields
_RECORD_FIELDS = {"smoothing": 2, "prior": 3, "root": 5, "unk": 2,
                  "unkstat": 7}


def read_model(text, probability=_probability):
    """(header, rows) of a model's text, or of its lines as an open file
    yields them, one at a time.

    header is the model without entries. rows yields (root, key, frontier,
    count, probability(text)) per entry row, in file order, as it reads
    them: key is the row's key in canonical form, root its label, one
    string per root, and frontier its words and Sites. Each distinct count
    and probability text is read and checked once, and each root's row
    count and count sum are checked once rows is used up.
    """
    lines = enumerate(text.splitlines() if isinstance(text, str) else text,
                      start=1)
    if not next(lines, (1, ""))[1].startswith("dopmodel\t"):
        raise ModelFormatError("not a model file")
    restriction = RestrictionSet()
    smoothed = False
    start = []
    priors = {}
    root_totals = {}
    reserved = {}
    roots = {}                # label -> (root row's line, entry count)
    unk_threshold = None
    unk_stats = defaultdict(Counter)
    for lineno, line in lines:
        row = line.rstrip("\n")
        if not row:
            continue
        fields = row.split("\t")
        tag = fields[0]
        if tag == "entries":
            break
        try:
            if len(fields) != _RECORD_FIELDS.get(tag, len(fields)):
                raise ValueError("a %s row has %d fields, not %d" % (
                    tag, len(fields), _RECORD_FIELDS[tag]))
            if tag == "restriction":
                values = {}
                for assignment in fields[1:]:
                    name, _, raw = assignment.partition("=")
                    if name not in _RESTRICTION_FIELDS:
                        raise ValueError("unknown restriction %r" % name)
                    values[name] = None if raw == "-" else int(raw)
                restriction = RestrictionSet(**values)
            elif tag == "smoothing":
                if fields[1] not in ("on", "off"):
                    raise ValueError("smoothing is %r, not on or off"
                                     % fields[1])
                smoothed = fields[1] == "on"
            elif tag == "start":
                start = fields[1:]
            elif tag in ("prior", "root") and fields[1] in (
                    priors if tag == "prior" else roots):
                raise ValueError("a second %s row for %s" % (tag, fields[1]))
            elif tag == "prior":
                priors[fields[1]] = _probability(fields[2])
                last_prior = lineno
            elif tag == "root":
                entries = int(fields[2])
                if entries < 1:
                    raise ValueError("root %s has %d entries, not at least 1"
                                     % (fields[1], entries))
                total = root_totals[fields[1]] = _parse_num(fields[3])
                if total <= 0:
                    raise ValueError("root %s has total %s, not above 0"
                                     % (fields[1], fields[3]))
                mass = reserved[fields[1]] = _parse_num(fields[4])
                if not 0 <= mass < 1:
                    raise ValueError("root %s reserves %s, not in [0, 1)"
                                     % (fields[1], fields[4]))
                roots[fields[1]] = (lineno, entries)
            elif tag == "unk":
                unk_threshold = int(fields[1])
                if unk_threshold < 1:
                    raise ValueError("unk threshold %s is not at least 1"
                                     % fields[1])
            elif tag == "unkstat":
                suffix, *flags, pos, count = fields[1:]
                if not set(flags) <= {"0", "1"}:
                    raise ValueError("unkstat flags %s are not each 0 or 1"
                                     % " ".join(flags))
                if int(count) < 1:
                    raise ValueError("unkstat count %s is not above 0" % count)
                flags = (flag == "1" for flag in flags)
                unk_stats[(suffix, *flags)][pos] = int(count)
            else:
                raise ValueError("unknown record %r" % tag)
        except ValueError as err:
            raise ModelFormatError("line %d: %s" % (lineno, err)) from None
    if priors and sum(priors.values()) != 1:
        raise ModelFormatError("line %d: the priors sum to %s, not 1"
                               % (last_prior, sum(priors.values())))
    unknown = None
    if unk_threshold is not None:
        unknown = UnknownWordModel(threshold=unk_threshold,
                                   full_stats=dict(unk_stats))
    header = FragmentModel(
        entries={}, root_totals=root_totals, restriction=restriction,
        start_labels=frozenset(start), priors=priors, smoothed=smoothed,
        reserved_mass={k: v for k, v in reserved.items() if v},
        unknown_words=unknown)
    return header, _entry_rows(lines, roots, root_totals, probability)


def _entry_rows(lines, roots, root_totals, probability):
    # A model has few distinct counts and probabilities (745 probabilities
    # among 473989 entries), so each distinct text is read once.
    pieces = KeyPieces()       # the key pieces read so far
    read_counts = {}           # count text -> int or Fraction
    read_probabilities = {}    # probability text -> probability(text)
    # root -> [its first row's line, its rows, their count sum, exact for
    # Fractions]; a root's rows are contiguous, in (root, key) order
    tallies = {}
    root = key = ""            # the previous row's; below any real one
    for lineno, line in lines:
        row = line.rstrip("\n")
        if not row:
            continue
        try:
            count, share, text = row.split("\t", 2)
        except ValueError:
            raise ModelFormatError("line %d: bad entry row" % lineno) from None
        try:
            frontier, text = _read_key(text, pieces=pieces)
            number = read_counts.get(count)
            if number is None:
                number = read_counts[count] = _parse_num(count)
                if number <= 0:
                    raise ValueError("count %s is not above 0" % count)
            value = read_probabilities.get(share)
            if value is None:
                value = read_probabilities[share] = probability(share)
        except ValueError as err:
            raise ModelFormatError("line %d: %s" % (lineno, err)) from None
        label = key_root(text)
        if label < root or label == root and text <= key:
            raise ModelFormatError(
                "line %d: entry %s does not come after %s in (root, key) "
                "order" % (lineno, text, key))
        if label != root:
            # the rows of one root share one root string
            root = sys.intern(label)
            tally = tallies[root] = [lineno, 0, 0]
        key = text
        tally[1] += 1
        tally[2] += number
        yield root, key, frontier, number, value
    # each root's rows against its root row; of several problems, the one
    # on the first line is reported
    problems = []
    for label, (first, rows, total) in tallies.items():
        if label not in roots:
            problems.append((first, "entry rows of root %s have no root row"
                             % label))
            continue
        lineno, entries = roots[label]
        if rows != entries:
            problems.append((lineno, "root %s has %d entry rows, its row "
                             "says %d" % (label, rows, entries)))
        elif total != root_totals[label]:
            problems.append((lineno, "root %s: entry counts sum to %s, its "
                             "row says %s" % (label, total, root_totals[label])))
    for label, (lineno, entries) in roots.items():
        if label not in tallies:
            problems.append((lineno, "root %s has no entry rows, its row "
                             "says %d" % (label, entries)))
    if problems:
        raise ModelFormatError("line %d: %s" % min(problems))


def model_from_text(text) -> FragmentModel:
    """A model read from its text or lines (see read_model)."""
    model, rows = read_model(text)
    model.entries = {key: ModelEntry(key, count, probability)
                     for _, key, _, count, probability in rows}
    return model


def write_model(model: FragmentModel, path):
    lines = _model_lines(model)
    with open(path, "w", encoding="utf8") as handle:
        # a few thousand lines per write: one write per line costs more
        # than the text of the line
        while chunk := "".join(islice(lines, 4096)):
            handle.write(chunk)


@contextmanager
def collector_paused():
    """The cycle collector off inside; after, back as the caller had it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def load_model(path) -> FragmentModel:
    # The model's objects form no cycles, so a full collection while they
    # are built would only scan them again. `dop` commands already run
    # with the collector off; this pause is for library callers.
    with open(path, encoding="utf8") as handle, collector_paused():
        return model_from_text(handle)
