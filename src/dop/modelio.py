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
so equal models serialize to identical bytes. Keys are read back in
canonical form: a key written with other spacing (``(S  (NP john)\t(VP))``)
loads as the fragment whose key is ``(S (NP john) (VP))``, and a bad key
is reported with its line number. Head rules are not stored:
they decide which fragments pass the restriction at training time, and a
loaded model has no use for them.
"""

import gc
from collections import Counter, defaultdict
from contextlib import contextmanager
from fractions import Fraction

from .fragments import Fragment, RestrictionSet
from .model import FragmentModel, ModelEntry, UnknownWordModel

_FORMAT_VERSION = "1"
_RESTRICTION_FIELDS = ("max_depth", "max_frontier_words", "max_unlex_depth",
                       "max_nonheadwords", "sample_per_depth")


class ModelFormatError(ValueError):
    pass


def _num(value) -> str:
    return str(value)          # int -> "n", Fraction -> "a/b" or "n"


def _parse_num(text):
    if "/" in text:
        return Fraction(text)
    return int(text)


def model_to_text(model: FragmentModel) -> str:
    lines = ["dopmodel\t%s" % _FORMAT_VERSION]
    fields = []
    for name in _RESTRICTION_FIELDS:
        value = getattr(model.restriction, name)
        fields.append("%s=%s" % (name, "-" if value is None else value))
    lines.append("restriction\t%s" % "\t".join(fields))
    lines.append("smoothing\t%s" % ("on" if model.smoothed else "off"))
    lines.append("start\t%s" % "\t".join(sorted(model.start_labels)))
    for label in sorted(model.priors):
        lines.append("prior\t%s\t%s" % (label, _num(model.priors[label])))
    grouped = defaultdict(list)
    for key, entry in model.entries.items():
        grouped[entry.fragment.root].append(key)
    for root in sorted(grouped):
        lines.append("root\t%s\t%d\t%s\t%s" % (
            root, len(grouped[root]), _num(model.root_totals[root]),
            _num(model.reserved_mass.get(root, Fraction(0)))))
    unknown = model.unknown_words
    if unknown is not None:
        lines.append("unk\t%d" % unknown.threshold)
        for (suffix, caps, hyphen, digit) in sorted(unknown.full_stats):
            tags = unknown.full_stats[(suffix, caps, hyphen, digit)]
            for tag in sorted(tags):
                lines.append("unkstat\t%s\t%d\t%d\t%d\t%s\t%d" % (
                    suffix, caps, hyphen, digit, tag, tags[tag]))
    lines.append("entries")
    for root in sorted(grouped):
        for key in sorted(grouped[root]):
            entry = model.entries[key]
            lines.append("%s\t%s\t%s" % (
                _num(entry.count), _num(entry.probability), key))
    return "\n".join(lines) + "\n"


def model_from_text(text: str) -> FragmentModel:
    lines = text.splitlines()
    if not lines or not lines[0].startswith("dopmodel\t"):
        raise ModelFormatError("not a model file")
    restriction = RestrictionSet()
    smoothed = False
    start = []
    priors = {}
    root_totals = {}
    reserved = {}
    unk_threshold = None
    unk_stats = defaultdict(Counter)
    entries = {}
    in_entries = False
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        if in_entries:
            try:
                count, probability, key = line.split("\t", 2)
            except ValueError:
                raise ModelFormatError("line %d: bad entry row" % lineno)
            try:
                fragment = Fragment.from_string(key)
                entries[fragment.key] = ModelEntry(
                    fragment, _parse_num(count), Fraction(probability))
            except ValueError as err:
                raise ModelFormatError("line %d: %s" % (lineno, err)) from None
            continue
        fields = line.split("\t")
        tag = fields[0]
        if tag == "restriction":
            values = {}
            for assignment in fields[1:]:
                name, _, raw = assignment.partition("=")
                values[name] = None if raw == "-" else int(raw)
            restriction = RestrictionSet(**values)
        elif tag == "smoothing":
            smoothed = fields[1] == "on"
        elif tag == "start":
            start = fields[1:]
        elif tag == "prior":
            priors[fields[1]] = Fraction(fields[2])
        elif tag == "root":
            root_totals[fields[1]] = _parse_num(fields[3])
            reserved[fields[1]] = Fraction(fields[4])
        elif tag == "unk":
            unk_threshold = int(fields[1])
        elif tag == "unkstat":
            suffix, caps, hyphen, digit, pos, count = fields[1:]
            unk_stats[(suffix, bool(int(caps)), bool(int(hyphen)),
                       bool(int(digit)))][pos] = int(count)
        elif tag == "entries":
            in_entries = True
        else:
            raise ModelFormatError("line %d: unknown record %r" % (lineno, tag))
    unknown = None
    if unk_threshold is not None:
        suffix_stats = defaultdict(Counter)
        tags = set()
        for (suffix, _, _, _), counter in unk_stats.items():
            suffix_stats[suffix].update(counter)
            tags.update(counter)
        unknown = UnknownWordModel(
            threshold=unk_threshold, full_stats=dict(unk_stats),
            suffix_stats=dict(suffix_stats), open_class=tuple(sorted(tags)))
    model = FragmentModel(
        entries=entries, root_totals=root_totals, restriction=restriction,
        start_labels=frozenset(start), priors=priors, smoothed=smoothed,
        reserved_mass={k: v for k, v in reserved.items() if v},
        unknown_words=unknown)
    _check_totals(model)
    return model


def _check_totals(model):
    sums = defaultdict(int)      # ints and Fractions add and compare exactly
    for entry in model.entries.values():
        sums[entry.fragment.root] += entry.count
    for root, total in sums.items():
        if model.root_totals.get(root, 0) != total:
            raise ModelFormatError(
                "root %s: entry counts sum to %s, header says %s"
                % (root, total, model.root_totals.get(root)))


def write_model(model: FragmentModel, path):
    with open(path, "w", encoding="utf8") as handle:
        handle.write(model_to_text(model))


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
    with open(path, encoding="utf8") as handle:
        text = handle.read()
    # The model's objects form no cycles, so a full collection while they
    # are built would only scan them again.
    with collector_paused():
        return model_from_text(text)
