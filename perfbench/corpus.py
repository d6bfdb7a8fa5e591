"""Seeded generator of treebank-like corpora for the benchmark.

Trees come from a small hand-written grammar of English-like clauses with
a fixed, long-tailed lexicon. Training trees carry what normalization must
remove: function tags (``NP-SBJ``, ``PP-LOC``), co-indexed labels
(``WHNP-1``) and ``-NONE-`` traces and null complementizers. Held-out gold
trees are written already clean, in the label set a normalized model uses.

The corpus is built so that the parser has real work to do:

- open-class words follow a Zipf-like law over a few thousand types, so
  many training words occur five times or fewer (the unknown-word model
  trains at ``--unknown-threshold 5``) and held-out sentences hold OOV
  words;
- words have suffix, capitalization, hyphen and digit shapes;
- some words carry more than one tag (``plan`` NN/VB, ``plans`` NNS/VBZ,
  ``planned`` VBD/VBN/JJ, ``planning`` VBG/NN, ``that`` DT/IN/WDT);
- bracketings are not fixed by the tag sequence: PPs attach to NPs or to
  VPs, adjectives sit under an optional ADJP, and null complementizers
  leave unary SBARs, so labeled precision and recall differ.

The lexicon is the same for every seed; the seed only drives sampling.
"""

import itertools
import os
import random

# trees are (label, children) with children a tuple of trees, or
# (tag, word) at preterminals
_LEXICON_SEED = 20001104

_ONSETS = ("b", "c", "d", "f", "g", "h", "k", "l", "m", "n", "p", "r", "s",
           "t", "v", "w", "z", "br", "cl", "dr", "gr", "pl", "st", "tr", "sh",
           "ch", "fl", "sp")
_VOWELS = ("a", "e", "i", "o", "u", "ai", "ea", "ou")
_CODAS = ("", "", "n", "r", "l", "s", "t", "m", "nd", "rk", "st")

_CLOSED = {
    "DT": ("the", "a", "this", "that", "every", "some", "no", "each"),
    "IN": ("in", "on", "of", "with", "for", "at", "by", "from", "near",
           "after", "under", "like"),
    "CC": ("and", "but", "or"),
    "PRP": ("he", "she", "it", "they", "we", "you"),
    "MD": ("will", "can", "may", "would", "should"),
    "TO": ("to",),
    "WDT": ("that", "which"),
    "RBT": ("yesterday", "today", "recently", "later", "soon", "again"),
    "AUXD": ("was", "were", "had"),
    "AUXZ": ("is", "has"),
}
# word lists drawn under a pseudo-tag and written with the real tag
_TAG_OF = {"RBT": "RB", "AUXD": "VBD", "AUXZ": "VBZ", "JJ_VBN": "JJ",
           "NN_VBG": "NN"}

# words of this rank or better in their class may carry a second tag, so
# that most ambiguous words are seen under each of their tags in training
_AMBIGUOUS = 40


def _zipf_weights(n, exponent=1.05):
    return [1.0 / (rank + 2.5) ** exponent for rank in range(n)]


class Lexicon:
    """Open-class word lists with Zipf weights, built from a fixed seed."""

    def __init__(self, size=700):
        rng = random.Random(_LEXICON_SEED)
        seen = set()

        def stem():
            while True:
                text = "".join(rng.choice(_ONSETS) + rng.choice(_VOWELS)
                               for _ in range(rng.choice((1, 2, 2, 3))))
                text += rng.choice(_CODAS)
                if text not in seen and len(text) > 2:
                    seen.add(text)
                    return text

        nouns = []
        for _ in range(size):
            word = stem() + rng.choice(("", "", "", "tion", "ment", "ness",
                                        "ity", "er", "ism", "age"))
            if rng.random() < 0.04:
                word = word + "-" + stem()
            nouns.append(word)
        verbs = []
        for i in range(size // 2):
            # half of the frequent verb stems are also nouns: plan NN/VB
            verbs.append(nouns[i] if i % 2 == 0 and i < _AMBIGUOUS else
                         stem() + rng.choice(("", "", "ize", "ate", "en")))
        adjectives = []
        for _ in range(size // 2):
            word = stem() + rng.choice(("ous", "ful", "ive", "al", "ic",
                                        "able", "less", "y"))
            if rng.random() < 0.08:
                word = stem() + "-" + word
            adjectives.append(word)
        names = []
        for _ in range(size // 2):
            word = stem().capitalize()
            names.append(word + rng.choice(("", "", "son", "ville", "berg")))

        self.words = {
            "NN": nouns,
            "NNS": [self._plural(w) for w in nouns],
            "VB": verbs,
            "VBD": [w[:-1] + "ed" if w.endswith("e") else w + "ed"
                    for w in verbs],
            "VBG": [w[:-1] + "ing" if w.endswith("e") else w + "ing"
                    for w in verbs],
            "VBZ": [self._plural(w) for w in verbs],
            "JJ": adjectives,
            "RB": [w + "ly" for w in adjectives[: size // 8]],
            "NNP": names,
        }
        # frequent past participles are spelled like past tenses (planned
        # VBD/VBN/JJ), rarer ones take -en; frequent gerunds are also nouns
        self.words["VBN"] = [w if rank < _AMBIGUOUS else w[:-2] + "en"
                             for rank, w in enumerate(self.words["VBD"])]
        self.words["JJ_VBN"] = self.words["VBN"][:_AMBIGUOUS]
        self.words["NN_VBG"] = self.words["VBG"][:_AMBIGUOUS]
        self.cum_weights = {tag: list(itertools.accumulate(
            _zipf_weights(len(words)))) for tag, words in self.words.items()}

    @staticmethod
    def _plural(word):
        return word + ("es" if word.endswith(("s", "sh", "ch")) else "s")

    def draw(self, rng, tag):
        if tag in _CLOSED:
            return rng.choice(_CLOSED[tag])
        if tag == "CD":
            shape = rng.random()
            if shape < 0.4:
                return str(rng.randint(2, 99))
            if shape < 0.6:
                return str(rng.randint(1900, 2030))
            if shape < 0.8:
                return "%d.%d" % (rng.randint(1, 99), rng.randint(1, 9))
            return "%d,%03d" % (rng.randint(1, 99), rng.randint(0, 999))
        return rng.choices(self.words[tag],
                           cum_weights=self.cum_weights[tag])[0]


def _leaf(lexicon, rng, tag):
    return (_TAG_OF.get(tag, tag), lexicon.draw(rng, tag))


class _Grammar:
    """Recursive clause generator; depth limits keep trees finite."""

    def __init__(self, lexicon, rng):
        self.lex = lexicon
        self.rng = rng

    def leaf(self, tag):
        return _leaf(self.lex, self.rng, tag)

    def pick(self, options):
        weights = [w for w, _ in options]
        return self.rng.choices(options, weights=weights)[0][1]

    def sentence(self):
        node = self.clause(0)
        return (node[0], node[1] + (self.leaf_punct("."),))

    def leaf_punct(self, mark):
        return (mark, mark)

    def clause(self, depth, subject=None):
        subject = subject or (lambda: self.np(depth + 1, "SBJ"))
        options = [
            (70, lambda: (subject(), self.vp(depth + 1))),
            (10, lambda: (self.pp(depth + 1, self.rng.choice(("LOC", "TMP"))),
                          self.leaf_punct(","), subject(),
                          self.vp(depth + 1))),
            (8, lambda: (("ADVP-TMP", (self.leaf("RBT"),)), subject(),
                         self.vp(depth + 1))),
        ]
        if depth < 2:
            options.append((7, lambda: (self.clause(depth + 1),
                                        self.leaf_punct(","), self.leaf("CC"),
                                        self.clause(depth + 1))))
        return ("S", self.pick(options)())

    def np(self, depth, role=None):
        label = "NP-" + role if role else "NP"
        options = [
            (25, lambda: (self.leaf("DT"), self.leaf("NN"))),
            (12, lambda: (self.leaf("DT"), self.adjective(), self.leaf("NN"))),
            (8, lambda: (self.leaf("NNP"),)),
            (5, lambda: (self.leaf("NNP"), self.leaf("NNP"))),
            (10, lambda: (self.leaf("PRP"),)),
            (8, lambda: (self.leaf("NNS"),)),
            (5, lambda: (self.leaf("DT"), self.leaf("NNS"))),
            (5, lambda: (self.leaf("CD"), self.leaf("NNS"))),
            (4, lambda: (self.adjective(), self.leaf("NNS"))),
            # gerund noun: planning NN/VBG
            (4, lambda: (self.leaf("DT"), self.leaf("NN_VBG"))),
        ]
        if depth < 6:
            options.append((16, lambda: (self.np(depth + 1),
                                         self.pp(depth + 1))))
        if depth < 4:
            options.append((4, lambda: (self.np(depth + 1),
                                        self.relative(depth + 1))))
            options.append((4, lambda: (self.np(depth + 1), self.leaf("CC"),
                                        self.np(depth + 1))))
        return (label, self.pick(options)())

    def adjective(self):
        if self.rng.random() < 0.15:
            # participial adjective: planned JJ
            return self.leaf("JJ_VBN")
        if self.rng.random() < 0.3:
            if self.rng.random() < 0.3:
                return ("ADJP", (self.leaf("RB"), self.leaf("JJ")))
            return ("ADJP", (self.leaf("JJ"),))
        return self.leaf("JJ")

    def pp(self, depth, role=None):
        label = "PP-" + role if role else "PP"
        return (label, (self.leaf("IN"), self.np(depth + 1)))

    def relative(self, depth):
        # (SBAR (WHNP-1 (WDT that)) (S (NP-SBJ (-NONE- *T*-1)) (VP ...)))
        trace = ("NP-SBJ", (("-NONE-", "*T*-1"),))
        return ("SBAR", (("WHNP-1", (self.leaf("WDT"),)),
                         self.clause(depth + 1, subject=lambda: trace)))

    def complement(self, depth):
        if self.rng.random() < 0.5:
            head = ("IN", "that")
        else:
            head = ("-NONE-", "0")
        return ("SBAR", (head, self.clause(depth + 1)))

    def control(self, depth):
        # (S (NP-SBJ (-NONE- *)) (VP (TO to) (VP (VB ...) (NP ...))))
        infinitive = ("VP", (self.leaf("VB"), self.np(depth + 2)))
        return ("S", (("NP-SBJ", (("-NONE-", "*"),)),
                      ("VP", (self.leaf("TO"), infinitive))))

    def passive(self, depth):
        # (VP (VBN planned) (NP (-NONE- *-1)) (PP (IN by) (NP ...)))
        children = (self.leaf("VBN"), ("NP", (("-NONE-", "*-1"),)))
        if self.rng.random() < 0.6:
            children += (("PP-LGS", (("IN", "by"), self.np(depth + 2))),)
        return ("VP", children)

    def vp(self, depth):
        verb = lambda: self.leaf(self.rng.choice(("VBD", "VBD", "VBZ")))
        options = [
            (25, lambda: (verb(), self.np(depth + 1))),
            (12, lambda: (verb(), self.np(depth + 1),
                          self.pp(depth + 1, self.rng.choice(("CLR", "DIR",
                                                              "LOC"))))),
            (7, lambda: (verb(),)),
            (8, lambda: (verb(), self.pp(depth + 1))),
            (6, lambda: (verb(), ("ADJP-PRD", (self.leaf("JJ"),)))),
            (5, lambda: (verb(), self.np(depth + 1),
                         ("ADVP-TMP", (self.leaf("RBT"),)))),
            (8, lambda: (self.leaf("MD"),
                         ("VP", (self.leaf("VB"), self.np(depth + 1))))),
            (5, lambda: (self.leaf("AUXD"), self.passive(depth + 1))),
            (4, lambda: (self.leaf("AUXD"),
                         ("VP", (self.leaf("VBG"), self.np(depth + 2))))),
            (4, lambda: (self.leaf("AUXZ"),
                         ("VP", (self.leaf("VBN"), self.np(depth + 2))))),
        ]
        if depth < 6:
            # PPs attach to the VP as well as to NPs, at any height
            options.append((14, lambda: (self.vp(depth + 1),
                                         self.pp(depth + 1))))
        if depth < 4:
            options.append((6, lambda: (verb(), self.complement(depth + 1))))
            options.append((5, lambda: (verb(), self.control(depth + 1))))
            options.append((4, lambda: (("VP", (verb(), self.np(depth + 1))),
                                        self.leaf("CC"),
                                        ("VP", (verb(),
                                                self.np(depth + 1))))))
        return ("VP", self.pick(options)())


def clean(tree):
    """The tree as a normalized treebank holds it: no traces, no function
    tags; None when nothing is left."""
    label, children = tree
    if isinstance(children, str):
        return None if label == "-NONE-" else tree
    kept = tuple(c for c in (clean(child) for child in children) if c)
    if not kept:
        return None
    if not label.startswith("-"):
        label = label.split("-")[0]
    return (label, kept)


def leaves(tree):
    label, children = tree
    if isinstance(children, str):
        return [] if label == "-NONE-" else [children]
    return [word for child in children for word in leaves(child)]


def depth(tree):
    """Edges from the node down to its deepest word; a preterminal has 1."""
    label, children = tree
    if isinstance(children, str):
        return 1
    return 1 + max(depth(child) for child in children)


def nodes(tree):
    yield tree
    label, children = tree
    if not isinstance(children, str):
        for child in children:
            yield from nodes(child)


def bracketed(tree):
    label, children = tree
    if isinstance(children, str):
        return "(%s %s)" % (label, children)
    return "(%s %s)" % (label, " ".join(bracketed(c) for c in children))


def generate(rng, lexicon, count, min_words, max_words):
    """`count` raw trees whose yield, traces excluded, has the given length."""
    grammar = _Grammar(lexicon, rng)
    trees = []
    while len(trees) < count:
        tree = grammar.sentence()
        if min_words <= len(leaves(tree)) <= max_words:
            trees.append(tree)
    return trees


def stratified(rng, lexicon, count, min_words, max_words):
    """`count` trees spread evenly over the lengths min_words..max_words.

    Every seed then gets the same length profile, and the longest lengths,
    which the grammar rarely reaches, are as common as the shortest.
    """
    lengths = range(min_words, max_words + 1)
    quota = {}
    for i in range(count):
        length = lengths[i * len(lengths) // count]
        quota[length] = quota.get(length, 0) + 1
    grammar = _Grammar(lexicon, rng)
    trees = []
    while len(trees) < count:
        tree = grammar.sentence()
        length = len(leaves(tree))
        if quota.get(length):
            quota[length] -= 1
            trees.append(tree)
    rng.shuffle(trees)
    return trees


def write_corpus(directory, seed, train_trees, test_sents, min_words,
                 max_words):
    """Write train.mrg (raw), gold.mrg (clean) and sents.txt under
    `directory`, and return corpus statistics.

    Training trees have 8 to 40 words; held-out trees have min_words to
    max_words, evenly spread over four length ranges. The same seed gives
    the same bytes.
    """
    lexicon = Lexicon()
    rng = random.Random(seed)
    train = generate(rng, lexicon, train_trees, 8, 40)
    test = [clean(t) for t in stratified(rng, lexicon, test_sents, min_words,
                                         max_words)]
    with open(os.path.join(directory, "train.mrg"), "w", encoding="utf8") as f:
        f.write("".join(bracketed(t) + "\n" for t in train))
    with open(os.path.join(directory, "gold.mrg"), "w", encoding="utf8") as f:
        f.write("".join(bracketed(t) + "\n" for t in test))
    with open(os.path.join(directory, "sents.txt"), "w", encoding="utf8") as f:
        f.write("".join(" ".join(leaves(t)) + "\n" for t in test))

    # q(d): share of normalized training nodes at least d deep, the
    # acceptance rate of the fragment sampler's node draws at depth d
    depths = [depth(node) for tree in train for node in nodes(clean(tree))]
    depth_shares = {d: sum(1 for x in depths if x >= d) / len(depths)
                    for d in range(2, max(depths) + 1)}

    vocabulary = {}
    for tree in train:
        for word in leaves(tree):
            vocabulary[word] = vocabulary.get(word, 0) + 1
    test_words = [w for t in test for w in leaves(t)]
    train_words = sum(vocabulary.values())
    return {
        "train_sentences": len(train),
        "train_mean_words": train_words / len(train),
        "train_rare_types": sum(1 for c in vocabulary.values() if c <= 5),
        "test_sentences": len(test),
        "test_mean_words": len(test_words) / len(test),
        "test_oov_rate": (sum(1 for w in test_words if w not in vocabulary)
                          / len(test_words)),
        "depth_shares": depth_shares,
    }
