"""Data-oriented parsing: grammars of treebank fragments.

Train a fragment model from bracketed trees, parse with a pruned n-best
chart, pick the most probable parse by summing derivation probabilities,
and score with PARSEVAL. An exact rational-arithmetic oracle enumerates
complete derivation sets on small instances.
"""

from .tree import (Site, Tree, Treebank, TreeReadError, constituents,
                   normalize, normalize_treebank, read_treebank, read_trees,
                   write_tree)
from .heads import HeadRuleTable, default_head_rules
from .fragments import (Fragment, FragmentOverflowError, RestrictionSet,
                        SamplingError, depth1_fragment, dump_fragments,
                        extract_all, extract_treebank, headword,
                        nonheadword_count, passes, sample_fragments)
from .model import (FragmentModel, GrammarError, UnknownWordModel,
                    build_model, derivation_probability, good_turing_adjust,
                    train_unknown_model)
from .modelio import load_model, model_from_text, model_to_text, write_model
from .parser import (ChartParser, CyclicGrammarError, Derivation,
                     IndexedRule, ParseResult, SentenceParser,
                     most_probable_parse, nbest_derivations)
from .parseval import ScoreReport, YieldMismatchError, score_corpus, score_pair

__version__ = "0.1.0"

# only `dop oracle` needs the oracle: its names are imported on first use
_ORACLE_NAMES = frozenset({"CompositionError", "OracleOverflowError",
                           "OracleReport", "compose", "enumerate_derivations",
                           "exact_mpp"})


def __getattr__(name):
    if name in _ORACLE_NAMES:
        from . import oracle
        value = globals()[name] = getattr(oracle, name)
        return value
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
