"""storybeam: multi-segment beam-search decoding with diversity penalties."""

from .corpus import (
    BOS_ID,
    BOS_TOKEN,
    DEFAULT_MIN_COUNT,
    EOS_ID,
    EOS_TOKEN,
    PAD_ID,
    PAD_TOKEN,
    SPECIAL_TOKENS,
    UNK_ID,
    UNK_TOKEN,
    Corpus,
    Vocabulary,
    build_vocabulary,
)
from .decoding import (
    DecodeConfig,
    Hypothesis,
    SegmentResult,
    StoryResult,
    beam_search,
    expand_and_select,
    inter_sentence_dbs,
    story_to_json,
)
from .diversity import (
    PENALTIES,
    bag_of_words,
    validate_penalty,
    zero_penalty,
)
from .metrics import DiversityReport, diversity_report, report_to_json
from .oracle import OracleResult, exhaustive_best, exhaustive_step_select
from .scoring import (
    NGramModel,
    TableScorer,
    ValidatingScorer,
    dump_ngram,
    load_ngram,
    load_scorer,
    load_table_scorer,
    train_ngram,
    validate_step_scores,
)

__version__ = "0.1.0"
