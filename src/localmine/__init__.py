"""localmine: hierarchical mining of JA-ZH parallel corpora.

Descends the web's structure (site -> document pair -> sentence pair):
discovers bilingual sites from archive scans or crowdsourced URL pairs,
crawls them under budget, aligns documents via dictionary/URL/structure
evidence, aligns sentences with a length+dictionary DP, and filters
candidates with a feature classifier plus an embedding-similarity gate.
"""

from .charlm import CharLM, lm_score, train_char_lm
from .crawl import CrawlBudget, Page, PageStore, crawl_site, dump_snapshot, load_snapshot
from .discovery import (
    ArchiveScan,
    CandidateSite,
    HostStats,
    UrlPairSubmission,
    ingest_url_pairs,
    scan_archive,
    select_balanced_hosts,
)
from .docalign import DocPair, doc_similarity, match_documents
from .fetching import Fetch, FetchResponse, http_fetch, snapshot_fetch
from .filtering import (
    BitextFilter,
    CorpusRecord,
    FeatureVector,
    LabeledPair,
    embedding_gate,
    extract_features,
    score_pair,
    synthesize_negatives,
    train_classifier,
    train_filter,
)
from .htmltext import EncodingError, extract_links, extract_text
from .lexicon import (
    Lexicon,
    LexiconEntry,
    augment_with_char_map,
    build_lexicon,
    coverage,
    load_lexicon,
    reduce_dictionary,
)
from .model1 import NULL_TOKEN, TranslationTable, train_model1
from .pipeline import SiteReport, dedupe, emit_report, run_pipeline
from .sentalign import (
    AlignmentLadder,
    Bead,
    BeadKind,
    LengthModel,
    align_sentences,
    bead_cost,
    extract_pairs,
    length_cost,
)
from .text import (
    Document,
    LanguageTag,
    Sentence,
    detect_language,
    normalize_text,
    segment_words,
    split_sentences,
)

__version__ = "0.1.0"
