"""crowdrank: two-stage retrieval of code-bearing Q&A answers.

Given a natural-language programming task, ranks whole Q&A threads with a
fused set of lexical, semantic and social features, then ranks the answers
inside the surviving threads, returning the top-N answers with code examples
and explanations.
"""

from .antonyms import AntonymDictionary, merge_lists
from .artifacts import build_artifacts, load_engine
from .corpus import (RawPost, TagFilter, Thread, build_threads, load_dump,
                     preprocess, separate_code)
from .embeddings import EmbeddingStore, IdfMap, asym, asym_score, cosine, fallback_embed
from .evaluation import GroundTruth, MetricsReport, evaluate, run_ablation_grid
from .features import WeightConfig, question_score_value, tf_score, tfidf_score, top_method_score
from .index import InvertedIndex, bm25_search, build_index
from .pipeline import BASELINE_NAMES, SearchEngine, SearchResult, configure_ablation

__version__ = "0.1.0"
