"""crowdrank: two-stage retrieval of code-bearing Q&A answers.

Given a natural-language programming task, ranks whole Q&A threads with a
fused set of lexical, semantic and social features, then ranks the answers
inside the surviving threads, returning the top-N answers with code examples
and explanations.
"""

# The names the README's example and the benchmark harness import from the
# package; everything else is imported from its module.
from .artifacts import build_artifacts, load_engine
from .evaluation import run_ablation_grid
from .index import bm25_search
from .pipeline import BASELINE_NAMES, configure_ablation

__version__ = "0.1.0"
