"""stoplab: a small Arabic-capable text retrieval engine and experiment
harness for measuring how sensitive ranking models are to stopword removal.

Pipeline: light normalization -> tokenization -> optional stoplist filter
-> inverted index -> TF*IDF / BM25 / KL-Dirichlet ranking -> TREC-style
evaluation -> Friedman and Wilcoxon significance tests.
"""

from .errors import ParseError
from .index import Index, build_index, parse_trec_documents
from .ranking import (
    BM25Params,
    DirichletParams,
    Query,
    RankedRun,
    RunEntry,
    TFIDFParams,
    score_bm25,
    score_kl_dirichlet,
    score_tfidf,
)
from .sigtest import (
    FriedmanResult,
    WilcoxonResult,
    chi_square_upper_tail,
    friedman,
    friedman_chi2_from_mean_ranks,
    wilcoxon_signed_rank,
)
from .stoplists import (
    Stoplist,
    build_corpus_stoplist,
    combine,
    load_stoplist,
)
from .stoplists import bundled as bundled_stoplist
from .stoplists import combined as combined_stoplist
from .stoplists import corpus_based as corpus_stoplist
from .stoplists import general as general_stoplist
from .textpipe import normalize, tokenize
from .treceval import EvalReport, QueryEval, evaluate_query, evaluate_run, parse_qrels

__version__ = "0.1.0"

__all__ = [
    "BM25Params",
    "DirichletParams",
    "EvalReport",
    "FriedmanResult",
    "Index",
    "ParseError",
    "Query",
    "QueryEval",
    "RankedRun",
    "RunEntry",
    "Stoplist",
    "TFIDFParams",
    "WilcoxonResult",
    "build_corpus_stoplist",
    "build_index",
    "bundled_stoplist",
    "chi_square_upper_tail",
    "combine",
    "combined_stoplist",
    "corpus_stoplist",
    "evaluate_query",
    "evaluate_run",
    "friedman",
    "friedman_chi2_from_mean_ranks",
    "general_stoplist",
    "load_stoplist",
    "normalize",
    "parse_qrels",
    "parse_trec_documents",
    "score_bm25",
    "score_kl_dirichlet",
    "score_tfidf",
    "tokenize",
    "wilcoxon_signed_rank",
]
