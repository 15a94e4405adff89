"""Low-utility sequential pattern mining.

Three interchangeable miners over a quantitative sequence database: an
exhaustive baseline, a shrinkage search and an extension search, all
producing the identical set of patterns whose occurrence-summed utility is
positive and at most the threshold.
"""

from .chains import ChainStore, get_utility_chain, support
from .errors import (
    CandidateCapExceeded,
    EmbeddingCapExceeded,
    LuspmError,
    ParseError,
    UtilityTableError,
)
from .harness import (
    MetricsReport,
    SweepSpec,
    dataset_fingerprint,
    run_once,
    run_sweep,
    sample_database,
)
from .miner_base import (
    LuspRecord,
    LuspResult,
    enumerate_all_subsequences,
    estimate_utility_computations,
    mine_baseline,
)
from .miner_extend import mine_extend
from .miner_shrink import mine_shrink
from .occurrence import (
    BitIndex,
    SUChain,
    UtilityCounter,
    build_bit_index,
    compute_utility,
    enumerate_embeddings,
    is_subsequence,
)
from .preprocess import MaxNonConSeqSet, build_max_non_con_seq_set, eups_prune
from .seqdb import (
    ExternalUtilityTable,
    MiningConfig,
    Pattern,
    QItem,
    QSequence,
    QSequenceDatabase,
    database_utility,
    generate_synthetic,
    parse_spmf,
    parse_utility_table,
    resolve_min_util,
    serialize_spmf,
    serialize_utility_table,
)
from .shadow import MiningShadow

__all__ = [
    "BitIndex",
    "CandidateCapExceeded",
    "ChainStore",
    "EmbeddingCapExceeded",
    "ExternalUtilityTable",
    "LuspRecord",
    "LuspResult",
    "LuspmError",
    "MaxNonConSeqSet",
    "MetricsReport",
    "MiningConfig",
    "MiningShadow",
    "ParseError",
    "Pattern",
    "QItem",
    "QSequence",
    "QSequenceDatabase",
    "SUChain",
    "SweepSpec",
    "UtilityCounter",
    "UtilityTableError",
    "build_bit_index",
    "build_max_non_con_seq_set",
    "compute_utility",
    "database_utility",
    "dataset_fingerprint",
    "enumerate_all_subsequences",
    "enumerate_embeddings",
    "estimate_utility_computations",
    "eups_prune",
    "generate_synthetic",
    "get_utility_chain",
    "is_subsequence",
    "mine_baseline",
    "mine_extend",
    "mine_shrink",
    "parse_spmf",
    "parse_utility_table",
    "resolve_min_util",
    "run_once",
    "run_sweep",
    "sample_database",
    "serialize_spmf",
    "serialize_utility_table",
    "support",
]
