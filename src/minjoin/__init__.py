"""minjoin: conjunctive queries with MIN/MAX predicates and rankings.

Classification of which query-answering tasks admit near-linear
algorithms, predicate elimination into disjoint full acyclic parts,
min-ranked direct access, counting, and constant-delay enumeration,
all cross-checkable against a brute-force oracle.
"""

from .errors import (
    DataFileError,
    EngineError,
    IntractableQueryError,
    OracleGuardError,
    OutOfBoundsError,
    QuerySyntaxError,
    UnsupportedPredicateError,
)
from .model import (
    Answer,
    Atom,
    ConjunctiveQuery,
    Database,
    MinPredicate,
    MinRanking,
    Relation,
    TaggedValue,
    negate_database,
    remove_self_joins,
)
from .parser import load_database, load_database_dir, parse_query, parse_query_file
from .structure import (
    Hypergraph,
    RootedJoinTree,
    Task,
    Verdict,
    Witness,
    classify,
    classify_all,
    find_bad_path,
    hypergraph_of,
    is_free_connex,
    join_tree,
    make_maximally_branching,
    tree_for_query,
)
from .semiring import (
    NEG_INF,
    POS_INF,
    count_answers,
    thresholds,
)
from .reduce import (
    restrict_predicate_to_free,
    semijoin_reduce,
)
from .partition import OrderTreePair, StrictPartialOrder, partition_min_orders
from .elim import (
    EliminationPart,
    EliminationResult,
    eliminate_enforced_order,
    eliminate_min_predicate,
    min_predicate_orders,
)
from .access import (
    LexDA,
    MinDAIndex,
    build_min_da,
    build_unranked_da_pred,
    count_via_access,
    count_with_predicate,
    is_nonempty,
    single_access,
)
from .enumeration import (
    AnswerStream,
    enumerate_full_acyclic,
    enumerate_ranked_min,
    enumerate_with_predicate,
)
from .oracle import oracle_answers, oracle_sorted
from .instrument import StepCounter

__version__ = "0.1.0"
