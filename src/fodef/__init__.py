"""fodef: a workbench for first-order definability of finite graphs."""

from fodef.graphs import (
    BudgetExceeded,
    ColoredGraph,
    GraphError,
    are_isomorphic,
    check_partial_isomorphism,
    find_isomorphism,
    flap_classes,
    flaps_of,
    load_graph,
)
from fodef.formulas import analyze, evaluate, parse_formula, print_formula
from fodef.families import FamilySpec, enumerate_graphs, generate
from fodef.separators import (
    OClassification,
    SeparatorResult,
    brute_min_separator,
    class_o_separator,
    classify_o,
    tree_centroid_separator,
    verify_separator,
)
from fodef.game import (
    Agent,
    GameState,
    Transcript,
    builtin_duplicator,
    new_game,
    run_match,
    step,
)
from fodef.strategies import (
    StrategyConfig,
    bound,
    choose_depth,
    extract_formula,
    halving_agent,
    reply_tree,
    s_agent,
    s_star_agent,
    synthesize_distinguisher,
)
from fodef.oracle import (
    OracleSpoiler,
    RankResult,
    defining_rank_lb,
    exact_rank,
    survival_vs,
)

__all__ = [
    "Agent", "BudgetExceeded", "ColoredGraph", "FamilySpec", "GameState",
    "GraphError", "OClassification", "OracleSpoiler", "RankResult",
    "SeparatorResult", "StrategyConfig", "Transcript", "analyze",
    "are_isomorphic", "bound", "brute_min_separator", "builtin_duplicator",
    "check_partial_isomorphism", "choose_depth", "class_o_separator",
    "classify_o", "defining_rank_lb", "enumerate_graphs",
    "evaluate", "exact_rank", "extract_formula", "find_isomorphism",
    "flap_classes", "flaps_of", "generate", "halving_agent", "load_graph",
    "new_game", "parse_formula", "print_formula", "reply_tree", "run_match",
    "s_agent", "s_star_agent", "step", "survival_vs",
    "synthesize_distinguisher", "tree_centroid_separator", "verify_separator",
]
