"""vasskit: counter programs, VASS reachability instances, and desk-scale
verification of three hard-family constructions (exponential flat 3-VASS,
NP-hard flat 7-VASS via Subset Sum, doubly-exponential 4-VASS)."""

from .arith import description_size, divisibility_threshold, threshold_index
from .compiler import CompiledProgram, compile_counter_program, compile_program
from .errors import (
    BudgetExceededError,
    ConfigCycleError,
    ExpansionError,
    NegativeCounterError,
    ParseError,
    PolicyStuckError,
    VasskitError,
    WrongStateError,
)
from .expansion import FlatProgram, LoopSpan, expand, pretty_print_flat
from .families import (
    ComponentInfo,
    DoubleExpMeta,
    FractionSequence,
    NpInstance,
    NpMeta,
    fraction_sequence,
    gen_double_exp,
    gen_double_exp_fixed,
    gen_exp,
    gen_exp_fixed,
    gen_hp,
    gen_np,
    gen_np_init,
    gen_weak,
    gen_weak_mult,
    subset_sum_brute,
    with_initial_values,
)
from .interp import reachable_line_configs
from .lang import (
    Add, BinOp, BitTest, Compare, CounterProgram, For, Goto, Halt, If, Init,
    Labeled, Lit, Loop, Pow, Sub, Var, parse, pretty_print,
)
from .search import (
    CountedLoop,
    DrainLoop,
    LoopPolicy,
    ReachResult,
    ReplayOutcome,
    RunProbe,
    SearchBudget,
    SearchStats,
    TakeBranch,
    Verdict,
    count_halting_runs,
    final_vectors,
    halting_reachable,
    reachable_configs,
    replay_canonical,
    shortest_halting,
)
from .vass import (
    Configuration,
    FlatnessReport,
    Run,
    RunReport,
    Transition,
    Vass,
    is_flat,
    step,
    validate_run,
    vass_size,
)

__version__ = "0.1.0"
