"""gluesat: a CDCL SAT solver whose EVSIDS branching is periodically
refocused by a clause-literal graph network trained to predict glue
variables, with the data-generation, training, and benchmarking tooling
around it."""

from .bench import aggregate, cactus_csv, pairwise_better_fraction, par2, run_benchmark
from .cnf import (
    DimacsError,
    Formula,
    SparseGraph,
    SplitPiece,
    brute_force,
    clause_literal_graph,
    parse_dimacs,
    random_ksat,
    random_split,
    satisfies,
    write_dimacs,
)
from .datagen import DatagenConfig, augment, build_dataset, generate_datapoint, load_dataset
from .env import GlueEnv, TrivialFormulaError, episode_return
from .extract import extract_graph, lift_distribution
from .network import (
    ForwardOutput,
    HyperParams,
    NetParams,
    forward,
    init_params,
    load_weights,
    policy_distribution,
    preset,
    save_weights,
)
from .solver import (
    SAT,
    UNKNOWN,
    UNSAT,
    Budget,
    Solver,
    SolverConfig,
    SolveResult,
    random_oracle,
    schedule_threshold,
    solve,
)
from .training import (
    EpisodeStep,
    RLConfig,
    SupervisedConfig,
    SupervisedExample,
    kl_loss,
    reinforce_loss,
    target_distribution,
    train_rl,
    train_supervised,
)

__version__ = "0.1.0"
