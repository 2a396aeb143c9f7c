"""ctm-lab: exhaustive small-Turing-machine enumeration and what it buys.

The package estimates the algorithmic complexity of binary strings by
running entire rule spaces of small machines (every halting output counted
gives an empirical algorithmic probability, and -log2 of it a complexity in
bits), extends those estimates to long strings by block decomposition, and
keeps the statistical yardsticks (entropy, RLE, LZ78) close by for
comparison.
"""

__version__ = "0.1.0"

from .errors import CtmLabError, ParseError, ValidationError
from .machine import (
    BLANK_ESCAPE,
    COMPLEMENT_SYMBOLS,
    CYCLE_DETECTED,
    LEFT,
    NO_HALT_RULE,
    REFLECT_DIRECTIONS,
    RIGHT,
    Action,
    Halted,
    HaltWrite,
    NonHaltingProved,
    RuleTable,
    RunConfig,
    RunOutcome,
    Step,
    StepLimit,
    action_count,
    decode_machine,
    encode_machine,
    format_rule_table,
    machine_count,
    parse_rule_table,
    prove_non_halting,
    simulate,
    transform,
)
from .space import (
    BLANK_BOTH,
    BLANK_ZERO,
    Census,
    FrequencyTable,
    SpaceSpec,
    default_max_steps,
    empty_table,
    run_index_array,
    run_space,
    space_size,
)
from .ctm import (
    NORM_ALL,
    NORM_HALTING,
    CtmEntry,
    CtmTable,
    complexity_of,
    dumps_ctm_table,
    load_ctm_table,
    loads_ctm_table,
    merge_ctm,
    save_ctm_table,
    to_ctm,
)
from .bdm import (
    BOUNDARY_DROP,
    BOUNDARY_KEEP,
    FALLBACK_ERROR,
    FALLBACK_LOG_LENGTH,
    BdmConfig,
    Decomposition,
    EquivRecord,
    bdm_value,
    block_entropy_equiv_check,
    decompose,
    decomposition_value,
    partition,
    partition_entropy,
    price_many,
    resolve_config,
)
from .baselines import (
    block_entropy,
    lz78_bit_length,
    lz78_bit_lengths,
    rle_decode,
    rle_encode,
    shannon_entropy,
)
from .analysis import (
    Report,
    Section,
    anomaly_report,
    cross_space_report,
    divergence_report,
    diversity_report,
    length_block_report,
    report_lines,
    report_to_csv,
    report_to_json_lines,
    spearman_rho,
    used_rules_consistency,
)
from .data import builtin_table
