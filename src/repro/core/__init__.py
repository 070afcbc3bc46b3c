"""The paper's primary contribution: the FFCL-to-LPU compiler.

Partitioning (Algorithms 1/2), merging (Algorithm 3), scheduling
(Algorithm 4 + the pipelined time-space model), instruction-set definition,
code generation, and the end-to-end :func:`compile_ffcl` facade.
"""

from .codegen import PORT_A, PORT_B, Program, ProgramTables
from .compiler import CompileResult, compile_ffcl
from .config import LPUConfig, PAPER_CONFIG
from .isa import (
    IDLE_PORT,
    MAX_PORT_INDEX,
    NOP,
    NOP_INSTRUCTION,
    LPEInstruction,
    PortSpec,
    SRC_CONST,
    SRC_INPUT,
    SRC_SNAPSHOT,
    SRC_SWITCH,
    decode_instruction,
    encode_instruction,
)
from .hetero import (
    HeterogeneousLPU,
    MultiLPU,
    evaluate_heterogeneous,
    partition_heterogeneous,
    tapered_profile,
)
from .merge import (
    check_level,
    clone_partition,
    merge_pair,
    merge_partition,
    merging_report,
)
from .metrics import CompileMetrics
from .mfg import MFG, Partition, iter_mfg_dag_topological
from .partition import find_mfg, partition, partition_summary
from .schedule import (
    Schedule,
    ScheduledMFG,
    ScheduleError,
    build_schedule,
    schedule_summary,
)
from .fanout import (
    FanoutTables,
    adopt_fanout,
    build_fanout,
    clear_fanout_cache,
    fanout_cache_stats,
)
from .liveness import (
    FusedLevel,
    FusedProgram,
    adopt_fusion,
    clear_fusion_cache,
    fuse_trace,
    fusion_cache_stats,
)
from .trace import (
    TraceLevel,
    TraceLoweringError,
    TraceProgram,
    clear_lowering_cache,
    lower_program,
    lowering_cache_stats,
)

__all__ = [
    "PORT_A",
    "PORT_B",
    "Program",
    "ProgramTables",
    "CompileResult",
    "compile_ffcl",
    "LPUConfig",
    "PAPER_CONFIG",
    "IDLE_PORT",
    "MAX_PORT_INDEX",
    "NOP",
    "NOP_INSTRUCTION",
    "LPEInstruction",
    "PortSpec",
    "SRC_CONST",
    "SRC_INPUT",
    "SRC_SNAPSHOT",
    "SRC_SWITCH",
    "decode_instruction",
    "encode_instruction",
    "HeterogeneousLPU",
    "MultiLPU",
    "evaluate_heterogeneous",
    "partition_heterogeneous",
    "tapered_profile",
    "check_level",
    "clone_partition",
    "merge_pair",
    "merge_partition",
    "merging_report",
    "CompileMetrics",
    "MFG",
    "Partition",
    "iter_mfg_dag_topological",
    "find_mfg",
    "partition",
    "partition_summary",
    "Schedule",
    "ScheduledMFG",
    "ScheduleError",
    "build_schedule",
    "schedule_summary",
    "FanoutTables",
    "adopt_fanout",
    "build_fanout",
    "clear_fanout_cache",
    "fanout_cache_stats",
    "FusedLevel",
    "FusedProgram",
    "adopt_fusion",
    "clear_fusion_cache",
    "fuse_trace",
    "fusion_cache_stats",
    "TraceLevel",
    "TraceLoweringError",
    "TraceProgram",
    "clear_lowering_cache",
    "lower_program",
    "lowering_cache_stats",
]
