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
from .fanout import FanoutTables, build_fanout
from .liveness import FusedLevel, FusedProgram, fuse_trace
from .registry import (
    clear_fanout_cache,
    clear_fusion_cache,
    clear_lowering_cache,
)
from .trace import (
    TraceLevel,
    TraceLoweringError,
    TraceProgram,
    lower_program,
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
    "build_fanout",
    "FusedLevel",
    "FusedProgram",
    "fuse_trace",
    "clear_fanout_cache",
    "clear_fusion_cache",
    "clear_lowering_cache",
    "TraceLevel",
    "TraceLoweringError",
    "TraceProgram",
    "lower_program",
]
