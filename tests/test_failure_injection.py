"""Failure-injection tests: the hardware model must *detect* corrupted
programs, not silently produce wrong bits.

The simulator's invalid-data tracking models the paper's "instruction that
invalidates output" mechanism: any consumer of a never-produced value is a
compiler bug, and the model traps it.  Corruptions are made in the
program's columns — what the compiler emits and an artifact stores — so
the simulator (through the program's dict views) and the lowering see the
same program: it traps in both, or runs in both to the same bits and
statistics.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import LPUConfig, compile_ffcl
from repro.core.isa import (
    NOP_WORD,
    LPEInstruction,
    PortSpec,
    SRC_SNAPSHOT,
    SRC_SWITCH,
    decode_instruction,
    encode_instruction,
)
from repro.core.trace import TraceLoweringError, lower_program
from repro.engine.trace import TraceEngine
from repro.lpu import InvalidDataError, LPUSimulator, random_stimulus, simulate
from repro.netlist import cells, random_dag

STATISTICS = (
    "macro_cycles", "clock_cycles", "compute_instructions_executed",
    "switch_routes", "peak_buffer_words", "buffer_writes",
)


def compiled(seed=0, n=4, m=4):
    g = random_dag(6, 50, 3, seed=seed)
    return compile_ffcl(g, LPUConfig(num_lpvs=n, lpes_per_lpv=m))


def corrupted(program, **columns):
    """A fresh program: ``program`` with some columns replaced."""
    return dataclasses.replace(
        program, tables=program.tables._replace(**columns)
    )


def with_word(program, row, col, instr):
    words = program.tables.queue_words.copy()
    nodes = program.tables.queue_nodes.copy()
    words[row, col] = encode_instruction(instr)
    nodes[row, col] = -1 if instr.node is None else instr.node
    return corrupted(program, queue_words=words, queue_nodes=nodes)


def find_compute_cell(program):
    """Locate a (row, column) of the queue columns holding a two-input
    compute, with its decoded instruction."""
    tables = program.tables
    for row, col in np.argwhere(tables.queue_words & 0xF):
        instr = decode_instruction(int(tables.queue_words[row, col]))
        if cells.arity(instr.op) == 2:
            node = int(tables.queue_nodes[row, col])
            return row, col, dataclasses.replace(instr, node=node)
    raise AssertionError("no compute instruction found")


def run_both(program, stimulus):
    """``(simulator result, trace-engine result)``, each ``None`` where
    that side trapped; it is a failure unless both trap or neither does
    and their outputs and statistics agree bit for bit."""
    try:
        simulated = simulate(program, stimulus)
    except InvalidDataError:
        simulated = None
    try:
        trace = lower_program(program, cache=False)
    except TraceLoweringError:
        traced = None
    else:
        traced = TraceEngine(program, trace).run(stimulus)
    assert (simulated is None) == (traced is None), (simulated, traced)
    if simulated is not None:
        assert set(simulated.outputs) == set(traced.outputs)
        for name, words in simulated.outputs.items():
            assert np.array_equal(traced.outputs[name], words), name
        for field in STATISTICS:
            assert getattr(traced, field) == getattr(simulated, field), field
    return simulated, traced


class TestCorruptedPrograms:
    def test_dropped_instruction_detected(self):
        prog = compiled(seed=1).program
        row, col, _ = find_compute_cell(prog)
        # Replace a compute with a NOP: downstream consumers now read an
        # invalid word, which the model must trap (not silently zero).
        words = prog.tables.queue_words.copy()
        words[row, col] = NOP_WORD
        bad = corrupted(prog, queue_words=words)
        simulated, _ = run_both(bad, random_stimulus(prog.graph, seed=1))
        assert simulated is None

    def test_wrong_switch_source_changes_or_traps(self):
        prog = compiled(seed=2).program
        row, col, instr = find_compute_cell(prog)
        # Point port A at a (likely invalid/wrong) neighbouring column.
        bad = with_word(prog, row, col, LPEInstruction(
            op=instr.op,
            a=PortSpec(SRC_SWITCH, (instr.a.index + 1) % prog.config.m),
            b=instr.b,
            valid=True,
            node=instr.node,
        ))
        run_both(bad, random_stimulus(prog.graph, seed=2))

    def test_premature_snapshot_read_detected(self):
        prog = compiled(seed=3).program
        row, col, instr = find_compute_cell(prog)
        if instr.a.source == SRC_SNAPSHOT:
            pytest.skip("already a snapshot read")
        # Read a snapshot register that was never latched.
        bad = with_word(prog, row, col, LPEInstruction(
            op=instr.op,
            a=PortSpec(SRC_SNAPSHOT),
            b=instr.b,
            valid=True,
            node=instr.node,
        ))
        simulated, _ = run_both(bad, random_stimulus(prog.graph, seed=3))
        assert simulated is None

    def test_buffer_write_of_invalid_data_detected(self):
        prog = compiled(seed=4).program
        # Corrupt a buffer write to point at an idle column.
        for index, (cycle, _, _, lpv, _) in enumerate(
            prog.tables.buffer_writes.tolist()
        ):
            vec = prog.instruction_at(cycle, lpv)
            for idle_col in range(prog.config.m):
                if not vec[idle_col].valid:
                    writes = prog.tables.buffer_writes.copy()
                    writes[index, 4] = idle_col
                    bad = corrupted(prog, buffer_writes=writes)
                    simulated, _ = run_both(
                        bad, random_stimulus(prog.graph, seed=4)
                    )
                    assert simulated is None
                    return
        pytest.skip("no idle column next to a buffer write")


class TestRobustness:
    def test_rerunning_simulator_is_reproducible(self):
        res = compiled(seed=5)
        sim = LPUSimulator(res.program)
        stim = random_stimulus(res.program.graph, seed=5)
        out1 = sim.run(stim).outputs
        out2 = sim.run(stim).outputs
        for name in out1:
            assert np.array_equal(out1[name], out2[name])

    def test_different_stimulus_between_runs(self):
        res = compiled(seed=6)
        sim = LPUSimulator(res.program)
        for seed in range(3):
            stim = random_stimulus(res.program.graph, seed=seed)
            out = sim.run(stim).outputs
            ref = res.program.graph.evaluate(stim)
            for name in ref:
                assert np.array_equal(out[name], ref[name])

    def test_state_fully_reset_between_runs(self):
        # Snapshot registers must not leak values across runs.
        res = compiled(seed=7)
        sim = LPUSimulator(res.program)
        zeros = {
            res.program.graph.input_name(i): np.zeros(1, dtype=np.uint64)
            for i in res.program.graph.inputs
        }
        ones = {
            k: np.full(1, 0xFFFFFFFFFFFFFFFF, dtype=np.uint64)
            for k in zeros
        }
        out_a = sim.run(ones).outputs
        out_b = sim.run(zeros).outputs
        ref_b = res.program.graph.evaluate(zeros)
        for name in ref_b:
            assert np.array_equal(out_b[name], ref_b[name]), name
        # And running ones again reproduces the first result.
        out_c = sim.run(ones).outputs
        for name in out_a:
            assert np.array_equal(out_a[name], out_c[name])
