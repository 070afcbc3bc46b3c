"""The column implementations equal their per-instruction oracles.

A program is its columns (``Program.tables``): the codegen pass emits the
ISA words directly, the lowering and the liveness renaming run on whole
arrays, the encoder passes the columns through, and the source hash
formats its rows directly.  ``tests/lowering_reference.py`` holds the
per-instruction implementations they replaced; every property here holds
them equal — identical ``TraceProgram``s (levels, segments, index dtypes,
``slot_nodes``, all six statistics), identical ``FusedProgram``s under
every fragmentation budget, identical columns from the sequential
reference generator, and the same fingerprint hex — on the 17 graphs of
``front_end_goldens.json`` and on a hypothesis family of random DAGs,
machine sizes and merge/policy options.  Corrupted programs must fail the
column lowering exactly where, and with the message, the oracle does.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import goldens
from codegen_reference import generate_program
from lowering_reference import (
    encode_tables,
    fingerprint_reference,
    fuse_reference,
    lower_reference,
)
from repro.artifact import ExecutableArtifact
from repro.compiler import graph_fingerprint
from repro.core import LPUConfig, compile_ffcl
from repro.core.codegen import Program, ProgramTables
from repro.core.isa import (
    NOP,
    LPEInstruction,
    PortSpec,
    SRC_CONST,
    SRC_INPUT,
    SRC_SNAPSHOT,
    SRC_SWITCH,
    encode_instruction,
)
from repro.core.liveness import fuse_trace
from repro.core.schedule import RuntimeSchedule
from repro.core.trace import TraceLoweringError, lower_program
from repro.engine.trace import TraceEngine
from repro.lpu import random_stimulus, simulate
from repro.netlist import cells, parse_verilog, random_dag
from repro.netlist.graph import LogicGraph

TRACE_STATISTICS = (
    "num_slots", "macro_cycles", "clock_cycles", "compute_instructions",
    "switch_routes", "peak_buffer_words", "buffer_writes",
)


def assert_same_trace(got, want):
    assert got.program is want.program
    for name in TRACE_STATISTICS:
        assert getattr(got, name) == getattr(want, name), name
    assert got.pi_slots == want.pi_slots
    assert list(got.pi_slots) == list(want.pi_slots)
    assert got.output_slots == want.output_slots
    assert got.slot_nodes == want.slot_nodes
    assert len(got.levels) == len(want.levels)
    for a, b in zip(got.levels, want.levels):
        assert (a.cycle, a.out_start, a.segments) == (
            b.cycle, b.out_start, b.segments)
        for name in ("a_index", "b_index"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype and np.array_equal(x, y), name
            assert not x.flags.writeable


def assert_same_fusion(got, want):
    assert (got.num_regs, got.max_level_width) == (
        want.num_regs, want.max_level_width)
    assert got.pi_regs == want.pi_regs
    assert got.output_regs == want.output_regs
    assert len(got.levels) == len(want.levels)
    for a, b in zip(got.levels, want.levels):
        assert (a.cycle, a.segments) == (b.cycle, b.segments)
        for name in ("a_index", "b_index", "out_index"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype and np.array_equal(x, y), name
            assert not x.flags.writeable


def assert_same_tables(got, want):
    for name, x, y in zip(got._fields, got, want):
        assert x.dtype == y.dtype and x.shape == y.shape, name
        assert np.array_equal(x, y), name


def assert_oracles_agree(graph, config=None, **options):
    """Every column implementation equals its oracle on one compile."""
    kwargs = dict(options)
    if config is not None:
        kwargs["config"] = config
    assert graph_fingerprint(graph) == fingerprint_reference(graph)
    result = compile_ffcl(graph, **kwargs)
    program = result.program
    assert graph_fingerprint(program.graph) == fingerprint_reference(
        program.graph)

    reference = generate_program(result.schedule, program.graph,
                                 program.config)
    assert_same_tables(program.tables, reference.tables)
    assert_same_tables(
        program.tables,
        encode_tables(program.queues, program.input_reads,
                      program.circulation_reads, program.buffer_writes,
                      program.config.m),
    )

    trace = lower_program(program, cache=False)
    assert_same_trace(trace, lower_reference(program))
    for budget in (None, 0, 2):
        assert_same_fusion(
            fuse_trace(trace, cache=False, frag_budget=budget),
            fuse_reference(trace, frag_budget=budget),
        )
    return result


GOLDEN_GRAPHS = goldens.graphs()


@pytest.mark.parametrize("name", sorted(GOLDEN_GRAPHS))
def test_front_end_golden_graphs(name):
    graph, kwargs = GOLDEN_GRAPHS[name]
    assert_oracles_agree(graph, **kwargs)


#: family -> (LPEs per LPV, most gates, localities).  Deep draws on
#: machines of 2-3 LPEs can compile for minutes, so those get shallow
#: random-wired graphs.
MACHINES = {
    "wide": ((4, 5, 8), 160, (0, 0, 4)),
    "small": ((2, 3), 40, (0,)),
}


@pytest.mark.parametrize("family", sorted(MACHINES))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_random_programs(family, data):
    lpes, most_gates, localities = MACHINES[family]
    graph = random_dag(
        data.draw(st.integers(1, 8), label="inputs"),
        data.draw(st.integers(1, most_gates), label="gates"),
        data.draw(st.integers(1, 5), label="outputs"),
        seed=data.draw(st.integers(0, 10_000), label="seed"),
        locality=data.draw(st.sampled_from(localities), label="locality"),
    )
    config = LPUConfig(
        num_lpvs=data.draw(st.integers(2, 6), label="n"),
        lpes_per_lpv=data.draw(st.sampled_from(lpes), label="m"),
    )
    assert_oracles_agree(
        graph, config,
        merge=data.draw(st.booleans(), label="merge"),
        policy=data.draw(
            st.sampled_from(["pipelined", "sequential"]), label="policy"),
        optimize=data.draw(st.booleans(), label="optimize"),
    )


def test_loaded_artifact_lowers_like_the_compile():
    """A program decoded from bytes lowers from the artifact's own
    columns (no embedded trace) to the compiled program's tables."""
    graph = random_dag(6, 120, 3, seed=7)
    result = compile_ffcl(graph, LPUConfig(8, 16))
    loaded = ExecutableArtifact.from_bytes(
        result.to_artifact(lower=False).to_bytes()).program
    assert_same_tables(loaded.tables, result.program.tables)
    assert_same_trace(lower_program(loaded, cache=False),
                      lower_reference(loaded))


# ----------------------------------------------------------------------
# Graphs the source hash must spell exactly
# ----------------------------------------------------------------------
def test_non_dense_node_ids():
    graph = random_dag(5, 60, 3, seed=4)
    fanouts = graph.fanouts()
    for nid in list(graph.nodes)[:-1]:  # dead gates leave holes in the ids
        if graph.op_of(nid) in cells.LPE_OPS and not fanouts[nid] and (
            nid not in graph.output_ids
        ):
            del graph.nodes[nid]
    assert max(graph.nodes) + 1 > len(graph.nodes)
    assert graph_fingerprint(graph) == fingerprint_reference(graph)
    assert_oracles_agree(graph, LPUConfig(4, 4), optimize=False)


def test_n_ary_source_gates_and_escaped_names():
    graph = parse_verilog(r"""
        module odd_names(\a\0, b\x, c, v, \y\1, y2);
          input \a\0, b\x, c;
          input [1:0] v;
          output \y\1, y2;
          wire w;
          and g1(w, \a\0, b\x, c, v[0], v[1]);
          nor g2(\y\1, w, c, \a\0);
          assign y2 = ~(w ^ v[1] ^ b\x);
        endmodule
    """)
    names = [graph.input_name(nid) for nid in graph.inputs]
    names += [name for name, _ in graph.outputs]
    assert any(repr(name)[1:-1] != name for name in names)
    assert_oracles_agree(graph, LPUConfig(4, 4))


def test_names_that_need_escaping_and_any_fanin_count():
    graph = LogicGraph("esc")
    pis = [graph.add_input(name) for name in
           ("it's", 'say "hi"', "back\\slash", "ünï\tcode", "plain")]
    one = graph.add_const(1)
    x = graph.add_gate(cells.AND, pis[0], pis[1])
    y = graph.add_gate(cells.XOR, x, pis[2])
    z = graph.add_gate(cells.NOT, y)
    w = graph.add_gate(cells.OR, z, one)
    graph.set_output("o'ne", w)
    graph.set_output('t"wo', pis[3])
    graph.set_output("\\3", x)
    assert graph_fingerprint(graph) == fingerprint_reference(graph)
    assert_oracles_agree(graph, LPUConfig(3, 4))
    # Node rows are repr((i, op, fanins)) for any number of fanins.
    graph.nodes[w].fanins = (z, one, pis[4])
    assert graph_fingerprint(graph) == fingerprint_reference(graph)


def test_snapshot_relatch_carries_the_register():
    """A latch of a snapshot-sourced port re-stores the register: a later
    snapshot read sees the value latched before it (compiled programs
    latch only switch ports, so this program is written by hand)."""
    graph = LogicGraph("relatch")
    a, b = graph.add_input("a"), graph.add_input("b")
    y = graph.add_gate(cells.AND, a, graph.add_const(1))
    graph.set_output("y", y)
    config = LPUConfig(num_lpvs=2, lpes_per_lpv=2)

    def word(op, a_port, b_port=PortSpec(SRC_CONST, 0)):
        return encode_instruction(
            LPEInstruction(op=op, a=a_port, b=b_port, valid=op != NOP))

    idle = word(NOP, PortSpec(SRC_CONST, 0))
    queue = [  # (lpv, address == cycle - lpv): the two words
        (0, 0, [word(cells.BUF, PortSpec(SRC_INPUT, 0)),
                word(cells.BUF, PortSpec(SRC_INPUT, 2))]),
        (1, 0, [word(NOP, PortSpec(SRC_SWITCH, 0, latch=True)), idle]),
        (1, 1, [word(NOP, PortSpec(SRC_SNAPSHOT, latch=True)), idle]),
        (1, 2, [word(cells.AND, PortSpec(SRC_SNAPSHOT),
                     PortSpec(SRC_CONST, 1)), idle]),
    ]
    tables = ProgramTables(
        queue_lpv=np.array([row[0] for row in queue], dtype=np.int64),
        queue_addr=np.array([row[1] for row in queue], dtype=np.int64),
        queue_words=np.array([row[2] for row in queue], dtype=np.uint32),
        queue_nodes=np.array([[-1, -1]] * 3 + [[y, -1]], dtype=np.int64),
        input_reads=np.array([[0, 0, 0, a], [0, 1, 0, b]], dtype=np.int64),
        circulation_reads=np.empty((0, 6), dtype=np.int64),
        buffer_writes=np.array([[3, 0, y, 1, 0]], dtype=np.int64),
    )
    program = Program(
        config=config, graph=graph, tables=tables,
        schedule=RuntimeSchedule(config=config, makespan=4),
        po_nodes={"y": y}, po_buffer_keys={"y": (0, y)},
        peak_buffer_words=1,
    )
    trace = lower_program(program, cache=False)
    assert_same_trace(trace, lower_reference(program))
    stimulus = random_stimulus(graph, array_size=2, seed=1)
    got = TraceEngine(program, trace).run(stimulus)
    want = simulate(program, stimulus)
    assert np.array_equal(got.outputs["y"], stimulus["a"])
    assert np.array_equal(want.outputs["y"], stimulus["a"])


# ----------------------------------------------------------------------
# Corrupted programs fail where, and as, the oracle does
# ----------------------------------------------------------------------
def _ports(m):
    return st.one_of(
        st.builds(PortSpec, st.just(SRC_SWITCH), st.integers(0, m - 1),
                  st.booleans()),
        st.builds(PortSpec, st.just(SRC_SNAPSHOT), st.just(0), st.booleans()),
        st.builds(PortSpec, st.just(SRC_INPUT), st.integers(0, 2 * m - 1),
                  st.booleans()),
        st.builds(PortSpec, st.just(SRC_CONST), st.integers(0, 1),
                  st.booleans()),
    )


def _instructions(m):
    ops = sorted(cells.LPE_OPS) + [NOP]
    return st.builds(
        lambda op, a, b: LPEInstruction(op=op, a=a, b=b, valid=op != NOP),
        st.sampled_from(ops), _ports(m), _ports(m),
    )


@settings(max_examples=60, deadline=None)
@given(data=st.data(), seed=st.integers(0, 50), merge=st.booleans())
def test_corrupted_programs_fail_like_the_oracle(data, seed, merge):
    config = LPUConfig(num_lpvs=3, lpes_per_lpv=4)
    program = compile_ffcl(
        random_dag(4, 40, 3, seed=seed, locality=5), config, merge=merge
    ).program
    tables = program.tables
    assume(len(tables.queue_words))
    words = tables.queue_words.copy()
    nodes = tables.queue_nodes.copy()
    cells_ = [(row, col) for row in range(words.shape[0])
              for col in range(config.m)]
    for row, col in data.draw(
        st.lists(st.sampled_from(cells_), min_size=1, max_size=3)
    ):
        instr = data.draw(_instructions(config.m))
        words[row, col] = encode_instruction(instr)
        if not instr.valid:
            nodes[row, col] = -1
    writes = tables.buffer_writes.copy()
    if len(writes) and data.draw(st.booleans()):
        writes[data.draw(st.integers(0, len(writes) - 1)), 4] = data.draw(
            st.integers(0, config.m - 1))
    bad = dataclasses.replace(program, tables=tables._replace(
        queue_words=words, queue_nodes=nodes, buffer_writes=writes))
    try:
        want = lower_reference(bad)
    except TraceLoweringError as exc:
        with pytest.raises(TraceLoweringError) as got:
            lower_program(bad, cache=False)
        assert str(got.value) == str(exc)
        return
    assert_same_trace(lower_program(bad, cache=False), want)
