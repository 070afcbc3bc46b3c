"""Tests for the hazard-ordered sequential form (``repro.core.stream``).

The load-bearing properties:

* executing an ordered level one step after another equals the level's
  gather-before-scatter semantics, for any mix of self-aliases, swaps,
  chains, cycles and one-/two-input opcodes,
* ordering costs no MOV when the write-after-read graph is acyclic and
  exactly one per cycle when the cycles are disjoint,
* every consumer of the packed stream — the reference interpreter, the
  fused engine's bound calls, the threaded backend across shard
  boundaries, the delta engine's dense fallback — agrees with functional
  evaluation (outputs) and the cycle engine (statistics) on both sides of
  the vector/rowwise crossover,
* the wide form is built on the first wide run, never at boot.
"""

import numpy as np
import pytest
from forms import record_forms
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.artifact import ExecutableArtifact
from repro.core import LPUConfig, compile_ffcl
from repro.core.stream import OP_MOV, order_level, pack_stream
from repro.engine import create_engine
from repro.engine import delta as delta_module
from repro.engine.fused import ROWWISE_MIN_WORDS
from repro.engine.native import execute_stream
from repro.lpu import evaluate_graph, random_stimulus
from repro.netlist import random_dag, random_layered_dag, random_tree

SMALL = LPUConfig(num_lpvs=4, lpes_per_lpv=8)
TINY = LPUConfig(num_lpvs=2, lpes_per_lpv=4)

_MASK = (1 << 64) - 1
_BINARY = {
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "nand": lambda a, b: ~(a & b) & _MASK,
    "nor": lambda a, b: ~(a | b) & _MASK,
    "xnor": lambda a, b: ~(a ^ b) & _MASK,
}
_STAT_FIELDS = (
    "macro_cycles", "clock_cycles", "compute_instructions_executed",
    "switch_routes", "peak_buffer_words", "buffer_writes",
)


def _apply(op, operands):
    if op == "not":
        return ~operands[0] & _MASK
    return _BINARY[op](*operands)


def _level_parallel(ops, reads, outs, table):
    """Gather-before-scatter: every read sees the pre-level table."""
    results = [
        _apply(op, [table[r] for r in regs]) for op, regs in zip(ops, reads)
    ]
    after = list(table)
    for out, value in zip(outs, results):
        after[out] = value
    return after


def _sequential(ops, steps, table, num_scratch):
    after = list(table) + [None] * num_scratch
    for index, regs, out in steps:
        if index < 0:
            after[out] = after[regs[0]]
        else:
            after[out] = _apply(ops[index], [after[r] for r in regs])
    return after[:len(table)]


def _has_cycle(reads, outs):
    """Kahn's algorithm over the write-after-read edges (reader before
    writer, self-aliases excluded), independent of ``order_level``."""
    writer = {reg: j for j, reg in enumerate(outs)}
    successors = [set() for _ in outs]
    for i, regs in enumerate(reads):
        for reg in regs:
            j = writer.get(reg)
            if j is not None and j != i:
                successors[i].add(j)
    indegree = [0] * len(outs)
    for targets in successors:
        for j in targets:
            indegree[j] += 1
    frontier = [i for i, d in enumerate(indegree) if d == 0]
    seen = 0
    while frontier:
        i = frontier.pop()
        seen += 1
        for j in successors[i]:
            indegree[j] -= 1
            if indegree[j] == 0:
                frontier.append(j)
    return seen != len(outs)


def _check_level(ops, reads, outs, num_regs, seed):
    """Ordered sequential execution == level semantics; returns #MOVs."""
    rng = np.random.default_rng(seed)
    table = [int(v) for v in rng.integers(0, _MASK, num_regs, dtype=np.uint64)]
    steps = order_level(reads, outs, num_regs)
    movs = [step for step in steps if step[0] < 0]
    # every instruction exactly once, scratch rows distinct and private
    assert sorted(s[0] for s in steps if s[0] >= 0) == list(range(len(outs)))
    assert [m[2] for m in movs] == list(range(num_regs, num_regs + len(movs)))
    assert all(out == outs[i] for i, _, out in steps if i >= 0)
    assert _sequential(ops, steps, table, len(movs)) == _level_parallel(
        ops, reads, outs, table
    )
    return len(movs)


@st.composite
def _random_levels(draw):
    """Unstructured levels over a small register file: few registers
    force aliasing, swaps and tangled cycles."""
    num_regs = draw(st.integers(min_value=2, max_value=12))
    outs = draw(
        st.lists(
            st.integers(min_value=0, max_value=num_regs - 1),
            unique=True, min_size=1, max_size=num_regs,
        )
    )
    reg = st.integers(min_value=0, max_value=num_regs - 1)
    ops, reads = [], []
    for _ in outs:
        op = draw(st.sampled_from(["not"] + sorted(_BINARY)))
        ops.append(op)
        reads.append((draw(reg),) if op == "not" else (draw(reg), draw(reg)))
    return ops, reads, outs, num_regs


@st.composite
def _structured_levels(draw):
    """Disjoint rotations (cycles), chains and self-aliasing instructions
    over private registers, shuffled — the MOV count is known exactly."""
    parts = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["cycle", "chain", "self"]),
                st.integers(min_value=2, max_value=40),
            ),
            min_size=1, max_size=6,
        )
    )
    inputs = [0, 1, 2]  # read-only registers for second operands
    next_reg = len(inputs)
    instructions = []  # (first operand, out)
    cycles = 0
    for kind, length in parts:
        regs = list(range(next_reg, next_reg + length))
        next_reg += length
        if kind == "cycle":
            cycles += 1
            for t in range(length):
                instructions.append((regs[(t + 1) % length], regs[t]))
        elif kind == "chain":  # the last register is read, never written
            for t in range(length - 1):
                instructions.append((regs[t + 1], regs[t]))
        else:
            instructions.extend((reg, reg) for reg in regs)
    instructions = draw(st.permutations(instructions))
    ops, reads, outs = [], [], []
    for first, out in instructions:
        op = draw(st.sampled_from(["not"] + sorted(_BINARY)))
        ops.append(op)
        outs.append(out)
        if op == "not":
            reads.append((first,))
        else:  # second operand: a read-only register or the own output
            second = draw(st.sampled_from(inputs + [out]))
            reads.append(
                (first, second) if draw(st.booleans()) else (second, first)
            )
    return ops, reads, outs, next_reg, cycles


class TestOrderLevel:
    @settings(deadline=None, max_examples=300)
    @given(level=_random_levels(), seed=st.integers(0, 2 ** 16))
    def test_random_levels_keep_level_semantics(self, level, seed):
        ops, reads, outs, num_regs = level
        movs = _check_level(ops, reads, outs, num_regs, seed)
        assert (movs > 0) == _has_cycle(reads, outs)

    @settings(deadline=None, max_examples=150)
    @given(level=_structured_levels(), seed=st.integers(0, 2 ** 16))
    def test_one_mov_per_disjoint_cycle(self, level, seed):
        ops, reads, outs, num_regs, cycles = level
        assert _check_level(ops, reads, outs, num_regs, seed) == cycles

    def test_swap_self_alias_and_acyclic_order(self):
        # r3 <-> r4 swap: one MOV, the saved register read from scratch.
        steps = order_level([(4,), (3,)], [3, 4], 10)
        assert steps == [(-1, (3,), 10), (0, (4,), 3), (1, (10,), 4)]
        # self-aliases and hazard-free levels stay exactly as stored
        assert order_level([(5, 5), (6, 2)], [5, 6], 10) == [
            (0, (5, 5), 5), (1, (6, 2), 6),
        ]
        # a reader stored after its writer moves ahead of it, nothing else
        assert [s[0] for s in order_level(
            [(0,), (1,), (5,)], [5, 6, 7], 10
        )] == [1, 2, 0]

    def test_duplicate_writer_rejected(self):
        with pytest.raises(ValueError, match="more than once"):
            order_level([(0,), (1,)], [4, 4], 10)


# ----------------------------------------------------------------------
def _graphs():
    return [
        random_dag(6, 90, 4, seed=41),
        random_dag(8, 140, 5, seed=42, locality=6),
        random_layered_dag(6, [9, 12, 7, 10, 4], seed=43),
        random_layered_dag(
            5, [8, 8, 8, 8], seed=44, cross_level_probability=0.3
        ),
        random_tree(48, seed=45),
    ]


def _stats(result):
    return tuple(int(getattr(result, name)) for name in _STAT_FIELDS)


class TestStreamConsumersAgree:
    @pytest.mark.parametrize("words", [1, 511, 512, 1024])
    def test_consumers_match_functional_and_cycle(self, words):
        assert ROWWISE_MIN_WORDS == 512  # 511/512 straddle the default
        for graph in _graphs():
            res = compile_ffcl(graph, SMALL)
            program = res.program
            stim = random_stimulus(program.graph, array_size=words, seed=words)
            reference = evaluate_graph(program.graph, stim)
            one = random_stimulus(program.graph, array_size=1, seed=0)
            stats = _stats(create_engine("cycle", program).run(one))

            fused = create_engine("fused", program)
            # shards of 3: 1024 words split 342/341/341, the shard
            # boundary falls inside the batch and off any power of two
            threaded = create_engine(
                "native", program, backend="threaded", threads=3,
                min_shard_words=1,
            )
            delta = create_engine("delta", program)
            try:
                results = {
                    "fused": fused.run(stim),
                    "threaded": threaded.run(stim),
                    "delta": delta.run(stim),
                }
            finally:
                threaded.close()
            for label, result in results.items():
                assert _stats(result) == stats, (graph.name, label)
                for name, word in reference.items():
                    assert np.array_equal(result.outputs[name], word), (
                        graph.name, label, name,
                    )

            # the bound calls, whatever the engine's own threshold picked
            forced = create_engine("fused", program, rowwise_min_words=1)
            result = forced.run(stim)
            assert forced._workspaces[(words,)]._calls is not None
            assert _stats(result) == stats
            for name, word in reference.items():
                assert np.array_equal(result.outputs[name], word), name

            # the reference interpreter over a bare value table
            stream = pack_stream(fused.fused)
            values = np.zeros((stream.num_regs, words), dtype=np.uint64)
            values[1] = np.uint64(_MASK)
            for name, reg in fused.fused.pi_regs.items():
                values[reg] = np.asarray(stim[name], dtype=np.uint64)
            execute_stream(stream, values)
            for name, reg in fused.fused.output_regs.items():
                assert np.array_equal(values[reg], reference[name]), name

    def test_corpus_shaped_program_needs_few_movs(self):
        """Register reuse makes most levels hazardous, yet ordering
        leaves almost nothing to copy."""
        res = compile_ffcl(random_dag(10, 600, 6, seed=46), SMALL)
        fused = create_engine("fused", res.program).fused
        stream = pack_stream(fused)
        instructions = sum(lv.num_instructions for lv in fused.levels)
        movs = int((stream.ops == OP_MOV).sum())
        assert stream.num_instructions == instructions + movs
        assert movs * 20 <= instructions
        assert stream.num_regs - fused.num_regs <= movs


class TestWideFormIsLazy:
    def test_artifact_engine_builds_no_wide_form_until_wide_run(self):
        res = compile_ffcl(random_dag(6, 80, 3, seed=47), SMALL)
        data = ExecutableArtifact.from_compile(res).to_bytes()
        graph = res.program.graph
        for name, options in (
            ("fused", {}),
            ("native", {"backend": "threaded", "threads": 2}),
            ("delta", {}),
        ):
            # a fresh load each: engines over one artifact share its
            # fusion, and with it the stream once any of them built it
            engine = create_engine(
                name, ExecutableArtifact.from_bytes(data), **options
            )
            dense = engine.tables.dense if name == "delta" else engine.fused
            narrow = random_stimulus(graph, array_size=4, seed=1)
            engine.run(narrow)
            assert "stream" not in dense.native_cache, name
            wide = random_stimulus(  # two shards at the threshold
                graph, array_size=2 * ROWWISE_MIN_WORDS, seed=2
            )
            out = engine.run(wide)
            assert "stream" in dense.native_cache, name
            for po, word in evaluate_graph(graph, wide).items():
                assert np.array_equal(out.outputs[po], word), (name, po)
            if name == "native":
                engine.close()

    def test_delta_dense_fallback_honours_option(self, monkeypatch):
        picked = record_forms(monkeypatch, delta_module)
        res = compile_ffcl(random_dag(5, 40, 2, seed=48), TINY)
        graph = res.program.graph
        stim = random_stimulus(graph, array_size=2, seed=0)
        reference = evaluate_graph(graph, stim)
        for threshold, form in ((2, "rowwise"), (3, "vector"), (None, "vector")):
            engine = create_engine(
                "delta", res.program, rowwise_min_words=threshold
            )
            picked.clear()
            out = engine.run(stim)  # a state's first run is dense
            assert engine.rowwise_min_words == (
                threshold or ROWWISE_MIN_WORDS
            )
            assert picked == [form]
            for name, word in reference.items():
                assert np.array_equal(out.outputs[name], word), name
