"""A cold start decodes only what will run.

``ExecutableArtifact.from_bytes`` proves the container (ZIP CRCs, format
version, the content fingerprint over every byte) and decodes the
sections a boot runs.  The program's instruction and traffic columns,
the graph's node table and the trace's per-level tables are
:class:`~repro.netlist.graph.DeferredFields`: they are checked and
decoded on their first read, once, and a failure there is the same
typed ``ArtifactError`` a failure at load is.  The program's dict views
decode from its columns on their first read, like any program's.  Every program of ``front_end_goldens.json`` is the
corpus.
"""

import copy
import dataclasses
import hashlib
import io
import json
import os
import pickle
import sys
import threading
import zipfile

import numpy as np
import pytest

import goldens
import repro
from repro.artifact import ArtifactBundle, ArtifactError, ExecutableArtifact
from repro.artifact import codec
from repro.artifact.codec import (
    content_fingerprint,
    pack_container,
    unpack_container,
)
from repro.core import LPUConfig, codegen, compile_ffcl
from repro.core.isa import SRC_CONST, SRC_INPUT, SRC_SWITCH, port_code
from repro.engine import Session, available_engines
from repro.lpu import evaluate_graph, random_stimulus
from repro.netlist import random_dag
from repro.serve import (
    InferenceServer,
    ProgramCache,
    ServeConfig,
    StreamingServer,
)

#: owner -> the fields it defers, as ``deferred()`` names them.
PROGRAM_FIELDS = {"queues", "input_reads", "circulation_reads", "buffer_writes"}
ALL_DEFERRED = PROGRAM_FIELDS | {"tables", "nodes", "levels", "slot_nodes"}
TABLE_ENGINES = ("fused", "native", "delta")
STATISTICS = (
    "macro_cycles", "clock_cycles", "compute_instructions_executed",
    "switch_routes", "peak_buffer_words", "buffer_writes",
)
SMALL = LPUConfig(num_lpvs=4, lpes_per_lpv=8)


def deferred(artifact):
    """Names of the deferred fields no read has materialised yet."""
    owners = (
        (artifact.program, PROGRAM_FIELDS | {"tables"}),
        (artifact.program.graph, {"nodes"}),
        (artifact.trace, {"levels", "slot_nodes"}),
    )
    return {
        name
        for owner, names in owners
        for name in names
        if name not in vars(owner)
    }


@pytest.fixture(scope="module")
def corpus():
    """name -> (compile result, artifact bytes, one stimulus); the header
    names its producer, so the version is the recording's."""
    found = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(repro, "__version__", goldens.PRODUCER_VERSION)
        for name, (graph, kwargs) in goldens.graphs().items():
            result = compile_ffcl(graph, **kwargs)
            found[name] = (
                result,
                result.to_artifact().to_bytes(),
                random_stimulus(graph, array_size=2, seed=7),
            )
    return found


with open(goldens.GOLDENS) as _handle:
    RECORDED = json.load(_handle)
PROGRAMS = sorted(RECORDED)


def rewritten(data, edit):
    """``data`` with ``edit(header, arrays)`` applied and the content
    fingerprint recomputed: a well-formed container that says something
    else."""
    header, arrays = unpack_container(data)
    arrays = {name: array.copy() for name, array in arrays.items()}
    edit(header, arrays)
    header["fingerprint"] = content_fingerprint(header, arrays)
    return pack_container(header, arrays)


def assert_same_result(got, want):
    assert set(got.outputs) == set(want.outputs)
    for name, words in want.outputs.items():
        assert np.array_equal(got.outputs[name], words), name
    for field in STATISTICS:
        assert getattr(got, field) == getattr(want, field), field


# ----------------------------------------------------------------------
# Same bytes, same results, less decoded
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", PROGRAMS)
class TestEveryGoldenProgram:
    def test_reencode_is_byte_identical(self, corpus, name):
        _, data, _ = corpus[name]
        loaded = ExecutableArtifact.from_bytes(data)
        assert deferred(loaded) == ALL_DEFERRED
        assert loaded.to_bytes() == data
        # encoding passes the program's columns through: it reads the
        # node table and the trace levels, never the program's dict views
        assert deferred(loaded) == PROGRAM_FIELDS
        # The model blocks draw from hash(layer.name): their recorded
        # bytes are those of PYTHONHASHSEED=0 (goldens.py checks them in
        # a child process); the seeded dags are the same draw anywhere.
        seeded = os.environ.get("PYTHONHASHSEED") == "0"
        if seeded or not name.startswith("model_"):
            want = RECORDED[name]
            assert hashlib.sha256(data).hexdigest() == want["sha256"]
            assert loaded.fingerprint == want["fingerprint"]

    @pytest.mark.parametrize("engine", TABLE_ENGINES)
    def test_table_engine_boot_decodes_no_deferred_field(
        self, corpus, name, engine
    ):
        result, data, stimulus = corpus[name]
        loaded = ExecutableArtifact.from_bytes(data)
        session = Session(loaded, engine=engine)
        got = session.run(stimulus)
        repr(session), repr(session.engine), repr(loaded)
        assert deferred(loaded) == ALL_DEFERRED
        assert_same_result(
            got, Session(result.program, engine=engine).run(stimulus)
        )

    def test_every_engine_equals_the_compile_result(self, corpus, name):
        result, data, stimulus = corpus[name]
        want = Session(result.program, engine="cycle").run(stimulus)
        for engine in available_engines():
            loaded = ExecutableArtifact.from_bytes(data)
            assert_same_result(
                Session(loaded, engine=engine).run(stimulus), want
            )

    def test_readers_materialise_what_they_read(self, corpus, name):
        result, data, stimulus = corpus[name]

        loaded = ExecutableArtifact.from_bytes(data)
        Session(loaded, engine="cycle").run(stimulus)
        assert not PROGRAM_FIELDS & deferred(loaded)

        loaded = ExecutableArtifact.from_bytes(data)
        Session(loaded, engine="trace").run(stimulus)
        assert "levels" not in deferred(loaded)

        loaded = ExecutableArtifact.from_bytes(data)
        summary = loaded.summary()
        assert deferred(loaded) == PROGRAM_FIELDS  # counts read columns
        assert summary == result.to_artifact().summary()

        loaded = ExecutableArtifact.from_bytes(data)
        want = evaluate_graph(result.program.graph, stimulus)
        got = evaluate_graph(loaded.graph, stimulus)
        assert "nodes" not in deferred(loaded)
        assert all(np.array_equal(got[po], want[po]) for po in want)


def test_packaging_never_decodes_the_dict_views():
    """Compile -> lower -> fuse -> encode runs on the program's columns:
    the per-word dict views stay undecoded for compiled programs too."""
    result = compile_ffcl(random_dag(6, 120, 3, seed=7), SMALL)
    data = result.to_artifact(fanout=True).to_bytes()
    assert result.metrics.compute_instructions > 0
    assert not PROGRAM_FIELDS & set(vars(result.program))
    assert type(result.program) is codegen.Program
    loaded = ExecutableArtifact.from_bytes(data)
    assert loaded.program.queues == result.program.queues
    assert loaded.to_bytes() == data


def test_probe_replay_and_optional_sections():
    """Probes and fanout tables are boot sections: decoded at load, and
    replaying the probes on the default engine reads nothing deferred."""
    graph = random_dag(6, 120, 3, seed=7)
    data = compile_ffcl(graph, SMALL).to_artifact(
        fanout=True, probe_words=2
    ).to_bytes()
    loaded = ExecutableArtifact.from_bytes(data)
    assert loaded.fanout is not None and loaded.probes is not None
    assert loaded.verify_probes()["passed"]
    assert Session(loaded, engine="delta").run(loaded.probes.stimulus())
    assert deferred(loaded) == ALL_DEFERRED
    assert loaded.verify_probes(engine="cycle")["passed"]
    assert not PROGRAM_FIELDS & deferred(loaded)
    assert loaded.to_bytes() == data


# ----------------------------------------------------------------------
# An unmaterialised object is an ordinary object
# ----------------------------------------------------------------------
class TestDeferredObjectsBehaveAsMaterialised:
    @pytest.fixture()
    def data(self, corpus):
        return corpus["dag_s11"][1]

    def test_equality_reads_through(self, data, corpus):
        compiled = corpus["dag_s11"][0].to_artifact()
        lazy = ExecutableArtifact.from_bytes(data)
        eager = ExecutableArtifact.from_bytes(data)
        eager.to_bytes()
        eager.program.queues  # encoding reads the columns, not the views
        assert deferred(lazy) == ALL_DEFERRED and deferred(eager) == set()
        assert lazy.program.queues == compiled.program.queues
        # LogicGraph compares by identity, loaded or not: share one.
        for left, right in ((True, False), (False, True), (False, False)):
            a = ExecutableArtifact.from_bytes(data).program
            b = ExecutableArtifact.from_bytes(data).program
            b.graph = a.graph
            if left:
                a.queues
            if right:
                b.queues
            assert a == b
            assert "_deferred" not in vars(a) and "_deferred" not in vars(b)
        assert lazy.graph.nodes == compiled.graph.nodes
        assert lazy.trace.slot_nodes == compiled.trace.slot_nodes

    @pytest.mark.parametrize(
        "clone",
        [
            lambda obj: pickle.loads(pickle.dumps(obj)),
            copy.deepcopy,
            copy.copy,
        ],
        ids=["pickle", "deepcopy", "copy"],
    )
    def test_copies_are_materialised_and_equal(self, data, clone):
        def fresh():
            return ExecutableArtifact.from_bytes(data)

        program, want = fresh().program, fresh().program
        twin = clone(program)
        assert "_deferred" not in vars(twin) and "_deferred" not in vars(program)
        want.graph = twin.graph  # LogicGraph compares by identity
        assert twin == want

        graph, want = fresh().graph, fresh().graph
        twin = clone(graph)
        assert "_deferred" not in vars(twin) and "_deferred" not in vars(graph)
        assert twin.nodes == want.nodes
        assert (twin.name, twin.inputs, twin.outputs) == (
            want.name, want.inputs, want.outputs)

        trace, want = fresh().trace, fresh().trace
        twin = clone(trace)
        assert "_deferred" not in vars(twin) and "_deferred" not in vars(trace)
        assert twin.slot_nodes == want.slot_nodes
        assert [level.cycle for level in twin.levels] == [
            level.cycle for level in want.levels]

    def test_whole_artifact_pickles_and_runs(self, data, corpus):
        stimulus = corpus["dag_s11"][2]
        loaded = ExecutableArtifact.from_bytes(data)
        twin = pickle.loads(pickle.dumps(loaded))
        assert twin.to_bytes() == data
        assert_same_result(
            Session(twin).run(stimulus), Session(loaded).run(stimulus)
        )

    def test_dataclass_replace(self, data):
        program = ExecutableArtifact.from_bytes(data).program
        spilled = dataclasses.replace(program, buffer_spills=3)
        assert spilled.buffer_spills == 3
        assert spilled.tables is program.tables
        assert spilled.queues == program.queues  # views follow the tables
        with pytest.raises(TypeError):  # ... and are no fields of their own
            dataclasses.replace(program, queues={})
        moved = program.tables.queue_addr + 1
        shifted = dataclasses.replace(
            program, tables=program.tables._replace(queue_addr=moved))
        assert shifted != program and shifted == dataclasses.replace(shifted)
        assert set(shifted.queues[0]) == {a + 1 for a in program.queues[0]}
        assert "_deferred" not in vars(spilled)

    def test_materialised_is_exactly_the_plain_class(self, data):
        """Plain instances never carry the ``__getattr__`` hook, and a
        loaded one sheds it with its first read: attribute look-up on
        the compiler's and the cycle engine's objects costs what it did."""
        from repro.core.codegen import Program
        from repro.core.trace import TraceProgram
        from repro.netlist.graph import DeferredFields, LogicGraph

        for cls in (Program, TraceProgram, LogicGraph):
            assert not issubclass(cls, DeferredFields)
            assert "__getattr__" not in dir(cls)
        loaded = ExecutableArtifact.from_bytes(data)
        graph = loaded.graph
        held = {graph: "kept"}  # hashable, by identity, before and after
        for owner, cls in (
            (loaded.program, Program),
            (loaded.trace, TraceProgram),
            (graph, LogicGraph),
        ):
            assert isinstance(owner, cls) and type(owner) is not cls
        loaded.program.queues, loaded.trace.levels, graph.nodes
        assert type(loaded.program) is Program
        assert type(loaded.trace) is TraceProgram
        assert type(graph) is LogicGraph
        assert held[graph] == "kept"
        with pytest.raises(TypeError):
            hash(ExecutableArtifact.from_bytes(data).program)

    def test_unknown_attribute_is_an_attribute_error(self, data):
        loaded = ExecutableArtifact.from_bytes(data)
        for owner in (loaded.program, loaded.graph, loaded.trace):
            with pytest.raises(AttributeError, match="no_such_field"):
                owner.no_such_field
            assert not hasattr(owner, "__deepcopy__")
        assert deferred(loaded) == ALL_DEFERRED

    def test_graph_interface_needs_no_node_table(self, data, corpus):
        source = corpus["dag_s11"][0].program.graph
        graph = ExecutableArtifact.from_bytes(data).graph
        assert graph.name == source.name
        assert graph.inputs == source.inputs
        assert graph.outputs == source.outputs
        assert [graph.input_name(nid) for nid in graph.inputs] == [
            source.input_name(nid) for nid in source.inputs
        ]
        assert graph.input_id(graph.input_name(graph.inputs[0])) == graph.inputs[0]
        assert "nodes" not in vars(graph)
        gate = max(source.nodes)
        with pytest.raises(ValueError, match="not a primary input"):
            graph.input_name(gate)
        with pytest.raises(KeyError):
            graph.input_name(10 ** 9)


class TestFirstTouchUnderThreads:
    @pytest.mark.parametrize(
        "pick, module, decoder",
        [
            (lambda a: a.program.graph.nodes, codec, "_decode_nodes"),
            (lambda a: a.program.queues, codegen, "_decode_tables"),
            (lambda a: a.program.tables, codec, "_checked_tables"),
            (lambda a: a.trace.levels, codec, "_decode_levels"),
        ],
        ids=["graph.nodes", "program.queues", "program.tables",
             "trace.levels"],
    )
    def test_eight_threads_one_decode_one_object(
        self, corpus, monkeypatch, pick, module, decoder
    ):
        calls = []
        real = getattr(module, decoder)

        def counting(*args):
            calls.append(threading.get_ident())
            return real(*args)

        monkeypatch.setattr(module, decoder, counting)
        loaded = ExecutableArtifact.from_bytes(corpus["dag_dead_heavy"][1])
        barrier = threading.Barrier(8)
        seen, errors = [], []

        def touch():
            try:
                barrier.wait(timeout=10)
                seen.append(pick(loaded))
            except Exception as exc:  # reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=touch) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(calls) == 1
        assert len(seen) == 8 and all(obj is seen[0] for obj in seen)


# ----------------------------------------------------------------------
# The trust boundary: a consistent fingerprint over inconsistent sections
# ----------------------------------------------------------------------
def _set(array_name, index, value):
    def edit(header, arrays):
        arrays[array_name][index] = value
    return edit


def _truncate(array_name):
    def edit(header, arrays):
        arrays[array_name] = arrays[array_name][:-1]
    return edit


def _header(path, value):
    def edit(header, arrays):
        for key in path[:-1]:
            header = header[key]
        header[path[-1]] = value
    return edit


def _word(edit_word):
    """Rewrite the first computing word whose port a reads the switch:
    ``edit_word(word, m)``."""
    def edit(header, arrays):
        words = arrays["queue_words"]
        row, col = np.argwhere(
            ((words >> 14) & 0x3 == 0) & (words & 0xF != 0))[0]
        m = header["config"]["lpes_per_lpv"]
        words[row, col] = edit_word(int(words[row, col]), m)
    return edit


def _port_a(port):
    """``edit_word`` that sets port a to ``port(m)``."""
    return lambda word, m: (word & ~(0x7FF << 5)) | (port(m) << 5)


def _input_read_of_a_gate(header, arrays):
    ops = header["graph"]["ops"]
    gates = [ops.index(op) for op in ops if op in ("and", "or", "xor")]
    gate = arrays["graph_ids"][np.isin(arrays["graph_ops"], gates)][0]
    arrays["input_reads"][0, 3] = gate


def _narrow_queues(header, arrays):
    for name in ("queue_words", "queue_nodes"):
        arrays[name] = arrays[name][:, :-1]


def _columns(artifact):
    return artifact.program.tables


#: (edit, the read that must raise — None when the load itself must)
BAD_SECTIONS = {
    "graph op out of range": (
        _set("graph_ops", 3, 99), lambda a: a.graph.nodes),
    "graph fanin column truncated": (
        _truncate("graph_fanin_a"), lambda a: a.graph.nodes),
    "graph fanin after its consumer": (
        _set("graph_fanin_a", -1, 10 ** 6), lambda a: a.graph.nodes),
    "config is null": (_header(("config",), None), None),
    "graph interface is a number": (_header(("graph", "inputs"), 5), None),
    "program table missing": (
        lambda header, arrays: arrays.pop("queue_nodes"), None),
    "instruction word with no opcode": (
        _set("queue_words", (0, 0), 0xF), lambda a: a.program.queues),
    "instruction word out of range": (
        lambda header, arrays: arrays.__setitem__(
            "queue_words", arrays["queue_words"].astype(np.int64) - 1),
        lambda a: a.program.input_reads),
    "valid bit on a nop": (_set("queue_words", (0, 0), 0x10), _columns),
    "op without the valid bit": (_set("queue_words", (0, 0), 0x3), _columns),
    "reserved bits set": (_word(lambda word, m: word | 1 << 27), _columns),
    "switch column out of range": (
        _word(_port_a(lambda m: port_code(SRC_SWITCH, m))), _columns),
    "input slot out of range": (
        _word(_port_a(lambda m: port_code(SRC_INPUT, 2 * m))), _columns),
    "const index out of range": (
        _word(_port_a(lambda m: port_code(SRC_CONST, 0) | 2)), _columns),
    "queue columns disagree": (
        _truncate("queue_addr"), lambda a: a.program.buffer_writes),
    "queue width is not m": (_narrow_queues, _columns),
    "queue lpv out of range": (
        lambda header, arrays: arrays["queue_lpv"].__setitem__(
            -1, header["config"]["num_lpvs"]),
        _columns),
    "queue address negative": (_set("queue_addr", 0, -1), _columns),
    "queue rows repeated": (
        lambda header, arrays: [
            arrays.__setitem__(name, np.repeat(arrays[name], 2, axis=0))
            for name in ("queue_lpv", "queue_addr", "queue_words",
                         "queue_nodes")
        ],
        _columns),
    "traffic port out of range": (
        _set("input_reads", (0, 2), 7), lambda a: a.program.input_reads),
    "traffic column out of range": (
        lambda header, arrays: arrays["buffer_writes"].__setitem__(
            (0, 4), header["config"]["lpes_per_lpv"]),
        _columns),
    "traffic row outside the schedule": (
        lambda header, arrays: arrays["buffer_writes"].__setitem__(
            (0, 0), header["schedule"]["makespan"]),
        _columns),
    "traffic table not a table": (
        lambda header, arrays: arrays.__setitem__(
            "circulation_reads", arrays["circulation_reads"].reshape(-1)),
        _columns),
    "input read of a gate": (_input_read_of_a_gate, _columns),
    "fused segment op out of range": (
        _set("fused_segments", (0, 0), 99), None),
    "trace segment op out of range": (
        _set("trace_segments", (0, 0), 99), lambda a: a.trace.levels),
    "fused register count overflows": (
        _header(("fused", "num_regs"), float("inf")), None),
}


class TestInconsistentSectionsAreArtifactErrors:
    @pytest.fixture()
    def data(self, corpus):
        return corpus["dag_s11"][1]

    @pytest.mark.parametrize("case", sorted(BAD_SECTIONS))
    def test_typed_error_at_load_or_first_read(self, data, case):
        edit, read = BAD_SECTIONS[case]
        crafted = rewritten(data, edit)
        if read is None:
            with pytest.raises(ArtifactError, match="undecodable artifact"):
                ExecutableArtifact.from_bytes(crafted)
            return
        loaded = ExecutableArtifact.from_bytes(crafted)
        before = deferred(loaded)
        for _ in range(2):  # a failed decode leaves the field deferred
            with pytest.raises(ArtifactError, match="undecodable artifact"):
                read(loaded)
            assert deferred(loaded) == before
        with pytest.raises(ArtifactError):
            loaded.to_bytes()
        with pytest.raises(ArtifactError):
            pickle.dumps(loaded)

    @pytest.mark.parametrize(
        "edit",
        [_word(_port_a(lambda m: port_code(SRC_SWITCH, 200))),
         _input_read_of_a_gate],
        ids=["switch column 200", "input read of a gate"],
    )
    @pytest.mark.parametrize("engine", ["cycle", "trace"])
    def test_out_of_range_fields_never_reach_an_engine(self, edit, engine):
        """Fields no engine can index with are refused at load, as a
        typed ArtifactError, before any engine (cycle or trace) runs."""
        graph = random_dag(6, 120, 3, seed=7)
        data = compile_ffcl(graph, LPUConfig(8, 16)).to_artifact(
            lower=False).to_bytes()
        crafted = rewritten(data, edit)
        with pytest.raises(ArtifactError, match="undecodable artifact"):
            Session(ExecutableArtifact.from_bytes(crafted), engine=engine).run(
                random_stimulus(graph, array_size=1, seed=7))

    def test_sound_sections_of_a_bad_artifact_still_decode(self, data):
        loaded = ExecutableArtifact.from_bytes(
            rewritten(data, _set("graph_ops", 3, 99))
        )
        with pytest.raises(ArtifactError):
            loaded.graph.nodes
        assert loaded.program.queues
        assert deferred(loaded) == {"nodes", "levels", "slot_nodes"}

    def test_flipped_payload_byte_fails_inside_from_bytes(self, data):
        with zipfile.ZipFile(io.BytesIO(data)) as archive:
            members = archive.infolist()
        assert len(members) > 20
        for info in members:
            # first byte of the member's compressed payload
            offset = info.header_offset + 30 + len(info.filename)
            damaged = bytearray(data)
            damaged[offset] ^= 0x10
            with pytest.raises(ArtifactError):
                ExecutableArtifact.from_bytes(bytes(damaged))

    def test_bundle_members_and_manifest(self):
        graphs = [random_dag(4, 40, 4, seed=s) for s in (1, 2)]
        for index, graph in enumerate(graphs):
            graph.name = f"stage{index}"
        bundle = ArtifactBundle.from_members(
            [compile_ffcl(g, SMALL).to_artifact() for g in graphs],
            wirings=[{}],
        )
        data = bundle.to_bytes()
        loaded = ArtifactBundle.from_bytes(data)
        assert all(deferred(m) == ALL_DEFERRED for m in loaded.members)
        assert loaded.external_inputs == bundle.external_inputs
        assert loaded.to_bytes() == data

        def bad_member(header, arrays):
            name = header["bundle"]["stages"][1]["array"]
            member = rewritten(
                arrays[name].tobytes(), _header(("config",), None)
            )
            arrays[name] = np.frombuffer(member, dtype=np.uint8)

        def bad_wiring(header, arrays):
            header["bundle"]["stages"][1]["wiring"] = 5

        for edit in (bad_member, bad_wiring):
            with pytest.raises(ArtifactError, match="undecodable artifact"):
                ArtifactBundle.from_bytes(rewritten(data, edit))


# ----------------------------------------------------------------------
# Serving boots
# ----------------------------------------------------------------------
class TestServingBootsLeaveTheNodeTableAlone:
    def test_inference_server(self, corpus):
        result, data, stimulus = corpus["dag_s11"]
        loaded = ExecutableArtifact.from_bytes(data)
        with InferenceServer(loaded, serving=ServeConfig(num_workers=1)) as server:
            got = server.infer(stimulus)
            repr(server)
        assert deferred(loaded) == ALL_DEFERRED
        want = evaluate_graph(result.program.graph, stimulus)
        assert all(np.array_equal(got.outputs[po], want[po]) for po in want)

    def test_streaming_server(self, corpus):
        result, data, stimulus = corpus["dag_s11"]
        loaded = ExecutableArtifact.from_bytes(data)
        with StreamingServer(
            loaded, serving=ServeConfig(engine="delta", num_workers=1)
        ) as server:
            with server.open_session() as stream:
                got = stream.run(stimulus)
        assert deferred(loaded) == ALL_DEFERRED
        want = evaluate_graph(result.program.graph, stimulus)
        assert all(np.array_equal(got.outputs[po], want[po]) for po in want)

    def test_cache_key_is_the_carried_fingerprint(self, corpus):
        result, data, _ = corpus["dag_s11"]
        loaded = ExecutableArtifact.from_bytes(data)
        key = ProgramCache().make_key(loaded)
        assert key.workload == result.source_fingerprint
        assert deferred(loaded) == ALL_DEFERRED
