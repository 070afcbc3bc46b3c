"""Tests for the ahead-of-time executable artifact subsystem.

The load-bearing property: **serialize → deserialize → bit-identical
execution** — a deserialized :class:`ExecutableArtifact` produces exactly
the outputs *and* run statistics of the in-memory compile, on both
engines, for every model workload; encoding is deterministic and the
content fingerprints (workload and artifact) survive the round trip.
On top of the format sit the disk tiers: a cold-process
:class:`ProgramCache` over a warm :class:`ArtifactStore` must resolve its
workloads with **zero compile passes**, and the spawn worker backend must
serve bit-identically from shipped artifact bytes.
"""

import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.artifact import (
    ArtifactError,
    ArtifactStore,
    ExecutableArtifact,
    FORMAT_VERSION,
    SINGLE_PROGRAM_VERSION,
    ProbeSet,
    store_key,
)
from repro.artifact.codec import (
    ArtifactDecodeError,
    decode_snapshot,
    encode_snapshot,
    pack_container,
    unpack_container,
)
from repro.compiler import PassCache, graph_fingerprint
from repro.core import LPUConfig, clear_lowering_cache, compile_ffcl, registry
from repro.core.schedule import RuntimeSchedule
from repro.core.trace import lower_program
from repro.engine import Session, create_engine
from repro.lpu import evaluate_graph, random_stimulus
from repro.models import (
    jsc_l_workload,
    jsc_m_workload,
    layer_block,
    lenet5_workload,
    mlpmixer_b4_workload,
    mlpmixer_s4_workload,
    nid_workload,
    vgg16_workload,
)
from repro.netlist import cells, random_dag, random_tree
from repro.netlist.graph import LogicGraph
from repro.serve import (
    InferenceServer,
    ProgramCache,
    ServeConfig,
    naive_serve,
)

SMALL = LPUConfig(num_lpvs=4, lpes_per_lpv=8)
TINY = LPUConfig(num_lpvs=2, lpes_per_lpv=4)

MODEL_FACTORIES = [
    vgg16_workload,
    lenet5_workload,
    mlpmixer_s4_workload,
    mlpmixer_b4_workload,
    nid_workload,
    jsc_m_workload,
    jsc_l_workload,
]


def roundtrip(result) -> ExecutableArtifact:
    """compile result -> artifact -> bytes -> artifact."""
    return ExecutableArtifact.from_bytes(result.to_artifact().to_bytes())


def assert_identical_execution(program_a, program_b, seed=0, array_size=3):
    """Both programs execute identically on both engines (+ functional)."""
    stim = random_stimulus(program_a.graph, array_size=array_size, seed=seed)
    reference = evaluate_graph(program_a.graph, stim)
    for engine in ("cycle", "trace"):
        got = create_engine(engine, program_b).run(stim)
        ref = create_engine(engine, program_a).run(stim)
        assert set(got.outputs) == set(reference)
        for name, word in reference.items():
            assert np.array_equal(got.outputs[name], word), (engine, name)
        assert (
            got.macro_cycles,
            got.clock_cycles,
            got.compute_instructions_executed,
            got.switch_routes,
            got.peak_buffer_words,
            got.buffer_writes,
        ) == (
            ref.macro_cycles,
            ref.clock_cycles,
            ref.compute_instructions_executed,
            ref.switch_routes,
            ref.peak_buffer_words,
            ref.buffer_writes,
        ), engine


# ----------------------------------------------------------------------
# Container
# ----------------------------------------------------------------------
class TestContainer:
    def test_pack_unpack(self):
        header = {"x": 1, "nested": {"a": [1, 2]}}
        arrays = {"t": np.arange(7, dtype=np.int64)}
        data = pack_container(header, arrays)
        got_header, got_arrays = unpack_container(data)
        assert got_header == header
        assert np.array_equal(got_arrays["t"], arrays["t"])

    def test_deterministic_bytes(self):
        header = {"b": 2, "a": 1}
        arrays = {"t": np.arange(4, dtype=np.uint32)}
        assert pack_container(header, arrays) == pack_container(
            dict(reversed(list(header.items()))), arrays
        )

    def test_garbage_rejected(self):
        with pytest.raises(ArtifactDecodeError):
            unpack_container(b"not a zip at all")

    def test_not_an_artifact(self):
        data = pack_container({"kind": "something-else"}, {})
        with pytest.raises(ArtifactError, match="magic"):
            ExecutableArtifact.from_bytes(data)

    def test_version_gate(self):
        g = random_dag(4, 20, 1, seed=0)
        art = compile_ffcl(g, TINY).to_artifact()
        header, arrays = art._encode()
        header["format_version"] = FORMAT_VERSION + 1
        from repro.artifact.codec import content_fingerprint

        header["fingerprint"] = content_fingerprint(header, arrays)
        with pytest.raises(ArtifactError, match="reader registry"):
            ExecutableArtifact.from_bytes(pack_container(header, arrays))

    def test_corruption_detected(self):
        g = random_dag(4, 20, 1, seed=0)
        data = bytearray(compile_ffcl(g, TINY).to_artifact().to_bytes())
        # Flip one byte somewhere in the middle of the payload.
        data[len(data) // 2] ^= 0xFF
        with pytest.raises(ArtifactError):
            ExecutableArtifact.from_bytes(bytes(data))


# ----------------------------------------------------------------------
# Format round trips
# ----------------------------------------------------------------------
class TestRoundTrip:
    def test_bit_identical_execution_and_fingerprints(self):
        g = random_dag(6, 60, 3, seed=5)
        result = compile_ffcl(g, SMALL)
        art = roundtrip(result)
        assert_identical_execution(result.program, art.program)
        assert graph_fingerprint(art.program.graph) == graph_fingerprint(
            result.program.graph
        )
        assert art.workload_fingerprint == graph_fingerprint(g)

    def test_reencoding_is_byte_stable(self):
        g = random_dag(5, 50, 2, seed=9)
        art = compile_ffcl(g, SMALL).to_artifact()
        data = art.to_bytes()
        again = ExecutableArtifact.from_bytes(data)
        assert again.to_bytes() == data
        assert again.fingerprint == art.fingerprint

    def test_runtime_schedule_surface(self):
        g = random_dag(5, 40, 2, seed=3)
        result = compile_ffcl(g, TINY)
        art = roundtrip(result)
        schedule = art.program.schedule
        assert isinstance(schedule, RuntimeSchedule)
        assert schedule.makespan == result.schedule.makespan
        assert schedule.base_address == result.schedule.base_address
        assert schedule.queue_depth == result.schedule.queue_depth
        assert schedule.circulations == result.schedule.circulations
        assert (
            schedule.total_clock_cycles == result.schedule.total_clock_cycles
        )
        for cycle in range(schedule.makespan):
            for lpv in range(TINY.n):
                assert schedule.address_of(cycle, lpv) == \
                    result.schedule.address_of(cycle, lpv)

    def test_deep_circulating_workload(self):
        g = random_tree(128, seed=1)  # depth 7 > n = 2: circulation paths
        result = compile_ffcl(g, TINY)
        assert result.metrics.circulations > 0
        assert_identical_execution(result.program, roundtrip(result).program)

    def test_po_aliased_to_pi_and_const(self):
        g = LogicGraph()
        a = g.add_input("a")
        b = g.add_input("b")
        g.set_output("pass", a)
        g.set_output("zero", g.add_const(0))
        g.set_output("y", g.add_gate(cells.AND, a, b))
        result = compile_ffcl(g, TINY)
        assert_identical_execution(result.program, roundtrip(result).program)

    def test_without_trace_tables(self):
        g = random_dag(5, 30, 2, seed=2)
        result = compile_ffcl(g, TINY)
        art = ExecutableArtifact.from_bytes(
            ExecutableArtifact.from_compile(result, lower=False).to_bytes()
        )
        assert art.trace is None
        assert_identical_execution(result.program, art.program)
        assert art.trace_program().compute_instructions == \
            lower_program(result.program).compute_instructions

    def test_metadata_survives(self):
        g = random_dag(5, 30, 2, seed=7)
        result = compile_ffcl(g, TINY)
        art = roundtrip(result)
        assert art.producer == f"repro {repro.__version__}"
        assert art.pipeline == "+".join(
            record.name for record in result.pass_records
        )
        assert art.metrics == result.metrics.as_dict()
        summary = art.summary()
        assert summary["format_version"] == SINGLE_PROGRAM_VERSION
        assert summary["graph"]["gates"] == result.program.graph.num_gates
        json.dumps(summary)  # the whole summary is JSON-able

    def test_codegen_free_pipeline_rejected(self):
        g = random_dag(5, 30, 2, seed=2)
        result = compile_ffcl(g, TINY, generate_code=False)
        with pytest.raises(ValueError, match="no program"):
            result.to_artifact()

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n=st.integers(min_value=1, max_value=4),
        m=st.integers(min_value=2, max_value=8),
    )
    def test_roundtrip_property(self, seed, n, m):
        """serialize -> deserialize -> bit-identical execution and equal
        fingerprints, across random workloads and LPU shapes."""
        g = random_dag(5, 40, 2, seed=seed)
        result = compile_ffcl(g, LPUConfig(num_lpvs=n, lpes_per_lpv=m))
        art = result.to_artifact()
        data = art.to_bytes()
        got = ExecutableArtifact.from_bytes(data)
        assert got.fingerprint == art.fingerprint
        assert got.to_bytes() == data
        assert graph_fingerprint(got.program.graph) == graph_fingerprint(
            result.program.graph
        )
        assert_identical_execution(
            result.program, got.program, seed=seed, array_size=2
        )


class TestModelWorkloadRoundTrip:
    @pytest.mark.parametrize(
        "factory", MODEL_FACTORIES, ids=lambda f: f.__name__
    )
    def test_roundtrip_bit_identical(self, factory):
        """All 7 model workloads: deserialized artifacts execute exactly
        like the in-memory compile on both engines."""
        model = factory()
        layer = min(model.layers, key=lambda l: (l.fan_in, l.num_neurons))
        block, _ = layer_block(layer, sample_neurons=2, seed=0)
        result = compile_ffcl(block, SMALL)
        art = roundtrip(result)
        assert art.workload_fingerprint == graph_fingerprint(block)
        assert_identical_execution(result.program, art.program)


# ----------------------------------------------------------------------
# Engine / session integration
# ----------------------------------------------------------------------
class TestSessionIntegration:
    def test_session_from_artifact_skips_compile_and_lowering(self):
        g = random_dag(5, 40, 2, seed=4)
        result = compile_ffcl(g, TINY)
        data = result.to_artifact().to_bytes()
        clear_lowering_cache()
        art = ExecutableArtifact.from_bytes(data)
        session = Session(art, engine="trace")
        assert session.compile_result is None
        assert session.artifact is art
        # The embedded tables were adopted: no lowering was performed.
        assert registry.stats()["lowering"]["misses"] == 0
        assert session.engine.trace is art.trace
        stim = random_stimulus(g, array_size=2, seed=1)
        ref = evaluate_graph(g, stim)
        out = session.run(stim)
        for name, word in ref.items():
            assert np.array_equal(out.outputs[name], word)

    def test_session_artifact_rejects_compile_kwargs(self):
        g = random_dag(5, 30, 2, seed=2)
        art = compile_ffcl(g, TINY).to_artifact()
        with pytest.raises(ValueError, match="meaningless"):
            Session(art, merge=False)
        with pytest.raises(ValueError, match="its own config"):
            Session(art, SMALL)
        assert Session(art, TINY).config == TINY

    def test_create_engine_accepts_artifact(self):
        g = random_dag(5, 30, 2, seed=2)
        art = roundtrip(compile_ffcl(g, TINY))
        trace_engine = create_engine("trace", art)
        assert trace_engine.trace is art.trace
        cycle_engine = create_engine("cycle", art)
        assert cycle_engine.program is art.program

    def test_package_pass(self):
        from repro.compiler import PIPELINES, compile_with_pipeline

        g = random_dag(5, 30, 2, seed=6)
        result = compile_with_pipeline(
            g, TINY, pipeline=list(PIPELINES["paper"]) + ["package"]
        )
        assert isinstance(result.artifact, ExecutableArtifact)
        assert result.artifact.pipeline.endswith("+package")
        assert result.to_artifact() is result.artifact  # memoized
        assert_identical_execution(
            result.program, result.artifact.program
        )


# ----------------------------------------------------------------------
# ArtifactStore
# ----------------------------------------------------------------------
class TestArtifactStore:
    def test_put_get(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "store"))
        g = random_dag(5, 30, 2, seed=1)
        art = compile_ffcl(g, TINY).to_artifact()
        key = store_key("test", 1)
        assert store.get(key) is None
        store.put(key, art)
        assert store.contains(key)
        got = store.get(key)
        assert got is not None and got.fingerprint == art.fingerprint
        assert store.keys() == [key]
        assert len(store) == 1

    def test_corrupt_blob_is_quarantined(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "store"))
        key = store_key("corrupt")
        store.put_bytes(key, b"garbage bytes")
        assert store.get(key) is None
        assert store.stats.corrupt == 1
        assert not store.contains(key)  # moved aside, slot reusable

    def test_invalid_key_rejected(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "store"))
        with pytest.raises(ValueError, match="invalid store key"):
            store.path_for("../escape")

    def test_clear(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "store"))
        store.put_bytes(store_key("a"), b"x")
        store.put_bytes(store_key("b"), b"y")
        assert len(store) == 2
        store.clear()
        assert len(store) == 0


class TestStoreEviction:
    def _put(self, store, name, payload, mtime):
        path = store.put_bytes(store_key(name), payload)
        os.utime(path, (mtime, mtime))
        return path

    def test_entries_oldest_first_with_sizes(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "store"))
        self._put(store, "new", b"n" * 10, 2_000)
        self._put(store, "old", b"o" * 20, 1_000)
        entries = store.entries()
        assert [e.size for e in entries] == [20, 10]  # oldest first
        assert entries[0].mtime < entries[1].mtime
        assert store.total_bytes() == 30
        assert all(e.suffix == ".lpa" for e in entries)

    def test_prune_evicts_lru_by_mtime(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "store"))
        self._put(store, "a", b"a" * 40, 1_000)  # oldest
        self._put(store, "b", b"b" * 40, 2_000)
        self._put(store, "c", b"c" * 40, 3_000)  # newest
        evicted = store.prune(max_bytes=90)
        assert [e.key for e in evicted] == [store_key("a")]
        assert store.total_bytes() == 80
        assert store.get_bytes(store_key("a")) is None
        assert store.get_bytes(store_key("c")) == b"c" * 40
        assert store.stats.evictions == 1
        assert store.stats.bytes_evicted == 40

    def test_max_bytes_budget_enforced_on_write(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "store"), max_bytes=100)
        for i in range(6):
            path = store.put_bytes(store_key(f"blob{i}"), b"x" * 40)
            os.utime(path, (1_000 + i, 1_000 + i))
        assert store.total_bytes() <= 100
        # The newest blobs survive.
        assert store.get_bytes(store_key("blob5")) == b"x" * 40
        assert store.get_bytes(store_key("blob0")) is None
        assert store.stats.evictions >= 1

    def test_oversized_write_never_evicts_its_own_blob(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "store"), max_bytes=50)
        self._put(store, "old", b"o" * 30, 1_000)
        path = store.put_bytes(store_key("big"), b"z" * 200)
        # The budget-buster evicted everything else but kept itself.
        assert os.path.exists(path)
        assert store.get_bytes(store_key("big")) == b"z" * 200
        assert store.get_bytes(store_key("old")) is None

    def test_prune_skips_inflight_temp_files(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "store"))
        self._put(store, "a", b"a" * 10, 1_000)
        shard_dir = os.path.dirname(store.path_for(store_key("a")))
        tmp = os.path.join(shard_dir, "whatever.lpa.tmp.123.456.abcd")
        with open(tmp, "wb") as handle:
            handle.write(b"partial")
        assert all(".tmp." not in e.path for e in store.entries())
        assert store.prune(max_bytes=0)  # evicts the real blob only
        assert os.path.exists(tmp)  # the in-flight write is untouched

    def test_read_refreshes_lru_order(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "store"))
        self._put(store, "hot", b"h" * 40, 1_000)   # oldest write...
        self._put(store, "cold", b"c" * 40, 2_000)
        assert store.get_bytes(store_key("hot")) is not None  # ...but read
        evicted = store.prune(max_bytes=40)
        assert [e.key for e in evicted] == [store_key("cold")]
        assert store.get_bytes(store_key("hot")) == b"h" * 40

    def test_prune_reclaims_stale_temp_files(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "store"))
        self._put(store, "a", b"a" * 10, 1_000)
        shard_dir = os.path.dirname(store.path_for(store_key("a")))
        stale = os.path.join(shard_dir, "dead.lpa.tmp.1.2.feed")
        with open(stale, "wb") as handle:
            handle.write(b"orphan")
        os.utime(stale, (1_000, 1_000))  # writer died long ago
        store.prune(max_bytes=1_000_000)  # under budget: no eviction
        assert not os.path.exists(stale)
        assert store.get_bytes(store_key("a")) is not None

    def test_prune_zero_empties_store(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "store"))
        self._put(store, "a", b"a" * 10, 1_000)
        self._put(store, "b", b"b" * 10, 2_000)
        evicted = store.prune(max_bytes=0)
        assert len(evicted) == 2
        assert store.total_bytes() == 0

    def test_prune_without_budget_is_noop(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "store"))
        self._put(store, "a", b"a" * 10, 1_000)
        assert store.prune() == []
        assert store.total_bytes() == 10

    def test_store_cli_list_and_prune(self, tmp_path, capsys):
        from repro.cli import main

        store = ArtifactStore(str(tmp_path / "store"))
        self._put(store, "a", b"a" * 64, 1_000)
        self._put(store, "b", b"b" * 64, 2_000)
        root = str(tmp_path / "store")
        assert main(["store", "list", root, "--json"]) == 0
        listing = json.loads(capsys.readouterr().out)
        assert listing["count"] == 2 and listing["total_bytes"] == 128
        assert main(
            ["store", "prune", root, "--max-bytes", "64", "--json"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["evicted_bytes"] == 64
        assert report["remaining_bytes"] == 64
        assert main(["store", "list", root]) == 0
        assert "1 blobs" in capsys.readouterr().out

    def test_cli_size_spec_parsing(self):
        from repro.cli import _parse_size

        assert _parse_size("1048576") == 1 << 20
        assert _parse_size("512K") == 512 << 10
        assert _parse_size("64M") == 64 << 20
        assert _parse_size("2G") == 2 << 30
        assert _parse_size("1.5k") == 1536
        with pytest.raises(Exception, match="not a size"):
            _parse_size("lots")


# ----------------------------------------------------------------------
# Cache disk tiers
# ----------------------------------------------------------------------
class TestProgramCacheDiskTier:
    def test_cold_restart_zero_compile_passes(self, tmp_path):
        """A fresh cache over a warm store never compiles: no
        CompileResult, no pass-cache lookups, disk hit counted."""
        store = ArtifactStore(str(tmp_path / "store"))
        g = random_dag(6, 60, 3, seed=13)

        warm = ProgramCache(store=store)
        first = warm.get_or_compile(g, SMALL)
        assert first.compile_result is not None
        assert warm.stats.disk_stores == 1
        assert len(store) == 1

        cold = ProgramCache(store=store)  # "new process"
        entry = cold.get_or_compile(g, SMALL)
        assert entry.compile_result is None
        assert entry.artifact is not None
        assert cold.stats.disk_hits == 1
        assert cold.pass_cache.stats.lookups == 0
        assert_identical_execution(first.program, entry.program)

    def test_disk_tier_is_engine_independent(self, tmp_path):
        """One stored blob serves both engines (the key excludes the
        engine; the artifact carries program + trace)."""
        store = ArtifactStore(str(tmp_path / "store"))
        g = random_dag(5, 40, 2, seed=17)
        ProgramCache(store=store).get_or_compile(g, TINY, engine="trace")
        assert len(store) == 1
        cold = ProgramCache(store=store)
        entry = cold.get_or_compile(g, TINY, engine="cycle")
        assert entry.compile_result is None
        assert cold.stats.disk_hits == 1
        assert len(store) == 1

    def test_cycle_compile_stores_trace_embedded_blob(self, tmp_path):
        """Blobs always embed trace tables — a cycle-engine compile must
        not leave every future trace-engine cold start re-lowering."""
        store = ArtifactStore(str(tmp_path / "store"))
        g = random_dag(5, 40, 2, seed=18)
        ProgramCache(store=store).get_or_compile(g, TINY, engine="cycle")
        blob = store.get(store.keys()[0])
        assert blob is not None and blob.trace is not None
        clear_lowering_cache()
        cold = ProgramCache(store=store)
        entry = cold.get_or_compile(g, TINY, engine="trace")
        assert entry.compile_result is None
        assert entry.trace is not None
        # The embedded lowering was adopted: nothing was re-lowered.
        assert registry.stats()["lowering"]["misses"] == 0

    def test_distinct_options_get_distinct_blobs(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "store"))
        g = random_dag(5, 40, 2, seed=19)
        cache = ProgramCache(store=store)
        cache.get_or_compile(g, TINY)
        cache.get_or_compile(g, TINY, merge=False)
        cache.get_or_compile(g, SMALL)
        assert cache.stats.disk_stores == 3
        assert len(store) == 3

    def test_artifact_source_hits_without_compiling(self, tmp_path):
        g = random_dag(5, 40, 2, seed=23)
        art = roundtrip(compile_ffcl(g, TINY))
        cache = ProgramCache()
        entry = cache.get_or_compile(art, engine="trace")
        assert entry.program is art.program
        assert entry.artifact is art
        assert entry.trace is art.trace
        again = cache.get_or_compile(art, engine="trace")
        assert again is entry and cache.stats.hits == 1

    def test_pass_cache_disk_tier_shares_preprocessing(self, tmp_path):
        """A divergent compile (different policy) in a fresh process
        reuses every disk-codable pre-processing pass from the store."""
        store = ArtifactStore(str(tmp_path / "store"))
        g = random_dag(6, 60, 3, seed=29)
        ProgramCache(store=store).get_or_compile(g, SMALL)

        cold = ProgramCache(store=store)
        entry = cold.get_or_compile(g, SMALL, policy="sequential")
        assert entry.compile_result is not None  # disk miss: new options
        stats = cold.pass_cache.stats
        assert stats.disk_hits > 0
        # The shared pre-processing prefix came from disk: its records
        # report cache hits even though this process never compiled it.
        hit_names = [
            record.name
            for record in entry.compile_result.pass_records
            if record.cache_hit
        ]
        for name in ("rebalance", "simplify", "techmap", "balance",
                     "levelize"):
            assert name in hit_names


class TestPassCacheDiskTier:
    def test_snapshot_roundtrip_through_disk(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "store"))
        g = random_dag(5, 50, 2, seed=31)
        first = PassCache(store=store)
        compile_ffcl(g, TINY, pass_cache=first)
        assert first.stats.disk_stores > 0

        second = PassCache(store=store)  # fresh memory tier
        result = compile_ffcl(g, TINY, pass_cache=second)
        assert second.stats.disk_hits > 0
        reference = compile_ffcl(g, TINY)
        assert_identical_execution(reference.program, result.program)

    def test_uncodable_snapshots_stay_memory_only(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "store"))
        cache = PassCache(store=store)
        compile_ffcl(random_dag(5, 40, 2, seed=37), TINY, pass_cache=cache)
        # partition/merge/schedule/codegen snapshots are not disk-codable;
        # the codable passes are. ingest/package are not cacheable at all.
        assert 0 < cache.stats.disk_stores < cache.stats.misses

    def test_snapshot_codec_rejects_unknown_blob(self):
        with pytest.raises(ArtifactDecodeError):
            decode_snapshot(pack_container({"kind": "other"}, {}))

    def test_snapshot_codec_unsupported_value(self):
        assert encode_snapshot({"x": object()}) is None


# ----------------------------------------------------------------------
# Spawn worker backend
# ----------------------------------------------------------------------
class TestSpawnBackend:
    def test_spawn_pool_bit_identical(self):
        g = random_dag(5, 40, 2, seed=41)
        result = compile_ffcl(g, TINY)
        requests = [
            random_stimulus(g, array_size=2, seed=i) for i in range(3)
        ]
        direct = naive_serve(result.program, requests)
        with InferenceServer(
            result.program,
            serving=ServeConfig(
                num_workers=1, backend="spawn",
                max_batch_size=2, max_wait_ms=1.0,
            ),
        ) as server:
            assert server.pool.backend == "spawn"
            assert server.pool.artifact is not None
            served = server.map(requests)
        for got, ref in zip(served, direct):
            for name, word in ref.outputs.items():
                assert np.array_equal(got.outputs[name], word)
            assert got.macro_cycles == ref.macro_cycles

    def test_spawn_pool_reuses_cache_artifact(self, tmp_path):
        from repro.serve import WorkerPool

        store = ArtifactStore(str(tmp_path / "store"))
        g = random_dag(5, 30, 2, seed=43)
        cache = ProgramCache(store=store)
        entry = cache.get_or_compile(g, TINY)
        pool = WorkerPool(
            entry.program, num_workers=1, backend="spawn",
            artifact=entry.artifact,
        )
        try:
            assert pool.artifact is entry.artifact
            stim = random_stimulus(g, array_size=1, seed=0)
            ref = Session(entry.program).run(stim)
            got = pool.run(stim)
            for name, word in ref.outputs.items():
                assert np.array_equal(got.outputs[name], word)
        finally:
            pool.close()

    def test_spawn_rejects_foreign_artifact(self):
        from repro.serve import WorkerPool

        g = random_dag(5, 30, 2, seed=47)
        a = compile_ffcl(g, TINY)
        b = compile_ffcl(g, SMALL)
        with pytest.raises(ValueError, match="different program"):
            WorkerPool(
                a.program, backend="spawn", artifact=b.to_artifact()
            )

    def test_process_backend_resolves_by_start_method(self):
        import multiprocessing

        from repro.serve.pool import BACKENDS

        assert set(BACKENDS) == {"thread", "process", "fork", "spawn"}
        g = random_dag(4, 20, 1, seed=0)
        result = compile_ffcl(g, TINY)
        from repro.serve import WorkerPool

        expected = (
            "fork"
            if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
        pool = WorkerPool(result.program, num_workers=1, backend="process")
        try:
            assert pool.backend == expected
        finally:
            pool.close()


# ----------------------------------------------------------------------
# CLI + version single-sourcing
# ----------------------------------------------------------------------
class TestCLI:
    @pytest.fixture()
    def netlist(self, tmp_path):
        from repro.netlist.verilog_writer import write_verilog

        path = tmp_path / "block.v"
        path.write_text(write_verilog(random_dag(6, 80, 3, seed=53)))
        return str(path)

    def test_version_flag(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert repro.__version__ in capsys.readouterr().out

    def test_compile_write_inspect_simulate(self, capsys, tmp_path, netlist):
        from repro.cli import main

        out = str(tmp_path / "block.lpa")
        assert main(
            ["compile", netlist, "--lpvs", "4", "--lpes", "8", "-o", out]
        ) == 0
        assert os.path.exists(out)
        assert "wrote" in capsys.readouterr().out

        assert main(["inspect", out, "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["format_version"] == SINGLE_PROGRAM_VERSION
        assert summary["trace"] is not None

        for engine in ("trace", "cycle"):
            assert main(
                ["simulate", "--artifact", out, "--engine", engine]
            ) == 0
            assert "== functional: True" in capsys.readouterr().out

    def test_compile_json_includes_artifact(self, capsys, tmp_path, netlist):
        from repro.cli import main

        out = str(tmp_path / "block.lpa")
        assert main(
            ["compile", netlist, "--lpvs", "4", "--lpes", "8",
             "-o", out, "--json"]
        ) == 0
        data = json.loads(capsys.readouterr().out)
        art = ExecutableArtifact.load(out)
        assert data["artifact"]["fingerprint"] == art.fingerprint

    def test_simulate_requires_netlist_or_artifact(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="netlist or --artifact"):
            main(["simulate"])


class TestVersionSingleSourcing:
    def test_setup_py_reads_package_version(self):
        root = pathlib.Path(__file__).resolve().parents[1]
        text = (root / "setup.py").read_text()
        # No hard-coded version literal: setup.py must read __init__.py.
        assert 'version="' not in text.replace("__version__", "")
        proc = subprocess.run(
            [sys.executable, "setup.py", "--version"],
            cwd=str(root),
            capture_output=True,
            text=True,
            check=True,
        )
        assert proc.stdout.strip().splitlines()[-1] == repro.__version__


class TestProbeVectors:
    """Embedded known-answer probe vectors (``--probe-words``)."""

    @pytest.fixture(scope="class")
    def probed(self):
        g = random_dag(6, 40, 3, seed=21)
        result = compile_ffcl(g, SMALL)
        artifact = ExecutableArtifact.from_compile(
            result, probe_words=2, probe_seed=4
        )
        return result, artifact

    def test_probes_survive_roundtrip_deterministically(self, probed):
        _, artifact = probed
        assert artifact.probes is not None
        data = artifact.to_bytes()
        back = ExecutableArtifact.from_bytes(data)
        assert back.probes is not None
        assert back.to_bytes() == data
        assert back.probes.input_names == artifact.probes.input_names
        assert back.probes.output_names == artifact.probes.output_names
        assert np.array_equal(back.probes.inputs, artifact.probes.inputs)
        assert np.array_equal(back.probes.outputs, artifact.probes.outputs)
        assert back.probes.seed == 4
        assert back.fingerprint == artifact.fingerprint

    def test_probes_are_engine_free_functional_truth(self, probed):
        result, artifact = probed
        probes = artifact.probes
        reference = evaluate_graph(
            result.program.graph, probes.stimulus()
        )
        for i, name in enumerate(probes.output_names):
            assert np.array_equal(probes.outputs[i], reference[name])

    @pytest.mark.parametrize("engine", ["fused", "cycle"])
    def test_verify_probes_passes(self, probed, engine):
        _, artifact = probed
        back = ExecutableArtifact.from_bytes(artifact.to_bytes())
        report = back.verify_probes(engine=engine)
        assert report["passed"] is True
        assert report["engine"] == engine
        assert report["probe_samples"] == 128
        assert report["mismatches"] == []
        assert report["outputs_checked"] == len(
            back.probes.output_names
        )

    def test_verify_probes_detects_wrong_expectations(self, probed):
        import dataclasses

        _, artifact = probed
        flipped = artifact.probes.outputs.copy()
        flipped[0, 0] ^= np.uint64(1)
        tampered = dataclasses.replace(
            ExecutableArtifact.from_bytes(artifact.to_bytes()),
            probes=dataclasses.replace(
                artifact.probes, outputs=flipped
            ),
        )
        report = tampered.verify_probes()
        assert report["passed"] is False
        assert (
            artifact.probes.output_names[0] in report["mismatches"]
        )

    def test_verify_without_probes_raises(self):
        g = random_dag(5, 30, 2, seed=22)
        artifact = ExecutableArtifact.from_compile(compile_ffcl(g, SMALL))
        assert artifact.probes is None
        with pytest.raises(ArtifactError, match="probe"):
            artifact.verify_probes()

    def test_summary_reports_probe_shape(self, probed):
        _, artifact = probed
        summary = artifact.summary()
        assert summary["probes"] == {
            "words": 2, "samples": 128, "seed": 4,
        }

    def test_generate_is_seed_deterministic(self, probed):
        result, _ = probed
        a = ProbeSet.generate(result.program.graph, words=3, seed=9)
        b = ProbeSet.generate(result.program.graph, words=3, seed=9)
        c = ProbeSet.generate(result.program.graph, words=3, seed=10)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.outputs, b.outputs)
        assert not np.array_equal(a.inputs, c.inputs)

    def test_cli_inspect_verify(self, tmp_path, capsys):
        from repro.cli import main
        from repro.netlist.verilog_writer import write_verilog_file

        g = random_dag(6, 35, 3, seed=23)
        netlist = str(tmp_path / "probe_block.v")
        write_verilog_file(g, netlist)
        out = str(tmp_path / "probe_block.lpa")
        assert main(
            ["compile", netlist, "--lpvs", "4", "--lpes", "8",
             "-o", out, "--probe-words", "3"]
        ) == 0
        capsys.readouterr()
        assert main(["inspect", out, "--verify", "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["verification"]["passed"] is True
        assert summary["verification"]["method"] == "probe-replay"
        assert summary["probes"]["words"] == 3
