"""Tests for format-v2 bundles and the pipelined whole-model executor.

The load-bearing invariants:

* **format negotiation** — the reader registry dispatches v1 and v2
  containers to their readers, v1 artifacts keep loading byte-for-byte
  identically, and an unknown version fails with the precise
  "reader registry has {...}" error,
* **bundle round trips** — container bytes are deterministic, member
  programs are embedded as verbatim v1 containers, and the manifest is
  re-validated against the decoded graphs,
* **bit-identity** — :class:`PipelineExecutor` outputs AND statistics
  equal the serial per-stage reference for every batch, in request
  order, at every queue depth, and through a v2 serialize/deserialize
  round trip,
* **serving integration** — an :class:`InferenceServer` (and a fabric
  node) serves a bundle through the pipeline pool with per-stage
  occupancy in its stats,
* **CLI** — ``compile --bundle`` / ``inspect [--verify]`` round-trip a
  bundle end to end.
"""

import json
import os

import numpy as np
import pytest

from repro.artifact import (
    ArtifactBundle,
    ArtifactError,
    ExecutableArtifact,
    SINGLE_PROGRAM_VERSION,
    bundle_model,
    load_artifact,
    load_artifact_bytes,
    peek_header,
    reader_versions,
)
from repro.artifact.codec import content_fingerprint, pack_container
from repro.core import LPUConfig, compile_ffcl
from repro.lpu import evaluate_graph, random_stimulus
from repro.netlist import random_dag
from repro.pipeline import PipelineExecutor, SerialChainRunner
from repro.serve import InferenceServer, ServeConfig, naive_serve

SMALL = LPUConfig(num_lpvs=4, lpes_per_lpv=8)

WIDTH = 4


def _chain_graphs(stages=3, gates=24, seed=0):
    return [
        random_dag(WIDTH, gates, WIDTH, seed=seed + i) for i in range(stages)
    ]


def _wirings(stages):
    return [{f"x{j}": f"y{j}" for j in range(WIDTH)}] * (stages - 1)


@pytest.fixture(scope="module")
def bundle():
    graphs = _chain_graphs()
    return bundle_model(
        graphs, SMALL, wirings=_wirings(3), name="chain", probe_words=2
    )


def _assert_identical(a, b):
    assert set(a.outputs) == set(b.outputs)
    for name in a.outputs:
        assert np.array_equal(a.outputs[name], b.outputs[name]), name
    assert a.macro_cycles == b.macro_cycles
    assert a.clock_cycles == b.clock_cycles
    assert (
        a.compute_instructions_executed == b.compute_instructions_executed
    )
    assert a.switch_routes == b.switch_routes
    assert a.peak_buffer_words == b.peak_buffer_words
    assert a.buffer_writes == b.buffer_writes


class TestFormatNegotiation:
    def test_registry_has_both_generations(self):
        assert reader_versions() == (1, 2)

    def test_v1_loads_byte_identically_through_registry(self):
        art = compile_ffcl(random_dag(4, 20, 2, seed=1), SMALL).to_artifact()
        data = art.to_bytes()
        loaded = load_artifact_bytes(data)
        assert isinstance(loaded, ExecutableArtifact)
        assert loaded.to_bytes() == data
        assert peek_header(data)["format_version"] == SINGLE_PROGRAM_VERSION

    def test_v2_dispatches_to_bundle_reader(self, bundle):
        loaded = load_artifact_bytes(bundle.to_bytes())
        assert isinstance(loaded, ArtifactBundle)
        assert loaded.fingerprint == bundle.fingerprint

    @pytest.mark.parametrize("version", [1, 2])
    def test_load_unpacks_the_container_once(
        self, bundle, version, monkeypatch
    ):
        from repro.artifact import bundle as bundle_module
        from repro.artifact import codec as codec_module
        from repro.artifact import format as format_module

        if version == 1:
            art = compile_ffcl(random_dag(4, 20, 2, seed=3), SMALL)
            data = art.to_artifact().to_bytes()
        else:
            data = bundle.to_bytes()
        unpacked = []
        unpack = codec_module.unpack_container

        def counting(blob):
            unpacked.append(blob)
            return unpack(blob)

        for module in (codec_module, format_module, bundle_module):
            if hasattr(module, "unpack_container"):
                monkeypatch.setattr(module, "unpack_container", counting)
        load_artifact_bytes(data)
        # A bundle's members are containers of their own; the outer
        # container is opened exactly once.
        assert sum(blob is data for blob in unpacked) == 1

    def test_unknown_version_error_is_precise(self):
        art = compile_ffcl(random_dag(4, 20, 2, seed=2), SMALL).to_artifact()
        header, arrays = art._encode()
        header["format_version"] = 3
        header["fingerprint"] = content_fingerprint(header, arrays)
        data = pack_container(header, arrays)
        with pytest.raises(
            ArtifactError,
            match=r"format v3 not supported, reader registry has \{1, 2\}",
        ):
            load_artifact_bytes(data)
        # The header stays peekable for diagnostics either way.
        assert peek_header(data)["format_version"] == 3

    def test_single_program_reader_redirects_bundles(self, bundle):
        with pytest.raises(ArtifactError, match="load_artifact"):
            ExecutableArtifact.from_bytes(bundle.to_bytes())

    def test_load_artifact_from_disk(self, bundle, tmp_path):
        path = str(tmp_path / "model.lpa")
        bundle.save(path)
        loaded = load_artifact(path)
        assert isinstance(loaded, ArtifactBundle)
        assert loaded.to_bytes() == bundle.to_bytes()


class TestBundleFormat:
    def test_round_trip_is_deterministic(self, bundle):
        data = bundle.to_bytes()
        loaded = ArtifactBundle.from_bytes(data)
        assert loaded.to_bytes() == data
        assert [link.name for link in loaded.links] == [
            link.name for link in bundle.links
        ]
        assert loaded.external_inputs == bundle.external_inputs
        assert loaded.outputs == bundle.outputs

    def test_members_embed_verbatim_v1_containers(self, bundle):
        loaded = ArtifactBundle.from_bytes(bundle.to_bytes())
        for member, decoded in zip(bundle.members, loaded.members):
            assert member.to_bytes() == decoded.to_bytes()
            assert decoded.summary()["format_version"] == (
                SINGLE_PROGRAM_VERSION
            )

    def test_summary_is_jsonable(self, bundle):
        summary = bundle.summary()
        json.dumps(summary)
        assert summary["format_version"] == 2
        assert len(summary["stages"]) == 3
        assert summary["stages"][1]["wired"] == {
            f"x{j}": f"y{j}" for j in range(WIDTH)
        }

    def test_corruption_detected(self, bundle):
        data = bytearray(bundle.to_bytes())
        data[len(data) // 2] ^= 0xFF
        with pytest.raises(ArtifactError):
            ArtifactBundle.from_bytes(bytes(data))

    def test_wirings_length_must_match(self):
        graphs = _chain_graphs()
        arts = [
            compile_ffcl(g, SMALL).to_artifact() for g in graphs
        ]
        with pytest.raises(ArtifactError, match="stage transition"):
            ArtifactBundle.from_members(arts, wirings=[_wirings(3)[0]])

    def test_unknown_pi_in_wiring_rejected(self):
        arts = [
            compile_ffcl(g, SMALL).to_artifact()
            for g in _chain_graphs(stages=2)
        ]
        with pytest.raises(ArtifactError, match="unknown"):
            ArtifactBundle.from_members(
                arts, wirings=[{"nonexistent": "y0"}]
            )

    def test_dangling_po_in_wiring_rejected(self):
        arts = [
            compile_ffcl(g, SMALL).to_artifact()
            for g in _chain_graphs(stages=2)
        ]
        with pytest.raises(ArtifactError, match="do not exist"):
            ArtifactBundle.from_members(arts, wirings=[{"x0": "nope"}])

    def test_shadowed_external_rejected(self):
        # Stage 2's PIs are named like stage 1's POs, but the explicit
        # wiring covers only one of them — the other would silently
        # become an external input shadowing a driven signal.
        with pytest.raises(ArtifactError, match="external although"):
            _shadow_case()

    def test_verify_probes_replays_the_chain(self, bundle):
        report = bundle.verify_probes()
        assert report["passed"] is True
        assert report["stages"] == 3
        assert report["mismatches"] == []

    def test_reference_graph_matches_functional_composition(self, bundle):
        graph = bundle.reference_graph()
        stim = random_stimulus(graph, array_size=2, seed=7)
        expected = evaluate_graph(graph, stim)
        runner = SerialChainRunner(bundle)
        result = runner.run(stim)
        for name, words in expected.items():
            assert np.array_equal(result.outputs[name], words)


def _shadow_case():
    """Stage 1 drives POs named like stage 2 PIs, but the wiring leaves
    one of them external — packaging must refuse the ambiguity."""
    from repro.netlist import cells
    from repro.netlist.graph import LogicGraph

    first = random_dag(WIDTH, 20, WIDTH, seed=11)
    second = LogicGraph("second")
    a = second.add_input("y0")
    b = second.add_input("y1")
    second.set_output("z0", second.add_gate(cells.AND, a, b))
    arts = [
        compile_ffcl(first, SMALL).to_artifact(),
        compile_ffcl(second, SMALL).to_artifact(),
    ]
    # y1 stays external although stage 1 drives a PO named y1.
    ArtifactBundle.from_members(arts, wirings=[{"y0": "y0"}])


class TestPipelineExecutor:
    def test_bit_identity_and_order(self, bundle):
        graph = bundle.reference_graph()
        stimuli = [
            random_stimulus(graph, array_size=1 + i % 3, seed=i)
            for i in range(10)
        ]
        runner = SerialChainRunner(bundle)
        with PipelineExecutor(bundle, depth=2) as executor:
            results = executor.map(stimuli)
        assert len(results) == len(stimuli)
        for stim, piped in zip(stimuli, results):
            _assert_identical(runner.run(stim), piped)

    @pytest.mark.parametrize("depth", [1, 4])
    def test_depth_is_correctness_neutral(self, bundle, depth):
        graph = bundle.reference_graph()
        stimuli = [
            random_stimulus(graph, array_size=2, seed=40 + i)
            for i in range(6)
        ]
        runner = SerialChainRunner(bundle)
        with PipelineExecutor(bundle, depth=depth) as executor:
            for stim, piped in zip(stimuli, executor.map(stimuli)):
                _assert_identical(runner.run(stim), piped)
            board = executor.scoreboard.as_dict()
        assert board["retired"] == board["submitted"] == len(stimuli)
        assert board["in_flight"] == 0

    def test_round_tripped_bundle_bit_identical(self, bundle):
        """The executor over a DESERIALIZED bundle matches the serial
        reference over the in-memory one, batch for batch."""
        loaded = load_artifact_bytes(bundle.to_bytes())
        graph = loaded.reference_graph()
        stimuli = [
            random_stimulus(graph, array_size=4, seed=60 + i)
            for i in range(6)
        ]
        runner = SerialChainRunner(bundle)
        with PipelineExecutor(loaded, depth=2) as executor:
            for stim, piped in zip(stimuli, executor.map(stimuli)):
                _assert_identical(runner.run(stim), piped)
            board = executor.scoreboard.as_dict()
        assert board["retired"] == board["submitted"] == len(stimuli)
        assert board["in_flight"] == 0

    def test_run_serial_matches_pipeline(self, bundle):
        graph = bundle.reference_graph()
        stim = random_stimulus(graph, array_size=2, seed=77)
        with PipelineExecutor(bundle) as executor:
            _assert_identical(executor.run_serial(stim), executor.run(stim))

    def test_every_registry_engine(self, bundle):
        graph = bundle.reference_graph()
        stim = random_stimulus(graph, array_size=2, seed=5)
        expected = evaluate_graph(graph, stim)
        for engine in ("cycle", "trace", "fused", "delta", "native"):
            with PipelineExecutor(bundle, engine=engine) as executor:
                result = executor.run(stim)
            for name, words in expected.items():
                assert np.array_equal(result.outputs[name], words), (
                    engine,
                    name,
                )

    def test_input_validation(self, bundle):
        with PipelineExecutor(bundle) as executor:
            with pytest.raises(KeyError, match="missing"):
                executor.submit({})
            good = random_stimulus(
                bundle.reference_graph(), array_size=1, seed=0
            )
            with pytest.raises(KeyError, match="unknown"):
                executor.submit(dict(good, bogus=good["x0"]))

    def test_stats_shape(self, bundle):
        graph = bundle.reference_graph()
        with PipelineExecutor(bundle, depth=3) as executor:
            executor.map(
                [
                    random_stimulus(graph, array_size=1, seed=i)
                    for i in range(4)
                ]
            )
            stats = executor.stats()
        assert stats["depth"] == 3
        assert len(stats["stages"]) == 3
        for stage in stats["stages"]:
            assert set(stage) == {
                "stage",
                "engine",
                "batches",
                "words",
                "busy_seconds",
                "busy_fraction",
                "queue_depth_p50",
                "queue_depth_p99",
                "queue_depth_max",
            }
            assert stage["batches"] == 4
        board = stats["scoreboard"]
        assert board["submitted"] == board["retired"] == 4
        json.dumps(stats)

    def test_failed_batch_does_not_wedge_the_chain(self, bundle):
        graph = bundle.reference_graph()
        good = random_stimulus(graph, array_size=2, seed=1)
        # Mismatched word counts across PIs blow up inside a stage run;
        # the failure must surface on that future while later batches
        # keep flowing.
        bad = dict(good)
        bad["x0"] = np.zeros(7, dtype=np.uint64)
        runner = SerialChainRunner(bundle)
        with PipelineExecutor(bundle, depth=2) as executor:
            bad_future = executor.submit(bad)
            good_future = executor.submit(good)
            with pytest.raises(Exception):
                bad_future.result(timeout=30)
            _assert_identical(
                runner.run(good), good_future.result(timeout=30)
            )
            board = executor.scoreboard.as_dict()
            assert board["retired"] == 2
        with pytest.raises(RuntimeError, match="closed"):
            executor.submit(good)

    def test_close_is_idempotent(self, bundle):
        executor = PipelineExecutor(bundle)
        executor.close()
        executor.close()


class TestServingIntegration:
    def test_inference_server_serves_bundles(self, bundle):
        graph = bundle.reference_graph()
        requests = [
            random_stimulus(graph, array_size=1 + i % 2, seed=i)
            for i in range(8)
        ]
        serving = ServeConfig(pipeline_depth=2, max_wait_ms=0.5)
        with InferenceServer(bundle, serving=serving) as server:
            assert server.graph.name == graph.name
            served = server.map(requests)
            stats = server.stats()
        naive = naive_serve(bundle, requests)
        for a, b in zip(served, naive):
            _assert_identical(a, b)
        pool = stats["pool"]
        assert pool["backend"] == "pipeline"
        assert pool["placement"] == "chain"
        assert pool["num_workers"] == 3
        assert pool["depth"] == 2
        assert len(pool["stages"]) == 3
        assert pool["scoreboard"]["retired"] >= 1
        json.dumps(stats)

    def test_fabric_node_serves_a_bundle(self, bundle):
        from repro.serve.fabric import FabricClient, FabricNode

        graph = bundle.reference_graph()
        stim = random_stimulus(graph, array_size=2, seed=3)
        expected = SerialChainRunner(bundle).run(stim)
        with FabricNode(
            bundle, serving=ServeConfig(pipeline_depth=2)
        ) as node:
            with FabricClient(node.url) as client:
                result = client.infer(stim)
                health = client.health()
                stats = client.stats()
        for name in expected.outputs:
            assert np.array_equal(
                result.outputs[name], expected.outputs[name]
            )
        assert result.macro_cycles == expected.macro_cycles
        assert health["graph"] == graph.name
        assert stats["server"]["pool"]["backend"] == "pipeline"

    def test_vet_accepts_bundle_uploads(self, bundle):
        from repro.serve.fabric import FabricNode

        node = FabricNode.__new__(FabricNode)
        assert node._vet_artifact(bundle.to_bytes()) is None
        assert node._vet_artifact(b"garbage") is not None


class TestCLI:
    @pytest.fixture()
    def netlists(self, tmp_path):
        texts = [
            "INPUT(a)\nINPUT(b)\nOUTPUT(m0)\nOUTPUT(m1)\n"
            "m0 = AND(a, b)\nm1 = OR(a, b)\n",
            "INPUT(m0)\nINPUT(m1)\nINPUT(c)\nOUTPUT(n0)\n"
            "n0 = NAND(m0, m1)\n",
            "INPUT(n0)\nOUTPUT(z)\nz = NOT(n0)\n",
        ]
        paths = []
        for i, text in enumerate(texts):
            path = tmp_path / f"s{i}.bench"
            path.write_text(text)
            paths.append(str(path))
        return paths

    def test_compile_bundle_inspect_verify(
        self, netlists, tmp_path, capsys
    ):
        from repro.cli import main

        out = str(tmp_path / "model.lpa")
        assert main(
            ["compile", *netlists, "--bundle", "--lpvs", "4",
             "--lpes", "8", "-o", out]
        ) == 0
        assert "3 stages" in capsys.readouterr().out
        assert os.path.exists(out)

        loaded = load_artifact(out)
        assert isinstance(loaded, ArtifactBundle)
        assert loaded.num_stages == 3

        assert main(["inspect", out, "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["format_version"] == 2
        assert summary["kind"] == "bundle"
        assert len(summary["stages"]) == 3

        assert main(["inspect", out, "--verify"]) == 0
        assert "PASSED" in capsys.readouterr().out

    def test_multiple_netlists_require_bundle_flag(self, netlists):
        from repro.cli import main

        with pytest.raises(SystemExit, match="--bundle"):
            main(["compile", *netlists])

    def test_inspect_unknown_version_prints_header(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        art = compile_ffcl(random_dag(4, 20, 2, seed=4), SMALL).to_artifact()
        header, arrays = art._encode()
        header["format_version"] = 3
        header["fingerprint"] = content_fingerprint(header, arrays)
        path = str(tmp_path / "future.lpa")
        with open(path, "wb") as handle:
            handle.write(pack_container(header, arrays))

        assert main(["inspect", path]) == 1
        captured = capsys.readouterr()
        assert "v3" in captured.out
        assert "reader registry has {1, 2}" in captured.err

    def test_single_program_commands_reject_bundles(
        self, netlists, tmp_path, capsys
    ):
        from repro.cli import main

        out = str(tmp_path / "model.lpa")
        assert main(
            ["compile", *netlists, "--bundle", "--lpvs", "4",
             "--lpes", "8", "-o", out]
        ) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit, match="multi-program bundle"):
            main(["simulate", "--artifact", out])
