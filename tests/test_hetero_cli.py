"""Tests for the future-work extensions (heterogeneous/multi-LPU) and CLI."""

import pytest

from repro.core import LPUConfig
from repro.core.hetero import (
    HeterogeneousLPU,
    MultiLPU,
    evaluate_heterogeneous,
    partition_heterogeneous,
    tapered_profile,
)
from repro.cli import main as cli_main
from repro.engine import available_engines
from repro.netlist import random_dag, write_verilog, write_bench
from repro.synth import preprocess


def balanced(seed=0, gates=60):
    return preprocess(random_dag(6, gates, 3, seed=seed)).graph


class TestHeterogeneousLPU:
    def test_validation(self):
        with pytest.raises(ValueError):
            HeterogeneousLPU(lpe_widths=())
        with pytest.raises(ValueError):
            HeterogeneousLPU(lpe_widths=(4, 0))

    def test_uniform_matches_homogeneous_partition(self):
        from repro.core import partition

        g = balanced(seed=1)
        uniform = HeterogeneousLPU(lpe_widths=(4,) * 6)
        hetero = partition_heterogeneous(g, uniform)
        homo = partition(g, 4)
        assert hetero.num_mfgs == homo.num_mfgs

    def test_per_level_widths_respected(self):
        g = balanced(seed=2)
        lpu = HeterogeneousLPU(lpe_widths=(8, 2, 8, 2))
        part = partition_heterogeneous(g, lpu)
        for mfg in part.mfgs:
            for level in mfg.levels():
                assert mfg.width(level) <= lpu.m_of_level(level)

    def test_evaluation_fields(self):
        g = balanced(seed=3)
        lpu = HeterogeneousLPU(lpe_widths=(6, 5, 4, 3))
        ev = evaluate_heterogeneous(g, lpu)
        assert ev.makespan >= 1
        assert ev.total_lpes == 18
        assert ev.fps > 0
        assert ev.fps_per_lpe == pytest.approx(ev.fps / 18)

    def test_tapered_profile(self):
        lpu = tapered_profile(8, 32, 0.5)
        assert lpu.lpe_widths[0] == 32
        assert lpu.lpe_widths[-1] == 16
        assert all(
            a >= b for a, b in zip(lpu.lpe_widths, lpu.lpe_widths[1:])
        )
        with pytest.raises(ValueError):
            tapered_profile(4, 8, 0.0)

    def test_tapering_trades_area_for_cycles(self):
        g = balanced(seed=4, gates=120)
        flat = evaluate_heterogeneous(g, tapered_profile(6, 8, 1.0))
        tapered = evaluate_heterogeneous(g, tapered_profile(6, 8, 0.5))
        assert tapered.total_lpes < flat.total_lpes
        assert tapered.makespan >= flat.makespan


class TestMultiLPU:
    BASE = LPUConfig(num_lpvs=4, lpes_per_lpv=4)

    def test_validation(self):
        with pytest.raises(ValueError):
            MultiLPU(self.BASE, 0, "parallel")
        with pytest.raises(ValueError):
            MultiLPU(self.BASE, 2, "ring")

    def test_parallel_scales_throughput(self):
        costs = [100, 100, 100, 100]
        one = MultiLPU(self.BASE, 1, "parallel").throughput_fps(costs)
        four = MultiLPU(self.BASE, 4, "parallel").throughput_fps(costs)
        assert four == pytest.approx(4 * one)

    def test_series_bound_by_bottleneck(self):
        costs = [300, 10, 10, 10]
        two = MultiLPU(self.BASE, 2, "series")
        stages = two.partition_stages(costs)
        assert len(stages) == 2
        fps = two.throughput_fps(costs)
        # The 300-cycle layer dominates one stage.
        assert fps == pytest.approx(self.BASE.fps(300))

    def test_series_balanced_split(self):
        costs = [50, 50, 50, 50]
        two = MultiLPU(self.BASE, 2, "series")
        assert two.throughput_fps(costs) == pytest.approx(self.BASE.fps(100))

    def test_total_lpes(self):
        assert MultiLPU(self.BASE, 3, "parallel").total_lpes() == 48


class TestCLI:
    def _write_netlist(self, tmp_path, fmt="v"):
        g = random_dag(5, 30, 2, seed=6)
        path = tmp_path / f"block.{fmt}"
        if fmt == "v":
            path.write_text(write_verilog(g))
        else:
            path.write_text(write_bench(g))
        return str(path)

    def test_compile_command(self, tmp_path, capsys):
        path = self._write_netlist(tmp_path)
        rc = cli_main(["compile", path, "--lpvs", "4", "--lpes", "4"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "mfgs_after_merge" in out

    def test_simulate_command_cross_checks(self, tmp_path, capsys):
        path = self._write_netlist(tmp_path)
        rc = cli_main(["simulate", path, "--lpvs", "4", "--lpes", "4",
                       "--seed", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "cycle == functional: True" in out

    @pytest.mark.parametrize("engine", available_engines())
    def test_simulate_engine_flag(self, tmp_path, capsys, engine):
        path = self._write_netlist(tmp_path)
        rc = cli_main(["simulate", path, "--lpvs", "4", "--lpes", "4",
                       "--engine", engine])
        out = capsys.readouterr().out
        assert rc == 0
        assert f"{engine} == functional: True" in out

    def test_compile_json_output(self, tmp_path, capsys):
        import json

        path = self._write_netlist(tmp_path)
        rc = cli_main(["compile", path, "--lpvs", "4", "--lpes", "4",
                       "--json"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["mfgs_after_merge"] <= data["mfgs_before_merge"]
        assert data["fps"] > 0

    def test_report_json_output(self, tmp_path, capsys):
        import json

        path = self._write_netlist(tmp_path)
        rc = cli_main(["report", path, "--lpvs", "4", "--lpes", "4",
                       "--json"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert {"partition", "schedule", "metrics", "program"} <= set(data)
        assert data["schedule"]["makespan_macro_cycles"] >= 1

    def test_report_command(self, tmp_path, capsys):
        path = self._write_netlist(tmp_path)
        rc = cli_main(["report", path, "--lpvs", "4", "--lpes", "4"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "partition:" in out and "schedule:" in out

    def test_bench_format_input(self, tmp_path, capsys):
        path = self._write_netlist(tmp_path, fmt="bench")
        rc = cli_main(["compile", path, "--lpvs", "4", "--lpes", "4"])
        assert rc == 0

    def test_no_merge_and_sequential_flags(self, tmp_path, capsys):
        path = self._write_netlist(tmp_path)
        rc = cli_main(
            ["compile", path, "--lpvs", "4", "--lpes", "4",
             "--no-merge", "--policy", "sequential"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "'policy': 'sequential'" in out or "sequential" in out
