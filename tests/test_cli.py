"""End-to-end CLI tests: outputs, exit codes, reproducibility."""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import curvewalk.convergence
from curvewalk import compute_curvature_map, load_edge_list, run_chain
from curvewalk.cli import _PLAN_SAMPLER_KEYS, _write_csv, main
from conftest import LESMIS


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def write_plan(tmp_path, plan):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan), encoding="utf-8")
    return str(path)


@pytest.fixture
def path_file(tmp_path):
    f = tmp_path / "path.txt"
    f.write_text("a b\nb c\nc d\n", encoding="utf-8")
    return f


@pytest.fixture
def triangle_file(tmp_path):
    f = tmp_path / "tri.txt"
    f.write_text("a b\nb c\na c\n", encoding="utf-8")
    return f


class TestCurvature:
    def test_lesmis_node_rows(self, tmp_path):
        out = tmp_path / "curv"
        assert main(["curvature", "--graph", str(LESMIS), "--out", str(out)]) == 0
        rows = read_csv(out / "node_curvature.csv")
        assert rows[0] == ["node", "forman"]
        assert len(rows) == 1 + 77
        edge_rows = read_csv(out / "edge_curvature.csv")
        assert len(edge_rows) == 1 + 254
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["node_count"] == 77
        assert manifest["max_degree"] == 36
        assert len(manifest["graph_sha256"]) == 64

    def test_path_middle_edge_zero(self, tmp_path, path_file):
        out = tmp_path / "curv"
        assert main(["curvature", "--graph", str(path_file),
                     "--out", str(out)]) == 0
        rows = {(r[0], r[1]): r[2] for r in read_csv(out / "edge_curvature.csv")[1:]}
        assert rows[("b", "c")] == "0.0"

    def test_missing_file_no_partial_output(self, tmp_path):
        out = tmp_path / "never"
        assert main(["curvature", "--graph", str(tmp_path / "nope.txt"),
                     "--out", str(out)]) == 1
        assert not out.exists()

    def test_parse_error_exit_1(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("a b c d e\n", encoding="utf-8")
        assert main(["curvature", "--graph", str(bad),
                     "--out", str(tmp_path / "o")]) == 1


class TestSample:
    def test_deterministic_trace(self, tmp_path):
        outs = []
        for name in ("s1", "s2"):
            out = tmp_path / name
            assert main(["sample", "--graph", str(LESMIS), "--out", str(out),
                         "--kind", "node_mh_curved", "--seed", "7",
                         "--steps", "1000"]) == 0
            outs.append((out / "trace.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_single_step_trace(self, tmp_path, path_file):
        out = tmp_path / "s"
        assert main(["sample", "--graph", str(path_file), "--out", str(out),
                     "--steps", "1", "--start", "0"]) == 0
        rows = read_csv(out / "trace.csv")
        assert rows == [["step", "node", "distinct_count"], ["1", "a", "1"]]

    def test_start_out_of_range_exit_2(self, tmp_path):
        assert main(["sample", "--graph", str(LESMIS),
                     "--out", str(tmp_path / "o"), "--start", "999"]) == 2

    def test_start_not_an_id_exit_2(self, tmp_path, path_file):
        assert main(["sample", "--graph", str(path_file),
                     "--out", str(tmp_path / "o"), "--start", "zero"]) == 2

    def test_bad_flag_exit_2(self, tmp_path, path_file):
        assert main(["sample", "--graph", str(path_file),
                     "--out", str(tmp_path / "o"), "--kind", "levy"]) == 2

    def test_infinite_epsilon_floor_exit_2(self, tmp_path, path_file):
        out = tmp_path / "o"
        assert main(["sample", "--graph", str(path_file), "--out", str(out),
                     "--epsilon-floor", "inf"]) == 2
        assert not out.exists()

    def test_manifest_records_generator(self, tmp_path, path_file):
        out = tmp_path / "s"
        assert main(["sample", "--graph", str(path_file), "--out", str(out),
                     "--seed", "3", "--steps", "5"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["rng_generator"] == "pcg64"
        assert manifest["master_seed"] == 3


class TestStats:
    def test_triangle_wcc_all_one(self, tmp_path, triangle_file):
        out = tmp_path / "st"
        assert main(["stats", "--graph", str(triangle_file),
                     "--out", str(out)]) == 0
        rows = read_csv(out / "stats.csv")
        assert rows[0] == ["node", "bc", "cc", "strength", "wcc"]
        assert all(r[4] == "1.0" for r in rows[1:])
        summary = json.loads((out / "summary.json").read_text())
        assert summary["full_graph_means"]["weighted_clustering"] == 1.0

    def test_unwritable_out_exit_1(self, tmp_path, triangle_file):
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a dir", encoding="utf-8")
        assert main(["stats", "--graph", str(triangle_file),
                     "--out", str(blocker / "sub")]) == 1

    @pytest.mark.parametrize("weight", ["inf", "0"])
    def test_bad_node_weight_exit_2(self, tmp_path, triangle_file, weight):
        out = tmp_path / "st"
        assert main(["stats", "--graph", str(triangle_file), "--out", str(out),
                     "--node-weight", weight]) == 2
        assert not out.exists()


class TestConverge:
    def converge(self, tmp_path, name, *extra):
        out = tmp_path / name
        code = main(["converge", "--graph", str(LESMIS), "--out", str(out),
                     "--seed", "11", "--chains", "4", "--steps", "60",
                     *extra])
        return code, out

    def test_default_pair_writes_eight_curves(self, tmp_path):
        code, out = self.converge(tmp_path, "c1")
        assert code == 0
        csvs = sorted(p.name for p in out.glob("mse_*.csv"))
        assert len(csvs) == 8  # 2 samplers x 4 statistics
        assert "mse_node_mh_curved_strength.csv" in csvs
        assert (out / "backbone.csv").exists()
        rows = read_csv(out / "backbone.csv")
        assert rows[0] == ["node", "visits", "rank"]
        assert len(rows) == 1 + 77
        assert sum(int(r[1]) for r in rows[1:]) == 4 * 60

    def test_byte_identical_to_run_chain_replay(self, tmp_path, monkeypatch):
        samplers = ("--samplers", "edge_curved", "edge_uniform",
                    "node_mh_curved", "node_mh_uniform")
        code, a = self.converge(tmp_path, "a", *samplers)
        assert code == 0
        # replay: every chain alone through the scalar single-chain driver
        monkeypatch.setattr(curvewalk.convergence, "run_lockstep",
                            lambda g, configs: np.stack(
                                [run_chain(g, cfg).visits for cfg in configs]))
        code, b = self.converge(tmp_path, "b", *samplers)
        assert code == 0
        names = sorted(p.name for p in a.glob("*.csv"))
        assert len(names) == 17  # 4 samplers x 4 statistics + backbone
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_manifest_is_replayable(self, tmp_path):
        code, out = self.converge(tmp_path, "m")
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        cfg = manifest["config"]
        assert cfg["n_chains"] == 4
        assert cfg["max_steps"] == 60
        assert len(cfg["chain_seeds"]) == 4
        assert len(cfg["start_nodes_resolved"]) == 4
        assert manifest["rng_generator"] == "pcg64"
        assert cfg["backbone_sampler"] == "node_mh_curved"

    def test_plan_file(self, tmp_path):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({
            "samplers": [{"kind": "edge_curved"}, {"kind": "edge_uniform"}],
            "statistics": ["strength"],
            "n_chains": 3,
            "max_steps": 40,
            "master_seed": 2,
        }), encoding="utf-8")
        out = tmp_path / "p"
        assert main(["converge", "--graph", str(LESMIS), "--out", str(out),
                     "--plan", str(plan)]) == 0
        names = sorted(p.name for p in out.glob("mse_*.csv"))
        assert names == ["mse_edge_curved_strength.csv",
                         "mse_edge_uniform_strength.csv"]

    def test_plan_takes_unset_keys_from_the_flags(self, tmp_path):
        flags = ("--stats", "strength", "--epsilon-floor", "0.5",
                 "--curvature-mode", "weighted")
        plan = write_plan(tmp_path, {"samplers": [{"kind": "node_mh_curved"},
                                                  {"kind": "edge_curved"}]})
        code, out = self.converge(tmp_path, "p", "--plan", plan, *flags)
        assert code == 0
        cfg = json.loads((out / "manifest.json").read_text())["config"]
        assert (cfg["n_chains"], cfg["max_steps"]) == (4, 60)
        assert cfg["statistics"] == ["strength"]
        assert cfg["samplers"] == [
            {"kind": kind, "curvature_mode": "weighted", "epsilon_floor": 0.5,
             "burn_in": 0} for kind in ("node_mh_curved", "edge_curved")]
        names = sorted(p.name for p in out.glob("*.csv"))
        assert names == ["backbone.csv", "mse_edge_curved_strength.csv",
                         "mse_node_mh_curved_strength.csv"]
        # the same run given by flags alone writes the same bytes
        code, ref = self.converge(tmp_path, "f", *flags, "--samplers",
                                  "node_mh_curved", "edge_curved")
        assert code == 0
        for name in names:
            assert (out / name).read_bytes() == (ref / name).read_bytes(), name

    def test_plan_keys_override_the_flags(self, tmp_path):
        plan = write_plan(tmp_path, {
            "samplers": [{"kind": "edge_uniform", "epsilon_floor": 1e-6,
                          "curvature_mode": "combinatorial"}],
            "statistics": ["closeness"], "n_chains": 3, "max_steps": 20,
            "master_seed": 2})
        code, out = self.converge(tmp_path, "p", "--plan", plan,
                                  "--stats", "strength", "--epsilon-floor", "0.5",
                                  "--curvature-mode", "weighted")
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        cfg = manifest["config"]
        assert manifest["master_seed"] == 2
        assert (cfg["n_chains"], cfg["max_steps"]) == (3, 20)
        assert cfg["samplers"] == [{"kind": "edge_uniform", "burn_in": 0,
                                    "curvature_mode": "combinatorial",
                                    "epsilon_floor": 1e-6}]
        assert cfg["curve_files"] == ["mse_edge_uniform_closeness.csv"]
        assert len(read_csv(out / cfg["curve_files"][0])) == 1 + 20

    def test_plan_without_samplers_runs_the_flag_samplers(self, tmp_path):
        plan = write_plan(tmp_path, {"statistics": ["strength"]})
        code, out = self.converge(tmp_path, "p", "--plan", plan, "--samplers",
                                  "edge_uniform", "node_mh_uniform")
        assert code == 0
        assert sorted(p.name for p in out.glob("mse_*.csv")) == [
            "mse_edge_uniform_strength.csv", "mse_node_mh_uniform_strength.csv"]

    def test_manifest_records_the_plan_sampler_keys(self, tmp_path):
        code, out = self.converge(tmp_path, "m")
        assert code == 0
        entries = json.loads((out / "manifest.json").read_text())["config"]["samplers"]
        assert len(entries) == 2
        assert all(set(entry) == _PLAN_SAMPLER_KEYS for entry in entries)

    def test_float_max_steps_plan_exit_1(self, tmp_path, capsys):
        plan = write_plan(tmp_path, {"samplers": [{"kind": "edge_uniform"}],
                                     "max_steps": 20.0})
        out = tmp_path / "x"
        assert main(["converge", "--graph", str(LESMIS), "--out", str(out),
                     "--plan", plan]) == 1
        assert "max_steps" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("floor", ["0.5", True])
    def test_non_numeric_epsilon_floor_plan_exit_1(self, tmp_path, capsys, floor):
        plan = write_plan(tmp_path, {"samplers": [
            {"kind": "node_mh_curved", "epsilon_floor": floor}]})
        out = tmp_path / "x"
        assert main(["converge", "--graph", str(LESMIS), "--out", str(out),
                     "--plan", plan]) == 1
        assert "epsilon_floor" in capsys.readouterr().err
        assert not out.exists()

    def test_sampler_entry_without_kind_exit_1(self, tmp_path, capsys):
        plan = write_plan(tmp_path, {"samplers": [{}]})
        out = tmp_path / "x"
        assert main(["converge", "--graph", str(LESMIS), "--out", str(out),
                     "--plan", plan]) == 1
        err = capsys.readouterr().err
        assert "sampler entry needs a 'kind'" in err
        assert "__init__" not in err
        assert not out.exists()

    def test_invalid_plan_exit_1(self, tmp_path):
        plan = tmp_path / "plan.json"
        plan.write_text("{not json", encoding="utf-8")
        assert main(["converge", "--graph", str(LESMIS),
                     "--out", str(tmp_path / "x"), "--plan", str(plan)]) == 1

    def test_infinite_epsilon_floor_exit_2(self, tmp_path):
        out = tmp_path / "x"
        assert main(["converge", "--graph", str(LESMIS), "--out", str(out),
                     "--epsilon-floor", "inf"]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("plan, key", [
        ({"samplers": [{"kind": "edge_curved"}], "n_chain": 3}, "n_chain"),
        ({"samplers": [{"kind": "edge_curved", "epsilon": 0.5}]}, "epsilon"),
    ])
    def test_plan_unknown_key_exit_1(self, tmp_path, capsys, plan, key):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan), encoding="utf-8")
        out = tmp_path / "x"
        assert main(["converge", "--graph", str(LESMIS), "--out", str(out),
                     "--plan", str(path)]) == 1
        assert repr(key) in capsys.readouterr().err
        assert not out.exists()

    def test_disconnected_graph_exit_1(self, tmp_path):
        f = tmp_path / "two.txt"
        f.write_text("a b\nc d\n", encoding="utf-8")
        assert main(["converge", "--graph", str(f),
                     "--out", str(tmp_path / "x"), "--chains", "2",
                     "--steps", "10"]) == 1
        assert main(["converge", "--graph", str(f),
                     "--out", str(tmp_path / "y"), "--chains", "2",
                     "--steps", "10", "--largest-component"]) == 0


def csv_reference(path, header, *columns):
    """What ``csv.writer`` writes for the same rows, Python values throughout."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(zip(*(c.tolist() if isinstance(c, np.ndarray) else c
                               for c in columns)))
    return path.read_bytes()


_ODD_LABELS = ["a,b", '"q"', 'y""z', "", " lead", "tab\there", "caf\u00e9", "plain"]
_ODD_FLOATS = [np.inf, -np.inf, np.nan, -0.0, 0.0, 1e-300, 5e-324, 1e16, 0.1, 1 / 3, -2.5]


class TestWriter:
    @pytest.mark.parametrize("rows", [1, 4096, 9001])
    def test_bytes_equal_csv_writer(self, tmp_path, rows):
        labels = [_ODD_LABELS[i % len(_ODD_LABELS)] for i in range(rows)]
        floats = np.array([_ODD_FLOATS[i % len(_ODD_FLOATS)] for i in range(rows)])
        ints = np.arange(rows, dtype=np.int64) * 7 - 3
        columns = (labels, floats, range(1, rows + 1), ints, tuple(labels))
        header = ["node", "x", "n", "k", "again"]
        _write_csv(tmp_path / "new.csv", header, *columns)
        assert (tmp_path / "new.csv").read_bytes() == csv_reference(
            tmp_path / "ref.csv", header, *columns)

    def test_no_rows_writes_the_header(self, tmp_path):
        _write_csv(tmp_path / "new.csv", ["n", "mse"], range(1, 1), np.zeros(0))
        assert (tmp_path / "new.csv").read_bytes() == b"n,mse\n"

    def test_tab_delimited_labels_with_commas_and_quotes(self, tmp_path):
        graph = tmp_path / "g.tsv"
        graph.write_text('a,b\t"q"\t2.5\n"q"\tc d\t1e-300\nc d\ta,b\t0.1\n'
                         'c d\tx\t1e16\nx\ty""z\n', encoding="utf-8")
        assert main(["curvature", "--graph", str(graph), "--out", str(tmp_path / "o"),
                     "--delimiter", "\t", "--curvature-mode", "weighted"]) == 0
        g, meta = load_edge_list(graph, delimiter="\t")
        cm = compute_curvature_map(g, "weighted")
        for name, header, columns in (
                ("edge_curvature.csv", ["edge_u", "edge_v", "forman"],
                 ([meta.labels[u] for u in g.edges[:, 0].tolist()],
                  [meta.labels[v] for v in g.edges[:, 1].tolist()], cm.edge_values)),
                ("node_curvature.csv", ["node", "forman"],
                 (meta.labels, cm.node_values))):
            assert (tmp_path / "o" / name).read_bytes() == csv_reference(
                tmp_path / name, header, *columns)


class TestTopLevel:
    def test_no_subcommand_exit_2(self):
        assert main([]) == 2

    def test_version_exit_0(self):
        assert main(["--version"]) == 0

    def test_unknown_flag_exit_2(self, tmp_path, path_file):
        assert main(["stats", "--graph", str(path_file),
                     "--out", str(tmp_path / "o"), "--bogus"]) == 2


class TestModuleEntryPoints:
    """``python -m curvewalk.cli`` and ``python -m curvewalk`` run the CLI."""

    @staticmethod
    def run_module(module, *args):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        return subprocess.run([sys.executable, "-m", module, *args],
                              env=env, capture_output=True, text=True,
                              timeout=120)

    @pytest.mark.parametrize("module", ["curvewalk.cli", "curvewalk"])
    def test_stats_writes_output(self, tmp_path, module):
        out = tmp_path / "o"
        proc = self.run_module(module, "stats", "--graph", str(LESMIS),
                               "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert len(read_csv(out / "stats.csv")) == 1 + 77

    @pytest.mark.parametrize("module", ["curvewalk.cli", "curvewalk"])
    def test_bad_flag_exit_2(self, tmp_path, module):
        proc = self.run_module(module, "stats", "--graph", str(LESMIS),
                               "--out", str(tmp_path / "o"), "--bogus")
        assert proc.returncode == 2
        assert not (tmp_path / "o").exists()
