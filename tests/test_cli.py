"""End-to-end CLI tests: outputs, exit codes, reproducibility."""

from __future__ import annotations

import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import curvewalk.convergence
from curvewalk import compute_curvature_map, load_edge_list
from curvewalk.cli import _PLAN_SAMPLER_KEYS, _write_csvs, main
from conftest import LESMIS, run_chain_stream


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

    def test_manifest_records_how_the_graph_was_read(self, tmp_path,
                                                     triangle_file):
        ingest = {}
        for name, flags in (("default", ()),
                            ("set", ("--unweighted", "--node-weight", "3"))):
            out = tmp_path / name
            assert main(["stats", "--graph", str(triangle_file),
                         "--out", str(out), *flags]) == 0
            ingest[name] = json.loads((out / "manifest.json").read_text())["ingest"]
        assert ingest["default"] == {"delimiter": None, "unweighted": False,
                                     "node_weight": 1.0}
        assert ingest["set"] == {"delimiter": None, "unweighted": True,
                                 "node_weight": 3.0}

    @pytest.mark.parametrize("weight", ["inf", "0", "abc"])
    def test_bad_node_weight_exit_2(self, tmp_path, triangle_file, weight):
        out = tmp_path / "st"
        assert main(["stats", "--graph", str(triangle_file), "--out", str(out),
                     "--node-weight", weight]) == 2
        assert not out.exists()


SAMPLE_FLAGS = ("--seed", "11", "--start", "4", "--burn-in", "5")
# sha256 of every CSV and summary.json these lesmis runs write; criterion 7
# pins `converge` the same way
GOLDEN_OUTPUTS = {
    ("curvature", "--curvature-mode", "combinatorial"): {
        "edge_curvature.csv": "386a07d0434046c3413f63cea3dbd633dc45fab6c51e356f2cc0eee23cfd0f2e",
        "node_curvature.csv": "f121232fb44c31665868c30cdcf45a7c7ac0f9ed7a784ef57d46611d81389ffc",
    },
    ("curvature", "--curvature-mode", "weighted"): {
        "edge_curvature.csv": "9ccb32b0feb8bd2840d1f6cc76f0cb8dca0eb2befbaf61c22bc7b666238e92ab",
        "node_curvature.csv": "59ef446a32484cf1a2a38cf9f68284bebed399b92a5aceae5d8bcc86bd4329c7",
    },
    ("stats", "--path-mode", "hop"): {
        "stats.csv": "4e3a6dc360e05928ef3576315c45da844a537ff6ce347b01010bf170809d62a5",
        "summary.json": "4d60cd6b9570f4355b8d76518b4a5c45bd46f45321b02f56a8b7aca4bbf11b73",
    },
    ("stats", "--path-mode", "weighted"): {
        "stats.csv": "a7be03eba45992642c1e2ff6bf21fd8cea98530e61f1c505567a699696846110",
        "summary.json": "d082b99b43a2dd9d1923bd093e77892866d061f51b49c093d6e6b63cdde4da35",
    },
    ("sample", "--kind", "edge_curved", *SAMPLE_FLAGS): {
        "trace.csv": "b74c232924fabf2129708f6d997402bc213d964aae068f68bee3e92a6ca8a6fa",
    },
    ("sample", "--kind", "edge_uniform", *SAMPLE_FLAGS): {
        "trace.csv": "e528be9d75a7c754c85b12d6a0cc9d63313dd1b0227af74a16c690d5be4b088e",
    },
    ("sample", "--kind", "node_mh_curved", *SAMPLE_FLAGS): {
        "trace.csv": "572657c2b0ae673b66f2ce08b4dd00a8a5f46f3347120c75206e395b57a80111",
    },
    ("sample", "--kind", "node_mh_uniform", *SAMPLE_FLAGS): {
        "trace.csv": "c0690a56ba0984f47a77e4e5a8ced78520a7e08e81f0e3f4212fe98d14078b85",
    },
}


@pytest.mark.parametrize("argv", list(GOLDEN_OUTPUTS), ids=" ".join)
def test_golden_outputs(tmp_path, argv):
    out = tmp_path / "o"
    assert main([argv[0], "--graph", str(LESMIS), "--out", str(out),
                 *argv[1:]]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in out.iterdir() if p.name != "manifest.json"}
    assert digests == GOLDEN_OUTPUTS[argv]
    if argv[0] == "sample":
        # the manifest names the first row's node: the start after burn-in
        _, labels = load_edge_list(LESMIS)
        start = json.loads((out / "manifest.json").read_text())[
            "config"]["start_node_resolved"]
        assert labels[start] == read_csv(out / "trace.csv")[1][1]


MANIFEST_KEYS = {
    "tool_version", "command", "graph_path", "graph_sha256", "node_count",
    "edge_count", "max_degree", "ingest", "rng_generator", "master_seed",
    "config", "created_utc"}


@pytest.mark.parametrize("argv", [
    ["curvature"], ["sample", "--steps", "5"], ["stats"],
    ["converge", "--chains", "2", "--steps", "5"]], ids=lambda argv: argv[0])
def test_manifest_keys_and_graph_counts(tmp_path, argv):
    out = tmp_path / "o"
    assert main([argv[0], "--graph", str(LESMIS), "--out", str(out),
                 *argv[1:]]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest) == MANIFEST_KEYS
    assert (manifest["node_count"], manifest["edge_count"],
            manifest["max_degree"]) == (77, 254, 36)
    assert manifest["command"] == argv[0]
    seeded = manifest["master_seed"] is not None
    assert manifest["rng_generator"] == ("pcg64" if seeded else None)


@pytest.mark.parametrize("command", ["curvature", "sample", "stats", "converge"])
def test_edgeless_file_writes_complete_output_or_nothing(tmp_path, command, capsys):
    f = tmp_path / "empty.txt"
    f.write_text("% only a comment\n", encoding="utf-8")
    out = tmp_path / "o"
    rc = main([command, "--graph", str(f), "--out", str(out)])
    err = capsys.readouterr().err
    if command == "curvature":
        assert rc == 0
        assert (out / "manifest.json").is_file()
        assert sorted(p.name for p in out.iterdir()) == [
            "edge_curvature.csv", "manifest.json", "node_curvature.csv"]
    else:
        assert rc == 1
        assert not out.exists()
        assert err == f"error: {f}: the graph has no nodes\n"


def test_edgeless_file_keeps_usage_and_plan_errors(tmp_path, capsys):
    f = tmp_path / "empty.txt"
    f.write_text("% only a comment\n", encoding="utf-8")
    plan = tmp_path / "plan.json"
    plan.write_text('{"bogus": 1}', encoding="utf-8")
    out = tmp_path / "o"
    assert main(["sample", "--graph", str(f), "--out", str(out), "--start", "0"]) == 2
    assert "--start 0 out of range" in capsys.readouterr().err
    assert main(["converge", "--graph", str(f), "--out", str(out),
                 "--plan", str(plan)]) == 1
    assert f"invalid plan file {plan}" in capsys.readouterr().err
    assert not out.exists()


def test_out_holding_a_manifest_is_refused(tmp_path, capsys):
    # a second run into one --out would leave the first run's curve files
    # beside a manifest that does not name them
    out = tmp_path / "o"
    common = ["--graph", str(LESMIS), "--out", str(out), "--chains", "2",
              "--steps", "5"]
    assert main(["converge", *common, "--samplers", "edge_uniform", "edge_curved"]) == 0
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    assert len(first) == 10
    capsys.readouterr()
    assert main(["converge", *common, "--samplers", "node_mh_uniform"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: --out {out} already holds") and "manifest.json" in err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == first


def test_manifest_of_a_graph_without_edges(tmp_path):
    f = tmp_path / "empty.txt"
    f.write_text("% no edges\n", encoding="utf-8")
    out = tmp_path / "o"
    assert main(["curvature", "--graph", str(f), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest) == MANIFEST_KEYS
    assert (manifest["node_count"], manifest["edge_count"],
            manifest["max_degree"]) == (0, 0, 0)


def _plan_samplers(*kinds):
    return [{"burn_in": 0, "curvature_mode": "combinatorial",
             "epsilon_floor": 1e-09, "kind": kind} for kind in kinds]


_LESMIS_MEANS = {"betweenness": 62.36363636363637,
                 "closeness": 0.005122911191666006,
                 "strength": 21.2987012987013,
                 "weighted_clustering": 0.605709405792699}
_ALL_STATS = ["betweenness", "closeness", "strength", "weighted_clustering"]
_SEEDS_11 = [16294208416658607524, 10451216379200822474,
             10905525725756348101, 2092789425003139046]

# the full `config` block of two lesmis converge manifests: a repeated kind
# (label suffixes, curve file order) and a run restricted to the largest
# component, whose ids are shifted by a detached pair listed first
GOLDEN_CONVERGE_CONFIGS = {
    "repeated-kind": (
        ["--seed", "11", "--chains", "4", "--steps", "60", "--samplers",
         "edge_curved", "node_mh_uniform", "node_mh_uniform"],
        {"backbone_sampler": "edge_curved",
         "chain_seeds": _SEEDS_11,
         "curve_files": [f"mse_{label}_{stat}.csv" for label in (
             "edge_curved", "node_mh_uniform_1", "node_mh_uniform_2")
             for stat in _ALL_STATS],
         "full_graph_means": _LESMIS_MEANS,
         "max_steps": 60,
         "n_chains": 4,
         "path_mode": "hop",
         "restricted_to_component": False,
         "sampler_labels": ["edge_curved", "node_mh_uniform_1",
                            "node_mh_uniform_2"],
         "samplers": _plan_samplers("edge_curved", "node_mh_uniform",
                                    "node_mh_uniform"),
         "start_nodes_resolved": ["CountessDeLo", "LtGillenormand",
                                  "Claquesous", "Marius"],
         "statistics": _ALL_STATS,
         "use_largest_component": False}),
    "largest-component": (
        ["--seed", "11", "--chains", "3", "--largest-component"],
        {"backbone_sampler": "node_mh_curved",
         "chain_seeds": _SEEDS_11[:3],
         "curve_files": [f"mse_{label}_{stat}.csv" for label in (
             "node_mh_curved", "node_mh_uniform") for stat in _ALL_STATS],
         "full_graph_means": _LESMIS_MEANS,
         "max_steps": 1540,
         "n_chains": 3,
         "path_mode": "hop",
         "restricted_to_component": True,
         "sampler_labels": ["node_mh_curved", "node_mh_uniform"],
         "samplers": _plan_samplers("node_mh_curved", "node_mh_uniform"),
         "start_nodes_resolved": ["CountessDeLo", "LtGillenormand",
                                  "Claquesous"],
         "statistics": _ALL_STATS,
         "use_largest_component": True}),
}


@pytest.mark.parametrize("name", list(GOLDEN_CONVERGE_CONFIGS))
def test_golden_converge_config(tmp_path, name):
    argv, want = GOLDEN_CONVERGE_CONFIGS[name]
    graph = LESMIS
    if "--largest-component" in argv:
        graph = tmp_path / "pair_lesmis.tsv"
        graph.write_text("Zeta\tOmega\t1\n" + LESMIS.read_text(encoding="utf-8"),
                         encoding="utf-8")
    out = tmp_path / "o"
    assert main(["converge", "--graph", str(graph), "--out", str(out),
                 *argv]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"] == want
    assert sorted(p.name for p in out.glob("mse_*.csv")) == want["curve_files"]


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
        monkeypatch.setattr(curvewalk.convergence, "_lockstep_stream",
                            run_chain_stream)
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
        assert manifest["ingest"] == {"delimiter": None, "unweighted": False,
                                      "node_weight": 1.0}

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

    def test_plan_start_nodes_alone_fix_the_starts(self, tmp_path):
        plan = write_plan(tmp_path, {"start_nodes": [0, 1],
                                     "statistics": ["strength"]})
        code, out = self.converge(tmp_path, "p", "--chains", "2", "--plan", plan)
        assert code == 0
        cfg = json.loads((out / "manifest.json").read_text())["config"]
        assert cfg["start_nodes_resolved"] == ["Anzelma", "Eponine"]

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

    def test_restricted_start_refusal_names_the_given_id_exit_1(self, tmp_path, capsys):
        # x (id 3) has combinatorial curvature 1 - 1 = 0, so with no floor its
        # target density is 0; it is id 1 of the largest component, and id 1
        # of the file is b, in the other component
        f = tmp_path / "two.txt"
        f.write_text("a b\ny x\nx z\nz w1\nz w2\n", encoding="utf-8")
        plan = write_plan(tmp_path, {
            "samplers": [{"kind": "node_mh_curved", "epsilon_floor": 0.0}],
            "start_nodes": [3], "statistics": ["strength"], "n_chains": 2,
            "max_steps": 10})
        out = tmp_path / "x"
        assert main(["converge", "--graph", str(f), "--out", str(out),
                     "--largest-component", "--plan", plan]) == 1
        assert "target density is zero at start node 3" in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_plan_exit_1(self, tmp_path):
        plan = tmp_path / "plan.json"
        plan.write_text("{not json", encoding="utf-8")
        assert main(["converge", "--graph", str(LESMIS),
                     "--out", str(tmp_path / "x"), "--plan", str(plan)]) == 1

    @pytest.mark.parametrize("plan, flags, code, err", [
        ({}, ["--chains", "1"], 2, "error: n_chains must be >= 2\n"),
        ({"n_chains": 1}, [], 1,
         "error: invalid plan file {plan}: n_chains must be >= 2\n"),
        ({"n_chains": 5}, ["--chains", "1"], 0, ""),
        ({"statistics": ["strength"]}, ["--epsilon-floor", "-1"], 2,
         "error: epsilon_floor must be finite and >= 0\n"),
    ], ids=["flag", "file", "file-overrides-flag", "floor-flag"])
    def test_refusal_blames_the_file_only_for_its_keys(self, tmp_path, capsys, plan,
                                                       flags, code, err):
        plan = write_plan(tmp_path, plan)
        out = tmp_path / "x"
        assert main(["converge", "--graph", str(LESMIS), "--out", str(out), "--plan",
                     plan, "--steps", "5", "--stats", "strength", *flags]) == code
        assert capsys.readouterr().err == err.format(plan=plan)
        assert out.exists() == (code == 0)

    def test_infinite_epsilon_floor_exit_2(self, tmp_path):
        out = tmp_path / "x"
        assert main(["converge", "--graph", str(LESMIS), "--out", str(out),
                     "--epsilon-floor", "inf"]) == 2
        assert not out.exists()

    def test_repeated_statistic_exit_2(self, tmp_path, capsys):
        # a repeated kind would name one curve file twice
        out = tmp_path / "x"
        assert main(["converge", "--graph", str(LESMIS), "--out", str(out),
                     "--stats", "strength", "strength"]) == 2
        assert "'strength' is listed twice" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("plan, key", [
        ({"samplers": [{"kind": "edge_curved"}], "n_chain": 3}, "n_chain"),
        ({"samplers": [{"kind": "edge_curved", "epsilon": 0.5}]}, "epsilon"),
        ({"start_policy": "fixed_list"}, "start_policy"),
    ])
    def test_plan_unknown_key_exit_1(self, tmp_path, capsys, plan, key):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan), encoding="utf-8")
        out = tmp_path / "x"
        assert main(["converge", "--graph", str(LESMIS), "--out", str(out),
                     "--plan", str(path)]) == 1
        assert repr(key) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["start_nodes", "statistics", "samplers"])
    def test_plan_number_for_a_list_exit_1(self, tmp_path, capsys, key):
        plan = write_plan(tmp_path, {key: 3})
        out = tmp_path / "x"
        assert main(["converge", "--graph", str(LESMIS), "--out", str(out),
                     "--plan", plan]) == 1
        assert f"{key} must be a list, got 3" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("plan, what", [
        ({"samplers": ["edge_uniform"]}, "sampler"),
        ([1, 2], "plan"),
    ])
    def test_plan_entry_not_an_object_exit_1(self, tmp_path, capsys, plan, what):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan), encoding="utf-8")
        out = tmp_path / "x"
        assert main(["converge", "--graph", str(LESMIS), "--out", str(out),
                     "--plan", str(path)]) == 1
        assert f"a {what} must be a JSON object" in capsys.readouterr().err
        assert not out.exists()

    def test_plan_string_for_samplers_exit_1(self, tmp_path, capsys):
        plan = write_plan(tmp_path, {"samplers": "edge_uniform"})
        out = tmp_path / "x"
        assert main(["converge", "--graph", str(LESMIS), "--out", str(out),
                     "--plan", plan]) == 1
        assert ("samplers must be a list, got 'edge_uniform'"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_padded_comma_delimited_graph(self, tmp_path):
        f = tmp_path / "padded.csv"
        f.write_text("a, b, 2\nb, c, 1\n", encoding="utf-8")
        out = tmp_path / "x"
        assert main(["converge", "--graph", str(f), "--out", str(out),
                     "--delimiter", ",", "--chains", "2", "--steps", "10"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["node_count"] == 3
        assert manifest["ingest"]["delimiter"] == ","
        assert sorted(r[0] for r in read_csv(out / "backbone.csv")[1:]) == [
            "a", "b", "c"]

    def test_disconnected_graph_exit_1(self, tmp_path):
        f = tmp_path / "two.txt"
        f.write_text("a b\nc d\n", encoding="utf-8")
        assert main(["converge", "--graph", str(f),
                     "--out", str(tmp_path / "x"), "--chains", "2",
                     "--steps", "10"]) == 1
        assert main(["converge", "--graph", str(f),
                     "--out", str(tmp_path / "y"), "--chains", "2",
                     "--steps", "10", "--largest-component"]) == 0


class TestUnderflowingWeights:
    """Weights 1e-300, 1e-300, 1 on a triangle: the product of the two small
    weights underflows to 0, so the weighted curvature of edge a-b is -inf.
    Every command that needs that curvature exits 1 and writes nothing."""

    @pytest.fixture
    def tiny_triangle(self, tmp_path):
        f = tmp_path / "tiny.txt"
        f.write_text("a b 1e-300\nb c 1e-300\na c 1\n", encoding="utf-8")
        return f

    @pytest.mark.parametrize("argv", [
        ["curvature", "--curvature-mode", "weighted"],
        ["sample", "--kind", "edge_curved", "--curvature-mode", "weighted"],
        ["sample", "--kind", "node_mh_curved", "--curvature-mode", "weighted"],
        ["converge", "--curvature-mode", "weighted", "--chains", "2",
         "--steps", "10"],
    ], ids=["curvature", "sample-edge", "sample-mh", "converge"])
    def test_exit_1_without_output(self, tmp_path, tiny_triangle, argv, capsys):
        out = tmp_path / "o"
        assert main([argv[0], "--graph", str(tiny_triangle), "--out", str(out),
                     *argv[1:]]) == 1
        assert not out.exists()
        assert "edge (a, b) is -inf" in capsys.readouterr().err

    def test_restricted_run_names_the_file_labels(self, tmp_path, capsys):
        # dense ids 0 and 1 are x and y in the file, but 0 and 1 of the
        # largest component {a, b, c} are a and b
        f = tmp_path / "pair_tiny.txt"
        f.write_text("x y 1\na b 1e-300\nb c 1e-300\na c 1\n", encoding="utf-8")
        out = tmp_path / "o"
        assert main(["converge", "--graph", str(f), "--out", str(out),
                     "--largest-component", "--curvature-mode", "weighted",
                     "--chains", "2", "--steps", "10"]) == 1
        assert not out.exists()
        assert "edge (a, b) is -inf" in capsys.readouterr().err

    def test_combinatorial_mode_still_runs(self, tmp_path, tiny_triangle):
        assert main(["converge", "--graph", str(tiny_triangle), "--out",
                     str(tmp_path / "o"), "--chains", "2", "--steps", "10"]) == 0


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
        _write_csvs([tmp_path / "new.csv"], header, [columns])
        assert (tmp_path / "new.csv").read_bytes() == csv_reference(
            tmp_path / "ref.csv", header, *columns)

    @pytest.mark.parametrize("column", [
        [0.0, 0.0, -0.0, -0.0, 0.0, -0.0, 0.0],
        [np.nan] * 5 + [np.inf] * 3 + [-np.inf] * 4 + [np.nan] * 2
        + [-np.nan, np.nan] + [1.5] * 2,
        [0.0, 5e-324, 5e-324, 0.0, -5e-324, -0.0, 5e-324],
        # runs of 128 | 100 | 60 | 96 | 1 | 99 rows: the first and fourth
        # end exactly on a 128-row chunk boundary, the second and third
        # cross one
        np.repeat([0.5, 1 / 3, 0.5, -2.0, 1e16, 0.1], [128, 100, 60, 96, 1, 99]),
        [0.1] * 1000,
        np.arange(300) / 7,
        [-0.0],
    ], ids=["signed-zeros", "nan-inf", "subnormal", "chunk-edges", "one-run",
            "all-distinct", "one-row"])
    def test_runs_equal_csv_writer(self, tmp_path, column):
        column = np.array(column, dtype=np.float64)
        columns = (range(1, len(column) + 1), column, column[::-1].copy())
        _write_csvs([tmp_path / "new.csv"], ["n", "x", "y"], [columns])
        assert (tmp_path / "new.csv").read_bytes() == csv_reference(
            tmp_path / "ref.csv", ["n", "x", "y"], *columns)

    def test_no_rows_writes_the_header(self, tmp_path):
        _write_csvs([tmp_path / "new.csv"], ["n", "mse"], [(range(1, 1), np.zeros(0))])
        assert (tmp_path / "new.csv").read_bytes() == b"n,mse\n"

    def test_tab_delimited_labels_with_commas_and_quotes(self, tmp_path):
        graph = tmp_path / "g.tsv"
        graph.write_text('a,b\t"q"\t2.5\n"q"\tc d\t1e-300\nc d\ta,b\t0.1\n'
                         'c d\tx\t1e16\nx\ty""z\n', encoding="utf-8")
        assert main(["curvature", "--graph", str(graph), "--out", str(tmp_path / "o"),
                     "--delimiter", "\t", "--curvature-mode", "weighted"]) == 0
        g, labels = load_edge_list(graph, delimiter="\t")
        cm = compute_curvature_map(g, "weighted")
        for name, header, columns in (
                ("edge_curvature.csv", ["edge_u", "edge_v", "forman"],
                 ([labels[u] for u in g.edges[:, 0].tolist()],
                  [labels[v] for v in g.edges[:, 1].tolist()], cm.edge_values)),
                ("node_curvature.csv", ["node", "forman"],
                 (labels, cm.node_values))):
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


def run_python(*args):
    """A fresh interpreter on ``args``, with this checkout's sources first."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120)


class TestModuleEntryPoints:
    """``python -m curvewalk.cli`` and ``python -m curvewalk`` run the CLI."""

    @staticmethod
    def run_module(module, *args):
        return run_python("-m", module, *args)

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


# numpy 2 imports numpy.ma on the first np.unique call, ~10 ms of set-up
_NUMPY_MA_PROBE = """
import sys
import numpy
if "numpy.ma" in sys.modules:
    print("loaded by numpy")
    raise SystemExit
from curvewalk import load_edge_list
from curvewalk.cli import main
load_edge_list(sys.argv[1])
code = main(["converge", "--graph", sys.argv[1], "--out", sys.argv[2],
             "--chains", "2", "--steps", "20", "--samplers", "edge_curved",
             "node_mh_uniform"])
print(code, "numpy.ma" in sys.modules)
"""


def test_load_and_converge_do_not_import_numpy_ma(tmp_path):
    proc = run_python("-c", _NUMPY_MA_PROBE, str(LESMIS), str(tmp_path / "c"))
    assert proc.returncode == 0, proc.stderr
    if proc.stdout.strip() == "loaded by numpy":
        pytest.skip("this numpy imports numpy.ma with numpy itself")
    assert proc.stdout.split() == ["0", "False"]
