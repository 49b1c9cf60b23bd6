import hashlib
import json
import os

import numpy as np
import pytest
from click.testing import CliRunner

from frdecomp.cli import DEFAULT_CONFIG, ConfigError, RunConfig, main


def run(args):
    return CliRunner().invoke(main, args, catch_exceptions=False)


def dir_digest(path):
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        h.update(name.encode())
        with open(os.path.join(path, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


class TestConfig:
    def test_roundtrip_lossless(self, tmp_path):
        cfg = RunConfig({"seed": 7, "backend": {"n": 12}})
        path = tmp_path / "config.json"
        cfg.to_file(path)
        again = RunConfig.from_file(path)
        assert again.data == cfg.data
        assert again["backend"]["n"] == 12
        assert again["backend"]["operator"] == DEFAULT_CONFIG["backend"]["operator"]

    def test_deep_merge_preserves_defaults(self):
        cfg = RunConfig({"tolerances": {"range_rel": 1e-10}})
        assert cfg["tolerances"]["range_rel"] == 1e-10
        assert cfg["tolerances"]["psd_rel"] == DEFAULT_CONFIG["tolerances"]["psd_rel"]

    @pytest.mark.parametrize("data, key", [
        ({"sampler": {"sample_cout": 5}}, "sampler.sample_cout"),
        ({"sed": 5}, "sed"),
        ({"backend": {"kind": "torus", "lattice": {"N": 8}}}, "backend.lattice"),
    ])
    def test_unknown_key_rejected(self, data, key):
        with pytest.raises(ConfigError, match=f"unknown config key {key}$"):
            RunConfig(data)

    def test_section_must_be_object(self):
        with pytest.raises(ConfigError, match="sampler must be an object"):
            RunConfig({"sampler": 5})

    def test_retired_keys_dropped_with_notes(self):
        cfg = RunConfig({"weights": {"gamma": 1.0},
                         "sampler": {"deflate_zero_mode": True, "sample_count": 5}})
        assert cfg.data == RunConfig({"sampler": {"sample_count": 5}}).data
        assert [note.split()[3] for note in cfg.notes] == [
            "weights.gamma", "sampler.deflate_zero_mode"]
        with pytest.raises(ConfigError, match="weights.gamma must be 1"):
            RunConfig({"weights": {"gamma": 2.0}})


class TestWeightsCommand:
    def test_default_passes(self, tmp_path):
        out = tmp_path / "w"
        res = run(["--out", str(out), "weights"])
        assert res.exit_code == 0, res.output
        assert "PASS spectral_weights.check_decomposition_identity[discrete]" in res.output
        for name in ("weights_identity.csv", "decay_constants.csv",
                     "approximation.csv", "coefficients.csv"):
            assert (out / name).exists()

    def test_zero_tolerance_fails(self, tmp_path):
        res = run(["--out", str(tmp_path / "f"), "--tolerance-scale", "0",
                   "weights"])
        assert res.exit_code == 1
        assert "FAILED contracts" in res.output

    def test_lambda_grid_override(self, tmp_path):
        out = tmp_path / "w"
        res = run(["--out", str(out), "weights", "--lambda-grid", "0.3,0.9"])
        assert res.exit_code == 0
        body = (out / "weights_identity.csv").read_text().splitlines()
        lams = {line.split(",")[0] for line in body[1:]}
        assert lams == {"0.3", "0.9"}


class TestDecomposeCommand:
    def test_graph_blocks(self, tmp_path):
        out = tmp_path / "d"
        cfgfile = tmp_path / "cfg.json"
        RunConfig({"scales": {"j_min": 0, "j_max": 6}}).to_file(cfgfile)
        res = run(["--config", str(cfgfile), "--out", str(out), "decompose"])
        assert res.exit_code == 0, res.output
        blocks = [n for n in os.listdir(out) if n.endswith(".bin")]
        assert len(blocks) == 7            # j in [0, 6]
        sidecar = json.loads((out / "block_j+03.json").read_text())
        assert sidecar["j"] == 3
        summary = (out / "decompose_summary.csv").read_text().splitlines()
        assert summary[0] == "j,range_bound,min_eig,sup_norm"
        assert len(summary) == 8

    def test_torus_kernels(self, tmp_path):
        out = tmp_path / "t"
        cfgfile = tmp_path / "cfg.json"
        RunConfig({"backend": {"kind": "torus", "d": 2, "N": 64,
                               "lattice_m2": 0.0, "t_list": [8.0, 16.0]}}
                  ).to_file(cfgfile)
        res = run(["--config", str(cfgfile), "--out", str(out), "decompose"])
        assert res.exit_code == 0, res.output
        assert "lattice_kernels.lattice_kernel[t=8.0].range" in res.output
        # the dumped kernel must have an exactly vanishing tail beyond range 8
        from frdecomp.fileio import read_kernel_binary
        from frdecomp.lattice import torus_linf_distance
        import numpy as np
        header, kernel = read_kernel_binary(out / "kernel_t8.0.bin",
                                            shape=(64, 64))
        assert header[:3].tolist() == [2.0, 64.0, 8.0]
        dist = torus_linf_distance(64, 2)
        assert np.max(np.abs(kernel[dist > 8])) <= 1e-12 * np.max(np.abs(kernel))
        assert (out / "kernel_t8.0.csv").exists()
        decay = (out / "decay_fit.csv").read_text().splitlines()
        assert decay[0] == "t,l_x,l_y,max_abs,fitted_exponent"
        assert len(decay) == 3

    def test_rerun_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            res = run(["--out", str(out), "decompose"])
            assert res.exit_code == 0
        assert dir_digest(out1) == dir_digest(out2)


class TestReconstructCommand:
    def test_graph_reconstruction(self, tmp_path):
        out = tmp_path / "r"
        res = run(["--out", str(out), "reconstruct"])
        assert res.exit_code == 0, res.output
        report = json.loads((out / "reconstruction.json").read_text())
        assert report["max_rel_error"] <= 1e-5

    def test_graph_above_256_vertices(self, tmp_path):
        out = tmp_path / "r"
        cfgfile = tmp_path / "cfg.json"
        RunConfig({"backend": {"n": 300, "m2": 1.0}}).to_file(cfgfile)
        res = run(["--config", str(cfgfile), "--out", str(out), "reconstruct"])
        assert res.exit_code == 0, res.output
        report = json.loads((out / "reconstruction.json").read_text())
        assert report["max_rel_error"] <= 1e-5

    def test_torus_reconstruction(self, tmp_path):
        out = tmp_path / "r"
        cfgfile = tmp_path / "cfg.json"
        RunConfig({"backend": {"kind": "torus", "d": 2, "N": 8,
                               "lattice_m2": 0.5}}).to_file(cfgfile)
        res = run(["--config", str(cfgfile), "--out", str(out), "reconstruct"])
        assert res.exit_code == 0, res.output
        report = json.loads((out / "reconstruction.json").read_text())
        assert report["max_rel_error"] <= 1e-5

    @pytest.mark.parametrize("scales, t_max, exit_code", [
        ({}, 512.0, 0),
        ({"j_max": 6}, 64.0, 1),     # the tail above t = 64 exceeds the tolerance
    ])
    def test_torus_plan_from_config(self, tmp_path, scales, t_max, exit_code):
        out = tmp_path / "r"
        cfgfile = tmp_path / "cfg.json"
        RunConfig({"backend": {"kind": "torus", "d": 2, "N": 8},
                   "scales": scales}).to_file(cfgfile)
        res = run(["--config", str(cfgfile), "--out", str(out), "reconstruct"])
        assert res.exit_code == exit_code, res.output
        assert json.loads((out / "reconstruction.json").read_text())["t_max"] == t_max


class TestSampleCommand:
    def test_graph_sampling(self, tmp_path):
        out = tmp_path / "s"
        cfgfile = tmp_path / "cfg.json"
        RunConfig({"sampler": {"sample_count": 4000}}).to_file(cfgfile)
        res = run(["--config", str(cfgfile), "--out", str(out), "sample"])
        assert res.exit_code == 0, res.output
        assert (out / "samples.bin").exists()
        header = (out / "covariance_report.csv").read_text().splitlines()[0]
        assert header == "x,y,empirical,oracle,z"

    def test_seed_changes_samples_not_verdict(self, tmp_path):
        outs = []
        for seed in ("11", "12"):
            out = tmp_path / f"s{seed}"
            cfgfile = tmp_path / f"cfg{seed}.json"
            RunConfig({"sampler": {"sample_count": 4000}}).to_file(cfgfile)
            res = run(["--config", str(cfgfile), "--seed", seed,
                       "--out", str(out), "sample"])
            assert res.exit_code == 0, res.output
            outs.append((out / "samples.bin").read_bytes())
        assert outs[0] != outs[1]

    def test_torus_sampling(self, tmp_path):
        out = tmp_path / "ts"
        cfgfile = tmp_path / "cfg.json"
        RunConfig({"backend": {"kind": "torus", "d": 2, "N": 8,
                               "lattice_m2": 0.5},
                   "sampler": {"sample_count": 4000}}).to_file(cfgfile)
        res = run(["--config", str(cfgfile), "--out", str(out), "sample"])
        assert res.exit_code == 0, res.output
        assert (out / "samples.bin").exists()

    def test_massless_cycle_builds_each_block_once(self, tmp_path, monkeypatch):
        import frdecomp.graphs as graphs
        built = []
        original = graphs.scale_block

        def counting_scale_block(op, family, j, *args, **kwargs):
            built.append(j)
            return original(op, family, j, *args, **kwargs)

        monkeypatch.setattr(graphs, "scale_block", counting_scale_block)
        cfgfile = tmp_path / "cfg.json"
        RunConfig({"backend": {"operator": "laplacian"},
                   "scales": {"j_min": -2, "j_max": 6},
                   "sampler": {"sample_count": 4000}}).to_file(cfgfile)
        res = run(["--config", str(cfgfile), "--out", str(tmp_path / "ml"), "sample"])
        assert res.exit_code == 0, res.output
        assert built == list(range(-2, 7))

    def test_graph_from_edgelist_file(self, tmp_path):
        edges = tmp_path / "edges.txt"
        edges.write_text("".join(f"{i} {(i + 1) % 10} 1.0\n" for i in range(10)))
        cfgfile = tmp_path / "cfg.json"
        RunConfig({"backend": {"graph": "file", "edges_file": str(edges),
                               "operator": "resolvent", "m2": 1.0}}
                  ).to_file(cfgfile)
        out = tmp_path / "gf"
        res = run(["--config", str(cfgfile), "--out", str(out), "reconstruct"])
        assert res.exit_code == 0, res.output

    def test_manifest_written(self, tmp_path):
        import json
        out = tmp_path / "m"
        res = run(["--out", str(out), "reconstruct"])
        assert res.exit_code == 0
        manifest = json.loads((out / "report_manifest.json").read_text())
        assert manifest["format_version"] == 1
        assert manifest["command"] == "reconstruct"
        assert "reconstruction.json" in manifest["artifacts"]

    def test_manifest_lists_only_this_command(self, tmp_path):
        out = tmp_path / "m"
        assert run(["--out", str(out), "weights"]).exit_code == 0
        res = run(["--out", str(out), "reconstruct"])
        assert res.exit_code == 0, res.output
        manifest = json.loads((out / "report_manifest.json").read_text())
        assert manifest["artifacts"] == ["reconstruction.json"]
        assert (out / "weights_identity.csv").exists()

    def test_torus_plan_from_library(self, tmp_path, mollifier, norm1):
        from frdecomp.lattice import PLAN_T_MIN, LatticeSpec, build_symbol_table
        from frdecomp.weights import DiscreteWeightFamily, default_scale_plan
        cfgfile = tmp_path / "cfg.json"
        RunConfig({"backend": {"kind": "torus", "d": 2, "N": 8},
                   "sampler": {"sample_count": 1000}}).to_file(cfgfile)
        out = tmp_path / "tp"
        res = run(["--config", str(cfgfile), "--out", str(out), "sample"])
        assert res.exit_code == 0, res.output
        header = np.fromfile(out / "samples.bin", dtype=np.float64)[:5]
        table = build_symbol_table(LatticeSpec(d=2, a=np.eye(2), m2=0.5, N=8))
        fam = DiscreteWeightFamily(mollifier, norm1, B=table.B)
        plan = default_scale_plan(fam, table.spectral_gap(), PLAN_T_MIN)
        assert tuple(header[2:4]) == (plan.j_min, plan.j_max)

    def test_sample_and_reconstruct_share_plan(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        RunConfig({"scales": {"L_ratio": 3.0},
                   "sampler": {"sample_count": 1000}}).to_file(cfgfile)
        for command in ("sample", "reconstruct"):
            res = run(["--config", str(cfgfile), "--out", str(tmp_path / command), command])
            assert res.exit_code == 0, res.output
        header = np.fromfile(tmp_path / "sample" / "samples.bin", dtype=np.float64)[:5]
        report = json.loads((tmp_path / "reconstruct" / "reconstruction.json").read_text())
        assert tuple(header[2:4]) == (report["j_min"], report["j_max"])

    def test_massless_torus_sampling(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        RunConfig({"backend": {"kind": "torus", "d": 2, "N": 8,
                               "lattice_m2": 0.0},
                   "sampler": {"sample_count": 4000}}).to_file(cfgfile)
        res = run(["--config", str(cfgfile), "--out", str(tmp_path / "ml"), "sample"])
        assert res.exit_code == 0, res.output
        verdicts = [line for line in res.output.splitlines()
                    if line.startswith(("PASS", "FAIL"))]
        assert verdicts and all(line.startswith("PASS") for line in verdicts)


class TestRejectedInput:
    def assert_one_fail_line(self, res, command, error):
        assert res.exit_code == 1
        lines = res.output.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"FAIL {command} {error}: ")
        assert "Traceback" not in res.output

    def test_uneven_degree_graph_sample(self, tmp_path):
        # a 6-cycle plus one chord: vertex measure is not constant
        edges = tmp_path / "edges.txt"
        edges.write_text("".join(f"{i} {(i + 1) % 6} 1.0\n" for i in range(6))
                         + "0 3 1.0\n")
        cfgfile = tmp_path / "cfg.json"
        RunConfig({"backend": {"graph": "file", "edges_file": str(edges)},
                   "sampler": {"sample_count": 2000}}).to_file(cfgfile)
        res = run(["--config", str(cfgfile), "--out", str(tmp_path / "c"), "sample"])
        self.assert_one_fail_line(res, "sample", "GraphError")

    @pytest.mark.parametrize("text, command", [
        pytest.param(text, "sample", id=text) for text in (
            json.dumps({"sampler": {"sample_cout": 5}}),
            json.dumps({"weights": {"gamma": 2.0}}),
            json.dumps([]),
            '{"seed": 7,')
    ] + [
        pytest.param(json.dumps(data), command, id=f"{json.dumps(data)} {command}")
        for data, command in (
            ({"backend": {"kind": "Graph"}}, "reconstruct"),
            ({"backend": {"kind": "tours"}}, "sample"),
            ({"backend": {"graph": "ring"}}, "sample"),
            ({"scales": {"j_min": 3}}, "sample"),
            ({"scales": {"j_max": -5}}, "sample"),
            ({"scales": {"L_ratio": 1.0}}, "reconstruct"),
            ({"sampler": {"sample_count": 0}}, "sample"),
            ({"sampler": {"z_bound": "x"}}, "sample"),
            ({"sampler": {"z_bound": float("inf")}}, "sample"),
            ({"sampler": {"sample_count": 1000, "dump_replicates": -1}}, "sample"),
            ({"scales": {"target_tail_rel": 1e-40}}, "reconstruct"),
            ({"backend": {"kind": "torus"}, "scales": {"target_tail_rel": 1e-40}},
             "reconstruct"),
            ({"backend": {"kind": "torus"}, "scales": {"nodes_per_block": 2}},
             "reconstruct"))
    ])
    def test_bad_config_fails_before_work(self, tmp_path, text, command):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(text)
        out = tmp_path / "never"
        res = run(["--config", str(cfgfile), "--out", str(out), command])
        self.assert_one_fail_line(res, command, "ConfigError")
        assert not out.exists()

    def test_retired_keys_run_with_notes(self, tmp_path):
        plain, retired = tmp_path / "plain.json", tmp_path / "retired.json"
        plain.write_text(json.dumps({"backend": {"n": 8}}))
        retired.write_text(json.dumps({"backend": {"n": 8}, "weights": {"gamma": 1},
                                       "sampler": {"deflate_zero_mode": True}}))
        a = run(["--config", str(plain), "--out", str(tmp_path / "a"), "reconstruct"])
        b = run(["--config", str(retired), "--out", str(tmp_path / "b"), "reconstruct"])
        assert a.exit_code == 0 and b.exit_code == 0, b.output
        notes = [line for line in b.output.splitlines() if line.startswith("NOTE ")]
        assert len(notes) == 2
        assert b.output.splitlines()[2:] == a.output.splitlines()
        assert dir_digest(tmp_path / "a") == dir_digest(tmp_path / "b")

    @pytest.mark.parametrize("command", ["sample", "reconstruct"])
    def test_torus_size_not_power_of_two(self, tmp_path, command):
        cfgfile = tmp_path / "cfg.json"
        RunConfig({"backend": {"kind": "torus", "N": 12}}).to_file(cfgfile)
        res = run(["--config", str(cfgfile), "--out", str(tmp_path / "n"), command])
        self.assert_one_fail_line(res, command, "LatticeError")
