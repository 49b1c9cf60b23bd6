import hashlib
import json
import os
import tracemalloc

import numpy as np
import pytest
from click.testing import CliRunner

from frdecomp import cli, fileio, sampler
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
        assert (cfg["tolerances"]["reconstruction_rel"]
                == DEFAULT_CONFIG["tolerances"]["reconstruction_rel"])

    @pytest.mark.parametrize("data, key", [
        ({"sampler": {"sample_cout": 5}}, "sampler.sample_cout"),
        ({"sed": 5}, "sed"),
        ({"backend": {"kind": "torus", "lattice": {"N": 8}}}, "backend.lattice"),
    ])
    def test_unknown_key_rejected(self, data, key):
        with pytest.raises(ConfigError, match=f"unknown config key {key}$"):
            RunConfig(data)

    @pytest.mark.parametrize("data, message", [
        ({"backend": {"n": True}}, "backend.n must be an integer, got True"),
        ({"scales": {"L_ratio": False}},
         "scales.L_ratio must be a finite number, got False"),
        ({"backend": {"operator": 1}}, "backend.operator must be a string, got 1"),
        ({"scales": {"j_min": 0.5}}, "scales.j_min must be an integer or null"),
        ({"backend": {"edges_file": 3}}, "backend.edges_file must be a string or null"),
        ({"sampler": {"z_bound": float("nan")}},
         "sampler.z_bound must be a finite number or null"),
        ({"scales": {"target_tail_rel": float("nan")}},
         "scales.target_tail_rel must be a finite number, got nan"),
        ({"scales": {"target_tail_rel": float("inf")}},
         "scales.target_tail_rel must be a finite number, got inf"),
        ({"tolerances": {"range_rel": -float("inf")}},
         "tolerances.range_rel must be a finite number, got -inf"),
        ({"backend": {"a": [[float("inf"), 0.0], [0.0, 1.0]]}},
         "backend.a must be a list of equal-length lists of finite numbers or null"),
        # ints beyond the float range are not finite numbers either
        ({"scales": {"L_ratio": 10**400}}, "scales.L_ratio must be a finite number"),
    ])
    def test_value_of_wrong_json_type_rejected(self, data, message):
        with pytest.raises(ConfigError, match=f"config key {message}"):
            RunConfig(data)

    def test_values_of_the_default_json_type_accepted(self):
        data = {"scales": {"L_ratio": 3, "j_min": -1, "j_max": None},
                "backend": {"edges_file": "edges.txt"}, "sampler": {"z_bound": 5}}
        assert RunConfig(data)["scales"]["L_ratio"] == 3

    def test_section_must_be_object(self):
        with pytest.raises(ConfigError, match="sampler must be an object"):
            RunConfig({"sampler": 5})


class TestWeightsCommand:
    def test_default_passes(self, tmp_path):
        out = tmp_path / "w"
        res = run(["--out", str(out), "weights"])
        assert res.exit_code == 0, res.output
        assert "PASS spectral_weights.check_decomposition_identity[discrete]" in res.output
        # the oracle check is bounded by tolerances.oracle_equivalence itself
        oracle, = [line for line in res.output.splitlines() if "[oracle@" in line]
        assert oracle.startswith("PASS ") and oracle.endswith(" tolerance=1e-09")
        for name in ("weights_identity.csv", "decay_constants.csv",
                     "approximation.csv", "coefficients.csv"):
            assert (out / name).exists()

    def test_zero_tolerance_fails(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"tolerances": {"wave_identity": -1}}))
        res = run(["--config", str(cfgfile), "--out", str(tmp_path / "f"), "weights"])
        assert res.exit_code == 1
        assert "FAIL spectral_weights.wave_identity " in res.output
        assert res.output.endswith("FAILED contracts: spectral_weights.wave_identity\n")

    def test_lambda_grid_override(self, tmp_path):
        out = tmp_path / "w"
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"weights": {"lambda_grid": [0.3, 0.9]}}))
        res = run(["--config", str(cfgfile), "--out", str(out), "weights"])
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

    def test_default_killed_graph_passes_psd(self, tmp_path):
        # the top blocks j = 8, 9 carry roundoff negatives, held to their
        # series' own roundoff bound
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"backend": {"operator": "killed"}}))
        res = run(["--config", str(cfgfile), "--out", str(tmp_path / "k"), "decompose"])
        assert res.exit_code == 0, res.output
        for j in (8, 9):
            assert f"PASS graph_decomposition.scale_block[j={j}].psd " in res.output

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
        # each kernel is written once, as .bin
        assert not any(name.startswith("kernel_t") and name.endswith(".csv")
                       for name in os.listdir(out))
        decay = (out / "decay_fit.csv").read_text().splitlines()
        assert decay[0] == "t,l_x,l_y,max_abs,fitted_exponent"
        assert len(decay) == 3

    def test_torus_transforms_each_kernel_once(self, tmp_path, monkeypatch):
        # the decay fit differences the kernels already built: one inverse
        # transform per t_list entry, whatever the decay orders
        calls = []
        ifftn = np.fft.ifftn

        def counted_ifftn(*args, **kwargs):
            calls.append(args[0].shape)
            return ifftn(*args, **kwargs)

        monkeypatch.setattr(np.fft, "ifftn", counted_ifftn)
        cfgfile = tmp_path / "cfg.json"
        RunConfig({"backend": {"kind": "torus", "N": 16, "t_list": [2.0, 3.5],
                               "decay_orders": [[0, 0], [1, 0]]}}).to_file(cfgfile)
        res = run(["--config", str(cfgfile), "--out", str(tmp_path / "t"), "decompose"])
        assert res.exit_code == 0, res.output
        assert len(calls) == 2

    @pytest.mark.parametrize("backend, header", [
        ({}, [0.0, 16.0, 2.0, 1.0, 3.0]),
        ({"n": 8, "operator": "laplacian"}, [0.0, 8.0, 2.0, np.nan, 2.0])])
    def test_block_header_carries_m2_and_B(self, tmp_path, backend, header):
        # header (0, n, L^j, m2, B); m2 is NaN for a laplacian
        from frdecomp.fileio import read_kernel_binary
        cfgfile = tmp_path / "cfg.json"
        RunConfig({"backend": backend,
                   "scales": {"j_min": 1, "j_max": 1}}).to_file(cfgfile)
        res = run(["--config", str(cfgfile), "--out", str(tmp_path / "h"), "decompose"])
        assert res.exit_code == 0, res.output
        got, _ = read_kernel_binary(tmp_path / "h" / "block_j+01.bin")
        np.testing.assert_array_equal(got, header)

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

    def test_two_vertex_graph(self, tmp_path):
        out = tmp_path / "r"
        cfgfile = tmp_path / "cfg.json"
        RunConfig({"backend": {"graph": "two_vertex"}}).to_file(cfgfile)
        res = run(["--config", str(cfgfile), "--out", str(out), "reconstruct"])
        assert res.exit_code == 0, res.output
        assert res.output.startswith("PASS graph_decomposition.reconstruct_green."
                                     "max_rel_error measured=")
        # 2.16e-12 with the default plan (j = 1..7)
        report = json.loads((out / "reconstruction.json").read_text())
        assert 0.0 < report["max_rel_error"] <= 1e-11 and report["j_max"] == 7

    @pytest.mark.parametrize("scales, j_max, exit_code", [
        ({}, 9, 0),
        ({"j_max": 6}, 6, 1),     # the tail above t = 64 exceeds the tolerance
    ])
    def test_torus_plan_from_config(self, tmp_path, scales, j_max, exit_code):
        out = tmp_path / "r"
        cfgfile = tmp_path / "cfg.json"
        RunConfig({"backend": {"kind": "torus", "d": 2, "N": 8},
                   "scales": scales}).to_file(cfgfile)
        res = run(["--config", str(cfgfile), "--out", str(out), "reconstruct"])
        assert res.exit_code == exit_code, res.output
        assert json.loads((out / "reconstruction.json").read_text())["j_max"] == j_max

    @pytest.mark.parametrize("backend", [{}, {"kind": "torus", "N": 8}])
    def test_one_report_on_both_backends(self, tmp_path, backend):
        out = tmp_path / "r"
        cfgfile = tmp_path / "cfg.json"
        RunConfig({"backend": backend}).to_file(cfgfile)
        res = run(["--config", str(cfgfile), "--out", str(out), "reconstruct"])
        assert res.exit_code == 0, res.output
        report = json.loads((out / "reconstruction.json").read_text())
        assert sorted(report) == ["deflated", "format_version", "j_max", "j_min",
                                  "max_rel_error", "tail_bound"]
        assert 0.0 < report["tail_bound"] <= 1e-7


class TestSampleCommand:
    @pytest.mark.parametrize("chunk_rows", [None, 10])
    @pytest.mark.parametrize("n", [1, 7, 300])
    def test_upper_triangle_chunks(self, monkeypatch, n, chunk_rows):
        # the chunks concatenate to the np.triu_indices columns and gathers,
        # each at most max(CSV_CHUNK_ROWS, n) rows long
        if chunk_rows is not None:
            monkeypatch.setattr(fileio, "CSV_CHUNK_ROWS", chunk_rows)
        rng = np.random.default_rng(n)
        arrays = [rng.standard_normal((n, n)) for _ in range(3)]
        chunks = list(cli._upper_triangle_chunks(arrays))
        assert all(len(c[0]) <= max(fileio.CSV_CHUNK_ROWS, n) for c in chunks)
        x, y = np.triu_indices(n)
        expected = [x, y] + [a[x, y] for a in arrays]
        for got, want in zip(zip(*chunks), expected):
            joined = np.concatenate(got)
            assert joined.dtype == want.dtype and np.array_equal(joined, want)

    def test_graph_report_built_per_chunk(self, tmp_path):
        # the report of a 1024-vertex graph: the writer's peak is about one
        # chunk, not the 21 MB of five whole columns of the upper triangle
        n = 1024
        rng = np.random.default_rng(3)
        arrays = [rng.standard_normal((n, n)) for _ in range(3)]
        tracemalloc.start()
        try:
            fileio.write_chunked_csv(tmp_path / "r.csv", ["x", "y", "empirical",
                                                         "oracle", "z"],
                                     cli._upper_triangle_chunks(arrays))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20, peak

    @pytest.mark.parametrize("backend, rows", [({"n": 12}, 78),
                                               ({"kind": "torus", "d": 2, "N": 8}, 64)])
    def test_default_z_bound_of_report_rows(self, tmp_path, backend, rows):
        cfgfile = tmp_path / "cfg.json"
        RunConfig({"backend": backend,
                   "sampler": {"sample_count": 1000}}).to_file(cfgfile)
        out = tmp_path / "z"
        res = run(["--config", str(cfgfile), "--out", str(out), "sample"])
        assert res.exit_code == 0, res.output
        assert len((out / "covariance_report.csv").read_text().splitlines()) == rows + 1
        assert res.output.splitlines()[0].endswith(
            f"tolerance={sampler.default_z_bound(rows):.6g}")
        assert sampler.default_z_bound(rows) == np.sqrt(2.0 * np.log(2.0 * rows)) + 1.0

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
        # one row per lag, in the flat index order of the torus
        lines = (out / "covariance_report.csv").read_text().splitlines()
        assert lines[0] == "lag,empirical,oracle,z"
        assert [int(line.split(",")[0]) for line in lines[1:]] == list(range(64))

    def test_massless_cycle_sample_builds_no_block(self, tmp_path, monkeypatch):
        # the sampler draws in the operator's eigenbasis: no block, no recurrence
        import frdecomp.graphs as graphs

        def refuse(*args):
            raise AssertionError("block path called")

        monkeypatch.setattr(graphs, "scale_blocks", refuse)
        monkeypatch.setattr(graphs, "chebyshev_apply", refuse)
        cfgfile = tmp_path / "cfg.json"
        RunConfig({"backend": {"operator": "laplacian"},
                   "scales": {"j_min": -2, "j_max": 6},
                   "sampler": {"sample_count": 4000}}).to_file(cfgfile)
        res = run(["--config", str(cfgfile), "--out", str(tmp_path / "ml"), "sample"])
        assert res.exit_code == 0, res.output

    @pytest.mark.parametrize("operator", ["resolvent", "laplacian"])
    def test_uneven_degree_graph_sample(self, tmp_path, operator):
        # a 6-cycle plus one chord: vertex measure is not constant, and the
        # field is checked against mean(mu) Lambda^{-1} D^{-1}
        edges = tmp_path / "edges.txt"
        edges.write_text("".join(f"{i} {(i + 1) % 6} 1.0\n" for i in range(6))
                         + "0 3 1.0\n")
        cfgfile = tmp_path / "cfg.json"
        RunConfig({"backend": {"graph": "file", "edges_file": str(edges),
                               "operator": operator},
                   "sampler": {"sample_count": 2000}}).to_file(cfgfile)
        res = run(["--config", str(cfgfile), "--out", str(tmp_path / "c"), "sample"])
        assert res.exit_code == 0, res.output
        assert res.output.startswith("PASS gff_sampler.covariance_report.max_abs_z")

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
        from frdecomp.lattice import LatticeSpec, build_symbol_table
        from frdecomp.weights import DiscreteWeightFamily, default_scale_plan, spectral_gap
        cfgfile = tmp_path / "cfg.json"
        RunConfig({"backend": {"kind": "torus", "d": 2, "N": 8},
                   "sampler": {"sample_count": 1000}}).to_file(cfgfile)
        out = tmp_path / "tp"
        res = run(["--config", str(cfgfile), "--out", str(out), "sample"])
        assert res.exit_code == 0, res.output
        header = np.fromfile(out / "samples.bin", dtype=np.float64)[:5]
        table = build_symbol_table(LatticeSpec(d=2, a=np.eye(2), m2=0.5, N=8))
        fam = DiscreteWeightFamily(mollifier, norm1, B=table.B)
        plan = default_scale_plan(fam, spectral_gap(table))
        assert tuple(header[2:4]) == (plan.j_min, plan.j_max)

    @pytest.mark.parametrize("backend", [{}, {"kind": "torus", "N": 8}])
    def test_default_plan_starts_at_one(self, tmp_path, backend):
        cfgfile = tmp_path / "cfg.json"
        RunConfig({"backend": backend,
                   "sampler": {"sample_count": 1000}}).to_file(cfgfile)
        res = run(["--config", str(cfgfile), "--out", str(tmp_path / "s"), "sample"])
        assert res.exit_code == 0, res.output
        header = np.fromfile(tmp_path / "s" / "samples.bin", dtype=np.float64)[:5]
        assert header[2] == 1.0

    def test_j_min_override_keeps_identity_blocks(self, tmp_path):
        # scales.j_min = -2 plans the degree-0 blocks j = -2, -1, 0 of their own
        cfgfile = tmp_path / "cfg.json"
        RunConfig({"scales": {"j_min": -2},
                   "sampler": {"sample_count": 1000}}).to_file(cfgfile)
        res = run(["--config", str(cfgfile), "--out", str(tmp_path / "s"), "sample"])
        assert res.exit_code == 0, res.output
        header = np.fromfile(tmp_path / "s" / "samples.bin", dtype=np.float64)[:5]
        assert header[2] == -2.0
        res = run(["--config", str(cfgfile), "--out", str(tmp_path / "d"), "decompose"])
        assert res.exit_code == 0, res.output
        assert {f"block_j{j:+03d}.bin" for j in (-2, -1, 0, 1)} <= set(
            os.listdir(tmp_path / "d"))

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


# Malformed edge-list files; a config's "TMP" is the directory they are in.
BAD_EDGE_FILES = {"two_fields.txt": "0 1 1.0\n1 2\n",
                  "vertex_not_int.txt": "0 1 1.0\n1 x 1.0\n",
                  "comments_only.txt": "# x y mu_xy\n\n# no edge yet\n",
                  "nan_weight.txt": "0 1 1.0\n1 2 nan\n2 0 1.0\n",
                  "inf_weight.txt": "0 1 1.0\n1 2 inf\n2 0 1.0\n",
                  # finite weights whose vertex measure overflows
                  "mu_overflow.txt": "0 1 1e308\n1 2 1e308\n2 0 1.0\n",
                  # bytes that are not UTF-8 (written as latin-1)
                  "not_utf8.txt": "0 1 1.0\n1 2 \xff\xfe\n"}


class TestRejectedInput:
    def assert_one_fail_line(self, res, command, error):
        assert res.exit_code == 1
        lines = res.output.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"FAIL {command} {error}: ")
        assert "Traceback" not in res.output

    @pytest.mark.parametrize("text, command, error", [
        pytest.param(text, "sample", "ConfigError", id=text) for text in (
            json.dumps({"sampler": {"sample_cout": 5}}),
            json.dumps({"weights": {"gamma": 2.0}}),
            json.dumps([]),
            '{"seed": 7,')
    ] + [
        pytest.param(json.dumps(data), command, "ConfigError",
                     id=f"{json.dumps(data)} {command}")
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
            ({"backend": {"n": 16.9}}, "reconstruct"),
            # json reads NaN and Infinity; a NaN tail target would stop the
            # plan at t = 4 and fail max_rel_error after all the work
            ({"scales": {"target_tail_rel": float("nan")}}, "reconstruct"),
            ({"scales": {"target_tail_rel": float("inf")}}, "sample"),
            ({"tolerances": {"reconstruction_rel": float("nan")}}, "reconstruct"),
            ({"tolerances": {"identity_discrete": float("inf")}}, "weights"),
            ({"backend": {"n": "16"}}, "sample"),
            ({"scales": {"j_max": 6.7}}, "reconstruct"),
            ({"sampler": {"sample_count": 1000.9}}, "sample"),
            ({"seed": 12345.6}, "sample"),
            ({"backend": {"kind": "torus", "N": 8.5}}, "sample"),
            ({"backend": {"m2": "x"}}, "reconstruct"),
            ({"backend": {"kind": "torus", "lattice_m2": "x"}}, "reconstruct"),
            ({"tolerances": {"reconstruction_rel": "x"}}, "reconstruct"),
            ({"weights": {"t_min": 5.0, "t_max": 1.0}}, "weights"),
            ({"weights": {"t_min": 0.0}}, "weights"),
            ({"weights": {"coefficient_dump_t": -1.0}}, "weights"),
            # series of 1e12 or more coefficients
            ({"weights": {"t_max": 1e15}}, "weights"),
            ({"weights": {"coefficient_dump_t": 1e15}}, "weights"),
            ({"scales": {"L_ratio": 1e6, "j_max": 3}}, "reconstruct"),
            ({"backend": {"kind": "torus"}, "scales": {"L_ratio": 1e7, "j_max": 2}},
             "sample"),
            # a default plan's one block [1, 1e12], and 10^8 degree-0 scales
            ({"scales": {"L_ratio": 1e12}}, "reconstruct"),
            ({"scales": {"j_min": -100000000}}, "reconstruct"),
            # default plans of about 2e6 and 2.5e15 scales
            ({"scales": {"L_ratio": 1.000001}}, "reconstruct"),
            ({"scales": {"L_ratio": 1.000000000000001}}, "reconstruct"),
            ({"backend": {"kind": "torus", "t_list": ["a", 2]}}, "decompose"),
            ({"backend": {"kind": "torus", "t_list": [0.0, 2.0]}}, "decompose"),
            ({"backend": {"kind": "torus", "t_list": 2.0}}, "decompose"),
            ({"backend": {"kind": "torus", "a": [[1, 0], [0]]}}, "decompose"),
            ({"backend": {"kind": "torus", "decay_orders": [[0]]}}, "decompose"),
            # one value twice, 2 and 2.0 alike
            ({"backend": {"kind": "torus", "N": 8, "t_list": [2.0, 2.0]}}, "decompose"),
            ({"backend": {"kind": "torus", "N": 8, "t_list": [2, 3.5, 2.0]}},
             "decompose"))
    ] + [
        # a range floor(t) that reaches the far side of the torus, refused
        # before the first kernel is written
        pytest.param(json.dumps({"backend": {"kind": "torus", "N": 8,
                                             "t_list": [2.0, 5.0]}}),
                     "decompose", "WrapAroundError", id="t_list=[2.0, 5.0]"),
        # differences of order 1100 overflow float64 (order 1000 stays finite);
        # the fit is refused before the first kernel is written
        pytest.param(json.dumps({"backend": {"kind": "torus",
                                             "decay_orders": [[1100, 0]]}}),
                     "decompose", "LatticeError", id="decay_orders=[[1100, 0]]")
    ] + [
        pytest.param(json.dumps({"backend": {"graph": "file", "edges_file": edges}}),
                     command, error, id=f"edges_file={edges} {command}")
        for edges, command, error in (
            (None, "reconstruct", "ConfigError"),
            ("TMP/missing.txt", "sample", "ConfigError"),
            ("TMP/two_fields.txt", "decompose", "GraphError"),
            ("TMP/vertex_not_int.txt", "sample", "GraphError"),
            ("TMP/comments_only.txt", "reconstruct", "GraphError"),
            ("TMP/nan_weight.txt", "decompose", "GraphError"),
            ("TMP/nan_weight.txt", "sample", "GraphError"),
            ("TMP/inf_weight.txt", "reconstruct", "GraphError"),
            ("TMP/inf_weight.txt", "sample", "GraphError"),
            ("TMP/mu_overflow.txt", "reconstruct", "GraphError"),
            ("TMP/not_utf8.txt", "reconstruct", "GraphError"))
    ] + [
        # graphs with no edges
        pytest.param(json.dumps({"backend": {"n": n}}), command, "GraphError",
                     id=f"n={n} {command}")
        for n, command in ((0, "reconstruct"), (0, "decompose"), (-3, "sample"))
    ] + [
        # a mass so small that no plan up to PLAN_T_CAP covers its smallest mode
        pytest.param(json.dumps({"backend": backend}), command, "ConfigError",
                     id=f"{json.dumps({'backend': backend})} {command}")
        for backend in ({"n": 16, "m2": 1e-13},
                        {"kind": "torus", "d": 2, "N": 8, "lattice_m2": 1e-13})
        for command in ("reconstruct", "sample")
    ])
    def test_bad_config_fails_before_work(self, tmp_path, text, command, error):
        for name, body in BAD_EDGE_FILES.items():
            (tmp_path / name).write_text(body, encoding="latin-1")
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(text.replace("TMP", str(tmp_path)))
        out = tmp_path / "never"
        res = run(["--config", str(cfgfile), "--out", str(out), command])
        self.assert_one_fail_line(res, command, error)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["reconstruct", "sample"])
    @pytest.mark.parametrize("data, name", [
        # keys that earlier versions read, each at a value they accepted
        pytest.param({section: {key: value}}, name, id=f"{section}.{key}")
        for section, key, value, name in (
            ("weights", "gamma", 1, "weights.gamma"),
            ("weights", "eps", 1, "weights.eps"),
            ("weights", "nodes_per_octave", 0, "weights.nodes_per_octave"),
            ("weights", "coefficient_dump_t", 8, "weights.coefficient_dump_t"),
            ("sampler", "deflate_zero_mode", True, "sampler.deflate_zero_mode"),
            ("scales", "nodes_per_block", 2, "scales.nodes_per_block"),
            ("tolerances", "psd_rel", 1e-10, "tolerances.psd_rel"),
            # a section DEFAULT_CONFIG lacks is refused as a whole
            ("mollifier", "grid_step", 1e-3, "mollifier"),
            ("mollifier", "x_max", 100, "mollifier"))
    ] + [pytest.param({"mollifier": {}}, "mollifier", id="mollifier")])
    def test_old_keys_refused(self, tmp_path, monkeypatch, data, name, command):
        def refuse(**kwargs):
            raise AssertionError("mollifier built for a refused config")

        monkeypatch.setattr(cli, "build_mollifier", refuse)
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(data))
        out = tmp_path / "never"
        res = run(["--config", str(cfgfile), "--out", str(out), command])
        self.assert_one_fail_line(res, command, "ConfigError")
        assert res.output == f"FAIL {command} ConfigError: unknown config key {name}\n"
        assert not out.exists()

    @pytest.mark.parametrize("weights", [
        pytest.param(weights, id=json.dumps({"weights": weights}))
        for weights in ({"lambda_grid": [5]}, {"lambda_grid": [-1]},
                        {"lambda_grid": [0, 1]}, {"lambda_grid": [0.5, 7]},
                        {"lambda_grid": []}, {"lambda_grid": ["0.5"]})
    ])
    def test_bad_lambda_grid_fails_before_mollifier(self, tmp_path, monkeypatch,
                                                    weights):
        from frdecomp import cli

        def refuse(**kwargs):
            raise AssertionError("mollifier built for a refused lambda grid")

        monkeypatch.setattr(cli, "build_mollifier", refuse)
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"weights": weights}))
        out = tmp_path / "never"
        res = run(["--config", str(cfgfile), "--out", str(out), "weights"])
        self.assert_one_fail_line(res, "weights", "ConfigError")
        assert "0 < lambda <= 4" in res.output
        assert not out.exists()

    def test_lambda_four_accepted(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"weights": {"lambda_grid": [4]}}))
        res = run(["--config", str(cfgfile), "--out", str(tmp_path / "w"), "weights"])
        assert res.exit_code == 0, res.output

    @pytest.mark.parametrize("command", ["decompose", "reconstruct", "sample"])
    def test_oversized_graph_refused_before_eigensolve(self, tmp_path, monkeypatch,
                                                       command):
        def refuse(*args, **kwargs):
            raise AssertionError("eigh run on a graph above the dense limit")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"backend": {"n": 4097}}))
        out = tmp_path / "never"
        res = run(["--config", str(cfgfile), "--out", str(out), command])
        self.assert_one_fail_line(res, command, "GraphError")
        assert res.output == (f"FAIL {command} GraphError: dense graph paths are "
                              "limited to n <= 4096, got n = 4097\n")
        assert not out.exists()

    @pytest.mark.parametrize("backend, command, message", [
        pytest.param({"n": 10**12}, "reconstruct", "dense graph paths are limited to "
                     "n <= 4096, got n = 1000000000000", id="n=1e12 reconstruct"),
        pytest.param({"n": 10**9}, "sample", "dense graph paths are limited to "
                     "n <= 4096, got n = 1000000000", id="n=1e9 sample"),
        # two edges whose largest vertex id asks for 10^12 vertices
        pytest.param({"graph": "file", "edges_file": "far_vertex.txt"}, "reconstruct",
                     "graph has isolated vertices", id="vertex id 1e12 reconstruct")])
    def test_huge_graph_refused_before_building(self, tmp_path, monkeypatch, backend,
                                                command, message):
        from frdecomp import graphs

        def refuse(*args, **kwargs):
            raise AssertionError("arrays built for a graph that is refused")

        monkeypatch.setattr(graphs, "cycle_graph", refuse)
        monkeypatch.setattr(np, "bincount", refuse)
        (tmp_path / "far_vertex.txt").write_text("0 1 1.0\n1 1000000000000 1.0\n")
        if "edges_file" in backend:
            backend = dict(backend, edges_file=str(tmp_path / backend["edges_file"]))
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"backend": backend}))
        out = tmp_path / "never"
        res = run(["--config", str(cfgfile), "--out", str(out), command])
        self.assert_one_fail_line(res, command, "GraphError")
        assert res.output == f"FAIL {command} GraphError: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["reconstruct", "sample"])
    def test_allocation_failure_is_one_fail_line(self, tmp_path, monkeypatch, command):
        from frdecomp import lattice

        class _ArrayMemoryError(MemoryError):
            """Stands in for numpy's subclass, which a failed allocation raises."""

        def exhausted(spec):
            raise _ArrayMemoryError("Unable to allocate 32.0 GiB for an array with "
                                    "shape (65536, 65536) and data type float64")

        monkeypatch.setattr(lattice, "build_symbol_table", exhausted)
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"backend": {"kind": "torus", "N": 65536}}))
        out = tmp_path / "never"
        res = run(["--config", str(cfgfile), "--out", str(out), command])
        self.assert_one_fail_line(res, command, "MemoryError")
        assert res.output == (f"FAIL {command} MemoryError: Unable to allocate 32.0 GiB "
                              "for an array with shape (65536, 65536) and data type "
                              "float64\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["sample", "reconstruct"])
    def test_torus_size_not_power_of_two(self, tmp_path, command):
        cfgfile = tmp_path / "cfg.json"
        RunConfig({"backend": {"kind": "torus", "N": 12}}).to_file(cfgfile)
        res = run(["--config", str(cfgfile), "--out", str(tmp_path / "n"), command])
        self.assert_one_fail_line(res, command, "LatticeError")
