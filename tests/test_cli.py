import numpy as np
import pytest

from swarmphase import cli, io as io_, pipeline, sim


def small_run_args(out_dir, seed=7):
    return [
        "run",
        "--scenario", "speed-switch",
        "--seed", str(seed),
        "--n-agents", "12",
        "--n-steps", "110",
        "--out", str(out_dir),
    ]


class TestPipelineConfig:
    def test_requires_exactly_one_source(self):
        with pytest.raises(pipeline.ConfigError, match="exactly one"):
            pipeline.PipelineConfig().validate()
        with pytest.raises(pipeline.ConfigError, match="exactly one"):
            pipeline.PipelineConfig(scenario="speed-switch", input_path="x.csv").validate()

    @pytest.mark.parametrize(
        "field,value,key",
        [
            ("xi1", -0.1, "xi1"),
            ("xi2", 2.0, "xi2"),
            ("epsilon_mode", "median", "epsilon_mode"),
            ("k", 0, "k"),
            ("d_max", 0, "dmax"),
            ("threshold", 1.5, "threshold"),
            ("min_len", 0, "min_len"),
            ("merge_tol", -1.0, "merge_tol"),
            ("dt", 0.0, "dt"),
        ],
    )
    def test_rejections_name_the_key(self, field, value, key):
        config = pipeline.PipelineConfig(scenario="speed-switch")
        setattr(config, field, value)
        with pytest.raises(pipeline.ConfigError, match=key):
            config.validate()

    def test_config_file_and_cli_precedence(self):
        config = pipeline.config_from_sources(
            {"scenario": "speed-switch", "seed": "3", "k": "9"},
            {"seed": 5},
        )
        assert config.scenario == "speed-switch"
        assert config.seed == 5  # CLI wins
        assert config.k == 9  # file wins over default

    def test_unknown_config_key(self):
        with pytest.raises(pipeline.ConfigError, match="wibble"):
            pipeline.config_from_sources({"wibble": "1"}, None)

    def test_bad_value_names_key(self):
        with pytest.raises(pipeline.ConfigError, match="seed"):
            pipeline.config_from_sources({"seed": "many"}, None)

    def test_env_var_default_out_dir(self, monkeypatch):
        monkeypatch.setenv(pipeline.OUTPUT_DIR_ENV, "/tmp/elsewhere")
        assert str(pipeline.PipelineConfig().resolved_out_dir()) == "/tmp/elsewhere"


class TestRunPipeline:
    def test_speed_switch_artifacts(self, tmp_path):
        config = pipeline.PipelineConfig(
            scenario="speed-switch", seed=7, n_agents=12, n_steps=110, out_dir=str(tmp_path)
        )
        result = pipeline.run_pipeline(config)
        for name in (
            "trajectory",
            "trajectory_unwrapped",
            "observables",
            "distance_image",
            "segments",
            "residual_full",
            "summary",
        ):
            assert result.artifacts[name].exists()
        assert len(result.segmentation.segments) == 3
        labels = result.segmentation.labels
        assert labels[0] == labels[2] != labels[1]
        assert "scenario: speed-switch" in result.summary
        assert "seed: 7" in result.summary

    def test_analyze_loaded_csv(self, tmp_path):
        ds = sim.simulate(sim.scenario_speed_switch(n_agents=8, n_steps=105, seed=1))
        traj = tmp_path / "input.csv"
        io_.save_trajectory_csv(traj, ds.unwrapped)
        config = pipeline.PipelineConfig(input_path=str(traj), out_dir=str(tmp_path / "out"))
        result = pipeline.run_pipeline(config)
        assert result.dataset.n_agents == 8
        assert "input:" in result.summary

    def test_single_frame_input_rejected(self, tmp_path):
        traj = tmp_path / "one.csv"
        traj.write_text("1,0.0,0.0\n1,1.0,1.0\n")
        config = pipeline.PipelineConfig(input_path=str(traj), out_dir=str(tmp_path / "out"))
        with pytest.raises(pipeline.PipelineError, match="need at least 2 frames"):
            pipeline.run_pipeline(config)

    def test_dump_correspondence(self, tmp_path):
        config = pipeline.PipelineConfig(
            scenario="speed-switch",
            seed=0,
            n_agents=6,
            n_steps=105,
            out_dir=str(tmp_path),
            dump_correspondence=True,
        )
        result = pipeline.run_pipeline(config)
        lines = result.artifacts["correspondence"].read_text().splitlines()
        assert lines[0] == "t,source,target,bijective,vx,vy"
        assert len(lines) == 1 + 104 * 6


class TestCliCommands:
    def test_run_writes_artifacts_and_returns_zero(self, tmp_path, capsys):
        assert cli.main(small_run_args(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "segments:" in out
        assert (tmp_path / "summary.txt").exists()

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(small_run_args(out1)) == 0
        assert cli.main(small_run_args(out2)) == 0
        files1 = sorted(p.name for p in out1.iterdir())
        files2 = sorted(p.name for p in out2.iterdir())
        assert files1 == files2
        for name in files1:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_simulate_command(self, tmp_path):
        assert cli.main(
            [
                "simulate",
                "--scenario", "noise-switch",
                "--seed", "3",
                "--n-agents", "9",
                "--n-steps", "104",
                "--out", str(tmp_path),
            ]
        ) == 0
        ds = io_.load_trajectory_csv(tmp_path / "trajectory.csv")
        assert ds.n_agents == 9 and ds.n_frames == 104

    def test_isomap_command(self, tmp_path):
        sim_dir = tmp_path / "sim"
        assert cli.main(
            [
                "simulate",
                "--scenario", "speed-switch",
                "--seed", "2",
                "--n-agents", "8",
                "--n-steps", "102",
                "--out", str(sim_dir),
            ]
        ) == 0
        out_dir = tmp_path / "iso"
        assert cli.main(
            [
                "isomap",
                "--input", str(sim_dir / "trajectory_unwrapped.csv"),
                "--out", str(out_dir),
            ]
        ) == 0
        assert (out_dir / "residual_full.csv").exists()
        assert (out_dir / "embedding_full.csv").exists()
        assert (out_dir / "isomap_summary.txt").read_text().startswith("dstar:")

    def test_analyze_requires_input(self, tmp_path, capsys):
        assert cli.main(["analyze", "--out", str(tmp_path)]) == 1
        assert "input" in capsys.readouterr().err

    def test_single_frame_error_exit_code(self, tmp_path, capsys):
        traj = tmp_path / "one.csv"
        traj.write_text("1,0.0,0.0\n")
        code = cli.main(["run", "--input", str(traj), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "need at least 2 frames" in capsys.readouterr().err

    def test_config_file_driving_a_run(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "scenario = speed-switch\nseed = 4\nn_agents = 10\nn_steps = 106\n"
            f"out = {tmp_path / 'out'}\n"
        )
        assert cli.main(["run", "--config", str(cfg)]) == 0
        assert (tmp_path / "out" / "summary.txt").exists()

    def test_unknown_config_key_fails(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsense = 1\n")
        assert cli.main(["run", "--config", str(cfg)]) == 1
        assert "nonsense" in capsys.readouterr().err


# Today's 21 config keys, in declaration order; a renamed key fails here.
CONFIG_KEYS = [
    "scenario", "input", "seed", "xi1", "xi2", "epsilon_mode", "k", "dmax",
    "threshold", "min_len", "merge_tol", "out", "n_agents", "n_steps",
    "half_width", "half_height", "dt", "canonicalize", "prefer_unwrapped",
    "periodic_matching", "dump_correspondence",
]

# (config key, field, config-file value, CLI args, expected field value);
# each value differs from the field's default, and each bool key has both forms
ROUTES = [
    ("scenario", "scenario", "noise-switch", ["--scenario", "noise-switch"], "noise-switch"),
    ("input", "input_path", "in.csv", ["--input", "in.csv"], "in.csv"),
    ("seed", "seed", "11", ["--seed", "11"], 11),
    ("xi1", "xi1", "0.25", ["--xi1", "0.25"], 0.25),
    ("xi2", "xi2", "0.5", ["--xi2", "0.5"], 0.5),
    ("epsilon_mode", "epsilon_mode", "nearest_neighbor", ["--epsilon-mode", "nearest_neighbor"], "nearest_neighbor"),
    ("k", "k", "5", ["--k", "5"], 5),
    ("dmax", "d_max", "4", ["--dmax", "4"], 4),
    ("threshold", "threshold", "0.2", ["--threshold", "0.2"], 0.2),
    ("min_len", "min_len", "8", ["--min-len", "8"], 8),
    ("merge_tol", "merge_tol", "0.3", ["--merge-tol", "0.3"], 0.3),
    ("out", "out_dir", "elsewhere", ["--out", "elsewhere"], "elsewhere"),
    ("n_agents", "n_agents", "12", ["--n-agents", "12"], 12),
    ("n_steps", "n_steps", "120", ["--n-steps", "120"], 120),
    ("half_width", "half_width", "2.5", ["--half-width", "2.5"], 2.5),
    ("half_height", "half_height", "3.5", ["--half-height", "3.5"], 3.5),
    ("dt", "dt", "0.5", ["--dt", "0.5"], 0.5),
    ("canonicalize", "canonicalize", "off", ["--no-canonicalize"], False),
    ("canonicalize", "canonicalize", "on", ["--canonicalize"], True),
    ("prefer_unwrapped", "prefer_unwrapped", "no", ["--no-prefer-unwrapped"], False),
    ("prefer_unwrapped", "prefer_unwrapped", "yes", ["--prefer-unwrapped"], True),
    ("periodic_matching", "periodic_matching", "true", ["--periodic-matching"], True),
    ("periodic_matching", "periodic_matching", "false", ["--no-periodic-matching"], False),
    ("dump_correspondence", "dump_correspondence", "on", ["--dump-correspondence"], True),
    ("dump_correspondence", "dump_correspondence", "off", ["--no-dump-correspondence"], False),
]


class TestConfigSchema:
    def test_key_set_is_unchanged(self):
        assert list(pipeline.SETTINGS) == CONFIG_KEYS
        assert sorted({route[0] for route in ROUTES}) == sorted(CONFIG_KEYS)

    @pytest.mark.parametrize("key,attr,raw,args,expected", ROUTES)
    def test_file_key_and_cli_flag_agree(self, key, attr, raw, args, expected):
        from_file = pipeline.config_from_sources({key: raw})
        from_cli = cli._config_from_args(cli.build_parser().parse_args(["run", *args]))
        assert getattr(from_file, attr) == expected
        assert getattr(from_cli, attr) == expected
        assert from_file == from_cli

    def test_unknown_scenario_names_the_key(self):
        config = pipeline.config_from_sources({"scenario": "bogus"})
        with pytest.raises(pipeline.ConfigError, match="^scenario: .*'bogus'"):
            config.validate()

    @pytest.mark.parametrize(
        "key,value",
        [
            ("n_agents", 7),
            ("n_steps", 120),
            ("half_width", 3.0),
            ("half_height", 3.0),
            ("dt", 0.5),
            ("periodic_matching", True),
        ],
    )
    def test_input_rejects_simulator_settings(self, key, value):
        config = pipeline.PipelineConfig(input_path="x.csv", **{key: value})
        with pytest.raises(pipeline.ConfigError, match=f"^{key}: "):
            config.validate()
        config = pipeline.PipelineConfig(scenario="split-rejoin", **{key: value})
        config.validate()


class TestFailedRunLeavesNoOutput:
    @pytest.mark.parametrize(
        "args",
        [
            ["isomap", "--input", "{two}"],
            ["run", "--input", "{one}"],
            ["run", "--scenario", "split-rejoin", "--n-agents", "7"],
            ["run", "--scenario", "speed-switch", "--n-steps", "50"],
            ["simulate", "--scenario", "split-rejoin", "--n-agents", "7"],
        ],
        ids=["isomap-2-frames", "run-1-frame", "split-rejoin-odd", "speed-switch-short", "simulate-odd"],
    )
    def test_no_empty_output_directory(self, tmp_path, capsys, args):
        one, two = tmp_path / "one.csv", tmp_path / "two.csv"
        one.write_text("1,0.0,0.0\n1,1.0,1.0\n")
        two.write_text("1,0.0,0.0\n1,1.0,1.0\n2,0.1,0.0\n2,1.1,1.0\n")
        out_dir = tmp_path / "out"
        argv = [a.format(one=one, two=two) for a in args] + ["--out", str(out_dir)]
        assert cli.main(argv) == 1
        assert "swarmphase: error:" in capsys.readouterr().err
        assert not out_dir.exists()


class TestSettingsThatDoNothingAreRejected:
    def test_literal_sigmoid_flag_is_gone(self, tmp_path, capsys):
        argv = ["run", "--scenario", "split-rejoin", "--literal-sigmoid", "--out", str(tmp_path / "out")]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "--literal-sigmoid" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_literal_sigmoid_config_key_is_gone(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"scenario = split-rejoin\nliteral_sigmoid = on\nout = {tmp_path / 'out'}\n")
        assert cli.main(["run", "--config", str(cfg)]) == 1
        assert "unknown config key 'literal_sigmoid'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("seed", ["0", "5"])
    def test_input_rejects_an_explicit_seed(self, tmp_path, capsys, seed):
        ds = sim.simulate(sim.scenario_speed_switch(n_agents=6, n_steps=105, seed=1))
        traj = tmp_path / "input.csv"
        io_.save_trajectory_csv(traj, ds.unwrapped)
        out_dir = tmp_path / "out"
        assert cli.main(["analyze", "--input", str(traj), "--seed", seed, "--out", str(out_dir)]) == 1
        assert capsys.readouterr().err.startswith("swarmphase: error: seed: ")
        assert not out_dir.exists()
        config = pipeline.config_from_sources({"input": str(traj), "seed": seed})
        with pytest.raises(pipeline.ConfigError, match="^seed: "):
            config.validate()

    def test_scenario_seed_defaults_to_zero(self, tmp_path, capsys):
        args = ["run", "--scenario", "speed-switch", "--n-agents", "8", "--n-steps", "105"]
        assert cli.main([*args, "--out", str(tmp_path / "default")]) == 0
        assert cli.main([*args, "--seed", "0", "--out", str(tmp_path / "zero")]) == 0
        for name in ("summary.txt", "trajectory.csv", "observables.csv"):
            default = (tmp_path / "default" / name).read_bytes()
            assert default == (tmp_path / "zero" / name).read_bytes()
        assert b"seed: 0\n" in (tmp_path / "default" / "summary.txt").read_bytes()
