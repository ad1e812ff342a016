import ast
import gc
import importlib
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from swarmphase import cli, io as io_, observables, pipeline, sim


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

    def test_run_derives_epsilon_once_through_the_module_attribute(self, tmp_path, capsys, monkeypatch):
        calls = []
        derive = observables.interaction_epsilon

        def counting(positions, mode="all_pairs"):
            calls.append(mode)
            return derive(positions, mode)

        # a tracer wraps the module attribute, so the pipeline must look it up there
        monkeypatch.setattr(observables, "interaction_epsilon", counting)
        assert cli.main([*small_run_args(tmp_path / "out"), "--epsilon-mode", "nearest_neighbor"]) == 0
        assert calls == ["nearest_neighbor"]
        summary = (tmp_path / "out" / "summary.txt").read_text()
        assert "epsilon_mode: nearest_neighbor\n" in summary

    @pytest.mark.parametrize("mode", observables.EPSILON_MODES)
    def test_coincident_agents_fail_at_epsilon(self, tmp_path, capsys, mode):
        traj = tmp_path / "coincident.csv"
        traj.write_text("".join(f"{t},0.0,0.0\n" * 3 for t in range(1, 31)))
        out_dir = tmp_path / "out"
        argv = ["analyze", "--input", str(traj), "--min-len", "2", "--epsilon-mode", mode, "--out", str(out_dir)]
        assert cli.main(argv) == 1
        # the radius is derived before the matching, so no low-confidence warning comes first
        assert capsys.readouterr().err == (
            f"swarmphase: error: observables: epsilon: 0 with epsilon_mode {mode!r}; "
            "each agent coincides with another in every frame\n"
        )
        assert not out_dir.exists()

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

    def test_repeated_config_key_fails(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("scenario = speed-switch\nn_agents = 10\nn_agents = 12\n")
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == "swarmphase: error: config line 3: duplicate key 'n_agents'\n"
        assert not (tmp_path / "out").exists()

    def test_missing_config_file_is_named(self, tmp_path, capsys):
        missing = tmp_path / "missing.cfg"
        assert cli.main(["run", "--config", str(missing), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            f"swarmphase: error: config: [Errno 2] No such file or directory: {str(missing)!r}\n"
        )
        assert not (tmp_path / "out").exists()

    def test_undecodable_config_file_is_named(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"\xff")
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            "swarmphase: error: config: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"
        )
        assert not (tmp_path / "out").exists()

    SIMULATE = ["simulate", "--scenario", "speed-switch", "--n-agents", "4", "--n-steps", "100"]

    @pytest.mark.parametrize("args", [["--out", ""], ["--config", "run.cfg"]], ids=["flag", "config-line"])
    def test_empty_out_is_rejected(self, tmp_path, capsys, monkeypatch, args):
        # both used to write every artifact into the current directory
        (tmp_path / "run.cfg").write_text("out =\n")
        monkeypatch.chdir(tmp_path)
        assert cli.main([*self.SIMULATE, *args]) == 1
        assert capsys.readouterr().err == "swarmphase: error: out: must not be empty\n"
        assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]

    def test_empty_output_variable_writes_to_the_default_directory(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(pipeline.OUTPUT_DIR_ENV, "")
        monkeypatch.chdir(tmp_path)
        assert cli.main(self.SIMULATE) == 0
        assert [p.name for p in tmp_path.iterdir()] == ["swarmphase-out"]
        assert sorted(p.name for p in (tmp_path / "swarmphase-out").iterdir()) == [
            "trajectory.csv", "trajectory_unwrapped.csv",
        ]

    def test_output_path_that_is_a_file_fails_before_simulating(self, tmp_path, capsys, monkeypatch):
        (tmp_path / "afile").write_text("")
        monkeypatch.chdir(tmp_path)
        argv = ["simulate", "--scenario", "speed-switch", "--n-agents", "4", "--n-steps", "100", "--out", "afile"]
        monkeypatch.setattr(pipeline, "simulate", lambda params: pytest.fail("simulated before the check"))
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == "swarmphase: error: out: 'afile' exists and is not a directory\n"
        assert [p.name for p in tmp_path.iterdir()] == ["afile"]
        assert (tmp_path / "afile").read_text() == ""

    @pytest.mark.parametrize("out", ["afile/sub", "afile/sub/deeper"])
    def test_output_path_below_a_file_fails_before_loading(self, tmp_path, capsys, monkeypatch, out):
        (tmp_path / "afile").write_text("")
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(pipeline.io_, "load_trajectory_csv", lambda path: pytest.fail("loaded before the check"))
        assert cli.main(["analyze", "--input", "x.csv", "--out", out]) == 1
        assert capsys.readouterr().err == "swarmphase: error: out: 'afile' exists and is not a directory\n"
        assert [p.name for p in tmp_path.iterdir()] == ["afile"]


# Today's 19 config keys, in declaration order; a renamed key fails here.
CONFIG_KEYS = [
    "scenario", "input", "seed", "xi1", "xi2", "epsilon_mode", "k", "dmax",
    "threshold", "min_len", "merge_tol", "out", "n_agents", "n_steps",
    "half_width", "half_height", "dt", "canonicalize", "dump_correspondence",
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
        ],
    )
    def test_input_rejects_simulator_settings(self, key, value):
        config = pipeline.PipelineConfig(input_path="x.csv", **{key: value})
        with pytest.raises(pipeline.ConfigError, match=f"^{key}: "):
            config.validate()
        config = pipeline.PipelineConfig(scenario="split-rejoin", **{key: value})
        config.validate()


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_cli_rows():
    """First cell -> second cell of each table row in README's CLI reference."""
    section = README.read_text().split("\n## CLI reference\n", 1)[1].split("\n## ", 1)[0]
    cells = (line.strip("|").split("|") for line in section.splitlines() if line.startswith("| "))
    return {row[0].strip(): row[1].strip() for row in cells}


def flag(key):
    return "--" + key.replace("_", "-")


class TestReadmeCliReference:
    def test_every_setting_has_a_flag_row(self):
        listed = set(re.findall(r"`(--[a-z0-9-]+)`", " ".join(readme_cli_rows())))
        assert {flag(key) for key in pipeline.SETTINGS} <= listed

    @pytest.mark.parametrize("command,needs_input", [("simulate", False), ("isomap", True)])
    def test_reads_row_matches_the_unread_table(self, command, needs_input):
        skipped = {"scenario", "input", "out", *pipeline._UNREAD[command]}
        if needs_input:
            skipped |= {"seed", *pipeline._SCENARIO_OVERRIDES}
        expected = [flag(key) for key in pipeline.SETTINGS if key not in skipped]
        assert re.findall(r"`(--[a-z0-9-]+)`", readme_cli_rows()[f"`{command}`"]) == expected


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

    # the analysed track decides whether matching is periodic
    @pytest.mark.parametrize("flag", ["--periodic-matching", "--no-periodic-matching"])
    def test_periodic_matching_flag_is_gone(self, tmp_path, capsys, flag):
        argv = ["run", "--scenario", "speed-switch", flag, "--out", str(tmp_path / "out")]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    # every stage reads the unwrapped track when there is one
    @pytest.mark.parametrize("flag", ["--prefer-unwrapped", "--no-prefer-unwrapped"])
    def test_prefer_unwrapped_flag_is_gone(self, tmp_path, capsys, flag):
        argv = ["run", "--scenario", "speed-switch", flag, "--out", str(tmp_path / "out")]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_prefer_unwrapped_config_key_is_gone(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"scenario = speed-switch\nprefer_unwrapped = no\nout = {tmp_path / 'out'}\n")
        assert cli.main(["run", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == "swarmphase: error: unknown config key 'prefer_unwrapped'\n"
        assert not (tmp_path / "out").exists()

    def test_periodic_matching_config_key_is_gone(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"scenario = speed-switch\nperiodic_matching = on\nout = {tmp_path / 'out'}\n")
        assert cli.main(["run", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == "swarmphase: error: unknown config key 'periodic_matching'\n"
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


class TestNonFiniteSettingsAreRejected:
    SCENARIO = ["run", "--scenario", "speed-switch", "--n-agents", "12", "--n-steps", "110"]

    @pytest.mark.parametrize(
        "key,raw,message",
        [
            ("xi1", "nan", "xi1: must be finite"),
            ("xi2", "nan", "xi2: must be finite"),
            ("merge_tol", "nan", "merge_tol: must be finite"),
            ("merge_tol", "inf", "merge_tol: must be finite"),
            ("half_width", "nan", "half_width: must be finite"),
            ("half_height", "inf", "half_height: must be finite"),
            ("dt", "inf", "dt: must be finite"),
            ("seed", "-1", "seed: must be non-negative"),
            # rejected by the range checks before, with the same messages
            ("threshold", "nan", "threshold: must lie in (0, 1)"),
            ("xi2", "inf", "xi1, xi2: weights must sum to at most 1"),
            ("dt", "-inf", "dt: must be positive"),
        ],
    )
    def test_rejected_by_key_name(self, tmp_path, capsys, key, raw, message):
        config = pipeline.config_from_sources({"scenario": "speed-switch", key: raw})
        with pytest.raises(pipeline.ConfigError, match=f"^{re.escape(message)}$"):
            config.validate()
        out_dir = tmp_path / "out"
        flag = "--" + key.replace("_", "-")
        assert cli.main([*self.SCENARIO, f"{flag}={raw}", "--out", str(out_dir)]) == 1
        assert capsys.readouterr().err == f"swarmphase: error: {message}\n"
        assert not out_dir.exists()

    def test_config_file_nan_is_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("scenario = speed-switch\nn_agents = 12\nn_steps = 110\nxi1 = nan\n")
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == "swarmphase: error: xi1: must be finite\n"
        assert not (tmp_path / "out").exists()

    def test_input_keeps_the_scenario_only_message(self, tmp_path, capsys):
        argv = ["analyze", "--input", "x.csv", "--seed", "-1", "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == (
            "swarmphase: error: seed: applies only to a simulated scenario, not to an input file\n"
        )
        assert not (tmp_path / "out").exists()


def isomap_names(out):
    """The name in front of each Isomap's warnings, in the order a run issues
    them: each segment's (none has fewer than 3 steps here), then the whole run's."""
    rows = [line.split(",") for line in (out / "segments.csv").read_text().splitlines()[1:]]
    return [f"segment {start}-{end}" for start, end, *_ in rows] + ["full"]


class TestWarningsOnStderr:
    def test_manifold_warning_is_printed_by_name(self, tmp_path, capsys):
        argv = [
            "run", "--scenario", "speed-switch", "--n-agents", "120",
            "--half-width", "1.25", "--half-height", "0.75", "--dt", "2.0",
            "--threshold", "1e-12", "--seed", "6", "--out", str(tmp_path / "out"),
        ]
        shown = warnings.showwarning
        assert cli.main(argv) == 0
        # one line per Isomap, each segment's and then the whole run's, named
        names = isomap_names(tmp_path / "out")
        assert len(names) == len(list((tmp_path / "out").glob("residual_*.csv")))
        assert capsys.readouterr().err.splitlines() == [
            f"swarmphase: warning: ManifoldWarning: {name}: no dimension reaches residual 1e-12; reporting the maximum tried"
            for name in names
        ]
        assert warnings.showwarning is shown

    def test_every_repeated_warning_is_printed(self, tmp_path, capsys):
        # no Isomap reaches the threshold, so the whole-run one and each
        # segment's raise the same text from the same line: one line each,
        # told apart by the Isomap's name
        out = tmp_path / "out"
        assert cli.main([*small_run_args(out), "--threshold", "1e-12"]) == 0
        names = isomap_names(out)
        assert len(names) == len(list(out.glob("residual_*.csv"))) == 4
        assert capsys.readouterr().err.splitlines() == [
            f"swarmphase: warning: ManifoldWarning: {name}: no dimension reaches residual 1e-12; reporting the maximum tried"
            for name in names
        ]

    def test_low_confidence_warning_is_printed_by_name(self, tmp_path, capsys):
        frames = sim.simulate(sim.scenario_speed_switch(n_agents=10, n_steps=105, seed=3)).unwrapped.copy()
        # every agent of frame 61 within a few thousandths of their centre
        frames[60] = frames[60].mean(axis=0) + 1e-3 * np.arange(10)[:, None]
        traj = tmp_path / "collapse.csv"
        io_.save_trajectory_csv(traj, frames)
        assert cli.main(["analyze", "--input", str(traj), "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err.splitlines() == [
            "swarmphase: warning: LowConfidenceMatchWarning: step 60: only 2 of 10 agents matched without conflicts",
            "swarmphase: warning: LowConfidenceMatchWarning: step 61: only 1 of 10 agents matched without conflicts",
        ]


def uniform_track(path, n_agents, n_frames, bound):
    """A CSV of agents at uniform random positions in [-bound, bound]; the first field above 1e140, if any."""
    positions = np.random.default_rng(0).uniform(-bound, bound, size=(n_frames, n_agents, 2))
    io_.save_trajectory_csv(path, positions)
    rows = positions.reshape(-1, 2)
    huge = np.flatnonzero((np.abs(rows) > io_.MAX_COORDINATE).any(axis=1))
    if huge.size == 0:
        return None
    line = int(huge[0])
    x, y = rows[line]
    return line + 1, io_.format_float(x if abs(x) > io_.MAX_COORDINATE else y)


class TestHugeCoordinates:
    @pytest.mark.parametrize("n_agents, n_frames, bound", [(12, 30, 1e160), (60, 600, 1e150)], ids=["1e160", "1e150"])
    def test_rejected_at_load_by_line(self, tmp_path, capsys, n_agents, n_frames, bound):
        # without the limit these ran on to overflow warnings, then scipy's "p too
        # large" or "array must not contain infs or NaNs" from a later stage
        line, field = uniform_track(tmp_path / "huge.csv", n_agents, n_frames, bound)
        argv = ["analyze", "--input", str(tmp_path / "huge.csv"), "--min-len", "2", "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"swarmphase: error: load: line {line}: field '{field}' exceeds 1e140 in magnitude"
        ]
        assert not (tmp_path / "out").exists()

    def test_limit_runs_to_the_end(self, tmp_path, capsys):
        assert uniform_track(tmp_path / "big.csv", 60, 600, 1e140) is None
        argv = ["analyze", "--input", str(tmp_path / "big.csv"), "--min-len", "2", "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 0
        # random positions match poorly and segment finely; nothing overflows
        kinds = {line.split(":")[2].strip() for line in capsys.readouterr().err.splitlines()}
        assert kinds == {"SegmentationWarning", "LowConfidenceMatchWarning"}


    @pytest.mark.parametrize(
        "args, line",
        [
            (["simulate", "--dt", "1e140"], "frame 21: coordinate 1.0311119589286705e+140"),
            (["run", "--dt", "1e300"], "frame 2: coordinate 4.0566393422909265e+298"),
            (["run", "--half-width", "1e150"], "frame 1: coordinate -1e+150"),
        ],
        ids=["simulate-dt-1e140", "run-dt-1e300", "run-half-width-1e150"],
    )
    def test_simulated_run_fails_by_frame(self, tmp_path, capsys, args, line):
        # before the limit, simulate wrote a track that analyze refused, and
        # run went on to overflow warnings and scipy's "p too large"
        command, *settings = args
        argv = [command, "--scenario", "speed-switch", "--n-agents", "10", "--n-steps", "100", *settings]
        assert cli.main([*argv, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.splitlines() == [f"swarmphase: error: sim: {line} exceeds 1e140 in magnitude"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "setting, line",
        [
            (["--half-height", "1e308"], "half_height: the box side 2 * 1e+308 is not finite"),
            (["--half-width", "1e308"], "half_width: the box side 2 * 1e+308 is not finite"),
            (["--dt", "1e308"], "frame 2: coordinate 4.056639342290926e+306 exceeds 1e140 in magnitude"),
        ],
        ids=["half-height-1e308", "half-width-1e308", "dt-1e308"],
    )
    def test_overflow_prints_only_the_error(self, tmp_path, capsys, setting, line):
        # an infinite box side would make every neighbour test NaN, and an
        # overflow inside the step loop must not warn ahead of the limit error
        argv = ["run", "--scenario", "speed-switch", "--n-agents", "10", "--n-steps", "100", *setting]
        assert cli.main([*argv, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.splitlines() == [f"swarmphase: error: sim: {line}"]
        assert not (tmp_path / "out").exists()

    def test_simulated_track_near_the_limit_loads(self, tmp_path, capsys):
        argv = ["simulate", "--scenario", "speed-switch", "--n-agents", "10", "--n-steps", "100", "--dt", "1e139"]
        assert cli.main([*argv, "--out", str(tmp_path)]) == 0
        # the loader rejects a coordinate past the limit, so both files loading is the check
        io_.load_trajectory_csv(tmp_path / "trajectory.csv")
        unwrapped = io_.load_trajectory_csv(tmp_path / "trajectory_unwrapped.csv").wrapped
        assert np.abs(unwrapped).max() > io_.MAX_COORDINATE / 10


@pytest.mark.parametrize("text", ["", "\n\n", "t,x,y\n"], ids=["empty", "blank", "header-only"])
def test_file_without_data_prints_only_the_error(tmp_path, capsys, text):
    (tmp_path / "t.csv").write_text(text)
    assert cli.main(["analyze", "--input", str(tmp_path / "t.csv"), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.splitlines() == ["swarmphase: error: load: trajectory file contains no data rows"]


# Settings a command never reads, by config key; each is rejected unless left at its default.
SIMULATE_UNREAD = [
    "xi1", "xi2", "epsilon_mode", "k", "dmax", "threshold", "min_len", "merge_tol",
    "canonicalize", "dump_correspondence",
]
ISOMAP_UNREAD = ["xi1", "xi2", "epsilon_mode", "min_len", "merge_tol", "dump_correspondence"]
# the ROUTES entry of each key whose value differs from the field's default
NON_DEFAULT = {
    key: (raw, args) for key, _, raw, args, expected in ROUTES if expected != pipeline.SETTINGS[key][0].default
}


@pytest.fixture(scope="module")
def small_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("input") / "input.csv"
    io_.save_trajectory_csv(path, sim.simulate(sim.scenario_speed_switch(n_agents=6, n_steps=105, seed=1)).wrapped)
    return str(path)


def unread_cases():
    for command, keys in (("simulate", SIMULATE_UNREAD), ("isomap", ISOMAP_UNREAD)):
        message = f"the {command} command does not read this setting"
        for key in keys:
            yield pytest.param(command, key, message, id=f"{command}-{key}")


def command_args(command, csv):
    if command == "simulate":
        return ["simulate", "--scenario", "speed-switch", "--n-agents", "10"]
    return [command, "--input", csv]


class TestUnreadSettingsAreRejected:
    @pytest.mark.parametrize("command,key,message", unread_cases())
    def test_flag_names_the_key(self, tmp_path, capsys, small_csv, command, key, message):
        out_dir = tmp_path / "out"
        argv = [*command_args(command, small_csv), *NON_DEFAULT[key][1], "--out", str(out_dir)]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == f"swarmphase: error: {key}: {message}\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize("command,key,message", unread_cases())
    def test_config_line_names_the_key(self, tmp_path, capsys, small_csv, command, key, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {NON_DEFAULT[key][0]}\n")
        out_dir = tmp_path / "out"
        argv = [*command_args(command, small_csv), "--config", str(cfg), "--out", str(out_dir)]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == f"swarmphase: error: {key}: {message}\n"
        assert not out_dir.exists()

    def test_first_key_in_declaration_order_is_named(self, tmp_path, capsys):
        argv = [
            "simulate", "--scenario", "speed-switch", "--n-agents", "10",
            "--dump-correspondence", "--min-len", "4", "--k", "3", "--out", str(tmp_path / "out"),
        ]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == "swarmphase: error: k: the simulate command does not read this setting\n"
        assert not (tmp_path / "out").exists()

    def test_python_api_rejects_before_writing(self, tmp_path, small_csv):
        out = str(tmp_path / "out")
        with pytest.raises(pipeline.ConfigError, match="^merge_tol: the simulate command does not read this setting$"):
            pipeline.run_simulate(pipeline.PipelineConfig(scenario="speed-switch", merge_tol=0.5, out_dir=out))
        with pytest.raises(pipeline.ConfigError, match="^xi2: the isomap command does not read this setting$"):
            pipeline.run_isomap(pipeline.PipelineConfig(input_path=small_csv, xi2=0.5, out_dir=out))
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command,keys",
        [("simulate", SIMULATE_UNREAD), ("isomap", ISOMAP_UNREAD)],
    )
    def test_explicit_defaults_are_accepted(self, tmp_path, capsys, small_csv, command, keys):
        cfg = tmp_path / "defaults.cfg"
        cfg.write_text("".join(f"{key} = {pipeline.SETTINGS[key][0].default}\n" for key in keys))
        base = command_args(command, small_csv)
        assert cli.main([*base, "--out", str(tmp_path / "plain")]) == 0
        assert cli.main([*base, "--config", str(cfg), "--out", str(tmp_path / "explicit")]) == 0
        capsys.readouterr()
        names = sorted(p.name for p in (tmp_path / "plain").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "explicit").iterdir())
        for name in names:
            assert (tmp_path / "plain" / name).read_bytes() == (tmp_path / "explicit" / name).read_bytes()

    def test_configs_rejected_before_keep_their_message(self, tmp_path, capsys):
        # the simulate command's own check comes first
        argv = ["simulate", "--input", "x.csv", "--k", "3", "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == "swarmphase: error: scenario: the simulate command needs a scenario name\n"
        # validate's checks come first too; isomap never reads min_len
        argv = ["isomap", "--input", "x.csv", "--min-len", "5", "--xi1", "nan", "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == "swarmphase: error: xi1: must be finite\n"
        assert not (tmp_path / "out").exists()


SRC = Path(cli.__file__).resolve().parents[1]


def python_process(args, cwd):
    """Run ``python args`` in a new interpreter that imports swarmphase from this tree."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True)


def tree_bytes(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


class TestExitPolicy:
    """The CLI process freezes its heap at exit, so that the shutdown collections skip it."""

    def test_heap_is_frozen_only_at_exit(self, tmp_path):
        # the probe is registered first, so it runs after the CLI's hook
        script = (
            "import atexit, gc, sys\n"
            "from swarmphase import cli\n"
            "atexit.register(lambda: print('at exit:', gc.get_freeze_count() > 0))\n"
            "code = cli.main(sys.argv[1:])\n"
            "print('after main:', gc.get_freeze_count())\n"
            "sys.exit(code)\n"
        )
        args = ["simulate", "--scenario", "speed-switch", "--n-agents", "5", "--n-steps", "100", "--out", "out"]
        done = python_process(["-c", script, *args], tmp_path)
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout.splitlines()[-2:] == ["after main: 0", "at exit: True"]

    def test_in_process_main_leaves_the_collector_alone(self, tmp_path, capsys):
        assert cli.main(small_run_args(tmp_path)) == 0
        assert gc.get_freeze_count() == 0

    @pytest.mark.parametrize(
        "args, code",
        [
            (["--threshold", "1e-12"], 0),  # prints a ManifoldWarning line
            (["--dt", "1e300"], 1),
        ],
        ids=["warning", "error"],
    )
    def test_process_matches_in_process_main(self, tmp_path, capsys, monkeypatch, args, code):
        argv = ["run", "--scenario", "speed-switch", "--n-agents", "12", "--n-steps", "110", *args, "--out", "out"]
        for name in ("process", "in-process"):
            (tmp_path / name).mkdir()
        done = python_process(["-m", "swarmphase.cli", *argv], tmp_path / "process")
        monkeypatch.chdir(tmp_path / "in-process")
        assert cli.main(argv) == code
        captured = capsys.readouterr()
        assert (done.stdout, done.stderr, done.returncode) == (captured.out, captured.err, code)
        assert captured.err.startswith("swarmphase: ")
        assert tree_bytes(tmp_path / "process") == tree_bytes(tmp_path / "in-process")


def test_every_traced_name_resolves():
    """Each (module, attribute) the benchmark's tracer wraps still names a callable; a missing one stops the traced run."""
    source = (Path(__file__).resolve().parent.parent / "perfbench" / "traced_cli.py").read_text()
    table = next(
        node.value
        for node in ast.parse(source).body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["WRAPPED"]
    )
    wrapped = ast.literal_eval(table)
    assert len(wrapped) >= 20
    for module_name, attr, _ in wrapped:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), (module_name, attr)


class TestImports:
    """Only the nearest-neighbour interaction radius loads scipy.spatial."""

    SCRIPT = (
        "import sys\n"
        "from swarmphase import cli\n"
        "code = cli.main(sys.argv[1:])\n"
        "print(code, *(name in sys.modules for name in ('scipy.spatial', 'scipy.special')))\n"
    )

    def test_default_commands_leave_scipy_spatial_and_special_unloaded(self, tmp_path):
        runs = [
            ["run", "--scenario", "speed-switch", "--n-agents", "12", "--n-steps", "110", "--out", "sim"],
            ["analyze", "--input", "sim/trajectory_unwrapped.csv", "--out", "analyzed"],
            ["isomap", "--input", "sim/trajectory_unwrapped.csv", "--out", "iso"],
            ["analyze", "--input", "sim/trajectory_unwrapped.csv", "--epsilon-mode", "nearest_neighbor", "--out", "nn"],
        ]
        outputs = [python_process(["-c", self.SCRIPT, *args], tmp_path) for args in runs]
        # the last stdout line is the probe's, after the run's own report
        assert [(done.stdout.splitlines()[-1], done.stderr) for done in outputs] == [
            ("0 False False", ""),
            ("0 False False", ""),
            ("0 False False", ""),
            ("0 True True", ""),
        ]
        # the nearest-neighbour mode still gives the library's radius
        track = io_.load_trajectory_csv(tmp_path / "sim" / "trajectory_unwrapped.csv").analysis_track()
        epsilon = observables.interaction_epsilon(track, "nearest_neighbor")
        assert f"epsilon: {io_.format_float(epsilon)}" in (tmp_path / "nn" / "summary.txt").read_text()
