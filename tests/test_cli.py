import contextlib
import io
import json
import math
import re
import shlex
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vecplan.cli import (
    OUTPUT_ROOT_ENV,
    _json_artifact,
    build_parser,
    config_from_dict,
    config_to_dict,
    load_config,
    main,
)
from vecplan.errors import VecplanError
from vecplan.interact import InteractionParams
from vecplan.scene import generate_scenario, save_scenario


README = Path(__file__).resolve().parents[1] / "README.md"


def run(*argv):
    return main(list(argv))


def _readme_block(heading: str, lang: str) -> str:
    """The first ```lang block of the README section under `## heading`."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index(f"\n## {heading}\n"):]
    return section.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


class TestReadme:
    """The README's examples parse as the code reads them, so a removed or
    renamed key, subcommand or flag shows here."""

    def test_configuration_example_parses(self):
        data = json.loads(_readme_block("Configuration", "json"))
        resolved = json.loads(json.dumps(config_to_dict(config_from_dict(data))))
        # every value the example sets is the value a run resolves
        for section, values in data.items():
            got = resolved[section]
            assert ({k: got[k] for k in values} if isinstance(values, dict) else got) == values

    def test_command_line_block_parses(self):
        block = _readme_block("Command line", "sh").replace("\\\n", " ")
        commands = [shlex.split(line, comments=True) for line in block.splitlines()]
        commands = [argv for argv in commands if argv]
        assert [argv[1] for argv in commands] == [
            "generate", "train", "plan", "simulate", "evaluate", "ablate"]
        parser = build_parser()
        for argv in commands:
            assert argv[0] == "vecplan"
            assert parser.parse_args(argv[1:]).command == argv[1]


def tiny_config(tmp_path, **extra):
    """A config small enough for fast CLI runs."""
    data = {
        "seed": 7,
        "output_dir": str(tmp_path / "out"),
        "generator": {"agent_count_range": [1, 3], "mode_count": 3},
        "interact": {"d_model": 8, "d_command": 4},
        "train": {"epochs": 2, "train_scenarios": 6, "val_scenarios": 3},
        "simulator": {"refine_steps": 10},
        "metrics": {"eval_count": 4},
    }
    data.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return path


class TestConfig:
    def test_round_trips_through_dict(self):
        cfg = config_from_dict({"seed": 3, "generator": {"lane_count": 2}})
        data = config_to_dict(cfg)
        assert data["seed"] == 3
        assert data["generator"]["lane_count"] == 2
        assert config_to_dict(config_from_dict(data)) == data

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(Exception, match="unknown config key: sim"):
            config_from_dict({"sim": {}})

    def test_unknown_section_key_rejected(self):
        with pytest.raises(Exception, match="generator.lanes"):
            config_from_dict({"generator": {"lanes": 4}})

    def test_overrides_win_over_file(self, tmp_path):
        path = tiny_config(tmp_path)
        cfg = load_config(str(path), ["generator.lane_count=2"], None, None)
        assert cfg.generator.lane_count == 2
        assert cfg.seed == 7

    def test_seed_and_out_flags_win(self, tmp_path):
        path = tiny_config(tmp_path)
        cfg = load_config(str(path), [], str(tmp_path / "other"), 99)
        assert cfg.seed == 99
        assert cfg.output_dir == str(tmp_path / "other")

    def test_output_root_env_applies_to_relative_dirs(self, tmp_path, monkeypatch):
        monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path / "root"))
        cfg = load_config(None, ["output_dir=exp1"], None, None)
        assert cfg.output_dir == str(tmp_path / "root" / "exp1")

    @pytest.mark.parametrize(
        "override, names",
        [
            ("seed=abc", "seed"),
            ('metrics.ablation_arms=["full"]', "ablation arm must be an object"),
            ("metrics.ablation_arms=[5]", "ablation arm must be an object"),
            ("simulator.refine_steps=-1", "simulator.refine_steps"),
            ("simulator.refine_step_size=0", "simulator.refine_step_size"),
            ("simulator.refine_steps=2.5", "simulator.refine_steps must be an integer"),
            ("simulator.ticks=2.5", "simulator.ticks must be an integer"),
            ("simulator.ticks=true", "simulator.ticks must be an integer"),
            ("seed=3.7", "seed must be an integer"),
            ("seed=false", "seed must be an integer"),
            ("train.epochs=1.5", "train.epochs must be an integer"),
            ("train.train_scenarios=2.5", "train.train_scenarios must be an integer"),
            ("train.val_scenarios=0", "train.val_scenarios must be >= 1"),
            ("train.learning_rate=NaN", "train.learning_rate must be finite"),
            ("train.weight_decay=\"high\"", "train.weight_decay must be a number"),
            ("generator.lane_count=2.5", "generator.lane_count must be an integer"),
            ("generator.min_agent_clearance=NaN", "generator.min_agent_clearance must be finite"),
            ("generator.horizon_dt=Infinity", "generator.horizon_dt must be finite"),
            ("generator.agent_count_range=[1.5,3]", "agent_count_range must be an integer"),
            ("generator.perception_range=[60,NaN]", "generator.perception_range must be finite"),
            ("generator.ego_dims=[4]", "generator.ego_dims must be a pair"),
            # refused by the generator's config, not later by the run or numpy
            ("generator.mode_noise_std=-1", "mode_noise_std must be >= 0"),
            ("generator.min_agent_clearance=-5", "min_agent_clearance must be >= 0"),
            ("generator.agent_confidence_range=[0.5,1.5]", "agent_confidence_range must lie in"),
            ("generator.ego_dims=[0,1]", "ego_dims must be positive"),
            ("generator.lane_change_probability=2", "lane_change_probability must lie in [0, 1]"),
            ("generator.crossing_probability=-1", "crossing_probability must lie in [0, 1]"),
            ("generator.speed_range=[-5,-1]", "speed_range must not be negative"),
            ("generator.agent_speed_range=[-3,-1]", "agent_speed_range must not be negative"),
            ("train.enable_aux_heads=no", "train.enable_aux_heads must be a bool, got 'no'"),
            ("train.shuffle=1", "train.shuffle must be a bool"),
            ("train.scheduler=5", "train.scheduler must be a str"),
            ("train.batch_size=1", "unknown config key: train.batch_size"),
            ("simulator.planner=null", "simulator.planner must be a str"),
            ('metrics.ablation_arms=[{"name": 5}]', "metrics.ablation_arms[0].name must be a str"),
            (
                'metrics.ablation_arms=[{"name": "x"}, {"name": "y", "agent_interaction": "yes"}]',
                "metrics.ablation_arms[1].agent_interaction must be a bool",
            ),
            (
                'metrics.ablation_arms=[{"name": "x", "map_interaction": null}]',
                "metrics.ablation_arms[0].map_interaction must be a bool",
            ),
        ],
    )
    def test_bad_value_is_one_config_error_line(self, tmp_path, capsys, override, names):
        cfg = tiny_config(tmp_path)
        rc = run(
            "simulate", "--config", str(cfg), "--set", override,
            "--scenario", str(tmp_path / "none.json"), "--planner", "refine",
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:config-parse:"), err
        assert names in lines[0]

    def test_non_finite_value_never_reaches_a_json_artifact(self, tmp_path, capsys):
        # generate never trains, so only config parsing stops the NaN
        cfg = tiny_config(tmp_path)
        rc = run("generate", "--config", str(cfg), "--set", "train.learning_rate=NaN")
        assert rc == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:config-parse:"), lines
        assert "train.learning_rate" in lines[0]
        assert not (tmp_path / "out" / "config.resolved.json").exists()
        # and a NaN that got past validation would stop at the writer
        with pytest.raises(VecplanError, match="resolved config"):
            _json_artifact({"learning_rate": float("nan")}, "resolved config")

    @pytest.mark.parametrize("value", ["0", "-1"])
    @pytest.mark.parametrize(
        "command, flag",
        [("generate", "--count"), ("evaluate", "--count"), ("ablate", "--count"),
         ("simulate", "--ticks")],
    )
    def test_count_and_tick_flags_below_one_refused(self, tmp_path, capsys, command, flag, value):
        # refused before any work: no training, no scenes, no file written
        cfg = tiny_config(tmp_path)
        scenario = tmp_path / "scenario.json"
        save_scenario(generate_scenario(0), scenario)
        extra = ["--scenario", str(scenario)] if command == "simulate" else []
        rc = run(command, "--config", str(cfg), flag, value, *extra)
        assert rc == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:config-parse:"), lines
        assert f"{flag} must be >= 1, got {value}" in lines[0]
        assert not (tmp_path / "out").exists()

    def test_missing_config_file(self, tmp_path, capsys):
        rc = run("generate", "--config", str(tmp_path / "nope.json"))
        assert rc == 1
        assert "error:missing-file:" in capsys.readouterr().err


class TestGenerate:
    def test_writes_scenarios_and_echoes_config(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path)
        assert run("generate", "--config", str(cfg), "--count", "3") == 0
        out = tmp_path / "out"
        assert (out / "config.resolved.json").exists()
        files = sorted((out / "scenarios").glob("*.json"))
        assert len(files) == 3

    def test_byte_identical_across_runs(self, tmp_path):
        cfg = tiny_config(tmp_path)
        run("generate", "--config", str(cfg), "--count", "2")
        first = {
            p.name: p.read_bytes() for p in (tmp_path / "out" / "scenarios").glob("*.json")
        }
        run("generate", "--config", str(cfg), "--count", "2")
        second = {
            p.name: p.read_bytes() for p in (tmp_path / "out" / "scenarios").glob("*.json")
        }
        assert first == second

    def test_check_mode_verifies_and_detects_drift(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path)
        run("generate", "--config", str(cfg), "--count", "2")
        assert run("generate", "--config", str(cfg), "--count", "2", "--check") == 0
        victim = next((tmp_path / "out" / "scenarios").glob("*.json"))
        victim.write_text(victim.read_text() + " ")
        rc = run("generate", "--config", str(cfg), "--count", "2", "--check")
        assert rc == 1
        assert "error:drift:" in capsys.readouterr().err


class TestPlanAndEvaluate:
    def test_plan_on_generated_scenarios(self, tmp_path):
        cfg = tiny_config(tmp_path)
        run("generate", "--config", str(cfg), "--count", "2")
        rc = run(
            "plan", "--config", str(cfg),
            "--scenario", str(tmp_path / "out" / "scenarios"),
            "--planner", "refine",
        )
        assert rc == 0
        plans = sorted((tmp_path / "out" / "plans").glob("*.plan.json"))
        assert len(plans) == 2
        payload = json.loads(plans[0].read_text())
        assert len(payload["waypoints"]) == 6
        assert set(payload["breakdown"]) == {"collision", "boundary", "direction", "imitation"}

    def test_missing_scenario_file(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path)
        rc = run("plan", "--config", str(cfg), "--scenario", str(tmp_path / "none.json"))
        assert rc == 1
        assert "error:missing-file:" in capsys.readouterr().err

    def test_evaluate_expert_planner_is_all_zero_l2(self, tmp_path):
        cfg = tiny_config(tmp_path)
        rc = run("evaluate", "--config", str(cfg), "--planner", "expert", "--count", "5")
        assert rc == 0
        report = (tmp_path / "out" / "report.csv").read_text().splitlines()
        values = [float(v) for v in report[1].split(",")]
        assert values[:4] == [0.0, 0.0, 0.0, 0.0]

    def test_evaluate_on_files_matches_generated(self, tmp_path):
        cfg = tiny_config(tmp_path)
        run("generate", "--config", str(cfg), "--count", "4")
        run(
            "evaluate", "--config", str(cfg),
            "--scenario", str(tmp_path / "out" / "scenarios"),
            "--planner", "constant_velocity",
        )
        from_files = (tmp_path / "out" / "report.csv").read_bytes()
        run(
            "evaluate", "--config", str(cfg), "--planner", "constant_velocity",
            "--count", "4",
        )
        assert (tmp_path / "out" / "report.csv").read_bytes() == from_files

    def test_evaluate_rejects_horizons_between_ticks(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path)
        rc = run(
            "evaluate", "--config", str(cfg), "--planner", "constant_velocity",
            "--count", "2", "--set", "generator.horizon_dt=0.7",
        )
        assert rc == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:config-parse:"), lines
        assert "not a whole number of 0.7 s ticks" in lines[0]
        assert not (tmp_path / "out" / "report.csv").exists()

    def test_model_planner_requires_checkpoint(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path)
        rc = run("evaluate", "--config", str(cfg), "--planner", "model", "--count", "2")
        assert rc == 1
        assert "error:config-parse:" in capsys.readouterr().err

    def test_schema_error_category(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path)
        bad = tmp_path / "bad.json"
        bad.write_text("{\"schema_version\": 1}")
        rc = run("plan", "--config", str(cfg), "--scenario", str(bad))
        assert rc == 1
        assert "error:schema:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "path, value, names",
        [
            (("map", 0, "points"), 5, "map[0].points"),
            (("ego", "velocity"), "fast", "ego.velocity"),
            (("agents", 0, "size"), 4.5, "agents[0].size"),
        ],
    )
    def test_malformed_scenario_is_one_schema_line(self, tmp_path, capsys, path, value, names):
        cfg = tiny_config(tmp_path)
        run("generate", "--config", str(cfg), "--count", "1")
        scenario = tmp_path / "out" / "scenarios" / "scenario_0000.json"
        data = json.loads(scenario.read_text())
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        scenario.write_text(json.dumps(data))
        capsys.readouterr()
        rc = run("plan", "--config", str(cfg), "--scenario", str(scenario))
        assert rc == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:schema:"), err
        assert names in lines[0]


    @pytest.mark.parametrize(
        "command",
        [
            ("plan", "--planner", "refine"),
            ("plan", "--planner", "constant_velocity"),
            ("evaluate", "--planner", "constant_velocity"),
        ],
    )
    def test_boundary_of_equal_points_is_one_schema_line(self, tmp_path, capsys, command):
        # a polyline with no non-degenerate segment is refused when the file
        # is read, not later by the first search over it
        cfg = tiny_config(tmp_path)
        run("generate", "--config", str(cfg), "--count", "1")
        scenario = tmp_path / "out" / "scenarios" / "scenario_0000.json"
        data = json.loads(scenario.read_text())
        boundary = next(mv for mv in data["map"] if mv["kind"] == "road_boundary")
        boundary["points"] = [boundary["points"][0]] * len(boundary["points"])
        scenario.write_text(json.dumps(data))
        capsys.readouterr()
        rc = run(*command, "--config", str(cfg), "--scenario", str(scenario))
        assert rc == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:schema:"), lines
        assert "non-degenerate segment" in lines[0]
        assert f"map[{data['map'].index(boundary)}].points" in lines[0]


class TestTrainSimulateAblate:
    def test_train_then_plan_with_checkpoint(self, tmp_path):
        cfg = tiny_config(tmp_path)
        assert run("train", "--config", str(cfg)) == 0
        out = tmp_path / "out"
        assert (out / "checkpoint.txt").exists()
        log_lines = (out / "trainlog.csv").read_text().splitlines()
        assert len(log_lines) == 3  # header + 2 epochs

        run("generate", "--config", str(cfg), "--count", "1")
        rc = run(
            "plan", "--config", str(cfg),
            "--scenario", str(out / "scenarios" / "scenario_0000.json"),
            "--planner", "model",
            "--checkpoint", str(out / "checkpoint.txt"),
        )
        assert rc == 0

    def test_checkpoint_config_mismatch_category(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path)
        run("train", "--config", str(cfg))
        out = tmp_path / "out"
        run("generate", "--config", str(cfg), "--count", "1")
        rc = run(
            "plan", "--config", str(cfg),
            "--set", "interact.d_model=16",
            "--scenario", str(out / "scenarios" / "scenario_0000.json"),
            "--planner", "model",
            "--checkpoint", str(out / "checkpoint.txt"),
        )
        assert rc == 1
        assert "error:checkpoint-mismatch:" in capsys.readouterr().err

    def test_simulate_writes_rollouts_and_traces(self, tmp_path):
        cfg = tiny_config(tmp_path)
        run("generate", "--config", str(cfg), "--count", "2")
        rc = run(
            "simulate", "--config", str(cfg),
            "--scenario", str(tmp_path / "out" / "scenarios"),
            "--planner", "constant_velocity",
        )
        assert rc == 0
        rollouts = sorted((tmp_path / "out" / "rollouts").glob("*.rollout.csv"))
        traces = sorted((tmp_path / "out" / "traces").glob("*.trace.csv"))
        assert len(rollouts) == 2 and len(traces) == 2
        header = rollouts[0].read_text().splitlines()[0]
        assert header.startswith("tick,ego_x,ego_y,ego_heading,collision")
        assert traces[0].read_text().splitlines()[0] == (
            "tick,entity,entity_id,point_index,x,y,heading"
        )

    def test_ablate_two_arms(self, tmp_path, capsys, monkeypatch):
        from vecplan import metrics

        evaluated = []
        original = metrics.plan_metrics

        def recording_plan_metrics(scenarios, plans, ego_dims, *rest):
            evaluated.append((scenarios, plans, ego_dims))
            return original(scenarios, plans, ego_dims, *rest)

        monkeypatch.setattr(metrics, "plan_metrics", recording_plan_metrics)
        cfg = tiny_config(
            tmp_path,
            metrics={
                "eval_count": 3,
                "ablation_arms": [
                    {"name": "full"},
                    {
                        "name": "bare",
                        "collision_constraint": False,
                        "boundary_constraint": False,
                        "direction_constraint": False,
                    },
                ],
            },
        )
        assert run("ablate", "--config", str(cfg), "--count", "3") == 0
        csv_lines = (tmp_path / "out" / "ablation.csv").read_text().splitlines()
        assert len(csv_lines) == 3  # header + 2 arms
        assert csv_lines[1].startswith("full,1,1,1,1,1,")
        assert csv_lines[2].startswith("bare,1,1,0,0,0,")
        text = (tmp_path / "out" / "ablation.txt").read_text()
        assert "full" in text and "bare" in text

        # collisions@3s matches a direct per-tick count over each arm's plans
        printed = [
            int(line.rsplit(" ", 1)[1])
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("arm ")
        ]
        direct = [
            sum(
                any(
                    metrics.collision_ticks([s], metrics.plan_pose_track([p]), ego_dims)[0][
                        : metrics._horizon_tick(3.0, s.horizon_dt, p.horizon)
                    ]
                )
                for s, p in zip(scenarios, plans)
            )
            for scenarios, plans, ego_dims in evaluated
        ]
        assert len(direct) == 2
        assert printed == direct


def _model_files(tmp_path):
    """A tiny config, a scenario file and a checkpoint that fits the config,
    all of which `plan --planner model` accepts."""
    cfg = tiny_config(tmp_path)
    config = load_config(str(cfg), [], None, None)
    scenario = tmp_path / "scenario.json"
    save_scenario(generate_scenario(4, config.generator), scenario)
    checkpoint = tmp_path / "checkpoint.txt"
    InteractionParams.initialize(config.interact, 0).save(checkpoint)
    return cfg, scenario, checkpoint


def _plan_with_model(cfg, scenario, checkpoint, out):
    """Run `plan` in-process; the exit code and the stderr lines."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main([
            "plan", "--config", str(cfg), "--scenario", str(scenario),
            "--planner", "model", "--checkpoint", str(checkpoint), "--out", str(out),
        ])
    return rc, err.getvalue().splitlines()


class TestReadBoundary:
    @pytest.mark.parametrize(
        "target, category",
        [("config", "config-parse"), ("scenario", "schema"), ("checkpoint", "checkpoint-mismatch")],
    )
    def test_non_utf8_file_is_one_error_line(self, tmp_path, target, category):
        files = dict(zip(("config", "scenario", "checkpoint"), _model_files(tmp_path)))
        assert _plan_with_model(*files.values(), tmp_path / "out") == (0, [])
        files[target].write_bytes(b"\xff\xfe" + files[target].read_bytes())
        rc, lines = _plan_with_model(*files.values(), tmp_path / "out")
        assert rc == 1
        assert len(lines) == 1 and lines[0].startswith(f"error:{category}:"), lines
        assert "can't decode" in lines[0]

    @pytest.mark.parametrize(
        "target, category",
        [("config", "config-parse"), ("checkpoint", "checkpoint-mismatch")],
    )
    def test_directory_in_place_of_a_file_is_one_error_line(self, tmp_path, target, category):
        files = dict(zip(("config", "scenario", "checkpoint"), _model_files(tmp_path)))
        files[target] = tmp_path / "a_directory"
        files[target].mkdir()
        rc, lines = _plan_with_model(*files.values(), tmp_path / "out")
        assert rc == 1
        assert len(lines) == 1 and lines[0].startswith(f"error:{category}:"), lines

    def test_directory_named_json_in_scenario_dir_is_one_schema_line(self, tmp_path):
        cfg, scenario, checkpoint = _model_files(tmp_path)
        scenes = tmp_path / "scenes"
        scenes.mkdir()
        scenario.rename(scenes / "a.json")
        (scenes / "b.json").mkdir()
        rc, lines = _plan_with_model(cfg, scenes, checkpoint, tmp_path / "out")
        assert rc == 1
        assert len(lines) == 1 and lines[0].startswith("error:schema:"), lines
        assert "b.json" in lines[0]

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_checkpoint_value_is_refused_at_load(self, tmp_path, value):
        cfg, scenario, checkpoint = _model_files(tmp_path)
        lines = checkpoint.read_text().splitlines()
        row = next(i for i, line in enumerate(lines) if line.startswith("head.b3 ")) + 1
        lines[row] = " ".join([value] + lines[row].split()[1:])
        checkpoint.write_text("\n".join(lines) + "\n")
        rc, err = _plan_with_model(cfg, scenario, checkpoint, tmp_path / "out")
        assert rc == 1
        assert len(err) == 1 and err[0].startswith("error:checkpoint-mismatch:"), err
        assert "non-finite values in tensor head.b3" in err[0]


def _stderr_lines(*argv):
    """Run the CLI in-process; the exit code and every line it would print
    to stderr, warnings included."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main(list(argv))
    return rc, err.getvalue().splitlines() + [str(w.message) for w in caught]


class TestOverflow:
    @pytest.mark.parametrize("learning_rate", ["1e6", "1e30"])
    def test_diverging_training_is_one_divergence_line(self, tmp_path, learning_rate):
        # finite parameters so large that the network overflows: the plan's
        # refusal of non-finite waypoints is reported as a divergence
        rc, lines = _stderr_lines(
            "train", "--out", str(tmp_path / "out"),
            "--set", "train.epochs=3", "--set", "train.train_scenarios=8",
            "--set", "train.val_scenarios=1", "--set", f"train.learning_rate={learning_rate}",
        )
        assert rc == 1
        assert len(lines) == 1, lines
        assert re.fullmatch(
            r"error:divergence: non-finite plan at epoch \d+, scenario seed \d+", lines[0]
        ), lines
        assert not (tmp_path / "out" / "checkpoint.txt").exists()

    @pytest.mark.parametrize("command", ["plan", "evaluate", "simulate"])
    def test_checkpoint_that_overflows_is_one_checkpoint_line(self, tmp_path, command):
        cfg, scenario, checkpoint = _model_files(tmp_path)
        lines = checkpoint.read_text().splitlines()
        row = next(i for i, line in enumerate(lines) if line.startswith("head.b3 ")) + 1
        lines[row] = " ".join(["1e308"] * len(lines[row].split()))
        checkpoint.write_text("\n".join(lines) + "\n")
        rc, err = _stderr_lines(
            command, "--config", str(cfg), "--scenario", str(scenario),
            "--planner", "model", "--checkpoint", str(checkpoint), "--out", str(tmp_path / "out"),
        )
        assert rc == 1
        assert err == ["error:checkpoint-mismatch: the model's parameters give "
                       "non-finite plan waypoints"], err


# JSON values put in place of a valid one: wrong types, non-finite and
# negative numbers
_BAD_JSON_VALUES = ["x", [], {}, None, True, 1.5, math.nan, math.inf, -math.inf, -1, -0.5, -1e3]
_BAD_CHECKPOINT_TOKENS = ["nan", "inf", "-inf", "-1", "1.5", "x", ""]


def _json_nodes(data):
    """(container, key) of every value in a JSON document, breadth first, so
    small indices reach the top-level fields."""
    nodes, queue = [], [data]
    while queue:
        node = queue.pop(0)
        keys = node.keys() if isinstance(node, dict) else range(len(node))
        for key in keys:
            nodes.append((node, key))
            if isinstance(node[key], (dict, list)):
                queue.append(node[key])
    return nodes


def _mutate(payload: bytes, is_json: bool, mutation) -> bytes:
    kind, index, arg = mutation
    if kind == "flip":
        i = index % len(payload)
        return payload[:i] + bytes([payload[i] ^ (1 << arg)]) + payload[i + 1:]
    if kind == "truncate":
        return payload[: index % len(payload)]
    if is_json:
        data = json.loads(payload)
        nodes = _json_nodes(data)
        node, key = nodes[index % len(nodes)]
        node[key] = _BAD_JSON_VALUES[arg % len(_BAD_JSON_VALUES)]
        return json.dumps(data).encode()
    tokens = payload.decode().split(" ")
    tokens[index % len(tokens)] = _BAD_CHECKPOINT_TOKENS[arg % len(_BAD_CHECKPOINT_TOKENS)]
    return " ".join(tokens).encode()


@pytest.fixture(scope="module")
def pristine_files(tmp_path_factory):
    return _model_files(tmp_path_factory.mktemp("fuzz"))


_MUTATIONS = st.one_of(
    st.tuples(st.just("flip"), st.integers(min_value=0, max_value=1 << 20), st.integers(0, 7)),
    st.tuples(st.just("truncate"), st.integers(min_value=0, max_value=1 << 20), st.just(0)),
    st.tuples(st.just("replace"), st.integers(min_value=0, max_value=1 << 20), st.integers(0, 11)),
)
# the error categories each mutated file may be refused with: a config whose
# network section changed no longer fits the checkpoint
_CATEGORIES = (("config-parse", "checkpoint-mismatch"), ("schema",), ("checkpoint-mismatch",))


@settings(max_examples=600)
@given(target=st.sampled_from([0, 1, 2]), mutation=_MUTATIONS)
def test_mutated_inputs_exit_cleanly_with_at_most_one_error_line(
    pristine_files, target, mutation
):
    # a mutated config, scenario or checkpoint either still plans or is
    # refused with exactly one error line in its category, never a traceback
    files = list(pristine_files)
    mutated = files[target].with_name("mutated" + files[target].suffix)
    mutated.write_bytes(_mutate(files[target].read_bytes(), target != 2, mutation))
    files[target] = mutated
    rc, lines = _plan_with_model(*files, files[0].parent / "out")
    assert rc in (0, 1)
    if rc == 1:
        assert len(lines) == 1, lines
        assert re.match(f"error:({'|'.join(_CATEGORIES[target])}): ", lines[0]), lines
