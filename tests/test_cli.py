import json

import pytest

from vecplan.cli import (
    OUTPUT_ROOT_ENV,
    _json_artifact,
    config_from_dict,
    config_to_dict,
    load_config,
    main,
)
from vecplan.errors import VecplanError


def run(*argv):
    return main(list(argv))


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
            ("train.learning_rate=NaN", "train.learning_rate must be finite"),
            ("train.weight_decay=\"high\"", "train.weight_decay must be a number"),
            ("generator.lane_count=2.5", "generator.lane_count must be an integer"),
            ("generator.min_agent_clearance=NaN", "generator.min_agent_clearance must be finite"),
            ("generator.horizon_dt=Infinity", "generator.horizon_dt must be finite"),
            ("generator.agent_count_range=[1.5,3]", "agent_count_range must be an integer"),
            ("generator.perception_range=[60,NaN]", "generator.perception_range must be finite"),
            ("generator.ego_dims=[4]", "generator.ego_dims must be a pair"),
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
                    metrics.collision_ticks(s, p, ego_dims)[
                        : metrics._horizon_tick(3.0, s.horizon_dt, p.horizon)
                    ]
                )
                for s, p in zip(scenarios, plans)
            )
            for scenarios, plans, ego_dims in evaluated
        ]
        assert len(direct) == 2
        assert printed == direct
