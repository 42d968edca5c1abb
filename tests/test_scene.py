import hashlib
import json
import math
import re

import numpy as np
import pytest

from vecplan import geometry, scene
from vecplan.errors import ConfigError, ScenarioFormatError
from vecplan.geometry import Point2, Polyline, PolylineSet, point_polyline_distance
from vecplan.scene import (
    AgentPrediction,
    Command,
    EgoState,
    GeneratorConfig,
    MapClass,
    MapVector,
    PlanTrajectory,
    Scenario,
    best_mode,
    best_mode_index,
    ego_vectors,
    filter_agents,
    filter_map,
    generate_scenario,
    load_scenario,
    save_scenario,
    scenario_to_dict,
    scenario_to_json,
)


def make_agent(confidence=1.0, scores=(0.2, 0.7, 0.1), t_f=6):
    n_k = len(scores)
    modes = np.arange(n_k * t_f * 2, dtype=np.float64).reshape(n_k, t_f, 2)
    return AgentPrediction(
        position=Point2(0.0, 5.0),
        heading=math.pi / 2,
        size=(4.5, 1.9),
        confidence=confidence,
        modes=modes,
        mode_scores=np.array(scores),
    )


def make_map_vector(kind=MapClass.LANE_DIVIDER, confidence=1.0, x=1.0):
    return MapVector(
        kind=kind,
        points=Polyline([Point2(x, -5.0), Point2(x, 5.0)]),
        confidence=confidence,
    )


class TestFilters:
    def test_threshold_is_inclusive(self):
        elems = [make_map_vector(confidence=c) for c in (0.9, 0.4, 0.5)]
        kept = filter_map(elems, 0.5)
        assert kept == [elems[0], elems[2]]

    def test_zero_threshold_is_identity(self):
        elems = [make_map_vector(confidence=c) for c in (0.0, 0.3)]
        assert filter_map(elems, 0.0) == elems

    def test_all_below_threshold(self):
        elems = [make_map_vector(confidence=0.2)]
        assert filter_map(elems, 0.9) == []

    def test_class_filter(self):
        divider = make_map_vector(MapClass.LANE_DIVIDER)
        boundary = make_map_vector(MapClass.ROAD_BOUNDARY)
        assert filter_map([divider, boundary], 0.0, MapClass.ROAD_BOUNDARY) == [boundary]

    def test_agent_filter_mirrors_map_filter(self):
        agents = [make_agent(confidence=c) for c in (0.9, 0.4, 0.5)]
        assert filter_agents(agents, 0.5) == [agents[0], agents[2]]
        assert filter_agents(agents, 0.0) == agents
        assert filter_agents(agents, 0.95) == []

    def test_filtering_is_idempotent(self):
        elems = [make_map_vector(confidence=c) for c in np.linspace(0, 1, 11)]
        once = filter_map(elems, 0.37)
        assert filter_map(once, 0.37) == once
        agents = [make_agent(confidence=c) for c in np.linspace(0, 1, 11)]
        once_a = filter_agents(agents, 0.37)
        assert filter_agents(once_a, 0.37) == once_a

    def test_bad_threshold_rejected(self):
        with pytest.raises(ConfigError):
            filter_map([], 1.5)


class TestBestMode:
    def test_argmax(self):
        assert best_mode_index(make_agent(scores=(0.2, 0.7, 0.1))) == 1

    def test_single_mode(self):
        assert best_mode_index(make_agent(scores=(0.4,))) == 0

    def test_tie_goes_to_lowest_index(self):
        agent = make_agent(scores=(0.5, 0.5))
        assert best_mode_index(agent) == 0
        np.testing.assert_array_equal(best_mode(agent), agent.modes[0])

    def test_matches_scan_oracle_on_random_agents(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            n_k = int(rng.integers(1, 8))
            scores = np.round(rng.uniform(0, 1, n_k), 2)  # rounding forces ties
            agent = make_agent(scores=tuple(scores))
            best, best_i = -1.0, 0
            for i, sc in enumerate(scores):
                if sc > best:
                    best, best_i = sc, i
            assert best_mode_index(agent) == best_i


class TestEgoVectors:
    def test_basic_differencing(self):
        plan = PlanTrajectory(np.array([[0.0, 1.0], [0.0, 2.0]]))
        np.testing.assert_array_equal(ego_vectors(plan), [[0, 1], [0, 1]])

    def test_stationary_plan(self):
        plan = PlanTrajectory(np.zeros((4, 2)))
        np.testing.assert_array_equal(ego_vectors(plan), np.zeros((4, 2)))

    def test_hand_differencing(self):
        plan = PlanTrajectory(np.array([[1.0, 1.0], [1.0, 3.0], [2.0, 3.0]]))
        np.testing.assert_array_equal(ego_vectors(plan), [[1, 1], [0, 2], [1, 0]])


class TestGenerator:
    def test_same_seed_is_bit_identical(self):
        a = generate_scenario(42)
        b = generate_scenario(42)
        assert a == b
        assert scenario_to_json(a) == scenario_to_json(b)

    def test_different_seeds_differ(self):
        assert generate_scenario(1) != generate_scenario(2)

    def test_zero_agents(self):
        cfg = GeneratorConfig(agent_count_range=(0, 0))
        s = generate_scenario(5, cfg)
        assert s.agents == []
        assert s.agent_gt_futures == []

    def test_expert_within_perception_range_over_seed_sweep(self):
        cfg = GeneratorConfig()
        long_half = cfg.perception_range[0] / 2
        lat_half = cfg.perception_range[1] / 2
        for seed in range(100):
            s = generate_scenario(seed, cfg)
            assert np.all(np.abs(s.expert[:, 0]) <= lat_half)
            assert np.all(np.abs(s.expert[:, 1]) <= long_half)

    def test_map_points_within_perception_range(self):
        cfg = GeneratorConfig()
        long_half = cfg.perception_range[0] / 2
        lat_half = cfg.perception_range[1] / 2
        for seed in range(25):
            s = generate_scenario(seed, cfg)
            for mv in s.map:
                xy = mv.points.xy
                assert np.all(np.abs(xy[:, 0]) <= lat_half + 1e-9)
                assert np.all(np.abs(xy[:, 1]) <= long_half + 1e-9)

    def test_dividers_lie_strictly_between_boundaries(self):
        # every divider point is strictly inside the corridor delimited by
        # the two boundary polylines (checked via distance to each boundary)
        for seed in range(25):
            s = generate_scenario(seed)
            boundaries = [m for m in s.map if m.kind == MapClass.ROAD_BOUNDARY]
            dividers = [m for m in s.map if m.kind == MapClass.LANE_DIVIDER]
            assert len(boundaries) == 2
            for dv in dividers:
                for bd in boundaries:
                    d, _, _ = point_polyline_distance(dv.points.xy, PolylineSet([bd.points]))
                    assert (d > 0.1).all()

    def test_expert_never_crosses_a_boundary(self):
        for seed in range(50):
            s = generate_scenario(seed)
            boundaries = [m for m in s.map if m.kind == MapClass.ROAD_BOUNDARY]
            for bd in boundaries:
                d, _, _ = point_polyline_distance(s.expert, PolylineSet([bd.points]))
                assert (d > 0.05).all()

    def test_structure(self):
        cfg = GeneratorConfig(lane_count=3)
        s = generate_scenario(7, cfg)
        assert s.t_future == cfg.t_future
        assert s.n_map_points == cfg.n_points
        kinds = [m.kind for m in s.map]
        assert kinds.count(MapClass.ROAD_BOUNDARY) == 2
        assert kinds.count(MapClass.LANE_DIVIDER) == cfg.lane_count - 1
        for mv in s.map:
            if mv.kind == MapClass.ROAD_BOUNDARY:
                assert mv.drivable_side in ("left", "right")
            else:
                assert mv.drivable_side is None
        assert s.ego.position == Point2(0.0, 0.0)
        assert s.ego.heading == math.pi / 2
        for agent in s.agents:
            assert agent.n_modes == cfg.mode_count
            assert agent.mode_scores[0] == 1.0

    def test_gt_mode_is_stored_future(self):
        s = generate_scenario(11)
        for agent, fut in zip(s.agents, s.agent_gt_futures):
            np.testing.assert_array_equal(agent.modes[0], fut)

    @pytest.mark.parametrize(
        "overrides, digest",
        [
            ({}, "5f3977b04b1c72e88831743b22cb1ed6731e17c35f6882ed981e49895ae1e28b"),
            (
                {"agent_count_range": (8, 12)},
                "74c02f2808ea3db44b64b2e51533f8c39e0b7f114b6e4169bb20fa58b4b13247",
            ),
            (
                {"agent_count_range": (12, 20), "lead_vehicle_probability": 0.5},
                "8a2212534b0b773576a78e948061d15b7080a2e9c6c01612ad26eab195d276bc",
            ),
        ],
        ids=["default", "dense", "crowded-lead"],
    )
    def test_scene_bytes_are_pinned(self, overrides, digest):
        # sha256 over the scenario JSON of seeds 0..19; any change to the
        # generator's draws, placement test or arithmetic moves it
        config = GeneratorConfig(**overrides)
        h = hashlib.sha256()
        for seed in range(20):
            h.update(scenario_to_json(generate_scenario(seed, config)).encode())
        assert h.hexdigest() == digest

    def test_each_box_framed_once(self, monkeypatch):
        # one overlap call per placement attempt (21 here, 12 of them
        # rejected), against the frames of the boxes placed so far, each
        # built once when its box was placed: one frame per attempt plus the
        # expert's row
        counts = {"calls": 0, "hits": 0, "frames": 0}
        overlap, frame = scene.oriented_rect_overlap, geometry._frame

        def counting_overlap(*boxes):
            hit = overlap(*boxes)
            counts["calls"] += 1
            counts["hits"] += hit
            return hit

        def counting_frame(*arrays):
            counts["frames"] += 1
            return frame(*arrays)

        monkeypatch.setattr(scene, "oriented_rect_overlap", counting_overlap)
        monkeypatch.setattr(geometry, "_frame", counting_frame)
        generate_scenario(3, GeneratorConfig(agent_count_range=(8, 12)))
        assert counts == {"calls": 21, "hits": 12, "frames": 22}

    def test_unfit_config_rejected(self):
        with pytest.raises(ConfigError):
            GeneratorConfig(lane_count=8, lane_width=4.0, perception_range=(60.0, 30.0))

    def test_bad_configs_rejected(self):
        with pytest.raises(ConfigError):
            GeneratorConfig(lane_count=0)
        with pytest.raises(ConfigError):
            GeneratorConfig(agent_count_range=(3, 1))
        with pytest.raises(ConfigError):
            GeneratorConfig(horizon_dt=0.0)


class TestScenarioIO:
    def test_round_trip_identity(self, tmp_path):
        for seed in (0, 1, 2):
            s = generate_scenario(seed)
            path = tmp_path / f"s{seed}.json"
            save_scenario(s, path)
            assert load_scenario(path) == s

    def test_round_trip_preserves_bytes(self, tmp_path):
        s = generate_scenario(3)
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        save_scenario(s, p1)
        save_scenario(load_scenario(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_missing_field_names_the_field(self, tmp_path):
        s = generate_scenario(4)
        data = scenario_to_dict(s)
        del data["expert"]
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ScenarioFormatError, match="expert"):
            load_scenario(path)

    @pytest.mark.parametrize(
        "path, value, names",
        [
            (("expert", 2, 0), math.nan, "expert"),
            (("expert", 5, 1), math.inf, "expert"),
            (("agent_gt_futures", 0, 3, 1), math.nan, "agent 0"),
            (("ego", "velocity"), math.nan, "ego velocity"),
            (("ego", "heading"), -math.inf, "ego heading"),
            (("ego", "acceleration"), math.nan, "ego acceleration"),
            (("ego", "steering_angle"), math.inf, "ego steering_angle"),
            (("horizon_dt",), math.nan, "horizon_dt"),
            (("agents", 0, "heading"), math.nan, "agent heading"),
            (("agents", 0, "size", 0), math.inf, "agent size"),
            (("perception_range", 1), math.inf, "perception_range"),
            (("perception_range", 0), math.nan, "perception_range"),
            (("map", 0, "points", 3, 1), math.nan, r"map\[0\]\.points"),
            (("map", 1, "points", 0, 0), -math.inf, r"map\[1\]\.points"),
            (("agents", 0, "position", 0), math.inf, r"agents\[0\]\.position"),
            (("ego", "position", 1), math.nan, r"ego\.position"),
        ],
    )
    def test_non_finite_values_rejected(self, tmp_path, path, value, names):
        data = scenario_to_dict(generate_scenario(4, GeneratorConfig(agent_count_range=(1, 3))))
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        target = tmp_path / "nan.json"
        target.write_text(json.dumps(data))  # json writes the non-standard NaN/Infinity
        with pytest.raises(ScenarioFormatError, match=names):
            load_scenario(target)

    @pytest.mark.parametrize(
        "path, value, names",
        [
            (("map", 0, "points"), 5, "map[0].points"),
            (("map", 0, "points"), [[0.0], [1.0, 2.0]], "map[0].points"),
            (("map", 0, "points"), [[0.0, "x"], [1.0, 2.0]], "map[0].points"),
            (("map", 0, "kind"), "river", "map[0].kind"),
            (("map", 1), "boundary", "map[1] must be an object"),
            (("ego", "velocity"), "fast", "ego.velocity"),
            (("ego", "position"), [1.0], "ego.position"),
            (("ego", "command"), 3, "ego.command"),
            (("ego",), [], "ego must be an object"),
            (("agents", 0, "size"), 4.5, "agents[0].size"),
            (("agents", 0, "heading"), None, "agents[0].heading"),
            (("agents", 0, "modes"), [[1.0, 2.0], [3.0]], "agents[0].modes"),
            (("agents",), 7, "agents"),
            (("agent_gt_futures",), {"0": []}, "agent_gt_futures"),
            (("expert",), "straight", "expert"),
            (("perception_range",), 60.0, "perception_range"),
            (("horizon_dt",), "0.5s", "horizon_dt"),
            (("perception_range",), [-60.0, 30.0], "perception_range"),
            (("perception_range",), [60.0, 0.0], "perception_range"),
            (("t_future",), "6", "bad field t_future: expected an integer, got '6'"),
            (("t_future",), 6.0, "bad field t_future"),
            (("t_future",), True, "bad field t_future"),
        ],
    )
    def test_malformed_field_names_its_path(self, tmp_path, path, value, names):
        data = scenario_to_dict(generate_scenario(4, GeneratorConfig(agent_count_range=(1, 3))))
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        target = tmp_path / "bad.json"
        target.write_text(json.dumps(data))
        with pytest.raises(ScenarioFormatError, match=re.escape(names)):
            load_scenario(target)

    def test_schema_version_mismatch(self, tmp_path):
        data = scenario_to_dict(generate_scenario(4))
        data["schema_version"] = 99
        path = tmp_path / "v99.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ScenarioFormatError, match="schema_version"):
            load_scenario(path)

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{\n "schema_version": 1,\n  broken\n}')
        with pytest.raises(ScenarioFormatError, match="line 3"):
            load_scenario(path)

    def test_full_scale_map_loads(self, tmp_path):
        # 100 map vectors of 20 points each
        n_m, n_p, t_f = 100, 20, 6
        mvs = [
            MapVector(
                kind=MapClass.LANE_DIVIDER,
                points=Polyline([Point2(float(i) / 10.0, float(j)) for j in range(n_p)]),
                confidence=1.0,
            )
            for i in range(n_m)
        ]
        s = Scenario(
            map=mvs,
            agents=[],
            agent_gt_futures=[],
            ego=EgoState(Point2(0, 0), math.pi / 2, 5.0, 0.0, 0.0, Command.GO_STRAIGHT),
            expert=np.zeros((t_f, 2)) + [[0.0, 1.0]],
            horizon_dt=0.5,
            perception_range=(60.0, 30.0),
        )
        path = tmp_path / "big.json"
        save_scenario(s, path)
        loaded = load_scenario(path)
        assert len(loaded.map) == n_m
        assert loaded.n_map_points == n_p

    def test_mixed_point_counts_rejected(self):
        mvs = [
            make_map_vector(),
            MapVector(
                kind=MapClass.LANE_DIVIDER,
                points=Polyline([Point2(0, 0), Point2(0, 1), Point2(0, 2)]),
                confidence=1.0,
            ),
        ]
        with pytest.raises(ScenarioFormatError, match="point counts"):
            Scenario(
                map=mvs,
                agents=[],
                agent_gt_futures=[],
                ego=EgoState(Point2(0, 0), math.pi / 2, 5.0, 0.0, 0.0, Command.GO_STRAIGHT),
                expert=np.ones((6, 2)),
                horizon_dt=0.5,
                perception_range=(60.0, 30.0),
            )

    def test_gt_future_count_must_match_agents(self):
        with pytest.raises(ScenarioFormatError, match="futures"):
            Scenario(
                map=[],
                agents=[make_agent()],
                agent_gt_futures=[],
                ego=EgoState(Point2(0, 0), math.pi / 2, 5.0, 0.0, 0.0, Command.GO_STRAIGHT),
                expert=np.ones((6, 2)),
                horizon_dt=0.5,
                perception_range=(60.0, 30.0),
            )
