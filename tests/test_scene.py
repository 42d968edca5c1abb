import dataclasses
import hashlib
import json
import math
import re

import numpy as np
import pytest
from _support import (
    SCENE_KINDS,
    map_arrays,
    mode_ranges,
    scene,
    scene_of_kind,
    take_agents,
    take_map,
    with_mixed_modes,
)

from vecplan import geometry, scene as scene_module
from vecplan.constraints import ConstraintParams
from vecplan.errors import ConfigError, ScenarioFormatError
from vecplan.geometry import Checked, Point2, PolylineSet, point_polyline_distance
from vecplan.scene import (
    DRIVABLE_SIDES,
    MAP_CLASSES,
    Command,
    EgoState,
    GeneratorConfig,
    MapClass,
    PlanTrajectory,
    best_mode_index,
    ego_vectors,
    generate_scenario,
    load_scenario,
    pack,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    scenario_to_json,
)


def lines(confidences, kinds=None):
    """Map arrays of vertical lines from y = -5 to 5, line i at x = i; lane
    dividers unless `kinds` names the classes."""
    xy = [[(float(i), -5.0), (float(i), 5.0)] for i in range(len(confidences))]
    return map_arrays(xy, kinds or [MapClass.LANE_DIVIDER] * len(confidences), confidences)


def packed_map(map, threshold):
    """The x of each map element `pack` keeps at `threshold`, as (boundaries,
    dividers), the two rows of its map set; each element of these tests is a
    vertical line at its own x, and each row's padding is dead."""
    packed = pack(scene(np.zeros((6, 2)), map=map), ConstraintParams(map_min_confidence=threshold))
    start, live = packed.map.start[:, 0], packed.map.live[:, 0]
    return start[0][live[0]][:, 0].tolist(), start[1][live[1]][:, 0].tolist()


def ranked_agents(confidences, scores=(0.2, 0.7, 0.1), t_f=6):
    """Agent arrays of agents at (0, 5) with the given confidences, each with
    len(`scores`) modes of its own, scored `scores`."""
    n, n_k = len(confidences), len(scores)
    modes = np.arange(n * n_k * t_f * 2, dtype=np.float64).reshape(n * n_k, t_f, 2)
    return dict(
        agent_xy=np.tile((0.0, 5.0), (n, 1)), agent_heading=np.full(n, math.pi / 2),
        agent_size=np.tile((4.5, 1.9), (n, 1)), agent_confidence=confidences,
        agent_future=modes[::n_k], agent_modes=modes, agent_mode_scores=np.tile(scores, n),
        agent_mode_count=[n_k] * n,
    )


class TestFilters:
    def test_threshold_is_inclusive(self):
        assert packed_map(lines((0.9, 0.4, 0.5)), 0.5) == ([], [0.0, 2.0])

    def test_zero_threshold_is_identity(self):
        assert packed_map(lines((0.0, 0.3)), 0.0) == ([], [0.0, 1.0])

    def test_all_below_threshold(self):
        assert packed_map(lines((0.2,)), 0.9) == ([], [])

    def test_class_filter(self):
        kinds = [MapClass.LANE_DIVIDER, MapClass.ROAD_BOUNDARY, MapClass.PEDESTRIAN_CROSSING]
        assert packed_map(lines((1.0, 1.0, 1.0), kinds), 0.0) == ([1.0], [0.0])

    def test_agent_filter_mirrors_map_filter(self):
        # pack keeps the agents at or above its threshold, in order, as it
        # keeps map elements
        agents = ranked_agents((0.9, 0.4, 0.5))
        s = scene(np.zeros((6, 2)), agents=agents)
        for threshold, kept in ((0.5, [0, 2]), (0.0, [0, 1, 2]), (0.95, [])):
            packed = pack(s, ConstraintParams(agent_min_confidence=threshold))
            want = agents["agent_modes"][[3 * i + 1 for i in kept]].reshape(len(kept), 6, 2)
            assert np.array_equal(packed.agent_tracks, want)

    def test_filtering_is_idempotent(self):
        m = lines(np.linspace(0, 1, 11))
        _, once = packed_map(m, 0.37)
        kept = {name: np.asarray(a)[[int(x) for x in once]] for name, a in m.items()}
        assert packed_map(kept, 0.37) == ([], once)

    def test_bad_threshold_rejected(self):
        with pytest.raises(ValueError):
            pack(scene(np.zeros((6, 2))), ConstraintParams(map_min_confidence=1.5))


class TestBestMode:
    def test_argmax(self):
        assert best_mode_index(np.array((0.2, 0.7, 0.1))) == 1

    def test_single_mode(self):
        assert best_mode_index(np.array((0.4,))) == 0

    def test_tie_goes_to_lowest_index(self):
        assert best_mode_index(np.array((0.5, 0.5))) == 0
        agents = ranked_agents((1.0,), scores=(0.5, 0.5))
        s = scene(np.zeros((6, 2)), agents=agents)
        np.testing.assert_array_equal(s.agent_track[0], agents["agent_modes"][0])

    def test_matches_scan_oracle_on_random_agents(self):
        rng = np.random.default_rng(3)
        all_scores, want = [], []
        for _ in range(300):
            n_k = int(rng.integers(1, 8))
            scores = np.round(rng.uniform(0, 1, n_k), 2)  # rounding forces ties
            best, best_i = -1.0, 0
            for i, sc in enumerate(scores):
                if sc > best:
                    best, best_i = sc, i
            assert best_mode_index(scores) == best_i
            want.append(sum(len(s) for s in all_scores) + best_i)
            all_scores.append(scores)
        # one scene of all 300 agents: each track is its agent's best mode
        k = sum(len(s) for s in all_scores)
        modes = rng.uniform(-5, 5, (k, 6, 2))
        agents = dict(
            agent_xy=np.zeros((300, 2)), agent_heading=np.zeros(300),
            agent_size=np.ones((300, 2)), agent_confidence=np.ones(300),
            agent_future=np.zeros((300, 6, 2)), agent_modes=modes,
            agent_mode_scores=np.concatenate(all_scores),
            agent_mode_count=[len(s) for s in all_scores],
        )
        assert np.array_equal(scene(np.zeros((6, 2)), agents=agents).agent_track, modes[want])


class TestPlanTrajectory:
    def test_waypoints_are_a_read_only_copy(self):
        w = np.array([[0.0, 1.0], [0.0, 2.0]])
        plan = PlanTrajectory(w)
        with pytest.raises(ValueError):
            plan.waypoints[0, 0] = 5.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.waypoints = np.zeros((2, 2))
        w[0, 0] = 5.0  # the caller's array stays the caller's
        assert plan.waypoints.tolist() == [[0.0, 1.0], [0.0, 2.0]]
        assert plan.waypoints.dtype == np.float64 and w.flags.writeable

    @pytest.mark.parametrize("bad", [
        [[0.0, math.nan]], [[math.inf, 0.0]], [[0.0, -math.inf], [1.0, 1.0]],
        np.zeros((0, 2)), np.zeros((3, 3)), np.zeros(2), np.zeros((2, 2, 2)),
    ])
    def test_bad_waypoints_rejected(self, bad):
        with pytest.raises(ScenarioFormatError):
            PlanTrajectory(bad)


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
        assert s.agent_xy.shape == (0, 2) and s.agent_mode_count.shape == (0,)
        assert s.agent_future.shape == s.agent_modes.shape == (0, cfg.t_future, 2)

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
            for xy in s.map_xy:
                assert np.all(np.abs(xy[:, 0]) <= lat_half + 1e-9)
                assert np.all(np.abs(xy[:, 1]) <= long_half + 1e-9)

    def test_dividers_lie_strictly_between_boundaries(self):
        # every divider point is strictly inside the corridor delimited by
        # the two boundary polylines (checked via distance to each boundary)
        for seed in range(25):
            s = generate_scenario(seed)
            boundaries = s.map_xy[s.map_kind == MAP_CLASSES.index(MapClass.ROAD_BOUNDARY)]
            dividers = s.map_xy[s.map_kind == MAP_CLASSES.index(MapClass.LANE_DIVIDER)]
            assert len(boundaries) == 2
            for dv in dividers:
                for bd in boundaries:
                    d, _, _ = point_polyline_distance(dv, PolylineSet.of_scenes([[bd]], [[True]]))
                    assert (d > 0.1).all()

    def test_expert_never_crosses_a_boundary(self):
        for seed in range(50):
            s = generate_scenario(seed)
            boundaries = s.map_xy[s.map_kind == MAP_CLASSES.index(MapClass.ROAD_BOUNDARY)]
            for bd in boundaries:
                d, _, _ = point_polyline_distance(s.expert, PolylineSet.of_scenes([[bd]], [[True]]))
                assert (d > 0.05).all()

    def test_structure(self):
        cfg = GeneratorConfig(lane_count=3)
        s = generate_scenario(7, cfg)
        assert s.t_future == cfg.t_future
        assert s.map_xy.shape[1] == cfg.n_points
        kinds = [MAP_CLASSES[k] for k in s.map_kind]
        assert kinds.count(MapClass.ROAD_BOUNDARY) == 2
        assert kinds.count(MapClass.LANE_DIVIDER) == cfg.lane_count - 1
        for kind, side in zip(kinds, s.map_side):
            if kind == MapClass.ROAD_BOUNDARY:
                assert side in (DRIVABLE_SIDES["left"], DRIVABLE_SIDES["right"])
            else:
                assert side == DRIVABLE_SIDES[None]
        assert s.ego.position == Point2(0.0, 0.0)
        assert s.ego.heading == math.pi / 2
        assert s.agent_mode_count.tolist() == [cfg.mode_count] * len(s.agent_xy)
        assert (s.agent_mode_scores[:: cfg.mode_count] == 1.0).all()

    def test_gt_mode_is_stored_future(self):
        s = generate_scenario(11)
        assert len(s.agent_future) > 0
        for modes, fut in zip(mode_ranges(s), s.agent_future):
            np.testing.assert_array_equal(s.agent_modes[modes.start], fut)

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
        overlap, frame = scene_module.oriented_rect_overlap, geometry._frame

        def counting_overlap(*boxes):
            hit = overlap(*boxes)
            counts["calls"] += 1
            counts["hits"] += hit
            return hit

        def counting_frame(*arrays):
            counts["frames"] += 1
            return frame(*arrays)

        monkeypatch.setattr(scene_module, "oriented_rect_overlap", counting_overlap)
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
        mixed = with_mixed_modes(generate_scenario(7), np.random.default_rng(5))
        assert len(set(mixed.agent_mode_count.tolist())) > 1
        for s in (generate_scenario(3), mixed):
            p1 = tmp_path / "a.json"
            p2 = tmp_path / "b.json"
            save_scenario(s, p1)
            save_scenario(load_scenario(p1), p2)
            assert p1.read_bytes() == p2.read_bytes()
            assert load_scenario(p1) == s

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

    @pytest.mark.parametrize(
        "path, value, names",
        [
            (("agents", 0, "mode_scores"), lambda old: old[:-1],
             "mode_scores shape (5,) does not match 6 modes"),
            (("agents", 0, "modes"), [], "(N_k, T_f, 2), got (0,)"),
            (("agents", 0, "mode_scores", 1), 1.5, "mode scores must lie in [0,1]"),
            (("agents", 0, "confidence"), -0.1, "agent confidence out of [0,1]: -0.1"),
            (("map", 0, "confidence"), 2, "map confidence out of [0,1]: 2.0"),
            (("map", 0, "drivable_side"), "up", "drivable_side: 'up'"),
            (("agents", 0, "modes"), lambda old: [m[:-1] for m in old],
             "agent 0 modes cover 5 steps, expected 6"),
            (("map", 0, "points"), lambda old: [old[3]] * len(old),
             "map[0].points: polyline has no non-degenerate segment"),
        ],
        ids=["score-count", "no-modes", "score-range", "agent-confidence", "map-confidence",
             "drivable-side", "short-modes", "degenerate-polyline"],
    )
    def test_bad_value_refused_by_loader(self, tmp_path, path, value, names):
        # a value of the right type that no scene may hold, read from a file
        data = scenario_to_dict(generate_scenario(4, GeneratorConfig(agent_count_range=(1, 3))))
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value(node[path[-1]]) if callable(value) else value
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
        xy = [[(float(i) / 10.0, float(j)) for j in range(n_p)] for i in range(n_m)]
        s = scene(
            np.zeros((t_f, 2)) + [[0.0, 1.0]],
            map=map_arrays(xy, [MapClass.LANE_DIVIDER] * n_m),
            ego=EgoState(Point2(0, 0), math.pi / 2, 5.0, 0.0, 0.0, Command.GO_STRAIGHT),
        )
        path = tmp_path / "big.json"
        save_scenario(s, path)
        loaded = load_scenario(path)
        assert loaded.map_xy.shape == (n_m, n_p, 2)
        assert loaded == s

    def test_mixed_point_counts_rejected(self):
        # a file can hold polylines of different lengths; a scene cannot
        data = scenario_to_dict(generate_scenario(4))
        data["map"][1]["points"] = [[0.0, 0.0], [0.0, 1.0], [0.0, 2.0]]
        with pytest.raises(ScenarioFormatError, match="point counts"):
            scenario_from_dict(data)

    def test_gt_future_count_must_match_agents(self):
        data = scenario_to_dict(generate_scenario(4, GeneratorConfig(agent_count_range=(2, 2))))
        del data["agent_gt_futures"][1]
        with pytest.raises(ScenarioFormatError, match="futures"):
            scenario_from_dict(data)
        s = scenario_from_dict(scenario_to_dict(generate_scenario(4)))
        with pytest.raises(ScenarioFormatError, match="agent_future"):
            dataclasses.replace(s, agent_future=s.agent_future[1:])


ARRAY_FIELDS = (
    "expert", "agent_xy", "agent_heading", "agent_size", "agent_confidence", "agent_track",
    "agent_future", "agent_modes", "agent_mode_scores", "agent_mode_count", "map_xy",
    "map_kind", "map_confidence", "map_side",
)


class TestSceneArrays:
    @staticmethod
    def _scenes(tmp_path):
        rng = np.random.default_rng(8)
        scenes = [scene_of_kind(kind, 13 * seed + 1) for kind in SCENE_KINDS for seed in range(8)]
        scenes += [with_mixed_modes(scene_of_kind("dense", seed), rng) for seed in range(8)]
        save_scenario(scenes[-1], tmp_path / "s.json")
        return scenes + [load_scenario(tmp_path / "s.json")]

    def test_arrays_equal_the_records(self, tmp_path):
        # each array against the per-element records (JSON objects and
        # lists) of the scene's file
        for s in self._scenes(tmp_path):
            data = json.loads(scenario_to_json(s))
            agents, map_elements = data["agents"], data["map"]
            n_a, n_m, t_f = len(agents), len(map_elements), s.t_future
            assert s.agent_xy.shape == (n_a, 2) and s.agent_heading.shape == (n_a,)
            assert s.agent_size.shape == (n_a, 2) and s.agent_confidence.shape == (n_a,)
            assert s.agent_track.shape == s.agent_future.shape == (n_a, t_f, 2)
            assert s.agent_mode_count.shape == (n_a,)
            assert s.map_xy.shape[0] == n_m and s.map_xy.ndim == 3
            for name in ("map_kind", "map_confidence", "map_side"):
                assert getattr(s, name).shape == (n_m,)
            assert s.agent_modes.tolist() == [m for a in agents for m in a["modes"]]
            assert s.agent_mode_scores.tolist() == [c for a in agents for c in a["mode_scores"]]
            for i, a in enumerate(agents):
                assert s.agent_xy[i].tolist() == a["position"]
                assert s.agent_heading[i] == a["heading"]
                assert s.agent_size[i].tolist() == a["size"]
                assert s.agent_confidence[i] == a["confidence"]
                assert s.agent_mode_count[i] == len(a["modes"]) == len(a["mode_scores"])
                best = max(range(len(a["modes"])), key=lambda k: (a["mode_scores"][k], -k))
                assert s.agent_track[i].tolist() == a["modes"][best]
                assert s.agent_future[i].tolist() == data["agent_gt_futures"][i]
            for i, mv in enumerate(map_elements):
                assert s.map_xy[i].tolist() == mv["points"]
                assert MAP_CLASSES[s.map_kind[i]].value == mv["kind"]
                assert s.map_confidence[i] == mv["confidence"]
                assert s.map_side[i] == DRIVABLE_SIDES[mv["drivable_side"]]
            for name in ARRAY_FIELDS:
                integral = name in ("map_kind", "map_side", "agent_mode_count")
                assert getattr(s, name).dtype.kind == ("i" if integral else "f")
        assert scene_of_kind("agent_free", 3).agent_track.shape == (0, 6, 2)
        assert scene_of_kind("map_free", 3).map_xy.shape[0] == 0

    def test_arrays_are_read_only_and_fields_frozen(self):
        s = generate_scenario(4)
        for name in ARRAY_FIELDS:
            with pytest.raises(ValueError):
                getattr(s, name)[...] = 0
        for name, value in (("agent_modes", []), ("map_xy", []), ("agent_xy", np.zeros((0, 2)))):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(s, name, value)
        # the caller's arrays stay the caller's
        xy, modes = s.agent_xy.copy(), s.agent_modes.copy()
        moved = dataclasses.replace(s, agent_xy=xy, agent_modes=modes)
        xy[...], modes[...] = 0.0, 0.0
        assert moved == s and xy.flags.writeable and modes.flags.writeable

    def test_read_only_checked_arrays_pass_through(self):
        # a checked scene's read-only array handed over as Checked is kept
        # as it is, after a shape check; any other array is copied and checked
        s = generate_scenario(4, GeneratorConfig(agent_count_range=(2, 2)))
        passed = dataclasses.replace(s, agent_size=Checked(s.agent_size),
                                     map_kind=Checked(s.map_kind))
        assert passed.agent_size is s.agent_size and passed.map_kind is s.map_kind
        assert passed == s
        with pytest.raises(ScenarioFormatError, match="shape"):
            dataclasses.replace(s, agent_size=Checked(s.agent_size[..., None]))
        nan = s.agent_size.copy()
        nan[1, 0] = math.nan
        with pytest.raises(ScenarioFormatError, match=r"agents\[1\]\.size"):
            dataclasses.replace(s, agent_size=Checked(nan))  # writeable: checked
        copied = dataclasses.replace(s, agent_size=Checked(s.agent_size.copy()))
        assert copied == s and copied.agent_size is not s.agent_size

    def test_replace_builds_new_arrays(self):
        s = generate_scenario(4, GeneratorConfig(agent_count_range=(3, 3)))
        fewer = take_agents(s, [1, 2])
        assert np.array_equal(fewer.agent_xy, s.agent_xy[1:])
        assert np.array_equal(fewer.agent_track, s.agent_track[1:])
        assert np.array_equal(fewer.agent_modes, s.agent_modes[s.agent_mode_count[0]:])
        assert take_map(s, []).map_side.shape == (0,)


def _bad_arrays():
    """(scene, field, bad value): every array field of a generated scene
    given a wrong shape and a NaN, and the code fields values out of range."""
    s = generate_scenario(4, GeneratorConfig(agent_count_range=(2, 2)))
    cases = []
    for name in ARRAY_FIELDS:
        if name == "agent_track":  # derived, not an argument
            continue
        a = getattr(s, name).astype(np.float64)
        nan = a.copy()
        nan.flat[-1] = math.nan
        cases += [(name + "-shape", name, a[..., None]), (name + "-nan", name, nan)]
    cases += [
        ("map_kind-past-the-classes", "map_kind", np.full(len(s.map_kind), len(MAP_CLASSES))),
        ("map_kind-negative", "map_kind", -np.ones(len(s.map_kind), dtype=np.intp)),
        ("map_kind-fraction", "map_kind", s.map_kind + 0.5),
        ("map_side-2", "map_side", np.full(len(s.map_side), 2)),
        ("agent_mode_count-sum-past-the-modes", "agent_mode_count", s.agent_mode_count + [0, 1]),
        ("agent_mode_count-sum-short", "agent_mode_count", s.agent_mode_count - [0, 1]),
        ("agent_mode_count-zero", "agent_mode_count", [len(s.agent_modes), 0]),
        ("agent_mode_count-fraction", "agent_mode_count", s.agent_mode_count - [0, 0.5]),
    ]
    return [pytest.param(s, name, value, id=case) for case, name, value in cases]


@pytest.mark.parametrize("s, name, value", _bad_arrays())
def test_array_constructor_refuses_bad_arrays(s, name, value):
    with pytest.raises(ScenarioFormatError):
        dataclasses.replace(s, **{name: value})
