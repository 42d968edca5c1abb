"""Both branches of each shortcut of a refine objective evaluation.

An evaluation returns early where a term is zero (no agent in range, no
hinge active, no divider in range), takes whole rows where every step of
the direction term is active, adds a term of weight 1.0 without its product
and adopts each clamped iterate without copying it.  Each case below runs
one branch and compares the value and gradient bits of every term with the
reference that packs nothing and takes no shortcut
(`_support.unpacked_planning_loss`), and asserts that the case takes the
branch it names.
"""

import math

import numpy as np
import pytest
from _support import (
    map_arrays,
    one_mode_agents,
    scene,
    unpacked_planning_loss,
    unpacked_refine,
)

from vecplan import simulator
from vecplan.constraints import (
    ConstraintParams,
    LossResult,
    LossWeights,
    constraint_terms,
    map_search,
    weighted_sum,
)
from vecplan.errors import ScenarioFormatError
from vecplan.scene import MapClass, PlanTrajectory, pack

T_F = 6
# straight ahead at 3 m/s, one waypoint a 0.5 s tick
EXPERT = np.column_stack([np.zeros(T_F), 1.5 * np.arange(1, T_F + 1)])
# margins a candidate can clear: 3 m of search range, 1 m on either axis
ROOMY = ConstraintParams(agent_search_range=3.0, lateral_safety=1.0, longitudinal_safety=1.0)


def _terms(plan, scenario, params):
    """The packed terms of `plan` and the reference's, by name."""
    got = dict(zip(("collision", "boundary", "direction"),
                   constraint_terms(plan, pack(scenario, params))))
    want = unpacked_planning_loss(plan, scenario, params, LossWeights())
    return got, want


def _assert_bits(got: LossResult, want) -> None:
    assert np.float64(got.value).tobytes() == np.float64(want[0]).tobytes()
    assert got.grad.tobytes() == want[1].tobytes()


def _agents_at(offsets):
    """One-mode agents that keep their (x, y) offsets from the expert."""
    tracks = np.array([EXPERT + offset for offset in offsets])
    return one_mode_agents(tracks[:, 0] - [0.0, 1.5], tracks)


# each case: the agents' offsets from the plan, and what the loss then sees
COLLISION_CASES = {
    "no_candidate": [(8.0, 0.0), (-6.0, 4.0)],
    "candidates_no_hinge": [(2.0, 2.0), (-2.5, 1.2), (9.0, 0.0)],
    "active_hinge": [(0.5, 1.0), (-2.0, 2.0), (9.0, 0.0)],
}


@pytest.mark.parametrize("mode", ["per_axis", "single_nearest"])
@pytest.mark.parametrize("case", sorted(COLLISION_CASES))
def test_collision_branches_match_the_reference(case, mode):
    params = ConstraintParams(**{**ROOMY.__dict__, "collision_mode": mode})
    s = scene(EXPERT, agents=_agents_at(COLLISION_CASES[case]))
    rng = np.random.default_rng(3)
    plan = PlanTrajectory(EXPERT + rng.normal(0.0, 0.05, EXPERT.shape))
    got, want = _terms(plan, s, params)
    for name in got:
        _assert_bits(got[name], want[name])
    gaps = pack(s, params).agent_tracks - plan.waypoints
    candidates = np.hypot(gaps[..., 0], gaps[..., 1]) <= params.agent_search_range
    if case == "no_candidate":
        assert not candidates.any()
    else:
        assert candidates.any()
        assert (got["collision"].value > 0.0) == (case == "active_hinge")


def _divider(x: float = 0.0):
    """One lane divider along +y at `x`."""
    return map_arrays([[(x, -10.0), (x, 5.0), (x, 20.0)]], [MapClass.LANE_DIVIDER])


# each case: the plan's waypoints against a divider along x = 0, in range
# within 2 m
DIRECTION_CASES = {
    "every_step_active": np.column_stack([0.3 * np.sin(np.arange(T_F)), EXPERT[:, 1]]),
    # on the divider, first step included: each step's turn is 0 and its
    # gradient (-0.0, +0.0), which the plan's gradient takes as +0.0
    "every_step_parallel": EXPERT,
    "some_steps_active": np.column_stack([np.linspace(0.5, 4.0, T_F), EXPERT[:, 1]]),
    "no_step_active": EXPERT + [5.0, 0.0],
    "zero_length_step": np.array([(0.2, 1.5), (0.4, 3.0), (0.4, 3.0), (0.1, 6.0),
                                  (0.3, 7.5), (0.2, 9.0)]),
}


@pytest.mark.parametrize("case", sorted(DIRECTION_CASES))
def test_direction_branches_match_the_reference(case):
    params = ConstraintParams()
    s = scene(EXPERT, map=_divider())
    plan = PlanTrajectory(DIRECTION_CASES[case])
    got, want = _terms(plan, s, params)
    for name in got:
        _assert_bits(got[name], want[name])
    steps = np.diff(plan.waypoints, axis=0, prepend=np.zeros((1, 2)))
    moving = steps.any(axis=1)
    found = map_search(plan, pack(s, params).map, params).found[1]
    active = int(np.count_nonzero(found & moving))
    assert active == {"every_step_active": T_F, "every_step_parallel": T_F,
                      "no_step_active": 0}.get(case, active)
    if case in ("some_steps_active", "zero_length_step"):
        assert 0 < active < T_F
    if case == "zero_length_step":
        assert not moving.all() and found.all()
    if case == "every_step_parallel":
        assert got["direction"].value == 0.0
        assert (got["direction"].grad == 0.0).all()
        assert not np.signbit(got["direction"].grad).any()


def _terms_with_signed_zeros():
    rng = np.random.default_rng(11)
    terms = []
    for k in range(4):
        grad = rng.normal(0.0, 1.0, (T_F, 2))
        grad[k] = (-0.0, 0.0)
        grad[(k + 1) % T_F, 0] = 5e-324
        terms.append(LossResult(float(rng.uniform(0.0, 3.0)), grad))
    return terms


@pytest.mark.parametrize("weights", [(1.0, 1.0, 1.0, 1.0), (1, 1.0, 0.0, 1.0),
                                     (0.7, 1.0, 1.3, 0.4), (2.1, 0.5, 1.0, 1.0),
                                     (0.3, 0.6, 0.9, 1.2)])
def test_weighted_sum_matches_the_products_and_keeps_its_terms(weights):
    terms = _terms_with_signed_zeros()
    before = [t.grad.tobytes() for t in terms]
    got = weighted_sum(list(zip(weights, terms)))
    value, grad = weights[0] * terms[0].value, weights[0] * terms[0].grad
    for weight, term in zip(weights[1:], terms[1:]):
        value = value + weight * term.value
        grad = grad + weight * term.grad
    assert np.float64(got.value).tobytes() == np.float64(value).tobytes()
    assert got.grad.tobytes() == grad.tobytes()
    assert [t.grad.tobytes() for t in terms] == before
    assert not any(np.shares_memory(got.grad, t.grad) for t in terms)


def test_a_single_term_of_weight_one_is_a_copy():
    term = _terms_with_signed_zeros()[0]
    got = weighted_sum([(1.0, term)])
    assert got.grad.tobytes() == term.grad.tobytes()
    assert not np.shares_memory(got.grad, term.grad)


def test_a_descent_clamped_to_the_perception_range_matches_the_reference():
    # a seed plan far outside the range, and steps that land outside it
    s = scene(EXPERT, agents=_agents_at([(0.5, 1.0)]), map=_divider(0.4),
              perception_range=(20.0, 8.0))
    params, weights = ConstraintParams(map_min_confidence=0.0), LossWeights()
    seed_plan = PlanTrajectory(np.full((T_F, 2), 100.0))
    iterates = []
    adopt = PlanTrajectory.adopt.__func__

    def recorded(cls, w):
        iterates.append(w.copy())
        return adopt(cls, w)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(PlanTrajectory, "adopt", classmethod(recorded))
        got = simulator.refine_trajectory(seed_plan, pack(s, params), weights, 20, 5.0)
    want = unpacked_refine(seed_plan, s, params, weights, 20, 5.0)
    assert got.waypoints.tobytes() == want.waypoints.tobytes()
    assert len(iterates) == 20
    high = (4.0, 10.0)
    assert all(np.all(np.abs(w) <= high) for w in iterates)
    assert any((w == high).any() or (w == np.negative(high)).any() for w in iterates)


def test_a_non_finite_iterate_is_refused(monkeypatch):
    s = scene(EXPERT, map=_divider())

    def nan_prior(plan):
        return LossResult(0.0, np.full(plan.waypoints.shape, math.nan))

    monkeypatch.setattr(simulator, "smoothness_loss", nan_prior)
    with pytest.raises(ScenarioFormatError, match="^non-finite plan waypoints$"):
        simulator.refine_trajectory(PlanTrajectory(EXPERT), pack(s, ConstraintParams()),
                                    LossWeights(), 3, 0.2)


@pytest.mark.parametrize("waypoints", [np.zeros((0, 2)), np.zeros((T_F, 3)), np.zeros(T_F),
                                       np.zeros((T_F, 2), dtype=np.float32)])
def test_adopt_refuses_what_the_constructor_refuses(waypoints):
    with pytest.raises(ScenarioFormatError):
        PlanTrajectory.adopt(waypoints)


def test_adopt_makes_the_array_read_only_without_a_copy():
    w = EXPERT.copy()
    plan = PlanTrajectory.adopt(w)
    assert plan.waypoints is w and not w.flags.writeable
    assert plan == PlanTrajectory(EXPERT)
