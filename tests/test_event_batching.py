"""Events in bulk: a signal's migrations materialized and bounded per
migration pattern must equal, bit for bit, the same events taken one by one."""

import dataclasses
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import omaslab.transition as transition
from omaslab.cli import build_bundle
from omaslab.demo import demo_scenario_dict
from omaslab.scenario import parse_scenario, signal_from_dict, signal_to_dict
from omaslab.switching import SwitchingSignal
from omaslab.transition import apply_error_jump, impulse_bounds

from helpers import event_by_itself, impulse_bounds_by_event, kron_err_jump


def _positions(rng, n: int, count: int) -> list[int]:
    return sorted(int(x) + 1 for x in rng.choice(n, size=count, replace=False))


def _random_row(rng, a: int, b: int, sizes: dict[int, int], p: int) -> dict:
    """One event-table row a -> b: random leaves and joins that fit the two
    sizes, and each kind of impulse and dependence gain the schema takes."""
    nb, na = sizes[a], sizes[b]
    n_leave = int(rng.integers(max(0, nb - na), nb + 1))
    n_join = na - nb + n_leave
    row = {"from": a, "to": b, "leaves": _positions(rng, nb, n_leave),
           "joins": _positions(rng, na, n_join)}
    kind = int(rng.integers(5))
    if kind == 1:
        row["impulse"] = rng.standard_normal(p * na).tolist()
    elif kind == 2:
        row["impulse"] = {"radius": float(rng.choice([0.0, 0.53]))}
    elif kind == 3:
        row["impulse"] = {"radius": 1.5, "seed": int(rng.integers(100))}
    kind = int(rng.integers(5))
    if kind == 1:
        gain = rng.standard_normal((p * na, p * nb))
        gain[rng.random(gain.shape) < 0.3] = -0.0  # zeros of either sign
        row["dep_gain"] = gain.tolist()
    elif kind == 2:
        row["dep_gain"] = {"scale": float(rng.choice([0.0, 0.05, 3.0]))}
    elif kind == 3:
        row["dep_gain"] = {"scale": 0.05, "seed": int(rng.integers(100))}
    return row


def random_event_scenario(rng):
    """A scenario of 2-4 modes of 1-5 agents, a random event table in which
    some pairs are missing, and an explicit signal of up to 40 switches."""
    p = int(rng.integers(1, 3))
    sizes = {mid: int(rng.integers(1, 6)) for mid in range(1, int(rng.integers(2, 5)) + 1)}
    rows = [_random_row(rng, a, b, sizes, p)
            for a in sizes for b in sizes if a != b and rng.random() < 0.7]
    modes = [int(rng.choice(list(sizes)))]
    for _ in range(int(rng.integers(0, 41))):
        modes.append(int(rng.choice([m for m in sizes if m != modes[-1]])))
    doc = {
        "dynamics": {"A": np.zeros((p, p)).tolist(), "coupling_gain": -1.0},
        "modes": [{"id": mid, "n_agents": n, "edges": [], "leader_links": [1.0] * n}
                  for mid, n in sizes.items()],
        "signal": {"type": "explicit", "t0": 0.0, "tf": float(len(modes)),
                   "segments": [{"t": float(i), "mode": m} for i, m in enumerate(modes)]},
        "events": rows,
        "initial_state": {"leader": [0.0] * p, "errors": {"radius": 1.0}},
    }
    return parse_scenario(doc), modes


def _same_bits(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), master=st.integers(0, 2**31 - 1),
       chunk=st.sampled_from([1, 200, 2000, transition._NORM_CHUNK_BYTES]))
def test_bulk_events_equal_events_taken_one_by_one(seed, master, chunk):
    rng = np.random.default_rng(seed)
    scenario, modes = random_event_scenario(rng)
    # small chunks cut the stacks mid-group, down to one matrix each
    with mock.patch.object(transition, "_NORM_CHUNK_BYTES", chunk):
        signal = scenario.resolve_signal(master)
        oracle = [event_by_itself(scenario, k, modes[k - 1], modes[k], master)
                  for k in range(1, len(modes))]
        for got, want in zip(signal.events, oracle, strict=True):
            assert (got.time_index, got.joins, got.leaves) == (
                want.time_index, want.joins, want.leaves)
            assert _same_bits(got.dep_gain, want.dep_gain)
            assert _same_bits(got.impulse, want.impulse)
            e = rng.standard_normal(got.p * got.n_before)
            want_jump = kron_err_jump(want) @ e + (0.0 if want.impulse is None else want.impulse)
            assert apply_error_jump(got, e).tobytes() == want_jump.tobytes()
        phi, gain = impulse_bounds_by_event(oracle)
        bounds = impulse_bounds(signal.events)
        assert bounds.err_jump_norm_max == gain
        assert bounds.impulse_norm_max == phi
        # a signal file holds the gains as numbers, and bounds the same
        text = json.dumps(signal_to_dict(signal), default=np.ndarray.tolist)
        from_file = signal_from_dict(json.loads(text), scenario.p)
        assert impulse_bounds(from_file.events) == bounds
        for got, want in zip(from_file.events, oracle):
            assert _same_bits(got.dep_gain, want.dep_gain)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), master=st.integers(0, 2**31 - 1), data=st.data())
def test_a_switch_draws_the_same_rows_whatever_else_is_built(seed, master, data):
    # each random impulse and gain is row k of its keyed stream: built
    # among any subset of the switches, in any order, switch k gets the
    # bits it gets among all of them
    scenario, modes = random_event_scenario(np.random.default_rng(seed))
    switches = [(k, modes[k - 1], modes[k]) for k in range(1, len(modes))]
    whole = {ev.time_index: ev for ev in scenario.build_events(switches, master)}
    some = data.draw(st.permutations(switches).flatmap(
        lambda order: st.integers(0, len(order)).map(lambda n: order[:n])))
    for ev in scenario.build_events(some, master):
        want = whole[ev.time_index]
        assert _same_bits(ev.dep_gain, want.dep_gain)
        assert _same_bits(ev.impulse, want.impulse)
        assert (ev.mode_before, ev.mode_after) == (want.mode_before, want.mode_after)


def _switch_heavy_practical(n_switches: int):
    """The demo practical modes and event table on an explicit signal of
    n_switches switches, one second apart, modes drawn without repeats."""
    rng = np.random.default_rng(7)
    modes = [1]
    for _ in range(n_switches):
        modes.append(int(rng.choice([m for m in (1, 2, 3, 4) if m != modes[-1]])))
    doc = demo_scenario_dict("practical", seed=5)
    doc["signal"] = {"type": "explicit", "t0": 0.0, "tf": float(len(modes)),
                     "segments": [{"t": float(i), "mode": m} for i, m in enumerate(modes)]}
    return parse_scenario(doc), modes


def test_norms_are_taken_per_group_and_chunk_not_per_event(monkeypatch):
    scenario, modes = _switch_heavy_practical(2000)
    eig_calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting_eigvalsh(*args, **kwargs):
        eig_calls.append(np.shape(args[0]))
        return eigvalsh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    for chunk in (transition._NORM_CHUNK_BYTES, 8 * 10 * 10 * 64):
        monkeypatch.setattr(transition, "_NORM_CHUNK_BYTES", chunk)
        eig_calls.clear()
        signal = scenario.resolve_signal(5)
        bounds = impulse_bounds(signal.events)
        # the draws group by shape, the jumps by pattern; each group takes
        # one stacked eigensolve of Gram matrices per chunk
        random_gain = [ev for ev in signal.events
                       if (ev.mode_before, ev.mode_after) in scenario.event_specs]
        draws, patterns = {}, {}
        for ev in random_gain:
            draws.setdefault(ev.dep_gain.shape, []).append(ev)
        for ev in signal.events:
            patterns.setdefault(ev.pattern, []).append(ev)

        def chunks(groups):
            return sum(math.ceil(len(g) / max(1, chunk // (8 * math.prod(shape))))
                       for shape, g in groups)

        want = (chunks(draws.items())
                + chunks(((p * na, p * nb), g) for (p, nb, na, _, _), g in patterns.items()))
        assert len(eig_calls) == want
        assert len(eig_calls) < len(signal.events) / 20
    monkeypatch.undo()

    # the bundle is the one the events taken one by one give
    oracle = tuple(event_by_itself(scenario, k, modes[k - 1], modes[k], 5)
                   for k in range(1, len(modes)))
    by_event = SwitchingSignal(signal.t0, signal.tf, signal.segments, oracle)
    got, want = build_bundle(scenario, signal), build_bundle(scenario, by_event)
    assert bounds.err_jump_norm_max == got.err_jump_norm_max
    # the certificates are the scenario's own, the sweep reads the segments
    for f in dataclasses.fields(got):
        if f.name not in ("certificates", "sweep"):
            assert getattr(got, f.name) == getattr(want, f.name), f.name


def _mixed_draws_scenario():
    """Modes of 2, 3 and 3 agents (p = 2) and an event table that mixes
    random and explicit impulses and gains over several seeds and shapes.
    The impulses of 1 -> 2, 2 -> 3 and 3 -> 2 share the master seed and the
    shape (6,), and the one of radius 0 lies between the other two in the
    signal; the gain of 3 -> 2 has scale 0."""
    rng = np.random.default_rng(3)
    rows = [
        {"from": 1, "to": 2, "joins": [3], "impulse": {"radius": 0.5},
         "dep_gain": {"scale": 0.1, "seed": 4}},
        {"from": 2, "to": 3, "impulse": {"radius": 0.0},
         "dep_gain": rng.standard_normal((6, 6)).tolist()},
        {"from": 3, "to": 2, "impulse": {"radius": 1.5}, "dep_gain": {"scale": 0.0}},
        {"from": 2, "to": 1, "leaves": [3], "impulse": rng.standard_normal(4).tolist(),
         "dep_gain": {"scale": 2.0, "seed": 9}},
        {"from": 3, "to": 1, "leaves": [2], "impulse": {"radius": 0.7, "seed": 5}},
    ]
    modes = [1, 2, 3, 2, 3, 2, 1, 3, 1, 2, 3, 2, 1]
    sizes = {1: 2, 2: 3, 3: 3}
    doc = {
        "dynamics": {"A": np.zeros((2, 2)).tolist(), "coupling_gain": -1.0},
        "modes": [{"id": mid, "n_agents": n, "edges": [], "leader_links": [1.0] * n}
                  for mid, n in sizes.items()],
        "signal": {"type": "explicit", "t0": 0.0, "tf": float(len(modes)),
                   "segments": [{"t": float(i), "mode": m} for i, m in enumerate(modes)]},
        "events": rows,
        "initial_state": {"leader": [0.0, 0.0], "errors": {"radius": 1.0}},
    }
    return parse_scenario(doc), modes


def test_draws_of_size_0_are_positive_zeros():
    scenario, modes = _mixed_draws_scenario()
    signal = scenario.resolve_signal(21)
    impulses = [ev.impulse for ev in signal.events if (ev.mode_before, ev.mode_after) == (2, 3)]
    gains = [ev.dep_gain for ev in signal.events if (ev.mode_before, ev.mode_after) == (3, 2)]
    assert len(impulses) == len(gains) == 3
    for zero, shape in [*((v, (6,)) for v in impulses), *((g, (6, 6)) for g in gains)]:
        assert zero.shape == shape and not zero.any() and not np.signbit(zero).any()


@pytest.mark.parametrize("master", [0, 21, 2**31 - 1])
def test_mixed_draws_equal_events_taken_one_by_one(master):
    # one draw loop over every (field, seed, shape) group gives each event
    # the bits it gets on its own, a zero impulse inside a group included
    scenario, modes = _mixed_draws_scenario()
    signal = scenario.resolve_signal(master)
    for k, got in enumerate(signal.events, start=1):
        want = event_by_itself(scenario, k, modes[k - 1], modes[k], master)
        assert (got.time_index, got.joins, got.leaves) == (want.time_index, want.joins,
                                                           want.leaves)
        assert _same_bits(got.impulse, want.impulse)
        assert _same_bits(got.dep_gain, want.dep_gain)
