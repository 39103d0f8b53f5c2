"""Scenario files: schema validation, resolution and round-trip serialization.

A scenario is a JSON object describing agent dynamics, the mode library,
the switching signal (explicit, generated, or loaded from a file), the
migration event table, the disturbance model, initial conditions, and
certification/simulation options. Random elements (impulses, dependence
gains, initial errors, generated signals) are stored as *specifications*
and only materialized at resolve time from deterministic seed streams, so
a parsed scenario serializes back to the same document.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Union

import numpy as np

from .errors import ConfigError, SchemaError
from .mode_dynamics import AgentDynamics
from .seeding import (
    STREAM_DEP_GAIN,
    STREAM_IMPULSE,
    STREAM_INITIAL,
    stream_rng,
    uniform_in_ball,
    uniform_on_sphere,
)
from .signed_graph import AugmentedMode, SignedDigraph, mode_from_dense, repelling_laplacian
from .simulate import PerturbationModel
from .switching import Segment, SignalGenSpec, SwitchingSignal, generate_signal
from .transition import MigrationEvent


# ---------------------------------------------------------------------------
# spec fragments


@dataclass(frozen=True)
class RandomVectorSpec:
    """Uniform draw from the sphere (impulses) or ball (initial errors)."""

    radius: float
    seed: int | None = None


@dataclass(frozen=True)
class RandomMatrixSpec:
    """Gaussian matrix rescaled to a prescribed spectral norm."""

    scale: float
    seed: int | None = None


@dataclass(frozen=True)
class EventSpec:
    from_mode: int
    to_mode: int
    joins: tuple[int, ...] = ()
    leaves: tuple[int, ...] = ()
    impulse: Union[tuple[float, ...], RandomVectorSpec, None] = None
    dep_gain: Union[tuple[tuple[float, ...], ...], RandomMatrixSpec, None] = None


@dataclass(frozen=True)
class ExplicitSignalSpec:
    t0: float
    tf: float
    segments: tuple[tuple[float, int], ...]


@dataclass(frozen=True)
class GenerateSignalSpec:
    horizon: float
    stable_modes: tuple[int, ...]
    unstable_modes: tuple[int, ...]
    ratio_floor: float
    dwell_floor: float
    margin: float = 0.05
    seed: int | None = None
    t0: float = 0.0


@dataclass(frozen=True)
class FileSignalSpec:
    path: str


@dataclass(frozen=True)
class InitialStateSpec:
    leader: tuple[float, ...]
    errors: Union[tuple[tuple[float, ...], ...], RandomVectorSpec]


@dataclass(frozen=True)
class CertificationOptions:
    gamma_margin: float | None = None
    gamma_common: float | None = None
    chatter_bound: float = 0.0


@dataclass(frozen=True)
class SimulationOptions:
    dt: float = 1e-3
    seed: int = 0
    convergence_tol: float = 1e-3
    tail_fraction: float = 0.2
    max_dim: int = 512
    sample_stride: int | None = None
    integrator: str = "exact"


# ---------------------------------------------------------------------------
# scenario object


@dataclass(eq=False)
class Scenario:
    dynamics: AgentDynamics
    coupling_gain: float
    modes: dict[int, AugmentedMode]
    signal_spec: Union[ExplicitSignalSpec, GenerateSignalSpec, FileSignalSpec]
    event_specs: dict[tuple[int, int], EventSpec] = field(default_factory=dict)
    perturbation: PerturbationModel = PerturbationModel(kind="zero", bound=0.0)
    initial: InitialStateSpec = InitialStateSpec(leader=(0.0,), errors=RandomVectorSpec(1.0))
    certification: CertificationOptions = CertificationOptions()
    simulation: SimulationOptions = SimulationOptions()
    source_dir: str | None = None

    @property
    def p(self) -> int:
        return self.dynamics.p

    def n_agents_of(self, mode_id: int) -> int:
        try:
            return self.modes[mode_id].graph.n_agents
        except KeyError:
            raise ConfigError(f"unknown mode id {mode_id}") from None

    # -- event materialization -------------------------------------------

    def build_event(
        self, k: int, mode_before: int, mode_after: int, master_seed: int
    ) -> MigrationEvent:
        """Materialize the k-th migration from the event table.

        Pairs absent from the table get a pure-size default: trailing agents
        join or leave as needed, no impulse, no dependence gain. Random
        impulses and gains are keyed by the switch index k so a pair that
        recurs in the signal draws fresh values each occurrence.
        """
        nb = self.n_agents_of(mode_before)
        na = self.n_agents_of(mode_after)
        p = self.p
        spec = self.event_specs.get((mode_before, mode_after))
        if spec is None:
            joins = tuple(range(nb + 1, na + 1)) if na > nb else ()
            leaves = tuple(range(na + 1, nb + 1)) if na < nb else ()
            impulse = None
            dep = None
        else:
            joins, leaves = spec.joins, spec.leaves
            if na != nb + len(joins) - len(leaves):
                raise ConfigError(
                    f"event {mode_before}->{mode_after}: joins/leaves give "
                    f"{nb + len(joins) - len(leaves)} agents, mode {mode_after} has {na}"
                )
            impulse = self._materialize_impulse(spec.impulse, k, na, master_seed)
            dep = self._materialize_dep_gain(spec.dep_gain, k, nb, na, master_seed)
        return MigrationEvent(
            time_index=k,
            mode_before=mode_before,
            mode_after=mode_after,
            n_before=nb,
            n_after=na,
            joins=joins,
            leaves=leaves,
            impulse=impulse,
            dep_gain=dep,
        )

    def _materialize_impulse(self, spec, k: int, n_after: int, master: int):
        if spec is None:
            return None
        dim = self.p * n_after
        if isinstance(spec, RandomVectorSpec):
            if spec.radius == 0.0:
                return np.zeros(dim)
            rng = stream_rng(master if spec.seed is None else spec.seed, STREAM_IMPULSE, k)
            return uniform_on_sphere(rng, dim, spec.radius)
        arr = np.asarray(spec, dtype=float)
        if arr.shape != (dim,):
            raise ConfigError(f"impulse has shape {arr.shape}, expected ({dim},)")
        return arr

    def _materialize_dep_gain(self, spec, k: int, n_before: int, n_after: int, master: int):
        if spec is None:
            return None
        shape = (self.p * n_after, self.p * n_before)
        if isinstance(spec, RandomMatrixSpec):
            rng = stream_rng(master if spec.seed is None else spec.seed, STREAM_DEP_GAIN, k)
            raw = rng.standard_normal(shape)
            top = float(np.linalg.norm(raw, 2))
            if top < 1e-300 or spec.scale == 0.0:
                return np.zeros(shape)
            return raw * (spec.scale / top)
        arr = np.asarray(spec, dtype=float)
        if arr.shape != shape:
            raise ConfigError(f"dep_gain has shape {arr.shape}, expected {shape}")
        return arr

    # -- signal resolution -------------------------------------------------

    def resolve_signal(self, master_seed: int) -> SwitchingSignal:
        spec = self.signal_spec
        if isinstance(spec, FileSignalSpec):
            path = spec.path
            if not os.path.isabs(path) and self.source_dir:
                path = os.path.join(self.source_dir, path)
            with open(path) as fh:
                return signal_from_dict(json.load(fh))
        if isinstance(spec, ExplicitSignalSpec):
            segments = tuple(Segment(start=t, mode=m) for t, m in spec.segments)
            events = tuple(
                self.build_event(k, segments[k - 1].mode, segments[k].mode, master_seed)
                for k in range(1, len(segments))
            )
            return SwitchingSignal(t0=spec.t0, tf=spec.tf, segments=segments, events=events)
        for m in tuple(spec.stable_modes) + tuple(spec.unstable_modes):
            self.n_agents_of(m)  # raises on unknown ids
        gen = SignalGenSpec(
            horizon=spec.horizon,
            stable_modes=spec.stable_modes,
            unstable_modes=spec.unstable_modes,
            ratio_floor=spec.ratio_floor,
            dwell_floor=spec.dwell_floor,
            seed=master_seed if spec.seed is None else spec.seed,
            margin=spec.margin,
            t0=spec.t0,
        )
        return generate_signal(
            gen, event_builder=lambda k, mb, ma: self.build_event(k, mb, ma, master_seed)
        )

    # -- initial condition ---------------------------------------------------

    def resolve_initial_state(
        self, master_seed: int, first_mode: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """(leader state, stacked tracking errors) at t0.

        Follower i starts at leader + err_i; for the random form the stacked
        error vector is drawn uniformly from the ball, so its norm is at
        most the requested radius.
        """
        n1 = self.n_agents_of(first_mode)
        p = self.p
        leader = np.asarray(self.initial.leader, dtype=float)
        spec = self.initial.errors
        if isinstance(spec, RandomVectorSpec):
            seed = master_seed if spec.seed is None else spec.seed
            rng = stream_rng(seed, STREAM_INITIAL, 0)
            err = uniform_in_ball(rng, p * n1, spec.radius)
        else:
            arr = np.asarray(spec, dtype=float)
            if arr.shape != (n1, p):
                raise ConfigError(
                    f"initial errors have shape {arr.shape}, expected ({n1}, {p})"
                )
            err = arr.reshape(-1)
        return leader, err


# ---------------------------------------------------------------------------
# parsing helpers


def _fail(path: str, msg: str) -> None:
    raise SchemaError(f"{path}: {msg}")


def _obj(v: Any, path: str) -> dict:
    if not isinstance(v, dict):
        _fail(path, f"expected an object, got {type(v).__name__}")
    return v


def _arr(v: Any, path: str) -> list:
    if not isinstance(v, list):
        _fail(path, f"expected an array, got {type(v).__name__}")
    return v


def _num(v: Any, path: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        _fail(path, f"expected a number, got {type(v).__name__}")
    return float(v)


def _int(v: Any, path: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        _fail(path, f"expected an integer, got {type(v).__name__}")
    return v


def _str(v: Any, path: str) -> str:
    if not isinstance(v, str):
        _fail(path, f"expected a string, got {type(v).__name__}")
    return v


def _get(d: dict, key: str, path: str) -> Any:
    if key not in d:
        _fail(f"{path}.{key}", "missing required field")
    return d[key]


def _reject_unknown(d: dict, allowed: set[str], path: str) -> None:
    extra = set(d) - allowed
    if extra:
        _fail(path, f"unknown field(s) {sorted(extra)}")


def _matrix(v: Any, path: str) -> list[list[float]]:
    rows = _arr(v, path)
    if not rows:
        _fail(path, "matrix must have at least one row")
    out = []
    width = None
    for i, row in enumerate(rows):
        r = [_num(x, f"{path}[{i}][{j}]") for j, x in enumerate(_arr(row, f"{path}[{i}]"))]
        if width is None:
            width = len(r)
        elif len(r) != width:
            _fail(f"{path}[{i}]", f"ragged row: {len(r)} entries, expected {width}")
        out.append(r)
    return out


def _vector(v: Any, path: str) -> list[float]:
    return [_num(x, f"{path}[{i}]") for i, x in enumerate(_arr(v, path))]


def _int_list(v: Any, path: str) -> list[int]:
    return [_int(x, f"{path}[{i}]") for i, x in enumerate(_arr(v, path))]


# ---------------------------------------------------------------------------
# section parsers


def _parse_dynamics(d: dict, path: str) -> tuple[AgentDynamics, float]:
    _reject_unknown(d, {"A", "coupling_gain"}, path)
    A = np.array(_matrix(_get(d, "A", path), f"{path}.A"))
    if A.shape[0] != A.shape[1]:
        _fail(f"{path}.A", f"must be square, got {A.shape}")
    gain = _num(_get(d, "coupling_gain", path), f"{path}.coupling_gain")
    try:
        dyn = AgentDynamics(A=A)
    except (ConfigError, ValueError) as exc:
        _fail(f"{path}.A", str(exc))
    return dyn, gain


def _parse_mode(d: dict, path: str) -> AugmentedMode:
    d = _obj(d, path)
    mid = _int(_get(d, "id", path), f"{path}.id")
    if "L" in d:
        _reject_unknown(d, {"id", "L", "D"}, path)
        L = np.array(_matrix(_get(d, "L", path), f"{path}.L"))
        D = _vector(_get(d, "D", path), f"{path}.D")
        if L.shape[0] != L.shape[1]:
            _fail(f"{path}.L", f"must be square, got {L.shape}")
        if len(D) != L.shape[0]:
            _fail(f"{path}.D", f"has {len(D)} entries, L is {L.shape[0]}x{L.shape[0]}")
        try:
            return mode_from_dense(L, np.array(D), mode_id=mid)
        except (ConfigError, ValueError) as exc:
            _fail(path, str(exc))
    _reject_unknown(d, {"id", "n_agents", "edges", "leader_links"}, path)
    n = _int(_get(d, "n_agents", path), f"{path}.n_agents")
    edges = []
    for i, e in enumerate(_arr(_get(d, "edges", path), f"{path}.edges")):
        row = _arr(e, f"{path}.edges[{i}]")
        if len(row) != 3:
            _fail(f"{path}.edges[{i}]", "expected [src, dst, weight]")
        edges.append(
            (
                _int(row[0], f"{path}.edges[{i}][0]"),
                _int(row[1], f"{path}.edges[{i}][1]"),
                _num(row[2], f"{path}.edges[{i}][2]"),
            )
        )
    links = _vector(_get(d, "leader_links", path), f"{path}.leader_links")
    try:
        graph = SignedDigraph(n_agents=n, edges=tuple(edges))
        return AugmentedMode(graph=graph, leader_links=tuple(links), mode_id=mid)
    except (ConfigError, ValueError) as exc:
        _fail(path, str(exc))


def _parse_signal(d: dict, path: str):
    d = _obj(d, path)
    kind = _str(_get(d, "type", path), f"{path}.type")
    if kind == "explicit":
        _reject_unknown(d, {"type", "t0", "tf", "segments"}, path)
        segs = []
        for i, s in enumerate(_arr(_get(d, "segments", path), f"{path}.segments")):
            s = _obj(s, f"{path}.segments[{i}]")
            _reject_unknown(s, {"t", "mode"}, f"{path}.segments[{i}]")
            segs.append(
                (
                    _num(_get(s, "t", f"{path}.segments[{i}]"), f"{path}.segments[{i}].t"),
                    _int(_get(s, "mode", f"{path}.segments[{i}]"), f"{path}.segments[{i}].mode"),
                )
            )
        if not segs:
            _fail(f"{path}.segments", "must not be empty")
        return ExplicitSignalSpec(
            t0=_num(_get(d, "t0", path), f"{path}.t0"),
            tf=_num(_get(d, "tf", path), f"{path}.tf"),
            segments=tuple(segs),
        )
    if kind == "generate":
        allowed = {
            "type", "horizon", "stable_modes", "unstable_modes",
            "ratio_floor", "dwell_floor", "margin", "seed", "t0",
        }
        _reject_unknown(d, allowed, path)
        seed = d.get("seed")
        if seed is not None:
            seed = _int(seed, f"{path}.seed")
        return GenerateSignalSpec(
            horizon=_num(_get(d, "horizon", path), f"{path}.horizon"),
            stable_modes=tuple(_int_list(_get(d, "stable_modes", path), f"{path}.stable_modes")),
            unstable_modes=tuple(
                _int_list(_get(d, "unstable_modes", path), f"{path}.unstable_modes")
            ),
            ratio_floor=_num(_get(d, "ratio_floor", path), f"{path}.ratio_floor"),
            dwell_floor=_num(_get(d, "dwell_floor", path), f"{path}.dwell_floor"),
            margin=_num(d.get("margin", 0.05), f"{path}.margin"),
            seed=seed,
            t0=_num(d.get("t0", 0.0), f"{path}.t0"),
        )
    if kind == "file":
        _reject_unknown(d, {"type", "path"}, path)
        return FileSignalSpec(path=_str(_get(d, "path", path), f"{path}.path"))
    _fail(f"{path}.type", f"expected 'explicit', 'generate' or 'file', got {kind!r}")


def _parse_impulse_spec(v: Any, path: str):
    if v is None:
        return None
    if isinstance(v, dict):
        _reject_unknown(v, {"radius", "seed"}, path)
        seed = v.get("seed")
        if seed is not None:
            seed = _int(seed, f"{path}.seed")
        radius = _num(_get(v, "radius", path), f"{path}.radius")
        if radius < 0.0:
            _fail(f"{path}.radius", "must be >= 0")
        return RandomVectorSpec(radius=radius, seed=seed)
    return tuple(_vector(v, path))


def _parse_dep_gain_spec(v: Any, path: str):
    if v is None:
        return None
    if isinstance(v, dict):
        _reject_unknown(v, {"scale", "seed"}, path)
        seed = v.get("seed")
        if seed is not None:
            seed = _int(seed, f"{path}.seed")
        scale = _num(_get(v, "scale", path), f"{path}.scale")
        if scale < 0.0:
            _fail(f"{path}.scale", "must be >= 0")
        return RandomMatrixSpec(scale=scale, seed=seed)
    return tuple(tuple(row) for row in _matrix(v, path))


def _parse_event(d: dict, path: str) -> EventSpec:
    d = _obj(d, path)
    _reject_unknown(d, {"from", "to", "joins", "leaves", "impulse", "dep_gain"}, path)
    return EventSpec(
        from_mode=_int(_get(d, "from", path), f"{path}.from"),
        to_mode=_int(_get(d, "to", path), f"{path}.to"),
        joins=tuple(_int_list(d.get("joins", []), f"{path}.joins")),
        leaves=tuple(_int_list(d.get("leaves", []), f"{path}.leaves")),
        impulse=_parse_impulse_spec(d.get("impulse"), f"{path}.impulse"),
        dep_gain=_parse_dep_gain_spec(d.get("dep_gain"), f"{path}.dep_gain"),
    )


def _parse_perturbation(d: dict, path: str, p: int) -> PerturbationModel:
    d = _obj(d, path)
    _reject_unknown(d, {"kind", "bound", "amplitude", "frequency", "hold", "seed"}, path)
    kind = _str(_get(d, "kind", path), f"{path}.kind")
    amp = d.get("amplitude")
    if amp is not None:
        amp = tuple(_vector(amp, f"{path}.amplitude"))
        if len(amp) != p:
            _fail(f"{path}.amplitude", f"has {len(amp)} entries, agent dimension is {p}")
    seed = d.get("seed")
    if seed is not None:
        seed = _int(seed, f"{path}.seed")
    try:
        return PerturbationModel(
            kind=kind,
            bound=_num(d.get("bound", 0.0), f"{path}.bound"),
            amplitude=amp,
            frequency=_num(d.get("frequency", 1.0), f"{path}.frequency"),
            hold=_num(d.get("hold", 0.05), f"{path}.hold"),
            seed=seed,
        )
    except ConfigError as exc:
        _fail(path, str(exc))


def _parse_initial(d: dict, path: str, p: int) -> InitialStateSpec:
    d = _obj(d, path)
    _reject_unknown(d, {"leader", "errors"}, path)
    leader = tuple(_vector(_get(d, "leader", path), f"{path}.leader"))
    if len(leader) != p:
        _fail(f"{path}.leader", f"has {len(leader)} entries, agent dimension is {p}")
    ev = _get(d, "errors", path)
    if isinstance(ev, dict):
        _reject_unknown(ev, {"radius", "seed"}, f"{path}.errors")
        seed = ev.get("seed")
        if seed is not None:
            seed = _int(seed, f"{path}.errors.seed")
        radius = _num(_get(ev, "radius", f"{path}.errors"), f"{path}.errors.radius")
        if radius < 0.0:
            _fail(f"{path}.errors.radius", "must be >= 0")
        errors: Any = RandomVectorSpec(radius=radius, seed=seed)
    else:
        errors = tuple(tuple(row) for row in _matrix(ev, f"{path}.errors"))
        for i, row in enumerate(errors):
            if len(row) != p:
                _fail(f"{path}.errors[{i}]", f"has {len(row)} entries, agent dimension is {p}")
    return InitialStateSpec(leader=leader, errors=errors)


def _parse_certification(d: dict, path: str) -> CertificationOptions:
    d = _obj(d, path)
    _reject_unknown(d, {"gamma_margin", "gamma_common", "chatter_bound"}, path)
    gm = d.get("gamma_margin")
    if gm is not None:
        gm = _num(gm, f"{path}.gamma_margin")
        if gm <= 0.0:
            _fail(f"{path}.gamma_margin", "must be positive")
    gc = d.get("gamma_common")
    if gc is not None:
        gc = _num(gc, f"{path}.gamma_common")
        if gc >= 0.0:
            _fail(f"{path}.gamma_common", "must be negative")
    cb = _num(d.get("chatter_bound", 0.0), f"{path}.chatter_bound")
    if cb < 0.0:
        _fail(f"{path}.chatter_bound", "must be >= 0")
    return CertificationOptions(gamma_margin=gm, gamma_common=gc, chatter_bound=cb)


def _parse_simulation(d: dict, path: str) -> SimulationOptions:
    d = _obj(d, path)
    allowed = {
        "dt", "seed", "convergence_tol", "tail_fraction",
        "max_dim", "sample_stride", "integrator",
    }
    _reject_unknown(d, allowed, path)
    stride = d.get("sample_stride")
    if stride is not None:
        stride = _int(stride, f"{path}.sample_stride")
        if stride < 1:
            _fail(f"{path}.sample_stride", "must be >= 1")
    integ = d.get("integrator", "exact")
    if integ not in ("exact", "rk4"):
        _fail(f"{path}.integrator", f"expected 'exact' or 'rk4', got {integ!r}")
    dt = _num(d.get("dt", 1e-3), f"{path}.dt")
    if dt <= 0.0:
        _fail(f"{path}.dt", "must be positive")
    tf = _num(d.get("tail_fraction", 0.2), f"{path}.tail_fraction")
    if not 0.0 < tf <= 1.0:
        _fail(f"{path}.tail_fraction", "must be in (0, 1]")
    return SimulationOptions(
        dt=dt,
        seed=_int(d.get("seed", 0), f"{path}.seed"),
        convergence_tol=_num(d.get("convergence_tol", 1e-3), f"{path}.convergence_tol"),
        tail_fraction=tf,
        max_dim=_int(d.get("max_dim", 512), f"{path}.max_dim"),
        sample_stride=stride,
        integrator=integ,
    )


def parse_scenario(data: dict, source_dir: str | None = None) -> Scenario:
    """Validate a scenario document and build the in-memory object.

    Field errors are reported with dotted paths (e.g. "modes[2].L").
    """
    data = _obj(data, "scenario")
    allowed = {
        "dynamics", "modes", "signal", "events", "perturbation",
        "initial_state", "certification", "simulation",
    }
    _reject_unknown(data, allowed, "scenario")
    dyn, gain = _parse_dynamics(_obj(_get(data, "dynamics", "scenario"), "dynamics"), "dynamics")
    modes: dict[int, AugmentedMode] = {}
    for i, md in enumerate(_arr(_get(data, "modes", "scenario"), "modes")):
        mode = _parse_mode(md, f"modes[{i}]")
        if mode.mode_id in modes:
            _fail(f"modes[{i}].id", f"duplicate mode id {mode.mode_id}")
        modes[mode.mode_id] = mode
    if not modes:
        _fail("modes", "must not be empty")
    signal = _parse_signal(_get(data, "signal", "scenario"), "signal")
    events: dict[tuple[int, int], EventSpec] = {}
    for i, ed in enumerate(_arr(data.get("events", []), "events")):
        spec = _parse_event(ed, f"events[{i}]")
        key = (spec.from_mode, spec.to_mode)
        if key in events:
            _fail(f"events[{i}]", f"duplicate event for pair {key}")
        for m, side in ((spec.from_mode, "from"), (spec.to_mode, "to")):
            if m not in modes:
                _fail(f"events[{i}].{side}", f"unknown mode id {m}")
        events[key] = spec
    if "perturbation" in data:
        pert = _parse_perturbation(data["perturbation"], "perturbation", dyn.p)
    else:
        pert = PerturbationModel(kind="zero", bound=0.0)
    initial = _parse_initial(_get(data, "initial_state", "scenario"), "initial_state", dyn.p)
    cert = (
        _parse_certification(data["certification"], "certification")
        if "certification" in data
        else CertificationOptions()
    )
    sim = (
        _parse_simulation(data["simulation"], "simulation")
        if "simulation" in data
        else SimulationOptions()
    )
    # referential checks that need the whole document
    if isinstance(signal, ExplicitSignalSpec):
        for i, (_, m) in enumerate(signal.segments):
            if m not in modes:
                _fail(f"signal.segments[{i}].mode", f"unknown mode id {m}")
    elif isinstance(signal, GenerateSignalSpec):
        for name, ids in (("stable_modes", signal.stable_modes),
                          ("unstable_modes", signal.unstable_modes)):
            for i, m in enumerate(ids):
                if m not in modes:
                    _fail(f"signal.{name}[{i}]", f"unknown mode id {m}")
    return Scenario(
        dynamics=dyn,
        coupling_gain=gain,
        modes=modes,
        signal_spec=signal,
        event_specs=events,
        perturbation=pert,
        initial=initial,
        certification=cert,
        simulation=sim,
        source_dir=source_dir,
    )


def load_scenario(path: str) -> Scenario:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"scenario: invalid JSON ({exc})") from exc
    return parse_scenario(data, source_dir=os.path.dirname(os.path.abspath(path)))


# ---------------------------------------------------------------------------
# serialization


def _mode_to_dict(mode: AugmentedMode) -> dict:
    L = repelling_laplacian(mode.graph)
    return {
        "id": mode.mode_id,
        "L": [[float(x) for x in row] for row in L],
        "D": [float(x) for x in mode.leader_links],
    }


def _signal_spec_to_dict(spec) -> dict:
    if isinstance(spec, ExplicitSignalSpec):
        return {
            "type": "explicit",
            "t0": spec.t0,
            "tf": spec.tf,
            "segments": [{"t": t, "mode": m} for t, m in spec.segments],
        }
    if isinstance(spec, GenerateSignalSpec):
        out = {
            "type": "generate",
            "horizon": spec.horizon,
            "stable_modes": list(spec.stable_modes),
            "unstable_modes": list(spec.unstable_modes),
            "ratio_floor": spec.ratio_floor,
            "dwell_floor": spec.dwell_floor,
            "margin": spec.margin,
            "t0": spec.t0,
        }
        if spec.seed is not None:
            out["seed"] = spec.seed
        return out
    return {"type": "file", "path": spec.path}


def _event_spec_to_dict(spec: EventSpec) -> dict:
    out: dict[str, Any] = {"from": spec.from_mode, "to": spec.to_mode}
    if spec.joins:
        out["joins"] = list(spec.joins)
    if spec.leaves:
        out["leaves"] = list(spec.leaves)
    if isinstance(spec.impulse, RandomVectorSpec):
        imp: Any = {"radius": spec.impulse.radius}
        if spec.impulse.seed is not None:
            imp["seed"] = spec.impulse.seed
        out["impulse"] = imp
    elif spec.impulse is not None:
        out["impulse"] = list(spec.impulse)
    if isinstance(spec.dep_gain, RandomMatrixSpec):
        dg: Any = {"scale": spec.dep_gain.scale}
        if spec.dep_gain.seed is not None:
            dg["seed"] = spec.dep_gain.seed
        out["dep_gain"] = dg
    elif spec.dep_gain is not None:
        out["dep_gain"] = [list(row) for row in spec.dep_gain]
    return out


def scenario_to_dict(s: Scenario) -> dict:
    """Canonical document form; parse(scenario_to_dict(s)) reproduces s."""
    pert: dict[str, Any] = {"kind": s.perturbation.kind, "bound": s.perturbation.bound}
    if s.perturbation.amplitude is not None:
        pert["amplitude"] = list(s.perturbation.amplitude)
    if s.perturbation.kind == "sinusoidal":
        pert["frequency"] = s.perturbation.frequency
    if s.perturbation.kind == "random":
        pert["hold"] = s.perturbation.hold
    if s.perturbation.seed is not None:
        pert["seed"] = s.perturbation.seed
    init: dict[str, Any] = {"leader": list(s.initial.leader)}
    if isinstance(s.initial.errors, RandomVectorSpec):
        e: Any = {"radius": s.initial.errors.radius}
        if s.initial.errors.seed is not None:
            e["seed"] = s.initial.errors.seed
        init["errors"] = e
    else:
        init["errors"] = [list(row) for row in s.initial.errors]
    cert: dict[str, Any] = {"chatter_bound": s.certification.chatter_bound}
    if s.certification.gamma_margin is not None:
        cert["gamma_margin"] = s.certification.gamma_margin
    if s.certification.gamma_common is not None:
        cert["gamma_common"] = s.certification.gamma_common
    sim: dict[str, Any] = {
        "dt": s.simulation.dt,
        "seed": s.simulation.seed,
        "convergence_tol": s.simulation.convergence_tol,
        "tail_fraction": s.simulation.tail_fraction,
        "max_dim": s.simulation.max_dim,
        "integrator": s.simulation.integrator,
    }
    if s.simulation.sample_stride is not None:
        sim["sample_stride"] = s.simulation.sample_stride
    return {
        "dynamics": {
            "A": [[float(x) for x in row] for row in s.dynamics.A],
            "coupling_gain": s.coupling_gain,
        },
        "modes": [_mode_to_dict(s.modes[mid]) for mid in sorted(s.modes)],
        "signal": _signal_spec_to_dict(s.signal_spec),
        "events": [
            _event_spec_to_dict(s.event_specs[k]) for k in sorted(s.event_specs)
        ],
        "perturbation": pert,
        "initial_state": init,
        "certification": cert,
        "simulation": sim,
    }


# ---------------------------------------------------------------------------
# materialized signal files (written by gen-signal, referenced by type "file")


def signal_to_dict(sig: SwitchingSignal) -> dict:
    events = []
    for ev in sig.events:
        events.append(
            {
                "k": ev.time_index,
                "from": ev.mode_before,
                "to": ev.mode_after,
                "n_before": ev.n_before,
                "n_after": ev.n_after,
                "joins": list(ev.joins),
                "leaves": list(ev.leaves),
                "impulse": None if ev.impulse is None else [float(x) for x in ev.impulse],
                "dep_gain": None
                if ev.dep_gain is None
                else [[float(x) for x in row] for row in ev.dep_gain],
            }
        )
    return {
        "t0": sig.t0,
        "tf": sig.tf,
        "segments": [{"t": seg.start, "mode": seg.mode} for seg in sig.segments],
        "events": events,
    }


def signal_from_dict(data: dict) -> SwitchingSignal:
    data = _obj(data, "signal")
    _reject_unknown(data, {"t0", "tf", "segments", "events"}, "signal")
    segs = []
    for i, s in enumerate(_arr(_get(data, "segments", "signal"), "signal.segments")):
        s = _obj(s, f"signal.segments[{i}]")
        segs.append(
            Segment(
                start=_num(_get(s, "t", f"signal.segments[{i}]"), f"signal.segments[{i}].t"),
                mode=_int(_get(s, "mode", f"signal.segments[{i}]"), f"signal.segments[{i}].mode"),
            )
        )
    events = []
    for i, e in enumerate(_arr(data.get("events", []), "signal.events")):
        e = _obj(e, f"signal.events[{i}]")
        path = f"signal.events[{i}]"
        imp = e.get("impulse")
        dg = e.get("dep_gain")
        try:
            events.append(
                MigrationEvent(
                    time_index=_int(_get(e, "k", path), f"{path}.k"),
                    mode_before=_int(_get(e, "from", path), f"{path}.from"),
                    mode_after=_int(_get(e, "to", path), f"{path}.to"),
                    n_before=_int(_get(e, "n_before", path), f"{path}.n_before"),
                    n_after=_int(_get(e, "n_after", path), f"{path}.n_after"),
                    joins=tuple(_int_list(e.get("joins", []), f"{path}.joins")),
                    leaves=tuple(_int_list(e.get("leaves", []), f"{path}.leaves")),
                    impulse=None if imp is None else np.array(_vector(imp, f"{path}.impulse")),
                    dep_gain=None if dg is None else np.array(_matrix(dg, f"{path}.dep_gain")),
                )
            )
        except ConfigError as exc:
            _fail(path, str(exc))
    try:
        return SwitchingSignal(
            t0=_num(_get(data, "t0", "signal"), "signal.t0"),
            tf=_num(_get(data, "tf", "signal"), "signal.tf"),
            segments=tuple(segs),
            events=tuple(events),
        )
    except ConfigError as exc:
        raise SchemaError(f"signal: {exc}") from exc
