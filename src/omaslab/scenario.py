"""Scenario files: schema validation, resolution and signal files.

A scenario is a JSON object describing agent dynamics, the mode library,
the switching signal (explicit, generated, or loaded from a file), the
migration event table, the disturbance model, initial conditions, and
certification/simulation options. Random elements are stored as
*specifications* and only materialized at resolve time from keyed seed
streams, because their draws depend on the master seed of each run: an
impulse, a dependence gain and the initial errors are each one RandomSpec (a
size, named `radius` or `scale` in the document, and an optional seed), and
a generated signal is its SignalGenSpec. Scenario.build_events draws every
random impulse and gain of a signal in one loop over (field, seed, shape)
groups.

Each section is parsed straight into the type the library uses, passing on
only the keys the document gives: an absent field takes the default that
type declares, and a field without one is required.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import MISSING, dataclass, field, fields, replace
from typing import Any, Callable, Sequence, Union

import numpy as np

from .certificate import ModeCertificate, solve_mode_certificate
from .errors import AssumptionViolation, CertificateError, ConfigError, SchemaError
from .mode_dynamics import (DEFAULT_MAX_DIM, AgentDynamics, ModeMatrix, build_mode_matrices,
                            coupling_gain_bound)
from .seeding import STREAM_DEP_GAIN, STREAM_IMPULSE, STREAM_INITIAL, KeyedRows
from .signed_graph import (AugmentedMode, Edge, ModeClass, SignedDigraph, check_edge,
                           mode_from_dense)
from .simulate import DEFAULT_DT, PerturbationModel
from .switching import (Segment, SignalGenSpec, SwitchingSignal, check_layout,
                        generate_segments)
from .transition import MigrationEvent, spectral_norms

# a switch's random field -> (its keyed stream, the norm its size is given in)
_DRAWS = {
    "impulse": (STREAM_IMPULSE, lambda rows: np.linalg.norm(rows, axis=1)),
    "dep_gain": (STREAM_DEP_GAIN, spectral_norms),
}


# ---------------------------------------------------------------------------
# spec fragments


@dataclass(frozen=True)
class RandomSpec:
    """A keyed Gaussian draw of a given size: an impulse of 2-norm size, a
    dependence gain of spectral norm size, or initial errors uniform in the
    ball of radius size. The document names size `radius` or `scale`."""

    size: float
    seed: int | None = None


@dataclass(frozen=True)
class EventSpec:
    from_mode: int
    to_mode: int
    joins: tuple[int, ...] = ()
    leaves: tuple[int, ...] = ()
    impulse: Union[tuple[float, ...], RandomSpec, None] = None
    dep_gain: Union[tuple[tuple[float, ...], ...], RandomSpec, None] = None


@dataclass(frozen=True)
class ExplicitSignalSpec:
    t0: float
    tf: float
    segments: tuple[Segment, ...]

    def __post_init__(self) -> None:
        check_layout(self.t0, self.tf, self.segments)


@dataclass(frozen=True)
class FileSignalSpec:
    path: str


@dataclass(frozen=True)
class InitialStateSpec:
    leader: tuple[float, ...]
    errors: Union[tuple[tuple[float, ...], ...], RandomSpec]


@dataclass(frozen=True)
class CertificationOptions:
    gamma_margin: float | None = None
    gamma_common: float | None = None
    chatter_bound: float = 0.0


@dataclass(frozen=True)
class SimulationOptions:
    dt: float = DEFAULT_DT
    seed: int = 0
    convergence_tol: float = 1e-3
    tail_fraction: float = 0.2
    max_dim: int = DEFAULT_MAX_DIM
    sample_stride: int | None = None
    integrator: str = "exact"


# ---------------------------------------------------------------------------
# scenario object


@dataclass(eq=False)
class Scenario:
    """A parsed scenario document.

    An absent events, perturbation, certification or simulation section
    takes the default below: no event table, no forcing, default options.
    """

    dynamics: AgentDynamics
    coupling_gain: float
    modes: dict[int, AugmentedMode]
    signal_spec: Union[ExplicitSignalSpec, SignalGenSpec, FileSignalSpec]
    initial: InitialStateSpec
    source_dir: str | None
    event_specs: dict[tuple[int, int], EventSpec] = field(default_factory=dict)
    perturbation: PerturbationModel = PerturbationModel(kind="zero")
    certification: CertificationOptions = CertificationOptions()
    simulation: SimulationOptions = SimulationOptions()
    _matrices: dict[int, ModeMatrix] | None = field(default=None, init=False, repr=False)
    _certificates: dict[int, ModeCertificate] | None = field(
        default=None, init=False, repr=False
    )
    _file_signal: SwitchingSignal | None = field(default=None, init=False, repr=False)

    @property
    def p(self) -> int:
        return self.dynamics.p

    def n_agents_of(self, mode_id: int) -> int:
        try:
            return self.modes[mode_id].graph.n_agents
        except KeyError:
            raise ConfigError(f"unknown mode id {mode_id}") from None

    def master_seed(self, seed: int | None) -> int:
        """The given master seed, or the scenario's own when None."""
        return self.simulation.seed if seed is None else int(seed)

    def mode_matrices(self) -> dict[int, ModeMatrix]:
        """The stacked error matrices of every mode, keyed by mode id.

        Built on the first call and kept, since a parsed scenario does not
        change: certification and every seed of a sweep share one set.
        """
        if self._matrices is None:
            self._matrices = build_mode_matrices(
                self.dynamics, list(self.modes.values()), self.coupling_gain,
                max_dim=self.simulation.max_dim,
            )
        return self._matrices

    def mode_certificates(self) -> dict[int, ModeCertificate]:
        """Each mode's certificate at the scenario's gamma margin, keyed by
        mode id: the half of certification no seed changes.

        AssumptionViolation when no mode is positive spanning or one is
        negative-minority, CertificateError when the coupling gain is not
        strictly below its admissible bound. Solved on the first call that
        passes and kept, as the mode matrices are; a refusal is not kept.
        """
        if self._certificates is None:
            modes = list(self.modes.values())
            classes = {m.mode_id: m.mode_class for m in modes}
            if ModeClass.POSITIVE_SPANNING not in classes.values():
                raise AssumptionViolation(
                    "no mode is positive with a leader-rooted spanning tree; "
                    "nothing can contract the tracking errors"
                )
            minority = sorted(mid for mid, c in classes.items()
                              if c is ModeClass.NEGATIVE_MINORITY)
            if minority:
                raise AssumptionViolation(
                    f"mode(s) {minority} have negative edges without a negative majority; "
                    "such modes are outside the certified family"
                )
            bound = coupling_gain_bound(self.dynamics, modes)
            if not self.coupling_gain < bound:
                raise CertificateError(
                    f"coupling gain {self.coupling_gain} is not strictly below the "
                    f"admissible bound {bound:.6g}; certification refused"
                )
            margin = self.certification.gamma_margin
            self._certificates = {
                mid: solve_mode_certificate(mm, gamma_margin=margin)
                for mid, mm in sorted(self.mode_matrices().items())
            }
        return self._certificates

    # -- event materialization -------------------------------------------

    def build_events(
        self, switches: Sequence[tuple[int, int, int]], master_seed: int
    ) -> tuple[MigrationEvent, ...]:
        """Materialize the migrations (k, mode_before, mode_after) from the
        event table, in the order given.

        Pairs absent from the table get a pure-size default: trailing agents
        join or leave as needed, no impulse, no dependence gain. A random
        impulse or gain of switch k is row k of its keyed stream (seeding.
        KeyedRows) of its seed and shape, so a pair that recurs in the
        signal draws fresh values each occurrence, and a switch's draws do
        not depend on which other switches are built. The rows of one field,
        seed and shape are read as one block read and their norms taken as
        one stack: the 2-norm of an impulse, the spectral norm of a gain.
        Each row is then rescaled in place to its size; a row of size 0, or
        of norm below 1e-300, is zero.
        """
        p = self.p
        events: list[dict[str, Any]] = []
        # (field, seed, shape) -> [(event, k, size)]
        drawn: dict[tuple[str, int, tuple[int, ...]], list[tuple[dict, int, float]]] = {}
        for k, mode_before, mode_after in switches:
            nb = self.n_agents_of(mode_before)
            na = self.n_agents_of(mode_after)
            ev: dict[str, Any] = dict(time_index=k, mode_before=mode_before,
                                      mode_after=mode_after, n_before=nb, n_after=na, p=p)
            spec = self.event_specs.get((mode_before, mode_after))
            if spec is None:
                ev["joins"] = tuple(range(nb + 1, na + 1))
                ev["leaves"] = tuple(range(na + 1, nb + 1))
            else:
                ev["joins"], ev["leaves"] = spec.joins, spec.leaves
                for name, shape in (("impulse", (p * na,)), ("dep_gain", (p * na, p * nb))):
                    value = getattr(spec, name)
                    if isinstance(value, RandomSpec):
                        seed = master_seed if value.seed is None else value.seed
                        drawn.setdefault((name, seed, shape), []).append((ev, k, value.size))
                    else:
                        ev[name] = value
            events.append(ev)
        for (name, seed, shape), group in drawn.items():
            stream, norms = _DRAWS[name]
            rows = KeyedRows(seed, stream, shape).normals([k for _, k, _ in group])
            sizes = np.array([size for _, _, size in group])
            tops = norms(rows)
            ok = (sizes != 0.0) & (tops >= 1e-300)
            factors = np.divide(sizes, tops, out=np.zeros(len(group)), where=ok)
            rows *= factors.reshape(-1, *(1,) * len(shape))
            rows[~ok] = 0.0  # +0.0 where a negative entry times 0 is -0.0
            for (ev, _, _), row in zip(group, rows):
                ev[name] = row
        return tuple(MigrationEvent(**ev) for ev in events)

    # perfbench/tracing.py wraps this by name when its tracer installs, so
    # it stays though the library builds events through build_events
    def build_event(
        self, k: int, mode_before: int, mode_after: int, master_seed: int
    ) -> MigrationEvent:
        """The k-th migration alone, as build_events materializes it."""
        return self.build_events(((k, mode_before, mode_after),), master_seed)[0]

    # -- signal resolution -------------------------------------------------

    def resolve_signal(self, master_seed: int) -> SwitchingSignal:
        """The signal of one master seed.

        A signal read from a file does not depend on the seed: it is parsed
        and checked on the first call and kept, as the mode matrices are.
        """
        spec = self.signal_spec
        if isinstance(spec, FileSignalSpec):
            if self._file_signal is None:
                path = spec.path
                if not os.path.isabs(path) and self.source_dir:
                    path = os.path.join(self.source_dir, path)
                signal = signal_from_dict(_load_json(path, "signal"), self.p)
                self._check_modes(signal, path)
                self._file_signal = signal
            return self._file_signal

        if isinstance(spec, ExplicitSignalSpec):
            t0, tf, segs = spec.t0, spec.tf, spec.segments
        else:
            if spec.seed is None:
                spec = replace(spec, seed=master_seed)
            t0, tf, segs = spec.t0, spec.t0 + spec.horizon, generate_segments(spec)
        events = self.build_events(
            [(k, segs[k - 1].mode, segs[k].mode) for k in range(1, len(segs))], master_seed
        )
        return SwitchingSignal(t0=t0, tf=tf, segments=segs, events=events)

    def _check_modes(self, sig: SwitchingSignal, source: str) -> None:
        """A signal from elsewhere must switch among this scenario's modes,
        with events sized as those modes are."""
        for i, seg in enumerate(sig.segments):
            if seg.mode not in self.modes:
                raise ConfigError(f"{source}: segment {i} uses unknown mode id {seg.mode}")
        for ev in sig.events:
            sizes = (self.n_agents_of(ev.mode_before), self.n_agents_of(ev.mode_after))
            if (ev.n_before, ev.n_after) != sizes:
                raise ConfigError(
                    f"{source}: event {ev.time_index} maps {ev.n_before} -> {ev.n_after} "
                    f"agents, but modes {ev.mode_before} -> {ev.mode_after} have "
                    f"{sizes[0]} -> {sizes[1]}"
                )

    # -- initial condition ---------------------------------------------------

    def resolve_initial_state(
        self, master_seed: int, first_mode: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """(leader state, stacked tracking errors) at t0.

        Follower i starts at leader + err_i; for the random form the stacked
        error vector is drawn uniformly from the ball, so its norm is at
        most the requested radius: row 0 of the keyed stream (seed,
        STREAM_INITIAL, (p * n1,)), its block drawn whole as a hold's is.
        """
        n1 = self.n_agents_of(first_mode)
        p = self.p
        leader = np.asarray(self.initial.leader, dtype=float)
        spec = self.initial.errors
        if isinstance(spec, RandomSpec):
            seed = master_seed if spec.seed is None else spec.seed
            err = KeyedRows(seed, STREAM_INITIAL, (p * n1,)).ball_block(0, spec.size)[0][0]
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
    # JSON admits NaN, Infinity and integers past the float range
    try:
        x = float(v)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        _fail(path, f"expected a finite number, got {x}")
    return x


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


def _vector(v: Any, path: str) -> tuple[float, ...]:
    return tuple(_num(x, f"{path}[{i}]") for i, x in enumerate(_arr(v, path)))


def _ints(v: Any, path: str) -> tuple[int, ...]:
    return tuple(_int(x, f"{path}[{i}]") for i, x in enumerate(_arr(v, path)))


def _rows(v: Any, path: str) -> tuple[tuple[float, ...], ...]:
    return tuple(tuple(row) for row in _matrix(v, path))


Parser = Callable[[Any, str], Any]


def _nullable(parse: Parser) -> Parser:
    """parse, with null read as None."""
    return lambda v, path: None if v is None else parse(v, path)


def _checked(parse: Parser, ok: Callable[[Any], bool], msg: str) -> Parser:
    """parse, failing with msg when ok(value) is false."""

    def run(v: Any, path: str) -> Any:
        x = parse(v, path)
        if not ok(x):
            _fail(path, msg)
        return x

    return run


def _has_default(cls: type, name: str) -> bool:
    f = next(f for f in fields(cls) if f.name == name)
    return f.default is not MISSING or f.default_factory is not MISSING


def _section(d: Any, path: str, cls: type, parsers: dict[str, Parser],
             names: dict[str, str] | None = None, **fixed: Any) -> Any:
    """cls built from the JSON object d.

    parsers maps each allowed key to its parser; names maps a key to the
    field of cls it fills when the two differ. Only the keys d gives are
    passed on, so every absent field takes the default cls declares, and a
    field without a default is a required key; fixed fills fields that are
    no key of d. cls's own checks fail as schema errors at path.
    """
    d = _obj(d, path)
    _reject_unknown(d, set(parsers), path)
    names = names or {}
    kwargs = {}
    for key, parse in parsers.items():
        name = names.get(key, key)
        if key in d:
            kwargs[name] = parse(d[key], f"{path}.{key}")
        elif not _has_default(cls, name):
            _get(d, key, path)
    try:
        return cls(**kwargs, **fixed)
    except ConfigError as exc:
        _fail(path, str(exc))


def _agent_vector(p: int) -> Parser:
    """A vector of the agent dimension p."""

    def parse(v: Any, path: str) -> tuple[float, ...]:
        x = _vector(v, path)
        if len(x) != p:
            _fail(path, f"has {len(x)} entries, agent dimension is {p}")
        return x

    return parse


def _agent_rows(p: int) -> Parser:
    """Rows of the agent dimension p."""

    def parse(v: Any, path: str) -> tuple[tuple[float, ...], ...]:
        rows = _rows(v, path)
        # the rows all have one width, so the first row speaks for all
        _agent_vector(p)(v[0], f"{path}[0]")
        return rows

    return parse


def _random_or(key: str, given: Parser) -> Parser:
    """An object {key: value >= 0, seed: optional int} is a RandomSpec whose
    size is the value; anything else is the explicit value given(v, path)."""
    random_fields = {
        key: _checked(_num, lambda x: x >= 0.0, "must be >= 0"),
        "seed": _nullable(_int),
    }
    return lambda v, path: (
        _section(v, path, RandomSpec, random_fields, {key: "size"})
        if isinstance(v, dict) else given(v, path)
    )


def _segments(v: Any, path: str) -> tuple[Segment, ...]:
    """A non-empty list of {t, mode}, in scenario specs and signal files alike."""
    segs = tuple(
        _section(s, f"{path}[{i}]", Segment, {"t": _num, "mode": _int}, {"t": "start"})
        for i, s in enumerate(_arr(v, path))
    )
    if not segs:
        _fail(path, "must not be empty")
    return segs


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
    edges: list[Edge] = []
    seen: set[tuple[int, int]] = set()
    for i, e in enumerate(_arr(_get(d, "edges", path), f"{path}.edges")):
        at = f"{path}.edges[{i}]"
        row = _arr(e, at)
        if len(row) != 3:
            _fail(at, "expected [src, dst, weight]")
        edges.append(Edge(_int(row[0], f"{at}[0]"), _int(row[1], f"{at}[1]"),
                          _num(row[2], f"{at}[2]")))
        try:
            check_edge(edges[-1], n, seen)
        except ConfigError as exc:
            _fail(at, str(exc))
    links = _vector(_get(d, "leader_links", path), f"{path}.leader_links")
    try:
        graph = SignedDigraph(n_agents=n, edges=tuple(edges))
        return AugmentedMode(graph=graph, leader_links=tuple(links), mode_id=mid)
    except (ConfigError, ValueError) as exc:
        _fail(path, str(exc))


_GENERATE = {
    "horizon": _num,
    "stable_modes": _ints,
    "unstable_modes": _ints,
    "ratio_floor": _num,
    "dwell_floor": _num,
    "seed": _nullable(_int),
    "margin": _num,
    "t0": _num,
}

_CERTIFICATION = {
    "gamma_margin": _nullable(_checked(_num, lambda x: x > 0.0, "must be positive")),
    "gamma_common": _nullable(_checked(_num, lambda x: x < 0.0, "must be negative")),
    "chatter_bound": _checked(_num, lambda x: x >= 0.0, "must be >= 0"),
}


def _integrator(v: Any, path: str) -> str:
    if v not in ("exact", "rk4"):
        _fail(path, f"expected 'exact' or 'rk4', got {v!r}")
    return v


_SIMULATION = {
    "dt": _checked(_num, lambda x: x > 0.0, "must be positive"),
    "seed": _int,
    "convergence_tol": _checked(_num, lambda x: x > 0.0, "must be positive"),
    "tail_fraction": _checked(_num, lambda x: 0.0 < x <= 1.0, "must be in (0, 1]"),
    "max_dim": _checked(_int, lambda x: x >= 1, "must be >= 1"),
    "sample_stride": _nullable(_checked(_int, lambda x: x >= 1, "must be >= 1")),
    "integrator": _integrator,
}


def _parse_signal(d: dict, path: str):
    d = _obj(d, path)
    kind = _str(_get(d, "type", path), f"{path}.type")
    body = {k: v for k, v in d.items() if k != "type"}
    if kind == "explicit":
        return _section(body, path, ExplicitSignalSpec,
                        {"t0": _num, "tf": _num, "segments": _segments})
    if kind == "generate":
        spec = _section(body, path, SignalGenSpec, _GENERATE)
        if spec.unstable_modes:  # the horizon must hold a block, whatever the seed
            try:
                spec.block_sizes()
            except ConfigError as exc:
                _fail(path, str(exc))
        return spec
    if kind == "file":
        return _section(body, path, FileSignalSpec, {"path": _str})
    _fail(f"{path}.type", f"expected 'explicit', 'generate' or 'file', got {kind!r}")


def _parse_events(v: Any, path: str, modes: dict, p: int) -> dict[tuple[int, int], EventSpec]:
    parsers = {
        "from": _int,
        "to": _int,
        "joins": _ints,
        "leaves": _ints,
        "impulse": _nullable(_random_or("radius", _vector)),
        "dep_gain": _nullable(_random_or("scale", _rows)),
    }
    events: dict[tuple[int, int], EventSpec] = {}
    for i, ed in enumerate(_arr(v, path)):
        at = f"{path}[{i}]"
        spec = _section(ed, at, EventSpec, parsers, {"from": "from_mode", "to": "to_mode"})
        key = (spec.from_mode, spec.to_mode)
        if key in events:
            _fail(at, f"duplicate event for pair {key}")
        for m, side in ((spec.from_mode, "from"), (spec.to_mode, "to")):
            if m not in modes:
                _fail(f"{at}.{side}", f"unknown mode id {m}")
        # the row's jump, checked once here whether or not the pair occurs:
        # sizes, positions, and the shapes of an explicit impulse and gain
        try:
            MigrationEvent(
                time_index=0, mode_before=spec.from_mode, mode_after=spec.to_mode,
                n_before=modes[spec.from_mode].graph.n_agents,
                n_after=modes[spec.to_mode].graph.n_agents, p=p,
                joins=spec.joins, leaves=spec.leaves,
                impulse=None if isinstance(spec.impulse, RandomSpec) else spec.impulse,
                dep_gain=None if isinstance(spec.dep_gain, RandomSpec) else spec.dep_gain,
            )
        except ConfigError as exc:
            _fail(at, str(exc))
        events[key] = spec
    return events


def _perturbation_fields(p: int) -> dict[str, Parser]:
    return {
        "kind": _str,
        "bound": _num,
        "amplitude": _nullable(_agent_vector(p)),
        "frequency": _num,
        "hold": _num,
        "seed": _nullable(_int),
    }


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
    # absent optional sections take the defaults of Scenario
    optional = {
        key: _section(data[key], key, cls, parsers)
        for key, cls, parsers in (
            ("perturbation", PerturbationModel, _perturbation_fields(dyn.p)),
            ("certification", CertificationOptions, _CERTIFICATION),
            ("simulation", SimulationOptions, _SIMULATION),
        )
        if key in data
    }
    if "events" in data:
        optional["event_specs"] = _parse_events(data["events"], "events", modes, dyn.p)
    initial = _section(
        _get(data, "initial_state", "scenario"), "initial_state", InitialStateSpec,
        {"leader": _agent_vector(dyn.p),
         "errors": _random_or("radius", _agent_rows(dyn.p))},
    )
    # referential checks that need the whole document
    if isinstance(signal, ExplicitSignalSpec):
        for i, seg in enumerate(signal.segments):
            if seg.mode not in modes:
                _fail(f"signal.segments[{i}].mode", f"unknown mode id {seg.mode}")
    elif isinstance(signal, SignalGenSpec):
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
        initial=initial,
        source_dir=source_dir,
        **optional,
    )


def _load_json(path: str, what: str) -> Any:
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{what}: invalid JSON ({exc})") from exc


def load_scenario(path: str) -> Scenario:
    data = _load_json(path, "scenario")
    return parse_scenario(data, source_dir=os.path.dirname(os.path.abspath(path)))


# ---------------------------------------------------------------------------
# materialized signal files (written by gen-signal, referenced by type "file")


_EVENT_RECORD = {
    "k": _int,
    "from": _int,
    "to": _int,
    "n_before": _int,
    "n_after": _int,
    "joins": _ints,
    "leaves": _ints,
    "impulse": _nullable(_vector),
    "dep_gain": _nullable(_matrix),
}
# the record keys that name a MigrationEvent field differently
_EVENT_FIELDS = {"k": "time_index", "from": "mode_before", "to": "mode_after"}


def signal_to_dict(sig: SwitchingSignal) -> dict:
    """The signal-file document that signal_from_dict reads back. Each
    event's impulse and dependence gain stay the event's own arrays, which
    cli.write_json writes as their lists."""
    return {
        "t0": sig.t0,
        "tf": sig.tf,
        "segments": [{"t": seg.start, "mode": seg.mode} for seg in sig.segments],
        "events": [
            {key: getattr(ev, _EVENT_FIELDS.get(key, key)) for key in _EVENT_RECORD}
            for ev in sig.events
        ],
    }


def signal_from_dict(data: dict, p: int) -> SwitchingSignal:
    """The signal of a signal-file document whose agents have dimension p."""

    def events(v: Any, path: str) -> tuple[MigrationEvent, ...]:
        return tuple(
            _section(e, f"{path}[{i}]", MigrationEvent, _EVENT_RECORD, _EVENT_FIELDS, p=p)
            for i, e in enumerate(_arr(v, path))
        )

    parsers = {"t0": _num, "tf": _num, "segments": _segments, "events": events}
    return _section(data, "signal", SwitchingSignal, parsers)
