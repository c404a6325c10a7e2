"""The VASS data model: states, integer-vector transitions, configurations,
runs, flatness, and size metrics.

A `Vass` is a whole reachability instance: control graph plus a source and a
target configuration.  Runs from source to target are called halting runs.
All values here are immutable after construction and all operations are pure.

`Transition.to_json_obj` and `Configuration.to_json_obj` are the only writers
of those two JSON forms; the VASS JSON, the run of a search result and the
CLI's flatness witness are built from them.
"""

from __future__ import annotations

import json
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import chain

from .errors import NegativeCounterError, WrongStateError


@dataclass(frozen=True, order=True)
class Transition:
    src: str
    delta: tuple[int, ...]
    dst: str

    def to_json_obj(self) -> dict:
        return {"from": self.src, "delta": [str(d) for d in self.delta], "to": self.dst}


@dataclass(frozen=True)
class Configuration:
    state: str
    vector: tuple[int, ...]

    def __post_init__(self):
        if any(v < 0 for v in self.vector):
            raise NegativeCounterError(next(i for i, v in enumerate(self.vector) if v < 0))

    def to_json_obj(self) -> dict:
        return {"state": self.state, "vector": [str(v) for v in self.vector]}


@dataclass(frozen=True)
class Vass:
    """A VASS reachability instance.

    States are kept sorted and transitions sorted/deduplicated so that two
    structurally equal instances serialize identically and searches expand
    successors in one canonical order.
    """

    dimension: int
    states: tuple[str, ...]
    transitions: tuple[Transition, ...]
    source: Configuration
    target: Configuration

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(sorted(set(self.states))))
        object.__setattr__(self, "transitions", tuple(sorted(
            set(self.transitions), key=lambda t: (t.src, t.delta, t.dst))))
        known = set(self.states)
        for t in self.transitions:
            if t.src not in known or t.dst not in known:
                raise ValueError(f"transition endpoint not a state: {t}")
            if len(t.delta) != self.dimension:
                raise ValueError(f"transition delta has wrong dimension: {t}")
        for cfg, what in ((self.source, "source"), (self.target, "target")):
            if cfg.state not in known:
                raise ValueError(f"{what} state {cfg.state!r} not a state")
            if len(cfg.vector) != self.dimension:
                raise ValueError(f"{what} vector has wrong dimension")

    def to_json_obj(self) -> dict:
        return {
            "dimension": self.dimension,
            "states": list(self.states),
            "transitions": [t.to_json_obj() for t in self.transitions],
            "source": self.source.to_json_obj(),
            "target": self.target.to_json_obj(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2, sort_keys=True) + "\n"

    @staticmethod
    def from_json_obj(obj: dict) -> "Vass":
        """Inverse of to_json_obj.  A missing or ill-typed field, or a
        negative source or target vector, raises ValueError naming it."""
        states = _json_field(obj, "states", list)
        if not all(isinstance(s, str) for s in states):
            raise ValueError("VASS JSON: field 'states' must list strings")
        transitions = _json_field(obj, "transitions", list)

        def transition(i: int, t) -> Transition:
            where = f"transitions[{i}]"
            return Transition(
                _json_field(t, "from", str, where),
                _json_ints(t, "delta", where),
                _json_field(t, "to", str, where),
            )

        def configuration(key: str) -> Configuration:
            cfg = _json_field(obj, key, dict)
            vector = _json_ints(cfg, "vector", key)
            if any(v < 0 for v in vector):
                raise ValueError(f"VASS JSON: field '{key}.vector' must list nonnegative integers")
            return Configuration(_json_field(cfg, "state", str, key), vector)

        return Vass(
            dimension=_json_field(obj, "dimension", int),
            states=tuple(states),
            transitions=tuple(transition(i, t) for i, t in enumerate(transitions)),
            source=configuration("source"),
            target=configuration("target"),
        )

    @staticmethod
    def from_json(text: str) -> "Vass":
        return Vass.from_json_obj(json.loads(text))


def _json_field(obj, key: str, kind: type, where: str = ""):
    """obj[key], which must exist and be a `kind`; `where` is obj's own path."""
    path = f"{where}.{key}" if where else key
    if not isinstance(obj, dict):
        raise ValueError(f"VASS JSON: {where or 'the document'} must be an object")
    if key not in obj:
        raise ValueError(f"VASS JSON: missing field {path!r}")
    # no field is boolean, and a JSON boolean would pass for an int
    if not isinstance(obj[key], kind) or isinstance(obj[key], bool):
        raise ValueError(
            f"VASS JSON: field {path!r} must be {kind.__name__}, not {type(obj[key]).__name__}"
        )
    return obj[key]


def _json_ints(obj, key: str, where: str) -> tuple[int, ...]:
    """The list obj[key] read as integers, given as numbers or, as to_json_obj
    writes them, as strings; a float or a boolean is refused, not converted."""
    items = _json_field(obj, key, list, where)
    try:
        values = tuple(map(int, items))
    except (TypeError, ValueError):
        values = None
    if values is None or not {float, bool}.isdisjoint(map(type, items)):
        raise ValueError(f"VASS JSON: field '{where}.{key}' must list integers")
    return values


@dataclass(frozen=True, init=False, eq=False, repr=False)
class Run:
    """A run: its initial configuration and its path as `blocks`,
    (transitions, count) pairs, each sequence taken count times in a row;
    `Run(initial, steps)` is the one block (steps, 1).  `steps` expands the
    blocks each time it is read.  Equality compares the initial
    configurations, the summed lengths (`len()` stops at `sys.maxsize`),
    then the expansions, so runs too long to expand are not compared;
    hashing takes the first two."""

    initial: Configuration
    blocks: tuple[tuple[tuple[Transition, ...], int], ...]

    def __init__(self, initial: Configuration, steps: Iterable[Transition]):
        object.__setattr__(self, "initial", initial)
        object.__setattr__(self, "blocks", ((tuple(steps), 1),))

    @classmethod
    def from_blocks(cls, initial: Configuration,
                    blocks: Iterable[tuple[tuple[Transition, ...], int]]) -> "Run":
        run = cls(initial, ())
        object.__setattr__(run, "blocks", tuple(blocks))
        return run

    @property
    def steps(self) -> tuple[Transition, ...]:
        return tuple(chain.from_iterable(ts * count for ts, count in self.blocks))

    def _key(self) -> tuple[Configuration, int]:
        return self.initial, sum(len(ts) * count for ts, count in self.blocks)

    def __len__(self) -> int:
        return self._key()[1]

    def __eq__(self, other) -> bool:
        return isinstance(other, Run) and self._key() == other._key() and self.steps == other.steps

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"Run(initial={self.initial!r}, steps={self.steps!r})"


def _wrong_state(t: Transition, state: str) -> WrongStateError:
    return WrongStateError(f"transition leaves {t.src!r} but configuration is at {state!r}")


def step(cfg: Configuration, t: Transition) -> Configuration:
    """Apply one transition; counters must stay nonnegative."""
    if t.src != cfg.state:
        raise _wrong_state(t, cfg.state)
    vec = tuple(v + d for v, d in zip(cfg.vector, t.delta))
    for i, v in enumerate(vec):
        if v < 0:
            raise NegativeCounterError(i)
    return Configuration(t.dst, vec)


@dataclass(frozen=True)
class RunReport:
    ok: bool
    failure_index: int | None  # -1 when the initial configuration is wrong
    halting: bool
    reason: str = ""


def validate_run(v: Vass, r: Run) -> RunReport:
    """Check that r starts at v.source and every step is a legal transition
    of v; report separately whether the final configuration equals v.target.

    The walk goes over r's blocks on a mutable vector, each step moving only
    the counters its transition touches.  A block's first copy is walked step
    by step.  If it leads back to the state it started from, copies 2..m
    are legal transitions from that state back to it, and copy k starts at
    x + (k-2)*net, where x is the vector after the first copy and net is
    one copy's effect; it is lowest at x + (k-2)*net + low, where low is the
    copy's lowest prefix sum.  That is linear in k, so those copies keep a
    counter nonnegative iff x + low >= 0 and x + (m-2)*net + low >= 0, and
    they are then added as (m-1)*net at once.  Otherwise they are walked
    step by step, so failures carry the reasons `step` would raise, at the
    same index and in the same order (membership, state, counters).
    """
    if r.initial != v.source:
        return RunReport(False, -1, False, "initial configuration differs from source")
    touched = {t: tuple((ci, d) for ci, d in enumerate(t.delta) if d) for t in v.transitions}
    # Runs repeat a few step objects many times; hash each one once.  The
    # ids stay valid because r keeps the objects alive.
    by_id: dict[int, tuple[tuple[int, int], ...]] = {}
    state, vec, i = r.initial.state, list(r.initial.vector), 0
    for ts, m in r.blocks:
        start = state
        for k in range(m):
            for j, t in enumerate(ts, i):
                moves = by_id.get(id(t))
                if moves is None:
                    moves = touched.get(t)
                    if moves is None:
                        return RunReport(False, j, False, f"step {j} uses a transition not in the VASS")
                    by_id[id(t)] = moves
                if t.src != state:
                    return RunReport(False, j, False, f"step {j}: {_wrong_state(t, state)}")
                for ci, d in moves:
                    x = vec[ci] + d
                    if x < 0:
                        return RunReport(False, j, False, f"step {j}: {NegativeCounterError(ci)}")
                    vec[ci] = x
                state = t.dst
            i += len(ts)
            if k == 0 and m > 1 and state == start:
                net, low = [0] * len(vec), [0] * len(vec)
                for t in ts:
                    for ci, d in by_id[id(t)]:
                        net[ci] += d
                        low[ci] = min(low[ci], net[ci])
                if all(x + lo >= 0 and x + (m - 2) * d + lo >= 0 for x, d, lo in zip(vec, net, low)):
                    vec = [x + (m - 1) * d for x, d in zip(vec, net)]
                    i += (m - 1) * len(ts)
                    break
    return RunReport(True, None, Configuration(state, tuple(vec)) == v.target)


@dataclass(frozen=True)
class FlatnessReport:
    is_flat: bool
    # On failure: a state plus two distinct simple cycles through it, each a
    # tuple of transitions in path order, rotated to start at its earliest
    # transition in `Vass.transitions`; the pair is sorted by those positions.
    witness_state: str | None = None
    witness_cycles: tuple[tuple[Transition, ...], tuple[Transition, ...]] | None = None


_Edges = list[list[tuple[int, int]]]  # per state: its (dst_ix, transition_ix) edges


def _scc_ids(out: _Edges) -> list[int]:
    """The strongly connected component of each state, named by its root
    (Tarjan, SIAM J. Comput. 1972).  Iterative, so that long control graphs
    cannot exhaust the recursion limit."""
    index = [-1] * len(out)
    low = [0] * len(out)
    comp = [-1] * len(out)  # -1 while a visited state is still on `stack`
    stack: list[int] = []
    count = 0
    for root in range(len(out)):
        work = [(root, iter(out[root]))] if index[root] < 0 else []
        while work:
            u, edges = work[-1]
            if index[u] < 0:
                index[u] = low[u] = count
                count += 1
                stack.append(u)
            for w, _tix in edges:
                if index[w] < 0:
                    work.append((w, iter(out[w])))
                    break
                if comp[w] < 0:
                    low[u] = min(low[u], index[w])
            else:
                work.pop()
                if work:
                    low[work[-1][0]] = min(low[work[-1][0]], low[u])
                if low[u] == index[u]:
                    while comp[u] < 0:
                        comp[stack.pop()] = u
    return comp


def _cycle_through(inner: _Edges, u: int, first: tuple[int, int]) -> tuple[int, ...]:
    # `first` leaves u and stays inside u's component, so a BFS shortest
    # path from its end back to u closes a simple cycle.
    parent = {first[0]: (-1, first[1])}
    frontier = [first[0]]
    while u not in parent:
        nxt = []
        for x in frontier:
            for w, tix in inner[x]:
                if w not in parent:
                    parent[w] = (x, tix)
                    nxt.append(w)
        frontier = nxt
    path, x = [], u
    while x != -1:
        x, tix = parent[x]
        path.append(tix)
    path.reverse()
    i = path.index(min(path))
    return tuple(path[i:] + path[:i])


def _inner_edges(v: Vass) -> _Edges:
    """Per state index, its out-edges that stay inside its strongly
    connected component (see `_scc_ids`)."""
    index = {s: i for i, s in enumerate(v.states)}
    out: _Edges = [[] for _ in v.states]
    for tix, t in enumerate(v.transitions):
        out[index[t.src]].append((index[t.dst], tix))
    comp = _scc_ids(out)
    return [[e for e in edges if comp[e[0]] == comp[u]] for u, edges in enumerate(out)]


def is_flat(v: Vass) -> FlatnessReport:
    """A VASS is flat when no state lies on two distinct simple cycles, that
    is, when no state has two out-transitions inside its strongly connected
    component (parallel transitions and self-loops are distinct edges).
    Linear in |Q| + |T|.  The witness is the first such state; its cycles
    start with its first two inner transitions and return by shortest paths.
    """
    inner = _inner_edges(v)
    for u, edges in enumerate(inner):
        if len(edges) >= 2:
            cycles = sorted(_cycle_through(inner, u, e) for e in edges[:2])
            witness = tuple(tuple(v.transitions[tix] for tix in c) for c in cycles)
            return FlatnessReport(False, v.states[u], witness)
    return FlatnessReport(True)


def vass_size(v: Vass, encoding: str = "unary") -> int:
    """|Q| + |T| * s where s is the largest vector representation size:
    sum of |entries| for unary, sum of bit lengths (0 counts 1 bit) for binary.
    """
    if encoding not in ("unary", "binary"):
        raise ValueError(f"encoding must be 'unary' or 'binary', got {encoding!r}")
    s = 0
    for t in v.transitions:
        if encoding == "unary":
            rep = sum(abs(d) for d in t.delta)
        else:
            rep = sum(abs(d).bit_length() if d != 0 else 1 for d in t.delta)
        s = max(s, rep)
    return len(v.states) + len(v.transitions) * s
