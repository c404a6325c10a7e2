"""Bounded exploration of VASS configuration spaces.

Everything here is bound-relative: exploration prunes any configuration with
a counter above the budget's bound, so "no halting run" verdicts certify
nonexistence only within that bound.  Family verifiers pick bounds that
provably contain every halting run, which upgrades the certificate.

Every search question runs on one representation, `_Packed`: a configuration
is a single int, and a successor is one integer addition plus a masked check
per touched counter.  Runs, `(state, vector)` collections and counts are
decoded from packed keys only when a result is returned.

`halting_reachable`, `final_vectors` and `count_halting_runs` run on chain
adjacency: each successor step follows a maximal deterministic chain of
transitions, split wherever a counter would change direction, and only the
configurations where chains start or end are stored.  Their answers never
lie inside a chain (the target state and the collected state are always
cuts), so they are exact; their `max_configs` counts those chain-end
configurations, and `halting_reachable`'s stats count them and chain
levels.  `shortest_halting` and `reachable_configs` need per-step levels or
every configuration, so they step one transition at a time and their
`max_configs` counts every configuration stored.  Only `shortest_halting`
takes a depth cap, `max_depth`, which caps the length of the runs it finds.

Search is deterministic: successors are expanded in the canonical transition
order of the Vass and results (including shortest-run tie-breaking and stats)
are reproducible.  The breadth-first searches are level-synchronous and
report stats with one meaning: `depth` is the number of levels expanded
(a level cut off part-way counts) and `frontier_peak` the size of the
largest level generated in full, where a level is one transition or, for
chain adjacency, one chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .compiler import CompiledProgram
from .errors import BudgetExceededError, ConfigCycleError, PolicyStuckError
from .expand import FlatProgram, LoopSpan
from .lang import Add, Goto, Halt, Init, Sub
from .vass import Configuration, Run, Transition, Vass


class Verdict(str, Enum):
    FOUND = "found"
    EXHAUSTED = "exhausted-within-bound"
    BUDGET_EXCEEDED = "budget-exceeded"


@dataclass(frozen=True)
class SearchBudget:
    """Per-counter value bound plus a node budget."""

    counter_bound: int
    max_configs: int = 1_000_000

    def __post_init__(self):
        if self.counter_bound < 0:
            raise ValueError("counter_bound must be >= 0")
        if self.max_configs < 1:
            raise ValueError("max_configs must be >= 1")


@dataclass(frozen=True)
class SearchStats:
    expanded: int
    frontier_peak: int
    depth: int


@dataclass(frozen=True)
class ReachResult:
    verdict: Verdict
    run: Run | None
    stats: SearchStats

    def to_json_obj(self, v: Vass) -> dict:
        obj: dict = {
            "verdict": self.verdict.value,
            "stats": {
                "expanded": self.stats.expanded,
                "frontier_peak": self.stats.frontier_peak,
                "depth": self.stats.depth,
            },
            "run": None,
        }
        if self.run is not None:
            tindex = {t: i for i, t in enumerate(v.transitions)}
            obj["run"] = {
                "initial": {
                    "state": self.run.initial.state,
                    "vector": [str(x) for x in self.run.initial.vector],
                },
                "steps": [tindex[t] for t in self.run.steps],
            }
        return obj


def run_from_indices(v: Vass, indices: list[int]) -> Run:
    """Rebuild a Run from serialized transition indices (source-anchored)."""
    return Run(v.source, tuple(v.transitions[i] for i in indices))


class _Packed:
    """Configurations packed into single ints: the state index in the low
    bits, then one fixed-width field per counter.  Fields are wide enough
    that any over/underflow lands above the bound and is rejected, so a
    successor is one integer addition plus one masked check per touched
    counter.  States in `absorbing` get no outgoing transitions.

    With `chains`, each adjacency entry is a maximal deterministic chain of
    transitions (see `_chain_moves`) rather than one transition, and only
    the states where chains start get entries.  Every chain is monotone in
    every counter, so checking its end configuration checks every
    configuration along it."""

    def __init__(
        self,
        v: Vass,
        bound: int,
        absorbing: frozenset[str] = frozenset(),
        chains: bool = False,
    ):
        self.bound = bound
        index = self.index = {s: i for i, s in enumerate(v.states)}
        max_amount = max((abs(d) for t in v.transitions for d in t.delta), default=0)
        if chains:
            moves = _chain_moves(v, index, absorbing)
            # a chain's net amount can exceed every single transition's
            max_amount = max(
                [max_amount] + [abs(d) for ms in moves for delta, _dst, _tix in ms for d in delta]
            )
        self.sbits = max(1, (len(v.states) - 1).bit_length())
        self.wbits = max(1, (2 * (bound + max_amount) + 1).bit_length())
        self.smask = (1 << self.sbits) - 1
        self.cmask = (1 << self.wbits) - 1
        self.shifts = tuple(self.sbits + self.wbits * i for i in range(v.dimension))
        # per transition index: packed delta; per state: (packed delta,
        # shifts of touched counter fields, first transition index)
        self.deltas: list[int] = []
        self.adj: list[list[tuple[int, tuple[int, ...], int]]] = [[] for _ in v.states]
        for tix, t in enumerate(v.transitions):
            entry = self._pack(t.delta, index[t.dst] - index[t.src], tix)
            self.deltas.append(entry[0])
            if not chains and t.src not in absorbing:
                self.adj[index[t.src]].append(entry)
        if chains:
            self.adj = [
                [self._pack(delta, dst - s, tix) for delta, dst, tix in ms]
                for s, ms in enumerate(moves)
            ]
        self.src = self.encode(v.source)
        # a target above the bound is unreachable, and its fields could alias
        self.tgt = self.encode(v.target) if max(v.target.vector, default=0) <= bound else -1

    def _pack(
        self, delta: tuple[int, ...], state_step: int, tix: int
    ) -> tuple[int, tuple[int, ...], int]:
        pd = state_step
        checks = []
        for d, shift in zip(delta, self.shifts):
            if d:
                pd += d << shift
                checks.append(shift)
        return pd, tuple(checks), tix

    def encode(self, cfg: Configuration) -> int:
        key = self.index[cfg.state]
        for x, shift in zip(cfg.vector, self.shifts):
            key += x << shift
        return key

    def successors(self, key: int):
        """Yield the packed successors of `key` within the bound, in
        canonical transition order."""
        bound = self.bound
        cmask = self.cmask
        for pd, checks, _tix in self.adj[key & self.smask]:
            nk = key + pd
            for sh in checks:
                if ((nk >> sh) & cmask) > bound:
                    break
            else:
                yield nk


def _chain_moves(
    v: Vass, index: dict[str, int], absorbing: frozenset[str]
) -> list[list[tuple[tuple[int, ...], int, int]]]:
    """Per state index, one `(net delta, end state index, first transition
    index)` per outgoing transition of a cut state reachable from the source
    state: the maximal deterministic chain that starts with that transition.
    States in `absorbing` have no outgoing transitions.

    A chain ends at the first cut state it enters.  The source and target
    states are cuts, and so is every state whose out-degree is not 1.  A
    state also becomes a cut when extending the chain past it would revisit
    a state of the chain (which breaks deterministic cycles) or reverse the
    direction of some counter (which keeps every chain monotone in every
    counter)."""
    transitions = v.transitions
    out: list[list[int]] = [[] for _ in v.states]
    for tix, t in enumerate(transitions):
        if t.src not in absorbing:
            out[index[t.src]].append(tix)
    cut = [len(ts) != 1 for ts in out]
    cut[index[v.source.state]] = cut[index[v.target.state]] = True
    moves: list[list[tuple[tuple[int, ...], int, int]]] = [[] for _ in out]
    start = index[v.source.state]
    queued = {start}
    todo = [start]
    while todo:
        s = todo.pop()
        for first in out[s]:
            t = transitions[first]
            net = t.delta
            cur = index[t.dst]
            seen = {s, cur}
            while not cut[cur]:
                t = transitions[out[cur][0]]
                nxt = index[t.dst]
                if (nxt in seen and not cut[nxt]) or any(a * d < 0 for a, d in zip(net, t.delta)):
                    cut[cur] = True
                    break
                net = tuple([a + d for a, d in zip(net, t.delta)])
                seen.add(nxt)
                cur = nxt
            moves[s].append((net, cur, first))
            if cur not in queued:
                queued.add(cur)
                todo.append(cur)
    return moves


def _explore(packed: _Packed, tgt: int, max_configs: int) -> tuple[Verdict, set[int], SearchStats]:
    """Breadth-first search from the source for `tgt`, recording only the
    visited set.  Its stats count `expanded` as visited-set size."""
    adj = packed.adj
    bound = packed.bound
    smask = packed.smask
    cmask = packed.cmask
    src = packed.src
    visited = {src}
    frontier = [src]
    depth = 0
    peak = 1
    while frontier:
        depth += 1
        nxt: list[int] = []
        for key in frontier:
            for pd, checks, _tix in adj[key & smask]:
                nk = key + pd
                for sh in checks:
                    if ((nk >> sh) & cmask) > bound:
                        break
                else:
                    if nk in visited:
                        continue
                    if nk == tgt:
                        return Verdict.FOUND, visited, SearchStats(len(visited), peak, depth)
                    if len(visited) >= max_configs:
                        stats = SearchStats(len(visited), peak, depth)
                        return Verdict.BUDGET_EXCEEDED, visited, stats
                    visited.add(nk)
                    nxt.append(nk)
        frontier = nxt
        if len(frontier) > peak:
            peak = len(frontier)
    return Verdict.EXHAUSTED, visited, SearchStats(len(visited), peak, depth)


def halting_reachable(v: Vass, budget: SearchBudget) -> ReachResult:
    """Existence-only variant of shortest_halting: the same verdicts
    whenever no budget cuts the search, but no run is reconstructed (`run`
    is always None), which keeps memory linear in the visited-set size for
    multi-million-configuration spaces.

    The search steps along maximal deterministic chains of transitions and
    stores only the configurations where chains start or end, which include
    every place where runs can branch.  `stats.expanded` counts those
    configurations, and `depth` and `frontier_peak` count chain levels.  It
    stores a subset of the configurations an exhaustive per-transition
    search stores, so it never needs a larger `max_configs` to exhaust the
    space; when `max_configs` cuts a search, the two may stop at different
    points."""
    bound = budget.counter_bound
    if max(v.source.vector, default=0) > bound:
        return ReachResult(Verdict.EXHAUSTED, None, SearchStats(0, 0, 0))
    packed = _Packed(v, bound, chains=True)
    if packed.src == packed.tgt:
        return ReachResult(Verdict.FOUND, None, SearchStats(0, 1, 0))
    verdict, _visited, stats = _explore(packed, packed.tgt, budget.max_configs)
    return ReachResult(verdict, None, stats)


def shortest_halting(
    v: Vass, budget: SearchBudget, max_depth: int | None = None
) -> ReachResult:
    """BFS from the source over configurations within the counter bound.

    FOUND returns a minimum-length halting run (ties broken by canonical
    transition order); EXHAUSTED certifies that no halting run stays within
    the bound; BUDGET_EXCEEDED means the node budget, or `max_depth` (a cap
    on run length), cut search off.  `stats.expanded` counts the
    configurations whose successors were generated.
    """
    if max_depth is not None and max_depth < 0:
        raise ValueError("max_depth must be >= 0")
    bound = budget.counter_bound
    if max(v.source.vector, default=0) > bound:
        return ReachResult(Verdict.EXHAUSTED, None, SearchStats(0, 0, 0))
    packed = _Packed(v, bound)
    src, tgt = packed.src, packed.tgt
    if src == tgt:
        return ReachResult(Verdict.FOUND, Run(v.source, ()), SearchStats(0, 1, 0))
    adj = packed.adj
    smask = packed.smask
    cmask = packed.cmask
    max_configs = budget.max_configs
    # configuration -> index of the transition that first reached it; the
    # parent configuration is the key minus that transition's packed delta
    parent = {src: -1}
    frontier = [src]
    expanded = 0  # over completed levels
    depth = 0
    peak = 1
    while frontier:
        depth += 1
        if max_depth is not None and depth > max_depth:
            return ReachResult(
                Verdict.BUDGET_EXCEEDED, None, SearchStats(expanded, peak, depth - 1)
            )
        nxt: list[int] = []
        for key in frontier:
            for pd, checks, tix in adj[key & smask]:
                nk = key + pd
                for sh in checks:
                    if ((nk >> sh) & cmask) > bound:
                        break
                else:
                    if nk in parent:
                        continue
                    if len(parent) >= max_configs:
                        stats = SearchStats(expanded + frontier.index(key) + 1, peak, depth)
                        return ReachResult(Verdict.BUDGET_EXCEEDED, None, stats)
                    parent[nk] = tix
                    if nk == tgt:
                        stats = SearchStats(expanded + frontier.index(key) + 1, peak, depth)
                        return ReachResult(Verdict.FOUND, _trace_run(v, packed, parent), stats)
                    nxt.append(nk)
        expanded += len(frontier)
        frontier = nxt
        if len(frontier) > peak:
            peak = len(frontier)
    return ReachResult(Verdict.EXHAUSTED, None, SearchStats(expanded, peak, depth))


def _trace_run(v: Vass, packed: _Packed, parent: dict[int, int]) -> Run:
    steps: list[Transition] = []
    key = packed.tgt
    while key != packed.src:
        tix = parent[key]
        steps.append(v.transitions[tix])
        key -= packed.deltas[tix]
    steps.reverse()
    return Run(v.source, tuple(steps))


def _reach_keys(
    v: Vass, budget: SearchBudget, absorbing: frozenset[str], chains: bool
) -> tuple[_Packed, set[int]]:
    """The packed configurations a search from the source stores, within the
    bound (none if the source is above it); raises BudgetExceededError if
    the node budget is hit before exhaustion."""
    packed = _Packed(v, budget.counter_bound, absorbing, chains)
    if max(v.source.vector, default=0) > budget.counter_bound:
        return packed, set()
    verdict, visited, _stats = _explore(packed, -1, budget.max_configs)
    if verdict == Verdict.BUDGET_EXCEEDED:
        raise BudgetExceededError(f"reachable-set exploration exceeded its budget: {budget}")
    return packed, visited


def reachable_configs(
    v: Vass, budget: SearchBudget, absorbing: frozenset[str] = frozenset()
) -> dict[str, set[tuple[int, ...]]]:
    """All configurations reachable within the bound, grouped by state.

    States in `absorbing` are not expanded (their configurations are still
    collected), which is how halt-completion drains are kept out of
    "values on arrival" collections.  Raises BudgetExceededError if the node
    budget is hit before exhaustion.
    """
    out: dict[str, set[tuple[int, ...]]] = {}
    packed, visited = _reach_keys(v, budget, absorbing, chains=False)
    smask, cmask, shifts = packed.smask, packed.cmask, packed.shifts
    for key in visited:
        state = v.states[key & smask]
        vec = tuple([(key >> sh) & cmask for sh in shifts])
        if state in out:
            out[state].add(vec)
        else:
            out[state] = {vec}
    return out


def final_vectors(
    v: Vass, budget: SearchBudget, at_state: str | None = None
) -> frozenset[tuple[int, ...]]:
    """Counter vectors over all configurations arriving at `at_state` (the
    target state by default) within the bound, collected before any
    halt-completion drain fires: that state is absorbing.

    The search steps along maximal deterministic chains, as in
    halting_reachable.  The absorbing state has no outgoing transitions, so
    it is a cut and every configuration at it ends a chain.  `max_configs`
    counts the chain-end configurations stored, a subset of what
    reachable_configs stores, so it never needs a larger budget to finish.
    Raises BudgetExceededError as reachable_configs does."""
    state = at_state if at_state is not None else v.target.state
    packed, visited = _reach_keys(v, budget, frozenset({state}), chains=True)
    at, smask, cmask, shifts = packed.index[state], packed.smask, packed.cmask, packed.shifts
    return frozenset(
        tuple([(key >> sh) & cmask for sh in shifts]) for key in visited if key & smask == at
    )


def count_halting_runs(v: Vass, budget: SearchBudget, cutoff: int = 1_000_000) -> int:
    """Number of distinct halting paths within the bound, saturated at `cutoff`.

    The bounded configuration graph must be acyclic (a cycle would make some
    counts infinite); a back edge raises ConfigCycleError.  This is a bounded
    check, not a proof about unbounded runs.

    The depth-first search steps along maximal deterministic chains, as in
    halting_reachable.  Chains are deterministic and the target state is a
    cut, so halting paths map one to one onto chain paths, and a cycle of
    configurations shows up as a cycle among chain ends.  `max_configs`
    counts the chain-end configurations stored, a subset of every reachable
    configuration, so it never needs a larger budget to finish than a
    per-transition search would.
    """
    bound = budget.counter_bound
    if max(v.source.vector, default=0) > bound:
        return 0
    packed = _Packed(v, bound, chains=True)
    successors = packed.successors
    src, tgt = packed.src, packed.tgt
    max_configs = budget.max_configs
    # configuration -> halting-run count, saturated at `cutoff`, once its
    # subtree is done; -1 while it is on the DFS stack
    counts = {src: -1}
    stack = [(src, successors(src))]
    accs = [1 if src == tgt else 0]  # unsaturated partial count per frame
    while stack:
        key, children = stack[-1]
        acc = accs[-1]
        for child in children:
            c = counts.get(child)
            if c is None:
                if len(counts) >= max_configs:
                    raise BudgetExceededError(
                        f"run counting exceeded {max_configs} configurations"
                    )
                accs[-1] = acc
                counts[child] = -1
                stack.append((child, successors(child)))
                accs.append(1 if child == tgt else 0)
                break
            if c < 0:
                raise ConfigCycleError(
                    "configuration graph has a cycle; halting-run count undefined"
                )
            acc += c
        else:
            acc = counts[key] = min(acc, cutoff)
            stack.pop()
            accs.pop()
            if accs:
                accs[-1] += acc
    return counts[src]


# ---------------------------------------------------------------------------
# Canonical replay


@dataclass(frozen=True)
class DrainLoop:
    """Maximal iteration: exit only when `counter` is zero at the entry."""

    counter: str


@dataclass(frozen=True)
class CountedLoop:
    """Iterate the body exactly `iterations` times, then exit."""

    iterations: int


@dataclass(frozen=True)
class TakeBranch:
    """Decision for a plain two-way goto: take the second target or the first."""

    second: bool


LoopPolicy = DrainLoop | CountedLoop | TakeBranch


@dataclass(frozen=True)
class LoopObservation:
    entry_line: int
    iterations: tuple[int, ...]  # per activation
    exit_vectors: tuple[tuple[int, ...], ...]  # counters at each exit


@dataclass(frozen=True)
class RunProbe:
    loops: dict[int, LoopObservation]
    final_vector: tuple[int, ...]
    peak: tuple[int, ...]
    length: int


@dataclass(frozen=True)
class ReplayOutcome:
    run: Run | None  # None when not materialized
    probe: RunProbe
    halting: bool
    final: Configuration


def drain_policies(flat: FlatProgram) -> dict[int, LoopPolicy]:
    """Default maximal-iteration policy: each loop exits when the counter its
    body decrements first (at top nesting level) reaches zero.  Loops whose
    bodies only increment (pump loops) get no entry; callers supply those."""
    policies: dict[int, LoopPolicy] = {}
    spans = flat.loops
    for span in spans:
        nested_lines: set[int] = set()
        for other in spans:
            if span.entry < other.entry and other.back < span.back:
                nested_lines.update(range(other.entry, other.back + 1))
        for ln in range(span.body_start, span.back):
            if ln in nested_lines:
                continue
            cmd = flat.line(ln)
            if isinstance(cmd, Sub):
                policies[span.entry] = DrainLoop(cmd.counter)
                break
    return policies


class _Replay:
    def __init__(self, compiled: CompiledProgram, policy: dict[int, LoopPolicy], materialize: bool):
        self.compiled = compiled
        self.flat = compiled.program
        self.policy = policy
        self.materialize = materialize
        self.counters = self.flat.counters
        self.cix = {c: i for i, c in enumerate(self.counters)}
        self.n = len(self.flat.lines)
        self.vec = [0] * len(self.counters)
        self.peak = [0] * len(self.counters)
        self.length = 0
        self.steps: list[Transition] = []
        self.spans: dict[int, LoopSpan] = {s.entry: s for s in self.flat.loops}
        self.iter_count: dict[int, int] = {}
        self.counted_left: dict[int, int] = {}
        self.observations: dict[int, tuple[list[int], list[tuple[int, ...]]]] = {}
        self.body_info: dict[int, tuple[bool, dict[int, int], int]] = {}
        for span in self.flat.loops:
            self.body_info[span.entry] = self._analyze_body(span)
        self.zero = (0,) * len(self.counters)
        # The VASS's own transitions, so that a materialized run shares them
        # instead of holding a fresh object per step.
        self.known = {(t.src, t.delta, t.dst): t for t in compiled.vass.transitions}

    def _analyze_body(self, span: LoopSpan):
        deltas: dict[int, int] = {}
        touched: set[int] = set()
        straight = True
        for ln in range(span.body_start, span.back):
            cmd = self.flat.line(ln)
            if isinstance(cmd, (Add, Sub)):
                ci = self.cix[cmd.counter]
                if ci in touched:
                    straight = False  # same counter twice: no bulk application
                touched.add(ci)
                deltas[ci] = deltas.get(ci, 0) + (cmd.amount if isinstance(cmd, Add) else -cmd.amount)
            else:
                straight = False
        return straight, deltas, span.back - span.body_start

    def _state(self, line: int) -> str:
        if line <= self.n:
            return self.compiled.line_states[line - 1]
        return self.compiled.halt_state

    def _transition(self, src: str, delta: tuple[int, ...], dst: str) -> Transition:
        # A step the VASS lacks is still emitted, so validate_run rejects it.
        t = self.known.get((src, delta, dst))
        return t if t is not None else Transition(src, delta, dst)

    def _line_step(self, src_line: int, delta: tuple[int, ...], dst_line: int) -> Transition:
        return self._transition(self._state(src_line), delta, self._state(dst_line))

    def _emit(self, src_line: int, delta: tuple[int, ...], dst_line: int):
        if self.materialize:
            self.steps.append(self._line_step(src_line, delta, dst_line))

    def _step(self, src_line: int, delta: tuple[int, ...], dst_line: int):
        """Emit one step and count it in the run length."""
        self._emit(src_line, delta, dst_line)
        self.length += 1

    def _apply(self, ci: int, amount: int, line: int):
        nv = self.vec[ci] + amount
        if nv < 0:
            raise PolicyStuckError(
                f"line {line}: counter {self.counters[ci]!r} would go below zero"
            )
        self.vec[ci] = nv
        if nv > self.peak[ci]:
            self.peak[ci] = nv

    def _record_exit(self, entry: int):
        iters, exits = self.observations.setdefault(entry, ([], []))
        iters.append(self.iter_count.pop(entry, 0))
        exits.append(tuple(self.vec))

    def _unit_delta(self, ci: int, amount: int) -> tuple[int, ...]:
        d = [0] * len(self.counters)
        d[ci] = amount
        return tuple(d)

    def _fast_forward(self, span: LoopSpan, n_iter: int):
        """Apply n_iter full iterations of a straight-line body, then exit."""
        straight, deltas, body_len = self.body_info[span.entry]
        assert straight
        if n_iter > 0:
            for ci, d in deltas.items():
                if d < 0 and self.vec[ci] + n_iter * d < 0:
                    raise PolicyStuckError(
                        f"loop at line {span.entry}: counter {self.counters[ci]!r} "
                        f"underflows after {n_iter} iterations"
                    )
            if self.materialize:
                one = [self._line_step(span.entry, self.zero, span.body_start)]
                for ln in range(span.body_start, span.back):
                    cmd = self.flat.line(ln)
                    amount = cmd.amount if isinstance(cmd, Add) else -cmd.amount
                    delta = self._unit_delta(self.cix[cmd.counter], amount)
                    one.append(self._line_step(ln, delta, ln + 1))
                one.append(self._line_step(span.back, self.zero, span.entry))
                self.steps.extend(one * n_iter)
            for ci, d in deltas.items():
                end = self.vec[ci] + n_iter * d
                # each counter moves monotonically across iterations
                self.peak[ci] = max(self.peak[ci], self.vec[ci], end)
                self.vec[ci] = end
            self.length += n_iter * (body_len + 2)
        self.iter_count[span.entry] = self.iter_count.get(span.entry, 0) + n_iter
        self._enter_or_leave(span, enter=False)

    def run(self) -> ReplayOutcome:
        flat, policy = self.flat, self.policy
        pc = 1
        guard = 0
        while pc <= self.n:
            guard += 1
            if guard > 50_000_000:
                raise PolicyStuckError("replay did not terminate (policy loops)")
            cmd = flat.line(pc)
            if isinstance(cmd, Init):
                self._step(pc, self.zero, pc + 1)
                pc += 1
            elif isinstance(cmd, (Add, Sub)):
                amount = cmd.amount if isinstance(cmd, Add) else -cmd.amount
                ci = self.cix[cmd.counter]
                self._apply(ci, amount, pc)
                self._step(pc, self._unit_delta(ci, amount), pc + 1)
                pc += 1
            elif isinstance(cmd, Halt):
                break
            elif isinstance(cmd, Goto):
                span = self.spans.get(pc)
                if span is not None:
                    pc = self._handle_loop_entry(span)
                elif cmd.first == cmd.second:
                    self._step(pc, self.zero, cmd.first)
                    pc = cmd.first
                else:
                    pol = policy.get(pc)
                    if not isinstance(pol, TakeBranch):
                        raise PolicyStuckError(f"line {pc}: no branch policy for goto")
                    target = cmd.second if pol.second else cmd.first
                    self._step(pc, self.zero, target)
                    pc = target
            else:
                raise PolicyStuckError(f"line {pc}: cannot replay {cmd!r}")

        halting = False
        if pc <= self.n and isinstance(flat.line(pc), Halt):
            self._drain_completion()
            tested_ix = [self.cix[c] for c in flat.line(pc).tested]
            halting = all(self.vec[i] == 0 for i in tested_ix)
        final_state = self.compiled.vass.target.state if pc <= self.n else self._state(pc)
        final = Configuration(final_state, tuple(self.vec))
        if pc > self.n:
            halting = final == self.compiled.vass.target
        probe = RunProbe(
            loops={
                entry: LoopObservation(entry, tuple(it), tuple(ex))
                for entry, (it, ex) in sorted(self.observations.items())
            },
            final_vector=tuple(self.vec),
            peak=tuple(self.peak),
            length=self.length,
        )
        run = Run(self.compiled.vass.source, tuple(self.steps)) if self.materialize else None
        return ReplayOutcome(run, probe, halting, final)

    def _handle_loop_entry(self, span: LoopSpan) -> int:
        pol = self.policy.get(span.entry)
        if pol is None:
            raise PolicyStuckError(f"line {span.entry}: no policy for loop")
        straight, deltas, _body_len = self.body_info[span.entry]
        if isinstance(pol, DrainLoop):
            ci = self.cix[pol.counter]
            if straight:
                dec = -deltas.get(ci, 0)
                if dec <= 0:
                    raise PolicyStuckError(
                        f"loop at line {span.entry} does not decrease {pol.counter!r}"
                    )
                value = self.vec[ci]
                n_iter, rest = divmod(value, dec)
                if rest:
                    raise PolicyStuckError(
                        f"loop at line {span.entry}: {pol.counter!r}={value} not divisible "
                        f"by per-iteration decrement {dec}"
                    )
                self._fast_forward(span, n_iter)
                return span.exit
            return self._enter_or_leave(span, self.vec[ci] != 0)
        if isinstance(pol, CountedLoop):
            left = self.counted_left.pop(span.entry, pol.iterations)
            if straight:
                self._fast_forward(span, left)
                return span.exit
            if left:
                self.counted_left[span.entry] = left - 1
            return self._enter_or_leave(span, left > 0)
        raise PolicyStuckError(f"line {span.entry}: policy {pol!r} does not fit a loop")

    def _enter_or_leave(self, span: LoopSpan, enter: bool) -> int:
        """One step from the entry of a loop walked stepwise: into its body
        as a new iteration, or out of the loop.  Returns the next line."""
        if enter:
            self.iter_count[span.entry] = self.iter_count.get(span.entry, 0) + 1
            self._step(span.entry, self.zero, span.body_start)
            return span.body_start
        self._record_exit(span.entry)
        self._step(span.entry, self.zero, span.exit)
        return span.exit

    def _drain_completion(self):
        # Walk the drain chain synthesized by the compiler for untested counters.
        for ix, (state, counter) in enumerate(self.compiled.drain_chain):
            ci = self.cix[counter]
            count = self.vec[ci]
            if self.materialize:
                drain = self._transition(state, self._unit_delta(ci, -1), state)
                self.steps.extend([drain] * count)
            self.vec[ci] = 0
            self.length += count
            nxt = self.compiled.drain_chain[ix + 1][0] if ix + 1 < len(self.compiled.drain_chain) else None
            if nxt is not None:
                if self.materialize:
                    self.steps.append(self._transition(state, self.zero, nxt))
                self.length += 1


def replay_canonical(
    compiled: CompiledProgram,
    policy: dict[int, LoopPolicy],
    materialize: bool = True,
) -> ReplayOutcome:
    """Deterministically replay the schedule described by `policy`.

    Probes (per-loop iteration counts and exit values, final vector, peaks,
    length) are recomputed from the walk itself.  Loops with straight-line
    bodies are fast-forwarded arithmetically, so doubly-exponential canonical
    runs can be measured without materializing them (materialize=False).
    Raises PolicyStuckError if the schedule deadlocks.

    A materialized run shares the `Transition` objects of `compiled.vass`
    rather than holding a fresh one per step, and a fast-forwarded loop's
    iterations are appended as whole blocks.  A step the VASS lacks is still
    emitted, as a new `Transition`, so `validate_run` rejects it: replay
    never vouches for its own steps.
    """
    return _Replay(compiled, policy, materialize).run()
