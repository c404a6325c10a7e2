"""Bounded exploration of VASS configuration spaces.

Everything here is bound-relative: exploration prunes any configuration with
a counter above the budget's bound, so "no halting run" verdicts certify
nonexistence only within that bound.  Family verifiers pick bounds that
provably contain every halting run, which upgrades the certificate.

Every search question runs on one representation, `_Packed`: a configuration
is a single int, and a successor is one integer addition plus a masked check
per touched counter.  Runs, `(state, vector)` collections and counts are
decoded from packed keys only when a result is returned, and a collection
decodes each distinct counter vector once, sharing its tuple between states.

`shortest_halting`, `halting_reachable`, `reachable_configs` and
`final_vectors` each run the one breadth-first search, `_explore`, and
decode what it stored; `count_halting_runs` is a depth-first search.  Only
the kernel handles the source checks, the depth cap of `shortest_halting`
and the node budget, by one rule: a new configuration is checked against
`max_configs`, then stored, then tested against the target.

`halting_reachable`, `final_vectors` and `count_halting_runs` step along
maximal deterministic chains of transitions, split wherever a counter would
change direction, and store (and count in `max_configs`) only the
configurations where chains start or end; the target state and the
collected state are always cuts, so their answers are exact.  The other
two need per-step levels or every configuration, so they step one
transition at a time.

Each move checks the counter fields it must against a cap per field.  In
most searches the cap is the bound.  `halting_reachable` tightens it with a
rule that depends on the target (`_target_caps`): it drops configurations
at states with no path to the target state, and configurations holding more
than the target value in a counter that no transition on such a path
decreases, since along any run from there that counter only grows.  No
configuration that can reach the target is dropped, so its verdicts stay
exact; its stats count only the configurations that pass the rule, and a
drop is not a bound rejection.  `count_halting_runs` applies the same rule
when `acyclic_configurations` proves that no run repeats a configuration;
on any other VASS it must still see cycles among configurations that
cannot halt, so it keeps the plain bound.  `shortest_halting` keeps it too,
because it prints its stats, and the collections have no target.

Search is deterministic: successors are expanded in the canonical transition
order of the Vass and results (including shortest-run tie-breaking and stats)
are reproducible.  Stats are the kernel's (see `_explore`), except that
`halting_reachable` reports as `expanded` the configurations it stored,
less a target just found.

`replay_canonical` walks the one run a loop policy fixes, with no search.
It reads every step from a per-line table built once (the counter a line
moves, by how much, and its `Transition` to each next line), fast-forwards
each loop with a straight-line body from a per-loop table (net effect and
one iteration's transitions), and applies `DrainLoop` and `CountedLoop` in
one place, `_Replay._loop`.  It raises `PolicyStuckError` as soon as the
entry of a loop walked stepwise, or the target of a backward goto other
than a loop's own back goto, comes round with the same counters and
counted-loop state.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from enum import Enum

from .compiler import CompiledProgram
from .errors import BudgetExceededError, ConfigCycleError, PolicyStuckError
from .expand import FlatProgram, LoopSpan
from .lang import Add, Goto, Halt, Init, Sub
from .vass import Configuration, Run, Transition, Vass, acyclic_configurations


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
        run = None
        if self.run is not None:
            tindex = {t: i for i, t in enumerate(v.transitions)}
            run = {
                "initial": self.run.initial.to_json_obj(),
                "steps": [tindex[t] for t in self.run.steps],
            }
        return {"verdict": self.verdict.value, "stats": asdict(self.stats), "run": run}


def run_from_indices(v: Vass, indices: list[int]) -> Run:
    """Rebuild a Run from serialized transition indices (source-anchored)."""
    return Run(v.source, tuple(v.transitions[i] for i in indices))


class _Packed:
    """Configurations packed into single ints: the state index in the low
    bits, then one fixed-width field per counter.  Fields are wide enough
    that any over/underflow lands above the bound and is rejected, so a
    successor is one integer addition plus one masked check per touched
    counter, against that counter's cap at the move's end state.  States in
    `absorbing` get no outgoing transitions.

    Caps are the bound, unless `prune` tightens them for the target (see
    `_target_caps`).  Then moves into states that cannot reach the target
    state are left out, and a move also checks each untouched counter whose
    cap is tighter at its end state than at its start.  Caps only tighten
    along a move into a live state, so every stored configuration is within
    its own state's caps as long as the source is.

    Adjacency entries are the moves of `_chain_moves`, so only states
    reachable from the source state get entries.  With `chains`, each entry
    is a maximal deterministic chain of transitions rather than one
    transition, and only the states where chains start get entries.  Every
    chain is monotone in every counter, so checking its end configuration
    checks every configuration along it."""

    def __init__(
        self,
        v: Vass,
        bound: int,
        absorbing: frozenset[str] = frozenset(),
        chains: bool = False,
        prune: bool = False,
    ):
        index = self.index = {s: i for i, s in enumerate(v.states)}
        moves = _chain_moves(v, index, absorbing, chains)
        # a chain's net amount can exceed every single transition's
        max_amount = max(
            (abs(d) for ms in moves for delta, _dst, _tix in ms for d in delta), default=0
        )
        caps = self.caps = (
            _target_caps(v, index, bound) if prune else [(bound,) * v.dimension] * len(v.states)
        )
        self.sbits = max(1, (len(v.states) - 1).bit_length())
        self.wbits = max(1, (2 * (bound + max_amount) + 1).bit_length())
        self.smask = (1 << self.sbits) - 1
        self.cmask = (1 << self.wbits) - 1
        self.shifts = tuple(self.sbits + self.wbits * i for i in range(v.dimension))
        # per state: one (packed delta, checks, first transition index) per
        # move into a state that can reach the target state
        self.adj = [
            [self._move(delta, s, dst, tix) for delta, dst, tix in ms if caps[dst] is not None]
            for s, ms in enumerate(moves)
        ]
        # a configuration outside its state's caps could overflow its fields:
        # such a source is never searched, and such a target never reached
        self.src = self.encode(v.source) if self.admits(v.source) else None
        self.tgt = self.encode(v.target) if self.admits(v.target) else -1

    def _move(
        self, delta: tuple[int, ...], src: int, dst: int, tix: int
    ) -> tuple[int, tuple[tuple[int, int], ...], int]:
        """The adjacency entry of a move from state index `src` to `dst`:
        its packed delta; the `(shift, cap)` checks at its end, with caps at
        `dst`, of every field it touches and every field whose cap is tighter
        at `dst` than at `src`; and its first transition index."""
        pd = dst - src
        checks = []
        for d, shift, cap, was in zip(delta, self.shifts, self.caps[dst], self.caps[src]):
            if d:
                pd += d << shift
            elif cap >= was:
                continue
            checks.append((shift, cap))
        return pd, tuple(checks), tix

    def admits(self, cfg: Configuration) -> bool:
        """Whether cfg is within the caps of its state."""
        caps = self.caps[self.index[cfg.state]]
        return caps is not None and all(x <= c for x, c in zip(cfg.vector, caps))

    def encode(self, cfg: Configuration) -> int:
        key = self.index[cfg.state]
        for x, shift in zip(cfg.vector, self.shifts):
            key += x << shift
        return key

    def successors(self, key: int):
        """Yield the packed successors of `key` within the bound, in
        canonical transition order."""
        cmask = self.cmask
        for pd, checks, _tix in self.adj[key & self.smask]:
            nk = key + pd
            for sh, cap in checks:
                if ((nk >> sh) & cmask) > cap:
                    break
            else:
                yield nk


def _chain_moves(
    v: Vass, index: dict[str, int], absorbing: frozenset[str], chains: bool
) -> list[list[tuple[tuple[int, ...], int, int]]]:
    """Per state index, one `(net delta, end state index, first transition
    index)` per outgoing transition of a cut state reachable from the source
    state: the maximal deterministic chain that starts with that transition.
    States in `absorbing` have no outgoing transitions.  Without `chains`
    every state is a cut, so each move is one transition.

    A chain ends at the first cut state it enters.  The source and target
    states are cuts, and so is every state whose out-degree is not 1.  A
    state also becomes a cut when extending the chain past it would revisit
    a state of the chain (which breaks deterministic cycles) or reverse the
    direction of some counter (which keeps every chain monotone in every
    counter)."""
    # per state index: its one-transition moves, in transition order
    out: list[list[tuple[tuple[int, ...], int, int]]] = [[] for _ in v.states]
    for tix, t in enumerate(v.transitions):
        if t.src not in absorbing:
            out[index[t.src]].append((t.delta, index[t.dst], tix))
    cut = [not chains or len(ts) != 1 for ts in out]
    cut[index[v.source.state]] = cut[index[v.target.state]] = True
    moves: list[list[tuple[tuple[int, ...], int, int]]] = [[] for _ in out]
    start = index[v.source.state]
    queued = {start}
    todo = [start]
    while todo:
        s = todo.pop()
        for move in out[s]:
            net, cur, first = move
            if not cut[cur]:
                seen = {s, cur}
                while not cut[cur]:
                    delta, nxt, _tix = out[cur][0]
                    if (nxt in seen and not cut[nxt]) or any(a * d < 0 for a, d in zip(net, delta)):
                        cut[cur] = True
                        break
                    net = tuple([a + d for a, d in zip(net, delta)])
                    seen.add(nxt)
                    cur = nxt
                move = (net, cur, first)
            moves[s].append(move)
            if cur not in queued:
                queued.add(cur)
                todo.append(cur)
    return moves


def _target_caps(v: Vass, index: dict[str, int], bound: int) -> list[tuple[int, ...] | None]:
    """Per state index, None if the state cannot reach the target state;
    otherwise one cap per counter: `bound` if some transition on a path from
    the state to the target state decreases the counter, else
    `min(bound, target value)`.  Along every run from a state, a counter
    nothing later decreases only grows, so a configuration holding more than
    its target value there cannot reach the target.

    One backward worklist pass from the target state: a state's counters
    are those its transitions into live states decrease, plus those of
    their end states.  A state is queued again only when its set grows, so
    at most `dimension + 1` times."""
    into: list[list[tuple[int, int]]] = [[] for _ in v.states]
    for t in v.transitions:
        into[index[t.dst]].append(
            (index[t.src], sum(1 << i for i, d in enumerate(t.delta) if d < 0))
        )
    tgt = index[v.target.state]
    # per state: bitmask of the counters a path to the target can decrease
    dec: list[int | None] = [None] * len(v.states)
    dec[tgt] = 0
    todo = [tgt]
    while todo:
        d = todo.pop()
        for s, neg in into[d]:
            old = dec[s]
            new = dec[d] | neg | (old or 0)
            if new != old:
                dec[s] = new
                todo.append(s)
    tight = [min(bound, x) for x in v.target.vector]
    return [
        None if m is None else tuple(bound if m >> i & 1 else c for i, c in enumerate(tight))
        for m in dec
    ]


def _explore(
    packed: _Packed, tgt: int, max_configs: int, max_depth: int | None = None
) -> tuple[Verdict, dict[int, int], SearchStats]:
    """The breadth-first search, level by level from the source, for the
    packed key `tgt` (-1 to exhaust the space).  Returns the verdict, each
    stored key mapped to the index of the first transition of the move that
    first reached it (-1 for the source), and stats.

    A source outside its state's caps stores nothing: EXHAUSTED, stats
    (0, 0, 0).  A source that is the target is FOUND, stats (0, 1, 0).  A
    new key is checked against the node budget, then stored, then tested
    against the target.  `max_depth` caps the levels expanded.  `expanded`
    counts the keys whose successors were generated, `depth` the levels
    expanded (a level cut off part-way counts) and `frontier_peak` the
    largest level generated in full, a level being one move."""
    src = packed.src
    if src is None:
        return Verdict.EXHAUSTED, {}, SearchStats(0, 0, 0)
    stored = {src: -1}
    if src == tgt:
        return Verdict.FOUND, stored, SearchStats(0, 1, 0)
    adj = packed.adj
    smask = packed.smask
    cmask = packed.cmask
    frontier = [src]
    expanded = 0  # over completed levels
    depth = 0
    peak = 1
    while frontier:
        if depth == max_depth:
            return Verdict.BUDGET_EXCEEDED, stored, SearchStats(expanded, peak, depth)
        depth += 1
        nxt: list[int] = []
        for key in frontier:
            for pd, checks, tix in adj[key & smask]:
                nk = key + pd
                for sh, cap in checks:
                    if ((nk >> sh) & cmask) > cap:
                        break
                else:
                    if nk in stored:
                        continue
                    if len(stored) >= max_configs:
                        verdict = Verdict.BUDGET_EXCEEDED
                    else:
                        stored[nk] = tix
                        if nk != tgt:
                            nxt.append(nk)
                            continue
                        verdict = Verdict.FOUND
                    stats = SearchStats(expanded + frontier.index(key) + 1, peak, depth)
                    return verdict, stored, stats
        expanded += len(frontier)
        frontier = nxt
        if len(frontier) > peak:
            peak = len(frontier)
    return Verdict.EXHAUSTED, stored, SearchStats(expanded, peak, depth)


def halting_reachable(v: Vass, budget: SearchBudget) -> ReachResult:
    """Existence-only variant of shortest_halting: the same verdicts
    whenever no budget cuts the search, but no run is reconstructed (`run`
    is always None), which keeps memory linear in the visited-set size for
    multi-million-configuration spaces.

    The search steps along maximal deterministic chains of transitions and
    stores only the configurations where chains start or end, which include
    every place where runs can branch.  It also drops every configuration
    that provably cannot reach the target (see `_target_caps`): one at a
    state with no path to the target state, or one holding more than its
    target value in a counter that no transition on a path from its state to
    the target state decreases; that counter can only grow from there.  The
    rule rejects no configuration that can reach the target, so verdicts stay
    exact, and it is not a bound rejection.  `stats.expanded` counts the
    stored configurations, which pass the rule, not counting a target just
    found, and `depth` and `frontier_peak` count chain levels.  It stores a
    subset of the configurations an exhaustive per-transition search
    stores, so it never needs a larger `max_configs` to exhaust the space;
    when `max_configs` cuts a search, the two may stop at different points."""
    packed = _Packed(v, budget.counter_bound, chains=True, prune=True)
    verdict, stored, stats = _explore(packed, packed.tgt, budget.max_configs)
    found = verdict == Verdict.FOUND
    return ReachResult(verdict, None, replace(stats, expanded=len(stored) - found))


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
    packed = _Packed(v, budget.counter_bound)
    verdict, parent, stats = _explore(packed, packed.tgt, budget.max_configs, max_depth)
    run = _trace_run(v, packed, parent) if verdict == Verdict.FOUND else None
    return ReachResult(verdict, run, stats)


def _trace_run(v: Vass, packed: _Packed, parent: dict[int, int]) -> Run:
    """The run to the target that `_explore`'s parent map records: each key
    less the packed delta of the transition that reached it is its parent."""
    steps: list[Transition] = []
    index = packed.index
    key = packed.tgt
    while key != packed.src:
        tix = parent[key]
        t = v.transitions[tix]
        steps.append(t)
        key -= packed._move(t.delta, index[t.src], index[t.dst], tix)[0]
    steps.reverse()
    return Run(v.source, tuple(steps))


def _reach_keys(
    v: Vass, budget: SearchBudget, absorbing: frozenset[str], chains: bool
) -> tuple[_Packed, dict[int, int]]:
    """The packed configurations a search from the source stores within the
    bound (none if the source is above it).  Raises ValueError naming a
    state in `absorbing` that v lacks, and BudgetExceededError if the node
    budget is hit before exhaustion."""
    unknown = absorbing.difference(v.states)
    if unknown:
        raise ValueError(f"absorbing state {min(unknown)!r} is not a state of the VASS")
    packed = _Packed(v, budget.counter_bound, absorbing, chains)
    verdict, stored, _stats = _explore(packed, -1, budget.max_configs)
    if verdict == Verdict.BUDGET_EXCEEDED:
        raise BudgetExceededError(f"reachable-set exploration exceeded its budget: {budget}")
    return packed, stored


def reachable_configs(
    v: Vass, budget: SearchBudget, absorbing: frozenset[str] = frozenset()
) -> dict[str, set[tuple[int, ...]]]:
    """All configurations reachable within the bound, grouped by state.

    States in `absorbing` are not expanded (their configurations are still
    collected), which is how halt-completion drains are kept out of
    "values on arrival" collections.  Raises BudgetExceededError if the node
    budget is hit before exhaustion, and ValueError if a state in
    `absorbing` is not a state of v.

    Each distinct counter vector is decoded once, and every state holding
    it shares that one tuple: compiled programs have many goto and no-op
    lines, whose configurations repeat their neighbours' vectors.
    """
    packed, stored = _reach_keys(v, budget, absorbing, chains=False)
    states, sbits, smask, cmask = v.states, packed.sbits, packed.smask, packed.cmask
    # field shifts within the counter part of a key, `key >> sbits`
    shifts = [sh - sbits for sh in packed.shifts]
    vectors: dict[int, tuple[int, ...]] = {}
    out: dict[str, set[tuple[int, ...]]] = {}
    for key in stored:
        state = states[key & smask]
        counters = key >> sbits
        vec = vectors.get(counters)
        if vec is None:
            vec = vectors[counters] = tuple([(counters >> sh) & cmask for sh in shifts])
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
    Raises BudgetExceededError as reachable_configs does, and ValueError
    if `at_state` is not a state of v."""
    state = at_state if at_state is not None else v.target.state
    packed, stored = _reach_keys(v, budget, frozenset({state}), chains=True)
    at, smask, cmask, shifts = packed.index[state], packed.smask, packed.cmask, packed.shifts
    return frozenset(
        tuple([(key >> sh) & cmask for sh in shifts]) for key in stored if key & smask == at
    )


def count_halting_runs(v: Vass, budget: SearchBudget, cutoff: int = 1_000_000) -> int:
    """Number of distinct halting paths within the bound, saturated at
    `cutoff`, which must be at least 1.

    The bounded configuration graph must be acyclic (a cycle would make some
    counts infinite); a back edge raises ConfigCycleError.  This is a bounded
    check, not a proof about unbounded runs.

    The depth-first search steps along maximal deterministic chains, as in
    halting_reachable.  Chains are deterministic and the target state is a
    cut, so halting paths map one to one onto chain paths, and a cycle of
    configurations shows up as a cycle among chain ends.

    When `acyclic_configurations` certifies that no run of v repeats a
    configuration, no search could meet a cycle, so the count also drops
    every configuration that cannot reach the target, as halting_reachable
    does (see `_target_caps`).  Such a configuration lies on no halting
    path, so counts stay exact.  Every other VASS is searched in full, so
    that any cycle within the bound, even among configurations that cannot
    halt, raises ConfigCycleError.

    `max_configs` counts the chain-end configurations stored, a subset of
    every reachable configuration, so it never needs a larger budget to
    finish than a per-transition search would.
    """
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    packed = _Packed(v, budget.counter_bound, chains=True, prune=acyclic_configurations(v))
    if packed.src is None:
        return 0
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
    """One walk of the schedule a policy fixes, over tables built once.

    `table[line]` holds the index of the counter the line moves (None if
    none), the amount, and the line's `Transition` to each next line.
    `bodies[entry]` holds, for a loop whose body only moves distinct
    counters, the net effect per counter and one iteration's transitions;
    other loops map to None and are walked stepwise.  `run` walks lines,
    and `_loop` alone applies `DrainLoop` and `CountedLoop`.  `checks` holds
    each line where the walk could cycle, the entry of a stepwise loop or
    the target of a backward goto other than a loop's own back goto; `run`
    stops when one comes round with the same counters and counted-loop
    state.
    """

    def __init__(self, compiled: CompiledProgram, policy: dict[int, LoopPolicy], materialize: bool):
        flat = compiled.program
        self.compiled, self.flat, self.policy, self.materialize = compiled, flat, policy, materialize
        self.cix = cix = {c: i for i, c in enumerate(flat.counters)}
        self.vec = [0] * len(cix)
        self.peak = [0] * len(cix)
        self.length = 0
        self.steps: list[Transition] = []
        self.counted_left: dict[int, int] = {}
        self.iterations: dict[int, int] = {}  # per loop, in its current activation
        self.observations: dict[int, tuple[list[int], list[tuple[int, ...]]]] = {}
        # The VASS's own transitions: a materialized run shares them, and a
        # step the VASS lacks is a fresh object that `validate_run` rejects.
        known = {(t.src, t.delta, t.dst): t for t in compiled.vass.transitions}
        zero = (0,) * len(cix)

        def transition(src: str, ci: int | None, amount: int, dst: str) -> Transition:
            delta = zero if ci is None else zero[:ci] + (amount,) + zero[ci + 1:]
            t = known.get((src, delta, dst))
            return t if t is not None else Transition(src, delta, dst)

        self.spans = {s.entry: s for s in flat.loops}
        self.checks: set[int] = set()
        state = (*compiled.line_states, compiled.halt_state)  # line i -> state[i - 1]
        self.table: list[tuple[int | None, int, dict[int, Transition]]] = [(None, 0, {})]
        for ln, cmd in enumerate(flat.lines, start=1):
            ci, amount = None, 0
            nexts = () if isinstance(cmd, Halt) else (ln + 1,)
            if isinstance(cmd, (Add, Sub)):
                ci = cix[cmd.counter]
                amount = cmd.amount if isinstance(cmd, Add) else -cmd.amount
            elif isinstance(cmd, Goto):
                nexts = (cmd.first, cmd.second)
                for t in nexts:
                    if t <= ln and (t not in self.spans or self.spans[t].back != ln):
                        self.checks.add(t)
            src = state[ln - 1]
            self.table.append((ci, amount, {t: transition(src, ci, amount, state[t - 1]) for t in nexts}))
        self.bodies: dict[int, tuple[dict[int, int], list[Transition]] | None] = {}
        for s in flat.loops:
            body = self.table[s.body_start:s.back]
            moved = [ci for ci, _, _ in body]
            if None in moved or len(set(moved)) < len(moved):
                self.bodies[s.entry] = None
                self.checks.add(s.entry)
            else:
                one = [t for _, _, nexts in body for t in nexts.values()]
                one = [self.table[s.entry][2][s.body_start], *one, self.table[s.back][2][s.entry]]
                self.bodies[s.entry] = ({ci: amount for ci, amount, _ in body}, one)
        # halt completion: per untested counter, its drain step and the step
        # on to the next counter's drain state (none after the last)
        chain = compiled.drain_chain
        links = [[transition(a, None, 0, b)] for (a, _), (b, _) in zip(chain, chain[1:])] + [[]]
        self.drains = [(cix[c], transition(s, cix[c], -1, s), link) for (s, c), link in zip(chain, links)]

    def run(self) -> ReplayOutcome:
        lines, table, spans, checks = self.flat.lines, self.table, self.spans, self.checks
        n = len(lines)
        vec, peak, steps, materialize = self.vec, self.peak, self.steps, self.materialize
        last_visit: dict[int, tuple[tuple[int, ...], dict[int, int]]] = {}
        pc = 1
        guard = 0
        while pc <= n:
            guard += 1
            # the largest replay any family makes, 2exp(10), takes about 10,250 visits
            if guard > 2_000_000:
                raise PolicyStuckError("replay did not terminate (policy loops)")
            if pc in checks:
                visit = (tuple(vec), dict(self.counted_left))
                if last_visit.get(pc) == visit:
                    where = f"loop at line {pc}" if pc in spans else f"line {pc}"
                    what = "entry" if pc in spans else "line"
                    raise PolicyStuckError(
                        f"{where}: replay does not terminate ({what} reached again with the same counters)"
                    )
                last_visit[pc] = visit
            cmd = lines[pc - 1]
            ci, amount, nexts = table[pc]
            nxt = pc + 1
            if isinstance(cmd, Halt):
                break
            if pc in spans:
                nxt = self._loop(spans[pc])
            elif isinstance(cmd, Goto):
                nxt = cmd.first
                if cmd.second != nxt:
                    pol = self.policy.get(pc)
                    if not isinstance(pol, TakeBranch):
                        raise PolicyStuckError(f"line {pc}: no branch policy for goto")
                    nxt = cmd.second if pol.second else nxt
            elif ci is not None:
                vec[ci] += amount
                if vec[ci] < 0:
                    raise PolicyStuckError(f"line {pc}: counter {cmd.counter!r} would go below zero")
                peak[ci] = max(peak[ci], vec[ci])
            elif not isinstance(cmd, Init):
                raise PolicyStuckError(f"line {pc}: cannot replay {cmd!r}")
            if materialize:
                steps.append(nexts[nxt])
            self.length += 1
            pc = nxt

        halted = pc <= n
        if halted:
            for ci, drain, link in self.drains:
                self.length += vec[ci] + len(link)
                if materialize:
                    steps += [drain] * vec[ci] + link
                vec[ci] = 0
        vass = self.compiled.vass
        final = Configuration(vass.target.state if halted else self.compiled.halt_state, tuple(vec))
        loops = {e: LoopObservation(e, tuple(it), tuple(ex)) for e, (it, ex) in sorted(self.observations.items())}
        run = Run(vass.source, tuple(steps)) if materialize else None
        return ReplayOutcome(run, RunProbe(loops, tuple(peak), self.length), final == vass.target, final)

    def _loop(self, span: LoopSpan) -> int:
        """Apply the policy at a loop's entry and return the line the caller
        steps to.  The policy fixes how many iterations to run from here:
        all that remain for a straight-line body, fast-forwarded before the
        exit, or 0 or 1 for a body walked stepwise."""
        entry, vec = span.entry, self.vec
        pol = self.policy.get(entry)
        if pol is None:
            raise PolicyStuckError(f"line {entry}: no policy for loop")
        body = self.bodies[entry]
        if isinstance(pol, DrainLoop):
            ci = self.cix.get(pol.counter)
            if ci is None:
                raise PolicyStuckError(f"loop at line {entry}: policy drains {pol.counter!r}, not a counter")
            if body is None:
                count = int(vec[ci] != 0)
            else:
                dec = -body[0].get(ci, 0)
                if dec <= 0:
                    raise PolicyStuckError(f"loop at line {entry} does not decrease {pol.counter!r}")
                count, rest = divmod(vec[ci], dec)
                if rest:
                    raise PolicyStuckError(
                        f"loop at line {entry}: {pol.counter!r}={vec[ci]} not divisible "
                        f"by per-iteration decrement {dec}"
                    )
        elif isinstance(pol, CountedLoop):
            count = self.counted_left.pop(entry, pol.iterations)
            if body is None:
                if count:
                    self.counted_left[entry] = count - 1
                count = int(count > 0)
        else:
            raise PolicyStuckError(f"line {entry}: policy {pol!r} does not fit a loop")

        if body is None and count:
            self.iterations[entry] = self.iterations.get(entry, 0) + 1
            return span.body_start
        if body is not None and count > 0:
            deltas, one = body
            for ci, d in deltas.items():
                vec[ci] += count * d
                if vec[ci] < 0:
                    raise PolicyStuckError(
                        f"loop at line {entry}: counter {self.flat.counters[ci]!r} "
                        f"underflows after {count} iterations"
                    )
                # each counter moves monotonically across iterations
                self.peak[ci] = max(self.peak[ci], vec[ci])
            if self.materialize:
                self.steps += one * count
            self.length += count * len(one)
        iterations, exits = self.observations.setdefault(entry, ([], []))
        iterations.append(self.iterations.pop(entry, 0) + count)
        exits.append(tuple(vec))
        return span.exit


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
    Raises PolicyStuckError if the schedule deadlocks, or as soon as the
    entry of a loop walked stepwise, or the target of a backward goto other
    than a loop's own back goto, comes round with nothing changed, since the
    replay would then repeat forever.  `halting` is whether the final configuration is the target.

    A materialized run shares the `Transition` objects of `compiled.vass`
    rather than holding a fresh one per step, and a fast-forwarded loop's
    iterations are appended as whole blocks.  A step the VASS lacks is still
    emitted, as a new `Transition`, so `validate_run` rejects it: replay
    never vouches for its own steps.
    """
    return _Replay(compiled, policy, materialize).run()
