"""Bounded exploration of VASS configuration spaces.

Everything here is bound-relative: exploration prunes any configuration with
a counter above the budget's bound, so "no halting run" verdicts certify
nonexistence only within that bound.  Family verifiers pick bounds that
provably contain every halting run, which upgrades the certificate.  Search
is deterministic: successors are expanded in the canonical transition order
of the Vass, and results, stats and shortest-run tie-breaks included, are
reproducible.

The searches with a target also drop every configuration that provably
cannot reach it, by linear invariants worked out once per search over the
moves from the target state back (`_invariants`): a weight vector w holds at
a state when every move on a path from it to the target state has `w·net <=
0`, so a configuration there with `w·v < w·target` cannot halt.  The unit
vectors -e_i cap single counters at their target values; the ratio vectors
`a·e_i - b·e_j`, one per loop that lowers counters i and j, with `a·net_i =
b·net_j` on it, catch what a cap on one counter cannot: on the exponential
family, the last loop `x -= n+1; y -= 1` zeroes y only from `x >= (n+1)·y`.

Where each part lives:
- `_Packed` packs a configuration into one int and holds the moves from
  each state: single transitions, or the deterministic chains of
  `_chain_moves`, each tested against per-field caps by one guard-bit
  expression; `_invariants` tightens the caps for the searches with a
  target, and each ratio invariant gets a packed field of its own.
- `_explore` is the breadth-first search of `halting_reachable`,
  `reachable_configs` and `count_halting_runs`, `_dial` the search by step
  count of `shortest_halting`; `count_halting_runs` and `_lex_least_run`
  then walk back from the target over reversed moves (`_Packed.into`).
- `_Reachable` is the mapping `reachable_configs` returns, decoded when
  read: from the stored chain ends for an absorbing state, from one
  per-transition search for any other; `final_vectors` reads one state of
  it.
- `_Replay` walks the one run a loop policy fixes, for `replay_canonical`.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from collections import deque
from collections.abc import Iterator, Mapping, MutableSequence
from dataclasses import asdict, dataclass, replace
from enum import Enum

from .compiler import CompiledProgram
from .errors import BudgetExceededError, ConfigCycleError, PolicyStuckError
from .expansion import LoopSpan
from .lang import Add, Goto, Halt, Sub
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
    """What a search did.  In `halting_reachable`, `expanded` counts the
    stored configurations, not counting a target just found, `frontier_peak`
    the largest level of chain ends and `depth` the levels expanded.  In
    `shortest_halting`, `expanded` counts the chain ends taken off and
    expanded, `frontier_peak` the largest bucket of chain ends queued at one
    step distance and `depth` the step distance reached: the target's, or
    that of the chain end the node budget could not hold.  A source outside
    its caps gives (0, 0, 0), and a source that is the target (0, 1, 0)."""

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


class _Packed:
    """Configurations packed into single ints: the state index in the low
    bits, then one field per ratio invariant, then one field of `wbits` bits
    per counter.  States in `absorbing` get no outgoing transitions.

    Caps are the bound, unless `prune` tightens them for the target (see
    `_invariants`); then moves into states that cannot reach the target
    state are left out, and each ratio invariant `a·v_i - b·v_j` gets a
    derived field `u = K + b·v_j - a·v_i`, capped at `K - w·target` at the
    states of its region and at its field's top elsewhere.  A successor is
    one integer addition and one guard test against the caps at the move's
    end state: with `top` a field's largest value with its top bit clear,
    `guard` holds each field's top bit and a move's `off` holds `top - cap`
    in each field, and `nk` is kept iff `(nk | nk + off) & guard == 0`
    (Lamport, CACM 1975).  The counter fields are wide enough that `bound +
    largest move amount <= top`, so a field in range sets its top bit in
    neither int, an underflow borrows and sets it in `nk`, and a value above
    its cap sets it in `nk + off`.  No field below the lowest one out of
    range carries or borrows into it, so that field shows its top bit and
    the test is exact.  A derived field's `K` and width leave room for every
    counter pair in [-amount, bound + amount], so in `nk` it never leaves
    [0, top] and never borrows from the counters above it: `nk & guard`
    alone is nonzero exactly when some counter went below zero.

    Adjacency entries are the moves of `_chain_moves`, so only states
    reachable from the source state get entries.  With `chains`, each entry
    is a maximal deterministic chain of transitions rather than one
    transition, and only the states where chains start get entries.  Every
    chain is monotone in every counter, so testing its end configuration
    tests every configuration along it.  An entry is `(packed delta, cap
    offsets, first transition index, length in transitions)`."""

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
        nets = {net for ms in moves for net, *_ in ms}
        amount = max(map(abs, itertools.chain.from_iterable(nets)), default=0)
        if prune:
            caps, ratios = _invariants(moves, index[v.target.state], v.target.vector, bound)
        else:
            caps, ratios = [(bound,) * v.dimension] * len(v.states), []
        self.ratios = ratios
        self.sbits = max(1, (len(v.states) - 1).bit_length())
        self.wbits = max(1, (2 * (bound + amount) + 1).bit_length())
        self.smask = (1 << self.sbits) - 1
        self.cmask = (1 << self.wbits) - 1
        # one derived field per ratio invariant, between the state bits and
        # the counters: u = K + b·v_j - a·v_i over v_i, v_j in [-amount,
        # bound + amount] spans [0, (a + b)·(bound + 2·amount)]
        ks, tops, shifts = [], [], []
        at = self.sbits
        for i, a, j, b, _r in ratios:
            ks.append(a * (bound + amount) + b * amount)
            width = ((a + b) * (bound + 2 * amount)).bit_length() + 1
            tops.append((1 << (width - 1)) - 1)
            shifts.append(at)
            at += width
        self.shifts = tuple(at + self.wbits * i for i in range(v.dimension))
        self.field_shifts = self.shifts + tuple(shifts)
        tops = self.field_tops = [self.cmask >> 1] * v.dimension + tops
        self.ks = [0] * v.dimension + ks  # each field's K; a counter's is 0
        self.guard = self._pack([top + 1 for top in tops])
        self._base = self._pack(self.ks)
        # per state, every field's cap, counters first: a derived field's
        # binds inside its invariant's region
        if ratios:
            target = self._lin(v.target.vector)[v.dimension:]
            low = [min(max(k + x, 0), top) for k, x, top in zip(ks, target, tops[v.dimension:])]
            caps = [
                None if c is None else c + tuple(
                    [u if r[s] else top for u, top, (*_w, r) in zip(low, tops[v.dimension:], ratios)]
                )
                for s, c in enumerate(caps)
            ]
        self.caps = caps
        # the cap offsets of each distinct caps tuple; a state whose caps are
        # None cannot reach the target state, and no move enters it
        offs = {c: self._pack([t - x for t, x in zip(tops, c)]) for c in set(caps) if c is not None}
        packed = {net: self._pack(self._lin(net)) for net in nets}
        self.adj = [
            [
                (dst - s + packed[delta], offs[caps[dst]], tix, n)
                for delta, dst, tix, n in ms
                if caps[dst] is not None
            ] if ms else []
            for s, ms in enumerate(moves)
        ]
        # a configuration outside its state's caps could overflow its fields:
        # such a source is never searched, and such a target never reached
        self.src = self.encode(v.source) if self.admits(v.source) else None
        self.tgt = self.encode(v.target) if self.admits(v.target) else -1

    def _pack(self, values) -> int:
        """One value per field, counters first, shifted into place and summed."""
        return sum([x << shift for x, shift in zip(values, self.field_shifts) if x])

    def _lin(self, vec: tuple[int, ...]) -> tuple[int, ...]:
        """The counters, then `-(a·v_i - b·v_j)` per ratio invariant: the
        fields of a vector less their `K`s, or of a move's net effect."""
        if not self.ratios:
            return vec
        return (*vec, *[b * vec[j] - a * vec[i] for i, a, j, b, _r in self.ratios])

    def admits(self, cfg: Configuration) -> bool:
        """Whether cfg is within the caps of its state, derived fields
        included."""
        caps = self.caps[self.index[cfg.state]]
        return caps is not None and all(
            x + k <= c for x, k, c in zip(self._lin(cfg.vector), self.ks, caps)
        )

    def encode(self, cfg: Configuration) -> int:
        return self.index[cfg.state] + self._base + self._pack(self._lin(cfg.vector))

    def into(self) -> list[list[tuple[int, int]]]:
        """Per state index, `(packed delta, length)` of each move into it.
        A stored `key - packed delta` is the move's start: a counter below
        zero there would set a field's top bit, which no stored key sets."""
        into: list[list[tuple[int, int]]] = [[] for _ in self.adj]
        for s, ms in enumerate(self.adj):
            for pd, _off, _tix, n in ms:
                into[(s + pd) & self.smask].append((pd, n))
        return into


def _chain_moves(
    v: Vass, index: dict[str, int], absorbing: frozenset[str], chains: bool
) -> list[list[tuple[tuple[int, ...], int, int, int]]]:
    """Per state index, one `(net delta, end state index, first transition
    index, length)` per outgoing transition of a cut state reachable from
    the source state: the maximal deterministic chain that starts with that
    transition, `length` transitions long.
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
    moves: list[list[tuple[tuple[int, ...], int, int, int]]] = [[] for _ in out]
    start = index[v.source.state]
    queued = {start}
    todo = [start]
    while todo:
        s = todo.pop()
        for net, cur, first in out[s]:
            seen = {s, cur}
            n = 1
            while not cut[cur]:
                delta, nxt, _ = out[cur][0]
                if (nxt in seen and not cut[nxt]) or min(map(operator.mul, net, delta), default=0) < 0:
                    cut[cur] = True
                    break
                net = tuple(map(operator.add, net, delta))
                seen.add(nxt)
                cur = nxt
                n += 1
            moves[s].append((net, cur, first, n))
            if cur not in queued:
                queued.add(cur)
                todo.append(cur)
    return moves


def _invariants(
    moves: list[list[tuple[tuple[int, ...], int, int, int]]],
    tgt: int,
    target: tuple[int, ...],
    bound: int,
) -> tuple[list[tuple[int, ...] | None], list[tuple[int, int, int, int, list[bool]]]]:
    """Linear invariants that hold downstream of each state, for the
    searches with a target.  A weight vector w holds at state s when every
    move on a path from s to the target state has `w·net <= 0`: along every
    run from s to the target w·v never grows, so a configuration at s with
    `w·v < w·target` cannot halt.  The states where w holds, its region,
    are closed downstream.

    Returns, per state index, None if the state cannot reach the target
    state, else one cap per counter: w = -e_i, which holds where no move on
    such a path decreases counter i, caps the counter at `min(bound, target
    value)`, and elsewhere the cap is `bound`.  Also returns the ratio
    invariants `(i, a, j, b, region)`, w = a·e_i - b·e_j, region a flag per
    state: each loop (a move from a state back to itself) that decreases
    counters i and j gives `a = |net_j| / g` and `b = |net_i| / g`, g their
    gcd, so that the loop itself has `w·net = 0`, and w is kept when the
    loop's state is in its region.

    One backward worklist pass from the target state gives each state the
    bitmask of the distinct nets on its paths to the target state: those of
    its moves into live states, plus those of their end states'.  A state
    is queued again only when its mask grows, so at most once per distinct
    net.  An invariant holds at a state whose mask has none of the nets
    that break it."""
    bits: dict[tuple[int, ...], int] = {}
    into: list[list[tuple[int, int]]] = [[] for _ in moves]
    loops = []
    for s, ms in enumerate(moves):
        for net, d, _tix, _n in ms:
            into[d].append((s, bits.setdefault(net, 1 << len(bits))))
            if d == s:
                loops.append((s, net))
    down: list[int | None] = [None] * len(moves)
    down[tgt] = 0
    todo = [tgt]
    while todo:
        d = todo.pop()
        for s, bit in into[d]:
            old = down[s]
            new = down[d] | bit | (old or 0)
            if new != old:
                down[s] = new
                todo.append(s)

    # per counter, the masks of the nets that raise and that lower it
    nets = list(bits)
    rises = [sum([1 << k for k, net in enumerate(nets) if net[i] > 0]) for i in range(len(target))]
    falls = [sum([1 << k for k, net in enumerate(nets) if net[i] < 0]) for i in range(len(target))]
    tight = [min(bound, x) for x in target]
    by_mask = {
        m: tuple([bound if m & fall else c for fall, c in zip(falls, tight)])
        for m in set(down) if m is not None
    }
    caps = [None if m is None else by_mask[m] for m in down]

    ratios: list[tuple[int, int, int, int, list[bool]]] = []
    breaking: dict[tuple[int, int, int, int], int] = {}  # per w, the nets that break it
    kept = set()
    for s, net in loops:
        here = down[s]
        if here is None:
            continue
        for i, j in itertools.permutations([i for i, x in enumerate(net) if x < 0], 2):
            # the nets with a·x_i > b·x_j by their signs alone
            signed = rises[i] & ~rises[j] | falls[j] & ~falls[i]
            if here & signed:
                continue
            g = math.gcd(net[i], net[j])
            a, b = -net[j] // g, -net[i] // g
            w = (i, a, j, b)
            if w in kept:
                continue
            if w not in breaking:
                both = rises[i] & rises[j] | falls[i] & falls[j]
                breaking[w] = signed | sum(
                    [1 << k for k, x in enumerate(nets) if both >> k & 1 and a * x[i] > b * x[j]]
                )
            bad = breaking[w]
            if not here & bad:
                kept.add(w)
                ratios.append((*w, [m is not None and not m & bad for m in down]))
    return caps, ratios


def _explore(
    packed: _Packed, tgt: int, max_configs: int
) -> tuple[Verdict, dict[int, int], SearchStats]:
    """The breadth-first search, level by level from the source, for the
    packed key `tgt` (-1 to exhaust the space).  Returns the verdict, each
    stored key mapped to the index of the first transition of the move that
    first reached it (-1 for the source), and stats.

    A source outside its state's caps stores nothing: EXHAUSTED, stats
    (0, 0, 0).  A source that is the target is FOUND, stats (0, 1, 0).  A
    new key is checked against the node budget, then stored, then tested
    against the target.  `expanded` counts the stored keys, not counting a
    target just found, `depth` the levels expanded (a level cut off
    part-way counts) and `frontier_peak` the largest level generated in
    full, a level being one move."""
    src = packed.src
    if src is None:
        return Verdict.EXHAUSTED, {}, SearchStats(0, 0, 0)
    stored = {src: -1}
    if src == tgt:
        return Verdict.FOUND, stored, SearchStats(0, 1, 0)
    adj, smask, guard = packed.adj, packed.smask, packed.guard
    frontier = [src]
    depth = 0
    peak = 1
    while frontier:
        depth += 1
        nxt: list[int] = []
        for key in frontier:
            for pd, off, tix, _n in adj[key & smask]:
                nk = key + pd
                if (nk | nk + off) & guard or nk in stored:
                    continue
                if len(stored) >= max_configs:
                    return Verdict.BUDGET_EXCEEDED, stored, SearchStats(len(stored), peak, depth)
                stored[nk] = tix
                if nk != tgt:
                    nxt.append(nk)
                    continue
                return Verdict.FOUND, stored, SearchStats(len(stored) - 1, peak, depth)
        frontier = nxt
        if len(frontier) > peak:
            peak = len(frontier)
    return Verdict.EXHAUSTED, stored, SearchStats(len(stored), peak, depth)


def halting_reachable(v: Vass, budget: SearchBudget) -> ReachResult:
    """Existence-only variant of shortest_halting: the same verdicts
    whenever no budget cuts the search, but no run is reconstructed (`run`
    is always None), which keeps memory linear in the visited-set size for
    multi-million-configuration spaces.

    The search steps along maximal deterministic chains of transitions and
    stores only the configurations where chains start or end, which include
    every place where runs can branch.  It also drops every configuration
    that provably cannot reach the target (see `_invariants`): one at a
    state with no path to the target state; one holding more than its
    target value in a counter that no move on a path from its state to the
    target state decreases, since that counter can only grow from there; and
    one where `a·v_i - b·v_j` is below its target value for a ratio
    invariant that no move on such a path raises, taken from a loop that
    lowers counters i and j and holding at that loop's state.  The rule
    rejects no configuration that can reach the target, so verdicts stay
    exact, and it is not a bound rejection.  `stats.expanded` counts the
    stored configurations, which pass the rule, not counting a target just
    found, and `depth` and `frontier_peak` count chain levels.  It stores a
    subset of the configurations an exhaustive per-transition search
    stores, so it never needs a larger `max_configs` to exhaust the space;
    when `max_configs` cuts a search, the two may stop at different points."""
    packed = _Packed(v, budget.counter_bound, chains=True, prune=True)
    verdict, _stored, stats = _explore(packed, packed.tgt, budget.max_configs)
    return ReachResult(verdict, None, stats)


def shortest_halting(
    v: Vass, budget: SearchBudget, max_depth: int | None = None
) -> ReachResult:
    """A shortest halting run within the counter bound.

    FOUND returns a minimum-length halting run, the least in canonical
    transition order; EXHAUSTED certifies that no halting run stays within
    the bound; BUDGET_EXCEEDED means the node budget, or `max_depth` (a cap
    on run length), cut search off.

    The search (`_dial`) runs over the moves of halting_reachable, chains
    included, each costing its length.  A run is a sequence of chains, and
    two runs first differ at a chain's first transition, so whenever no
    budget cuts it the run is the one a per-transition breadth-first search
    without the target rule returns.  `max_configs` counts the chain ends
    met.  The depth cap drops each chain end farther than `max_depth` steps,
    and gives BUDGET_EXCEEDED only if one it dropped is never stored from a
    closer start; if every one is, the space is EXHAUSTED.
    """
    if max_depth is not None and max_depth < 0:
        raise ValueError("max_depth must be >= 0")
    packed = _Packed(v, budget.counter_bound, chains=True, prune=True)
    cap = sys.maxsize if max_depth is None else max_depth
    verdict, dist, stats = _dial(packed, budget.max_configs, cap)
    run = _lex_least_run(v, packed, dist) if verdict == Verdict.FOUND else None
    return ReachResult(verdict, run, stats)


def _dial(
    packed: _Packed, max_configs: int, max_depth: int
) -> tuple[Verdict, dict[int, int], SearchStats]:
    """Dial's bucket queue (CACM 1969): keys come off buckets indexed by
    step distance, nearest first, and each is stored and expanded when it
    first comes off, at its shortest distance.  A key is checked against
    the node budget when first met, and queued again whenever met closer,
    unless beyond `max_depth`.  The target is found once nothing can reach
    it sooner: when the buckets reach its distance, or when it is met one
    step past the current bucket.  Returns the verdict, the least distance
    found for each key met (exact below the target's) and stats."""
    src, tgt = packed.src, packed.tgt
    if src is None:
        return Verdict.EXHAUSTED, {}, SearchStats(0, 0, 0)
    if src == tgt:
        return Verdict.FOUND, {src: 0}, SearchStats(0, 1, 0)
    adj, smask, guard = packed.adj, packed.smask, packed.guard
    lengths = {n for ms in adj for *_, n in ms}
    dist = {src: 0}
    buckets = {0: [src]}
    expanded = peak = d = last = 0  # `last`: the last distance a key was expanded at
    while buckets:
        if dist.get(tgt, d + 1) <= d:
            return Verdict.FOUND, dist, SearchStats(expanded, peak, d)
        bucket = buckets.pop(d, None)
        if bucket is None:
            d += 1
            continue
        peak = max(peak, len(bucket))
        # one int per distance, shared by every key queued at it, so the
        # distance map holds no int of its own per key
        far = {n: d + n for n in lengths}
        for key in bucket:
            if dist[key] < d:
                continue  # stored already, at its shorter distance
            expanded += 1
            last = d
            for pd, off, _tix, n in adj[key & smask]:
                nk = key + pd
                if (nk | nk + off) & guard:
                    continue
                nd = far[n]
                old = dist.get(nk)
                if old is None:
                    if len(dist) >= max_configs:
                        return Verdict.BUDGET_EXCEEDED, dist, SearchStats(expanded, peak, nd)
                elif nd >= old:
                    continue
                dist[nk] = nd
                if nd > max_depth:
                    continue
                if nk == tgt and n == 1:
                    # nothing reaches it sooner; the rest of this bucket
                    # stays unexpanded, its keys at their shortest distance
                    return Verdict.FOUND, dist, SearchStats(expanded, peak, nd)
                queued = buckets.get(nd)
                if queued is None:
                    buckets[nd] = [nk]
                else:
                    queued.append(nk)
        d += 1
    # every queued key was stored, so a key met but not stored was dropped
    # by the depth cap and never met closer
    verdict = Verdict.BUDGET_EXCEEDED if len(dist) > expanded else Verdict.EXHAUSTED
    return verdict, dist, SearchStats(expanded, peak, last)


def _lex_least_run(v: Vass, packed: _Packed, dist: dict[int, int]) -> Run:
    """The least shortest run to the target, once `_dial` has found it.  A
    move is tight when its start's distance plus its length is its end's.
    A pass back from the target marks the stored keys that reach it by
    tight moves; a walk from the source then takes, at each key, the first
    tight move to a marked key and expands that chain into transitions."""
    adj, into, smask, tgt = packed.adj, packed.into(), packed.smask, packed.tgt
    # a move that leaves the caps ends at no stored key, so needs no test
    marked = {tgt}
    todo = [tgt]
    for key in todo:
        for pd, n in into[key & smask]:
            pk = key - pd
            if dist.get(pk) == dist[key] - n and pk not in marked:
                marked.add(pk)
                todo.append(pk)
    only = {t.src: t for t in v.transitions}  # the one transition inside a chain
    steps: list[Transition] = []
    key = packed.src
    while key != tgt:
        d = dist[key]
        for pd, _off, tix, n in adj[key & smask]:
            nk = key + pd
            if nk in marked and dist[nk] == d + n:
                break
        t = v.transitions[tix]
        steps.append(t)
        for _ in range(n - 1):
            t = only[t.dst]
            steps.append(t)
        key = nk
    return Run(v.source, tuple(steps))


class _Reachable(Mapping[str, set[tuple[int, ...]]]):
    """What `reachable_configs` returns: the chain-end keys `_explore`
    stored, decoded when read (see there).  A read of an absorbing state
    filters the keys each time; the first full read, or the first read of
    any other state, runs the per-transition search once, decodes every key
    it stores to fill `_all` in one pass and releases the chain-end keys,
    and from then on `_all` serves every read."""

    def __init__(
        self, v: Vass, bound: int, absorbing: frozenset[str], packed: _Packed, keys: dict[int, int]
    ):
        self._v, self._bound, self._absorbing = v, bound, absorbing
        self._packed = packed
        self._keys: dict[int, int] | None = keys
        self._all: dict[str, set[tuple[int, ...]]] = {}

    def __getitem__(self, state: str) -> set[tuple[int, ...]]:
        keys = self._keys
        if keys is None or state not in self._absorbing:
            return self._decoded()[state]
        # one filtering pass over the keys, decoding only those at `at`
        packed = self._packed
        at, smask, cmask, shifts = packed.index[state], packed.smask, packed.cmask, packed.shifts
        vectors = {
            tuple([(key >> sh) & cmask for sh in shifts]) for key in keys if key & smask == at
        }
        if not vectors:
            raise KeyError(state)
        return vectors

    def _decoded(self) -> dict[str, set[tuple[int, ...]]]:
        """Every state's vectors, searching one transition at a time and
        decoding every configuration in one pass the first time it is
        called."""
        if self._keys is None:
            return self._all
        packed = _Packed(self._v, self._bound, self._absorbing)
        # no node budget: the decode holds every configuration anyway
        keys = _explore(packed, -1, sys.maxsize)[1]
        states, sbits, smask, cmask = self._v.states, packed.sbits, packed.smask, packed.cmask
        # field shifts within the counter part of a key, `key >> sbits`
        shifts = [sh - sbits for sh in packed.shifts]
        vectors: dict[int, tuple[int, ...]] = {}
        out: dict[str, set[tuple[int, ...]]] = {}
        for key in keys:
            state = states[key & smask]
            counters = key >> sbits
            vec = vectors.get(counters)
            if vec is None:
                vec = vectors[counters] = tuple([(counters >> sh) & cmask for sh in shifts])
            if state in out:
                out[state].add(vec)
            else:
                out[state] = {vec}
        self._all, self._keys = out, None
        return out

    def __iter__(self) -> Iterator[str]:
        return iter(self._decoded())

    def __len__(self) -> int:
        return len(self._decoded())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._decoded()!r})"


def reachable_configs(
    v: Vass, budget: SearchBudget, absorbing: frozenset[str] = frozenset()
) -> Mapping[str, set[tuple[int, ...]]]:
    """All configurations reachable within the bound, grouped by state: a
    read-only mapping from each reached state to its counter vectors.

    States in `absorbing` are not expanded (their configurations are still
    collected), which is how halt-completion drains are kept out of
    "values on arrival" collections.  Raises BudgetExceededError if the node
    budget is hit before exhaustion, and ValueError if a state in
    `absorbing` is not a state of v; both before returning.

    The search steps along maximal deterministic chains, as in
    halting_reachable, and stores only the configurations where chains
    start or end; `max_configs` counts those, so it never needs a larger
    budget to finish than a per-transition search would.  A read of an
    absorbing state filters them and decodes only that state's: no chain
    passes through an absorbing state, so every configuration at one is
    stored.  The first read of every state (iteration, `len`, `items`,
    `values`, `==`), or of any other state, searches again one transition
    at a time with no node budget, so it never raises BudgetExceededError,
    and decodes every configuration in one pass, each distinct counter
    vector once and shared by every state holding it (compiled programs
    have many goto and no-op lines, whose configurations repeat their
    neighbours' vectors).  States come in the order that search first
    reaches them.  Only that full decode is cached.
    """
    unknown = absorbing.difference(v.states)
    if unknown:
        raise ValueError(f"absorbing state {min(unknown)!r} is not a state of the VASS")
    packed = _Packed(v, budget.counter_bound, absorbing, chains=True)
    verdict, stored, _stats = _explore(packed, -1, budget.max_configs)
    if verdict == Verdict.BUDGET_EXCEEDED:
        raise BudgetExceededError(f"reachable-set exploration exceeded its budget: {budget}")
    return _Reachable(v, budget.counter_bound, absorbing, packed, stored)


def final_vectors(
    v: Vass, budget: SearchBudget, at_state: str | None = None
) -> frozenset[tuple[int, ...]]:
    """Counter vectors over all configurations arriving at `at_state` (the
    target state by default) within the bound, collected before any
    halt-completion drain fires: that state is absorbing.

    A single read of reachable_configs with that one state absorbing: it
    filters the stored chain-end configurations once and searches no
    further.  `max_configs` and errors are those of reachable_configs, so a
    state v lacks raises ValueError."""
    state = at_state if at_state is not None else v.target.state
    return frozenset(reachable_configs(v, budget, frozenset({state})).get(state, ()))


def count_halting_runs(v: Vass, budget: SearchBudget) -> int:
    """Number of distinct halting paths within the bound, an exact int.

    `_explore` exhausts the space as for halting_reachable, stepping along
    maximal deterministic chains and dropping configurations that cannot
    reach the target by the counter caps and ratio invariants of
    `_invariants` (on `gen_exp_fixed(4, 24)` at bound 144 it stores 7,215
    chain ends, where the caps alone leave 38,687); the target state is a
    cut, so halting paths map one to one onto chain paths.  A pass back from
    the target finds the live configurations, those on a path to it, and
    the paths to each are summed in Kahn's order (CACM 1962), parallel moves
    each counted.

    A cycle among the live configurations raises ConfigCycleError, so a
    finite count is never returned where the true count within the bound is
    infinite; a cycle that no halting path passes through cannot halt and
    does not raise.  This is a bounded check, not a proof about unbounded
    runs.

    `max_configs` counts the chain-end configurations stored, a subset of
    every reachable configuration, so it never needs a larger budget to
    finish than a per-transition search would.
    """
    packed = _Packed(v, budget.counter_bound, chains=True, prune=True)
    verdict, stored, _stats = _explore(packed, -1, budget.max_configs)
    if verdict == Verdict.BUDGET_EXCEEDED:
        raise BudgetExceededError(f"run counting exceeded {budget.max_configs} configurations")
    src, tgt = packed.src, packed.tgt
    if tgt not in stored:
        return 0
    adj, into, smask = packed.adj, packed.into(), packed.smask
    # per live key, its in-edges from stored keys, which are live through it
    indeg = {tgt: 0}
    todo = [tgt]
    for key in todo:
        for pd, _n in into[key & smask]:
            pk = key - pd
            if pk in stored:
                indeg[key] += 1
                if pk not in indeg:
                    indeg[pk] = 0
                    todo.append(pk)
    # every live key but the source has a live in-edge, so Kahn's order
    # starts at the source alone, and misses a live key iff they hold a cycle
    paths = {src: 1}
    order = [] if indeg[src] else [src]
    for key in order:
        for pd, *_ in adj[key & smask]:
            nk = key + pd
            left = indeg.get(nk)
            if left:  # else not live
                paths[nk] = paths.get(nk, 0) + paths[key]
                indeg[nk] = left - 1
                if left == 1:
                    order.append(nk)
    if len(order) < len(indeg):
        raise ConfigCycleError("configuration graph has a cycle; halting-run count undefined")
    return paths[tgt]


# ---------------------------------------------------------------------------
# Canonical replay

_MAX_VISITS = 2_000_000  # visits per replay; CI's largest, 2exp(12), makes about 41,000


@dataclass(frozen=True)
class DrainLoop:
    """Maximal iteration: exit only when `counter` is zero at the entry."""

    counter: str


@dataclass(frozen=True)
class CountedLoop:
    """Iterate the body exactly `iterations` times, then exit."""

    iterations: int

    def __post_init__(self):
        if not isinstance(self.iterations, int) or self.iterations < 0:
            raise ValueError("iterations must be an int >= 0")


@dataclass(frozen=True)
class TakeBranch:
    """Decision for a plain two-way goto: take the second target or the first."""

    second: bool


LoopPolicy = DrainLoop | CountedLoop | TakeBranch


@dataclass(frozen=True)
class LoopObservation:
    entry_line: int
    iterations: tuple[int, ...]  # the last activation's count, as a 1-tuple
    exit_vectors: tuple[tuple[int, ...], ...]  # the counters at its exit, as a 1-tuple
    activations: int  # how many activations ended at the loop's exit


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


class _Replay:
    """One walk of the schedule a policy fixes, over tables built once.

    `table[line]` holds the index of the counter the line moves (None if
    none), the amount, and the line's block `((transition,), 1)` to each
    next line.  `bodies[entry]` holds, for a loop whose body only moves
    distinct counters, the net effect per counter and one iteration's
    transitions; other loops map to None and are walked stepwise.  `run`
    reads each line from `table` alone: no next line is a halt, two are a
    choice goto, decided by `TakeBranch`, and one is a step that moves the
    line's counter, if any.  A loop's entry goes to `_loop`, which alone
    applies `DrainLoop` and `CountedLoop`.

    The length is summed as the walk goes: each visit but the halt's takes
    one step, and a fast-forward or drain adds its block's length times its
    count when it is made.  Only a materialized replay records `blocks`,
    (transitions, count) pairs, that the run is made of: a stepwise
    step appends its line's block, a fast-forward one iteration with its
    count, halt completion each drain and link.  Otherwise `blocks` keeps
    nothing, and the walk holds the counters, the peaks and each loop's
    last activation, whatever the number of activations.

    A fast-forward does only the big-integer work its result needs.  A
    drain by 1 takes the counter's value as its count and any other drain
    divides once, proving divisibility; the drained counter is then set to
    0.  Every other counter gains or loses the count itself when its
    per-iteration amount is 1, and only other amounts multiply.  Each
    counter is checked once, for underflow if it falls and for its peak if
    it rises.

    `checks` holds each line where the walk could cycle, the entry of a
    stepwise loop or the target of a backward goto other than a loop's own
    back goto; `run` stops when one comes round with the same counters and
    counted-loop state.
    """

    def __init__(self, compiled: CompiledProgram, policy: dict[int, LoopPolicy], materialize: bool):
        flat = compiled.program
        self.compiled, self.flat, self.policy = compiled, flat, policy
        self.cix = cix = {c: i for i, c in enumerate(flat.counters)}
        self.vec = [0] * len(cix)
        self.peak = [0] * len(cix)
        # a deque of length 0 drops every block appended to it
        self.blocks: MutableSequence[tuple[tuple[Transition, ...], int]] = [] if materialize else deque(maxlen=0)
        self.length = 0  # the steps of fast-forwards, summed as they are made
        self.counted_left: dict[int, int] = {}
        self.iterations: dict[int, int] = {}  # per loop, in its current activation
        self.observations: dict[int, tuple[int, int, tuple[int, ...]]] = {}  # activations, last count, last exit
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
        self.table: list[tuple[int | None, int, dict[int, tuple[tuple[Transition, ...], int]]]] = [(None, 0, {})]
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
            self.table.append((ci, amount, {t: ((transition(src, ci, amount, state[t - 1]),), 1) for t in nexts}))
        self.bodies: dict[int, tuple[dict[int, int], tuple[Transition, ...]] | None] = {}
        for s in flat.loops:
            body = self.table[s.body_start:s.back]
            moved = [ci for ci, _, _ in body]
            if None in moved or len(set(moved)) < len(moved):
                self.bodies[s.entry] = None
                self.checks.add(s.entry)
            else:
                parts = [b for _, _, nexts in body for b in nexts.values()]
                parts = [self.table[s.entry][2][s.body_start], *parts, self.table[s.back][2][s.entry]]
                self.bodies[s.entry] = ({ci: amount for ci, amount, _ in body}, tuple(t for (t,), _ in parts))
        # halt completion: per untested counter, its drain step and the
        # block on to the next counter's drain state (none after the last)
        chain = compiled.drain_chain
        links = [[((transition(a, None, 0, b),), 1)] for (a, _), (b, _) in zip(chain, chain[1:])] + [[]]
        self.drains = [(cix[c], (transition(s, cix[c], -1, s),), link) for (s, c), link in zip(chain, links)]

    def run(self) -> ReplayOutcome:
        table, spans, checks, counters = self.table, self.spans, self.checks, self.flat.counters
        n = len(table) - 1
        vec, peak, blocks = self.vec, self.peak, self.blocks
        record = blocks.append
        last_visit: dict[int, tuple[tuple[int, ...], dict[int, int]]] = {}
        pc = 1
        guard = 0
        while pc <= n:
            guard += 1
            if guard > _MAX_VISITS:
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
            ci, amount, nexts = table[pc]
            if not nexts:  # halt
                break
            if pc in spans:
                nxt = self._loop(spans[pc])
            elif len(nexts) == 2:
                pol = self.policy.get(pc)
                if not isinstance(pol, TakeBranch):
                    raise PolicyStuckError(f"line {pc}: no branch policy for goto")
                first, second = nexts
                nxt = second if pol.second else first
            else:
                (nxt,) = nexts
                if ci is not None:
                    vec[ci] += amount
                    if vec[ci] < 0:
                        raise PolicyStuckError(f"line {pc}: counter {counters[ci]!r} would go below zero")
                    peak[ci] = max(peak[ci], vec[ci])
            record(nexts[nxt])
            pc = nxt

        halted = pc <= n
        length = self.length + guard - halted  # every visit but the halt's took one step
        if halted:
            for ci, drain, link in self.drains:
                record((drain, vec[ci]))
                blocks += link
                length += vec[ci] + len(link)
                vec[ci] = 0
        vass = self.compiled.vass
        final = Configuration(vass.target.state if halted else self.compiled.halt_state, tuple(vec))
        loops = {e: LoopObservation(e, (it,), (ex,), k) for e, (k, it, ex) in sorted(self.observations.items())}
        return ReplayOutcome(None, RunProbe(loops, tuple(peak), length), final == vass.target, final)

    def _loop(self, span: LoopSpan) -> int:
        """Apply the policy at a loop's entry and return the line the caller
        steps to.  The policy fixes how many iterations to run from here:
        all that remain for a straight-line body, fast-forwarded before the
        exit, or 0 or 1 for a body walked stepwise."""
        entry, vec, peak = span.entry, self.vec, self.peak
        pol = self.policy.get(entry)
        if pol is None:
            raise PolicyStuckError(f"line {entry}: no policy for loop")
        body = self.bodies[entry]
        drained = None
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
                if dec == 1:
                    count = vec[ci]
                else:
                    count, rest = divmod(vec[ci], dec)
                    if rest:
                        raise PolicyStuckError(
                            f"loop at line {entry}: {pol.counter!r}={vec[ci]} not divisible "
                            f"by per-iteration decrement {dec}"
                        )
                drained = ci
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
            # each counter moves monotonically across iterations, so only
            # a decrease can underflow and only an increase can raise a peak
            for c, d in deltas.items():
                if c == drained:
                    vec[c] = 0
                elif d > 0:
                    vec[c] += count if d == 1 else count * d
                    if vec[c] > peak[c]:
                        peak[c] = vec[c]
                else:
                    vec[c] -= count if d == -1 else count * -d
                    if vec[c] < 0:
                        raise PolicyStuckError(
                            f"loop at line {entry}: counter {self.flat.counters[c]!r} "
                            f"underflows after {count} iterations"
                        )
            self.blocks.append((one, count))
            self.length += len(one) * count
        activations = self.observations[entry][0] if entry in self.observations else 0
        # `0 + count` would copy a fast-forward's count, often a counter's big int
        before = self.iterations.pop(entry, 0)
        self.observations[entry] = (activations + 1, before + count if before else count, tuple(vec))
        return span.exit


def replay_canonical(
    compiled: CompiledProgram,
    policy: dict[int, LoopPolicy],
    materialize: bool = True,
) -> ReplayOutcome:
    """Deterministically replay the schedule described by `policy`.

    Probes (per-loop iteration counts and exit values, final vector, peaks,
    length) are recomputed from the walk itself.  A loop with a
    straight-line body runs all the iterations its policy fixes in one
    fast-forward: the count is the drained counter itself for a drain by 1,
    its quotient by the decrement for any other drain (which must divide
    it), or the counted loop's iterations; the drained counter becomes 0,
    and every other counter moves by the count times its per-iteration
    amount, each checked for underflow and peak once.  The length is summed
    as the walk goes, and the probe keeps each loop's activation count and
    its last activation's iterations and exit, so with materialize=False
    doubly-exponential canonical runs are measured in memory that does not
    grow with their number of activations; a materialized run is the walk's
    blocks, (transitions, count) pairs, never expanded here, which
    `validate_run` checks block by block.
    Raises PolicyStuckError if the schedule deadlocks, or as soon as the
    entry of a loop walked stepwise, or the target of a backward goto other
    than a loop's own back goto, comes round with nothing changed, since the
    replay would then repeat forever.  `halting` is whether the final configuration is the target.

    A materialized run shares the `Transition` objects of `compiled.vass`
    rather than holding a fresh one per step.  A step the VASS lacks is
    still emitted, as a new `Transition`, so `validate_run` rejects it:
    replay never vouches for its own steps.
    """
    replay = _Replay(compiled, policy, materialize)
    out = replay.run()
    if not materialize:
        return out
    return replace(out, run=Run.from_blocks(compiled.vass.source, replay.blocks))
