"""Direct interpreter for flat counter programs.

Walks (line, counter-vector) pairs of the program text itself, with no
compilation involved, so its bounded reachable set is an independent oracle
for the compiler: on the line states, it must coincide with bounded
exploration of the compiled VASS (halt-completion drains excluded on both
sides).
"""

from __future__ import annotations

from collections import deque

from .errors import BudgetExceededError
from .expand import FlatProgram
from .lang import Add, Goto, Halt, Init, Sub

# the most (line, vector) pairs one exploration stores
_MAX_CONFIGS = 2_000_000


def reachable_line_configs(flat: FlatProgram, bound: int) -> frozenset[tuple[int, tuple[int, ...]]]:
    """All (line, vector) pairs reachable with every counter <= bound.

    Line n+1 stands for control fallen off the end of a halt-less fragment.
    The run stops at a halt line (zero tests and completion are not modeled
    here; they live in the VASS target).  Raises BudgetExceededError once
    more than `_MAX_CONFIGS` pairs are reached.
    """
    cix = {c: i for i, c in enumerate(flat.counters)}
    n = len(flat.lines)
    start = (1, (0,) * len(flat.counters))
    visited = {start}
    dq = deque([start])
    while dq:
        ln, vec = dq.popleft()
        if ln > n:
            continue
        cmd = flat.lines[ln - 1]
        succ: list[tuple[int, tuple[int, ...]]] = []
        if isinstance(cmd, Init):
            succ.append((ln + 1, vec))
        elif isinstance(cmd, (Add, Sub)):
            amount = cmd.amount if isinstance(cmd, Add) else -cmd.amount
            i = cix[cmd.counter]
            value = vec[i] + amount
            if 0 <= value <= bound:
                succ.append((ln + 1, vec[:i] + (value,) + vec[i + 1:]))
        elif isinstance(cmd, Goto):
            succ.append((cmd.first, vec))
            if cmd.second != cmd.first:
                succ.append((cmd.second, vec))
        elif isinstance(cmd, Halt):
            pass
        for nxt in succ:
            if nxt not in visited:
                if len(visited) >= _MAX_CONFIGS:
                    raise BudgetExceededError(
                        f"interpreter exploration exceeded {_MAX_CONFIGS} configurations"
                    )
                visited.add(nxt)
                dq.append(nxt)
    return frozenset(visited)
