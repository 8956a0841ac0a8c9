"""Single-tape bounded-space Turing machines with step-exact execution.

The tape alphabet is {0, 1, left-end mark}; cell 0 always holds the mark and
is never overwritten, the head is clamped to [0, space).  Halting states are
absorbing: a run stops at the first one, and its step count is the number
of transitions the machine took, which is the delay-function cost model.

A machine is a transition function, as the delay function's seeded rule is,
or a rule table (`TmDescription.from_table`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

SYM_ZERO = 0
SYM_ONE = 1
SYM_MARK = 2

_SYM_TEXT = {SYM_ZERO: "0", SYM_ONE: "1", SYM_MARK: "^"}

# configuration-count guard for the halting decider: |Q| * S * 2^S
MAX_DECIDER_BOUND = 1 << 28


class TmDescription:
    """A machine: state count, transition rule, halting predicate; runs
    start in state 0.

    `delta(q, sym) -> (q', sym', direction)` with direction in {-1, 0, +1};
    it is only consulted on non-halting states.
    """

    def __init__(
        self,
        num_states: int,
        delta: Callable[[int, int], tuple[int, int, int]],
        is_halting: Callable[[int], bool],
    ):
        if num_states < 1:
            raise ValueError("need at least one state")
        self.num_states = num_states
        self.delta = delta
        self.is_halting = is_halting

    @classmethod
    def from_table(
        cls,
        num_states: int,
        rules: dict[tuple[int, int], tuple[int, int, int]],
        halt_states,
    ) -> TmDescription:
        halt = frozenset(halt_states)
        for q in halt:
            if not 0 <= q < num_states:
                raise ValueError(f"halting state {q} out of range")
        for (q, sym), (q2, sym2, d) in rules.items():
            if not 0 <= q < num_states or not 0 <= q2 < num_states:
                raise ValueError(f"rule ({q},{sym}) references a state out of range")
            if q in halt:
                raise ValueError(f"rule from halting state {q}")
            if sym not in _SYM_TEXT or sym2 not in _SYM_TEXT:
                raise ValueError(f"rule ({q},{sym}) uses an unknown symbol")
            if d not in (-1, 0, 1):
                raise ValueError(f"rule ({q},{sym}) has direction {d}")
        table = dict(rules)

        def delta(q: int, sym: int) -> tuple[int, int, int]:
            try:
                return table[(q, sym)]
            except KeyError:
                raise ValueError(f"machine has no rule for state {q} reading {_SYM_TEXT[sym]}")

        return cls(num_states, delta, halt.__contains__)


@dataclass
class TmConfiguration:
    """Full machine state; owned by a single execution at a time."""

    state: int
    tape: list[int]
    head: int

    def __post_init__(self):
        if not self.tape or self.tape[0] != SYM_MARK:
            raise ValueError("tape must start with the left-end mark")
        if not 0 <= self.head < len(self.tape):
            raise ValueError("head outside the tape")


@dataclass
class RunResult:
    """The configuration a run left, and the transitions it took."""

    config: TmConfiguration
    steps: int


def initial_configuration(x: str, space: int, initial_state: int = 0) -> TmConfiguration:
    """Mark, then the input bits, zero-padded to the full tape; head at 0."""
    if space < 2:
        raise ValueError("need at least one work cell beyond the mark")
    if len(x) > space - 1:
        raise ValueError(f"input of {len(x)} bits does not fit in {space - 1} work cells")
    if any(c not in "01" for c in x):
        raise ValueError("input must be a bit string")
    tape = [SYM_MARK] + [int(c) for c in x] + [SYM_ZERO] * (space - 1 - len(x))
    return TmConfiguration(initial_state, tape, 0)


def tm_run(desc: TmDescription, config: TmConfiguration, steps: int) -> RunResult:
    """Up to `steps` transitions, stopping at a halting state; mutates `config`.

    The result's `steps` is the number of transitions taken: `steps` if the
    machine never halted, fewer if it reached a halting state first.
    """
    if steps < 0:
        raise ValueError("negative step count")
    delta = desc.delta
    halting = desc.is_halting
    state = config.state
    tape = config.tape
    head = config.head
    last = len(tape) - 1
    taken = steps
    for step in range(steps):
        if halting(state):
            taken = step
            break
        q2, w, d = delta(state, tape[head])
        if head:
            tape[head] = w
        state = q2
        head += d
        if head < 0:
            head = 0
        elif head > last:
            head = last
    config.state = state
    config.head = head
    return RunResult(config, taken)


def decide_spacehalt(desc: TmDescription, x: str, space: int) -> bool:
    """Does the machine halt on x within `space` cells?

    Simulates for |Q| * S * 2^S steps: a run that long must revisit a
    configuration, so a machine not yet halted never halts.  The bound counts
    configurations of machines that never write the mark; keep inputs small,
    the product is capped at 2^28.
    """
    bound = desc.num_states * space * (1 << space)
    if bound > MAX_DECIDER_BOUND:
        raise ValueError(f"configuration bound {bound} exceeds 2^28")
    config = initial_configuration(x, space)
    # a run stops at a halting state, so its last state halts iff some state did
    return desc.is_halting(tm_run(desc, config, bound).config.state)

