"""The tests' item-level reference: FCFS one item at a time, the exchange
transform and detailed states.

This module is the slow, transparent counterpart of the package's batch
simulator, and it is not shipped with the package. It processes one item at a
time, keeps full item-level provenance, and implements the structural checks
(exchanged-window reversibility, detailed state construction and
admissibility) that criteria 7 and 8 and the simulator tests use to validate
the theory end to end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from fcfs_match.errors import FcfsMatchError
from fcfs_match.model import MatchingModel

AGENT = "agent"
GOOD = "good"

# Detailed-state marks: an unmatched agent shows as ("c", type); a matched or
# lost position shows the type that now occupies it after the exchange, with
# "c~" for exchanged agents (originally goods) and "s~" for exchanged or
# self-exchanged goods (originally agents, or lost goods).
MARK_AGENT = "c"
MARK_EX_AGENT = "c~"
MARK_EX_GOOD = "s~"


class OpenWindow(FcfsMatchError):
    """A position outside the certified region of an exchanged window was requested."""


@dataclass
class SequenceItem:
    """One position of the item sequence with its matching outcome."""

    index: int
    kind: str  # AGENT | GOOD
    type_name: str
    partner: int | None = None  # index of the matched counterpart
    lost: bool = False  # goods only

    @property
    def matched(self) -> bool:
        return self.partner is not None


@dataclass(frozen=True)
class Matched:
    good_type: str
    agent_type: str
    good_index: int
    agent_index: int

    @property
    def delay(self) -> int:
        return self.good_index - self.agent_index


@dataclass(frozen=True)
class Lost:
    good_type: str
    index: int


@dataclass(frozen=True)
class Queued:
    agent_type: str
    index: int


class UnmatchedList:
    """Ordered list of waiting agents (type, arrival index), oldest first."""

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[tuple[str, int]] = ()):
        self.entries: list[tuple[str, int]] = list(entries)

    def __len__(self) -> int:
        return len(self.entries)

    def first_appearance_order(self) -> tuple[str, ...]:
        seen: list[str] = []
        for t, _ in self.entries:
            if t not in seen:
                seen.append(t)
        return tuple(seen)


def item_from_uniforms(model: MatchingModel, index: int, kind_u: float, type_u: float) -> SequenceItem:
    p_agent = model.lambda_bar / model.total_rate
    if kind_u < p_agent:
        freqs = model.alpha
        kind = AGENT
        names = model.agent_names
    else:
        freqs = model.beta
        kind = GOOD
        names = model.good_names
    acc = 0.0
    last = len(freqs) - 1
    for i, f in enumerate(freqs):
        acc += f
        if type_u < acc or i == last:
            return SequenceItem(index=index, kind=kind, type_name=names[i])
    raise AssertionError("unreachable")


def step_fcfs(model: MatchingModel, state: UnmatchedList, item: SequenceItem):
    """Advance the matching by one item; mutates and returns the state.

    An agent joins the tail of the list. A good scans from the oldest entry
    and removes the first compatible agent; with no compatible agent it is
    lost. Returns (state, event).
    """
    if item.kind == AGENT:
        state.entries.append((item.type_name, item.index))
        return state, Queued(item.type_name, item.index)
    mask = model.agents_of_good[model.good_index[item.type_name]]
    for pos, (t, idx) in enumerate(state.entries):
        if mask >> model.agent_index[t] & 1:
            del state.entries[pos]
            item.partner = idx
            return state, Matched(item.type_name, t, item.index, idx)
    item.lost = True
    return state, Lost(item.type_name, item.index)


@dataclass
class MatchWindow:
    """A finite simulated window with every good's outcome decided."""

    model: MatchingModel
    items: list[SequenceItem]
    matches: list[tuple[int, int]]  # (agent index, good index)
    lost: list[int]
    open_agents: list[int]  # indices of agents still waiting at the window edge
    empty_times: list[int] = field(default_factory=list)  # event counts after which no agent waits

    def truncated(self, n: int) -> "MatchWindow":
        """The window restricted to its first n items (valid only at an empty time)."""
        items = self.items[:n]
        return MatchWindow(
            model=self.model,
            items=items,
            matches=[(a, g) for a, g in self.matches if g < n],
            lost=[i for i in self.lost if i < n],
            open_agents=[i for i in self.open_agents if i < n],
            empty_times=[t for t in self.empty_times if t <= n],
        )


def simulate_window(model: MatchingModel, n_events: int, seed) -> MatchWindow:
    rng = np.random.default_rng(seed)
    draws = rng.random((2, n_events))
    return window_from_uniforms(model, draws[0], draws[1])


def window_from_uniforms(model: MatchingModel, kind_u, type_u) -> MatchWindow:
    items: list[SequenceItem] = []
    matches: list[tuple[int, int]] = []
    lost: list[int] = []
    empty_times: list[int] = []
    state = UnmatchedList()
    for n in range(len(kind_u)):
        item = item_from_uniforms(model, n, kind_u[n], type_u[n])
        items.append(item)
        _, event = step_fcfs(model, state, item)
        if isinstance(event, Matched):
            items[event.agent_index].partner = event.good_index
            matches.append((event.agent_index, event.good_index))
        elif isinstance(event, Lost):
            lost.append(event.index)
        if not state.entries:
            empty_times.append(n + 1)
    open_agents = [idx for _, idx in state.entries]
    return MatchWindow(model, items, matches, lost, open_agents, empty_times)


@dataclass(frozen=True)
class ExchangedSequence:
    """The window after swapping each matched pair's positions.

    Unmatched goods stay in place; still-open agents keep their positions but
    are not certified: positions at or before the last open agent (the first
    one a reversed-time pass meets) cannot be verified from a finite window.
    """

    items: tuple[tuple[str, str], ...]  # (kind, type_name) per position
    certified_start: int  # positions >= this are certified
    open_positions: tuple[int, ...]

    def certify(self, position: int) -> int:
        if position < self.certified_start:
            raise OpenWindow(
                f"position {position} precedes the certified region "
                f"(starts at {self.certified_start})"
            )
        return position


def exchange_transform(window: MatchWindow) -> ExchangedSequence:
    """Swap each matched agent-good pair; goods without a match stay in place."""
    items = [(it.kind, it.type_name) for it in window.items]
    for a, g in window.matches:
        items[a], items[g] = items[g], items[a]
    open_positions = tuple(sorted(window.open_agents))
    certified_start = (open_positions[-1] + 1) if open_positions else 0
    return ExchangedSequence(tuple(items), certified_start, open_positions)


def rematch_reversed(model: MatchingModel, exchanged: ExchangedSequence):
    """Directed FCFS over the exchanged sequence in reversed time.

    Returns (matches, lost): matches as (agent position, good position) pairs
    in original coordinates with agent position < good position, mirroring the
    orientation of the forward matches they should reproduce.
    """
    state = UnmatchedList()
    matches: list[tuple[int, int]] = []
    lost: list[int] = []
    n = len(exchanged.items)
    for rev, (kind, type_name) in enumerate(reversed(exchanged.items)):
        pos = n - 1 - rev
        item = SequenceItem(index=rev, kind=kind, type_name=type_name)
        _, event = step_fcfs(model, state, item)
        if isinstance(event, Matched):
            agent_pos = n - 1 - event.agent_index  # reversed-run agent = original good position
            matches.append((pos, agent_pos))
        elif isinstance(event, Lost):
            lost.append(pos)
    return matches, lost


def detailed_state(model: MatchingModel, items, upto: int | None = None) -> tuple:
    """The detailed state after matching all goods up to position upto - 1.

    Spans from the first unmatched agent to the last processed position; empty
    when no agent is waiting. Matches must already be recorded on the items
    (partner indices), with partners beyond upto treated as not yet matched.
    """
    n = len(items) if upto is None else upto
    first_open = None
    for it in items[:n]:
        if it.kind == AGENT and (it.partner is None or it.partner >= n):
            first_open = it.index
            break
    if first_open is None:
        return ()
    marks = []
    for it in items[first_open:n]:
        if it.kind == AGENT:
            if it.partner is None or it.partner >= n:
                marks.append((MARK_AGENT, it.type_name))
            else:
                marks.append((MARK_EX_GOOD, items[it.partner].type_name))
        else:
            if it.partner is not None:
                marks.append((MARK_EX_AGENT, items[it.partner].type_name))
            else:
                marks.append((MARK_EX_GOOD, it.type_name))
    return tuple(marks)


def is_admissible(model: MatchingModel, state) -> bool:
    """Whether a detailed state can occur: empty, or it starts with an
    unmatched agent, uses only {c, c~, s~} marks, and no unmatched agent
    precedes an exchanged good it is compatible with."""
    if not state:
        return True
    if state[0][0] != MARK_AGENT:
        return False
    blocked = 0  # good types compatible with some unmatched agent seen so far
    for mark, type_name in state:
        if mark == MARK_AGENT:
            idx = model.agent_index.get(type_name)
            if idx is None:
                return False
            blocked |= model.goods_of_agent[idx]
        elif mark == MARK_EX_GOOD:
            j = model.good_index.get(type_name)
            if j is None:
                return False
            if blocked >> j & 1:
                return False
        elif mark == MARK_EX_AGENT:
            if type_name not in model.agent_index:
                return False
        else:
            return False
    return True


@dataclass(frozen=True)
class ReversibilityReport:
    """Outcome of one exchanged-window reversed-matching check."""

    window_events: int
    certified_events: int
    original_matches: int
    reproduced_matches: int
    pairs_coincide: bool
    losses_coincide: bool
    chi2_stat: float
    chi2_dof: int
    chi2_pvalue: float

    @property
    def passed(self) -> bool:
        return self.pairs_coincide and self.losses_coincide


def verify_reversibility(model: MatchingModel, n_events: int, seed) -> ReversibilityReport:
    """Simulate a window, exchange it, and re-match in reversed time.

    The window is cut back to the last instant with no waiting agent, so the
    whole retained window is certified (no open agents). Reversed-time directed
    FCFS over the exchanged sequence must then reproduce every original match
    and every original loss. Type counts of the exchanged sequence are also
    chi-square tested against the item distribution.
    """
    from scipy.stats import chi2

    window = simulate_window(model, n_events, seed)
    cut = window.empty_times[-1] if window.empty_times else 0
    certified = window.truncated(cut)
    exchanged = exchange_transform(certified)
    exchanged.certify(0)  # no open agents inside the certified window
    rev_matches, rev_lost = rematch_reversed(model, exchanged)

    original = {(a, g) for a, g in certified.matches}
    reproduced = set(rev_matches)
    pairs_ok = original == reproduced
    losses_ok = set(certified.lost) == set(rev_lost)

    probs = [r / model.total_rate for r in model.agent_rates] + [
        r / model.total_rate for r in model.good_rates
    ]
    names = [(AGENT, t) for t in model.agent_names] + [(GOOD, t) for t in model.good_names]
    counts = dict.fromkeys(names, 0)
    for kind, type_name in exchanged.items:
        counts[(kind, type_name)] += 1
    total = len(exchanged.items)
    stat = 0.0
    for key, p in zip(names, probs):
        expected = total * p
        if expected > 0:
            stat += (counts[key] - expected) ** 2 / expected
    dof = len(names) - 1
    pvalue = float(chi2.sf(stat, dof)) if total else 1.0

    return ReversibilityReport(
        window_events=n_events,
        certified_events=cut,
        original_matches=len(original),
        reproduced_matches=len(reproduced),
        pairs_coincide=pairs_ok,
        losses_coincide=losses_ok,
        chi2_stat=stat,
        chi2_dof=dof,
        chi2_pvalue=pvalue,
    )


class DetailedTracker:
    """Incrementally maintained detailed state for long runs.

    Mirrors detailed_state() after every event without rescanning the window;
    cross-checked against the from-scratch construction in tests.
    """

    __slots__ = ("model", "marks", "waiting")

    def __init__(self, model: MatchingModel):
        self.model = model
        self.marks: list[list] = []  # [mark, type_name] per retained position
        self.waiting: list[int] = []  # offsets into marks of unmatched agents

    def state(self) -> tuple:
        return tuple((m, t) for m, t in self.marks)

    def step(self, kind: str, type_name: str) -> None:
        model = self.model
        if kind == AGENT:
            self.waiting.append(len(self.marks))
            self.marks.append([MARK_AGENT, type_name])
            return
        # good: find the oldest compatible waiting agent
        mask = model.agents_of_good[model.good_index[type_name]]
        hit = None
        for w, off in enumerate(self.waiting):
            if mask >> model.agent_index[self.marks[off][1]] & 1:
                hit = w
                break
        if hit is None:
            if self.marks:
                self.marks.append([MARK_EX_GOOD, type_name])
            return
        off = self.waiting.pop(hit)
        agent_type = self.marks[off][1]
        self.marks[off] = [MARK_EX_GOOD, type_name]
        self.marks.append([MARK_EX_AGENT, agent_type])
        if hit == 0:
            self._advance_front()

    def _advance_front(self) -> None:
        if not self.waiting:
            self.marks = []
            self.waiting = []
            return
        cut = self.waiting[0]
        if cut:
            del self.marks[:cut]
            self.waiting = [w - cut for w in self.waiting]
