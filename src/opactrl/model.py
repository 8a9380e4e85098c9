"""Finite-state plant models, projections, and reach operators.

States and events are referred to by name externally and interned to dense
integer indices internally; every set of states or events is an int bitmask
over those indices.  Canonical order is first appearance in the model
document, so all constructions built on top of these primitives are
deterministic.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence


class ModelFormatError(ValueError):
    """A model document is syntactically or semantically invalid."""


class UnreachableObservationError(ValueError):
    """An observation sequence has no witness string in the plant language.

    Distinct from an empty estimate: the estimate of a feasible observation
    is never empty, so infeasibility is reported explicitly.
    """


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def json_object(text: str, what: str) -> dict:
    """The JSON object that the text of a ``what`` document holds.  Text
    that is not JSON, or JSON that is not an object, is refused."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ModelFormatError(f"{what} document must be a JSON object")
    return doc


def list_field(value, what: str):
    """``value``, which a document gives as a list (of names, or of
    transitions).  Anything else is refused; a string would otherwise be
    read one character at a time."""
    if not isinstance(value, (list, tuple)):
        raise ModelFormatError(f"invalid {what}: expected a list, got {value!r}")
    return value


def name_field(value, what: str) -> str:
    """``value``, which a document gives as a name.  Anything else is
    refused; a list or an object would otherwise fail as a dict key."""
    if not isinstance(value, str):
        raise ModelFormatError(f"invalid {what}: expected a name, got {value!r}")
    return value


def declared_name(value, what: str) -> str:
    """``value``, which a document gives as the name of a state or an event
    where it declares them: a string, or a number read as its decimal text.
    A list, an object, null or a boolean is refused; ``str()`` would
    otherwise make a name of it."""
    if isinstance(value, str):
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ModelFormatError(f"invalid {what}: expected a name, got {value!r}")
    return str(value)


def names_field(value, what: str) -> list[str]:
    """``value``, which a document gives as a list of names."""
    return [name_field(name, what) for name in list_field(value, what)]


def mask_of(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


@dataclass(frozen=True)
class EventPartitions:
    """The three independent event subsets of a plant alphabet.

    No containment is assumed between them; the complements (unobservable,
    uncontrollable) are always derived, never stored.
    """

    supervisor_observable: frozenset[str]
    intruder_observable: frozenset[str]
    controllable: frozenset[str]


class PlantModel:
    """A deterministic finite-state plant with secret states.

    Immutable after construction; all operations are pure functions of
    their inputs, so instances can be shared freely across threads.
    """

    def __init__(
        self,
        states: Sequence[str],
        events: Sequence[str],
        transitions: Iterable[tuple[str, str, str]],
        initial: str,
        secret: Iterable[str],
        partitions: EventPartitions,
    ):
        if len(set(states)) != len(states):
            raise ModelFormatError("duplicate state name")
        if len(set(events)) != len(events):
            raise ModelFormatError("duplicate event name")
        self.states: tuple[str, ...] = tuple(states)
        self.events: tuple[str, ...] = tuple(events)
        self.state_index = {name: i for i, name in enumerate(self.states)}
        self.event_index = {name: i for i, name in enumerate(self.events)}

        if initial not in self.state_index:
            raise ModelFormatError(f"unknown initial state {initial!r}")
        self.initial = self.state_index[initial]

        self.secret_mask = self.state_mask(secret)

        n = len(self.states)
        self.all_states_mask = (1 << n) - 1
        self.all_events_mask = (1 << len(self.events)) - 1

        # delta as one {event: successor} dict per state, plus the active-event
        # mask per state for fast feasibility tests.
        self._succ: tuple[dict[int, int], ...] = tuple({} for _ in self.states)
        self._active: list[int] = [0] * n
        for src, ev, dst in transitions:
            for name, kind in ((src, "state"), (dst, "state")):
                if name not in self.state_index:
                    raise ModelFormatError(f"unknown {kind} {name!r} in transition")
            if ev not in self.event_index:
                raise ModelFormatError(f"unknown event {ev!r} in transition")
            x, e, y = self.state_index[src], self.event_index[ev], self.state_index[dst]
            if e in self._succ[x]:
                raise ModelFormatError(
                    f"nondeterministic transition: ({src!r}, {ev!r}) has two successors"
                )
            self._succ[x][e] = y
            self._active[x] |= 1 << e

        self.supervisor_observable = self.event_mask(partitions.supervisor_observable)
        self.intruder_observable = self.event_mask(partitions.intruder_observable)
        self.controllable = self.event_mask(partitions.controllable)
        # Derived complements, computed once: hot loops read them per step.
        self.supervisor_unobservable = self.all_events_mask & ~self.supervisor_observable
        self.intruder_unobservable = self.all_events_mask & ~self.intruder_observable
        self.uncontrollable = self.all_events_mask & ~self.controllable

    # Name/index conversions -------------------------------------------------

    def state(self, name: str) -> int:
        try:
            return self.state_index[name]
        except KeyError:
            raise ModelFormatError(f"unknown state {name!r}") from None

    def event(self, name: str) -> int:
        try:
            return self.event_index[name]
        except KeyError:
            raise ModelFormatError(f"unknown event {name!r}") from None

    def word(self, text: str | Sequence[str]) -> tuple[int, ...]:
        """Convert a space-separated string (or name sequence) to event indices."""
        names = text.split() if isinstance(text, str) else text
        return tuple(self.event(n) for n in names)

    def state_mask(self, names: Iterable[str]) -> int:
        return mask_of(self.state(n) for n in names)

    def event_mask(self, names: Iterable[str]) -> int:
        return mask_of(self.event(n) for n in names)

    def state_names(self, mask: int) -> tuple[str, ...]:
        return tuple(self.states[i] for i in iter_bits(mask))

    def event_names(self, mask: int) -> tuple[str, ...]:
        return tuple(self.events[i] for i in iter_bits(mask))

    def format_state_set(self, mask: int) -> str:
        return "{" + ",".join(self.state_names(mask)) + "}"

    def format_decision(self, mask: int) -> str:
        return "{" + ",".join(self.event_names(mask)) + "}"

    # Control decisions --------------------------------------------------

    def control_decision(self, enabled: Iterable[str]) -> int:
        """Build a valid control decision; uncontrollable events must be enabled."""
        mask = self.event_mask(enabled)
        missing = self.uncontrollable & ~mask
        if missing:
            raise ModelFormatError(
                "uncontrollable event disabled in control decision: "
                + ",".join(self.event_names(missing))
            )
        return mask

    def iter_decisions(self) -> Iterator[int]:
        """All valid control decisions, by increasing number of enabled
        controllable events, then canonical event order within each size."""
        ctrl = list(iter_bits(self.controllable))
        base = self.uncontrollable
        for size in range(len(ctrl) + 1):
            for combo in itertools.combinations(ctrl, size):
                yield base | mask_of(combo)

    # Dynamics -----------------------------------------------------------

    def step(self, x: int, e: int) -> int | None:
        return self._succ[x].get(e)

    def active(self, x: int) -> int:
        """Event mask of the events defined at plant state ``x``."""
        return self._active[x]

    def active_events(self, q: int) -> int:
        """Events defined at some state of the state set ``q``."""
        acc = 0
        for x in iter_bits(q):
            acc |= self._active[x]
        return acc

    def observable_reach(self, q: int, sigma: int) -> int:
        """One-step successors of ``q`` under event ``sigma``, where defined."""
        succ = self._succ
        out = 0
        while q:
            low = q & -q
            q ^= low
            y = succ[low.bit_length() - 1].get(sigma)
            if y is not None:
                out |= 1 << y
        return out

    def unobservable_reach(self, q: int, gamma: int, hidden: int) -> int:
        """Closure of ``q`` under enabled hidden events (zero or more steps)."""
        succ, active = self._succ, self._active
        evs = gamma & hidden
        reach = q
        frontier = q
        while frontier:
            new = 0
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                x = low.bit_length() - 1
                row = succ[x]
                events = active[x] & evs
                while events:
                    bit = events & -events
                    events ^= bit
                    new |= 1 << row[bit.bit_length() - 1]
            frontier = new & ~reach
            reach |= new
        return reach

    def unobservable_reach_plus(self, q: int, gamma: int) -> int:
        """States reachable from ``q`` by one or more enabled events hidden
        from the intruder.  May be disjoint from ``q``."""
        evs = gamma & self.intruder_unobservable
        first = 0
        for e in iter_bits(evs):
            first |= self.observable_reach(q, e)
        return self.unobservable_reach(first, gamma, self.intruder_unobservable)

    @property
    def is_live(self) -> bool:
        """Diagnostic only: every reachable state has an outgoing transition."""
        seen = 1 << self.initial
        frontier = [self.initial]
        while frontier:
            x = frontier.pop()
            if not self._active[x]:
                return False
            for e in iter_bits(self._active[x]):
                y = self._succ[x][e]
                if not (seen >> y) & 1:
                    seen |= 1 << y
                    frontier.append(y)
        return True

    @property
    def n_transitions(self) -> int:
        return sum(len(row) for row in self._succ)

    def transitions(self) -> Iterator[tuple[str, str, str]]:
        for x, row in enumerate(self._succ):
            for e in sorted(row):
                yield self.states[x], self.events[e], self.states[row[e]]

    # Document format ------------------------------------------------------

    @classmethod
    def from_dict(cls, doc: dict) -> "PlantModel":
        required = ("states", "events", "initial", "transitions")
        for key in required:
            if key not in doc:
                raise ModelFormatError(f"missing key {key!r}")

        def listed(key: str) -> list:
            return list_field(doc.get(key, ()), repr(key))

        def declared(key: str) -> list[str]:
            return [declared_name(name, repr(key)) for name in listed(key)]

        # In EventPartitions field order.
        partitions = [
            names_field(doc.get(key, ()), repr(key))
            for key in ("observable_supervisor", "observable_intruder", "controllable")
        ]
        events = declared("events")
        # Checked in list order, not as a set, so that the error names the
        # first unknown entry whatever the process's string hash seed.
        for names in partitions:
            for name in names:
                if name not in events:
                    raise ModelFormatError(f"unknown event {name!r} in partition")
        parts = EventPartitions(*map(frozenset, partitions))
        transitions = []
        for entry in listed("transitions"):
            names = names_field(entry, "transition")
            if len(names) != 3:
                raise ModelFormatError(f"malformed transition {entry!r}")
            transitions.append(tuple(names))
        return cls(
            states=declared("states"),
            events=events,
            transitions=transitions,
            initial=declared_name(doc["initial"], "'initial'"),
            secret=declared("secret"),
            partitions=parts,
        )

    @classmethod
    def from_json(cls, text: str) -> "PlantModel":
        return cls.from_dict(json_object(text, "model"))

    def to_dict(self) -> dict:
        return {
            "states": list(self.states),
            "events": list(self.events),
            "initial": self.states[self.initial],
            "secret": list(self.state_names(self.secret_mask)),
            "transitions": [list(t) for t in self.transitions()],
            "observable_supervisor": list(self.event_names(self.supervisor_observable)),
            "observable_intruder": list(self.event_names(self.intruder_observable)),
            "controllable": list(self.event_names(self.controllable)),
        }

    def __repr__(self):
        return (
            f"PlantModel({len(self.states)} states, {len(self.events)} events, "
            f"{self.n_transitions} transitions)"
        )


def project(s: Sequence[int], obs: int) -> tuple[int, ...]:
    """Natural projection: erase events outside ``obs``, preserving order."""
    return tuple(e for e in s if (obs >> e) & 1)


def open_loop_estimate(model: PlantModel, alpha: Sequence[int], obs: int) -> int:
    """Current-state estimate of the uncontrolled plant after observing
    ``alpha`` through the projection onto ``obs``.

    Raises :class:`UnreachableObservationError` when no plant string projects
    to ``alpha``.
    """
    hidden = model.all_events_mask & ~obs
    gamma = model.all_events_mask
    q = model.unobservable_reach(1 << model.initial, gamma, hidden)
    for sigma in alpha:
        if not (obs >> sigma) & 1:
            raise ValueError(
                f"event {model.events[sigma]!r} is not in the observation alphabet"
            )
        q = model.observable_reach(q, sigma)
        if not q:
            raise UnreachableObservationError(
                "unreachable observation: no plant string matches"
            )
        q = model.unobservable_reach(q, gamma, hidden)
    return q

