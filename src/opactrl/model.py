"""Finite-state plant models and reach operators.

States and events are referred to by name externally and interned to dense
integer indices internally; every set of states or events is an int bitmask
over those indices.  Canonical order is first appearance in the model
document, so every construction on them is deterministic.  The open-loop
estimate, a reference for the reach operators, and the natural projection
are in :mod:`opactrl.oracles`.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence


class ModelFormatError(ValueError):
    """A model document is syntactically or semantically invalid."""


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
    """``value``, which a document gives as a list of names.  ``str.join``
    checks every entry in one pass; where it refuses one, the first entry
    that is not a name is named."""
    try:
        "".join(list_field(value, what))
    except TypeError:
        for name in value:
            name_field(name, what)
        raise  # not reached: both refuse exactly what is not a string
    return value


def declared_names(value, what: str) -> list[str]:
    """``value``, which a document gives as a list of declared names
    (:func:`declared_name`): where ``str.join`` refuses an entry, the list
    is read again name by name, each number as its decimal text."""
    try:
        "".join(list_field(value, what))
    except TypeError:
        return [declared_name(name, what) for name in value]
    return value


def mask_of(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def names_mask(index: dict[str, int], names, what: str, kind: str) -> int:
    """The mask of the indices that ``index`` gives the names in the list
    ``names``, read in one loop of lookups.  A fault is named in this
    order: ``names`` that is not a list, then its first entry that is not
    a name, then its first name that ``index`` does not hold (``unknown
    KIND 'name'``).  The label ``what`` is the one :func:`names_field`
    takes."""
    mask = 0
    try:
        for name in list_field(names, what):
            mask |= 1 << index[name]
    except (KeyError, TypeError) as exc:  # TypeError: an unhashable entry
        # The loop stops at the first miss; an entry that is not a name
        # comes before an unknown name, wherever it is in the list.
        names_field(names, what)
        raise ModelFormatError(f"unknown {kind} {exc.args[0]!r}") from None
    return mask


def _check_transitions(transitions) -> None:
    """Refuse the first of ``transitions`` that is not a triple of names."""
    for entry in transitions:
        if len(names_field(entry, "transition")) != 3:
            raise ModelFormatError(f"malformed transition {entry!r}")


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
        self.states: tuple[str, ...] = tuple(states)
        self.events: tuple[str, ...] = tuple(events)
        self.state_index = dict(zip(self.states, range(len(self.states))))
        if len(self.state_index) != len(self.states):
            raise ModelFormatError("duplicate state name")
        self.event_index = dict(zip(self.events, range(len(self.events))))
        if len(self.event_index) != len(self.events):
            raise ModelFormatError("duplicate event name")
        # A decision table's keys are split at whitespace, a flow's decision
        # {e1,e2} at commas, and a flow writes '-' for no event: only a name
        # that is one word, with no ',', '{' or '}', and not '-', can be named.
        for name in self.events:
            if name.split() != [name]:
                raise ModelFormatError(
                    f"invalid event name {name!r}: it must be non-empty and "
                    "hold no whitespace"
                )
            if "," in name or "{" in name or "}" in name:
                raise ModelFormatError(f"invalid event name {name!r}: it must hold no "
                                       "',', '{' or '}'")
            if name == "-":
                raise ModelFormatError("invalid event name '-': a flow writes it for no event")

        if initial not in self.state_index:
            raise ModelFormatError(f"unknown initial state {initial!r}")
        self.initial = self.state_index[initial]

        self.secret_mask = self.state_mask(secret)

        n = len(self.states)
        self.all_states_mask = (1 << n) - 1
        self.all_events_mask = (1 << len(self.events)) - 1

        # delta as one {event: successor} dict per state, plus the active-event
        # mask per state for fast feasibility tests.
        succ: tuple[dict[int, int], ...] = tuple([{} for _ in range(n)])
        active: list[int] = [0] * n
        state_of, event_of = self.state_index.get, self.event_index.get
        for src, ev, dst in transitions:
            x, e, y = state_of(src), event_of(ev), state_of(dst)
            if x is None or e is None or y is None:
                for name, i, kind in ((src, x, "state"), (dst, y, "state"),
                                      (ev, e, "event")):
                    if i is None:
                        raise ModelFormatError(f"unknown {kind} {name!r} in transition")
            row = succ[x]
            if e in row:
                raise ModelFormatError(
                    f"nondeterministic transition: ({src!r}, {ev!r}) has two successors"
                )
            row[e] = y
            active[x] |= 1 << e
        self._succ, self._active = succ, active

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
        return mask_of(map(self.state, names))

    def event_mask(self, names: Iterable[str]) -> int:
        return mask_of(map(self.event, names))

    def state_names(self, mask: int) -> tuple[str, ...]:
        return tuple(self.states[i] for i in iter_bits(mask))

    def event_names(self, mask: int) -> tuple[str, ...]:
        return tuple(self.events[i] for i in iter_bits(mask))

    def format_state_set(self, mask: int) -> str:
        return "{" + ",".join(self.state_names(mask)) + "}"

    def format_decision(self, mask: int) -> str:
        return "{" + ",".join(self.event_names(mask)) + "}"

    # Control decisions --------------------------------------------------

    def control_decision(self, names, what: str = "decision") -> int:
        """The control decision that enables the events in the list
        ``names``, read by :func:`names_mask` (``what`` labels its faults).
        A decision that disables an uncontrollable event is refused."""
        mask = names_mask(self.event_index, names, what, "event")
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
        """The model of a document.  Each field is read once, and a document
        with several faults is refused for the first in this order: a
        missing key, the partitions' lists, the events, an unknown event in
        a partition, the transitions, the states, the initial state, the
        secret, and then what the constructor refuses."""
        for key in ("states", "events", "initial", "transitions"):
            if key not in doc:
                raise ModelFormatError(f"missing key {key!r}")
        # In EventPartitions field order.
        partitions = [
            names_field(doc.get(key, []), repr(key))
            for key in ("observable_supervisor", "observable_intruder", "controllable")
        ]
        events = declared_names(doc["events"], "'events'")
        try:
            transitions = list_field(doc["transitions"], "'transitions'")
            if not all(type(entry) is list and len(entry) == 3 for entry in transitions):
                _check_transitions(transitions)
            return cls(
                states=declared_names(doc["states"], "'states'"),
                events=events,
                transitions=transitions,
                initial=declared_name(doc["initial"], "'initial'"),
                secret=declared_names(doc.get("secret", []), "'secret'"),
                partitions=EventPartitions(*map(frozenset, partitions)),
            )
        except (ModelFormatError, TypeError):
            # What the constructor refuses may not be the first fault: it
            # looks up the transitions' names, where one that is not a
            # string reads as unknown (or unhashable), and then the
            # partitions' names.  An unknown event in a partition, and then
            # a transition that is not a triple of names, come first.
            known = set(events)
            for names in partitions:
                for name in names:
                    if name not in known:
                        raise ModelFormatError(f"unknown event {name!r} in partition") from None
            _check_transitions(list_field(doc["transitions"], "'transitions'"))
            raise

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
