"""Supervisor policies as behavioral objects.

A policy is read through its realization: a state that it starts in and
advances on each observed event (an event index), and the control decision
mask that each state fixes.  Both tabular test policies and supervisors
decoded from control structures implement the same interface, so
estimation, simulation, and verification code steps one state along every
walk and is agnostic to the representation.
"""

from __future__ import annotations

from functools import cached_property

from .model import ModelFormatError, PlantModel


class Supervisor:
    """The protocol of a policy: ``start()`` gives its first state,
    ``advance(state, sigma)`` the state after the supervisor observes
    ``sigma``, and ``decide(state)`` the decision mask that ``state``
    fixes.  A subclass defines all three, and its states must take finitely
    many values: a search of the closed loop tells its nodes apart by the
    state, so it ends, and the verdict it gives is exact."""

    def observation_signature(self, obs: tuple[int, ...]):
        """The state that the history ``obs`` reaches: enough to determine
        every future decision."""
        state = self.start()
        for sigma in obs:
            state = self.advance(state, sigma)
        return state

    def decision(self, obs: tuple[int, ...]) -> int:
        return self.decide(self.observation_signature(obs))


class TabularSupervisor(Supervisor):
    """Finite table from observation strings to decisions, with a default
    decision (all events enabled unless stated otherwise) for unlisted
    observations.  The table and the default are given as a document
    gives them: space-separated observation strings, each mapped to a list
    of event names, and a list of event names or None.  The table is read
    entry by entry, each key before its decision, and then the default; a
    table with several faults is refused for the first.

    The policy state is the history while it is a prefix of some table key
    (the empty history at the start), and None once no key extends it:
    from there every decision is the default, so all such histories share
    one state and a search tells them apart no further."""

    def __init__(
        self,
        model: PlantModel,
        table: dict[str, list[str]],
        default: list[str] | None = None,
    ):
        self.model = model
        self._table: dict[tuple[int, ...], int] = {}
        for key, value in table.items():
            obs = model.word(key)
            self._refuse(key, obs)
            what = f"supervisor table entry {key!r}"
            self._table[obs] = model.control_decision(value, what)
        self.default = (
            model.all_events_mask if default is None
            else model.control_decision(default, "supervisor default")
        )

    def _refuse(self, key: str, obs: tuple[int, ...]) -> None:
        """Refuse the entry ``key``, read as ``obs``, if it must be.  The
        policy advances on the events it observes only, so an entry with
        any other would never be read; and one string written two ways
        ("u1", "u1 ") would keep only one of its entries."""
        for e in obs:
            if not (self.model.supervisor_observable >> e) & 1:
                raise ModelFormatError(
                    f"supervisor table entry {key!r}: event "
                    f"{self.model.events[e]!r} is not observable by the supervisor"
                )
        if obs in self._table:
            raise ModelFormatError(f"supervisor table entry {key!r} given twice")

    @cached_property
    def _prefixes(self) -> frozenset[tuple[int, ...]]:
        """The non-empty prefixes of the table keys, the keys included.
        Built on the first ``advance``, so that a table that is only read
        or written pays nothing for it."""
        return frozenset(
            obs[:n] for obs in self._table for n in range(1, len(obs) + 1)
        )

    def start(self):
        return ()

    def advance(self, state, sigma: int):
        if state is None:
            return None
        state += (sigma,)
        return state if state in self._prefixes else None

    def decide(self, state) -> int:
        return self._table.get(state, self.default)

    def to_dict(self) -> dict:
        return {
            "type": "supervisor-table",
            "default": list(self.model.event_names(self.default)),
            "table": {
                " ".join(self.model.events[e] for e in obs): list(
                    self.model.event_names(mask)
                )
                for obs, mask in sorted(self._table.items())
            },
        }
