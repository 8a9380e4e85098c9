"""Supervisor policies as behavioral objects.

A policy is read through its realization: a state that it starts in and
advances on each observed event (an event index), and the control decision
mask that each state fixes.  Both tabular test policies and supervisors
decoded from control structures implement the same interface, so
estimation, simulation, and verification code steps one state along every
walk and is agnostic to the representation.
"""

from __future__ import annotations

from .model import ModelFormatError, PlantModel, list_field


class Supervisor:
    """Base interface: a state advanced on observations, and the decision
    each state fixes.  The default state is the whole observation history
    (no collapsing); policies with finite memory should collapse it, since
    searches tell their nodes apart by it and terminate only if it takes
    finitely many values."""

    def start(self):
        return ()

    def advance(self, state, sigma: int):
        return state + (sigma,)

    def decide(self, state) -> int:
        raise NotImplementedError

    def observation_signature(self, obs: tuple[int, ...]):
        """The state that the history ``obs`` reaches: enough to determine
        every future decision."""
        state = self.start()
        for sigma in obs:
            state = self.advance(state, sigma)
        return state

    def decision(self, obs: tuple[int, ...]) -> int:
        return self.decide(self.observation_signature(obs))


class ConstantSupervisor(Supervisor):
    def __init__(self, decision_mask: int):
        self._decision = decision_mask

    def advance(self, state, sigma: int):
        return state

    def decide(self, state) -> int:
        return self._decision


class TabularSupervisor(Supervisor):
    """Finite table from observation strings to decisions, with a default
    decision (all events enabled unless stated otherwise) for unlisted
    observations."""

    def __init__(
        self,
        model: PlantModel,
        table: dict[str, list[str]] | dict[tuple[int, ...], int],
        default: list[str] | int | None = None,
    ):
        self.model = model
        self._table: dict[tuple[int, ...], int] = {}
        for key, value in table.items():
            obs = model.word(key) if isinstance(key, str) else tuple(key)
            if isinstance(value, int):
                mask = value
            else:
                what = f"supervisor table entry {key!r}"
                mask = model.control_decision(list_field(value, what))
            self._check(mask)
            self._table[obs] = mask
        if default is None:
            self.default = model.all_events_mask
        elif isinstance(default, int):
            self.default = default
        else:
            default = list_field(default, "supervisor default")
            self.default = model.control_decision(default)
        self._check(self.default)
        self._horizon = max((len(obs) for obs in self._table), default=0)

    def _check(self, mask: int) -> None:
        if self.model.uncontrollable & ~mask:
            raise ModelFormatError("uncontrollable event disabled in supervisor table")

    def advance(self, state, sigma: int):
        # Past the longest table key, every extension falls to the default,
        # so all such histories behave alike: they share the state None.
        if state is None or len(state) == self._horizon:
            return None
        return state + (sigma,)

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
