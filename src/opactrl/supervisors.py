"""Supervisor policies as behavioral objects.

A policy maps the supervisor's observation history (a tuple of event
indices) to a control decision mask.  Both tabular test policies and
supervisors decoded from control structures implement the same interface,
so estimation, simulation, and verification code is agnostic to the
representation.
"""

from __future__ import annotations

from .model import ModelFormatError, PlantModel, list_field


class Supervisor:
    """Base interface: a function from observations to control decisions."""

    def decision(self, obs: tuple[int, ...]) -> int:
        raise NotImplementedError

    def observation_signature(self, obs: tuple[int, ...]):
        """Abstraction of the observation sufficient to determine every
        future decision.  Searches deduplicate on it; policies with finite
        memory should collapse it so exploration terminates.  The default is
        the full history (no collapsing)."""
        return obs


class ConstantSupervisor(Supervisor):
    def __init__(self, decision_mask: int):
        self._decision = decision_mask

    def decision(self, obs: tuple[int, ...]) -> int:
        return self._decision

    def observation_signature(self, obs: tuple[int, ...]):
        return ()


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

    def decision(self, obs: tuple[int, ...]) -> int:
        return self._table.get(obs, self.default)

    def observation_signature(self, obs: tuple[int, ...]):
        # Past the longest table key, every extension falls to the default,
        # so all such histories behave alike.
        return obs if len(obs) <= self._horizon else None

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
