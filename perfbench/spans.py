"""Layer tracing for the benchmark, installed from outside the program.

The tracer replaces the module attributes that callers go through with
timing wrappers, and puts the originals back on ``uninstall``.  Every
wrapped call pushes a frame, so a function's self time is its duration
minus the time its wrapped children took.  A layer is busy from the moment
a call enters it from another layer until that call returns, so nested
calls inside one layer (``unobservable_reach_plus`` calling
``unobservable_reach``) are not counted twice.

Coarse calls (one CLI operation, a synthesis phase, a verification, a
serialisation or DOT rendering) are kept as spans with name, start, end,
parent and operation id, held in memory and written out at the end.  The
hot leaves (``estimator_step``, ``nx_is``/``ur_is`` and the plant reach
operators, millions of calls per pass) only feed the per-name counters:
one record per call would need gigabytes.
"""

from __future__ import annotations

import json
from pathlib import Path
from time import perf_counter


class Tracer:
    def __init__(self):
        self._stack: list[list] = []  # frames: [child_time, layer, span_id]
        self._installed: list[tuple[object, str, object]] = []
        self.calls: dict[str, int] = {}
        self.total_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.layer_busy_s: dict[str, float] = {}
        self.counters: dict[str, int] = {}
        self.spans: list[tuple[int, str, float, float, int | None, int]] = []
        self.op_id = 0
        self._step_inputs: set = set()

    # Installation --------------------------------------------------------

    def _wrap(self, name: str, layer: str, fn, span: bool, on_return=None):
        stack = self._stack
        calls, total_s, self_s, busy = self.calls, self.total_s, self.self_s, self.layer_busy_s
        spans = self.spans
        for table in (calls, total_s, self_s):
            table.setdefault(name, 0)
        busy.setdefault(layer, 0.0)

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = len(spans) if span else None
            if span:
                spans.append(None)  # reserve the id; filled in on return
            frame = [0.0, layer, span_id]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                calls[name] += 1
                total_s[name] += duration
                self_s[name] += duration - frame[0]
                if parent is None or parent[1] != layer:
                    busy[layer] += duration
                if parent is not None:
                    parent[0] += duration
                if span:
                    parent_span = next(
                        (f[2] for f in reversed(stack) if f[2] is not None), None
                    )
                    spans[span_id] = (span_id, name, start, end, parent_span, self.op_id)
            if on_return is not None:
                on_return(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, owner, attr: str, name: str, layer: str, span: bool, on_return=None):
        original = getattr(owner, attr)
        setattr(owner, attr, self._wrap(name, layer, original, span, on_return))
        self._installed.append((owner, attr, original))

    def install(self) -> "Tracer":
        """Wrap every entry point the CLI reaches, in each module that
        imported it, so that no call path slips past the counters."""
        from opactrl import cli, dot, estimator, model, serialize, structure, synthesis

        self.patch(cli, "main", "cli.main", "cli", True)
        self.patch(cli, "synthesize", "synthesis.synthesize", "synthesis", True)
        self.patch(
            cli, "verify_closed_loop_opacity", "structure.verify", "structure", True
        )
        self.patch(synthesis, "expand_arena", "synthesis.expand_arena",
                   "synthesis.expand_arena", True, self._count_arena)
        self.patch(synthesis, "prune_incomplete", "synthesis.prune_incomplete",
                   "synthesis.prune_incomplete", True, self._count_pruned)
        self.patch(synthesis, "extract_structure", "synthesis.extract_structure",
                   "synthesis.extract_structure", True)

        step = self._wrap("estimator.step", "estimator", estimator.estimator_step, False,
                          self._record_step)
        nx = self._wrap("structure.nx_is", "structure.nx_is", structure.nx_is, False)
        ur = self._wrap("structure.ur_is", "structure.ur_is", structure.ur_is, False)
        for owner, attr, wrapper in (
            (estimator, "estimator_step", step),
            (structure, "estimator_step", step),
            (synthesis, "estimator_step", step),
            (structure, "nx_is", nx),
            (synthesis, "nx_is", nx),
            (structure, "ur_is", ur),
            (synthesis, "ur_is", ur),
        ):
            self._installed.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

        for attr in ("observable_reach", "unobservable_reach",
                     "unobservable_reach_plus", "active_events"):
            self.patch(model.PlantModel, attr, f"model.{attr}", "model.reach", False)

        for attr in ("parse_supervisor_text", "structure_to_json", "manifest_for"):
            self.patch(serialize, attr, f"serialize.{attr}", "serialize", True)
        self.patch(serialize, "write_artifact", "serialize.write_artifact", "serialize",
                   True, self._count_bytes)
        for attr in ("model_to_dot", "structure_to_dot", "estimator_slice_to_dot"):
            self.patch(dot, attr, f"dot.{attr}", "dot", True)
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # Counters fed from return values -------------------------------------

    def _add(self, key: str, amount: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _count_arena(self, args, arena) -> None:
        self._add("synthesis.arena_states", arena.n_states)

    def _count_pruned(self, args, arena) -> None:
        self._add("synthesis.arena_states_kept", arena.n_states)
        self._add("synthesis.prune_incomplete.iterations", len(arena.pruning_trace))

    def _count_bytes(self, args, _result) -> None:
        path = Path(args[0])
        size = path.stat().st_size + Path(str(path) + ".manifest.json").stat().st_size
        self._add("serialize.bytes_out", size)

    def _record_step(self, args, _result) -> None:
        # Each operation loads its own model, so (state, event, mode) keys
        # are only compared within one operation.
        self._step_inputs.add(args[1:4])

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self._step_inputs.clear()

    def end_op(self) -> None:
        self._add("estimator.step.distinct", len(self._step_inputs))
        self._step_inputs.clear()

    # Reporting -----------------------------------------------------------

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """The per-layer figures, as name -> (value, unit)."""
        c, s, b, k = self.calls, self.self_s, self.layer_busy_s, self.counters
        step_calls = c["estimator.step"]
        reach = [n for n in c if n.startswith("model.")]
        serial = [n for n in c if n.startswith("serialize.")]
        dots = [n for n in c if n.startswith("dot.")]
        return {
            "estimator.step.calls": (step_calls, "count"),
            "estimator.step.self_s": (s["estimator.step"], "s"),
            "estimator.step.distinct_ratio": (
                k.get("estimator.step.distinct", 0) / step_calls if step_calls else 0.0,
                "ratio",
            ),
            "structure.ur_is.calls": (c["structure.ur_is"], "count"),
            "structure.ur_is.self_s": (s["structure.ur_is"], "s"),
            "structure.nx_is.calls": (c["structure.nx_is"], "count"),
            "structure.nx_is.self_s": (s["structure.nx_is"], "s"),
            "structure.verify.calls": (c["structure.verify"], "count"),
            "structure.verify.self_s": (s["structure.verify"], "s"),
            "synthesis.synthesize.busy_s": (self.total_s["synthesis.synthesize"], "s"),
            "synthesis.expand_arena.busy_s": (b["synthesis.expand_arena"], "s"),
            "synthesis.arena_states": (k.get("synthesis.arena_states", 0), "count"),
            "synthesis.arena_states_kept": (k.get("synthesis.arena_states_kept", 0), "count"),
            "synthesis.prune_incomplete.busy_s": (b["synthesis.prune_incomplete"], "s"),
            "synthesis.prune_incomplete.iterations": (
                k.get("synthesis.prune_incomplete.iterations", 0), "count"),
            "synthesis.extract_structure.busy_s": (b["synthesis.extract_structure"], "s"),
            "model.reach.calls": (sum(c[n] for n in reach), "count"),
            "model.reach.busy_s": (b["model.reach"], "s"),
            "serialize.calls": (sum(c[n] for n in serial), "count"),
            "serialize.busy_s": (b["serialize"], "s"),
            "serialize.bytes_out": (k.get("serialize.bytes_out", 0), "bytes"),
            "dot.calls": (sum(c[n] for n in dots), "count"),
            "dot.busy_s": (b["dot"], "s"),
            "cli.main.self_s": (s["cli.main"], "s"),
        }

    def write(self, path: Path) -> None:
        """Write the spans and per-name counters as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "spans": [
                dict(zip(("id", "name", "start", "end", "parent", "op"), span))
                for span in self.spans
                if span is not None
            ],
            "calls": self.calls,
            "total_s": self.total_s,
            "self_s": self.self_s,
            "layer_busy_s": self.layer_busy_s,
            "counters": self.counters,
        }
        path.write_text(json.dumps(doc))
