"""Command-line front end.

Subcommands: ``verify``, ``synthesize``, ``estimate``, ``export-dot``.
Exit codes: 0 success (verify: opaque), 1 verify: not opaque, 2 usage,
parse, resource or internal errors, 3 synthesize: no solution exists.
"""

from __future__ import annotations

import argparse
import functools
import io
import sys
from pathlib import Path

from . import dot as dotmod
from . import serialize
from .estimator import FlowFormatError, IssuanceMode, estimate_from_flow
from .model import ModelFormatError, PlantModel, json_object, verify_open_loop_opacity
from .structure import (
    ControlStructure,
    SizeGuardExceeded,
    StructureError,
    verify_closed_loop_opacity,
)
from .synthesis import SynthesisConfig, synthesize

EXIT_OK = 0
EXIT_NOT_OPAQUE = 1
EXIT_ERROR = 2
EXIT_NO_SOLUTION = 3


class CliError(Exception):
    pass


def _read_input(path: str, what: str) -> tuple[bytes, str]:
    """The bytes of an input file, and their text decoded as
    ``Path.read_text`` decodes a file (default encoding, universal
    newlines).  A command reads each input once, so that its manifest
    digests the bytes it parsed."""
    try:
        data = Path(path).read_bytes()
        return data, io.TextIOWrapper(io.BytesIO(data)).read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {what}: {exc}") from exc


def _parse_model(path: str, text: str) -> PlantModel:
    try:
        return PlantModel.from_json(text)
    except ModelFormatError as exc:
        raise CliError(f"invalid model {path}: {exc}") from exc


def _load_model(path: str) -> tuple[PlantModel, bytes]:
    """The model in a file, and the file's bytes."""
    data, text = _read_input(path, "model")
    return _parse_model(path, text), data


def _mode(args) -> IssuanceMode:
    return IssuanceMode(args.mode)


def _int_at_least(low: int):
    """An argparse type: an integer no smaller than ``low``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # named in argparse's "invalid int value" message
    return parse


def _add_common(parser: argparse.ArgumentParser, guard: str) -> None:
    """Add ``--mode`` and ``--size-guard``; ``guard`` says what the guard
    bounds for this subcommand."""
    parser.add_argument(
        "--mode",
        choices=[m.value for m in IssuanceMode],
        default=IssuanceMode.OBSERVATION.value,
        help="decision-issuance mechanism (default: observation)",
    )
    parser.add_argument(
        "--size-guard",
        type=_int_at_least(1),
        default=10**6,
        help=f"{guard} (default: 1e6)",
    )


def _add_verify(sub) -> None:
    p = sub.add_parser("verify", help="check opacity of a plant or a closed loop")
    p.add_argument("model", help="model document (JSON)")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--open-loop", action="store_true", help="uncontrolled plant")
    group.add_argument("--supervisor", metavar="PATH", help="policy file")
    p.add_argument("--bound", type=_int_at_least(0), default=None,
                   help="search depth for tabular policies")
    _add_common(p, "maximum closed-loop states visited with --supervisor")


def _add_synthesize(sub) -> None:
    p = sub.add_parser("synthesize", help="synthesize an opacity-enforcing supervisor")
    p.add_argument("model")
    p.add_argument(
        "--policy",
        choices=["first_feasible", "locally_maximal", "enumerate_all"],
        default="first_feasible",
    )
    p.add_argument("--out", metavar="PATH", help="write the control structure here")
    p.add_argument("--dot", metavar="PATH", help="write a DOT rendering here")
    _add_common(p, "maximum arena state count")


def _add_estimate(sub) -> None:
    p = sub.add_parser("estimate", help="intruder state estimate of a flow trace")
    p.add_argument("model")
    p.add_argument("--flow", required=True, metavar="PATH", help="flow trace file")
    _add_common(p, "ignored: estimate makes one pass over the flow")


def _add_export_dot(sub) -> None:
    p = sub.add_parser("export-dot", help="render a model or structure as DOT")
    p.add_argument("input", help="model or control-structure document")
    p.add_argument("--out", metavar="PATH", help="output path (default: stdout)")
    p.add_argument("--model", dest="model_path", metavar="PATH",
                   help="plant model, required when the input is a structure")
    p.add_argument("--estimator", action="store_true",
                   help="render the estimator slice of a supervisor instead")
    p.add_argument("--supervisor", metavar="PATH", help="policy for --estimator")
    p.add_argument("--depth", type=_int_at_least(0), default=6,
                   help="depth for --estimator")
    _add_common(p, "maximum closed-loop states the --estimator slice visits")


SUBCOMMANDS = {
    "verify": _add_verify,
    "synthesize": _add_synthesize,
    "estimate": _add_estimate,
    "export-dot": _add_export_dot,
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The command-line parser.  When ``command`` names a subcommand, only
    that subcommand's parser is added, so a call parses no more than it
    runs; otherwise (``-h``, no arguments, an unknown command) all of them
    are.  Either way it prints the same help, usage and error lines.

    Each parser is built once per process and shared by later calls: every
    command that is not a subcommand maps to the full parser, so at most
    five exist.  Parsing leaves no state on a parser, and argparse reads
    ``COLUMNS`` when it prints, not when it builds.  Callers must not add
    to the parser returned: every later call would see the change."""
    return _build_parser(command if command in SUBCOMMANDS else None)


@functools.cache
def _build_parser(command: str | None) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opactrl",
        description=(
            "Verify and enforce current-state opacity of finite-state "
            "discrete-event systems against an intruder that eavesdrops on "
            "online control decisions."
        ),
    )
    adders = list(SUBCOMMANDS.values())
    metavar = None  # argparse lists the subcommands it has
    if command in SUBCOMMANDS:
        adders = [SUBCOMMANDS[command]]
        # The top-level usage line still lists every subcommand.
        metavar = "{" + ",".join(SUBCOMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for add in adders:
        add(sub)
    return parser


def _cmd_verify(args) -> int:
    model, _ = _load_model(args.model)
    if not model.is_live:
        print("note: model is not live (some reachable state is terminal)")
    if args.open_loop:
        verdict = verify_open_loop_opacity(model)
        if verdict.opaque:
            print("opaque (open loop)")
            return EXIT_OK
        print("not opaque (open loop); witness observation: " + " ".join(verdict.witness))
        return EXIT_NOT_OPAQUE
    _, text = _read_input(args.supervisor, "supervisor")
    sup = serialize.parse_supervisor_text(model, text)
    try:
        result = verify_closed_loop_opacity(
            model, sup, _mode(args), args.bound, args.size_guard
        )
    except SizeGuardExceeded as exc:
        raise CliError(str(exc)) from exc
    if result.opaque:
        qualifier = "" if result.complete else f" up to bound {result.bound}"
        print(f"opaque{qualifier} ({args.mode} mode)")
        return EXIT_OK
    print(
        f"not opaque ({args.mode} mode); counterexample string: "
        + " ".join(result.counterexample)
    )
    return EXIT_NOT_OPAQUE


def _cmd_synthesize(args) -> int:
    model, data = _load_model(args.model)
    cfg = SynthesisConfig(
        mode=_mode(args),
        extraction_policy=args.policy,
        size_guard=args.size_guard,
    )
    try:
        outcome = synthesize(model, cfg)
    except SizeGuardExceeded as exc:
        raise CliError(str(exc)) from exc
    print(outcome.report(), end="")
    if not outcome.solved:
        print("no solution exists")
        return EXIT_NO_SOLUTION
    structure = outcome.structure
    config_doc = {
        "mode": args.mode,
        "policy": args.policy,
        "size_guard": args.size_guard,
    }
    outcome_doc = {
        "solved": True,
        "structures": len(outcome.structures),
        "arena_states_before": outcome.arena_states_before,
        "arena_states_after": outcome.arena_states_after,
        "pruning_iterations": outcome.pruning_iterations,
    }
    if args.out or args.dot:
        # One manifest for both artifacts, over the bytes the model was parsed from.
        manifest = serialize.manifest_for(
            "synthesize", {args.model: data}, config_doc, outcome_doc
        )
    if args.out:
        serialize.write_artifact(
            args.out, serialize.structure_to_json(structure), manifest
        )
        print(f"structure written to {args.out}")
    if args.dot:
        serialize.write_artifact(args.dot, dotmod.structure_to_dot(structure), manifest)
        print(f"dot written to {args.dot}")
    return EXIT_OK


def _cmd_estimate(args) -> int:
    model, _ = _load_model(args.model)
    _, text = _read_input(args.flow, "flow")
    try:
        flow = serialize.parse_flow(model, text)
        estimate = estimate_from_flow(model, flow, _mode(args))
    except (ModelFormatError, FlowFormatError) as exc:
        raise CliError(f"invalid flow: {exc}") from exc
    print(model.format_state_set(estimate))
    return EXIT_OK


def _cmd_export_dot(args) -> int:
    data, text = _read_input(args.input, "input")
    if args.estimator:
        model = _parse_model(args.input, text)
        if not args.supervisor:
            raise CliError("--estimator requires --supervisor")
        _, sup_text = _read_input(args.supervisor, "supervisor")
        sup = serialize.parse_supervisor_text(model, sup_text)
        if isinstance(sup, ControlStructure):
            sup = sup.decoded()
        try:
            output = dotmod.estimator_slice_to_dot(
                model, sup, _mode(args), args.depth, args.size_guard
            )
        except SizeGuardExceeded as exc:
            raise CliError(str(exc)) from exc
    else:
        try:
            doc = json_object(text, "model")
            is_structure = doc.get("type") == "control-structure"
            model = None if is_structure else PlantModel.from_dict(doc)
        except ModelFormatError as exc:
            raise CliError(f"invalid model {args.input}: {exc}") from exc
        if is_structure:
            if not args.model_path:
                raise CliError("structure input requires --model")
            model, _ = _load_model(args.model_path)
            try:
                structure = serialize.structure_from_dict(model, doc)
            except ModelFormatError as exc:
                raise CliError(f"invalid structure: {exc}") from exc
            output = dotmod.structure_to_dot(structure)
        else:
            output = dotmod.model_to_dot(model)
    if args.out:
        manifest = serialize.manifest_for(
            "export-dot", {args.input: data}, {"estimator": args.estimator}, {}
        )
        serialize.write_artifact(args.out, output, manifest)
    else:
        print(output, end="")
    return EXIT_OK


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code not in (0, None) else EXIT_OK
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "synthesize":
            return _cmd_synthesize(args)
        if args.command == "estimate":
            return _cmd_estimate(args)
        if args.command == "export-dot":
            return _cmd_export_dot(args)
        raise CliError(f"unknown command {args.command!r}")
    except (CliError, ModelFormatError, StructureError, FlowFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:  # a bug, not a verdict: never exit 1 with a traceback
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
