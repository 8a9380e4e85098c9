"""Command-line front end.

Subcommands: ``verify``, ``synthesize``, ``estimate``, ``export-dot``.
Exit codes: 0 success (verify: opaque), 1 verify: not opaque, 2 usage,
parse, resource or internal errors, 3 synthesize: no solution exists.
"""

from __future__ import annotations

import argparse
import functools
import locale
import sys
from pathlib import Path

from . import dot as dotmod
from . import serialize
from .estimator import FlowFormatError, IssuanceMode, estimate_from_flow
from .model import ModelFormatError, PlantModel, json_object
from .structure import (
    DEFAULT_SIZE_GUARD,
    ControlStructure,
    SizeGuardExceeded,
    StructureError,
    verify_closed_loop_opacity,
    verify_open_loop_opacity,
)
from .synthesis import EXTRACTION_POLICIES, SynthesisConfig, synthesize

EXIT_OK = 0
EXIT_NOT_OPAQUE = 1
EXIT_ERROR = 2
EXIT_NO_SOLUTION = 3


class CliError(Exception):
    pass


def _read_input(path: str, what: str) -> tuple[bytes, str]:
    """The bytes of an input file, and their text decoded as
    ``Path.read_text`` decodes a file: in the encoding a text stream
    picks by default, with universal newlines.  A command reads each input
    once, so that its manifest digests the bytes it parsed."""
    try:
        data = Path(path).read_bytes()
        text = data.decode(locale.getpreferredencoding(False))
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {what}: {exc}") from exc
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return data, text


def _load(path: str, what: str, parse):
    """``parse`` of the text of the file at ``path``, read once, and the
    file's bytes."""
    data, text = _read_input(path, what)
    return _parsed(path, what, parse, text), data


def _parsed(path: str, what: str, parse, source):
    """``parse(source)``, where ``source`` came from ``path``.  A document
    that ``parse`` refuses is reported as an invalid ``what`` at ``path``."""
    try:
        return parse(source)
    except (ModelFormatError, FlowFormatError) as exc:
        raise CliError(f"invalid {what} {path}: {exc}") from exc


def _write(path: str, text: str, manifest: str) -> None:
    """``serialize.write_artifact``; a file it cannot write, the artifact
    or its sidecar, is the user's error, named with the reason."""
    try:
        serialize.write_artifact(path, text, manifest)
    except OSError as exc:
        raise CliError(f"cannot write {exc.filename}: {exc.strerror}") from exc


def _int_at_least(low: int):
    """An argparse type: an integer no smaller than ``low``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # named in argparse's "invalid int value" message
    return parse


def _add_mode(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--mode",
        choices=[m.value for m in IssuanceMode],
        default=IssuanceMode.OBSERVATION.value,
        help="decision-issuance mechanism (default: observation)",
    )


def _add_mode_and_guard(parser: argparse.ArgumentParser, guard: str) -> None:
    """Add ``--mode`` and ``--size-guard``; ``guard`` says what the guard
    bounds for this subcommand."""
    _add_mode(parser)
    parser.add_argument(
        "--size-guard",
        type=_int_at_least(1),
        default=DEFAULT_SIZE_GUARD,
        help=f"{guard} (default: 1e6)",
    )


def _add_verify(p: argparse.ArgumentParser) -> None:
    p.add_argument("model", help="model document (JSON)")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--open-loop", action="store_true",
                       help="uncontrolled plant, which releases no decisions: "
                       "--mode is not read")
    group.add_argument("--supervisor", metavar="PATH", help="policy file")
    _add_mode_and_guard(p, "maximum states the open-loop or closed-loop search visits")
    p.set_defaults(run=_cmd_verify)


def _add_synthesize(p: argparse.ArgumentParser) -> None:
    p.add_argument("model")
    p.add_argument("--policy", choices=EXTRACTION_POLICIES, default="first_feasible",
                   help="extraction policy: first_feasible (default) or locally_maximal")
    p.add_argument("--out", metavar="PATH", help="write the control structure here")
    p.add_argument("--dot", metavar="PATH", help="write a DOT rendering here")
    _add_mode_and_guard(p, "maximum arena state count")
    p.set_defaults(run=_cmd_synthesize)


def _add_estimate(p: argparse.ArgumentParser) -> None:
    p.add_argument("model")
    p.add_argument("--flow", required=True, metavar="PATH", help="flow trace file")
    _add_mode(p)
    p.set_defaults(run=_cmd_estimate)


# The defaults of the export-dot options read only with --estimator, as their
# help text states them.
ESTIMATOR_DEFAULTS = {
    "depth": 6,
    "mode": IssuanceMode.OBSERVATION.value,
    "size_guard": DEFAULT_SIZE_GUARD,
}


def _add_export_dot(p: argparse.ArgumentParser) -> None:
    p.add_argument("input", help="model or control-structure document")
    p.add_argument("--out", metavar="PATH", help="output path (default: stdout)")
    p.add_argument("--model", dest="model_path", metavar="PATH",
                   help="plant model, required when the input is a structure")
    p.add_argument("--estimator", action="store_true",
                   help="render the estimator slice of a supervisor instead")
    p.add_argument("--supervisor", metavar="PATH", help="policy for --estimator")
    p.add_argument("--depth", type=_int_at_least(0), help="depth for --estimator")
    _add_mode_and_guard(p, "maximum closed-loop states the --estimator slice visits")
    # None marks an option not given, so that one given without --estimator
    # can be refused; ESTIMATOR_DEFAULTS fills them in under --estimator.
    p.set_defaults(run=_cmd_export_dot, **dict.fromkeys(ESTIMATOR_DEFAULTS))


# Each subcommand's name, its one-line help, and what adds its arguments.
SUBCOMMANDS = {
    "verify": ("check opacity of a plant or a closed loop", _add_verify),
    "synthesize": ("synthesize an opacity-enforcing supervisor", _add_synthesize),
    "estimate": ("intruder state estimate of a flow trace", _add_estimate),
    "export-dot": ("render a model or structure as DOT", _add_export_dot),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every
    later call.  Parsing leaves no state on it, and argparse reads
    ``COLUMNS`` when it prints, not when it builds.  Callers must not add
    to the parser returned: every later call would see the change."""
    parser = argparse.ArgumentParser(
        prog="opactrl",
        description=(
            "Verify and enforce current-state opacity of finite-state "
            "discrete-event systems against an intruder that eavesdrops on "
            "online control decisions."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, add) in SUBCOMMANDS.items():
        add(sub.add_parser(name, help=help_line))
    # Each subcommand's parser by name, which ``_parse_args`` hands a
    # command's arguments to.
    parser.subcommands = sub.choices
    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``.  When ``argv`` starts with a
    subcommand, the rest goes straight to that subcommand's parser, which
    is all the top-level parser would do with it; arguments that parser
    leaves over are refused as the top-level parser refuses them."""
    parser = build_parser()
    command = parser.subcommands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:])
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    args.command = argv[0]
    return args


def _cmd_verify(args) -> int:
    model, _ = _load(args.model, "model", PlantModel.from_json)
    if not model.is_live:
        print("note: model is not live (some reachable state is terminal)")
    if args.open_loop:
        loop, exposed = "open loop", "witness observation"
        check = functools.partial(verify_open_loop_opacity, model, args.size_guard)
    else:
        loop, exposed = f"{args.mode} mode", "counterexample string"
        sup, _ = _load(args.supervisor, "supervisor",
                       functools.partial(serialize.parse_supervisor_text, model))
        check = functools.partial(verify_closed_loop_opacity, model, sup,
                                  IssuanceMode(args.mode), args.size_guard)
    result = check()
    if result.opaque:
        print(f"opaque ({loop})")
        return EXIT_OK
    print(f"not opaque ({loop}); {exposed}: " + " ".join(result.counterexample))
    return EXIT_NOT_OPAQUE


def _cmd_synthesize(args) -> int:
    model, data = _load(args.model, "model", PlantModel.from_json)
    cfg = SynthesisConfig(
        mode=IssuanceMode(args.mode),
        extraction_policy=args.policy,
        size_guard=args.size_guard,
    )
    outcome = synthesize(model, cfg)
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
        "structures": 1,  # one per run; the field keeps the manifest's schema
        "arena_states_before": outcome.arena_states_before,
        "arena_states_after": outcome.arena_states_after,
        "pruning_iterations": outcome.pruning_iterations,
    }
    if args.out or args.dot:
        # One manifest for both artifacts, over the bytes the model was
        # parsed from, rendered once.
        manifest = serialize.dump_json(serialize.manifest_for(
            "synthesize", {args.model: data}, config_doc, outcome_doc
        ))
    if args.out:
        _write(args.out, serialize.structure_to_json(structure), manifest)
        print(f"structure written to {args.out}")
    if args.dot:
        _write(args.dot, dotmod.structure_to_dot(structure), manifest)
        print(f"dot written to {args.dot}")
    return EXIT_OK


def _cmd_estimate(args) -> int:
    model, _ = _load(args.model, "model", PlantModel.from_json)
    mode = IssuanceMode(args.mode)
    estimate, _ = _load(
        args.flow,
        "flow",
        lambda text: estimate_from_flow(model, serialize.parse_flow(model, text), mode),
    )
    print(model.format_state_set(estimate))
    return EXIT_OK


def _model_or_structure(text: str) -> PlantModel | dict:
    """The model in an ``export-dot`` input, or the document of the
    control structure it holds instead."""
    doc = json_object(text, "model")
    if doc.get("type") == "control-structure":
        return doc
    return PlantModel.from_dict(doc)


def _cmd_export_dot(args) -> int:
    if args.estimator:
        if args.model_path is not None:
            raise CliError("--model is read only with a structure input")
        for dest, default in ESTIMATOR_DEFAULTS.items():
            if getattr(args, dest) is None:
                setattr(args, dest, default)
    else:
        for dest in ("supervisor", *ESTIMATOR_DEFAULTS):
            if getattr(args, dest) is not None:
                option = "--" + dest.replace("_", "-")
                raise CliError(f"{option} is read only with --estimator")
    # The input is a model or a structure, so a read error calls it "input".
    data, text = _read_input(args.input, "input")
    # The bytes of every file parsed, and every option read, for the manifest.
    inputs = {args.input: data}
    config = {"estimator": args.estimator}
    if args.estimator:
        model = _parsed(args.input, "model", PlantModel.from_json, text)
        if not args.supervisor:
            raise CliError("--estimator requires --supervisor")
        parse = functools.partial(serialize.parse_supervisor_text, model)
        sup, inputs[args.supervisor] = _load(args.supervisor, "supervisor", parse)
        config.update({dest: getattr(args, dest) for dest in ESTIMATOR_DEFAULTS})
        if isinstance(sup, ControlStructure):
            sup = sup.decoded()
        output = dotmod.estimator_slice_to_dot(
            model, sup, IssuanceMode(args.mode), args.depth, args.size_guard
        )
    else:
        loaded = _parsed(args.input, "model", _model_or_structure, text)
        if isinstance(loaded, PlantModel):
            if args.model_path is not None:
                raise CliError("--model is read only with a structure input")
            output = dotmod.model_to_dot(loaded)
        else:
            if not args.model_path:
                raise CliError("structure input requires --model")
            model, inputs[args.model_path] = _load(args.model_path, "model", PlantModel.from_json)
            structure = _parsed(args.input, "structure",
                                functools.partial(serialize.structure_from_dict, model),
                                loaded)
            # verify's structure walk, for its members check only: a
            # structure that misstates a state is refused, not drawn.
            verify_closed_loop_opacity(model, structure, structure.mode)
            output = dotmod.structure_to_dot(structure)
    if args.out:
        manifest = serialize.manifest_for("export-dot", inputs, config, {})
        _write(args.out, output, serialize.dump_json(manifest))
    else:
        print(output, end="")
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code not in (0, None) else EXIT_OK
    try:
        return args.run(args)
    except (CliError, ModelFormatError, StructureError, FlowFormatError,
            SizeGuardExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:  # a bug, not a verdict: never exit 1 with a traceback
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
