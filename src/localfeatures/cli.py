"""Command line interface.

Commands: check, emit, explain, features, enumerate. Exit code 0 on success,
1 when error diagnostics were reported, 2 on usage or I/O problems, and 141,
silently, when standard output is closed early by its reader.
Diagnostics go to standard error as <file>:<line>:<col>: <severity>[<code>]:
<message> (or as a JSON array with --format json); summaries and results go
to standard output. ANSI color is used only on a terminal and never when
the NO_COLOR environment variable is set.
"""

from __future__ import annotations

import argparse
import os
import stat
import sys
from typing import TYPE_CHECKING, NoReturn

from .errors import (
    LocalFeaturesError,
    ModelTooLarge,
    ParseError,
    UnknownElement,
)

# Each command imports the layers it runs, so that `lfc enumerate` loads no
# parser, resolver or emitter, and only `lfc emit` loads the emitter.
if TYPE_CHECKING:
    from .resolver import Diagnostic, ResolvedProduct
    from .spldef import SplDefinition

USAGE_ERROR = 2
CLOSED_PIPE = 141  # what a shell reports for a process killed by SIGPIPE


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = args.handler(args)
        sys.stdout.flush()
        return status
    except _Exit as exc:
        return exc.status
    except BrokenPipeError:
        # The reader went away (as in `lfc enumerate ... | head -1`). Point
        # stdout at devnull so the interpreter's final flush fails silently.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return CLOSED_PIPE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lfc",
        description="Check, explain, and derive products of a product line "
                    "with element-local feature bindings.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--spl", required=True, metavar="DEFINITION",
                       help="product line definition file")
        p.add_argument("--format", choices=("text", "json"), default="text",
                       help="diagnostic output format (default: text)")

    p_check = sub.add_parser("check", help="resolve and report diagnostics")
    p_check.add_argument("spec", help="product specification file")
    common(p_check)
    p_check.set_defaults(handler=cmd_check)

    p_emit = sub.add_parser("emit", help="write the derivation configuration")
    p_emit.add_argument("spec", help="product specification file")
    common(p_emit)
    p_emit.add_argument("--out", metavar="PATH",
                        help="output path (default: <product>.derivation.json)")
    p_emit.set_defaults(handler=cmd_emit)

    p_explain = sub.add_parser(
        "explain", help="show where an element's effective features come from")
    p_explain.add_argument("spec", help="product specification file")
    p_explain.add_argument("element", help="qualified element name, e.g. data.Hotel")
    common(p_explain)
    p_explain.set_defaults(handler=cmd_explain)

    p_features = sub.add_parser(
        "features", help="list every feature the product includes")
    p_features.add_argument("spec", help="product specification file")
    common(p_features)
    p_features.set_defaults(handler=cmd_features)

    p_enum = sub.add_parser(
        "enumerate", help="list all valid configurations of a feature model")
    p_enum.add_argument("--spl", required=True, metavar="DEFINITION",
                        help="product line definition file")
    p_enum.add_argument("--model", required=True,
                        help="feature model name (the global model or a local one)")
    p_enum.add_argument("--max", type=_positive_int, default=20, metavar="N",
                        help="refuse models with more than N features (default: 20)")
    p_enum.set_defaults(handler=cmd_enumerate)

    return parser


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, not {value}")
    return value


# ---------------------------------------------------------------------------
# Diagnostic printing
# ---------------------------------------------------------------------------

def _color_enabled() -> bool:
    return sys.stderr.isatty() and not os.environ.get("NO_COLOR")

_SEVERITY_COLOR = {"error": "\x1b[31m", "warning": "\x1b[33m"}


def print_diagnostics(diagnostics: tuple[Diagnostic, ...], fmt: str) -> None:
    if fmt == "json":
        import json

        rows = [{
            "file": d.source,
            "line": d.span.line if d.span else 1,
            "column": d.span.column if d.span else 1,
            "severity": d.severity,
            "code": d.code,
            "message": d.message,
        } for d in diagnostics]
        if rows:
            print(json.dumps(rows, indent=2, ensure_ascii=False), file=sys.stderr)
        return
    color = _color_enabled()
    for d in diagnostics:
        line = d.span.line if d.span else 1
        column = d.span.column if d.span else 1
        severity = d.severity
        if color:
            severity = f"{_SEVERITY_COLOR[d.severity]}{d.severity}\x1b[0m"
        print(f"{d.source}:{line}:{column}: {severity}[{d.code}]: {d.message}",
              file=sys.stderr)


class _Exit(Exception):
    """Ends a command whose failure is already printed; main returns its status."""

    def __init__(self, status: int):
        self.status = status


def _usage_error(message: object) -> NoReturn:
    print(f"error: {message}", file=sys.stderr)
    raise _Exit(USAGE_ERROR)


def _report_error(exc: LocalFeaturesError, path: str, fmt: str) -> NoReturn:
    """Print the error a parser raised as one diagnostic at the span it
    blames, and exit 1: a syntax error, or else one in the definition."""
    from .resolver import Diagnostic

    if isinstance(exc, ParseError):
        code, message = "syntax", exc.detail()
    else:
        code, message = "definition", str(exc)
    print_diagnostics((Diagnostic("error", code, message, exc.span, path),), fmt)
    raise _Exit(1)


def _load(args) -> ResolvedProduct:
    """Parse and resolve both inputs and print the diagnostics."""
    spec_text, spl_text = _read_inputs(args.spec, args.spl)
    from .parser import parse
    from .resolver import resolve

    fmt = args.format
    try:
        spec = parse(spec_text, filename=args.spec)
    except LocalFeaturesError as exc:
        _report_error(exc, args.spec, fmt)
    resolved = resolve(spec, _load_definition(spl_text, args.spl, fmt))
    print_diagnostics(resolved.diagnostics, fmt)
    return resolved


def _load_definition(text: str, path: str, fmt: str) -> SplDefinition:
    from .spldef import parse_spl_definition

    try:
        return parse_spl_definition(text, filename=path)
    except LocalFeaturesError as exc:
        _report_error(exc, path, fmt)


def _read_inputs(*paths: str) -> list[str]:
    """The text of each UTF-8 file, less one leading byte-order mark. A file
    that cannot be read is an OSError, which main reports; one that cannot be
    decoded is a usage error, at the byte's offset in the file."""
    texts = []
    for path in paths:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                texts.append(handle.read().removeprefix("\ufeff"))
        except UnicodeDecodeError as exc:
            _usage_error(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})")
    return texts


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_check(args) -> int:
    resolved = _load(args)
    errors = len(resolved.errors)
    warnings = len(resolved.warnings)
    print(f"{errors} errors, {warnings} warnings")
    return 1 if errors else 0


def cmd_emit(args) -> int:
    resolved = _load(args)
    if resolved.errors:
        return 1
    from .emitter import emit

    text = emit(resolved)
    out = args.out or f"{resolved.spec.product.name}.derivation.json"
    try:
        _write_atomically(out, text)
    except OSError as exc:
        # name the requested path, not the temporary file written beside it
        _usage_error(f"cannot write {out}: {exc.strerror or exc}")
    print(out)
    return 0


def _write_atomically(path: str, text: str) -> None:
    """Replace path with text through a temporary file beside it, which
    gets the mode open() would leave: an existing file's permission bits,
    or those umask allows for a new one (mkstemp creates it 0600)."""
    import tempfile

    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".emit-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            os.chmod(tmp, mode)
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def cmd_explain(args) -> int:
    resolved = _load(args)
    from .resolver import explain

    try:
        rows = explain(resolved, args.element)
    except UnknownElement as exc:
        _usage_error(exc)
    table = []
    for row in rows:
        origin = f"{row.origin} ({row.detail})" if row.detail else row.origin
        where = "-"
        if row.span is not None:
            where = f"{row.source}:{row.span.line}:{row.span.column}"
        table.append((row.feature, origin, where))
    width_name = max(len("FEATURE"), *(len(t[0]) for t in table)) if table else 7
    width_origin = max(len("ORIGIN"), *(len(t[1]) for t in table)) if table else 6
    print(f"{'FEATURE':<{width_name}}  {'ORIGIN':<{width_origin}}  SOURCE")
    for feature, origin, where in table:
        print(f"{feature:<{width_name}}  {origin:<{width_origin}}  {where}")
    return 1 if resolved.errors else 0


def cmd_features(args) -> int:
    resolved = _load(args)
    if resolved.errors:
        return 1
    for name in resolved.included:
        print(name)
    return 0


def cmd_enumerate(args) -> int:
    definition = _load_definition(_read_inputs(args.spl)[0], args.spl, "text")
    functional = definition.functional
    if args.model == functional.global_model.name:
        model = functional.global_model
    elif args.model in functional.locals:
        model = functional.locals[args.model]
    else:
        known = ", ".join([functional.global_model.name, *functional.locals])
        _usage_error(f"no feature model named {args.model!r} (known: {known})")
    from .features import enumerate_configurations

    try:
        configurations = enumerate_configurations(model, args.max)
    except ModelTooLarge as exc:
        _usage_error(exc)
    print(len(configurations))
    for configuration in configurations:
        print(", ".join(sorted(configuration)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
