"""Command-line front end: check, simulate, emit, bench.

Exit codes: 0 success, 1 validation/check failure (`_Findings`), 2 usage or
parse error, any other refusal (an `FsmError`, as `ConfigError` and `SimError`
are; a bare `ValueError` is a bug, shown as a traceback), or a stdout that
cannot be written.  `_say` writes every line fsmkit itself puts on stderr.
Every subcommand is deterministic given its arguments and input files, and
writes only to the paths named in its flags (or stdout).  Each one imports the
modules it runs when it runs, so `check` never loads `sim`, `env` or `emit`.
Every subcommand and flag is declared once, in `COMMANDS`: `main` matches a
valid argv against it directly, and only `--help` and usage errors build
argparse's parser from it (so only they import argparse), which writes every
help text and every one-line usage error.  `main(argv)` returns the exit code;
`run()`, the process entry, flushes and ends the process, skipping teardown.
"""
from __future__ import annotations

import os
import sys
from collections.abc import Iterable
from types import SimpleNamespace

from . import dsl
from .model import Finding, FsmError, FsmSpec, validate
from .timer import DEFAULT_LONG_TICKS, DEFAULT_SHORT_TICKS, TimerConfig

# A message quotes each character that str.splitlines breaks a line at as its
# repr escape (a newline as \n), so that it stays one line.
_ONE_LINE = str.maketrans({c: repr(c)[1:-1] for c in "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"})


class _Findings(FsmError):
    """A machine's findings, in `check`'s format: the one refusal that exits 1."""


def _read_text(path: str, what: str) -> str:
    try:
        with open(path, encoding="utf-8") as f:
            # Skips a leading byte-order mark; the "utf-8-sig" codec would cost an import.
            return f.read().removeprefix("\ufeff")
    except (OSError, UnicodeDecodeError) as exc:
        raise FsmError(f"cannot read {what} '{path.translate(_ONE_LINE)}': {exc}") from exc


def _write_text(path: str | None, chunks: Iterable[str], what: str) -> None:
    """Write `chunks` in order to `path` (which may be "", unwritable), or to stdout for None."""
    if path is None:
        out = getattr(sys.stdout, "buffer", None)
        if out is None:  # an in-memory stdout, which has no byte layer
            sys.stdout.writelines(chunks)
            return
        # Unbuffered, the byte layer may take part of a write and the text layer
        # would drop the rest unraised: loop, so a closed pipe raises on the next.
        sys.stdout.flush()
        for text in chunks:
            data = memoryview(text.encode(sys.stdout.encoding, sys.stdout.errors))
            while data:
                data = data[out.write(data):]
        return
    try:
        with open(path, "w", encoding="utf-8") as f:
            f.writelines(chunks)
    except OSError as exc:
        raise FsmError(f"cannot write {what} '{path.translate(_ONE_LINE)}': {exc}") from exc


def _load_spec(path: str) -> FsmSpec:
    text = _read_text(path, "machine description")
    try:
        return dsl.parse(text)
    except dsl.ParseFailure as exc:
        detail = "\n".join(f"{path.translate(_ONE_LINE)}:{e}" for e in exc.errors)
        raise FsmError(detail) from exc


def _findings_text(findings: tuple[Finding, ...]) -> str:
    return "".join(f"{f.kind} {f.state or '-'} {f.message}\n" for f in findings)


def _require_valid(findings: tuple[Finding, ...]) -> None:
    if findings:
        raise _Findings(_findings_text(findings).rstrip("\n"))


def cmd_check(args) -> int:
    findings = validate(_load_spec(args.fsm))
    _write_text(None, (_findings_text(findings),), "findings")
    return 1 if findings else 0


def cmd_simulate(args) -> int:
    from . import kernel, sim

    spec = _load_spec(args.fsm)
    _require_valid(validate(spec))
    cfg = TimerConfig(args.short, args.long)
    stim = sim.parse_stimulus(_read_text(args.stim, "stimulus"))
    records, paths = kernel._ClosedLoop(spec, cfg).walk(stim.runs)
    lengths = [n for _, _, n in stim.runs]
    _write_text(args.log, sim.render_log(records, paths, lengths), "log")
    if args.vcd is not None:
        _write_text(args.vcd, (sim.render_vcd(spec, records, paths, lengths),), "VCD")
    return 0


def cmd_emit(args) -> int:
    from . import emit as emit_mod

    spec = _load_spec(args.fsm)
    try:
        if args.format == "verilog":
            text = emit_mod.emit_verilog(spec, args.encoding)  # validates the spec first
        else:
            _require_valid(validate(spec))
            pins = (emit_mod.parse_pin_file(_read_text(args.pins, "pin file"))
                    if args.pins is not None else emit_mod.DEFAULT_PIN_ROWS)
            text = emit_mod.emit_ucf(spec, pins)
    except emit_mod.InvalidSpecError as exc:
        _require_valid(exc.findings)
    _write_text(args.output, (text,), "output")
    return 0


def cmd_bench(args) -> int:
    from . import env as env_mod

    spec = _load_spec(args.fsm)
    _require_valid(validate(spec))
    cfg = TimerConfig(args.short, args.long)
    model = env_mod.TrafficModel(args.arrival, 0, args.horizon, args.service_rate)
    runs = env_mod.run_seeds(spec, cfg, model, args.seeds)  # refuses --seeds < 1 on first read

    def printed():  # each seed's line once its run is in, so memory stays flat in --seeds
        for seed, metrics in enumerate(runs):
            _write_text(None, (metrics.as_record(prefix=f"seed={seed} ") + "\n",), "output")
            yield metrics

    try:
        aggregate = env_mod.Metrics.aggregate(printed())
    finally:
        runs.close()  # kills and reaps its worker processes, on every path
    _write_text(None, (aggregate.as_record(prefix="aggregate ") + "\n",), "output")
    return 0


# Each subcommand once: (handler, help, positionals, flags).  A flag is
# (spellings, dest, type, default, required, help); a tuple type is its choices.
_TIMER_FLAGS = (
    (("--short",), "short", int, DEFAULT_SHORT_TICKS, False,
     "ticks until the short (amber) interval expires"),
    (("--long",), "long", int, DEFAULT_LONG_TICKS, False,
     "ticks until the long (green) interval expires"),
)
COMMANDS = {
    "check": (cmd_check, "validate a machine description", ("fsm",), ()),
    "simulate": (cmd_simulate, "closed-loop cycle-accurate simulation", ("fsm", "stim"), (
        *_TIMER_FLAGS,
        (("--vcd",), "vcd", str, None, False, "write a VCD waveform to this path"),
        (("--log",), "log", str, None, False, "write the per-tick text log to this path"),
    )),
    "emit": (cmd_emit, "generate Verilog or UCF text", ("fsm",), (
        (("--format",), "format", ("verilog", "ucf"), "verilog", False, None),
        # emit.BINARY and emit.ONE_HOT, spelled out so that parsing loads no emitter.
        (("--encoding",), "encoding", ("binary", "onehot"), "binary", False, None),
        (("--pins",), "pins", str, None, False, "pin file (default: the bundled board map)"),
        (("-o", "--output"), "output", str, None, False, "write to this path instead of stdout"),
    )),
    "bench": (cmd_bench, "run the stochastic traffic environment", ("fsm",), (
        (("--arrival",), "arrival", float, None, True,
         "per-tick per-approach arrival probability"),
        (("--seeds",), "seeds", int, 1, False, None),
        (("--horizon",), "horizon", int, 1000, False, None),
        (("--service-rate",), "service_rate", int, 1, False, None),
        *_TIMER_FLAGS,
    )),
}


def _match(argv: list[str]) -> SimpleNamespace | None:
    """The namespace `build_parser().parse_args(argv)` would return, when
    argv is a command name, then exactly its positionals and its flags spelled
    out in full, each followed by a value that does not start with "-",
    converts to the flag's type and is one of its choices, with every
    required flag given.  None for any other argv, argparse's to handle."""
    if not argv or argv[0] not in COMMANDS:
        return None
    func, _, positionals, flags = COMMANDS[argv[0]]
    spelled = {spelling: flag for flag in flags for spelling in flag[0]}
    values = {dest: default for _, dest, _, default, _, _ in flags}
    missing = {dest for _, dest, _, _, required, _ in flags if required}
    given = []
    rest = iter(argv[1:])
    for arg in rest:
        if not arg.startswith("-"):
            given.append(arg)
            continue
        flag, value = spelled.get(arg), next(rest, "-")
        if flag is None or value.startswith("-"):
            return None
        _, dest, kind, _, _, _ = flag
        try:  # `index` raises ValueError for a value that is not a choice
            value = kind[kind.index(value)] if isinstance(kind, tuple) else kind(value)
        except ValueError:
            return None
        values[dest] = value
        missing.discard(dest)
    if missing or len(given) != len(positionals):
        return None
    return SimpleNamespace(command=argv[0], func=func, **dict(zip(positionals, given)), **values)


def build_parser():
    """argparse's parser for `COMMANDS`, which writes the help texts and the
    usage errors; each error is one line, with no usage block before it."""
    import argparse

    class _Parser(argparse.ArgumentParser):  # the subparsers take this class too
        def print_help(self, file=None) -> None:  # argparse passes no file
            # argparse's own printer drops a failed write; `_write_text` raises it.
            _write_text(None, (self.format_help(),), "help")

        def error(self, message: str):  # one line, even for an argument holding "\n"
            self.exit(2, f"{self.prog}: error: {message.translate(_ONE_LINE)}\n")

    parser = _Parser(
        prog="fsmkit",
        description="Define, validate, simulate, and emit HDL for clocked "
                    "Moore machines with transition pulses.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, summary, positionals, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        for dest in positionals:
            p.add_argument(dest)
        for spellings, dest, kind, default, required, text in flags:
            typed = {"choices": kind} if isinstance(kind, tuple) else {"type": kind}
            p.add_argument(*spellings, dest=dest, default=default, required=required,
                           help=text, **typed)
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code.  An argv that `_match`
    refuses goes to argparse, which raises SystemExit for `--help` and for
    usage errors; nothing here ends the process."""
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _match(argv) or build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except FsmError as exc:  # a refusal, from the library or from this module
        _say(str(exc))
        return 1 if isinstance(exc, _Findings) else 2
    except OSError as exc:  # writing stdout failed; any other OSError is an FsmError
        return _output_failed(exc)
    except MemoryError:
        _say("out of memory: the input asks for more than this process can hold")
        return 2


def _say(text: str) -> None:
    """Write `text` and a newline to stderr; a closed or full one loses it, not the exit code."""
    try:
        sys.stderr.write(text + "\n")
        sys.stderr.flush()
    except (OSError, AttributeError):  # sys.stderr is None where fd 2 was closed
        pass


def _output_failed(exc: OSError) -> int:
    """Exit 2 with one line for an unwritable stdout (a closed reader, a full
    device), which then points at devnull, so that a flush cannot fail twice."""
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    why = "standard output was closed" if isinstance(exc, BrokenPipeError) else exc.strerror
    _say(f"cannot write output: {why}")
    return 2


def run() -> None:
    """The process entry, for `python -m fsmkit.cli` and the `fsmkit` script.
    After `main`, it flushes stdout and ends with `os._exit`: teardown (atexit
    handlers, freeing every module) does nothing a command needs, and costs
    about 11 ms (Python 3.11, 2 vCPUs), more than a 16-state `check` takes."""
    if sys.stdout is None:  # started with fd 1 closed: writes to a read-only fd fail alike
        sys.stdout = open(os.open(os.devnull, os.O_RDONLY), "w")
    if sys.stderr is None:  # fd 2 closed: its lines are lost, and no file opened later takes fd 2
        sys.stderr = open(os.devnull, "w")
    try:
        code = main()
    except SystemExit as exc:  # argparse: --help or a usage error
        code = exc.code
    try:
        sys.stdout.flush()
    except OSError as exc:
        code = _output_failed(exc)
    os._exit(code)


if __name__ == "__main__":
    run()
