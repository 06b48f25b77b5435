"""Command-line front end: check, simulate, emit, bench.

Exit codes: 0 success, 1 validation/check failure, 2 usage or parse error
(or a stdout that cannot be written).
Every subcommand is deterministic given its arguments and input files, and
writes only to the paths named in its flags (or stdout).  Each one imports
the modules it runs when it runs, so `check` never loads `sim`, `env` or
`emit`.  `main(argv)` returns the exit code; `run()`, the process entry,
flushes and then ends the process at once, skipping interpreter teardown.
"""
from __future__ import annotations

import argparse
import os
import sys

from . import dsl
from .model import Finding, FsmSpec, validate
from .timer import DEFAULT_LONG_TICKS, DEFAULT_SHORT_TICKS, TimerConfig

LIGHT_ORDER = ("mg", "my", "mr", "sg", "sy", "sr")


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        self.code = code
        self.message = message
        super().__init__(message)


def _read_text(path: str, what: str) -> str:
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _CliError(2, f"cannot read {what} '{path}': {exc}") from exc


def _write_text(path: str | None, text: str, what: str) -> None:
    """Write `text` to `path`, or to stdout when no path is given."""
    if not path:
        out = getattr(sys.stdout, "buffer", None)
        if out is None:  # an in-memory stdout, which has no byte layer
            sys.stdout.write(text)
            return
        # Unbuffered, the byte layer may take part of a write and the text layer
        # would drop the rest unraised: loop, so a closed pipe raises on the next.
        sys.stdout.flush()
        data = memoryview(text.encode(sys.stdout.encoding, sys.stdout.errors))
        while data:
            data = data[out.write(data):]
        return
    try:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
    except OSError as exc:
        raise _CliError(2, f"cannot write {what} '{path}': {exc}") from exc


def _load_spec(path: str) -> FsmSpec:
    text = _read_text(path, "machine description")
    try:
        return dsl.parse(text)
    except dsl.ParseFailure as exc:
        detail = "\n".join(f"{path}:{e}" for e in exc.errors)
        raise _CliError(2, detail) from exc


def _timer_config(args: argparse.Namespace) -> TimerConfig:
    try:
        return TimerConfig(short_ticks=args.short, long_ticks=args.long)
    except ValueError as exc:
        raise _CliError(2, str(exc)) from exc


def _findings_text(findings: tuple[Finding, ...]) -> str:
    return "".join(f"{f.kind} {f.state or '-'} {f.message}\n" for f in findings)


def _require_valid(findings: tuple[Finding, ...]) -> None:
    """Exit 1 with every finding on stderr, in `check`'s format."""
    if findings:
        raise _CliError(1, _findings_text(findings).rstrip("\n"))


def cmd_check(args: argparse.Namespace) -> int:
    findings = validate(_load_spec(args.fsm))
    _write_text(None, _findings_text(findings), "findings")
    return 1 if findings else 0


def cmd_simulate(args: argparse.Namespace) -> int:
    from . import sim

    spec = _load_spec(args.fsm)
    _require_valid(validate(spec))
    cfg = _timer_config(args)
    try:
        stim = sim.parse_stimulus(_read_text(args.stim, "stimulus"))
        loop = sim._ClosedLoop(spec, cfg)
        keys = loop.walk(stim.runs)  # the table cell of every tick
    except sim.SimError as exc:
        raise _CliError(2, str(exc)) from exc
    records = {k: cell[1] for k, cell in enumerate(loop.cells) if cell}
    _write_text(args.log, _log_text(records, keys), "log")
    if args.vcd:
        _write_text(args.vcd, sim.render_vcd(spec, records, keys), "VCD")
    return 0


def _log_text(records: dict, keys: list[int]) -> str:
    """`simulate`'s log: tick t is `records[keys[t]]`, formatted once per key.
    No string is made per tick number: below tick 1000 it is one of the
    shared "0".."999"; from 1000 on, its 1000-tick block's shared prefix
    `str(t // 1000)`, then one of the shared "000".."999".  Its per-tick list
    is freed on return, before the VCD is rendered."""
    bodies = {}  # a key's line, less its tick number
    for k, r in records.items():
        lights = "".join(str(r.moore.get(name, 0)) for name in LIGHT_ORDER)
        bodies[k] = (f" {r.state} c={r.inputs['c']} ts={r.inputs['ts']} "
                     f"tl={r.inputs['tl']} st={r.st} {lights}\n")
    n = len(keys)
    log = [""] * (3 * n)  # per tick: block prefix, last digits, body
    digits = list(map(str, range(min(n, 1000))))  # "0".."999", only those used
    log[1:3000:3] = digits
    if n > 1000:
        padded = [d.zfill(3) for d in digits]  # "000".."999"
        for b in range(1000, n, 1000):
            m = min(n - b, 1000)
            log[3 * b:3 * (b + m):3] = [str(b // 1000)] * m
            log[3 * b + 1:3 * (b + m):3] = padded[:m]
    log[2::3] = map(bodies.__getitem__, keys)
    return "".join(log)


def cmd_emit(args: argparse.Namespace) -> int:
    from . import emit as emit_mod

    spec = _load_spec(args.fsm)
    try:
        if args.format == "verilog":
            text = emit_mod.emit_verilog(spec, args.encoding)  # validates the spec first
        else:
            _require_valid(validate(spec))
            if args.pins:
                pins = emit_mod.parse_pin_file(_read_text(args.pins, "pin file"))
            else:
                from .itlc import DEFAULT_PIN_ROWS as pins
            text = emit_mod.emit_ucf(spec, pins)
    except emit_mod.InvalidSpecError as exc:
        raise _CliError(1, _findings_text(exc.findings).rstrip("\n")) from exc
    except emit_mod.EmitError as exc:
        raise _CliError(2, str(exc)) from exc
    _write_text(args.output, text, "output")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from . import env as env_mod, sim

    spec = _load_spec(args.fsm)
    _require_valid(validate(spec))
    cfg = _timer_config(args)
    if not 0.0 <= args.arrival <= 1.0:
        raise _CliError(2, f"--arrival must be in [0, 1], got {args.arrival}")
    if args.seeds < 1:
        raise _CliError(2, f"--seeds must be >= 1, got {args.seeds}")
    def runs():  # one seed at a time, so memory stays flat in --seeds
        table = None  # one for every seed: its cells do not depend on the seed
        for seed in range(args.seeds):
            model = env_mod.TrafficModel(
                arrival_prob=args.arrival, seed=seed, horizon=args.horizon,
                service_rate=args.service_rate)
            table = table or env_mod.TrafficTable(spec, cfg)
            metrics = env_mod.run_env(spec, cfg, model, table)
            print(metrics.as_record(prefix=f"seed={seed} "))
            yield metrics

    try:
        aggregate = env_mod.Metrics.aggregate(runs())
    except (ValueError, sim.SimError) as exc:
        raise _CliError(2, str(exc)) from exc
    print(aggregate.as_record(prefix="aggregate "))
    return 0


def _add_timer_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--short", type=int, default=DEFAULT_SHORT_TICKS,
                        help="ticks until the short (amber) interval expires")
    parser.add_argument("--long", type=int, default=DEFAULT_LONG_TICKS,
                        help="ticks until the long (green) interval expires")


class _Parser(argparse.ArgumentParser):
    def print_help(self, file=None) -> None:  # argparse passes no file
        # argparse's own printer drops a failed write; `_write_text` raises it.
        _write_text(None, self.format_help(), "help")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fsmkit",
        description="Define, validate, simulate, and emit HDL for clocked "
                    "Moore machines with transition pulses.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a machine description")
    p.add_argument("fsm")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("simulate", help="closed-loop cycle-accurate simulation")
    p.add_argument("fsm")
    p.add_argument("stim")
    _add_timer_flags(p)
    p.add_argument("--vcd", help="write a VCD waveform to this path")
    p.add_argument("--log", help="write the per-tick text log to this path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("emit", help="generate Verilog or UCF text")
    p.add_argument("fsm")
    p.add_argument("--format", choices=("verilog", "ucf"), default="verilog")
    # emit.BINARY and emit.ONE_HOT, spelled out so that parsing loads no emitter.
    p.add_argument("--encoding", choices=("binary", "onehot"), default="binary")
    p.add_argument("--pins", help="pin file (default: the bundled board map)")
    p.add_argument("-o", "--output", help="write to this path instead of stdout")
    p.set_defaults(func=cmd_emit)

    p = sub.add_parser("bench", help="run the stochastic traffic environment")
    p.add_argument("fsm")
    p.add_argument("--arrival", type=float, required=True,
                   help="per-tick per-approach arrival probability")
    p.add_argument("--seeds", type=int, default=1)
    p.add_argument("--horizon", type=int, default=1000)
    p.add_argument("--service-rate", type=int, default=1)
    _add_timer_flags(p)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code.  argparse raises SystemExit
    for `--help` and for usage errors; nothing here ends the process."""
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except _CliError as exc:
        print(exc.message, file=sys.stderr)
        return exc.code
    except OSError as exc:
        # Writing stdout failed; every other OSError is already a _CliError.
        return _output_failed(exc)
    except MemoryError:
        print("out of memory: the input asks for more than this process can hold", file=sys.stderr)
        return 2


def _output_failed(exc: OSError) -> int:
    """Exit 2 with one line for a stdout that cannot be written (a closed
    reader, a full device).  Stdout then points at devnull, so that a later
    flush cannot fail a second time."""
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    why = "standard output was closed" if isinstance(exc, BrokenPipeError) else exc.strerror
    print(f"cannot write output: {why}", file=sys.stderr)
    return 2


def run() -> None:
    """The process entry, for `python -m fsmkit.cli` and the `fsmkit` script.
    After `main`, it flushes stdout and stderr and ends with `os._exit`:
    interpreter teardown (atexit handlers, freeing every module) does nothing
    a command needs, and costs about 11 ms (Python 3.11, 2 vCPUs), more than
    `check` spends parsing and validating a 16-state design."""
    if sys.stdout is None:  # started with fd 1 closed: writes to a read-only fd fail alike
        sys.stdout = open(os.open(os.devnull, os.O_RDONLY), "w")
    try:
        code = main()
    except SystemExit as exc:  # argparse: --help or a usage error
        code = exc.code
    try:
        sys.stdout.flush()
    except OSError as exc:
        code = _output_failed(exc)
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
