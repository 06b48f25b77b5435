"""Command-line front end: check, simulate, emit, bench.

Exit codes: 0 success, 1 validation/check failure, 2 usage or parse error
(or a stdout that cannot be written).
Every subcommand is deterministic given its arguments and input files, and
writes only to the paths named in its flags (or stdout).  Each one imports
the modules it runs when it runs, so `check` never loads `sim`, `env` or
`emit`.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

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
        return Path(path).read_text("utf-8")
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
        Path(path).write_text(text, "utf-8")
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
    Its per-tick list is freed on return, before the VCD is rendered."""
    bodies = {}  # a key's line, less its tick number
    for k, r in records.items():
        lights = "".join(str(r.moore.get(name, 0)) for name in LIGHT_ORDER)
        bodies[k] = (f" {r.state} c={r.inputs['c']} ts={r.inputs['ts']} "
                     f"tl={r.inputs['tl']} st={r.st} {lights}\n")
    log = [""] * (2 * len(keys))
    log[::2] = map(str, range(len(keys)))
    log[1::2] = map(bodies.__getitem__, keys)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except _CliError as exc:
        print(exc.message, file=sys.stderr)
        return exc.code
    except OSError as exc:
        # Writing stdout failed (a closed reader, a full device); every other
        # OSError is already a _CliError.  Point stdout at devnull so that the
        # flush at interpreter shutdown cannot fail a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        why = "standard output was closed" if isinstance(exc, BrokenPipeError) else exc.strerror
        print(f"cannot write output: {why}", file=sys.stderr)
        return 2
    except MemoryError:
        print("out of memory: the input asks for more than this process can hold", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
