"""fsmkit benchmark: three workloads through the real command line.

    python3 perfbench/run.py --workload traffic-bench --seed 1 --seconds 30 --trace 0

Run from anywhere; the program is taken from `src/` beside this directory.
With `--trace 0` every command runs as its own `python -m fsmkit.cli`
process and the end-to-end metrics are reported; with `--trace 1` the same
commands run in this process, plain and with every layer wrapped (see
tracing.py), and the per-layer metrics are reported.  Every command's
exit code and outputs are checked.  The last line of standard output is the
result as JSON; the full result, with context, is also written to
`perfbench/out/<workload>.trace<0|1>.json`.  See NOTES.md for the workloads.
"""
from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import inputs
from tracing import Tracer, installed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
FSM = ROOT / "designs" / "itlc.fsm"
GOLDEN = ROOT / "golden"
CALIBRATE = Path(__file__).parent / "calibrate.py"
REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())

SETUP_REPEATS = 5  # at least
# Wall seconds of one calibration run on the reference host, a 2-vCPU Xeon
# virtual machine; set-up time is reported in these seconds (see measure).
CAL_REFERENCE_S = 0.3
ARRIVAL = "0.1"


@dataclass(frozen=True)
class Size:
    bench_seeds: int
    bench_horizon: int
    stim_horizon: int
    designs: int  # every INJECT_EVERY-th design has an overlapping guard
    design_inputs: int
    design_states: int
    design_leaves: int


FULL = Size(bench_seeds=8, bench_horizon=8000, stim_horizon=50_000, designs=3,
            design_inputs=10, design_states=16, design_leaves=6)
TINY = Size(bench_seeds=2, bench_horizon=300, stim_horizon=2000, designs=3,
            design_inputs=6, design_states=5, design_leaves=4)
INJECT_EVERY = 3


def sha(data: bytes | str) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


EMPTY = sha(b"")


@dataclass
class Cmd:
    """One fsmkit invocation and what it must produce."""
    argv: list[str]
    # "stdout", "stderr" or a file path -> sha256 of its bytes (None: no file)
    expect: dict[str, str | None]
    code: int = 0

    def is_verilog_emit(self) -> bool:
        return self.argv[0] == "emit" and "ucf" not in self.argv


@dataclass
class Workload:
    setup: list[Cmd]  # the workload's own commands at minimum size
    round: list[Cmd]  # one round of measured work
    units: int        # work units in one round
    unit: str         # what a unit is: "ticks" or "designs"
    setup_every: int = 1  # round commands between set-up samples


def _pinned(argv: list[str]) -> str:
    """Reference digest recorded for a command whose input is fixed."""
    key = " ".join(a if not a.startswith(str(ROOT)) else Path(a).relative_to(ROOT).as_posix()
                   for a in argv)
    return REFERENCE[key]


def _bench(seeds: int, horizon: int) -> Cmd:
    argv = ["bench", str(FSM), "--arrival", ARRIVAL, "--seeds", str(seeds),
            "--horizon", str(horizon)]
    return Cmd(argv, {"stdout": _pinned(argv), "stderr": EMPTY})


def _simulate(stim: Path, work: Path, tag: str) -> Cmd:
    vcd, log = work / f"{tag}.vcd", work / f"{tag}.log"
    log_text, vcd_text = inputs.itlc_reference(stim.read_text())
    return Cmd(["simulate", str(FSM), str(stim), "--vcd", str(vcd), "--log", str(log)],
               {"stdout": EMPTY, "stderr": EMPTY, str(vcd): sha(vcd_text),
                str(log): sha(log_text)})


def _design_cmds(fsm: Path, pins: Path, out: Path, expected: dict[str, str],
                 findings: str | None) -> list[Cmd]:
    """check, emit binary, emit onehot and emit ucf --pins for one design.
    With `findings`, the design is invalid: every command exits 1."""
    code = 1 if findings is not None else 0
    cmds = [Cmd(["check", str(fsm)], {"stdout": sha(findings or ""), "stderr": EMPTY}, code)]
    for fmt, extra in (("binary", ["--encoding", "binary"]), ("onehot", ["--encoding", "onehot"]),
                       ("ucf", ["--format", "ucf", "--pins", str(pins)])):
        target = out.with_suffix(f".{fmt}")
        cmds.append(Cmd(
            ["emit", str(fsm), *extra, "-o", str(target)],
            {"stdout": EMPTY, "stderr": sha(findings or ""),
             str(target): None if findings is not None else expected[fmt]},
            code))
    return cmds


def flagship(work: Path) -> list[Cmd]:
    """The bundled design through every subcommand, checked against golden/."""
    sim = _simulate(ROOT / "designs" / "paper_fig7_10.stim", work, "flagship")
    sim.expect[str(work / "flagship.vcd")] = sha((GOLDEN / "itlc_scenario.vcd").read_bytes())
    onehot = ["emit", str(FSM), "--encoding", "onehot"]
    return [
        Cmd(["check", str(FSM)], {"stdout": EMPTY, "stderr": EMPTY}),
        Cmd(["emit", str(FSM)], {"stdout": sha((GOLDEN / "itlc.v").read_bytes()), "stderr": EMPTY}),
        Cmd(onehot, {"stdout": _pinned(onehot), "stderr": EMPTY}),
        Cmd(["emit", str(FSM), "--format", "ucf"],
            {"stdout": sha((GOLDEN / "itlc.ucf").read_bytes()), "stderr": EMPTY}),
        sim,
        _bench(2, 100),
    ]


def traffic_bench(work: Path, seed: int, size: Size) -> Workload:
    # `fsmkit bench` always runs seeds 0..S-1, so the workload seed is unused.
    return Workload([_bench(1, 1)], [_bench(size.bench_seeds, size.bench_horizon)],
                    size.bench_seeds * size.bench_horizon, "ticks")


def vcd_waveform(work: Path, seed: int, size: Size) -> Workload:
    setup, stim = work / "setup.stim", work / "run.stim"
    setup.write_text("horizon 1\n0 c=1\n")
    stim.write_text(inputs.make_stimulus(seed, size.stim_horizon))
    return Workload([_simulate(setup, work, "setup")], [_simulate(stim, work, "run")],
                    size.stim_horizon, "ticks")


def design_check(work: Path, seed: int, size: Size) -> Workload:
    pins = work / "itlc.pins"
    pins.write_text(inputs.flagship_pins(seed))
    itlc = {"binary": sha((GOLDEN / "itlc.v").read_bytes()),
            "onehot": _pinned(["emit", str(FSM), "--encoding", "onehot"]),
            "ucf": sha(inputs.ucf_for(pins.read_text()))}
    setup = _design_cmds(FSM, pins, work / "itlc", itlc, None)
    round_: list[Cmd] = []
    for i in range(size.designs):
        d = inputs.make_design(seed, i, size.design_inputs, size.design_states,
                               size.design_leaves, inject=i % INJECT_EVERY == INJECT_EVERY - 1)
        fsm, pin_file = work / f"{d.name}.fsm", work / f"{d.name}.pins"
        fsm.write_text(d.fsm_text())
        pin_file.write_text(d.pins_text())
        expected = {"binary": sha(d.verilog(onehot=False)), "onehot": sha(d.verilog(onehot=True)),
                    "ucf": sha(d.ucf())}
        round_ += _design_cmds(fsm, pin_file, work / d.name, expected,
                               d.findings() if d.injected else None)
    return Workload(setup, round_, size.designs, "designs", setup_every=4)


WORKLOADS = {"traffic-bench": traffic_bench, "vcd-waveform": vcd_waveform,
             "design-check": design_check}


@dataclass
class Runner:
    """Runs commands, checks every output, and counts what failed."""
    work: Path
    tamper: Callable[[Cmd], None] | None = None  # called before each check
    attempted: int = 0
    failed: int = 0
    peak_rss_kb: int = 0
    failures: list[str] = field(default_factory=list)

    def _clear(self, cmd: Cmd) -> None:
        for name in cmd.expect:
            if name not in ("stdout", "stderr"):
                Path(name).unlink(missing_ok=True)

    def run(self, cmd: Cmd) -> float:
        """Run as a child process; returns its wall seconds."""
        self._clear(cmd)
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        env = dict(os.environ, PYTHONPATH=str(SRC))
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "fsmkit.cli", *cmd.argv],
                                    stdout=out, stderr=err, env=env, cwd=ROOT)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        self._check(cmd, proc.returncode, out_path.read_bytes(), err_path.read_bytes())
        return wall

    def calibrate(self) -> float:
        """Wall seconds of one run of calibrate.py as a child process."""
        t0 = perf_counter()
        subprocess.run([sys.executable, str(CALIBRATE)], stdout=subprocess.DEVNULL, check=True)
        return perf_counter() - t0

    def run_inprocess(self, cmd: Cmd, main) -> float:
        """Run through `main(argv)` in this process; returns wall seconds."""
        self._clear(cmd)
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(cmd.argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a crash is a failed command, not a failed run
                code = f"raised {exc!r}"
        wall = perf_counter() - t0
        self._check(cmd, code, out.getvalue().encode(), err.getvalue().encode())
        return wall

    def _check(self, cmd: Cmd, code: int, stdout: bytes, stderr: bytes) -> None:
        if self.tamper is not None:
            self.tamper(cmd)
        self.attempted += 1
        problems = [] if code == cmd.code else [f"exit {code}, expected {cmd.code}"]
        for name, want in cmd.expect.items():
            if name in ("stdout", "stderr"):
                got = sha(stdout if name == "stdout" else stderr)
            else:
                path = Path(name)
                got = sha(path.read_bytes()) if path.exists() else None
            if got != want:
                problems.append(f"{Path(name).name}: sha256 {got}, expected {want}")
        if problems:
            self.failed += 1
            line = f"FAIL fsmkit {' '.join(cmd.argv)}: " + "; ".join(problems)
            self.failures.append(line)
            print(line, file=sys.stderr)


def measure(wl: Workload, fixed: list[Cmd], seconds: float, runner: Runner) -> dict:
    """End-to-end metrics from child processes.

    A calibration run goes before the first command and after every
    command, so the two sample the same stretch of host time; throughput is
    then expressed per mean calibration wall time.  Set-up is sampled every
    `setup_every` round commands, so its samples span the run; each sample
    is divided by the mean of the calibration runs on either side of it and
    reported in CAL_REFERENCE_S seconds: the median set-up time on a host
    where one calibration run takes CAL_REFERENCE_S."""
    for cmd in fixed:  # also fills the bytecode cache before anything is timed
        runner.run(cmd)
    setup: list[float] = []
    setup_cal: list[float] = []  # mean of the calibration runs on either side
    walls: list[float] = []
    cal = [runner.calibrate()]
    rounds = 0
    deadline = perf_counter() + seconds
    while len(setup) < SETUP_REPEATS or perf_counter() < deadline:
        for i, cmd in enumerate(wl.round, 1):
            walls.append(runner.run(cmd))
            cal.append(runner.calibrate())
            if i % wl.setup_every == 0:
                setup.append(sum(runner.run(c) for c in wl.setup))
                cal.append(runner.calibrate())
                setup_cal.append((cal[-2] + cal[-1]) / 2)
        rounds += 1
    work_per_s = wl.units * rounds / sum(walls)
    setup_ratio = statistics.median(s / c for s, c in zip(setup, setup_cal))
    return {
        "work_per_cal": (work_per_s * statistics.mean(cal), "1/cal"),
        "setup_s": (setup_ratio * CAL_REFERENCE_S, "s"),
        "peak_rss_mb": (runner.peak_rss_kb / 1024, "MB"),
        "_detail": {"work_per_s": work_per_s, "rounds": rounds, "setup_walls": setup,
                    "setup_calibration_walls": setup_cal,
                    "command_walls": walls, "calibration_walls": cal},
    }


PER_LAYER_UNITS = {"self_s": "s", "self_us": "us", "calls": "count"}
TRACED = {  # layer -> per-layer metrics reported for it
    "dsl.parse": ("self_s", "calls"),
    "model.validate": ("self_s", "calls"),
    "model.step_spec": ("self_us", "calls"),
    "model.moore_output": ("self_us", "calls"),
    "timer.timer_outputs": ("self_us",),
    "timer.timer_commit": ("self_us",),
    "env.bernoulli": ("self_us", "calls"),
    "env.run_env": ("self_s",),
    "sim.parse_stimulus": ("self_s",),
    "sim.simulate": ("self_s",),
    "sim.write_vcd": ("self_s",),
    "emit.emit_verilog": ("self_s",),
    "emit.emit_ucf": ("self_s",),
    "cli": ("self_s",),
}


def trace(wl: Workload, fixed: list[Cmd], seconds: float, runner: Runner) -> dict:
    """Per-layer metrics for one pass over the flagship commands plus one
    round, run in this process; the flagship pass makes every layer show on
    every workload.  Each pass runs plain and traced, in alternating order,
    and passes repeat for `seconds`; values are means per pass, and the
    tracing cost is the median over passes."""
    sys.path.insert(0, str(SRC))
    from fsmkit import cli

    cmds = fixed + wl.round
    tracer = Tracer()
    passes: list[tuple[float, float]] = []  # (traced, plain) wall seconds
    emits = emit_validations = 0

    def run_traced() -> float:
        nonlocal emits, emit_validations
        wall = 0.0
        with installed(tracer):
            main = tracer.wrap("cli", cli.main)
            for c in cmds:
                before = tracer.calls["model.validate"]
                wall += runner.run_inprocess(c, main)
                tracer.settle()
                if c.is_verilog_emit() and c.code == 0:
                    emits += 1
                    emit_validations += tracer.calls["model.validate"] - before
        return wall

    for cmd in fixed:  # warm up imports and caches before anything is timed
        runner.run_inprocess(cmd, cli.main)
    deadline = perf_counter() + seconds
    while not passes or perf_counter() < deadline:
        if len(passes) % 2:  # alternate the order, so neither side runs warmer
            traced = run_traced()
            plain = sum(runner.run_inprocess(c, cli.main) for c in cmds)
        else:
            plain = sum(runner.run_inprocess(c, cli.main) for c in cmds)
            traced = run_traced()
        passes.append((traced, plain))
    n = len(passes)
    metrics = {}
    for layer, kinds in TRACED.items():
        calls = tracer.calls[layer]
        for kind in kinds:
            value = {"calls": calls / n, "self_s": tracer.self_s[layer] / n,
                     "self_us": 1e6 * tracer.self_s[layer] / calls if calls else 0.0}[kind]
            metrics[f"{layer}.{kind}"] = (value, PER_LAYER_UNITS[kind])
    metrics["model.validate.calls_per_verilog_emit"] = (emit_validations / emits, "count")
    metrics["env.trace_records_discarded"] = (tracer.records_discarded / n, "count")
    # Traced over plain wall time is always positive; their difference, which
    # can come out below 0 where tracing costs little, is only printed.
    metrics["trace.wall_ratio"] = (statistics.median(t / p for t, p in passes), "ratio")
    metrics["_detail"] = {
        "overhead_s": statistics.median(t - p for t, p in passes),
        "passes": passes,
        "layers": {k: {"calls": tracer.calls[k], "total_s": tracer.total[k],
                       "self_s": tracer.self_s[k]} for k in sorted(tracer.calls)}}
    return metrics


def context() -> dict:
    """Facts reported beside the metrics and never gated."""
    sources = sorted((SRC / "fsmkit").glob("*.py"))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(path.read_bytes())
    return {
        "src_fsmkit_lines": sum(len(p.read_text().splitlines()) for p in sources),
        "src_fsmkit_sha256": digest.hexdigest(),
        "commit": _commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).exists():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.exists() else ():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def run(workload: str, seed: int, seconds: float, traced: bool, size: Size = FULL,
        tamper=None) -> dict:
    """Run one workload; returns the result line's object inside a report
    that adds the context, raw timings or layer totals, and any failures."""
    work = OUT / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        wl = WORKLOADS[workload](work, seed, size)
        runner = Runner(work, tamper)
        metrics = (trace if traced else measure)(wl, flagship(work), seconds, runner)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    detail = metrics.pop("_detail")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(traced),
            "unit": wl.unit, "units_per_round": wl.units,
            "error_rate": runner.failed / runner.attempted, "context": context(),
            "result": result, "detail": detail, "failures": runner.failures}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    missing = [p for p in (SRC / "fsmkit" / "cli.py", FSM, GOLDEN / "itlc.v") if not p.exists()]
    if missing:
        print(f"benchmark: fsmkit sources not found: {', '.join(map(str, missing))}",
              file=sys.stderr)
        return 2
    report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}.trace{args.trace}.json").write_text(json.dumps(report, indent=2) + "\n")
    result = report["result"]
    print(f"context {json.dumps(report['context'])}")
    if not args.trace:
        alias = {"ticks": "ticks_per_s", "designs": "designs_per_s"}[report["unit"]]
        print(f"{alias} = {report['detail']['work_per_s']:.6g} 1/s (not gated: drifts with the host)")
    else:
        print(f"trace.overhead_s = {report['detail']['overhead_s']:.6g} s "
              "(traced minus plain wall per pass, median; not gated)")
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"error_rate = {report['error_rate']:.6g} "
          f"({result['failed']}/{result['attempted']} commands)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
