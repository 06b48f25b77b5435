"""Self-test of the benchmark harness at tiny sizes.

    python3 perfbench/selftest.py

Checks the reference model against golden/, runs every workload plain and
traced on two workload seeds, checks that the metrics reported are the ones
BENCHMARK.json declares, and shows that flipping one byte of a VCD the
program wrote raises error_rate.  Prints one PASS or FAIL line per check and
exits 0 only when every check passes.
"""
from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stderr
from pathlib import Path

import inputs
import run as bench


def main() -> int:
    failures: list[str] = []

    def expect(ok: bool, what: str) -> None:
        print(("PASS " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    stim = (bench.ROOT / "designs" / "paper_fig7_10.stim").read_text()
    _log, vcd = inputs.itlc_reference(stim)
    expect(vcd == (bench.GOLDEN / "itlc_scenario.vcd").read_text(),
           "reference model VCD equals golden/itlc_scenario.vcd")
    expect(inputs.make_stimulus(1, 2000) != inputs.make_stimulus(2, 2000)
           and inputs.make_design(1, 0, 6, 5, 4, False) != inputs.make_design(2, 0, 6, 5, 4, False),
           "workload seeds 1 and 2 generate different stimuli and designs")

    declared = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    wanted = {0: [m["name"] for m in declared["end_to_end"]],
              1: [m["name"] for m in declared["per_layer"]]}
    expect(sorted(w["name"] for w in declared["workloads"]) == sorted(bench.WORKLOADS),
           "BENCHMARK.json names every workload")
    for workload in bench.WORKLOADS:
        for seed in (1, 2):
            for traced in (0, 1):
                report = bench.run(workload, seed, 0, bool(traced), size=bench.TINY)
                result = report["result"]
                expect(result["correct"] and report["error_rate"] == 0,
                       f"{workload} seed {seed} trace {traced}: error_rate 0 "
                       f"over {result['attempted']} commands")
                expect(sorted(result["metrics"]) == sorted(wanted[traced]),
                       f"{workload} seed {seed} trace {traced}: reports the declared metrics")

    def flip_vcd_byte(cmd: bench.Cmd) -> None:
        for name in cmd.expect:
            path = Path(name)
            if path.suffix == ".vcd" and path.exists():
                data = bytearray(path.read_bytes())
                data[len(data) // 2] ^= 0x01
                path.write_bytes(bytes(data))

    with redirect_stderr(io.StringIO()):  # the failures it reports are expected
        report = bench.run("vcd-waveform", 1, 0, False, size=bench.TINY, tamper=flip_vcd_byte)
    expect(not report["result"]["correct"] and report["error_rate"] > 0,
           f"one flipped VCD byte raises error_rate to {report['error_rate']:.3g}")

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
