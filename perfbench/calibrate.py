"""A fixed, interpreter-bound Python job that gauges the host's speed now.

`run.py` starts it as a child process between fsmkit commands. The host
this benchmark runs on changes speed by tens of percent over seconds, as
other tenants come and go. Dividing a command's wall time by the wall time
of the calibration runs on either side of it cancels most of that drift.
The job imports what `fsmkit.cli` imports from the standard library and
then does the kind of work fsmkit does: frozen dataclasses, dict lookups,
regular expressions, a list of records kept to the end, and one large
string built from it.  It does not import fsmkit, so
no change to fsmkit changes it.
"""
from __future__ import annotations

import argparse  # noqa: F401  (start-up cost fsmkit also pays)
import re
from dataclasses import dataclass

ROUNDS = 100_000


@dataclass(frozen=True)
class Item:
    key: str
    value: int


def work(rounds: int) -> int:
    key_re = re.compile(r"k(\d+)")
    table: dict[str, int] = {}
    kept: list[Item] = []  # held to the end, as a trace is
    total = 0
    for i in range(rounds):
        item = Item(f"k{i & 255}", i)
        table[item.key] = table.get(item.key, 0) + item.value
        kept.append(item)
        if i % 4 == 0:
            total += int(key_re.fullmatch(item.key).group(1))
    text = "\n".join(f"{item.key} {item.value}" for item in kept)
    return total + sum(table.values()) + len(text)


if __name__ == "__main__":
    print(work(ROUNDS))
