"""Code generators: synthesizable Verilog-2001 from a machine description,
and UCF pin-constraint text for board bring-up.

Both emitters are pure text functions; tests pin their output byte-for-byte
against golden files.  A pin map is an iterable of (signal, location, kind)
rows, which `emit_ucf` checks against the spec before rendering;
`DEFAULT_PIN_ROWS` is the board's map for the bundled controller.  Generated
HDL uses a synchronous dominant reset and registered state, matching the
simulation kernel, with combinational pulse outputs asserted during the
cycle a transition fires.  The generated text is meant to be fed to a vendor
toolchain by hand; no synthesis is attempted here.
"""
from __future__ import annotations

from collections.abc import Iterable

from .dsl import format_guard
from .model import Finding, FsmError, FsmSpec, validate

BINARY = "binary"
ONE_HOT = "onehot"

# Board mapping for the Spartan-3E demo of the bundled controller: the sensor
# and the two timer-expiry switches drive it; the six lights show on LEDs.
# The start-timer pulse is a controller output and deliberately has no board
# input pin.
DEFAULT_PIN_ROWS: tuple[tuple[str, str, str], ...] = (
    ("c", "N17", "input"),
    ("ts", "H18", "input"),
    ("tl", "L14", "input"),
    ("mr", "F9", "output"),
    ("my", "E9", "output"),
    ("mg", "D11", "output"),
    ("sr", "F11", "output"),
    ("sy", "E11", "output"),
    ("sg", "E12", "output"),
)

# The 123 reserved words of Verilog-2001 (IEEE 1364-2001, Annex B).
_VERILOG_KEYWORDS = frozenset("""
always and assign automatic begin buf bufif0 bufif1 case casex casez cell cmos config
deassign default defparam design disable edge else end endcase endconfig endfunction
endgenerate endmodule endprimitive endspecify endtable endtask event for force forever
fork function generate genvar highz0 highz1 if ifnone incdir include initial inout input
instance integer join large liblist library localparam macromodule medium module nand
negedge nmos nor noshowcancelled not notif0 notif1 or output parameter pmos posedge
primitive pull0 pull1 pulldown pullup pulsestyle_ondetect pulsestyle_onevent rcmos real
realtime reg release repeat rnmos rpmos rtran rtranif0 rtranif1 scalared showcancelled
signed small specify specparam strong0 strong1 supply0 supply1 table task time tran
tranif0 tranif1 tri tri0 tri1 triand trior trireg unsigned use vectored wait wand weak0
weak1 while wire wor xnor xor
""".split())


class EmitError(FsmError):
    """The spec cannot be rendered as HDL; message lists the offenders."""


class InvalidSpecError(EmitError):
    """The spec has validation findings; `findings` holds them."""

    def __init__(self, message: str, findings: tuple[Finding, ...]):
        super().__init__(message)
        self.findings = findings


def parse_pin_file(text: str) -> tuple[tuple[str, str, str], ...]:
    """Pin file: one `<signal> <pin> <input|output>` per line, # comments.
    Returns (signal, location, kind) rows in file order, unchecked."""
    rows: list[tuple[str, str, str]] = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 3:
            raise EmitError(f"pin file line {lineno}: expected '<signal> <pin> <input|output>'")
        rows.append((fields[0], fields[1], fields[2]))
    return tuple(rows)


def emit_ucf(spec: FsmSpec, pins: Iterable[tuple[str, str, str]]) -> str:
    """UCF constraint text, one NET/LOC line per pin in map order.  First
    checks that `pins` is iterable, then, row by row, that each row is a
    tuple or list of three strings (signal, location, kind), its kind, that
    its location is one or more ASCII letters, digits or `_` (so it cannot
    close the quoted LOC value), and that its signal is new; then that every
    signal is a port of the module `emit_verilog` writes (`clk` or a signal
    `spec` declares), then that each kind matches its port's direction;
    `EmitError` names the offenders."""
    try:
        rows = iter(pins)
    except TypeError:
        raise EmitError(
            f"pins must be an iterable of (signal, location, kind) rows, got {pins!r}") from None
    pins = tuple(rows)  # one pass, so an iterator is checked and rendered alike
    seen: set[str] = set()
    for row in pins:
        if (not isinstance(row, (tuple, list)) or len(row) != 3
                or not all(isinstance(field, str) for field in row)):
            raise EmitError(f"pin row must be three strings (signal, location, kind), got {row!r}")
        signal, location, kind = row
        if kind not in ("input", "output"):
            raise EmitError(f"pin '{signal}': kind must be input or output, got '{kind}'")
        if not (location.isascii() and location.replace("_", "0").isalnum()):
            raise EmitError(
                f"pin '{signal}': location must be ASCII letters, digits or '_', got '{location}'")
        if signal in seen:
            raise EmitError(f"duplicate pin mapping for signal '{signal}'")
        seen.add(signal)
    direction = {name: kind for kind, name in _ports(spec)}
    missing = [signal for signal, _, _ in pins if signal not in direction]
    if missing:
        raise EmitError(
            f"pin map names signals absent from spec '{spec.name}': " + ", ".join(missing))
    wrong = [signal for signal, _, kind in pins if kind != direction[signal]]
    if wrong:
        raise EmitError(f"pin kind disagrees with spec '{spec.name}' for signals: " + ", ".join(wrong))
    return "".join(f'NET "{signal}" LOC = "{location}";\n' for signal, location, _ in pins)


# ---------------------------------------------------------------------------
# Verilog
# ---------------------------------------------------------------------------

def _usable(name: str) -> bool:  # an ASCII identifier is [A-Za-z_][A-Za-z0-9_]*
    return name.isascii() and name.isidentifier() and name not in _VERILOG_KEYWORDS


def _ports(spec: FsmSpec) -> list[tuple[str, str]]:
    """The module's (direction, name) ports in header order: clk, inputs,
    Moore outputs, pulse outputs."""
    return ([("input", "clk")]
            + [("input", name) for name in spec.inputs]
            + [("output", name) for name in spec.moore_outputs]
            + [("output", name) for name in spec.pulse_outputs])


def _check_identifiers(spec: FsmSpec, encoding: str) -> None:
    if encoding not in (BINARY, ONE_HOT):
        raise EmitError(f"unknown state encoding '{encoding}'")
    if not _usable(spec.name):
        raise EmitError(f"'{spec.name}' is not a valid HDL module name")
    reserved = {"clk", "state", "state_next"}
    reserved.update(f"{p}_next" for p in spec.pulse_outputs)
    names = list(spec.inputs) + list(spec.moore_outputs) + list(spec.pulse_outputs)
    offenders = [name for name in names if not _usable(name) or name in reserved]
    reserved.update(names)
    offenders += [s.name for s in spec.states if not _usable(s.name) or s.name in reserved]
    if offenders:
        raise EmitError(
            "names unusable as HDL identifiers: " + ", ".join(sorted(set(offenders))))


def emit_verilog(spec: FsmSpec, encoding: str = BINARY) -> str:
    """Render the machine as a synthesizable Verilog-2001 module named
    `spec.name`; findings raise `InvalidSpecError` before any name check.

    Port order: clk, inputs, Moore outputs, pulse outputs.  The state
    register updates on the rising clock edge; reset (when the spec declares
    one) synchronously forces the initial state and suppresses pulses.
    """
    findings = validate(spec)
    if findings:
        raise InvalidSpecError(
            f"spec '{spec.name}' has {len(findings)} validation findings; "
            "emit requires a clean spec", findings)
    _check_identifiers(spec, encoding)

    n = len(spec.states)
    if encoding == BINARY:
        width = max(1, (n - 1).bit_length())
        encode = lambda i: f"{width}'d{i}"
    else:
        width = n
        encode = lambda i: f"{width}'b" + "".join(
            "1" if j == i else "0" for j in reversed(range(n)))
    rng = f"[{width - 1}:0] " if width > 1 else ""

    lines: list[str] = []
    w = lines.append
    w(f"// Machine '{spec.name}' rendered as synthesizable Verilog. Generated file; do not edit.")
    w(f"module {spec.name} (")
    ports = _ports(spec)
    for i, (direction, name) in enumerate(ports):
        comma = "," if i < len(ports) - 1 else ""
        pad = " " if direction == "input" else ""
        w(f"    {direction} {pad}wire {name}{comma}")
    w(");")
    w("")
    for i, s in enumerate(spec.states):
        w(f"    localparam {rng}{s.name} = {encode(i)};")
    w("")
    w(f"    reg {rng}state = {spec.initial_state};")
    w(f"    reg {rng}state_next;")
    for p in spec.pulse_outputs:
        w(f"    reg {p}_next;")
    w("")
    w("    always @* begin")
    w("        state_next = state;")
    for p in spec.pulse_outputs:
        w(f"        {p}_next = 1'b0;")
    indent = "        "
    if spec.reset_input is not None:
        w(f"{indent}if ({spec.reset_input}) begin")
        w(f"{indent}    state_next = {spec.initial_state};")
        w(f"{indent}end else begin")
        indent += "    "
    w(f"{indent}case (state)")
    for s in spec.states:
        w(f"{indent}    {s.name}: begin")
        for j, t in enumerate(s.transitions):
            keyword = "if" if j == 0 else "end else if"
            guard = format_guard(t.guard, ("1'b0", "1'b1"))
            w(f"{indent}        {keyword} ({guard}) begin")
            w(f"{indent}            state_next = {t.destination};")
            for p in spec.pulse_outputs:
                if p in t.pulses:
                    w(f"{indent}            {p}_next = 1'b1;")
        if s.transitions:
            w(f"{indent}        end")
        w(f"{indent}    end")
    w(f"{indent}    default: state_next = {spec.initial_state};")
    w(f"{indent}endcase")
    if spec.reset_input is not None:
        w("        end")
    w("    end")
    w("")
    w("    always @(posedge clk) begin")
    w("        state <= state_next;")
    w("    end")
    w("")
    for out in spec.moore_outputs:
        asserting = [s.name for s in spec.states if s.moore_assignments.get(out, 0)]
        if asserting:
            expr = " | ".join(f"(state == {name})" for name in asserting)
        else:
            expr = "1'b0"
        w(f"    assign {out} = {expr};")
    for p in spec.pulse_outputs:
        w(f"    assign {p} = {p}_next;")
    w("")
    w("endmodule")
    return "\n".join(lines) + "\n"
