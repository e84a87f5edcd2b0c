"""The VHDL mapping — hardware half of the model compiler.

Maps every hardware-partition class onto behavioural VHDL under the same
architectural rules as the C mapping:

* one entity per class, with a clock, a reset, an incoming event port
  (event id + parameter record from the generated interface package) and
  an outgoing event port towards the signal router;
* one clocked FSM process realizing the state transition table as nested
  ``case`` statements — the Moore-style formulation of the profile is
  exactly an FSM with entry actions;
* attributes become registers; bounded action code is printed inline as
  sequential statements; instance-population dynamics route through the
  emitted runtime package ``<component>_rt_pkg`` (hardware classes are
  realized as fixed-capacity instance banks, the standard restriction for
  hardware mapping).

The emitted text is behavioural (simulation-grade) VHDL: the offline
environment has no synthesis tool, and the paper's claim under test is
interface consistency and behaviour preservation, not timing closure.
"""

from __future__ import annotations

from repro.xuml.statemachine import EventResponse

from .manifest import ClassManifest, ComponentManifest, tag_to_dtype
from .naming import banner, c_macro, vhdl_ident, vhdl_type_of

_BIN_VHDL = {
    "and": "and", "or": "or", "==": "=", "!=": "/=",
    "<": "<", "<=": "<=", ">": ">", ">=": ">=",
    "+": "+", "-": "-", "*": "*", "/": "/", "%": "mod",
}


class VhdlGenerator:
    """Emits the VHDL artifacts of one component's hardware partition."""

    def __init__(self, manifest: ComponentManifest):
        self._manifest = manifest

    def emit_runtime_package(self) -> str:
        """The hardware architecture services: instance banks, routing."""
        m = self._manifest
        pkg = f"{vhdl_ident(m.name)}_rt_pkg"
        lines = [banner(f"{m.name} hardware architecture runtime", "--")]
        lines.append("library ieee;")
        lines.append("use ieee.std_logic_1164.all;")
        lines.append("use ieee.numeric_std.all;")
        lines.append("")
        lines.append(f"package {pkg} is")
        lines.append("")
        lines.append("    subtype instance_handle_t is unsigned(31 downto 0);")
        lines.append("    constant RT_NULL_HANDLE : instance_handle_t := "
                     "(others => '0');")
        lines.append("    constant MAX_INSTANCES : natural := 64;")
        lines.append("    type instance_set_t is array (0 to MAX_INSTANCES - 1)"
                     " of instance_handle_t;")
        lines.append("")
        lines.append("    -- instance bank services (fixed-capacity banks;")
        lines.append("    -- the hardware mapping's population restriction)")
        lines.append("    function rt_create(cls : integer) "
                     "return instance_handle_t;")
        lines.append("    procedure rt_delete(inst : in instance_handle_t);")
        lines.append("    procedure rt_relate(a, b : in instance_handle_t; "
                     "assoc : in integer);")
        lines.append("    procedure rt_unrelate(a, b : in instance_handle_t; "
                     "assoc : in integer);")
        lines.append("    procedure rt_generate(cls : in integer; "
                     "event_id : in integer;")
        lines.append("                          target : in instance_handle_t; "
                     "delay_cycles : in natural);")
        lines.append("")
        lines.append(f"end package {pkg};")
        return "\n".join(lines) + "\n"

    def emit_entity(self, klass: ClassManifest, clock_mhz: int = 100) -> str:
        """Entity + FSM architecture for one hardware class."""
        m = self._manifest
        name = vhdl_ident(klass.name)
        pkg = f"{vhdl_ident(m.name)}_rt_pkg"
        lines = [banner(
            f"class {klass.name} ({klass.key}) — hardware mapping "
            f"@ {clock_mhz} MHz", "--")]
        lines.append("library ieee;")
        lines.append("use ieee.std_logic_1164.all;")
        lines.append("use ieee.numeric_std.all;")
        lines.append(f"use work.{pkg}.all;")
        lines.append(f"use work.{vhdl_ident(m.name)}_interface_pkg.all;")
        lines.append("")
        lines.append(f"entity {name} is")
        lines.append("    generic (")
        lines.append(f"        CLOCK_MHZ : natural := {clock_mhz}")
        lines.append("    );")
        lines.append("    port (")
        lines.append("        clk          : in  std_logic;")
        lines.append("        rst_n        : in  std_logic;")
        lines.append("        ev_valid     : in  std_logic;")
        lines.append("        ev_id        : in  integer;")
        lines.append("        ev_target    : in  instance_handle_t;")
        lines.append("        ev_payload   : in  std_logic_vector(255 downto 0);")
        lines.append("        out_valid    : out std_logic;")
        lines.append("        out_msg_id   : out integer;")
        lines.append("        out_payload  : out std_logic_vector(255 downto 0);")
        lines.append("        busy         : out std_logic")
        lines.append("    );")
        lines.append(f"end entity {name};")
        lines.append("")
        lines.append(f"architecture rtl of {name} is")
        lines.append("")
        if klass.states:
            state_list = ", ".join(
                f"st_{vhdl_ident(s)}" for s, _n in klass.states
            )
            lines.append(f"    type state_t is ({state_list});")
            initial = klass.initial_state or klass.states[0][0]
            lines.append(f"    signal current_state : state_t := "
                         f"st_{vhdl_ident(initial)};")
        for attr_name, tag, _default in klass.attributes:
            vtype = vhdl_type_of(tag_to_dtype(tag, m.enums))
            lines.append(f"    signal r_{vhdl_ident(attr_name)} : {vtype};")
        lines.append("")
        for label in sorted(klass.events):
            lines.append(f"    constant EV_{c_macro(label)} : integer := "
                         f"{self._event_code(klass, label)};")
        lines.append("")
        lines.append("begin")
        lines.append("")
        lines.append("    fsm : process (clk)")
        lines.append("    begin")
        lines.append("        if rising_edge(clk) then")
        lines.append("            if rst_n = '0' then")
        initial = klass.initial_state or (
            klass.states[0][0] if klass.states else None)
        if initial is not None:
            lines.append(f"                current_state <= "
                         f"st_{vhdl_ident(initial)};")
        lines.append("                out_valid <= '0';")
        lines.append("            elsif ev_valid = '1' then")
        lines.append("                case current_state is")
        responses = m.lowered.responses
        for state_name, _number in klass.states:
            lines.append(f"                    when st_{vhdl_ident(state_name)} =>")
            lines.append("                        case ev_id is")
            for label in sorted(klass.events):
                if klass.events[label].creation:
                    continue
                response = responses[klass.key, state_name, label]
                lines.append(f"                            when "
                             f"EV_{c_macro(label)} =>")
                if isinstance(response, str):
                    lines.append(f"                                "
                                 f"current_state <= st_{vhdl_ident(response)};")
                    lines.append(f"                                "
                                 f"-- entry actions of {response}:")
                    for action_line in self._entry_action_lines(klass, response):
                        lines.append("                                "
                                     + action_line)
                elif response is EventResponse.IGNORE:
                    lines.append("                                null;"
                                 "  -- ignored")
                else:
                    lines.append("                                "
                                 "assert false report \"cant happen\" "
                                 "severity error;")
            lines.append("                            when others =>")
            lines.append("                                null;")
            lines.append("                        end case;")
        lines.append("                end case;")
        lines.append("            end if;")
        lines.append("        end if;")
        lines.append("    end process fsm;")
        lines.append("")
        lines.append("    busy <= '0';")
        lines.append("")
        lines.append("end architecture rtl;")
        return "\n".join(lines) + "\n"

    def _event_code(self, klass: ClassManifest, label: str) -> int:
        return sorted(klass.events).index(label) + 1

    def _entry_action_lines(self, klass: ClassManifest, state: str) -> list[str]:
        """Print the lowered entry action as VHDL sequential statements."""
        printer = _VhdlPrinter(self._manifest)
        lines: list[str] = []
        printer.print_block(self._manifest.lowered.activities[klass.key, state],
                            lines, 0)
        return lines or ["null;"]


class _VhdlPrinter:
    """Prints action IR as VHDL sequential statements.

    Dynamic population operations are mapped onto runtime-package
    procedure calls, mirroring the instance-bank architecture.
    """

    def __init__(self, manifest: ComponentManifest):
        self._m = manifest

    def _pad(self, indent: int) -> str:
        return "    " * indent

    def print_block(self, block: list, lines: list, indent: int) -> None:
        for stmt in block:
            self.print_stmt(stmt, lines, indent)

    def print_stmt(self, stmt: list, lines: list, indent: int) -> None:
        pad = self._pad(indent)
        tag = stmt[0]
        if tag == "assign_var":
            lines.append(f"{pad}v_{vhdl_ident(stmt[1])} := {self.expr(stmt[2])};")
        elif tag == "assign_attr":
            if stmt[1][0] == "self":
                lines.append(f"{pad}r_{vhdl_ident(stmt[2])} <= "
                             f"{self.expr(stmt[3])};")
            else:
                lines.append(f"{pad}-- remote attribute write via router:")
                lines.append(f"{pad}rt_attr_write({self.expr(stmt[1])}, "
                             f"\"{stmt[2]}\", {self.expr(stmt[3])});")
        elif tag == "create":
            lines.append(f"{pad}v_{vhdl_ident(stmt[1])} := "
                         f"rt_create({self._class_number(stmt[2])});")
        elif tag == "delete":
            lines.append(f"{pad}rt_delete({self.expr(stmt[1])});")
        elif tag == "select_extent":
            lines.append(f"{pad}rt_select_extent(v_{vhdl_ident(stmt[1])}, "
                         f"{self._class_number(stmt[3])});")
        elif tag == "select_related":
            hops = ", ".join(str(int(h[1][1:])) for h in stmt[4])
            lines.append(f"{pad}rt_select_related(v_{vhdl_ident(stmt[1])}, "
                         f"{self.expr(stmt[3])}, ({hops}));")
        elif tag == "relate":
            lines.append(f"{pad}rt_relate({self.expr(stmt[1])}, "
                         f"{self.expr(stmt[2])}, {int(stmt[3][1:])});")
        elif tag == "unrelate":
            lines.append(f"{pad}rt_unrelate({self.expr(stmt[1])}, "
                         f"{self.expr(stmt[2])}, {int(stmt[3][1:])});")
        elif tag == "generate":
            label, class_key = stmt[1], stmt[2]
            target = self.expr(stmt[4]) if stmt[4] is not None else "RT_NULL_HANDLE"
            delay = self.expr(stmt[5]) if stmt[5] is not None else "0"
            lines.append(f"{pad}rt_generate({self._class_number(class_key)}, "
                         f"EV_{c_macro(label)}, {target}, {delay});")
        elif tag == "if":
            first = True
            for cond, body in stmt[1]:
                keyword = "if" if first else "elsif"
                lines.append(f"{pad}{keyword} {self.expr(cond)} then")
                self.print_block(body, lines, indent + 1)
                first = False
            if stmt[2] is not None:
                lines.append(f"{pad}else")
                self.print_block(stmt[2], lines, indent + 1)
            lines.append(f"{pad}end if;")
        elif tag == "while":
            lines.append(f"{pad}while {self.expr(stmt[1])} loop")
            self.print_block(stmt[2], lines, indent + 1)
            lines.append(f"{pad}end loop;")
        elif tag == "foreach":
            lines.append(f"{pad}for idx in {self.expr(stmt[2])}'range loop")
            lines.append(f"{self._pad(indent + 1)}v_{vhdl_ident(stmt[1])} := "
                         f"{self.expr(stmt[2])}(idx);")
            self.print_block(stmt[3], lines, indent + 1)
            lines.append(f"{pad}end loop;")
        elif tag == "break":
            lines.append(f"{pad}exit;")
        elif tag == "continue":
            lines.append(f"{pad}next;")
        elif tag == "return":
            lines.append(f"{pad}return;")
        elif tag == "exprstmt":
            lines.append(f"{pad}-- {self.expr(stmt[1])};")
        else:
            raise ValueError(f"cannot print IR statement {tag!r}")

    def _class_number(self, class_key: str) -> int:
        return self._m.classes[class_key].number

    def expr(self, ir: list) -> str:
        tag = ir[0]
        if tag == "int":
            return str(ir[1])
        if tag == "real":
            return repr(float(ir[1]))
        if tag == "str":
            return f"\"{ir[1]}\""
        if tag == "bool":
            return "true" if ir[1] else "false"
        if tag == "enum":
            return f"{vhdl_ident(ir[1])}_t'val({ir[3]})"
        if tag == "self":
            return "ev_target"
        if tag == "selected":
            return "v_selected"
        if tag == "var":
            return f"v_{vhdl_ident(ir[1])}"
        if tag == "param":
            return f"p_{vhdl_ident(ir[1])}"
        if tag == "attr":
            if ir[1][0] == "self":
                return f"r_{vhdl_ident(ir[2])}"
            return f"rt_attr_read({self.expr(ir[1])}, \"{ir[2]}\")"
        if tag == "un":
            op = ir[1]
            operand = self.expr(ir[2])
            if op == "-":
                return f"(-{operand})"
            if op == "not":
                return f"(not {operand})"
            if op == "cardinality":
                return f"rt_cardinality({operand})"
            if op == "empty":
                return f"(rt_cardinality({operand}) = 0)"
            if op == "not_empty":
                return f"(rt_cardinality({operand}) /= 0)"
            raise ValueError(f"unknown unary {op!r}")
        if tag == "bin":
            return (f"({self.expr(ir[2])} {_BIN_VHDL[ir[1]]} "
                    f"{self.expr(ir[3])})")
        if tag == "bridge":
            args = ", ".join(self.expr(v) for _n, v in ir[3])
            return f"rt_bridge_{vhdl_ident(ir[1])}_{vhdl_ident(ir[2])}({args})"
        if tag == "classop":
            args = ", ".join(self.expr(v) for _n, v in ir[3])
            return f"{vhdl_ident(ir[1])}_op_{vhdl_ident(ir[2])}({args})"
        if tag == "instop":
            args = ", ".join(
                [self.expr(ir[1])] + [self.expr(v) for _n, v in ir[3]])
            return f"op_{vhdl_ident(ir[2])}({args})"
        raise ValueError(f"cannot print IR expression {tag!r}")
