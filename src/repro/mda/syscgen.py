"""The SystemC mapping — a third target, added without touching models.

The paper's complaint about SystemC is that it is a *starting point* that
"presumes too much implementation" (section 1).  Nothing stops it being a
*target*: this module adds a SystemC emitter and a mapping rule selected
by the ``processor`` mark, demonstrating section 3's promise — "this
allows for retargeting models to different implementation technologies as
they change" — as a working extension: no model edits, no new metamodel,
one new rule prepended to the rule set.

Each class maps to an ``SC_MODULE`` with a clocked ``SC_METHOD``, the
state table as nested switches, attributes as member data, and entry
actions printed by the C mapping's statement printer — the same manifest
the C and VHDL emitters print.
"""

from __future__ import annotations

from .cgen import CPrinter, entering_params
from .manifest import ClassManifest, ComponentManifest, tag_to_dtype
from .naming import banner, c_ident, c_macro, c_type_of
from .rules import MappingRule

#: the mark value that routes a class to the SystemC mapping
SYSTEMC_PROCESSOR = "systemc"


def _is_systemc(path: str, marks) -> bool:
    return marks.get(path, "processor") == SYSTEMC_PROCESSOR


SYSTEMC_RULE = MappingRule(
    "systemc-class", "systemc", _is_systemc,
    "classes marked processor=systemc map to an SC_MODULE",
)

#: Just what the emitted modules use of ``<systemc.h>``, so a C++
#: compiler can check them where SystemC is not installed.  Each macro
#: expands as SystemC's own does, to a declaration the module needs.
SYSTEMC_STUB = """\
#ifndef SYSTEMC_H
#define SYSTEMC_H
template <class T> struct sc_in {
    T read() const;
    const sc_in &pos() const;
};
template <class T> struct sc_fifo_in { bool nb_read(T &value); };
template <class T> struct sc_fifo_out { bool nb_write(const T &value); };
template <int W> struct sc_bv { };
struct sc_sensitive {
    template <class E> sc_sensitive &operator<<(const E &event);
};
struct sc_module_name { sc_module_name(const char *name); };
struct sc_module { sc_sensitive sensitive; };
void sc_report_error(const char *id, const char *message);
#define SC_MODULE(name) struct name : sc_module
#define SC_CTOR(name) \\
    typedef name SC_CURRENT_USER_MODULE; \\
    explicit name(sc_module_name)
#define SC_METHOD(func) (void)&SC_CURRENT_USER_MODULE::func
#define SC_REPORT_ERROR(id, message) sc_report_error(id, message)
#endif
"""


class SystemCGenerator:
    """Emits SystemC (C++) modules from the build manifest.

    Action bodies are the C mapping's statements, calling the same
    architecture runtime API, except that the module's own attributes
    are its member data.
    """

    def __init__(self, manifest: ComponentManifest):
        self._manifest = manifest

    def emit_module(self, klass: ClassManifest) -> str:
        m = self._manifest
        name = c_ident(klass.name)
        uses: set[str] = set()
        actions: list[str] = []
        for state_name, _number in klass.states:
            actions.append(f"    void enter_{c_ident(state_name)}() {{")
            actions.extend(self._action_lines(klass, state_name, uses))
            actions.append("    }")
            actions.append("")
        lines = [banner(f"class {klass.name} ({klass.key}) — SystemC "
                        "mapping", "//")]
        guard = f"{c_macro(m.name)}_{c_macro(klass.key)}_SC_H"
        lines.append(f"#ifndef {guard}")
        lines.append(f"#define {guard}")
        lines.append("")
        lines.append("#include <systemc.h>")
        lines.append(f'#include "{c_ident(m.name)}_arch_rt.h"')
        lines += [f'#include "{c_ident(m.name)}_{c_ident(key)}.h"'
                  for key in sorted(uses)]
        lines.append("")
        lines.append(f"SC_MODULE({name}) {{")
        lines.append("    sc_in<bool> clk;")
        lines.append("    sc_in<bool> rst_n;")
        lines.append("    sc_fifo_in<int> ev_id;")
        lines.append("    sc_fifo_in<sc_bv<256> > ev_payload;")
        lines.append("    sc_fifo_out<int> out_msg_id;")
        lines.append("")
        lines.append("    /* the instance this module realizes, and the "
                     "parameters of the")
        lines.append("     * event it consumes (decoded from ev_payload by "
                     "the architecture) */")
        lines.append("    instance_handle_t self_inst;")
        lines.append("    const void *event_params;")
        if klass.states:
            lines.append("    enum state_t {")
            for state_name, number in klass.states:
                lines.append(f"        ST_{c_macro(state_name)} = {number},")
            lines.append("    };")
            lines.append("    state_t current_state;")
        for attr_name, tag, _default in klass.attributes:
            ctype = c_type_of(tag_to_dtype(tag, m.enums))
            lines.append(f"    {ctype} {c_ident(attr_name)};")
        lines.append("")
        lines.append(f"    SC_CTOR({name}) {{")
        lines.append("        SC_METHOD(step);")
        lines.append("        sensitive << clk.pos();")
        if klass.initial_state is not None:
            lines.append(f"        current_state = "
                         f"ST_{c_macro(klass.initial_state)};")
        lines.append("    }")
        lines.append("")
        lines.append("    void step() {")
        lines.append("        if (!rst_n.read()) {")
        if klass.initial_state is not None:
            lines.append(f"            current_state = "
                         f"ST_{c_macro(klass.initial_state)};")
        lines.append("            return;")
        lines.append("        }")
        lines.append("        int event;")
        lines.append("        if (!ev_id.nb_read(event)) return;")
        if klass.states:
            lines += self._step_switch(klass)
        lines.append("    }")
        lines.append("")
        lines += actions
        lines.append("};")
        lines.append("")
        lines.append("#endif")
        return "\n".join(lines) + "\n"

    def _step_switch(self, klass: ClassManifest) -> list[str]:
        lines = ["        switch (current_state) {"]
        for state_name, _number in klass.states:
            lines.append(f"        case ST_{c_macro(state_name)}:")
            lines.append("            switch (event) {")
            for index, label in enumerate(sorted(klass.events), start=1):
                if klass.events[label].creation:
                    continue
                response = klass.response(state_name, label)
                lines.append(f"            case {index}: /* {label} */")
                if response == "transition":
                    to_state = klass.transitions[(state_name, label)]
                    lines.append(f"                current_state = "
                                 f"ST_{c_macro(to_state)};")
                    lines.append(f"                enter_{c_ident(to_state)}();")
                elif response == "ignore":
                    lines.append("                /* ignored */")
                else:
                    lines.append("                SC_REPORT_ERROR"
                                 f"(\"{klass.key}\", \"cant happen\");")
                lines.append("                break;")
            lines.append("            default:")
            lines.append("                break;")
            lines.append("            }")
            lines.append("            break;")
        lines.append("        }")
        return lines

    def _action_lines(self, klass: ClassManifest, state: str,
                      uses: set[str]) -> list[str]:
        params = entering_params(klass, state)
        printer = _SysCPrinter(self._manifest, klass, dict(params), False,
                               uses)
        body = printer.body(klass.activities.get(state, []), indent=2)
        lines = []
        if printer.params_read:
            lines.append("        struct params_t {")
            for pname, ptag in params:
                ctype = c_type_of(tag_to_dtype(ptag, self._manifest.enums))
                lines.append(f"            {ctype} {c_ident(pname)};")
            lines.append("        };")
            lines.append("        const params_t *params_view =")
            lines.append("            static_cast<const params_t *>"
                         "(event_params);")
        return lines + (body.splitlines() or ["        /* no actions */"])


class _SysCPrinter(CPrinter):
    """The C statement printer, for C++ inside the module."""

    def attribute(self, target_ir: list, attr: str) -> str:
        if target_ir[0] == "self":      # member data
            return c_ident(attr)
        return super().attribute(target_ir, attr)

    def expr(self, ir: list) -> str:
        if ir[0] == "bridge" and ir[3]:
            # C++ has no compound literals: a lambda builds the arguments
            fields = " ".join(f"{self.ctype(value)} {c_ident(name)};"
                              for name, value in ir[3])
            values = ", ".join(self.expr(value) for _n, value in ir[3])
            return (f"[&] {{ struct {{ {fields} }} args = {{{values}}}; "
                    f'return rt_bridge("{ir[1]}", "{ir[2]}", &args); }}()')
        return super().expr(ir)
