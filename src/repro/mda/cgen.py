"""The C mapping — software half of the model compiler.

Maps every software-partition class onto C text under one architectural
rule set (paper section 4):

* one ``<class>.h`` / ``<class>.c`` pair per class: state and event
  enums, per-event parameter structs, the instance data struct, and a
  ``<class>_dispatch`` function whose nested ``switch`` realizes the
  state transition table;
* action language lowered to C statements; instance/relationship
  dynamics become calls into the architecture runtime API (``rt_*``),
  declared in the emitted ``arch_rt.h`` — the classic xtUML software
  architecture shape;
* a ``kernel.c`` with the event queue discipline the profile demands
  (per-instance FIFO, self-directed events first) and the single-task
  main loop.

The emitted text is printed *from the build manifest*, the same lowered
IR the C-architecture simulator executes, so text and behaviour are two
views of one artifact.
"""

from __future__ import annotations

from repro.exec.ir import walk_ir_statements
from repro.xuml.statemachine import EventResponse

from .manifest import ClassManifest, ComponentManifest, tag_to_dtype
from .naming import banner, c_ident, c_macro, c_type_of

_BIN_C = {
    "and": "&&", "or": "||", "==": "==", "!=": "!=",
    "<": "<", "<=": "<=", ">": ">", ">=": ">=",
    "+": "+", "-": "-", "*": "*", "/": "/", "%": "%",
}
_COMPARE = frozenset(("==", "!=", "<", "<=", ">", ">="))


class CGenerator:
    """Emits the C artifacts of one component's software partition."""

    def __init__(self, manifest: ComponentManifest):
        self._manifest = manifest
        #: keys of the classes whose header the current source needs
        self._uses: set[str] = set()
        #: whether the current source compares strings (needs <string.h>)
        self._string_h = False

    # -- public entry points -------------------------------------------------

    def emit_types_header(self) -> str:
        m = self._manifest
        lines = [banner(f"{m.name} shared types", "//")]
        lines.append(f"#ifndef {c_macro(m.name)}_TYPES_H")
        lines.append(f"#define {c_macro(m.name)}_TYPES_H")
        lines.append("")
        lines.append("#include <stdint.h>")
        lines.append("#include <stdbool.h>")
        lines.append("#include <stddef.h>")
        lines.append("")
        lines.append("typedef uint32_t instance_handle_t;")
        lines.append("#define RT_NULL_HANDLE ((instance_handle_t)0u)")
        lines.append("typedef struct instance_set {")
        lines.append("    instance_handle_t *items;")
        lines.append("    size_t count;")
        lines.append("} instance_set_t;")
        lines.append("")
        for name, enumerators in sorted(m.enums.items()):
            lines.append(f"typedef enum {c_ident(name)} {{")
            for code, enumerator in enumerate(enumerators):
                lines.append(f"    {c_macro(name)}_{c_macro(enumerator)} = {code},")
            lines.append(f"}} {c_ident(name)}_t;")
            lines.append("")
        lines.append("typedef enum class_id {")
        for key in sorted(m.classes):
            lines.append(f"    CLASS_{c_macro(key)} = {m.classes[key].number},")
        lines.append("} class_id_t;")
        lines.append("")
        lines.append("#endif")
        return "\n".join(lines) + "\n"

    def emit_arch_header(self) -> str:
        m = self._manifest
        lines = [banner(f"{m.name} architecture runtime API", "//")]
        lines.append(f"#ifndef {c_macro(m.name)}_ARCH_RT_H")
        lines.append(f"#define {c_macro(m.name)}_ARCH_RT_H")
        lines.append("")
        lines.append(f'#include "{c_ident(m.name)}_types.h"')
        lines.append("")
        lines.append("instance_handle_t rt_create(class_id_t cls);")
        lines.append("void rt_delete(instance_handle_t inst);")
        lines.append("instance_set_t rt_instances_of(class_id_t cls);")
        lines.append("instance_set_t rt_single(instance_handle_t inst);")
        lines.append("instance_set_t rt_navigate_set(instance_set_t from,")
        lines.append("                               int assoc, class_id_t to_cls,")
        lines.append("                               const char *phrase);")
        lines.append("void rt_relate(instance_handle_t a, instance_handle_t b,")
        lines.append("               int assoc, const char *phrase);")
        lines.append("void rt_unrelate(instance_handle_t a, instance_handle_t b,")
        lines.append("                 int assoc, const char *phrase);")
        lines.append("void rt_generate(class_id_t cls, int event_id,")
        lines.append("                 instance_handle_t target,")
        lines.append("                 uint64_t delay, const void *params);")
        lines.append("void rt_generate_creation(class_id_t cls, int event_id,")
        lines.append("                          uint64_t delay, const void *params);")
        lines.append("double rt_bridge(const char *entity, const char *op,")
        lines.append("                 const void *args);")
        lines.append("instance_set_t rt_set_empty(void);")
        lines.append("void rt_set_add(instance_set_t *set, instance_handle_t inst);")
        lines.append("void rt_set_free(instance_set_t set);")
        lines.append("void rt_cant_happen(instance_handle_t inst, int event_id);")
        lines.append("")
        lines.append("#endif")
        return "\n".join(lines) + "\n"

    def emit_class_header(self, klass: ClassManifest) -> str:
        m = self._manifest
        kl = c_ident(klass.key)
        lines = [banner(f"class {klass.name} ({klass.key})", "//")]
        lines.append(f"#ifndef {c_macro(m.name)}_{c_macro(klass.key)}_H")
        lines.append(f"#define {c_macro(m.name)}_{c_macro(klass.key)}_H")
        lines.append("")
        lines.append(f'#include "{c_ident(m.name)}_types.h"')
        lines.append("")
        if klass.states:
            lines.append(f"typedef enum {kl}_state {{")
            for name, number in klass.states:
                lines.append(f"    {c_macro(klass.key)}_STATE_{c_macro(name)} = {number},")
            lines.append(f"}} {kl}_state_t;")
            lines.append("")
        if klass.events:
            lines.append(f"typedef enum {kl}_event {{")
            for index, label in enumerate(sorted(klass.events), start=1):
                lines.append(f"    {c_macro(klass.key)}_EV_{c_macro(label)} = {index},")
            lines.append(f"}} {kl}_event_t;")
            lines.append("")
        for label in sorted(klass.events):
            event = klass.events[label]
            if not event.params:
                continue
            lines.append(f"typedef struct {kl}_{c_ident(label)}_params {{")
            for pname, ptag in event.params:
                ctype = c_type_of(tag_to_dtype(ptag, m.enums))
                lines.append(f"    {ctype} {c_ident(pname)};")
            lines.append(f"}} {kl}_{c_ident(label)}_params_t;")
            lines.append("")
        lines.append(f"typedef struct {kl}_data {{")
        lines.append("    instance_handle_t handle;")
        if klass.states:
            lines.append(f"    {kl}_state_t state;")
        for name, tag, _default in klass.attributes:
            ctype = c_type_of(tag_to_dtype(tag, m.enums))
            lines.append(f"    {ctype} {c_ident(name)};")
        lines.append(f"}} {kl}_data_t;")
        lines.append("")
        lines.append(f"{kl}_data_t *{kl}_data(instance_handle_t inst);")
        if klass.states:
            lines.append(f"void {kl}_dispatch(instance_handle_t inst, "
                         f"{kl}_event_t event, const void *params);")
        for op_name, op in sorted(klass.operations.items()):
            ret = "void" if op.returns is None else c_type_of(
                tag_to_dtype(op.returns, m.enums))
            args = ["instance_handle_t self_inst"] if op.instance_based else []
            args += [
                f"{c_type_of(tag_to_dtype(ptag, m.enums))} {c_ident(pname)}"
                for pname, ptag in op.params
            ]
            lines.append(f"{ret} {kl}_op_{c_ident(op_name)}"
                         f"({', '.join(args) or 'void'});")
        lines.append("")
        lines.append("#endif")
        return "\n".join(lines) + "\n"

    def emit_class_source(self, klass: ClassManifest) -> str:
        """The class's behaviour; it includes the header of every class
        whose events, data or operations its actions use."""
        comp = c_ident(self._manifest.name)
        lowered = self._manifest.lowered
        self._uses = set()
        self._string_h = False
        lines = []
        # an entry action runs only when a transition or creation enters
        # its state; the C of a state nothing enters would be dead code
        entered = {lowered.responses[klass.key, state, label]
                   for state, _number in klass.states
                   for label in klass.events}
        entered.update(lowered.creations.get((klass.key, label))
                       for label in klass.events)
        for state_name, _number in klass.states:
            if state_name in entered:
                lines.append(self._emit_entry_action(klass, state_name))
                lines.append("")

        for op_name in sorted(klass.operations):
            lines.append(self._emit_operation(klass, op_name))
            lines.append("")

        if klass.states:
            lines.append(self._emit_dispatch(klass))
        includes = ["#include <string.h>"] if self._string_h else []
        includes += [f'#include "{comp}_{c_ident(klass.key)}.h"',
                     f'#include "{comp}_arch_rt.h"']
        includes += [f'#include "{comp}_{c_ident(key)}.h"'
                     for key in sorted(self._uses - {klass.key})]
        head = [banner(f"class {klass.name} ({klass.key}) behaviour", "//")]
        return "\n".join(head + includes + [""] + lines) + "\n"

    def emit_kernel_source(self) -> str:
        m = self._manifest
        lines = [banner(f"{m.name} software kernel", "//")]
        lines.append(f'#include "{c_ident(m.name)}_types.h"')
        lines.append(f'#include "{c_ident(m.name)}_arch_rt.h"')
        lines.append("")
        lines.append("/* Event queue discipline (profile rules):")
        lines.append(" *  - one FIFO pair per instance: self-directed events")
        lines.append(" *    are consumed before any other pending event;")
        lines.append(" *  - each dispatched event runs to completion before")
        lines.append(" *    the next is consumed (single task, one thread).")
        lines.append(" */")
        lines.append("typedef struct queued_event {")
        lines.append("    class_id_t cls;")
        lines.append("    int event_id;")
        lines.append("    instance_handle_t target;")
        lines.append("    instance_handle_t sender;")
        lines.append("    uint64_t due_time;")
        lines.append("    unsigned char params[64];")
        lines.append("    struct queued_event *next;")
        lines.append("} queued_event_t;")
        lines.append("")
        lines.append("/* the architecture routes an event to its class's dispatch */")
        lines.append("void kernel_dispatch_to_class(queued_event_t *ev);")
        lines.append("")
        lines.append("static queued_event_t *self_queue_head;")
        lines.append("static queued_event_t *other_queue_head;")
        lines.append("static uint64_t now_us;")
        lines.append("")
        lines.append("void kernel_enqueue(queued_event_t *ev, bool self_directed)")
        lines.append("{")
        lines.append("    queued_event_t **head =")
        lines.append("        self_directed ? &self_queue_head : &other_queue_head;")
        lines.append("    while (*head) head = &(*head)->next;")
        lines.append("    ev->next = 0;")
        lines.append("    *head = ev;")
        lines.append("}")
        lines.append("")
        lines.append("queued_event_t *kernel_next(void)")
        lines.append("{")
        lines.append("    queued_event_t *ev = self_queue_head;")
        lines.append("    if (ev) { self_queue_head = ev->next; return ev; }")
        lines.append("    ev = other_queue_head;")
        lines.append("    if (ev) { other_queue_head = ev->next; return ev; }")
        lines.append("    return 0;")
        lines.append("}")
        lines.append("")
        lines.append("void kernel_run(void)")
        lines.append("{")
        lines.append("    queued_event_t *ev;")
        lines.append("    while ((ev = kernel_next()) != 0) {")
        lines.append("        if (ev->due_time > now_us) now_us = ev->due_time;")
        lines.append("        kernel_dispatch_to_class(ev);  /* run to completion */")
        lines.append("    }")
        lines.append("}")
        return "\n".join(lines) + "\n"

    # -- internals ---------------------------------------------------------------

    def _emit_entry_action(self, klass: ClassManifest, state_name: str) -> str:
        kl = c_ident(klass.key)
        lowered = self._manifest.lowered
        params = lowered.event_parameters[klass.key, state_name]
        printer = CPrinter(self._manifest, False, self._uses)
        body = printer.body(lowered.activities[klass.key, state_name],
                            indent=1)
        self._string_h |= printer.compares_strings
        lines = [f"/* entry action of state {state_name} */"]
        lines.append(f"static void {kl}_enter_{c_ident(state_name)}"
                     f"(instance_handle_t self_inst, const void *event_params)")
        lines.append("{")
        if printer.params_read:
            struct = f"{kl}_entry_{c_ident(state_name)}_view"
            lines.append("    /* parameters shared by every entering event */")
            lines.append("    struct {")
            for pname, ptag in params:
                ctype = c_type_of(tag_to_dtype(ptag, self._manifest.enums))
                lines.append(f"        {ctype} {c_ident(pname)};")
            lines.append("    } const *params_view = event_params;")
            lines.append(f"    (void)sizeof(struct {struct} *);")
        else:
            lines.append("    (void)event_params;")
        lines.append("    (void)self_inst;")
        if body.strip():
            lines.append(body)
        lines.append("}")
        return "\n".join(lines)

    def _emit_operation(self, klass: ClassManifest, op_name: str) -> str:
        m = self._manifest
        kl = c_ident(klass.key)
        op = klass.operations[op_name]
        ret = "void" if op.returns is None else c_type_of(
            tag_to_dtype(op.returns, m.enums))
        args = ["instance_handle_t self_inst"] if op.instance_based else []
        args += [
            f"{c_type_of(tag_to_dtype(ptag, m.enums))} {c_ident(pname)}"
            for pname, ptag in op.params
        ]
        printer = CPrinter(m, True, self._uses)
        body = printer.body(m.lowered.operations[klass.key, op_name],
                            indent=1)
        self._string_h |= printer.compares_strings
        lines = [f"{ret} {kl}_op_{c_ident(op_name)}({', '.join(args) or 'void'})"]
        lines.append("{")
        if op.instance_based:
            lines.append("    (void)self_inst;")
        for pname, _ptag in op.params:
            if pname not in printer.params_read:
                lines.append(f"    (void){c_ident(pname)};")
        if body.strip():
            lines.append(body)
        lines.append("}")
        return "\n".join(lines)

    def _emit_dispatch(self, klass: ClassManifest) -> str:
        kl = c_ident(klass.key)
        km = c_macro(klass.key)
        lowered = self._manifest.lowered
        creations = [(label, lowered.creations[klass.key, label])
                     for label in sorted(klass.events)
                     if (klass.key, label) in lowered.creations]
        lines = [f"/* state transition table of {klass.key}, as code */"]
        lines.append(f"void {kl}_dispatch(instance_handle_t inst, "
                     f"{kl}_event_t event, const void *params)")
        lines.append("{")
        lines.append(f"    {kl}_data_t *self_data = {kl}_data(inst);")
        if creations:
            lines.append("    /* a creation event: the architecture has just "
                         "created inst */")
            lines.append("    switch (event) {")
            for label, to_state in creations:
                lines.append(f"    case {km}_EV_{c_macro(label)}:")
                lines.append(f"        self_data->state = "
                             f"{km}_STATE_{c_macro(to_state)};")
                lines.append(f"        {kl}_enter_{c_ident(to_state)}"
                             f"(inst, params);")
                lines.append("        return;")
            lines.append("    default:")
            lines.append("        break;")
            lines.append("    }")
        lines.append("    switch (self_data->state) {")
        for state_name, _num in klass.states:
            lines.append(f"    case {km}_STATE_{c_macro(state_name)}:")
            lines.append("        switch (event) {")
            for label in sorted(klass.events):
                if klass.events[label].creation:
                    continue
                response = lowered.responses[klass.key, state_name, label]
                lines.append(f"        case {km}_EV_{c_macro(label)}:")
                if isinstance(response, str):
                    lines.append(
                        f"            self_data->state = "
                        f"{km}_STATE_{c_macro(response)};")
                    lines.append(
                        f"            {kl}_enter_{c_ident(response)}"
                        f"(inst, params);")
                    lines.append("            break;")
                elif response is EventResponse.IGNORE:
                    lines.append("            /* ignored */")
                    lines.append("            break;")
                else:
                    lines.append(
                        "            rt_cant_happen(inst, (int)event);")
                    lines.append("            break;")
            lines.append("        default:")
            lines.append("            rt_cant_happen(inst, (int)event);")
            lines.append("            break;")
            lines.append("        }")
            lines.append("        break;")
        lines.append("    }")
        lines.append("}")
        return "\n".join(lines)


_HANDLE = "instance_handle_t"
_SET = "instance_set_t"


def _instance_class(ir: list) -> str:
    """The class of an instance expression, from its ``inst_ref:`` tag."""
    return ir[-1].partition(":")[2]


class CPrinter:
    """Prints one block of action IR as C statements.

    Every type and class it prints is read from the analyzed type tag
    that ends each IR expression; the printer infers none of its own.
    """

    def __init__(self, manifest, params_are_args, uses):
        self._m = manifest
        self._params_are_args = params_are_args
        self._uses = uses
        self._tmp = 0
        #: local name -> C type, in order of first assignment
        self._locals: dict[str, str] = {}
        self._reads: set[str] = set()
        self.params_read: set[str] = set()
        #: whether a comparison printed as ``strcmp`` (needs <string.h>)
        self.compares_strings = False

    def body(self, block: list, indent: int) -> str:
        """The block as C: its locals declared first, then its statements."""
        self._scan_locals(block)
        statements: list[str] = []
        self.print_block(block, statements, indent)
        pad = self._pad(indent)
        lines = []
        # an enum starts at its first enumerator: C++ takes no int for it
        inits = {f"{c_ident(name)}_t": f"{c_macro(name)}_{c_macro(values[0])}"
                 for name, values in self._m.enums.items()}
        inits.update({_HANDLE: "RT_NULL_HANDLE", _SET: "{0, 0}"})
        for name, ctype in self._locals.items():
            init = inits.get(ctype, "0")
            lines.append(f"{pad}{ctype} {c_ident(name)} = {init};")
        lines += [f"{pad}(void){c_ident(name)};"
                  for name in self._locals if name not in self._reads]
        return "\n".join(lines + statements)

    def _scan_locals(self, block: list) -> None:
        """Type each local from its first binding, as the analyzer does."""
        for stmt in walk_ir_statements(block):
            tag = stmt[0]
            if tag == "assign_var":
                self._locals.setdefault(stmt[1], self.ctype(stmt[2]))
            elif tag in ("create", "select_extent", "select_related"):
                many = tag != "create" and stmt[2]
                self._locals.setdefault(stmt[1], _SET if many else _HANDLE)
            elif tag == "foreach":
                self._locals.setdefault(stmt[1], _HANDLE)

    def _pad(self, indent: int) -> str:
        return "    " * indent

    def print_block(self, block: list, lines: list, indent: int) -> None:
        for stmt in block:
            self.print_stmt(stmt, lines, indent)

    def print_stmt(self, stmt: list, lines: list, indent: int) -> None:
        pad = self._pad(indent)
        tag = stmt[0]
        if tag == "assign_var":
            lines.append(f"{pad}{c_ident(stmt[1])} = {self.expr(stmt[2])};")
        elif tag == "assign_attr":
            lines.append(f"{pad}{self.attribute(stmt[1], stmt[2])} = "
                         f"{self.expr(stmt[3])};")
        elif tag == "create":
            lines.append(f"{pad}{c_ident(stmt[1])} = "
                         f"rt_create(CLASS_{c_macro(stmt[2])});")
        elif tag == "delete":
            lines.append(f"{pad}rt_delete({self.expr(stmt[1])});")
        elif tag == "select_extent":
            self._print_select_extent(stmt, lines, indent)
        elif tag == "select_related":
            self._print_select_related(stmt, lines, indent)
        elif tag == "relate":
            phrase = f'"{stmt[4]}"' if stmt[4] else "0"
            lines.append(f"{pad}rt_relate({self.expr(stmt[1])}, "
                         f"{self.expr(stmt[2])}, {stmt[3][1:]}, {phrase});")
        elif tag == "unrelate":
            phrase = f'"{stmt[4]}"' if stmt[4] else "0"
            lines.append(f"{pad}rt_unrelate({self.expr(stmt[1])}, "
                         f"{self.expr(stmt[2])}, {stmt[3][1:]}, {phrase});")
        elif tag == "generate":
            self._print_generate(stmt, lines, indent)
        elif tag == "if":
            first = True
            for cond, body in stmt[1]:
                keyword = "if" if first else "} else if"
                lines.append(f"{pad}{keyword} ({self.expr(cond)}) {{")
                self.print_block(body, lines, indent + 1)
                first = False
            if stmt[2] is not None:
                lines.append(f"{pad}}} else {{")
                self.print_block(stmt[2], lines, indent + 1)
            lines.append(f"{pad}}}")
        elif tag == "while":
            lines.append(f"{pad}while ({self.expr(stmt[1])}) {{")
            self.print_block(stmt[2], lines, indent + 1)
            lines.append(f"{pad}}}")
        elif tag == "foreach":
            loop = f"it_{self._next_tmp()}"
            set_expr = self.expr(stmt[2])
            lines.append(f"{pad}for (size_t {loop} = 0; "
                         f"{loop} < {set_expr}.count; ++{loop}) {{")
            lines.append(f"{self._pad(indent + 1)}{c_ident(stmt[1])} = "
                         f"{set_expr}.items[{loop}];")
            self.print_block(stmt[3], lines, indent + 1)
            lines.append(f"{pad}}}")
        elif tag == "break":
            lines.append(f"{pad}break;")
        elif tag == "continue":
            lines.append(f"{pad}continue;")
        elif tag == "return":
            if stmt[1] is None:
                lines.append(f"{pad}return;")
            else:
                lines.append(f"{pad}return {self.expr(stmt[1])};")
        elif tag == "exprstmt":
            lines.append(f"{pad}(void){self.expr(stmt[1])};")
        else:
            raise ValueError(f"cannot print IR statement {tag!r}")

    def _print_select_extent(self, stmt, lines, indent) -> None:
        pad = self._pad(indent)
        var, many, class_key, where = stmt[1], stmt[2], stmt[3], stmt[4]
        if where is None and many:
            lines.append(f"{pad}{c_ident(var)} = "
                         f"rt_instances_of(CLASS_{c_macro(class_key)});")
            return
        tmp = f"cand_{self._next_tmp()}"
        lines.append(f"{pad}{{")
        inner = self._pad(indent + 1)
        lines.append(f"{inner}instance_set_t {tmp} = "
                     f"rt_instances_of(CLASS_{c_macro(class_key)});")
        self._print_filter(lines, indent + 1, tmp, var, many, where)
        lines.append(f"{pad}}}")

    def _print_select_related(self, stmt, lines, indent) -> None:
        pad = self._pad(indent)
        var, many, start, hops, where = stmt[1], stmt[2], stmt[3], stmt[4], stmt[5]
        tmp = f"nav_{self._next_tmp()}"
        lines.append(f"{pad}{{")
        inner = self._pad(indent + 1)
        current = self.expr(start)
        lines.append(f"{inner}instance_set_t {tmp} = "
                     f"rt_single({current});")
        for class_key, assoc, phrase in hops:
            phrase_c = f'"{phrase}"' if phrase else "0"
            lines.append(f"{inner}{tmp} = rt_navigate_set({tmp}, "
                         f"{assoc[1:]}, CLASS_{c_macro(class_key)}, {phrase_c});")
        self._print_filter(lines, indent + 1, tmp, var, many, where)
        lines.append(f"{pad}}}")

    def _print_filter(self, lines, indent, tmp, var, many, where) -> None:
        inner = self._pad(indent)
        if where is None:
            if many:
                lines.append(f"{inner}{c_ident(var)} = {tmp};")
            else:
                lines.append(f"{inner}{c_ident(var)} = "
                             f"{tmp}.count ? {tmp}.items[0] : RT_NULL_HANDLE;")
            return
        loop = f"wi_{self._next_tmp()}"
        if many:
            lines.append(f"{inner}{c_ident(var)} = rt_set_empty();")
        else:
            lines.append(f"{inner}{c_ident(var)} = RT_NULL_HANDLE;")
        lines.append(f"{inner}for (size_t {loop} = 0; "
                     f"{loop} < {tmp}.count; ++{loop}) {{")
        body = self._pad(indent + 1)
        lines.append(f"{body}instance_handle_t selected = {tmp}.items[{loop}];")
        lines.append(f"{body}if (!({self.expr(where)})) continue;")
        if many:
            lines.append(f"{body}rt_set_add(&{c_ident(var)}, selected);")
        else:
            lines.append(f"{body}{c_ident(var)} = selected;")
            lines.append(f"{body}break;")
        lines.append(f"{inner}}}")

    def _print_generate(self, stmt, lines, indent) -> None:
        pad = self._pad(indent)
        label, class_key, args, target, delay = (
            stmt[1], stmt[2], stmt[3], stmt[4], stmt[5])
        kl = c_ident(class_key)
        km = c_macro(class_key)
        self._uses.add(class_key)
        delay_c = self.expr(delay) if delay is not None else "0"
        if args:
            tmp = f"ev_{self._next_tmp()}"
            lines.append(f"{pad}{{")
            inner = self._pad(indent + 1)
            lines.append(f"{inner}{kl}_{c_ident(label)}_params_t {tmp};")
            for name, value in args:
                lines.append(f"{inner}{tmp}.{c_ident(name)} = "
                             f"{self.expr(value)};")
            params_ref = f"&{tmp}"
            if target is None:
                lines.append(f"{inner}rt_generate_creation(CLASS_{km}, "
                             f"{km}_EV_{c_macro(label)}, {delay_c}, {params_ref});")
            else:
                lines.append(f"{inner}rt_generate(CLASS_{km}, "
                             f"{km}_EV_{c_macro(label)}, {self.expr(target)}, "
                             f"{delay_c}, {params_ref});")
            lines.append(f"{pad}}}")
        else:
            if target is None:
                lines.append(f"{pad}rt_generate_creation(CLASS_{km}, "
                             f"{km}_EV_{c_macro(label)}, {delay_c}, 0);")
            else:
                lines.append(f"{pad}rt_generate(CLASS_{km}, "
                             f"{km}_EV_{c_macro(label)}, {self.expr(target)}, "
                             f"{delay_c}, 0);")

    def _next_tmp(self) -> int:
        self._tmp += 1
        return self._tmp

    # -- expressions ------------------------------------------------------------

    def attribute(self, target_ir: list, attr: str) -> str:
        """C lvalue of attribute *attr* of an instance expression."""
        class_key = _instance_class(target_ir)
        self._uses.add(class_key)
        handle = self.expr(target_ir)
        return f"{c_ident(class_key)}_data({handle})->{c_ident(attr)}"

    def ctype(self, ir: list) -> str:
        """The C type of an expression: its analyzed type's."""
        return c_type_of(tag_to_dtype(ir[-1], self._m.enums))

    def expr(self, ir: list) -> str:
        tag = ir[0]
        if tag == "int":
            return str(ir[1])
        if tag == "real":
            return repr(float(ir[1]))
        if tag == "str":
            escaped = ir[1].replace("\\", "\\\\").replace('"', '\\"')
            return f'"{escaped}"'
        if tag == "bool":
            return "true" if ir[1] else "false"
        if tag == "enum":
            return f"{c_macro(ir[1])}_{c_macro(ir[2])}"
        if tag == "self":
            return "self_inst"
        if tag == "selected":
            return "selected"
        if tag == "var":
            self._reads.add(ir[1])
            return c_ident(ir[1])
        if tag == "param":
            self.params_read.add(ir[1])
            if self._params_are_args:
                return c_ident(ir[1])
            return f"params_view->{c_ident(ir[1])}"
        if tag == "attr":
            return self.attribute(ir[1], ir[2])
        if tag == "un":
            op = ir[1]
            operand = self.expr(ir[2])
            if op == "-":
                return f"(-{operand})"
            if op == "not":
                return f"(!{operand})"
            # a set counts its items; a reference counts 1 unless null
            is_set = self.ctype(ir[2]) == _SET
            if op == "cardinality" and is_set:
                return f"((int32_t){operand}.count)"
            compare = {"cardinality": "!=", "not_empty": "!=", "empty": "=="}
            if op not in compare:
                raise ValueError(f"unknown unary {op!r}")
            none = "0" if is_set else "RT_NULL_HANDLE"
            count = f"{operand}.count" if is_set else operand
            return f"({count} {compare[op]} {none})"
        if tag == "bin":
            op, left, right = _BIN_C[ir[1]], self.expr(ir[2]), self.expr(ir[3])
            if op in _COMPARE and "string" in (ir[2][-1], ir[3][-1]):
                # C compares the pointers; the model compares the text
                self.compares_strings = True
                return f"(strcmp({left}, {right}) {op} 0)"
            return f"({left} {op} {right})"
        if tag == "bridge":
            # the arguments travel as one struct compound literal
            args = "0"
            if ir[3]:
                fields = " ".join(f"{self.ctype(value)} {c_ident(name)};"
                                  for name, value in ir[3])
                values = ", ".join(self.expr(value) for _n, value in ir[3])
                args = f"&(struct {{ {fields} }}){{{values}}}"
            return f'rt_bridge("{ir[1]}", "{ir[2]}", {args})'
        if tag in ("classop", "instop"):
            # an instance operation belongs to its target's class
            owner = ir[1] if tag == "classop" else _instance_class(ir[1])
            self._uses.add(owner)
            args = [self.expr(ir[1])] if tag == "instop" else []
            args += [self.expr(value) for _n, value in ir[3]]
            return f"{c_ident(owner)}_op_{c_ident(ir[2])}({', '.join(args)})"
        raise ValueError(f"cannot print IR expression {tag!r}")
