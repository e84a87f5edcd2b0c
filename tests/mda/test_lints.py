"""Unit tests for the artifact checks: they must catch injected faults.

C is checked by gcc through :meth:`Build.lint`; each C case puts its
text in place of the build's C artifacts.  VHDL is checked structurally.
"""

from dataclasses import replace

import pytest

from repro.marks import marks_for_partition
from repro.mda import ModelCompiler, lint_vhdl
from repro.models import build_microwave_model


@pytest.fixture(scope="module")
def build():
    model = build_microwave_model()
    component = model.components[0]
    return ModelCompiler(model).compile(
        marks_for_partition(component, ("PT",)))


def gcc_lint(build, c_artifacts):
    """Build.lint() of *build* with *c_artifacts* as its only artifacts."""
    return replace(build, artifacts=c_artifacts).lint()


class TestCleanArtifactsPass:
    def test_generated_c_is_clean(self, build):
        assert gcc_lint(build, build.c_artifacts) == []

    def test_generated_vhdl_is_clean(self, build):
        for path, text in build.vhdl_artifacts.items():
            assert lint_vhdl(path, text) == [], path


class TestCLintCatchesFaults:
    def test_unbalanced_brace(self, build):
        text = build.artifacts["control_mo.c"].replace("}\n", "\n", 1)
        findings = gcc_lint(build, {**build.c_artifacts, "control_mo.c": text})
        assert any(f.path == "control_mo.c"
                   and "expected declaration or statement at end of input"
                   in f.message for f in findings)

    def test_extra_closing_brace(self, build):
        findings = gcc_lint(build, {"x.c": "void f(void)\n{\n}\n}\n"})
        assert [(f.path, f.line) for f in findings] == [("x.c", 4)]

    def test_missing_include_guard(self, build):
        # the check includes every header twice: an unguarded typedef
        # is then redefined, an error in C99
        findings = gcc_lint(build, {"x.h": "typedef int foo_t;\n"})
        assert any("redefinition of typedef" in f.message for f in findings)

    def test_guard_never_defined(self, build):
        # gcc accepts this header: it declares nothing, so including it
        # twice redefines nothing.  The generator sweep checks the guard
        # of every emitted header.
        text = "#ifndef A_H\n#define B_H\n#endif\n"
        assert gcc_lint(build, {"x.h": text}) == []

    def test_unguarded_header_of_tentative_definitions(self, build):
        # gcc accepts this header too: two tentative definitions of one
        # object are one definition in C
        assert gcc_lint(build, {"x.h": "int x;\n"}) == []

    def test_case_fallthrough_detected(self, build):
        # falling into a case that only breaks does nothing, so gcc does
        # not call it a fall-through; it reports the undeclared call
        text = (
            "void f(int e)\n{\n    switch (e) {\n"
            "    case 1:\n        do_a();\n"
            "    case 2:\n        break;\n    }\n}\n"
        )
        findings = gcc_lint(build, {"x.c": text})
        assert [f.message for f in findings] == [
            "implicit declaration of function \u2018do_a\u2019 "
            "[-Wimplicit-function-declaration]"]

    def test_fallthrough_into_a_statement_detected(self, build):
        # gcc reports a fall-through only when it generates code (-c)
        text = (
            "int f(int e)\n{\n    int x = 0;\n    switch (e) {\n"
            "    case 1:\n        x = 1;\n"
            "    case 2:\n        x += 2;\n        break;\n    }\n"
            "    return x;\n}\n"
        )
        findings = gcc_lint(build, {"x.c": text})
        assert any("implicit-fallthrough" in f.message for f in findings)

    def test_unterminated_statement_detected(self, build):
        findings = gcc_lint(
            build, {"x.c": "void f(void)\n{\n    int x = 1\n}\n"})
        assert any("expected \u2018,\u2019 or \u2018;\u2019" in f.message
                   for f in findings)

    def test_comment_bodies_exempt(self, build):
        text = "/* anything\n goes here with no semicolon\n*/\nint x = 1;\n"
        assert gcc_lint(build, {"x.c": text}) == []

    def test_missing_gcc_is_a_finding(self, build, monkeypatch):
        monkeypatch.setenv("PATH", "")
        findings = build.lint()
        assert len(findings) == 1
        assert "gcc" in findings[0].message


class TestVhdlLintCatchesFaults:
    def test_unclosed_process(self):
        text = (
            "entity e is\nend entity e;\n"
            "architecture rtl of e is\nbegin\n"
            "    p : process (clk)\n    begin\n"
            "end architecture rtl;\n"
        )
        findings = lint_vhdl("x.vhd", text)
        assert findings   # mismatched or unclosed blocks reported

    def test_mismatched_end_kind(self):
        text = "entity e is\nend process;\n"
        findings = lint_vhdl("x.vhd", text)
        assert any("closes" in f.message or "nothing open" in f.message
                   for f in findings)

    def test_architecture_of_unknown_entity(self):
        text = (
            "entity real_one is\nend entity real_one;\n"
            "architecture rtl of ghost is\nbegin\nend architecture rtl;\n"
        )
        findings = lint_vhdl("x.vhd", text)
        assert any("unknown entity" in f.message for f in findings)

    def test_end_with_nothing_open(self):
        findings = lint_vhdl("x.vhd", "end case;\n")
        assert any("nothing open" in f.message for f in findings)

    def test_record_blocks_balanced(self):
        text = (
            "package p is\n"
            "    type r_t is record\n        f : integer;\n    end record;\n"
            "end package p;\n"
        )
        assert lint_vhdl("x.vhd", text) == []

    def test_finding_str_includes_position(self, build):
        finding = gcc_lint(build, {"x.h": "typedef int foo_t;\n"})[0]
        assert str(finding).startswith("x.h:1: ")
