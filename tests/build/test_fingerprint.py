"""Fingerprint stability — the correctness bedrock of the build cache.

A wrong-stable hash serves stale artifacts; a wrong-unstable hash
destroys the cache.  These tests pin both directions: identical inputs
hash identically across rebuild, insertion order, equivalent mark files
and *process restarts* (a subprocess with a different hash seed), and
any single mark flip or model edit changes the key.  Marks reach the
store only through :func:`class_dependency_key`, so that is the key
these tests pin.
"""

import os
import subprocess
import sys

from repro.build import (
    class_dependency_key,
    model_fingerprint,
    rules_fingerprint,
)
from repro.marks import MarkSet, marks_for_partition
from repro.mda.rules import RuleSet
from repro.models import build_model


def class_key(marks, model_name="microwave", klass="MO", target="c"):
    """The store key of one class's artifacts under *marks*."""
    model = build_model(model_name)
    return class_dependency_key(
        model_fingerprint(model), rules_fingerprint(RuleSet.standard()),
        model.components[0].name, klass, target, marks)


def test_model_fingerprint_stable_across_rebuilds():
    assert model_fingerprint(build_model("microwave")) == \
        model_fingerprint(build_model("microwave"))


def test_model_fingerprint_distinguishes_models():
    fps = {model_fingerprint(build_model(name))
           for name in ("microwave", "elevator", "checksum")}
    assert len(fps) == 3


def test_class_key_ignores_mark_insertion_order():
    a = MarkSet()
    a.set("control.MO", "isHardware", True)
    a.set("control.MO", "clock_mhz", 150)
    b = MarkSet()
    b.set("control.MO", "clock_mhz", 150)
    b.set("control.MO", "isHardware", True)
    assert class_key(a, target="vhdl") == class_key(b, target="vhdl")


def test_class_key_equivalent_mark_files():
    # same marking, different comments / line order / spacing
    text_a = ("# partition decision\n"
              "control.MO isHardware = true\n"
              "control.MO clock_mhz = 150\n")
    text_b = ("control.MO clock_mhz =   150\n"
              "\n"
              "# reviewed 2026-08-05\n"
              "control.MO isHardware = yes\n")
    assert class_key(MarkSet.loads(text_a), target="vhdl") == \
        class_key(MarkSet.loads(text_b), target="vhdl")


def test_any_single_mark_flip_changes_the_key():
    component = build_model("microwave").components[0]
    base = marks_for_partition(component, ("PT",))
    for key in component.class_keys:
        flipped = base.copy()
        path = f"{component.name}.{key}"
        flipped.set(path, "isHardware",
                    not flipped.get(path, "isHardware"))
        assert class_key(flipped, klass=key) != \
            class_key(base, klass=key), key


def test_rules_fingerprint_tracks_rule_order():
    standard = RuleSet.standard()
    reversed_rules = RuleSet(list(reversed(standard.rules)))
    assert rules_fingerprint(standard) != rules_fingerprint(reversed_rules)


def test_class_key_stable_across_process_restarts():
    """The same inputs hash identically in a fresh interpreter with a
    different PYTHONHASHSEED — nothing leaks dict/set iteration order."""
    script = (
        "from repro.build import (class_dependency_key, model_fingerprint,\n"
        "                         rules_fingerprint)\n"
        "from repro.marks import marks_for_partition\n"
        "from repro.mda.rules import RuleSet\n"
        "from repro.models import build_model\n"
        "model = build_model('elevator')\n"
        "component = model.components[0]\n"
        "marks = marks_for_partition(component, ('E',))\n"
        "print(class_dependency_key(\n"
        "    model_fingerprint(model), rules_fingerprint(RuleSet.standard()),\n"
        "    component.name, 'E', 'vhdl', marks))\n"
    )
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "12345"
    env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env=env, check=True, cwd=os.path.dirname(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    )
    model = build_model("elevator")
    marks = marks_for_partition(model.components[0], ("E",))
    assert out.stdout.strip() == class_key(
        marks, model_name="elevator", klass="E", target="vhdl")


class TestClassDependencyKeys:
    def _keys(self, hardware):
        model = build_model("elevator")
        component = model.components[0]
        marks = marks_for_partition(component, hardware)
        model_fp = model_fingerprint(model)
        rules_fp = rules_fingerprint(RuleSet.standard())
        return {
            key: class_dependency_key(
                model_fp, rules_fp, component.name, key,
                "vhdl" if key in hardware else "c", marks)
            for key in component.class_keys
        }

    def test_moving_one_mark_touches_only_the_moved_class(self):
        before = self._keys(("E",))
        after = self._keys(("CA",))
        changed = {key for key in before if before[key] != after[key]}
        assert changed == {"E", "CA"}

    def test_clock_mark_touches_only_its_class(self):
        model = build_model("elevator")
        component = model.components[0]
        marks = marks_for_partition(component, ("E",))
        retimed = marks.copy()
        retimed.set(f"{component.name}.E", "clock_mhz", 250)
        model_fp = model_fingerprint(model)
        rules_fp = rules_fingerprint(RuleSet.standard())

        def key_of(marks, klass, target):
            return class_dependency_key(
                model_fp, rules_fp, component.name, klass, target, marks)

        assert key_of(marks, "E", "vhdl") != key_of(retimed, "E", "vhdl")
        assert key_of(marks, "B", "c") == key_of(retimed, "B", "c")
