"""The implementation-first baseline — repartitioning as a rewrite.

Paper section 1: "Partition changes are expensive, and are difficult to
do correctly."  Section 4's answer: "Changing the partition is a matter
of changing the placement of the marks."

This module prices both workflows for the *same* partition change, using
the real generated artifacts as the size oracle:

* implementation-first (SystemC / Handel-C style): moving a class across
  the boundary means deleting its implementation on one side, rewriting
  it on the other, and hand-editing every interface message it touches —
  on both sides.  The line counts come from the model compiler's actual
  output for that class, which is a *favorable* proxy (hand-written code
  is rarely smaller than generated code).
* model-driven: flip the ``isHardware`` marks and regenerate.  The human
  edit count is the number of flipped marks; everything else is machine
  time.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.marks.diff import partition_change_cost
from repro.marks.partition import marks_for_partition
from repro.mda.compiler import ModelCompiler
from repro.xuml.model import Model


@dataclass(frozen=True)
class RepartitionCost:
    """Price of one partition change, in both workflows."""

    from_hardware: tuple[str, ...]
    to_hardware: tuple[str, ...]
    moved_classes: tuple[str, ...]
    #: hand-edited lines in the implementation-first workflow
    impl_first_lines: int
    #: hand-edited interface lines (both sides) in the same workflow
    impl_first_interface_lines: int
    #: human edits in the model-driven workflow (mark flips)
    mark_flips: int
    #: machine-regenerated lines (no human attention required)
    regenerated_lines: int

    @property
    def impl_first_total(self) -> int:
        return self.impl_first_lines + self.impl_first_interface_lines

    @property
    def reduction_factor(self) -> float:
        if self.mark_flips == 0:
            return 1.0
        return self.impl_first_total / self.mark_flips


def price_repartition(
    model: Model,
    from_hardware: tuple[str, ...],
    to_hardware: tuple[str, ...],
) -> RepartitionCost:
    """Price moving *model* from one partition to another."""
    component = model.components[0]
    compiler = ModelCompiler(model)
    from_marks = marks_for_partition(component, tuple(from_hardware))
    to_marks = marks_for_partition(component, tuple(to_hardware))
    from_build = compiler.compile(from_marks)
    to_build = compiler.compile(to_marks)

    moved = tuple(sorted(
        set(from_hardware) ^ set(to_hardware)))
    impl_lines = 0
    for class_key in moved:
        # delete the old-side implementation, write the new-side one
        impl_lines += from_build.lines_for_class(class_key)
        impl_lines += to_build.lines_for_class(class_key)

    # interface messages that exist in either boundary and touch a moved
    # class must be re-plumbed by hand on both sides
    interface_lines = 0
    for build in (from_build, to_build):
        for message in build.interface.messages:
            if message.sender_class in moved or message.receiver_class in moved:
                # one struct + one record + pack/unpack, sized by fields
                interface_lines += 2 * (len(message.fields) + 4)

    flips = partition_change_cost(from_marks, to_marks)
    return RepartitionCost(
        from_hardware=tuple(from_hardware),
        to_hardware=tuple(to_hardware),
        moved_classes=moved,
        impl_first_lines=impl_lines,
        impl_first_interface_lines=interface_lines,
        mark_flips=flips,
        regenerated_lines=to_build.total_lines(),
    )


def price_all_single_moves(model: Model) -> list[RepartitionCost]:
    """Price moving each class from software into hardware, one at a
    time, starting from the all-software build."""
    component = model.components[0]
    return [price_repartition(model, (), (class_key,))
            for class_key in sorted(component.class_keys)]
