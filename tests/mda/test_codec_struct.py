"""The codec's compiled struct path against its per-field path.

:class:`InterfaceCodec` packs and unpacks a layout of byte-aligned
1/2/4/8-byte integers through one compiled ``struct.Struct`` and every
other layout, or any value the struct rejects, field by field.  These
tests hold the two paths to the same bytes and the same errors over
every boundary message of the catalog, for values in and out of range,
missing, bool and float.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.build import catalog_matrix
from repro.marks import marks_for_partition
from repro.mda import InterfaceCodec, InterfaceError, ModelCompiler
from repro.models import build_model


def _per_field(codec: InterfaceCodec) -> InterfaceCodec:
    """The same layouts with no compiled struct: the per-field path."""
    plain = InterfaceCodec(codec.layouts, codec.frames)
    plain._structs.clear()
    return plain


def _catalog_layouts():
    """Every distinct boundary layout the catalog matrix emits."""
    layouts, models = {}, {}
    for job in catalog_matrix():
        model = models.get(job.model) or models.setdefault(
            job.model, build_model(job.model))
        build = ModelCompiler(model).compile(
            marks_for_partition(model.components[0], job.hardware))
        codec = InterfaceCodec.from_artifact(build.interface.emit_c_header())
        for name, layout in codec.layouts.items():
            layouts[f"{job.model}:{name}", repr(layout)] = layout
    return {key: layout for (key, _), layout in layouts.items()}


LAYOUTS = _catalog_layouts()


def _outcome(call):
    try:
        return "ok", call()
    except Exception as exc:   # the two paths must raise alike
        return type(exc), str(exc)


def test_catalog_layouts_compile_to_structs():
    codec = InterfaceCodec(dict(enumerate(LAYOUTS.values())))
    assert LAYOUTS and len(codec._structs) == len(LAYOUTS)


#: a field's value: in range, out of range, bool, float, or missing
VALUES = st.one_of(
    st.integers(-(1 << 8), 1 << 8),
    st.integers(-(1 << 66), 1 << 66),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.none(),
)


@pytest.mark.parametrize("key", sorted(LAYOUTS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_struct_and_per_field_paths_agree(key, data):
    codec = InterfaceCodec({"m": LAYOUTS[key]})
    assert "m" in codec._structs
    plain = _per_field(codec)
    values = {}
    for fname, _tag, _offset, _width in LAYOUTS[key][2]:
        value = data.draw(VALUES, label=fname)
        if value is not None:   # None: the field is missing
            values[fname] = value
    packed = _outcome(lambda: codec.pack("m", values))
    assert packed == _outcome(lambda: plain.pack("m", values))
    payload_bytes = LAYOUTS[key][1]
    payload = data.draw(st.binary(min_size=payload_bytes - 1,
                                  max_size=payload_bytes + 1))
    assert (_outcome(lambda: codec.unpack("m", payload))
            == _outcome(lambda: plain.unpack("m", payload)))
    if packed[0] == "ok":
        assert codec.unpack("m", packed[1]) == plain.unpack("m", packed[1])


@pytest.mark.parametrize("layout", [
    (1, 12, [("target_instance", "inst_ref", 0, 32),
             ("value", "real", 32, 64)]),
    (1, 20, [("target_instance", "inst_ref", 0, 32),
             ("tag", "string", 32, 128)]),
    (1, 4, [("target_instance", "inst_ref", 0, 24)]),
    (1, 4, [("target_instance", "inst_ref", 4, 16)]),
], ids=["real", "string", "3-byte", "unaligned"])
def test_other_layouts_take_the_per_field_path(layout):
    codec = InterfaceCodec({"m": layout})
    assert codec._structs == {}
    fields = layout[2]
    values = {fname: 1 for fname, *_ in fields}
    assert codec.pack("m", values) == _per_field(codec).pack("m", values)
    assert codec.unpack("m", codec.pack("m", values))["target_instance"] == 1


def test_gaps_are_zero_pad_bytes():
    codec = InterfaceCodec({"m": (1, 12, [("a", "integer", 8, 16),
                                          ("b", "unique_id", 64, 8)])})
    assert "m" in codec._structs
    assert codec.pack("m", {"a": -2, "b": 7}) == (
        b"\x00\xfe\xff" + bytes(5) + b"\x07" + bytes(3))
    assert codec.unpack("m", codec.pack("m", {"a": -2, "b": 7})) == {
        "a": -2, "b": 7}


def test_struct_rejections_raise_the_per_field_errors():
    codec = InterfaceCodec({"m": (1, 4, [("a", "integer", 0, 32)])})
    with pytest.raises(InterfaceError, match="missing field 'a'"):
        codec.pack("m", {})
    with pytest.raises(OverflowError):
        codec.pack("m", {"a": 1 << 40})
    assert codec.pack("m", {"a": 3.9}) == (3).to_bytes(4, "little")
    assert codec.pack("m", {"a": True}) == (1).to_bytes(4, "little")
