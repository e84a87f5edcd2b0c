"""Cross-partition interface generation.

Paper section 4: "The two halves are known to fit together because the
interface was generated."  This module is that guarantee, made concrete:

1. :func:`build_interface_spec` derives one :class:`InterfaceSpec` from
   the partition's boundary signals — message ids, field offsets and
   widths are computed exactly once, here.
2. :meth:`InterfaceSpec.emit_c_header` and
   :meth:`InterfaceSpec.emit_vhdl_package` print the C half and the VHDL
   half **from that single spec**.  Both artifacts embed machine-readable
   ``LAYOUT`` lines.
3. :class:`InterfaceCodec` packs/unpacks real bytes from the layout table
   *parsed back out of an emitted artifact* — so experiment E7 can prove
   byte-compatibility of the two halves by reading only the generated
   text, exactly the property the paper claims.

The baseline of experiment E1 (two teams hand-maintaining the same
tables) lives in :mod:`repro.baselines.drift` and reuses the codec, which
is what makes its divergence measurable in defects.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from repro.marks.model import CRC_KINDS, MarkSet
from repro.marks.partition import Partition
from repro.xuml.datatypes import bit_width

from .manifest import ComponentManifest, tag_to_dtype
from .naming import banner, c_ident, c_macro, vhdl_ident


class InterfaceError(Exception):
    """Interface spec construction or codec failure."""


# ---------------------------------------------------------------------------
# reliability framing: CRC trailers shared by both generated halves
# ---------------------------------------------------------------------------

#: a protected frame appends seq16 + crc(8|16) padded to one 32-bit word
FRAME_TRAILER_BYTES = 4

#: CRC-8 polynomial (ATM HEC), emitted into both artifacts
CRC8_POLY = 0x07
#: CRC-16-CCITT polynomial, emitted into both artifacts
CRC16_POLY = 0x1021
CRC16_INIT = 0xFFFF


def crc8(data: bytes) -> int:
    """CRC-8 (poly 0x07, init 0x00) over *data*."""
    crc = 0
    for byte in data:
        crc ^= byte
        for _ in range(8):
            crc = ((crc << 1) ^ CRC8_POLY if crc & 0x80 else crc << 1) & 0xFF
    return crc


def crc16_ccitt(data: bytes) -> int:
    """CRC-16-CCITT (poly 0x1021, init 0xFFFF) over *data*."""
    crc = CRC16_INIT
    for byte in data:
        crc ^= byte << 8
        for _ in range(8):
            crc = ((crc << 1) ^ CRC16_POLY if crc & 0x8000
                   else crc << 1) & 0xFFFF
    return crc


@dataclass(frozen=True)
class Protection:
    """Reliability protocol of one boundary message, chosen by marks.

    Like the partition itself, protection lives entirely outside the
    model: the ``crc`` / ``maxRetries`` / ``retryBackoffNs`` /
    ``isCritical`` marks on the *receiver* class decide it, and both
    generated interface halves emit the identical framing — so the two
    sides of a protected message still fit together by construction.
    """

    crc: str = "none"               # "none" | "crc8" | "crc16"
    max_retries: int = 0
    retry_backoff_ns: int = 2_000
    critical: bool = False

    @property
    def enabled(self) -> bool:
        return self.crc != "none"


def protection_from_marks(
    marks: MarkSet | None, component_name: str, class_key: str
) -> Protection:
    """Read a receiver class's reliability marks (default: unprotected)."""
    if marks is None:
        return Protection()
    path = f"{component_name}.{class_key}"
    crc = str(marks.get(path, "crc"))
    retries = int(marks.get(path, "maxRetries"))
    backoff = int(marks.get(path, "retryBackoffNs"))
    critical = bool(marks.get(path, "isCritical"))
    if crc not in CRC_KINDS:
        raise InterfaceError(
            f"{path}: crc mark {crc!r} is not one of {'/'.join(CRC_KINDS)}")
    return Protection(crc=crc, max_retries=retries,
                      retry_backoff_ns=backoff, critical=critical)


@dataclass(frozen=True)
class MessageField:
    """One field of a boundary message: byte-aligned, fixed width."""

    name: str
    dtype_tag: str
    offset_bits: int
    width_bits: int

    @property
    def offset_bytes(self) -> int:
        return self.offset_bits // 8

    @property
    def width_bytes(self) -> int:
        return self.width_bits // 8


@dataclass(frozen=True)
class Message:
    """One boundary signal as a bus message."""

    message_id: int
    name: str                       # e.g. "ce_ce1"
    event_label: str
    sender_class: str
    receiver_class: str
    direction: str                  # "sw_to_hw" or "hw_to_sw"
    fields: tuple[MessageField, ...]
    protection: Protection = Protection()

    @property
    def payload_bytes(self) -> int:
        if not self.fields:
            return 4  # minimum transfer unit
        last = self.fields[-1]
        raw = last.offset_bytes + last.width_bytes
        return (raw + 3) // 4 * 4  # padded to 32-bit words

    @property
    def frame_bytes(self) -> int:
        """On-wire size: payload plus the CRC/seq trailer if protected."""
        if not self.protection.enabled:
            return self.payload_bytes
        return self.payload_bytes + FRAME_TRAILER_BYTES

    def field(self, name: str) -> MessageField:
        for f in self.fields:
            if f.name == name:
                return f
        raise InterfaceError(f"message {self.name} has no field {name!r}")


@dataclass
class InterfaceSpec:
    """The single source both interface halves are generated from."""

    component: str
    messages: tuple[Message, ...] = field(default_factory=tuple)

    def message_for(self, receiver_class: str, event_label: str) -> Message:
        for message in self.messages:
            if (message.receiver_class == receiver_class
                    and message.event_label == event_label):
                return message
        raise InterfaceError(
            f"no boundary message for {receiver_class}.{event_label}"
        )

    # -- emission -----------------------------------------------------------

    def emit_c_header(self) -> str:
        """The software half: message ids, packed structs, layout table."""
        lines = [banner(f"{self.component} cross-partition interface", "//")]
        lines.append("#ifndef %s_INTERFACE_H" % c_macro(self.component))
        lines.append("#define %s_INTERFACE_H" % c_macro(self.component))
        lines.append("")
        lines.append("#include <stdint.h>")
        lines.append("#include <stdbool.h>")
        lines.append("")
        for message in self.messages:
            lines.append(f"#define MSG_ID_{c_macro(message.name)} "
                         f"{message.message_id}")
        lines.append("")
        for message in self.messages:
            lines.append(f"#define {c_macro(message.name)}_FRAME_BYTES "
                         f"{message.frame_bytes}")
        if any(m.protection.enabled for m in self.messages):
            lines.append("")
            lines.append("/* protected frames append seq16 (LE) and a CRC,")
            lines.append(f"   padded to {FRAME_TRAILER_BYTES} trailer bytes;")
            lines.append(f"   crc8 poly 0x{CRC8_POLY:02X} init 0x00,")
            lines.append(f"   crc16 poly 0x{CRC16_POLY:04X}"
                         f" init 0x{CRC16_INIT:04X} (CCITT) */")
            lines.append("uint8_t  crc8_update(const uint8_t *data,"
                         " uint32_t len);")
            lines.append("uint16_t crc16_ccitt(const uint8_t *data,"
                         " uint32_t len);")
        lines.append("")
        for message in self.messages:
            lines.append(f"/* {message.sender_class} -> "
                         f"{message.receiver_class} : {message.event_label} "
                         f"({message.direction}) */")
            lines.append(f"typedef struct {c_ident(message.name)}_msg {{")
            for fld in message.fields:
                ctype = _c_field_type(fld)
                lines.append(f"    {ctype} {c_ident(fld.name)};"
                             f"  /* offset {fld.offset_bytes}B,"
                             f" width {fld.width_bytes}B */")
            if not message.fields:
                lines.append("    uint32_t _reserved;")
            lines.append(f"}} {c_ident(message.name)}_msg_t;")
            lines.append(f"/* payload: {message.payload_bytes} bytes */")
            lines.append("")
        lines.append("/* machine-readable layout table (one line per field):")
        lines.extend(self._layout_lines())
        lines.append("*/")
        lines.append("")
        for message in self.messages:
            name = c_ident(message.name)
            lines.append(f"void pack_{name}(const {name}_msg_t *msg, "
                         "uint8_t *buffer);")
            lines.append(f"void unpack_{name}({name}_msg_t *msg, "
                         "const uint8_t *buffer);")
        lines.append("")
        lines.append("#endif")
        return "\n".join(lines) + "\n"

    def emit_vhdl_package(self) -> str:
        """The hardware half: the same layout as a VHDL package."""
        lines = [banner(f"{self.component} cross-partition interface", "--")]
        lines.append("library ieee;")
        lines.append("use ieee.std_logic_1164.all;")
        lines.append("use ieee.numeric_std.all;")
        lines.append("")
        lines.append(f"package {vhdl_ident(self.component)}_interface_pkg is")
        lines.append("")
        for message in self.messages:
            lines.append(f"    constant MSG_ID_{c_macro(message.name)} : "
                         f"integer := {message.message_id};")
        lines.append("")
        for message in self.messages:
            lines.append(f"    constant {c_macro(message.name)}_FRAME_BYTES : "
                         f"integer := {message.frame_bytes};")
        if any(m.protection.enabled for m in self.messages):
            lines.append("")
            lines.append("    -- protected frames append seq16 (LE) and a"
                         " CRC, padded to"
                         f" {FRAME_TRAILER_BYTES} trailer bytes")
            lines.append(f"    constant CRC8_POLY : std_logic_vector(7 downto"
                         f" 0) := x\"{CRC8_POLY:02X}\";")
            lines.append("    constant CRC16_POLY : std_logic_vector(15"
                         f" downto 0) := x\"{CRC16_POLY:04X}\";")
            lines.append("    constant CRC16_INIT : std_logic_vector(15"
                         f" downto 0) := x\"{CRC16_INIT:04X}\";")
        lines.append("")
        for message in self.messages:
            lines.append(f"    -- {message.sender_class} -> "
                         f"{message.receiver_class} : {message.event_label} "
                         f"({message.direction})")
            lines.append(f"    type {vhdl_ident(message.name)}_msg_t is record")
            for fld in message.fields:
                lines.append(
                    f"        {vhdl_ident(fld.name)} : "
                    f"std_logic_vector({fld.width_bits * 1 - 1} downto 0);"
                    f"  -- offset {fld.offset_bytes}B"
                )
            if not message.fields:
                lines.append("        reserved_field : "
                             "std_logic_vector(31 downto 0);")
            lines.append("    end record;")
            lines.append(f"    -- payload: {message.payload_bytes} bytes")
            lines.append("")
        lines.append("    -- machine-readable layout table"
                      " (one line per field):")
        for line in self._layout_lines():
            lines.append("    --" + line[2:] if line.startswith("--") else
                         "    -- " + line)
        lines.append("")
        lines.append(f"end package {vhdl_ident(self.component)}_interface_pkg;")
        return "\n".join(lines) + "\n"

    def _layout_lines(self) -> list[str]:
        lines = []
        for message in self.messages:
            lines.append(
                f"LAYOUT-MSG {message.name} id={message.message_id} "
                f"bytes={message.payload_bytes} event={message.event_label} "
                f"receiver={message.receiver_class}"
            )
            for fld in message.fields:
                lines.append(
                    f"LAYOUT-FIELD {message.name} {fld.name} "
                    f"type={fld.dtype_tag} offset={fld.offset_bits} "
                    f"width={fld.width_bits}"
                )
            if message.protection.enabled:
                p = message.protection
                lines.append(
                    f"LAYOUT-FRAME {message.name} crc={p.crc} seq_bits=16 "
                    f"frame_bytes={message.frame_bytes} "
                    f"retries={p.max_retries} "
                    f"backoff_ns={p.retry_backoff_ns} "
                    f"critical={1 if p.critical else 0}"
                )
        return lines


def _c_field_type(fld: MessageField) -> str:
    if fld.dtype_tag == "real":
        return "double"
    if fld.dtype_tag == "boolean":
        return "uint8_t"
    if fld.dtype_tag == "string":
        return "char"  # fixed array, declared by width
    if fld.width_bytes <= 4:
        return "int32_t" if fld.dtype_tag == "integer" else "uint32_t"
    return "uint64_t"


def _field_width_bits(dtype) -> int:
    """Byte-aligned field width for a data type."""
    bits = bit_width(dtype)
    return (bits + 7) // 8 * 8


def build_interface_spec(
    manifest: ComponentManifest, partition: Partition,
    marks: MarkSet | None = None,
) -> InterfaceSpec:
    """Derive the interface from the partition boundary — once.

    Message ids are assigned in sorted (receiver, event) order so the
    same partition always yields the same interface.  When *marks* are
    given, reliability marks on the receiver class select CRC framing
    and a retransmit budget for that class's messages.
    """
    seen: set[tuple[str, str]] = set()
    messages: list[Message] = []
    flows = sorted(
        partition.boundary_flows,
        key=lambda f: (f.receiver_class, f.event_label, f.sender_class),
    )
    next_id = 1
    for flow in flows:
        key = (flow.receiver_class, flow.event_label)
        if key in seen:
            continue  # several senders share one message type
        seen.add(key)
        event = manifest.klass(flow.receiver_class).events[flow.event_label]
        receiver_side = partition.side_of(flow.receiver_class)
        direction = "sw_to_hw" if receiver_side == "hw" else "hw_to_sw"
        fields: list[MessageField] = []
        offset = 0
        # every message addresses a target instance on the far side
        fields.append(MessageField("target_instance", "unique_id", 0, 32))
        offset = 32
        for pname, ptag in event.params:
            dtype = tag_to_dtype(ptag, manifest.enums)
            width = _field_width_bits(dtype)
            fields.append(MessageField(pname, ptag, offset, width))
            offset += width
        messages.append(Message(
            message_id=next_id,
            name=f"{flow.receiver_class.lower()}_{flow.event_label.lower()}",
            event_label=flow.event_label,
            sender_class=flow.sender_class,
            receiver_class=flow.receiver_class,
            direction=direction,
            fields=tuple(fields),
            protection=protection_from_marks(
                marks, manifest.name, flow.receiver_class),
        ))
        next_id += 1
    return InterfaceSpec(manifest.name, tuple(messages))


# ---------------------------------------------------------------------------
# codecs: byte-level pack/unpack driven by an emitted artifact's layout table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FrameSpec:
    """Framing of one protected message, parsed from a LAYOUT-FRAME line."""

    crc: str                        # "crc8" or "crc16"
    frame_bytes: int
    max_retries: int = 0
    retry_backoff_ns: int = 2_000
    critical: bool = False


@dataclass
class InterfaceCodec:
    """Packs and unpacks boundary messages from a parsed layout table.

    Build one with :meth:`from_artifact` on *generated text* (C header or
    VHDL package): the codec then knows only what the artifact says, so
    two codecs agreeing on every byte is a genuine statement about the
    artifacts, not about the spec they came from.

    A layout of byte-aligned 1, 2, 4 or 8-byte integers packs through one
    compiled little-endian ``struct.Struct`` (gaps are pad bytes).  Other
    layouts, and values the struct rejects (missing, out of range, not an
    int), take the per-field path: the same bytes and the same errors.
    """

    #: message name -> (message_id, payload_bytes, [(field, tag, off, width)])
    layouts: dict[str, tuple[int, int, list[tuple[str, str, int, int]]]]
    #: message name -> FrameSpec, for messages carrying a CRC trailer
    frames: dict[str, "FrameSpec"] = field(default_factory=dict)

    def __post_init__(self):
        # message name -> (its compiled struct, its field names in order)
        compiled = ((name, _layout_struct(size, fields))
                    for name, (_, size, fields) in self.layouts.items())
        self._structs = {name: c for name, c in compiled if c is not None}

    @classmethod
    def from_artifact(cls, text: str) -> "InterfaceCodec":
        layouts: dict[str, tuple[int, int, list]] = {}
        frames: dict[str, FrameSpec] = {}
        for raw in text.splitlines():
            line = raw.strip().lstrip("-/ ").strip()
            if line.startswith("LAYOUT-MSG "):
                parts = line.split()
                name = parts[1]
                values = dict(p.split("=", 1) for p in parts[2:])
                layouts[name] = (int(values["id"]), int(values["bytes"]), [])
            elif line.startswith("LAYOUT-FIELD "):
                parts = line.split()
                name, fname = parts[1], parts[2]
                values = dict(p.split("=", 1) for p in parts[3:])
                if name not in layouts:
                    raise InterfaceError(
                        f"LAYOUT-FIELD before LAYOUT-MSG for {name!r}"
                    )
                layouts[name][2].append(
                    (fname, values["type"], int(values["offset"]),
                     int(values["width"]))
                )
            elif line.startswith("LAYOUT-FRAME "):
                parts = line.split()
                name = parts[1]
                values = dict(p.split("=", 1) for p in parts[2:])
                if name not in layouts:
                    raise InterfaceError(
                        f"LAYOUT-FRAME before LAYOUT-MSG for {name!r}"
                    )
                frames[name] = FrameSpec(
                    crc=values["crc"],
                    frame_bytes=int(values["frame_bytes"]),
                    max_retries=int(values.get("retries", 0)),
                    retry_backoff_ns=int(values.get("backoff_ns", 2000)),
                    critical=values.get("critical", "0") == "1",
                )
        return cls(layouts, frames)

    def message_names(self) -> tuple[str, ...]:
        return tuple(sorted(self.layouts))

    def message_id(self, name: str) -> int:
        return self.layouts[name][0]

    def pack(self, name: str, values: dict) -> bytes:
        """Encode *values* into the message's byte layout."""
        if name in self._structs:
            layout, names = self._structs[name]
            try:
                return layout.pack(*map(values.__getitem__, names))
            except (KeyError, struct.error):
                pass   # the per-field path raises what it raises
        try:
            _, payload_bytes, fields = self.layouts[name]
        except KeyError:
            raise InterfaceError(f"unknown message {name!r}") from None
        buffer = bytearray(payload_bytes)
        for fname, tag, offset_bits, width_bits in fields:
            if fname not in values:
                raise InterfaceError(f"{name}: missing field {fname!r}")
            start = offset_bits // 8
            if tag in _BYTE_TAGS:
                encoded = _encode_field(tag, width_bits, values[fname])
                buffer[start:start + len(encoded)] = encoded
            else:   # integer / unique_id / timestamp / inst_ref / enum:*
                width_bytes = (width_bits + 7) // 8
                buffer[start:start + width_bytes] = int(
                    values[fname]).to_bytes(width_bytes, "little",
                                            signed=tag == "integer")
        return bytes(buffer)

    def unpack(self, name: str, payload: bytes) -> dict:
        """Decode a payload back into field values."""
        try:
            _, payload_bytes, fields = self.layouts[name]
        except KeyError:
            raise InterfaceError(f"unknown message {name!r}") from None
        if len(payload) != payload_bytes:
            raise InterfaceError(
                f"{name}: payload is {len(payload)} bytes, "
                f"layout says {payload_bytes}"
            )
        if name in self._structs:
            layout, names = self._structs[name]
            return dict(zip(names, layout.unpack(payload)))
        values: dict[str, object] = {}
        for fname, tag, offset_bits, width_bits in fields:
            start = offset_bits // 8
            chunk = payload[start:start + (width_bits + 7) // 8]
            try:
                values[fname] = _decode_field(tag, width_bits, chunk)
            except (struct.error, UnicodeDecodeError, IndexError,
                    ValueError, OverflowError) as exc:
                raise InterfaceError(
                    f"{name}.{fname}: malformed bytes "
                    f"({chunk.hex() or 'empty'}): {exc}"
                ) from exc
        return values

    # -- reliability framing ------------------------------------------------

    def frame(self, name: str, payload: bytes, sequence: int) -> bytes:
        """Append the seq16 + CRC trailer to a packed payload."""
        try:
            spec = self.frames[name]
        except KeyError:
            raise InterfaceError(f"message {name!r} is not framed") from None
        body = payload + (sequence & 0xFFFF).to_bytes(2, "little")
        if spec.crc == "crc8":
            trailer = bytes((crc8(body), 0))
        else:
            trailer = crc16_ccitt(body).to_bytes(2, "little")
        framed = body + trailer
        if len(framed) != spec.frame_bytes:
            raise InterfaceError(
                f"{name}: framed {len(framed)} bytes, "
                f"frame spec says {spec.frame_bytes}"
            )
        return framed

    def deframe(self, name: str, framed: bytes) -> tuple[bytes, int]:
        """Strip and verify the trailer; returns ``(payload, sequence)``.

        Raises :class:`InterfaceError` on any length or CRC mismatch —
        this is the *detection* half of the resilience protocol.
        """
        try:
            spec = self.frames[name]
        except KeyError:
            raise InterfaceError(f"message {name!r} is not framed") from None
        if len(framed) != spec.frame_bytes:
            raise InterfaceError(
                f"{name}: frame is {len(framed)} bytes, "
                f"spec says {spec.frame_bytes}"
            )
        body, trailer = framed[:-2], framed[-2:]
        if spec.crc == "crc8":
            if trailer[1] != 0:
                raise InterfaceError(f"{name}: nonzero CRC-8 pad byte")
            if crc8(body) != trailer[0]:
                raise InterfaceError(f"{name}: CRC-8 mismatch")
        else:
            if crc16_ccitt(body) != int.from_bytes(trailer, "little"):
                raise InterfaceError(f"{name}: CRC-16 mismatch")
        payload, seq_bytes = body[:-2], body[-2:]
        return payload, int.from_bytes(seq_bytes, "little")


#: field tags :meth:`InterfaceCodec.pack` encodes with :func:`_encode_field`;
#: every other tag is an integer of exactly the field's width
_BYTE_TAGS = frozenset(("real", "string", "boolean"))

#: width in bits -> struct format of a signed integer (upper case: unsigned)
_INT_FORMATS = {8: "b", 16: "h", 32: "i", 64: "q"}


def _layout_struct(payload_bytes: int, fields):
    """``(struct, field names)`` for a layout of byte-aligned 1/2/4/8-byte
    integer fields in offset order within *payload_bytes*, else None."""
    formats, end = ["<"], 0
    for _fname, tag, offset_bits, width_bits in fields:
        start, misaligned = divmod(offset_bits, 8)
        letter = _INT_FORMATS.get(width_bits)
        if tag in _BYTE_TAGS or not letter or misaligned or start < end:
            return None
        formats.append("x" * (start - end)
                       + (letter if tag == "integer" else letter.upper()))
        end = start + width_bits // 8
    if end > payload_bytes:
        return None
    formats.append("x" * (payload_bytes - end))
    return struct.Struct("".join(formats)), tuple(f[0] for f in fields)


def _encode_field(tag: str, width_bits: int, value) -> bytes:
    width_bytes = (width_bits + 7) // 8
    if tag == "real":
        return struct.pack("<d", float(value))
    if tag == "string":
        data = str(value).encode("utf-8")[:width_bytes]
        return data.ljust(width_bytes, b"\x00")
    return (b"\x01" if value else b"\x00").ljust(width_bytes, b"\x00")


def _decode_field(tag: str, width_bits: int, chunk: bytes):
    if tag == "real":
        return struct.unpack("<d", chunk)[0]
    if tag == "string":
        return chunk.rstrip(b"\x00").decode("utf-8")
    if tag == "boolean":
        return chunk[0] != 0
    # integer / unique_id / timestamp / inst_ref handles / enum:* indices
    signed = tag == "integer"
    return int.from_bytes(chunk, "little", signed=signed)
