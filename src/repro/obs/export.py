"""Structured JSONL trace export — one stable, versioned schema.

A trace stream is one header line followed by one line per event:

    {"schema":"repro.trace","version":1}
    {"data":{...},"index":0,"kind":"instance_created","time":0}

Every line is canonical JSON (sorted keys, no whitespace), which makes
the format *byte-stable*: ``load_jsonl`` followed by ``dump_jsonl``
reproduces the input byte for byte, so traces can be diffed, content-
addressed and archived without a parser in the loop.  Readers reject
any stream whose schema name or version they do not understand — the
version is the contract that lets the format evolve without silently
misreading old archives.

Every executor -- the abstract runtime, csim, vsim and the
co-simulation -- records its own :class:`~repro.runtime.tracing.Trace`
and exports it as is, so one loader serves them all.
"""

from __future__ import annotations

import json

from repro.runtime.tracing import FIELDS, KIND_OF, Trace, record_data

#: Schema identifier carried by every trace stream's header line.
SCHEMA = "repro.trace"

#: Bump on any change to the line layout or event encoding.
SCHEMA_VERSION = 1


class TraceSchemaError(Exception):
    """The stream is not a trace this reader understands."""


def _dumps(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def dump_jsonl(trace: Trace) -> str:
    """Serialize *trace* to the versioned JSONL format (ends with \\n)."""
    lines = [_dumps({"schema": SCHEMA, "version": SCHEMA_VERSION})]
    lines.extend(
        _dumps({
            "data": record_data(record),
            "index": index,
            "kind": record[1],
            "time": record[0],
        })
        for index, record in enumerate(trace.records())
    )
    return "\n".join(lines) + "\n"


def load_jsonl(text: str) -> Trace:
    """Parse a trace stream back into a :class:`Trace`.

    Raises :class:`TraceSchemaError` for a missing/foreign header, an
    unsupported version, malformed lines, unknown or non-string event
    kinds, a time that is not an integer, event data whose keys are not
    exactly the kind's :data:`FIELDS` or whose values are not atoms
    (``LOG`` data is free-form), or event indices that do not form the
    gap-free 0..n-1 sequence an append-only trace guarantees.
    """
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise TraceSchemaError("empty stream: missing trace header line")
    header = _parse_line(lines[0], 1)
    if header.get("schema") != SCHEMA:
        raise TraceSchemaError(
            f"not a {SCHEMA} stream (header schema is "
            f"{header.get('schema')!r})")
    version = header.get("version")
    if version != SCHEMA_VERSION:
        raise TraceSchemaError(
            f"unsupported trace schema version {version!r} "
            f"(this reader understands version {SCHEMA_VERSION})")
    trace = Trace()
    for lineno, line in enumerate(lines[1:], start=2):
        record = _parse_line(line, lineno)
        try:
            kind_name = record["kind"]
            time = record["time"]
            index = record["index"]
            data = record["data"]
        except KeyError as exc:
            raise TraceSchemaError(
                f"line {lineno}: event record misses field {exc}") from None
        kind = KIND_OF.get(kind_name) if isinstance(kind_name, str) else None
        if kind is None:
            raise TraceSchemaError(
                f"line {lineno}: unknown event kind {kind_name!r}")
        if not isinstance(time, int) or isinstance(time, bool):
            raise TraceSchemaError(
                f"line {lineno}: event time must be an integer, "
                f"got {time!r}")
        if not isinstance(data, dict):
            raise TraceSchemaError(
                f"line {lineno}: event data must be an object, "
                f"got {type(data).__name__}")
        if index != len(trace):
            raise TraceSchemaError(
                f"line {lineno}: event index {index} breaks the "
                f"append-only sequence (expected {len(trace)})")
        fields = FIELDS[kind]
        if fields is None:
            trace.record(time, kind, data)
            continue
        if data.keys() != set(fields):
            raise TraceSchemaError(
                f"line {lineno}: {kind_name} data has keys "
                f"{sorted(data)}, expected {sorted(fields)}")
        for name in fields:
            if isinstance(data[name], (list, dict)):
                raise TraceSchemaError(
                    f"line {lineno}: {kind_name} field {name!r} must be an "
                    f"atom, got {type(data[name]).__name__}")
        trace.record(time, kind, *(data[name] for name in fields))
    return trace


def _parse_line(line: str, lineno: int) -> dict:
    try:
        parsed = json.loads(line)
    except json.JSONDecodeError as exc:
        raise TraceSchemaError(f"line {lineno}: not JSON ({exc})") from None
    if not isinstance(parsed, dict):
        raise TraceSchemaError(
            f"line {lineno}: expected a JSON object, "
            f"got {type(parsed).__name__}")
    return parsed
