"""Catalog of the prebuilt models.

Tests, examples and benchmarks iterate :func:`all_models` so new models
are picked up everywhere automatically.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.xuml import Model

from .checksum import build_checksum_model
from .elevator import build_elevator_model
from .microwave import build_microwave_model
from .packetproc import build_packetproc_model
from .trafficlight import build_trafficlight_model


@dataclass(frozen=True)
class CatalogEntry:
    """One prebuilt model and what it demonstrates."""

    name: str
    build: object          # (check=True) -> Model; False skips check_model
    highlight: str


CATALOG: tuple[CatalogEntry, ...] = (
    CatalogEntry("microwave", build_microwave_model,
                 "self events, delays, association navigation, bridges"),
    CatalogEntry("trafficlight", build_trafficlight_model,
                 "timer-driven phase machine, cross-class requests"),
    CatalogEntry("packetproc", build_packetproc_model,
                 "five-stage SoC pipeline, the E4/E7 workload"),
    CatalogEntry("elevator", build_elevator_model,
                 "instance create/delete, select-where, for-each"),
    CatalogEntry("checksum", build_checksum_model,
                 "creation events, synchronous operations"),
)


def all_models() -> dict[str, Model]:
    """Build every catalog model (each checked for well-formedness)."""
    return {entry.name: entry.build() for entry in CATALOG}


def build_model(name: str) -> Model:
    for entry in CATALOG:
        if entry.name == name:
            return entry.build()
    raise KeyError(f"no catalog model named {name!r}")
