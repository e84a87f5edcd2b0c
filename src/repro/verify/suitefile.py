"""Test-suite files — formal test cases as versionable JSON.

Formal test cases are specification artifacts (paper section 2), so like
models they belong in version control and must survive tool sessions.
This module round-trips :class:`~repro.verify.testcase.TestCase` lists
through JSON, and the CLI's ``run-suite`` command executes a suite file
against a model file on every platform.
"""

from __future__ import annotations

import json

from .testcase import (
    AdvanceStep,
    CreateStep,
    CreationEventStep,
    ExpectAttr,
    ExpectAttrOnOnly,
    ExpectCount,
    ExpectState,
    InjectStep,
    RelateStep,
    RunStep,
    TestCase,
)

FORMAT_VERSION = 1


class SuiteFileError(Exception):
    """Malformed or incompatible suite file."""


_STEP_TO_DICT = {
    CreateStep: lambda s: {"do": "create", "name": s.name,
                           "class": s.class_key,
                           "attributes": dict(s.attributes)},
    RelateStep: lambda s: {"do": "relate", "left": s.left, "right": s.right,
                           "association": s.association, "phrase": s.phrase},
    InjectStep: lambda s: {"do": "inject", "name": s.name, "label": s.label,
                           "params": dict(s.params),
                           "delay_us": s.delay_us},
    CreationEventStep: lambda s: {"do": "creation_event",
                                  "class": s.class_key, "label": s.label,
                                  "params": dict(s.params)},
    RunStep: lambda s: {"do": "run", "max_steps": s.max_steps},
    AdvanceStep: lambda s: {"do": "advance", "time_us": s.time_us},
    ExpectState: lambda s: {"do": "expect_state", "name": s.name,
                            "state": s.state},
    ExpectAttr: lambda s: {"do": "expect_attr", "name": s.name,
                           "attribute": s.attribute, "value": s.value},
    ExpectCount: lambda s: {"do": "expect_count", "class": s.class_key,
                            "count": s.count},
    ExpectAttrOnOnly: lambda s: {"do": "expect_attr_on_only",
                                 "class": s.class_key,
                                 "attribute": s.attribute,
                                 "value": s.value},
}


def _step_from_dict(data: dict):
    kind = data.get("do")
    if kind == "create":
        return CreateStep(data["name"], data["class"],
                          dict(data.get("attributes", {})))
    if kind == "relate":
        return RelateStep(data["left"], data["right"], data["association"],
                          data.get("phrase"))
    if kind == "inject":
        return InjectStep(data["name"], data["label"],
                          dict(data.get("params", {})),
                          data.get("delay_us", 0))
    if kind == "creation_event":
        return CreationEventStep(data["class"], data["label"],
                                 dict(data.get("params", {})))
    if kind == "run":
        return RunStep(data.get("max_steps", 1_000_000))
    if kind == "advance":
        return AdvanceStep(data["time_us"])
    if kind == "expect_state":
        return ExpectState(data["name"], data["state"])
    if kind == "expect_attr":
        return ExpectAttr(data["name"], data["attribute"], data["value"])
    if kind == "expect_count":
        return ExpectCount(data["class"], data["count"])
    if kind == "expect_attr_on_only":
        return ExpectAttrOnOnly(data["class"], data["attribute"],
                                data["value"])
    raise SuiteFileError(f"unknown step kind {kind!r}")


def suite_to_dict(cases: list[TestCase]) -> dict:
    return {
        "format": FORMAT_VERSION,
        "cases": [
            {
                "name": case.name,
                "steps": [_STEP_TO_DICT[type(step)](step)
                          for step in case.steps],
            }
            for case in cases
        ],
    }


def suite_to_json(cases: list[TestCase]) -> str:
    return json.dumps(suite_to_dict(cases), indent=2)


def suite_from_dict(data: dict) -> list[TestCase]:
    if data.get("format") != FORMAT_VERSION:
        raise SuiteFileError(
            f"unsupported suite format {data.get('format')!r}")
    cases = []
    for case_data in data.get("cases", []):
        case = TestCase(case_data["name"])
        for step_data in case_data.get("steps", []):
            case.steps.append(_step_from_dict(step_data))
        cases.append(case)
    return cases


def suite_from_json(text: str) -> list[TestCase]:
    return suite_from_dict(json.loads(text))
