"""Validation of CLI report objects against the shipped schema file.

Implements the small JSON Schema subset the reports need (type,
properties, required, items, enum) so no extra dependency is pulled in.
An object whose schema lists ``properties`` may hold no other key.
"""

from __future__ import annotations

import json
from importlib import resources

from .errors import InternalConsistencyError

_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "boolean": bool,
    "integer": int,
    "null": type(None),
}


def load_schema() -> dict:
    with resources.files("conecalc").joinpath("schemas/report.schema.json").open() as fh:
        return json.load(fh)


def _check(obj, schema, path, defs):
    if "$ref" in schema:
        name = schema["$ref"].split("/")[-1]
        _check(obj, defs[name], path, defs)
        return
    typ = schema.get("type")
    if typ is not None:
        options = typ if isinstance(typ, list) else [typ]

        def _one(t):
            if t == "number":
                return isinstance(obj, (int, float)) and not isinstance(obj, bool)
            if t == "integer":
                return isinstance(obj, int) and not isinstance(obj, bool)
            return isinstance(obj, _TYPES[t])

        if not any(_one(t) for t in options):
            raise InternalConsistencyError(f"{path}: expected {typ}, got {type(obj).__name__}")
    if "enum" in schema and obj not in schema["enum"]:
        raise InternalConsistencyError(f"{path}: {obj!r} not in {schema['enum']}")
    if isinstance(obj, dict):
        for key in schema.get("required", []):
            if key not in obj:
                raise InternalConsistencyError(f"{path}: missing required key {key!r}")
        if "properties" in schema:
            for key, value in obj.items():
                if key not in schema["properties"]:
                    raise InternalConsistencyError(f"{path}: undeclared key {key!r}")
                _check(value, schema["properties"][key], f"{path}.{key}", defs)
    if isinstance(obj, list) and "items" in schema:
        for i, item in enumerate(obj):
            _check(item, schema["items"], f"{path}[{i}]", defs)


def validate_report(report: dict) -> None:
    """Validate a CLI report against the shipped schema.

    Dispatches on the report's ``command`` field; raises
    InternalConsistencyError on the first mismatch.
    """
    schema = load_schema()
    defs = schema["definitions"]
    if not isinstance(report, dict):
        raise InternalConsistencyError("report must be a JSON object")
    if "error" in report:  # usage errors precede any command
        _check(report, defs["error_report"], "$", defs)
        return
    if "command" not in report:
        raise InternalConsistencyError("report has no command")
    command = report["command"]
    if "report" in report:
        name = f"{command}_{report['report']}_report"
    else:
        name = f"{command}_report"
    if name not in defs:
        raise InternalConsistencyError(f"no schema definition for command {command!r}")
    _check(report, defs[name], "$", defs)
