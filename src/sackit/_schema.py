"""JSON schema (draft-07) of a certificate's JSON form, `sackit.CERT_SCHEMA`;
certificates are written in `sackit.certify`, which never reads it."""

from .certify import SCHEMA_VERSION

CERT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "definitions": {
        "citation": {
            "type": "object",
            "required": ["where", "quote"],
            "properties": {
                "where": {"type": "string"},
                "quote": {"type": "string"},
            },
            "additionalProperties": False,
        },
        "premise": {
            "type": "object",
            "required": ["statement", "status"],
            "properties": {
                "statement": {"type": "string"},
                "status": {"enum": ["Verified", "Asserted"]},
                "evidence": {"type": "object"},
            },
            "additionalProperties": False,
        },
        "certificate": {
            "type": "object",
            "required": ["goal", "verdict", "rule", "citation", "premises", "children"],
            "properties": {
                "goal": {"type": "string"},
                "verdict": {"enum": ["Certified", "Unknown"]},
                "rule": {"type": ["string", "null"]},
                "citation": {
                    "anyOf": [
                        {"$ref": "#/definitions/citation"},
                        {"type": "null"},
                    ]
                },
                "premises": {
                    "type": "array",
                    "items": {"$ref": "#/definitions/premise"},
                },
                "children": {
                    "type": "array",
                    "items": {"$ref": "#/definitions/certificate"},
                },
                "attempted": {"type": "array", "items": {"type": "string"}},
                "schema": {"const": SCHEMA_VERSION},
            },
            "additionalProperties": False,
        },
    },
    "allOf": [{"$ref": "#/definitions/certificate"}],
    "required": ["schema"],
}
