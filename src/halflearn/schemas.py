"""JSON schemas for the machine-readable reports the CLI emits."""

TESTER_REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["accepted", "samples_used", "checks"],
    "properties": {
        "accepted": {"type": "boolean"},
        "samples_used": {"type": "integer", "minimum": 0},
        "checks": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "measured", "threshold", "passed"],
                "properties": {
                    "name": {"type": "string"},
                    "measured": {"type": "number"},
                    "threshold": {"type": "number"},
                    "passed": {"type": "boolean"},
                },
            },
        },
    },
}

LEARN_RESULT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["rejected", "sigma_used", "candidates_examined", "tester_reports"],
    "properties": {
        "rejected": {"type": "boolean"},
        "hypothesis": {"type": "array", "items": {"type": "number"}},
        "empirical_error": {"type": "number", "minimum": 0, "maximum": 1},
        "sigma_used": {"type": "number"},
        "candidates_examined": {"type": "integer", "minimum": 0},
        "analytic_excess_bound": {"type": "number"},
        "tester_reports": {"type": "array", "items": TESTER_REPORT_SCHEMA},
    },
}

EVAL_METRICS_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["empirical_error"],
    "properties": {
        "empirical_error": {"type": "number", "minimum": 0, "maximum": 1},
        "angle_to_planted": {"type": "number"},
        "planted_error": {"type": "number"},
        "opt_2d": {"type": "number"},
        "w_opt": {"type": "array", "items": {"type": "number"}},
        "excess_error": {"type": "number"},
    },
}

MANIFEST_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["command", "config", "seed", "artifact_version", "timestamps"],
    "properties": {
        "command": {"type": "string"},
        "config": {"type": "object"},
        "seed": {"type": ["integer", "null"]},
        "artifact_version": {"type": "string"},
        "timestamps": {
            "type": "object",
            "required": ["start", "end"],
            "properties": {"start": {"type": "string"}, "end": {"type": "string"}},
        },
    },
}
