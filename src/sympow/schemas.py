"""JSON schemas of the CLI's ``--format json`` reports, one per subcommand.

The README's JSON section describes the same shapes; the tests validate
every report the CLI writes against these.
"""

SYMPOW_SCHEMA = {
    "type": "object",
    "required": ["ideal", "n", "generators", "degrees"],
    "properties": {
        "ideal": {"type": "string"},
        "n": {"type": "integer"},
        "generators": {"type": "array", "items": {"type": "string"}},
        "degrees": {
            "type": "object",
            "required": ["max", "beg", "count"],
            "properties": {
                "max": {"type": ["integer", "null"]},
                "beg": {"type": ["integer", "null"]},
                "count": {"type": "integer"},
            },
        },
    },
}

BOUNDS_SCHEMA = {
    "type": "object",
    "required": ["ideal", "n", "reports", "lcm_monomial", "lcm_degree"],
    "additionalProperties": False,
    "properties": {
        "ideal": {"type": "string"},
        "n": {"type": "integer"},
        "reports": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["bound_kind", "n", "d_In", "bound", "satisfied"],
                "properties": {
                    "bound_kind": {"enum": ["huneke_D_times_n", "lcm_degree"]},
                    "n": {"type": "integer"},
                    "d_In": {"type": "integer"},
                    "bound": {"type": "integer"},
                    "satisfied": {"type": "boolean"},
                },
            },
        },
        "lcm_monomial": {"type": "string"},
        "lcm_degree": {"type": "integer"},
    },
}

GROWTH_SCHEMA = {
    "type": "object",
    "required": ["ideal", "N", "entries", "complete"],
    "properties": {
        "ideal": {"type": "string"},
        "N": {"type": "integer"},
        "entries": {
            "type": "array",
            "items": {"type": "array", "items": {"type": "integer"},
                      "minItems": 2, "maxItems": 2},
        },
        "complete": {"type": "boolean"},
    },
}

VERIFY_SCHEMA = {
    "type": "object",
    "required": ["cases", "all_pass", "budget_exhausted"],
    "properties": {
        "cases": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["case", "claims"],
                "properties": {
                    "case": {"type": "string"},
                    "claims": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["claim", "pass", "seconds"],
                            "properties": {
                                "claim": {"type": "string"},
                                "pass": {"type": "boolean"},
                                "seconds": {"type": "number"},
                                "detail": {"type": "string"},
                            },
                        },
                    },
                    "notes": {"type": "array", "items": {"type": "string"}},
                },
            },
        },
        "all_pass": {"type": "boolean"},
        "budget_exhausted": {"type": "boolean"},
    },
}
