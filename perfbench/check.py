"""Self-check of the benchmark's own output.

`validate` takes the result object the benchmark is about to print
and the metric list it promised (from BENCHMARK.json) and returns
every way the result breaks that promise: a metric missing, not a
finite number, or carrying the wrong unit; an unpromised metric; or
malformed counts. run.py refuses to print a result that has any.
"""

import math

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def promised(spec, traced):
    """Name -> unit of the metrics one run must print."""
    key = "per_layer" if traced else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def validate(result, expected_units):
    """List of problems with `result` (empty when it is well formed)."""
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append("result keys are %s" % sorted(result))
        return problems
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a boolean")
    for key, least in (("attempted", 1), ("failed", 0)):
        value = result[key]
        if isinstance(value, bool) or not isinstance(value, int) or value < least:
            problems.append("%s must be a whole number >= %d" % (key, least))
    metrics = result["metrics"]
    for name, unit in expected_units.items():
        m = metrics.get(name)
        if m is None:
            problems.append("metric %s is missing" % name)
            continue
        if set(m) != {"value", "unit"}:
            problems.append("metric %s has keys %s" % (name, sorted(m)))
        value = m.get("value")
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not math.isfinite(value)):
            problems.append("metric %s is not a finite number: %r" % (name, value))
        if m.get("unit") != unit:
            problems.append("metric %s has unit %r, expected %r"
                            % (name, m.get("unit"), unit))
    for name in metrics:
        if name not in expected_units:
            problems.append("metric %s is not listed in BENCHMARK.json" % name)
    return problems
