"""Correctness of workload answers: goldens where recorded, invariants always.

``golden.json`` holds, per workload and seed, the answer and every BER
point (bits, errors, activity) recorded at the seed commit.  On a seed with
a golden, every evaluation must equal it.  On any other seed, every
evaluation must equal the run's first one (in a traced run: the untraced
parallel evaluation), so traced serial answers must match untraced parallel
ones.  Invariants that hold for any seed are checked on every evaluation.
"""

from __future__ import annotations

import json
import os

from workloads import TARGET_BER

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")
RESOLUTION_DB = 0.25    # snr_operating_point's default grid


def load_golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def _bisection_ok(points, op: float, **cfg) -> bool:
    """op has BER at or below target and a probe within one grid step below
    it has BER above target, as a bisection must leave them."""
    mine = [p for p in points if all(p[k] == v for k, v in cfg.items())]
    ber = {p["snr_db"]: p["errors"] / p["bits"] for p in mine}
    return (op in ber and ber[op] <= TARGET_BER
            and any(op - RESOLUTION_DB - 1e-9 <= s < op and b > TARGET_BER
                    for s, b in ber.items()))


def invariants(name: str, answer: dict, points: list) -> list[str]:
    """Properties every correct answer has, whatever the seed."""
    bad = [f"point {i} has errors/bits {p['errors']}/{p['bits']}"
           for i, p in enumerate(points) if not 0 <= p["errors"] <= p["bits"] > 0]
    if name == "snrop-cspade":
        if not _bisection_ok(points, answer["op_almmse_db"], algorithm="almmse"):
            bad.append("ALMMSE operating point is not a bisection result")
        if not _bisection_ok(points, answer["op_cspade_db"], algorithm="cspade"):
            bad.append("CSPADE operating point is not a bisection result")
        last = points[-1]
        if (last["snr_db"], last["mean_alpha"]) != (answer["op_cspade_db"], answer["alpha"]):
            bad.append("alpha is not the activity at the CSPADE operating point")
    elif name == "ber-nlos-ls":
        if answer["ber"] != [p["errors"] / p["bits"] for p in points]:
            bad.append("BER curve does not match its points")
    elif name == "pareto-eomp":
        for q in answer["pareto"]:
            if q["alpha"] != q["delta"]:
                bad.append(f"EOMP alpha {q['alpha']!r} != delta {q['delta']!r}")
            if not _bisection_ok(points, q["snr_op_db"], delta=q["delta"]):
                bad.append(f"delta {q['delta']} operating point is not a bisection result")
    return bad


def score(w, seed: int, outcomes) -> tuple[int, int, list[str]]:
    """(BER points attempted, points failed, problems) over all evaluations.

    A point fails when it differs from the reference or is missing because
    an evaluation raised.  A wrong answer or broken invariant fails at
    least one point of its evaluation.
    """
    golden = load_golden().get(w.name, {}).get(str(seed))
    ref = golden or {"answer": outcomes[0].answer, "points": outcomes[0].points}
    attempted = failed = 0
    problems = []
    for i, o in enumerate(outcomes):
        n = max(len(o.points), len(ref["points"]), 1)
        bad = sum(1 for k in range(n)
                  if k >= len(o.points) or k >= len(ref["points"])
                  or o.points[k] != ref["points"][k])
        issues = [o.error] if o.error else invariants(w.name, o.answer, o.points)
        if o.answer != ref["answer"]:
            issues.append(f"answer {o.answer} != reference {ref['answer']}")
        if bad:
            issues.append(f"{bad} of {n} BER points differ from the reference")
        if issues:
            bad = max(bad, 1)
            problems += [f"evaluation {i}: {x}" for x in issues]
        attempted += n
        failed += bad
    return attempted, failed, problems
