"""Answer checks: each returns the list of problems with one job's answer.

Answers are compared with the values recorded in expected.json (record.py
writes them from the library as it stands) and, where the mathematics says
what they must be, with that: |G/N| = |G|/p, dim H^2 by the Kunneth formula,
class-equal round trips, and cor(res(f)) a coboundary.  Pure Python, no pgal.
"""

from __future__ import annotations

import hashlib
import json


def smallest_prime(n: int) -> int:
    return next(k for k in range(2, n + 1) if n % k == 0)


# (d(G), dim H^2(G, F_p)) for the base families, from
# dim H^2(G, F_p) = d(G) + d(M(G)); d(M) is 0 for Q, SD, M and the modular
# groups M(p^n), 1 for dihedral 2-groups, 2 for the Heisenberg group of order 27.
_BASE_H2 = {"D": (2, 3), "Q": (2, 2), "SD": (2, 2), "M": (2, 2),
            "G1:p=3": (2, 4), "G2:p=3": (2, 2), "Mmod:p=3,n=3": (2, 2)}


def _base_h2(part: str, p: int):
    fam, _, rest = part.partition(":")
    if fam == "C":
        return (1, 1) if int(rest) % p == 0 else (0, 0)
    if fam == "EA":
        prm = dict(kv.split("=") for kv in rest.split(","))
        r = int(prm["r"])
        return (r, r * (r + 1) // 2) if int(prm["p"]) == p else (0, 0)
    if fam in ("D", "Q", "SD", "M") and p == 2:
        return _BASE_H2[fam]
    return _BASE_H2.get(part)


def known_h2_dimension(spec: str, p: int):
    """dim H^2(G, F_p) by the Kunneth formula over the factors, or None.

    H^2(X x Y) = H^2(X) + H^1(X) H^1(Y) + H^2(Y), with dim H^1 = d.
    """
    d_total = h2_total = 0
    for part in spec.split("*"):
        base = _base_h2(part, p)
        if base is None:
            return None
        d, h2 = base
        h2_total += h2 + d_total * d
        d_total += d
    return h2_total


def check_inprocess(job: dict, answer: dict, expected: dict) -> list[str]:
    rec = expected.get(job["key"])
    if rec is None:
        return [f"no recorded answer for {job['key']!r}"]
    problems = []
    if job["kind"] == "catalog":
        for field in ("order", "exponent", "center", "index2", "digest"):
            if answer[field] != rec[field]:
                problems.append(f"{field} {answer[field]!r} != recorded {rec[field]!r}")
        want_q = rec["order"] // smallest_prime(rec["order"])
        if answer["quotient"] != want_q:
            problems.append(f"|G/N| {answer['quotient']} != {want_q}")
        return problems
    p = job["p"]
    dim = answer["dimension"]
    if dim != rec["dimension"]:
        problems.append(f"dimension {dim} != recorded {rec['dimension']}")
    known = known_h2_dimension(job["spec"], p)
    if known is not None and dim != known:
        problems.append(f"dimension {dim} != d(G) + d(M(G)) = {known}")
    if answer["classes"] != p ** dim:
        problems.append(f"{answer['classes']} classes != p^dim")
    if answer["roundtrip"] != [True] * len(job["picks"]):
        problems.append(f"cocycle -> extension -> cocycle not class-equal: {answer['roundtrip']}")
    want_cor = [True, True] if p == 2 else None
    if answer["cor"] != want_cor:
        problems.append(f"cor(res(f)) is_cocycle/is_coboundary {answer['cor']} != {want_cor}")
    return problems


def check_cli(job: dict, answer: dict, expected: dict) -> list[str]:
    """Exit code and stdout digest as recorded; exit 1 carries {error, detail}."""
    rec = expected.get(job["key"])
    if rec is None:
        return [f"no recorded answer for {job['key']!r}"]
    problems = []
    if answer["code"] != rec["code"]:
        problems.append(f"exit code {answer['code']} != recorded {rec['code']}")
    if stdout_digest(answer["stdout"]) != rec["stdout_sha256"]:
        problems.append(f"stdout differs from the recorded one: {answer['stdout'][:200]!r}")
    if answer["code"] == 1:
        try:
            keys = set(json.loads(answer["stdout"]))
        except ValueError:
            keys = set()
        if keys != {"error", "detail"}:
            problems.append("exit 1 without the {error, detail} document")
    return problems


def stdout_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check(job: dict, answer: dict, expected: dict) -> list[str]:
    if job["kind"] == "cli":
        return check_cli(job, answer, expected)
    return check_inprocess(job, answer, expected)
