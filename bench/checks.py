"""Output checks.  Each request's expected outcome is computed here, from the
request and the JSON it printed, without calling the program.

``judge`` returns ``("ok", "")``, ``("failed", reason)`` for a request that
did not finish (uncaught exception, traceback, exit 3) or ``("wrong",
reason)`` for one that finished with an output that fails its check.
"""

from __future__ import annotations

import json

import lie


class CheckError(Exception):
    pass


def _require(cond: bool, reason: str) -> None:
    if not cond:
        raise CheckError(reason)


def _relation_sums_to_zero(coeffs, weights) -> bool:
    dim = len(weights[0])
    return all(sum(c * w[j] for c, w in zip(coeffs, weights)) == 0 for j in range(dim))


def _check_relation(coeffs, weights, what: str) -> None:
    _require(len(coeffs) == len(weights) and weights, f"{what}: coefficients do not match weights")
    _require(all(c >= 0 for c in coeffs) and any(coeffs), f"{what}: not a nonzero relation")
    _require(_relation_sums_to_zero(coeffs, weights), f"{what}: relation does not sum to zero")


def _parse_torus_weights(argv) -> list[tuple[int, ...]]:
    text = next(a for a in argv if a.startswith("--weights=")).split("=", 1)[1]
    if "(" in text:
        return [tuple(int(x) for x in p.strip("()").split(",")) for p in text.split(";")]
    return [(int(x),) for x in text.split(",")]


def _classify(argv, rc, payload, reference) -> None:
    want = reference[(argv[1], argv[2])]
    rows = payload["rows"]
    _require(len(rows) == 1, "classify: expected one row")
    got = rows[0]["coreduced"]
    _require(got == want, f"classify: verdict {got}, reference {want}")
    _require(rc == (0 if got.startswith("yes") else 1), f"classify: exit {rc} for {got}")
    for row in rows:
        if row["coreduced"] == "no":
            _require(bool(row["certificates"]), "classify: 'no' without a certificate")
        for cert in row["certificates"]:
            if cert.get("weights") and cert.get("coeffs"):
                _check_relation(cert["coeffs"], cert["weights"], f"certificate {cert['kind']}")
                _require(max(cert["coeffs"]) >= 2, f"certificate {cert['kind']}: no coefficient >= 2")


def _weights(argv, rc, payload) -> None:
    _require(rc == 0, f"weights: exit {rc}")
    dim = payload["dimension"]
    _require(
        payload["zero_multiplicity"] + payload["nonzero_weight_count"] == dim,
        "weights: multiplicities do not add up to the dimension",
    )
    hw = tuple(int(x) for x in argv[2].strip("[]").split(","))
    _require(dim == lie.weyl_dim(argv[1], hw), "weights: dimension is not the Weyl dimension")


def _torus_check(argv, rc, payload) -> None:
    ok = payload["coreduced"]
    _require(rc == (0 if ok else 1), f"torus-check: exit {rc} for coreduced={ok}")
    if not ok:
        cert = payload["certificate"]
        nonzero = [list(w) for w in _parse_torus_weights(argv) if any(w)]
        _require(cert["weights"] == nonzero, "torus-check: certificate weights are not the input")
        _check_relation(cert["coeffs"], cert["weights"], "torus-check certificate")
        _require(max(cert["coeffs"]) >= 2, "torus-check: certificate has no coefficient >= 2")


def _hilbert_basis(argv, rc, payload) -> None:
    _require(rc == 0, f"hilbert-basis: exit {rc}")
    weights = payload["weights"]
    _require(weights == [list(w) for w in _parse_torus_weights(argv)], "hilbert-basis: weights echo")
    for gen in payload["generators"]:
        _check_relation(gen, weights, "hilbert-basis generator")


def _covariant(argv, rc, payload) -> None:
    all_vanish = payload["vanishes_on_all"]
    _require(rc == (0 if all_vanish else 1), f"covariant-vanish: exit {rc} for {all_vanish}")
    _require(
        all_vanish == all(c["vanishes"] for c in payload["per_component"]),
        "covariant-vanish: vanishes_on_all disagrees with the components",
    )


def _components(argv, rc, payload) -> None:
    _require(rc == 0, f"components: exit {rc}")
    for c in payload["candidates"]:
        _require(c["dimension"] == len(c["weights"]) > 0, "components: dimension is not the weight count")


def _paper(argv, rc, payload) -> None:
    _require(rc == 0 and payload["ok"] is True, f"verify-paper: exit {rc}, ok {payload['ok']}")
    for suite, checks in payload["suites"].items():
        bad = [c["name"] for c in checks if not c["ok"]]
        _require(not bad, f"verify-paper {suite}: {bad}")


CHECKS = {
    "weights": _weights,
    "torus-check": _torus_check,
    "hilbert-basis": _hilbert_basis,
    "covariant-vanish": _covariant,
    "components": _components,
    "verify-paper": _paper,
}


def judge(argv: list[str], result: dict, reference: dict) -> tuple[str, str]:
    """``result`` has the keys ``rc``, ``out``, ``err`` and ``exc``."""
    rc = result["rc"]
    if result["exc"]:
        return "failed", result["exc"].strip().splitlines()[-1]
    if "Traceback" in result["err"]:
        return "failed", "traceback on stderr"
    if rc == 3:
        return "failed", "resource limit: " + result["err"].strip()
    if argv[0] == "classify" and (argv[1], argv[2]) not in reference:
        # outside the domain of the classify drivers: a usage error
        if rc != 2:
            return "wrong", f"classify outside the domain: exit {rc}, want 2"
        return "ok", ""
    if rc == 2:
        return "wrong", "usage error: " + result["err"].strip()
    try:
        payload = json.loads(result["out"])
        if argv[0] == "classify":
            _classify(argv, rc, payload, reference)
        else:
            CHECKS[argv[0]](argv, rc, payload)
    except CheckError as e:
        return "wrong", str(e)
    except (ValueError, KeyError, TypeError, IndexError) as e:
        return "wrong", f"unreadable output: {type(e).__name__}: {e}"
    return "ok", ""
