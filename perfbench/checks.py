"""Output checks for every op: the recorded seed output plus closed forms.

Every op the seed can draw has its stdout digest and exit code recorded in
``expected.json`` (see ``record.py``).  Where an independent closed form
exists, it is checked as well:

* ``ext_rsz``: dim Ext^i(k,k) = (e-1)^i over k[e..2e-1]/(t^e), where the
  radical squares to zero and the embedding dimension is e-1;
* ``ext_free``: Ext^0(A,A) = A has dimension q over k[H]/(t^q) and
  Ext^{>=1}(A,A) = 0;
* ``ulrich_layers``: for an Ulrich ideal every power layer I^i/I^(i+1) has
  length mu * colength, which is ulrich_rank_formula(1, mu, i) * colength;
* ``betti``: the Betti numbers from ``minimal_resolution`` equal
  dim Ext^i(M,k) from the component-splitting ``ext_dims`` path (recorded),
  and equal (e-1)^i for k over a radical-square-zero truncation;
* ``sgp_oracle``: ``sgp info --json`` against invariants derived from an
  Apery set computed here by shortest paths over the residues mod m.

The budget probes hang at the seed, so they have no recorded output; the
closed forms check them if a later version lets them finish.
"""

from __future__ import annotations

import hashlib
import heapq
import json


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _flag(args, name):
    return args[args.index(name) + 1]


def _ints(text):
    return tuple(int(x) for x in text.split(","))


def _range_hi(args):
    lo, hi = _flag(args, "--range").split("..")
    if lo != "0":
        raise ValueError("closed forms are written for ranges starting at 0")
    return int(hi)


def _is_rsz(gens, q):
    """k[H]/(t^q) with H = <q, ..., 2q-1>: the radical squares to zero."""
    return gens == tuple(range(q, 2 * q))


def _ext_rsz(op, out, rec):
    gens, e = _ints(_flag(op.args, "--H")), int(_flag(op.args, "--q"))
    if not _is_rsz(gens, e):
        raise ValueError(f"k[{gens}]/(t^{e}) is not radical-square-zero")
    want = [(e - 1) ** i for i in range(_range_hi(op.args) + 1)]
    return json.loads(out)["dims"] == want


def _ext_free(op, out, rec):
    q = int(_flag(op.args, "--q"))
    return json.loads(out)["dims"] == [q] + [0] * _range_hi(op.args)


def _ulrich_layers(op, out, rec):
    data = json.loads(out)
    up_to = int(_flag(op.args, "--up-to")) if "--up-to" in op.args else 5
    return data["layers"] == [data["mu"] * data["colength"]] * up_to


def _betti(op, out, rec):
    betti = json.loads(out)["betti"]
    gens, q = _ints(_flag(op.args, "--H")), int(_flag(op.args, "--q"))
    length = int(_flag(op.args, "--length"))
    if len(betti) != length + 1:
        return False
    if _flag(op.args, "--mod") == "k" and _is_rsz(gens, q):
        if betti != [(q - 1) ** i for i in range(length + 1)]:
            return False
    return rec is None or betti == rec["ext_k"]


def apery(gens):
    """Ap(H, m) for m = min(gens), by Dijkstra over the residues mod m."""
    m = min(gens)
    dist = [None] * m
    dist[0] = 0
    heap = [(0, 0)]
    while heap:
        d, r = heapq.heappop(heap)
        if d != dist[r]:
            continue
        for g in gens:
            nd, nr = d + g, (r + g) % m
            if dist[nr] is None or nd < dist[nr]:
                dist[nr] = nd
                heapq.heappush(heap, (nd, nr))
    return sorted(dist)


def sgp_oracle(gens):
    """``sgp info --json`` of a semigroup given by minimal generators."""
    gens = tuple(sorted(gens))
    m = gens[0]
    if not (len(gens) == 2 and gens[1] % m) and gens[-1] >= 2 * m:
        raise ValueError(f"cannot confirm that {gens} are minimal generators")
    ap = apery(gens)
    frobenius = ap[-1] - m
    genus = (2 * sum(ap) - m * (m - 1)) // (2 * m)  # Selmer
    return {
        "generators": list(gens),
        "multiplicity": m,
        "embedding_dim": len(gens),
        "frobenius": frobenius,
        "genus": genus,
        "minimal_multiplicity": len(gens) == m,
        "almost_minimal_multiplicity": len(gens) + 1 == m,
        "gap_symmetric": 2 * genus == frobenius + 1,
        "apery_of_multiplicity": ap,
    }


def _sgp_oracle(op, out, rec):
    return json.loads(out) == sgp_oracle(_ints(_flag(op.args, "--gens")))


CLOSED_FORMS = {
    "ext_rsz": _ext_rsz,
    "ext_free": _ext_free,
    "ulrich_layers": _ulrich_layers,
    "betti": _betti,
    "sgp_oracle": _sgp_oracle,
}


def verify(op, rc, stdout: bytes, stderr: bytes, killed: bool, expected: dict):
    """Outcome of one op: ("ok" | "failed" | "budget_exceeded", reason)."""
    err = stderr.decode("utf-8", "replace")
    if killed:
        return "budget_exceeded", f"over the {op.cap_s:g} s wall cap"
    if "MemoryError" in err:
        return "budget_exceeded", "over the address-space cap"
    if "Traceback" in err:
        return "failed", "traceback: " + err.strip().splitlines()[-1]
    if rc != (1 if op.expect == "error" else 0):
        return "failed", f"exit code {rc}"
    if op.expect == "error" and not err.startswith("error:"):
        return "failed", "domain error without 'error:'"
    rec = expected.get(op.id)
    if rec is None and not op.probe:
        return "failed", "no recorded output for this op"
    if rec is not None and digest(stdout) != rec["sha256"]:
        return "failed", "output differs from the recorded seed output"
    if op.check is not None:
        try:
            good = CLOSED_FORMS[op.check](op, stdout, rec)
        except (ValueError, KeyError, TypeError) as exc:
            return "failed", f"{op.check}: unreadable output ({exc})"
        if not good:
            return "failed", f"{op.check}: closed form does not hold"
    return "ok", ""
