"""The `ext table` and `extdeg` commands, loaded when one of them runs.

Module mini-language for --mod: `k`, `A`, `cyc(g)`, joined with `+`,
e.g. `cyc(5)+A`.
"""

from . import artinian as ar, semigroup
from .cli import _key_values
from .errors import MalformedDescriptor


def parse_module_expr(algebra, text: str):
    """Module mini-language: k | A | cyc(g), summed with '+'."""
    total = None
    for raw in text.split("+"):
        part = raw.strip()
        if part == "k":
            piece = ar.residue_field(algebra)
        elif part == "A":
            piece = ar.free_module(algebra, 1)
        elif part.startswith("cyc(") and part.endswith(")"):
            body = part[4:-1]
            try:
                degree = int(body)
            except ValueError:
                raise MalformedDescriptor(f"bad cyclic degree {body!r}") from None
            piece = ar.cyclic_quotient(algebra, degree)
        else:
            raise MalformedDescriptor(f"bad module expression part {part!r}")
        total = piece if total is None else ar.direct_sum(total, piece)
    return total


def _algebra(gens, q, prime):
    H = semigroup.NumericalSemigroup.from_generators(gens)
    return ar.truncation_algebra(H, q, char=prime)


def ext_table(gens, q, mod, bounds, prime, tor):
    lo, hi = bounds
    algebra = _algebra(gens, q, prime)
    module = parse_module_expr(algebra, mod)
    fn = ar.tor_dims if tor else ar.ext_dims
    dims = fn(module, module, hi)[lo:]
    # the largest dimension first: past the interpreter's digit limit its str()
    # raises the ValueError that cli.main reports, before the table is formatted
    str(max(dims))
    data = {
        "algebra": algebra.descriptor(),
        "module": mod,
        "functor": "tor" if tor else "ext",
        "range": [lo, hi],
        "dims": list(dims),
    }
    cells = [(str(i), str(d)) for i, d in zip(range(lo, hi + 1), dims)]
    widths = [max(len(a), len(b)) for a, b in cells]
    return data, "\n".join([
        f"{data['functor']} over {data['algebra']}, M = {mod}",
        "i:   " + "  ".join(a.rjust(w) for (a, _), w in zip(cells, widths)),
        "dim: " + "  ".join(b.rjust(w) for (_, b), w in zip(cells, widths))])


def extdeg(gens, q, mod, window, prime):
    algebra = _algebra(gens, q, prime)
    data = ar.ext_deg_window(parse_module_expr(algebra, mod), window).to_json_dict()
    return data, _key_values(data)
