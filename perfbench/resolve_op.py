"""One call of ``minimal_resolution``, which no sackit subcommand exposes.

    PYTHONPATH=src python3 perfbench/resolve_op.py --H 4,5,6,7 --q 4 --mod k --length 6

prints the Betti numbers of the minimal resolution of the module (``k`` or
``cyc(g)``) over k[H]/(t^q) as JSON.  ``--ext`` prints dim Ext^i(M, k) for
i = 0..length from the component-splitting ``ext_dims`` path instead; over a
local algebra the two agree, which cross-checks the two syzygy engines.
"""

from __future__ import annotations

import argparse
import json


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(prog="resolve_op")
    parser.add_argument("--H", dest="gens", required=True)
    parser.add_argument("--q", type=int, required=True)
    parser.add_argument("--mod", default="k")
    parser.add_argument("--length", type=int, required=True)
    parser.add_argument("--p", type=int, default=None)
    parser.add_argument("--ext", action="store_true")
    args = parser.parse_args(argv)

    from sackit import (
        NumericalSemigroup,
        cyclic_quotient,
        ext_dims,
        minimal_resolution,
        residue_field,
        truncation_algebra,
    )

    H = NumericalSemigroup.from_generators(int(g) for g in args.gens.split(","))
    algebra = truncation_algebra(H, args.q, char=args.p)
    if args.mod == "k":
        module = residue_field(algebra)
    elif args.mod.startswith("cyc(") and args.mod.endswith(")"):
        module = cyclic_quotient(algebra, int(args.mod[4:-1]))
    else:
        parser.error(f"--mod must be k or cyc(g), got {args.mod!r}")
    if args.ext:
        key, values = "ext_k", ext_dims(module, residue_field(algebra), args.length)
    else:
        key, values = "betti", minimal_resolution(module, args.length).betti
    print(json.dumps({
        "algebra": algebra.descriptor(),
        "module": args.mod,
        "length": args.length,
        key: list(values),
    }, sort_keys=True))


if __name__ == "__main__":
    main()
