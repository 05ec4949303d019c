"""Exact computational commutative algebra at desk scale: numerical
semigroups and their monomial ideals, Ulrich ideal verification, minimal
free resolutions with Ext/Tor dimension tables over Artinian monomial
algebras, and a rule-based certificate engine for the symmetric Auslander
condition.

``import sackit`` compiles none of its modules: each is registered in
``sys.modules`` through ``importlib.util.LazyLoader`` and runs on its first
attribute access, and the public names resolve on first use (PEP 562).
``CERT_SCHEMA`` is owned by the private ``_schema``: a search never reads it.
"""

import importlib
import importlib.util
import sys

__version__ = "0.1.0"

# submodule -> its public names
_EXPORTS = {
    "_schema": ("CERT_SCHEMA",),
    "artinian": (
        "DEFAULT_PRIME", "ExtWindowReport", "MinimalResolution", "MonomialArtinianAlgebra",
        "PresentedModule", "Realization", "cyclic_quotient", "direct_sum", "ext_deg_window",
        "ext_dims", "free_module", "minimal_resolution", "module_from_presentation",
        "quotient_algebra", "realization", "residue_field", "tor_dims", "truncation_algebra",
    ),
    "certify": (
        "CITATIONS", "AbstractCI", "AbstractWithFiniteFlatCover",
        "Certificate", "Citation", "Glued", "ParameterPowerQuotient", "PowerSeriesExt",
        "Premise", "SemigroupRing", "Truncation", "UlrichPowerQuotient", "certify",
        "parse_ring", "validate_descriptor", "verify_premise",
    ),
    "errors": ("SackitError",),
    "ideals": (
        "SemigroupIdeal", "UlrichReport", "is_ulrich", "power_layer_lengths",
        "search_reduction", "ulrich_rank_formula",
    ),
    "modp": (),
    "semigroup": ("NumericalSemigroup",),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_OWNER)


def _lazy(name):
    """The importlib documentation's recipe: register a module that compiles
    and runs on its first attribute access."""
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    sys.modules[name] = module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)


# The submodule `certify` is left unbound here, so the package attribute is
# the function; the import system binds no parent attribute for a module
# already in sys.modules, so `import sackit.certify` does not rebind it.
for _name in _EXPORTS:
    if f"{__name__}.{_name}" not in sys.modules:
        _lazy(f"{__name__}.{_name}")
    if _name not in _OWNER:
        globals()[_name] = sys.modules[f"{__name__}.{_name}"]
del _name


def __getattr__(name):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
