"""Exact computer algebra for dendriform dialgebras.

The package splits an associative product into two half-products, derives
the pre-Lie and Lie structure, and mechanically verifies the identities that
follow: power-sum expansions over compositions, the Dynkin/Magnus circle of
results, symmetrized Bohnenblust-Spitzer identities with their Lyndon-word
combinatorics, and the specializations to Rota-Baxter operator algebras.
All coefficients are rational and every check is exact equality.

Every name below loads on first use (PEP 562): ``import dendralg`` executes
no submodule, and the first lookup of, say, ``dendralg.Elem`` imports
`dendralg.ncalg` and binds the name here, so a process pays only for the
modules it uses.
"""

import importlib
import importlib.util
import sys

__version__ = "0.1.0"

# submodule -> the names the package re-exports from it
_EXPORTS = {
    "dendriform": (
        "DendriformStructure", "OppositeStructure", "ell",
        "lie_bracket", "opposite", "prelie_left", "prelie_right", "r",
        "w_left", "w_right",
    ),
    "errors": (
        "AxiomCheckFailure", "DendralgError", "EmptyArgumentList", "EmptyWord",
        "InvalidPermutation", "NormalizationError", "RBWeightCheckFailure",
        "SortMismatch", "UnitMisuse",
    ),
    "hopf": (
        "comp_antipode", "comp_coproduct", "comp_dynkin", "compositions",
        "comp_denominator", "convolution_expansion", "dynkin_w",
        "dynkin_word", "gamma", "ordered_partition_expansion", "w_antipode",
        "w_left_from_compositions", "w_right_from_compositions",
    ),
    "lyndon": (
        "census_formula", "cfl_factorize", "is_lyndon", "lyn_set",
        "lyndon_census", "pbw_expansion", "profile", "spitzer_sums", "t_sigma",
        "u_sigma",
    ),
    "magnus": (
        "bernoulli_numbers", "dynkin_ode_check", "magnus_omega",
        "power_sum_series", "star_exp", "star_log",
    ),
    "ncalg": (
        "Elem", "Perm", "Series", "Word", "multilinear_part", "series_mul",
    ),
    "structures": (
        "STANDARD_SELECTORS", "FreeStructure", "MaxStructure", "MRStructure",
        "RBStructure", "ShuffleStructure", "from_selector", "free_structure",
        "max_structure", "mr_structure", "random_element",
        "rb_polymat_structure", "rb_seqmat_structure", "shuffle_structure",
    ),
    "suites": ("SUITES", "Options", "SuiteReport", "run_suites"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME) | set(_EXPORTS))


def _lazy(name: str):
    """The submodule dendralg.<name>, executed on its first attribute use.

    importlib.util.LazyLoader defers running, and so compiling, the
    module's code until an attribute of it is first read.  The module is
    entered in sys.modules and bound here at once, as an import binds it, so
    ``dendralg.<name>`` and code that looks the module up in sys.modules
    find it unexecuted.  A module already imported is returned as it is.
    """
    fullname = f"{__name__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
        globals()[name] = module
    return module
