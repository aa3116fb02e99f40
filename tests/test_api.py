"""The optional parameters of the solver modules' public functions.

Each option is one more setting that the tests and the benchmark have to
cover, so the set is pinned here: adding, removing or renaming an option of
a public function in ``core``, ``maxnorm``, ``infnorm``, ``family``, ``sign``
or ``lss`` means editing this table. A ``**kwargs`` catch-all counts as one
option. Budgets and tolerances that nothing needs to set are module
constants instead: every eigen call runs at ``core.DEFAULT_TOL``, and an
option whose one accepted value is its default is no option.
"""

import inspect

from metzstab import core, family, infnorm, lss, maxnorm, sign

MODULES = (core, maxnorm, infnorm, family, sign, lss)

OPTIONS = {
    "core.as_square_matrix": ("name",),
    "core.is_schur_stable": ("level",),
    "core.matrix_norm": ("kind",),
    "core.power_iteration": ("max_iter",),
    "core.validate_metzler": ("name",),
    "core.validate_nonnegative": ("name",),
    "infnorm.ball_row_minimizer": ("schur",),
    "infnorm.closest_stable_inf_schur": ("allow_metzler",),
    "infnorm.closest_unstable_inf_schur": ("level",),
    "family.optimize_with_irreducibility_patch": ("start_choices",),
    "family.row_optimize": ("direction", "incumbent"),
    "family.selective_greedy": ("direction", "start_choices"),
    "lss.hull_max_abscissa": ("resolution",),
    "lss.stabilize_2d_lss": ("resolution",),
}


def _optional(func) -> tuple[str, ...]:
    return tuple(p.name for p in inspect.signature(func).parameters.values()
                 if p.default is not p.empty or p.kind is p.VAR_KEYWORD)


def _public_options() -> dict[str, tuple[str, ...]]:
    found = {}
    for module in MODULES:
        prefix = module.__name__.rsplit(".", 1)[-1]
        for name, obj in vars(module).items():
            if (name.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != module.__name__):
                continue
            options = _optional(obj)
            if options:
                found[f"{prefix}.{name}"] = options
    return found


def test_public_functions_have_exactly_the_pinned_options():
    found = _public_options()
    assert found == OPTIONS
    assert sum(len(options) for options in found.values()) == 16
