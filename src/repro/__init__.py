"""repro — a reproduction of "Composable computation in discrete chemical reaction networks".

Severson, Haley, Doty (PODC 2019).  The package implements the discrete CRN
model, output-oblivious (composable) computation, the paper's characterization
of obliviously-computable functions (Theorem 5.2), all of its constructions
(Theorems 3.1 and 9.2, Lemmas 6.1 and 6.2), the Lemma 4.1 impossibility tool,
the Section 7 domain decomposition, and the Section 8 continuous-CRN
correspondence, together with simulators, a verification harness, and a
benchmark suite regenerating every figure of the paper.

Quickstart (the :class:`~repro.api.workbench.Workbench` facade)::

    import repro

    wb = repro.Workbench(repro.RunConfig(trials=20, seed=7))
    compiled = wb.compile(repro.minimum_spec())
    assert compiled.verify().passed
    print(compiled.simulate((30, 50)).output_mode)  # -> 30

or hands-on with the underlying pieces::

    from repro import species, CRN, verify_stable_computation

    X1, X2, Y = species("X1 X2 Y")
    min_crn = CRN([X1 + X2 >> Y], (X1, X2), Y, name="min")
    report = verify_stable_computation(min_crn, lambda x: min(x[0], x[1]))
    assert report.passed
"""

from repro.crn import (
    CRN,
    Configuration,
    Expression,
    Reaction,
    Species,
    concatenate,
    parse_reaction,
    species,
)
from repro.quilt import EventuallyMin, QuiltAffine
from repro.core import (
    FunctionSpec,
    build_1d_crn,
    build_crn_for,
    build_general_crn,
    build_leaderless_1d_crn,
    build_quilt_affine_crn,
    check_obliviously_computable,
    decompose,
)
from repro.verify import (
    audit_output_oblivious,
    find_overproduction,
    verify_composition,
    verify_stable_computation,
)
from repro.api import RunConfig
from repro.api.workbench import CompiledFunction, Workbench
from repro.functions import (
    add_spec,
    all_catalog_specs,
    all_extended_specs,
    all_paper_example_specs,
    double_spec,
    identity_spec,
    maximum_spec,
    minimum_spec,
)

from repro.lab import (
    Campaign,
    CampaignRun,
    SweepGrid,
    resume_campaign,
    run_campaign,
)

# Kept in sync with setup.py (tests/test_api_workbench.py enforces it and
# `python -m repro --version` prints it).
__version__ = "1.11.0"

__all__ = [
    "CRN",
    "Configuration",
    "Expression",
    "Reaction",
    "Species",
    "concatenate",
    "parse_reaction",
    "species",
    "EventuallyMin",
    "QuiltAffine",
    "FunctionSpec",
    "build_1d_crn",
    "build_crn_for",
    "build_general_crn",
    "build_leaderless_1d_crn",
    "build_quilt_affine_crn",
    "check_obliviously_computable",
    "decompose",
    "audit_output_oblivious",
    "find_overproduction",
    "verify_composition",
    "verify_stable_computation",
    "RunConfig",
    "Workbench",
    "CompiledFunction",
    "Campaign",
    "CampaignRun",
    "SweepGrid",
    "resume_campaign",
    "run_campaign",
    "add_spec",
    "all_catalog_specs",
    "all_extended_specs",
    "all_paper_example_specs",
    "double_spec",
    "identity_spec",
    "maximum_spec",
    "minimum_spec",
    "__version__",
]
