"""Exact sectional-category invariants for finitely presented commutative
differential graded algebras over the rationals.

The layers, bottom up:

    linalg      exact echelon forms and solvers on integer rows
    core        presentations, elements, the differential, morphisms,
                tensors, quotients
    homology    cohomology of any cochain complex (presentations, semifree
                modules), induced maps, the degreewise hit/kill builder,
                kernels, ideal powers, nilpotency, duality
    construct   minimal Sullivan models, and the Surjection value with its
                multiplication and diagonal constructions
    semifree    semifree modules, quotient resolutions, module retractions
    invariants  the bound chains (toomer/mcat/cat, htc/mtc/tc, sectional)
                and machine-checkable certificates
    lang, cli   the text format and the command line front end
"""

from .core import (AlgebraElement, CdgaError, CdgaMorphism, DegreeMismatch,
                   Generator, IdealNotClosed, Inhomogeneous, NotFree,
                   NotQuasiIso, NotSimplyConnected, NotSquareZero,
                   NotSurjective, Presentation, PresentationMismatch,
                   RangeExceedsCap, identity_morphism, quotient_by_ideal,
                   sub_presentation, tensor, tensor_power)
from .homology import (HomologyReport, HomologyView, IdealPowers,
                       NilpotencyResult, PresentationView, homology,
                       kernel_basis, kernel_ideal_generators, nil_ideal,
                       poincare_duality_check, quasi_iso_failure)
from .construct import (SullivanModelResult, Surjection, build_minimal_model,
                        diagonal_model, multiplication_morphism,
                        sullivan_model_of)
from .semifree import (QuotientResolution, RetractionResult, SemiFreeModule,
                       find_module_retraction, resolve_quotient,
                       semifree_from_relative, verify_module_retraction)
from .invariants import (Bound, CatReport, Certificate, SurjectionReport,
                         TCReport, augmentation_morphism, cat_bounds,
                         certificate_from_json, certificate_to_json,
                         surjection_bounds, surjection_of, tc_bounds,
                         verify_certificate)
from .lang import (ParseError, make_presentation, parse_document,
                   parse_element, print_presentation, realize_document)

__version__ = "0.1.0"
