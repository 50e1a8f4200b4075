"""Exact-arithmetic horizontal-line geometry in metabelian groups.

Build a two-step nilpotent group from an antisymmetric vector-valued
form, point a family of horizontal lines along an isotropic projective
chart, and verify the resulting differential-geometric identities over
the rationals with zero tolerance.
"""

from .compactification import (
    BoundaryPoint,
    boundary_point,
    bundle_to_space,
    compactified_line,
    g_action,
)
from .lines import (
    HorizontalLine,
    PlueckerLine,
    TangentDirectionPoint,
    line_through,
    pluecker_embed,
    slide_action,
)
from .metabelian import (
    GroupElement,
    OmegaForm,
    bracket,
    element,
    identity_element,
    inverse,
    levi_tensor,
    maurer_cartan_log_derivative,
    multiply,
)
from .omega_builder import OmegaConstruction, build_omega
from .report import CheckResult, VerificationReport
from .runner import CHECK_NAMES, run_verification
from .sampling import RationalSampler
from .scalars import Q
from .varieties import (
    IsotropyCertificate,
    VarietyChart,
    builtin_chart,
    builtin_names,
    certify_isotropic,
    linear_chart,
    make_chart,
    veronese_chart,
)

__version__ = "0.1.0"

__all__ = [
    "BoundaryPoint",
    "CHECK_NAMES",
    "CheckResult",
    "GroupElement",
    "HorizontalLine",
    "IsotropyCertificate",
    "OmegaConstruction",
    "OmegaForm",
    "PlueckerLine",
    "Q",
    "RationalSampler",
    "TangentDirectionPoint",
    "VarietyChart",
    "VerificationReport",
    "boundary_point",
    "bracket",
    "build_omega",
    "builtin_chart",
    "builtin_names",
    "bundle_to_space",
    "certify_isotropic",
    "compactified_line",
    "element",
    "g_action",
    "identity_element",
    "inverse",
    "levi_tensor",
    "line_through",
    "linear_chart",
    "make_chart",
    "maurer_cartan_log_derivative",
    "multiply",
    "pluecker_embed",
    "run_verification",
    "slide_action",
    "veronese_chart",
    "__version__",
]
