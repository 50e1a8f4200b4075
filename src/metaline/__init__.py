"""Exact-arithmetic horizontal-line geometry in metabelian groups.

Build a two-step nilpotent group from an antisymmetric vector-valued
form, point a family of horizontal lines along an isotropic projective
chart, and verify the resulting differential-geometric identities over
the rationals with zero tolerance.  The package root exports nothing:
import each name from its submodule, e.g. metaline.runner.run_verification.
"""
