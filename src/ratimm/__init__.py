"""Exact rational-homotopy computations for spaces of immersions.

A pure-Python engine for graded-commutative differential algebras over
the rationals, with constructors for the classifying-space, Stiefel and
framed-bundle models that describe immersion spaces Imm(M, R^{m+k})
through the Smale-Hirsch correspondence, plus Betti-series assembly and
polynomial-growth classification of their components.

All arithmetic is exact: an integral coefficient is an int wherever it
is made, only a true fraction is a fractions.Fraction, and no floating
point is used anywhere.
"""

from .gca import Element, FreeAlgebra, Generator, parse_element
from .cdga import (BettiTable, CdgaMorphism, FiniteAlgebra, FiniteCdga,
                   FreeCdga, RelativeModel, TensorAlgebra, check_d_squared,
                   cohomology, is_quasi_iso, tensor, unit_cdga)
from .bundles import (ManifoldModel, TrivialityVerdict, bso_model,
                      borel_assoc_model, complex_projective_plane,
                      framed_bundle_model, is_rationally_trivial,
                      sphere_manifold, sphere_product_manifold, stiefel_model,
                      unreduced_framed_model)
from .mapping import (EMFactor, SphereFactor, em_mapping_space, em_split,
                      section_model, sphere_bundle, sphere_map_null_model,
                      sphere_model)
from .series import PoincareSeries, RationalForm, em_series, series_product
from .immersions import (Growth, HypothesisCheck, ImmersionDescription,
                         connectivity_verdict, description_to_dict,
                         description_to_json, growth_degree,
                         immersion_components, verify_growth_bounds)
from .io import (load_cdga, load_manifold, parse_cdga, parse_manifold,
                 serialize_cdga, serialize_manifold)
from . import errors

__version__ = "0.1.0"
