"""Computer algebra and numerics for CCR algebras represented in Krein
spaces of entire functions.

Layers:

- ``exact`` / ``algebra``: exact noncommutative *-algebra engine
  (normal ordering, involutions, isomorphisms, Bogoliubov checks).
- ``sl2``: the implementable lower-triangular subgroup of SL(2, C) and
  adjoint-orbit classification of gauge generators.
- ``truncfn``: truncated entire functions, the implementer Gamma_S, and
  Fourier projections onto gauge modes.
- ``pcf``: parabolic cylinder functions D_lambda with ladder relations.
- ``reps``: single-mode Krein representations (Fock, anti-Fock, the
  parabolic-cylinder family), verification, canonical reduction.
- ``multimode``: signed CCR families, the representation on multivariate
  polynomials, spectral condition, vacuum descent.
- ``dsl`` / ``cli``: expression language and command-line front end.
"""

from .algebra import (HEISENBERG, HOLOMORPHIC, AlgebraElement, GeneratorSet,
                      Involution, apply_automorphism, apply_isomorphism,
                      commutator, format_element, multimode_set, normal_order,
                      substitute)
from .exact import ExactScalar
from .exceptions import (Degenerate, DomainError, IncompatibleAlgebras,
                         KreinCcrError, NonFinite, NotHermitian,
                         NotInvolutive, NotRegularizable, NotUnimodular,
                         NullSubrepresentation, ParseError,
                         SingularTransformation, ZeroInput, ZeroVector)
from .multimode import (EtaSignature, MultiIndexState, build_multimode_rep,
                        diagonalize_eta, rho_iso, spectral_condition_check,
                        vacuum_descent)
from .pcf import F, PcfValue, hermite_closed_form, ladder_check, weber_D
from .reps import (BasisRep, CanonicalForm, build_antifock,
                   build_fock_bargmann, build_schroedinger_theta,
                   detect_null_subrep, gauge_unitary, krein_adjoint,
                   krein_decomposition, reduce_to_canonical,
                   scaling_intertwiner, verify_rep)
from .sl2 import (OrbitKind, OrbitResult, SlVector, adjoint_action,
                  classify_orbit, conjugation_from_V, is_bogoliubov)
from .truncfn import (TruncFn, annihilator_beta_minus, fourier_project,
                      gamma_S, gamma_S_inverse, rotation_family, seminorm,
                      verify_implementation)

__version__ = "0.1.0"
