"""Z2 reflection index of translation-invariant matrix product states.

Public surface re-exported here: tuple handling and certificates
(:mod:`.mps`), the reflection pipeline (:mod:`.reflection`), modular data of
bipartite vectors (:mod:`.modular`), parent-Hamiltonian diagnostics
(:mod:`.hamiltonian`), the model zoo and parameter scans (:mod:`.scan`), and
the shared tolerance configuration (:mod:`.config`).
"""

from .config import DEFAULT, Config
from .errors import (
    AmbiguousSymmetry,
    ConvergenceFailure,
    DegenerateSupport,
    DimensionCap,
    Inconclusive,
    InvalidInput,
    NormalizationBroken,
    NotHermitian,
    NotNormalizable,
    NotPrimitive,
    NotReflectionInvariant,
    RankDeficient,
    ResourceLimit,
    SptError,
)
from .hamiltonian import (ChainBlock, EdBlock, EdReport, ParentInteraction, chain_hamiltonian,
                          ed_report, parent_interaction, reflection_check)
from .linalg import herm_eig, peripheral_eigs, polar_unitary, psd_power
from .modular import (
    BipartiteVector,
    ModularReport,
    SchmidtData,
    as_bipartite,
    bond_vector,
    modular_data,
    schmidt,
    swap_sign,
)
from .mps import (
    InvariantState,
    Marginal,
    MpsTuple,
    PrimitivityCertificate,
    as_mps,
    block,
    invariant_state,
    marginal,
    normalize,
    primitivity,
    transfer_spectrum,
)
from .reflection import (
    GaugeSolution,
    IndexReport,
    ReflectedTuple,
    ReflectionEvidence,
    gauge_solve,
    reflected_tuple,
    reflection_invariant,
    z2_index,
)
from .scan import MODELS, FamilySpec, ScanPoint, ScanReport, family, scan, zoo

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
