"""Z2 reflection index of translation-invariant matrix product states.

``__all__`` is the library: the entries that README's "Library use", the CLI
and the acceptance tests read, the records they take or return, and the
refusal classes a caller can receive. Tuple handling and certificates come
from :mod:`.mps`, the index from :mod:`.reflection`, modular data of
bipartite vectors from :mod:`.modular`, parent-Hamiltonian diagnostics from
:mod:`.hamiltonian`, the model zoo and parameter scans from :mod:`.scan`, and
the shared tolerance configuration from :mod:`.config`. The stages behind
them (``herm_eig``, ``gauge_solve``, ``marginal`` and the rest) stay in their
modules and are not re-exported.
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
    ResourceLimit,
    SptError,
)
from .hamiltonian import (EdBlock, EdReport, ParentInteraction, ed_report, parent_interaction,
                          reflection_check)
from .modular import (BipartiteVector, ModularReport, SchmidtData, as_bipartite, bond_vector,
                      modular_data, swap_sign)
from .mps import (MpsTuple, PrimitivityCertificate, as_mps, block, normalize, primitivity,
                  transfer_spectrum)
from .reflection import IndexReport, ReflectionEvidence, reflection_invariant, z2_index
from .scan import MODELS, FamilySpec, ScanPoint, ScanReport, family, scan, zoo

__version__ = "0.1.0"

__all__ = [
    # configuration
    "Config", "DEFAULT",
    # refusals
    "SptError", "AmbiguousSymmetry", "ConvergenceFailure", "DegenerateSupport", "DimensionCap",
    "Inconclusive", "InvalidInput", "NormalizationBroken", "NotHermitian", "NotNormalizable",
    "NotPrimitive", "NotReflectionInvariant", "ResourceLimit",
    # tuples and the index
    "MpsTuple", "PrimitivityCertificate", "as_mps", "block", "normalize", "primitivity",
    "transfer_spectrum",
    "IndexReport", "ReflectionEvidence", "reflection_invariant", "z2_index",
    # modular data
    "BipartiteVector", "ModularReport", "SchmidtData", "as_bipartite", "bond_vector",
    "modular_data", "swap_sign",
    # parent Hamiltonian
    "EdBlock", "EdReport", "ParentInteraction", "ed_report", "parent_interaction",
    "reflection_check",
    # models and scans
    "MODELS", "FamilySpec", "ScanPoint", "ScanReport", "family", "scan", "zoo",
]
