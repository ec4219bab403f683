"""Exact distance-matrix formulas for completely positive graph families.

The package builds the supported graph families (triangle fans, fan books
glued at a hub, complete bipartite graphs, trees, K4), evaluates their
closed-form distance determinants and inverses over exact rational
arithmetic, and verifies every formula against independent brute-force
oracles (Bareiss determinants, ranks and inverses, characteristic
polynomials by Hessenberg reduction and the Hessenberg recurrence).
"""

from .closed_form import (
    ProductCheckError,
    SingularFamilyError,
    StructuredBlockForm,
    kmn_det,
    kmn_distance,
    kmn_inverse,
    tn_det,
    tn_distance,
    tn_inverse,
    tn_laplacian,
    tn_rmat,
    tnb_det,
    tnb_distance,
    tnb_inverse,
    tnb_inverse_form,
    tnb_laplacian,
    tnb_product_identities,
    tnb_rmat,
    tnb_xblocks,
    tree_det,
    tree_inverse,
)
from .graphs import (
    Bipartite,
    BlockDecomposition,
    CompleteBipartite,
    FamilySpec,
    Graph,
    GraphError,
    K4,
    Tree,
    TnBook,
    TnSingle,
    VertexPartition,
    all_pairs_distances,
    biconnected_blocks,
    build_family,
    classify_block,
    is_cp_graph,
    laplacian,
    tnb_partition,
)
from .linalg import (
    AibjAnalysis,
    CharPoly,
    RationalMatrix,
    SingularMatrixError,
    SpectrumClaim,
    aibj_analysis,
    char_poly_exact,
    det_exact,
    imat,
    inverse_exact,
    jmat,
    ones_col,
    rank,
    rank_one_update_inverse,
    rational_str,
    schur_inverse,
    swap2,
    zmat,
)
from .rng import Lcg, random_tree_edges
from .spectra import ClaimCheck, claimed_spectrum, principal_submatrix, verify_claim
from .suites import VerificationReport, run_suite

__version__ = "0.1.0"
