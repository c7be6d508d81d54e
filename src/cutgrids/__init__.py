"""Exact computational models of cut-grid bordisms.

The package stacks up in layers: ``shapes`` (simplex/pointed-set/tree
index categories), ``finitecat`` (finite categories, presheaves, nerve
and Segal/globularity checkers), ``plgeom`` (exact piecewise-linear
regions on lines, circles, and the plane), ``grids`` (signed cut data,
validity, cores, compactness, globularity, pullback along embeddings),
``bordisms`` (validated bordisms, restriction by ``bordism_pullback``,
germ-of-core classification, composition, products, metric and family
plug-ins), ``documents`` / ``render`` / ``cli`` (exact JSON round-trip,
deterministic SVG, and the command-line front end).
"""

from .errors import (
    ArgumentError,
    ArtifactError,
    DocumentEncodingError,
    DocumentSyntaxError,
    DocumentValidationError,
    NeighborhoodError,
    NotComposableError,
    NotDirectlyConstructibleError,
    OverlapError,
    UnsupportedDimensionError,
    UnsupportedFieldError,
    ValidationError,
)
from .reporting import ReportEntry, ValidationReport
from .shapes import (
    GammaMorphism,
    MonotoneMap,
    Multisimplex,
    MultisimplexOperator,
    ThetaMorphism,
    ThetaObject,
    compose_monotone,
    compose_operators,
    gamma_compose,
    hat_multisimplex,
    theta_compose,
    theta_of_multisimplex,
    vertex_operator,
)
from .finitecat import (
    FinCategory,
    FinFunctor,
    FinPresheaf,
    TruncSSet,
    check_completeness_nerve,
    check_globularity_presheaf,
    check_segal_delta,
    check_segal_gamma,
    elements_category,
    external_product,
    is_discrete_fibration,
    nerve,
    pi0,
)
from .plgeom import (
    Ambient1D,
    Ambient2D,
    INF,
    NEG_INF,
    PLFunc,
    PLRegion,
    fr,
)
from .grids import (
    AffineMap,
    AmbientEmbedding,
    ComponentCut1D,
    ComponentCut2D,
    Cut1D,
    Cut2D,
    CutGrid,
    CutTuple,
    MonoidalCutGrid,
    Sheet,
    apply_simplicial,
    classify_point,
    core,
    grid_check,
    is_compact,
    is_globular,
    pullback_along,
    relabel,
    vertex_grid,
)
from .bordisms import (
    Bordism,
    BordismFamily,
    CATALOG_NAMES,
    FamComponentCut1D,
    FamCut1D,
    FieldDatum,
    bordism_core,
    bordism_pullback,
    catalog,
    conjoint_of_point_isotopy,
    embedded_field,
    equivalent,
    face_compose,
    family_at,
    is_morphism,
    metric_core_length,
    monoidal_product,
    normalize,
    pullback_metric,
    shrink_to_core,
    source_target,
    validate,
    validate_family,
)
from .documents import (
    Document,
    document_for,
    parse_document,
    payload_report,
    serialize_document,
)
from .render import render_svg

__version__ = "0.1.0"
