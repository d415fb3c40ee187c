"""Higher dimensional transition systems and labelled symmetric precubical sets.

The package has five layers:

- :mod:`hdts.core` -- weak higher dimensional transition systems, axiom
  checkers, cube systems, colimits, morphism enumeration;
- :mod:`hdts.precube` / :mod:`hdts.sync` -- labelled symmetric
  precubical sets, unique-filler reflection, fibered products, directed
  coskeleta and the synchronized tensor product;
- :mod:`hdts.realize` -- the realization of precubical sets as systems
  and the cubification of systems;
- :mod:`hdts.ccs` -- process terms and their precubical semantics;
- :mod:`hdts.cli` / :mod:`hdts.serialize` -- the command-line pipeline.
"""

from .alphabet import Alphabet, ConfigError, DEFAULT_ALPHABET, make_alphabet
from .core import (
    Action,
    AxiomReport,
    HdtsColimit,
    HdtsMorphism,
    StructureError,
    Transition,
    WeakHDTS,
    coherence_closure,
    colimit,
    cube,
    cube_ext,
    cube_inclusion,
    cube_state_bits,
    cube_state_id,
    disjoint_union,
    hom_enumerate,
    identity_morphism,
    is_orthogonal,
    iso_check,
    lone_action,
    parallel_edges,
    transition,
    validate,
)
from .encoding import (
    CubeEncoding,
    NotCubeMapError,
    all_encodings,
    compose,
    face_encoding,
    identity_encoding,
    sym_encoding,
)
from .precube import (
    PrecubeError,
    PrecubeMap,
    PrecubicalSet,
    boundary,
    check_relations,
    colimit_presheaf,
    hda_check,
    hom_enumerate_precube,
    iso_check_precube,
    make_precube,
    sh_reflect,
    standard_cube,
    truncate,
)
from .realize import (
    ActionClassPartition,
    Cubification,
    Realization,
    cube_maps_into,
    cubify,
    edge_action_classes,
    in_hda_hdts,
    is_strong,
    realize,
    realize_cube_map,
    realize_map,
    unrealize_cube_map,
)
from .sync import cosk_directed, fibered_product, tensor_sync
from .ccs import CcsSyntaxError, ProcessTerm, compile_text, parse, semantics, term_str

__all__ = [name for name in dir() if not name.startswith("_")]
