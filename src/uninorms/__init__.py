"""Idempotent discrete uninorms on finite chains.

Construction (three equivalent routes), enumeration, property checking with
graphical counterparts, contour-plot rendering, and brute-force verification
of every characterization at small chain sizes.
"""

from types import ModuleType as _ModuleType

from .core import (
    BinaryOperation,
    ContourPartition,
    FiniteChain,
    GSpec,
    LinearOrder,
    Restriction,
    contour_partition,
    format_order,
    format_table,
    make_operation,
    parse_order,
    parse_table,
    parse_table_auto,
    restrict,
    table_from_json_dict,
    table_to_json_dict,
)
from .fixtures import fixture, fixture_names
from .generate import (
    count_uninorms,
    count_uninorms_by_neutral,
    enumerate_gspecs,
    generate_all_uninorms_gc,
    gspec_collision_report,
    make_gbar,
    uninorm_from_gspec,
)
from .oracle import (
    PropertyProfile,
    enumerate_conservative,
    enumerate_nondecreasing,
    probe_open_questions,
    profile,
    theorem_bound,
    theorem_names,
    verify_theorem,
)
from .properties import (
    Rectangle,
    RectWitness,
    associativity_witness,
    bisymmetry_witness,
    conservativeness_witness,
    find_neutral_conservative,
    find_neutral_element,
    find_neutral_via_sections,
    is_associative,
    is_associative_conservative_rect,
    is_bisymmetric,
    is_conservative,
    is_conservative_via_contour,
    is_idempotent,
    is_nondecreasing,
    is_symmetric,
    isolated_points,
    monotonicity_witness,
    rect_associativity_witness,
    rectangle_count,
    rectangles,
    symmetry_witness,
)
from .render import render_contour_dot, render_contour_text, render_profile
from .single_peaked import (
    enumerate_single_peaked,
    is_single_peaked,
    is_single_peaked_via_profile,
    local_maxima,
    order_to_uninorm,
    profile_heights,
    single_peakedness_witness,
    uninorm_to_order,
)

# the names imported above, not the submodules that importing them binds
__all__ = [name for name in dir()
           if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)]
