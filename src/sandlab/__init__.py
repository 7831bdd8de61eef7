"""Sand automata toolkit: exact simulation, the binary-CA correspondence,
and the nilpotency laboratory."""

from .heights import MINUS_INF, PLUS_INF, Height
from .lattice import (
    Configuration,
    Kind,
    constant,
    grid_config,
    height_at,
    line_config,
    periodic_config,
    raise_by,
    read_row,
    shift,
)
from .metric import (
    GroundCylinder,
    StaircasePattern,
    TopCylinder,
    beta,
    dist_ground,
    dist_top,
    ground_cylinder,
    top_cylinder,
    zeta_window,
)
from .sa import (
    FuncRule,
    Range,
    dense_rule,
    identity_rule,
    iterate_local_rule,
    orbit,
    raise_rule,
    range_at,
    step,
)
from .ca import CaRule, table_rule
from .bridge import build_ca_from_sa, decide_sa, extract_sa_rule
from .nilpotency import (
    SpreadingCa,
    build_reduction,
    detect_flatten,
    find_ultimate_period,
    make_collapse,
    xi_encode,
)
from .dsl import RuleProgram, parse_rule, serialize_rule
from .files import parse_ca, parse_config, serialize_ca, serialize_config

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
