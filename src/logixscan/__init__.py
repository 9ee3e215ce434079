"""EtherNet/IP (CIP) client stack for ControlLogix-style tag access.

Layers: `encap` (TCP framing and sessions), `cip` (service codec),
`tags` (address parsing and BOOL-array remapping), `client` (session
round trips), `plan` (pure scan planning: which transfers a list sends),
`cycle` (one transfer loop: sending a step's transfers and storing their
replies), `scanner` (periodic batched scanning and writes), `config` (scan
config files), `plcsim` (soft PLC), `cli` (command-line tool).
"""

from .cip import CipError, CipStatusError, CipType, CipValue
from .client import PlcClient, PlcEndpoint, PlcError, PlcTimeout
from .encap import DEFAULT_PORT, EncapError
from .plan import Direction
from .scanner import Quality, TagScanner
from .tags import TagRef, bool_remap, dint_span_for_bools, parse_tag

__version__ = "0.1.0"

__all__ = [
    "CipError",
    "CipStatusError",
    "CipType",
    "CipValue",
    "DEFAULT_PORT",
    "Direction",
    "EncapError",
    "PlcClient",
    "PlcEndpoint",
    "PlcError",
    "PlcTimeout",
    "Quality",
    "TagRef",
    "TagScanner",
    "bool_remap",
    "dint_span_for_bools",
    "parse_tag",
    "__version__",
]
