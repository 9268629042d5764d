"""Bus-mediated multi-qudit state transfer and teleportation with
permutation-conditional couplings, plus mapping analysis and a coherent-bus
capacity model.
"""

from . import catalog, cvbus, mappings, perms, protocol, states
from .catalog import *  # noqa: F403
from .cvbus import *  # noqa: F403
from .mappings import *  # noqa: F403
from .perms import *  # noqa: F403
from .protocol import *  # noqa: F403
from .states import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *catalog.__all__,
    *cvbus.__all__,
    *mappings.__all__,
    *perms.__all__,
    *protocol.__all__,
    *states.__all__,
]
