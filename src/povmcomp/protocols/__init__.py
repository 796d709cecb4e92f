"""End-to-end simulators and rate regions.

Submodules: ``prep`` (instance preparation and thresholds), ``compress``
(codebooks, compressed POVMs, adversary scenarios and their targets),
``hashing`` (2-universal GF(2) hashes), ``compose`` (the centralised
multi-link protocol: its hashed links compress classical data against
quantum side information on B, its run with no hashed link is the
unassisted simulation, and its one-link run the side-information
composition), ``regions`` (one-shot and iid rate regions).
"""

from .prep import LINKS, PreparedInstance, prepare, thresholds  # noqa: F401
from .compress import (  # noqa: F401
    Codebook,
    CodebookPlan,
    CompressedFamily,
    ProtocolError,
    budget_from_thresholds,
    build_compressed_povm,
    plan_codebooks,
)
from .hashing import HashScheme, draw_hash  # noqa: F401
from .compose import (  # noqa: F401
    centralised_protocol,
    compose_with_side_information,
    sequential_kraus,
    simulate_unassisted,
)
from .regions import RateRegion, iid_region, one_shot_region  # noqa: F401
